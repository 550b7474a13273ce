"""Multibeam satellite multicast precoding simulator.

Builds link-budget channel matrices for a geostationary multibeam
downlink, applies two-stage multicast precoders (interference-mitigation
or regularized zero-forcing inter-beam stage plus an intra-beam stage),
their worst-case robust variants, channel-aware user grouping and
multi-gateway splits with explicit CSI-sharing costs, and evaluates
everything by Monte Carlo against a broadcast-standard efficiency table.
"""

__version__ = "0.1.0"

from .channel import (
    BeamLayout,
    ChannelMatrix,
    LinkBudget,
    PerturbationBounds,
    PhaseModel,
    UserSet,
    assemble_channel,
    build_gain_matrix,
    build_phase_matrix,
    extract_users,
    hex_layout,
    perturb_channel,
    place_users,
)
from .config import ScenarioConfig, parse_config
from .evaluate import (
    ModcodTable,
    MonteCarloResult,
    beam_rate,
    run_monte_carlo,
    sinr_matrix,
)
from .gateway import (
    GatewayPlan,
    assemble_multigateway_precoder,
    local_csi,
    make_plan,
    overhead_per_gateway,
    share_csi,
)
from .grouping import group_users, robust_group_users
from .linalg import EigDecomposition, eigh_sorted
from .precoding import (
    Precoder,
    baseline_avg_mmse,
    baseline_four_color,
    intrabeam,
    mbim_interbeam,
    power_control,
    two_stage,
)
from .robust import eigen_shift_bound, robust_two_stage

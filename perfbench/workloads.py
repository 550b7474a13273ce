"""Benchmark workloads: config templates and the seed they are filled with.

Each template sets only the keys its workload needs; everything else
takes the ``ScenarioConfig`` default. ``run.threads`` and
``gateway.gateway_mode`` are deliberately never set, so the benchmark
keeps running if those knobs are removed. ``trials`` is the size of one
repetition; it is kept small so that a run holds many repetitions and
the fastest of them is a steady reading (see ``run.py``).

The config seed is the benchmark seed modulo ``REFERENCE_SEEDS``: the
output check compares every run with a reference ``results.csv`` that
was recorded once per (workload, config seed), see ``reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from string import Template

REFERENCE_SEEDS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int
    why: str
    template: str

    def config_text(self, seed: int) -> str:
        return Template(self.template).substitute(
            seed=config_seed(seed), trials=self.trials
        )

    def write_config(self, seed: int, path: Path) -> Path:
        path.write_text(self.config_text(seed))
        return path


def config_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


_WORKLOADS = (
    # The figure3_recipe.cfg recipe: many tiny matrices, Python overhead
    # (user placement, the two-stage loop, the per-beam rate map).
    Workload(
        name="desk_sweep",
        trials=3,
        why="K=7 figure-3 sweep, 4 schemes x 6 powers: Python overhead in "
            "user placement, tiny two-stage designs and the rate map",
        template="""\
[channel]
beams = 7
users_per_beam = 2
pool_per_beam = 2
beam_radius_3db_deg = 0.25
beam_spacing_deg = 4.0

[run]
scenarios = mbim, rzf, avg_mmse, four_color
trials = $trials
power_sweep_dbw = 10, 15, 20, 25, 30, 35
seed = $seed
grouping = none
""",
    ),
    # The gateway_desk.cfg recipe: the only workload on the gateway layer.
    Workload(
        name="gateway_coop",
        trials=3,
        why="K=12 over 3 gateways, 5 cooperation modes: the only workload "
            "that runs CSI sharing and multi-gateway assembly",
        template="""\
[channel]
beams = 12
users_per_beam = 2
pool_per_beam = 2
beam_radius_3db_deg = 0.25
beam_spacing_deg = 4.0

[run]
scenarios = gw_ref, gw_closest:2, gw_closest:1, gw_icp, gw_msvdgc
trials = $trials
power_sweep_dbw = 40, 45
seed = $seed
grouping = none

[gateway]
gateways = 3
closest_c = 2
""",
    ),
    # Mid-scale dense linear algebra on the imperfect-CSI path; two power
    # points, so work repeated across powers shows.
    Workload(
        name="wide_robust",
        trials=1,
        why="K=61 paper lattice, robust grouping, 5% CSI error, 5 schemes "
            "x 2 powers: dense rzf/robust/mbim designs on estimated CSI",
        template="""\
[channel]
beams = 61
users_per_beam = 2
pool_per_beam = 20
beam_radius_3db_deg = 0.09
beam_spacing_deg = 1.1

[run]
scenarios = mbim, rzf, robust, avg_mmse, four_color
trials = $trials
power_sweep_dbw = 25, 35
seed = $seed
grouping = robust
csi_error_ratio = 0.05
""",
    ),
)

WORKLOADS = {w.name: w for w in _WORKLOADS}

"""Multi-gateway feed partitioning, CSI sharing, and precoder assembly.

Feeds and beams are assigned to gateways in consecutive near-equal
blocks. Each gateway designs the sub-precoder for its own beams from an
effective channel view limited to its own feed columns; how much of the
other gateways' user rows it sees depends on the cooperation mode:

* ``icp``      - no exchange, foreign rows unknown (zero);
* ``closest``  - exact rows exchanged with the C nearest gateways;
* ``msvdgc``   - every foreign block replaced by its best rank-1
                 approximation built from the shared leading singular
                 triple;
* ``ref``      - the single-gateway reference (one block, full channel).

Cooperation is a pure data-exchange step that completes before any
sub-precoder is assembled; gateways are otherwise independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix
from .exceptions import MODELLED_FAILURES, ConfigError
from .precoding import Precoder, intrabeam, mbim_stack, power_control, rzf_stack

__all__ = [
    "GatewayPlan",
    "SharedCsiView",
    "make_plan",
    "local_csi",
    "share_csi",
    "assemble_multigateway_precoder",
    "overhead_per_gateway",
]

MODES = ("icp", "closest", "msvdgc", "ref")


@dataclass(frozen=True)
class GatewayPlan:
    """Consecutive-block assignment of beams and feeds to gateways."""

    gateways: int
    users_per_beam: int
    beams_per_gateway: np.ndarray   # (G,)
    feeds_per_gateway: np.ndarray   # (G,)
    beam_to_gateway: np.ndarray     # (K,)
    feed_to_gateway: np.ndarray     # (N,)
    mode: str
    closest_c: int | None = None
    neighbor_lists: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        for name in ("beams_per_gateway", "feeds_per_gateway",
                     "beam_to_gateway", "feed_to_gateway"):
            a = np.asarray(getattr(self, name), dtype=int)
            object.__setattr__(self, name, a)
            a.flags.writeable = False
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.beams_per_gateway.sum() != self.beam_to_gateway.shape[0]:
            raise ConfigError("beam counts do not partition the beams")
        if self.feeds_per_gateway.sum() != self.feed_to_gateway.shape[0]:
            raise ConfigError("feed counts do not partition the feeds")
        if self.mode == "closest":
            if self.closest_c is None or not 1 <= self.closest_c < self.gateways:
                raise ConfigError(
                    "closest mode needs 1 <= closest_c < gateway count"
                )
            if self.neighbor_lists is None:
                raise ConfigError("closest mode needs neighbor lists")

    @property
    def beams(self) -> int:
        return self.beam_to_gateway.shape[0]

    @property
    def feeds(self) -> int:
        return self.feed_to_gateway.shape[0]

    def beam_slice(self, g: int) -> slice:
        start = int(self.beams_per_gateway[:g].sum())
        return slice(start, start + int(self.beams_per_gateway[g]))

    def feed_slice(self, g: int) -> slice:
        start = int(self.feeds_per_gateway[:g].sum())
        return slice(start, start + int(self.feeds_per_gateway[g]))

    def row_slice(self, g: int) -> slice:
        b = self.beam_slice(g)
        q = self.users_per_beam
        return slice(b.start * q, b.stop * q)


def _near_equal_split(total: int, parts: int) -> np.ndarray:
    base, extra = divmod(total, parts)
    return np.array([base + (1 if g < extra else 0) for g in range(parts)])


def make_plan(beams: int, feeds: int, users_per_beam: int, gateways: int,
              mode: str, closest_c: int | None = None,
              beam_centers: np.ndarray | None = None) -> GatewayPlan:
    """Partition beams and feeds into consecutive near-equal blocks.

    The reference mode always uses a single block. For `closest` mode the
    neighbor lists hold each gateway's C nearest peers, ranked by the
    centroid distance of their served-beam clusters when `beam_centers`
    is given and by index distance otherwise.
    """
    if mode == "ref":
        gateways = 1
    if not 1 <= gateways <= beams:
        raise ConfigError(
            f"gateway count must lie in [1, number of beams], got {gateways}"
        )
    if feeds % beams != 0:
        raise ConfigError("feeds must be an integer multiple of beams")
    k_g = _near_equal_split(beams, gateways)
    n_g = k_g * (feeds // beams)
    beam_to_gw = np.repeat(np.arange(gateways), k_g)
    feed_to_gw = np.repeat(np.arange(gateways), n_g)

    neighbors = None
    if mode == "closest" and gateways > 1:
        if closest_c is None or not 1 <= closest_c < gateways:
            raise ConfigError("closest mode needs 1 <= closest_c < gateway count")
        if beam_centers is not None:
            centers = np.asarray(beam_centers, dtype=float)
            if centers.shape[0] != beams:
                raise ConfigError("beam_centers must have one row per beam")
            centroids = np.array(
                [centers[beam_to_gw == g].mean(axis=0) for g in range(gateways)]
            )
            dist = np.linalg.norm(
                centroids[:, None, :] - centroids[None, :, :], axis=-1
            )
        else:
            idx = np.arange(gateways, dtype=float)
            dist = np.abs(idx[:, None] - idx[None, :])
        lists = []
        for g in range(gateways):
            order = np.argsort(dist[g], kind="stable")
            lists.append(tuple(int(l) for l in order if l != g)[:closest_c])
        neighbors = tuple(lists)

    return GatewayPlan(
        gateways=gateways,
        users_per_beam=users_per_beam,
        beams_per_gateway=k_g,
        feeds_per_gateway=n_g,
        beam_to_gateway=beam_to_gw,
        feed_to_gateway=feed_to_gw,
        mode=mode,
        closest_c=closest_c if mode == "closest" else None,
        neighbor_lists=neighbors,
    )


def local_csi(ch: ChannelMatrix, plan: GatewayPlan, g: int) -> np.ndarray:
    """Gateway g's own feedback block: its users' rows, its feed columns."""
    if not 0 <= g < plan.gateways:
        raise ConfigError(f"gateway index {g} out of range")
    return ch.h[plan.row_slice(g), plan.feed_slice(g)]


@dataclass(frozen=True)
class SharedCsiView:
    """Effective channel of one gateway after CSI exchange.

    `channel` has all K*Q user rows but only the gateway's own feed
    columns; `known_rows` flags the rows known exactly. The view owns this
    `ChannelMatrix`, so its memoized decompositions are shared by every
    power point designed from the view. The overhead counter is the
    number of complex values this gateway transmitted to its peers.
    """

    gateway: int
    channel: ChannelMatrix
    known_rows: np.ndarray
    overhead_complex_count: int


def _cross_block(ch: ChannelMatrix, plan: GatewayPlan, users_of: int,
                 feeds_of: int) -> np.ndarray:
    return ch.h[plan.row_slice(users_of), plan.feed_slice(feeds_of)]


def overhead_per_gateway(plan: GatewayPlan) -> np.ndarray:
    """Complex values each gateway must transmit, by cooperation mode.

    Full exchange costs (G-1)*Q*K_g*N_g per gateway, exchange with the C
    nearest costs C*Q*K_g*N_g, and rank-1 compression costs (G-1)*N_g
    (the shared vector per peer; the accompanying scalar is not counted).
    All counts are exact integers.
    """
    g_count = plan.gateways
    q = plan.users_per_beam
    counts = np.zeros(g_count, dtype=int)
    if plan.mode in ("icp", "ref") or g_count == 1:
        return counts
    for g in range(g_count):
        rows = q * int(plan.beams_per_gateway[g])
        if plan.mode == "closest":
            peers = plan.neighbor_lists[g]
            counts[g] = sum(rows * int(plan.feeds_per_gateway[l]) for l in peers)
        else:  # msvdgc: one feed-side vector per peer
            counts[g] = sum(
                int(plan.feeds_per_gateway[l]) for l in range(g_count) if l != g
            )
    return counts


def share_csi(ch: ChannelMatrix, plan: GatewayPlan) -> list[SharedCsiView]:
    """Run the CSI exchange and build every gateway's effective channel."""
    if (plan.beams, plan.feeds, plan.users_per_beam) != (
            ch.beams, ch.feeds, ch.users_per_beam):
        raise ConfigError("plan and channel dimensions disagree")
    q = ch.users_per_beam
    rows_total = ch.h.shape[0]
    overhead = overhead_per_gateway(plan)
    views = []
    for g in range(plan.gateways):
        eff = np.zeros((rows_total, int(plan.feeds_per_gateway[g])), dtype=complex)
        known = np.zeros(rows_total, dtype=bool)
        own = plan.row_slice(g)
        eff[own] = local_csi(ch, plan, g)
        known[own] = True
        if plan.mode == "ref" or plan.gateways == 1:
            pass  # single block: the local view is already everything
        elif plan.mode == "closest":
            for l in plan.neighbor_lists[g]:
                rows = plan.row_slice(l)
                eff[rows] = _cross_block(ch, plan, l, g)
                known[rows] = True
        elif plan.mode == "msvdgc":
            for l in range(plan.gateways):
                if l == g:
                    continue
                block = _cross_block(ch, plan, l, g)
                u, s, vh = np.linalg.svd(block, full_matrices=False)
                eff[plan.row_slice(l)] = s[0] * np.outer(u[:, 0], vh[0])
        views.append(
            SharedCsiView(
                gateway=g,
                channel=ChannelMatrix(h=eff, beams=ch.beams, users_per_beam=q),
                known_rows=known,
                overhead_complex_count=int(overhead[g]),
            )
        )
    return views


def assemble_multigateway_precoder(views: list[SharedCsiView],
                                   plan: GatewayPlan, p_total: float,
                                   precoder_kind: str = "mbim",
                                   mode: str = "per_feed") -> Precoder:
    """Block-diagonal precoder from per-gateway effective channels.

    Each gateway independently runs the two-stage pipeline for its own
    beams on its view; the blocks are placed on the diagonal (all other
    entries stay structurally zero) and a single global power scaling is
    applied.
    """
    if precoder_kind not in ("mbim", "rzf"):
        raise ConfigError(f"unknown precoder kind {precoder_kind!r}")
    stack = mbim_stack if precoder_kind == "mbim" else rzf_stack
    w_bar = np.zeros((plan.feeds, plan.beams), dtype=complex)
    for view in views:
        g = view.gateway
        eff = view.channel
        beams = plan.beam_slice(g)
        try:
            wa = stack(eff, range(beams.start, beams.stop), p_total)
            wb = intrabeam(eff.beam_blocks()[beams] @ wa, first_beam=beams.start)
        except MODELLED_FAILURES as exc:
            raise type(exc)(f"gateway {g}: {exc}") from exc
        w_bar[plan.feed_slice(g), beams] = (wa @ wb[:, :, None])[:, :, 0].T
    alpha = power_control(w_bar, p_total, mode)
    return Precoder(w=alpha * w_bar, alpha=alpha, power_mode=mode)

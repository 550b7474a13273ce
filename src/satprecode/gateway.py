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

from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .channel import ChannelMatrix, stacked_other_gram_eigs
from .exceptions import MODELLED_FAILURES, ConfigError
from .precoding import Precoder, _beam_columns, _mbim_blocks, _power_vector, _scaled

__all__ = [
    "GatewayPlan",
    "make_plan",
    "local_csi",
    "share_csi",
    "assemble_multigateway_precoder",
    "overhead_per_gateway",
]

MODES = ("icp", "closest", "msvdgc", "ref")


@dataclass(frozen=True)
class GatewayPlan:
    """Consecutive-block assignment of beams and feeds to gateways.

    Gateway g serves beams ``beam_offsets[g]:beam_offsets[g + 1]`` from
    feeds ``feed_offsets[g]:feed_offsets[g + 1]``; the offsets are the
    prefix sums of the count arrays, worked out once on construction.
    """

    gateways: int
    users_per_beam: int
    beams_per_gateway: np.ndarray   # (G,)
    feeds_per_gateway: np.ndarray   # (G,)
    mode: str
    closest_c: int | None = None
    neighbor_lists: tuple[tuple[int, ...], ...] | None = None
    beam_offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    feed_offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, offsets in (("beams_per_gateway", "beam_offsets"),
                              ("feeds_per_gateway", "feed_offsets")):
            a = np.asarray(getattr(self, name), dtype=int)
            object.__setattr__(self, name, a)
            a.flags.writeable = False
            object.__setattr__(self, offsets, (0, *accumulate(a.tolist())))
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "closest" and (
                self.closest_c is None or not 1 <= self.closest_c < self.gateways):
            raise ConfigError("closest mode needs 1 <= closest_c < gateway count")

    @property
    def beams(self) -> int:
        return self.beam_offsets[-1]

    @property
    def feeds(self) -> int:
        return self.feed_offsets[-1]

    def beam_slice(self, g: int) -> slice:
        return slice(self.beam_offsets[g], self.beam_offsets[g + 1])

    def feed_slice(self, g: int) -> slice:
        return slice(self.feed_offsets[g], self.feed_offsets[g + 1])

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
    plan = GatewayPlan(
        gateways=gateways,
        users_per_beam=users_per_beam,
        beams_per_gateway=k_g,
        feeds_per_gateway=k_g * (feeds // beams),
        mode=mode,
        closest_c=closest_c if mode == "closest" else None,
    )
    if mode != "closest":
        return plan
    if beam_centers is not None:
        centers = np.asarray(beam_centers, dtype=float)
        if centers.shape[0] != beams:
            raise ConfigError("beam_centers must have one row per beam")
        centroids = np.array(
            [centers[plan.beam_slice(g)].mean(axis=0) for g in range(gateways)]
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
    return replace(plan, neighbor_lists=tuple(lists))


def local_csi(ch: ChannelMatrix, plan: GatewayPlan, g: int) -> np.ndarray:
    """Gateway g's own feedback block: its users' rows, its feed columns."""
    if not 0 <= g < plan.gateways:
        raise ConfigError(f"gateway index {g} out of range")
    return ch.h[plan.row_slice(g), plan.feed_slice(g)]


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


def share_csi(ch: ChannelMatrix, plan: GatewayPlan) -> list[ChannelMatrix]:
    """Run the CSI exchange and build every gateway's effective channel.

    Entry g is gateway g's view: all K*Q user rows, only its own feed
    columns, and zeros in the rows it does not know. Each view owns its
    `ChannelMatrix`, so the memoized decompositions serve every power
    point designed from it.
    """
    if (plan.beams, plan.feeds, plan.users_per_beam) != (
            ch.beams, ch.feeds, ch.users_per_beam):
        raise ConfigError("plan and channel dimensions disagree")
    views = []
    for g in range(plan.gateways):
        eff = np.zeros((ch.h.shape[0], int(plan.feeds_per_gateway[g])),
                       dtype=complex)
        eff[plan.row_slice(g)] = local_csi(ch, plan, g)
        if plan.mode == "ref" or plan.gateways == 1:
            pass  # single block: the local view is already everything
        elif plan.mode == "closest":
            for l in plan.neighbor_lists[g]:
                eff[plan.row_slice(l)] = _cross_block(ch, plan, l, g)
        elif plan.mode == "msvdgc":
            for l in range(plan.gateways):
                if l == g:
                    continue
                block = _cross_block(ch, plan, l, g)
                u, s, vh = np.linalg.svd(block, full_matrices=False)
                eff[plan.row_slice(l)] = s[0] * np.outer(u[:, 0], vh[0])
        views.append(ChannelMatrix(h=eff, beams=ch.beams,
                                   users_per_beam=ch.users_per_beam))
    return views


def _equal_block_runs(sizes: list[int]) -> list[range]:
    """Runs of consecutive gateways serving equally many beams (a
    near-equal split has at most two)."""
    starts = [g for g in range(1, len(sizes)) if sizes[g] != sizes[g - 1]]
    bounds = [0, *starts, len(sizes)]
    return [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _run_columns(channels: list[ChannelMatrix], beams: list[range],
                 p: np.ndarray) -> np.ndarray:
    """(P, G', B, N_g) precoder columns of G' gateways that serve B beams
    from N_g feeds each, every stage one stacked call over them.

    Gateway i runs the two-stage mbim pipeline for its own `beams[i]` on
    its view `channels[i]`: the Gram tails of every (gateway, beam) pair,
    one whitening over all gateways and powers, one intra-beam SVD.
    """
    beam_ids = np.array(beams)                                  # (G', B)
    wa = _mbim_blocks(channels[0],
                      lambda: stacked_other_gram_eigs(channels, beams),
                      beam_ids, p)                              # (P, G', B, N_g, Q)
    h_blocks = np.stack([ch.beam_blocks()[b.start:b.stop]
                         for ch, b in zip(channels, beams)])
    return _beam_columns(h_blocks, wa, beam_ids)[1]


def assemble_multigateway_precoder(views: list[ChannelMatrix],
                                   plan: GatewayPlan,
                                   p_total: float | np.ndarray,
                                   mode: str = "per_feed") -> Precoder:
    """Block-diagonal precoder from per-gateway effective channels.

    Each gateway g designs the two-stage mbim blocks of its own beams on
    its view `views[g]`, over every power of `p_total` at once; gateways
    with equally many beams are designed together (`_run_columns`). The
    blocks are placed on the diagonal (all other entries stay
    structurally zero) and a single global power scaling per power is
    applied. A modelled failure is reported as ``gateway g: ...`` for
    the first gateway whose own design fails, with that design's error
    as the cause.
    """
    p = _power_vector(p_total)
    w_bar = np.zeros((p.size, plan.feeds, plan.beams), dtype=complex)
    beam_slices = [plan.beam_slice(g) for g in range(plan.gateways)]
    feed_slices = [plan.feed_slice(g) for g in range(plan.gateways)]
    beams = [range(s.start, s.stop) for s in beam_slices]
    for run in _equal_block_runs(plan.beams_per_gateway.tolist()):
        try:
            columns = _run_columns(views[run.start:run.stop],
                                   beams[run.start:run.stop], p)
        except MODELLED_FAILURES:
            # Which gateway failed first, and how, is what designing the
            # run's gateways one at a time in index order reports.
            for g in run:
                try:
                    _run_columns(views[g:g + 1], beams[g:g + 1], p)
                except MODELLED_FAILURES as exc:
                    raise type(exc)(f"gateway {g}: {exc}") from exc
            raise
        for i, g in enumerate(run):
            w_bar[:, feed_slices[g], beam_slices[g]] = (
                columns[:, i].swapaxes(-1, -2))
    return _scaled(p_total, w_bar, mode)

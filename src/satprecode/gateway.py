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
sub-precoder is assembled; gateways are otherwise independent. Each
gateway's effective channel (its view) is a plain read-only array.

Each gateway runs the two-stage mbim design of its own beams on its
view; the whole-channel mbim and robust precoders are that design with
one gateway. A design is a (view, beam range, shifts, inter-beam design)
tuple (`BlockDesign`), and one pass designs every precoder of a channel:
the designs are grouped by shape, and each group takes its Gram tails
(once per distinct view and range, from `linalg.other_gram_tails`), its
whitening and its intra-beam SVD from one stacked call
(`_block_diagonals`); rzf and the downdated tails share a view's
decomposed ``V^H V``. `assemble_multigateway_precoder` runs that pass for
one plan, `assemble_multigateway_family` for every two-stage precoder of
a trial. A modelled failure is a failure code per (precoder, power, beam)
in that pass, from which the one-plan call raises.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .channel import ChannelMatrix
from .exceptions import NO_SCALE, ConfigError
from .linalg import gram_eigh, other_gram_tails
from .precoding import (
    Precoder,
    _intrabeam,
    _mbim_blocks,
    _power_vector,
    _raise_failure,
    _rzf_blocks,
    _scaled,
)

__all__ = [
    "GatewayPlan",
    "BlockDesign",
    "make_plan",
    "local_csi",
    "share_csi",
    "assemble_multigateway_precoder",
    "assemble_multigateway_family",
    "plan_designs",
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


def share_csi(ch: ChannelMatrix, plan: GatewayPlan) -> list[np.ndarray]:
    """Run the CSI exchange and build every gateway's effective channel.

    Entry g is gateway g's view, a read-only (KQ, N_g) array: all K*Q
    user rows, only its own feed columns, and zeros in the rows it does
    not know. The one view of a one-gateway plan is `ch.h` itself, so a
    design on it shares the Gram spectra of every other design on the
    channel. The msvdgc leading singular triples come from one stacked
    SVD per foreign-block shape.
    """
    if (plan.beams, plan.feeds, plan.users_per_beam) != (
            ch.beams, ch.feeds, ch.users_per_beam):
        raise ConfigError("plan and channel dimensions disagree")
    if plan.gateways == 1:
        # One gateway sees the whole channel: its view is the estimate.
        return [ch.h]
    views = []
    for g in range(plan.gateways):
        eff = np.zeros((ch.h.shape[0], int(plan.feeds_per_gateway[g])),
                       dtype=complex)
        eff[plan.row_slice(g)] = local_csi(ch, plan, g)
        if plan.mode == "closest":
            for l in plan.neighbor_lists[g]:
                eff[plan.row_slice(l)] = _cross_block(ch, plan, l, g)
        views.append(eff)
    if plan.mode == "msvdgc":
        # Foreign block (l, g) is gateway l's rows of gateway g's feeds.
        shapes = {}
        for g in range(plan.gateways):
            for l in range(plan.gateways):
                if l != g:
                    key = (plan.beams_per_gateway[l], plan.feeds_per_gateway[g])
                    shapes.setdefault(key, []).append((l, g))
        for pairs in shapes.values():
            u, s, vh = np.linalg.svd(
                np.stack([_cross_block(ch, plan, l, g) for l, g in pairs]),
                full_matrices=False)
            for i, (l, g) in enumerate(pairs):
                views[g][plan.row_slice(l)] = s[i, 0] * np.outer(u[i, :, 0], vh[i, 0])
    for eff in views:
        eff.flags.writeable = False
    return views


class BlockDesign(NamedTuple):
    """One diagonal block of a two-stage precoder: the beams `beams`
    designed on `view` (KQ, N_b), their columns on the view's feeds.

    `interbeam` names the inter-beam design, ``"mbim"`` or ``"rzf"`` as
    for `two_stage`. For mbim, `shifts(lam_max)` maps the beams' largest
    other-beam Gram eigenvalues to the shifts added to their regularizer
    (the robust design); rzf takes no Gram spectra and no shifts."""

    view: np.ndarray
    beams: range
    shifts: Callable[[np.ndarray], np.ndarray] = np.zeros_like
    interbeam: str = "mbim"


def plan_designs(views: list[np.ndarray], plan: GatewayPlan) -> list[BlockDesign]:
    """The blocks of a plan: gateway g's own beams on its view `views[g]`."""
    return [BlockDesign(view, range(*plan.beam_offsets[g:g + 2]))
            for g, view in enumerate(views)]


def _group_columns(designs: list[BlockDesign], users_per_beam: int,
                   p: np.ndarray, gram: Callable) -> tuple[np.ndarray, np.ndarray]:
    """(P, M, B, N_b) precoder columns of M block designs whose views share
    their shape (KQ, N_b) and whose beam ranges hold B beams, and their
    (P, M, B) failure codes, each beam's earliest.

    Every mbim stage is one stacked call: the Gram tails of each distinct
    (view, range), shared by the designs on it, and one whitening over
    all mbim designs and powers; each rzf design is one call; one
    intra-beam SVD serves every design. `gram(view)` decomposes the
    view's ``V^H V`` for rzf and the downdated tails.
    """
    q = users_per_beam
    slots = {}
    which = np.array([slots.setdefault((id(d.view), d.beams), len(slots))
                      for d in designs])
    distinct = np.unique(which, return_index=True)[1]   # first design per slot
    h = np.stack([designs[i].view for i in distinct])   # (U, KQ, N_b)
    u, rows, n = h.shape
    beam_ids = np.array([d.beams for d in designs])     # (M, B)
    rzf = [i for i, d in enumerate(designs) if d.interbeam == "rzf"]
    mbim = [i for i, d in enumerate(designs) if d.interbeam == "mbim"]
    if len(rzf) + len(mbim) < len(designs):
        raise ConfigError("inter-beam design must be 'mbim' or 'rzf'")
    wa = np.empty((p.size, *beam_ids.shape, n, q), dtype=complex)
    codes = np.zeros((p.size, *beam_ids.shape), dtype=int)
    for i in rzf:
        wa[:, i] = _rzf_blocks(designs[i].view, designs[i].beams, q, p, gram)
    if mbim:
        used, slot = np.unique(which[mbim], return_inverse=True)
        views = [designs[i].view for i in distinct[used]]

        def spectra():
            found = other_gram_tails(h[used], beam_ids[distinct[used]], q,
                                     lambda c: gram(views[c]))
            return tuple(a[slot] for a in found)

        def shifts(lam_max):
            return np.stack([designs[i].shifts(lam)
                             for i, lam in zip(mbim, lam_max)])

        wa[:, mbim], codes[:, mbim] = _mbim_blocks(
            (rows // q, q, n), spectra, beam_ids[mbim], p, shifts)
    h_blocks = h.reshape(u, -1, q, n)[which[:, None], beam_ids]
    vectors, dead = _intrabeam(h_blocks @ wa)
    return (wa @ vectors[..., None])[..., 0], np.maximum(codes, dead)


def _block_diagonals(precoders: list, users_per_beam: int,
                     p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, P, N, K) unscaled precoders of one channel over the power
    vector `p`, and their (S, P, K) failure codes. Each is given by its
    blocks, consecutive in beams and feeds, or as a function of `p` that
    returns its (P, N, K) stack.

    Every block joins the group of its view width and beam count, and
    each group is designed in one stacked pass (`_group_columns`); each
    block's columns go on its precoder's diagonal, and every other entry
    stays structurally zero.
    """
    dense = {s: f(p) for s, f in enumerate(precoders) if callable(f)}
    groups = {}
    for s, blocks in enumerate(precoders):
        if s in dense:
            shape = dense[s].shape[1:]
            continue
        stop = 0
        for d in blocks:
            start, stop = stop, stop + d.view.shape[1]
            groups.setdefault((d.view.shape[1], len(d.beams)), []).append(
                (s, d, slice(start, stop)))
        shape = (stop, d.view.shape[0] // users_per_beam)
    w_bar = np.zeros((len(precoders), p.size, *shape), dtype=complex)
    codes = np.zeros((len(precoders), p.size, shape[1]), dtype=int)
    for s, w in dense.items():
        w_bar[s] = w
    grams = {}

    def gram(view):
        # G = V^H V, decomposed once per view, when a design first takes it.
        return grams.get(id(view)) or grams.setdefault(id(view), gram_eigh(view))

    for members in groups.values():
        columns, found = _group_columns([d for _, d, _ in members],
                                        users_per_beam, p, gram)
        for i, (s, d, feed_cols) in enumerate(members):
            beams = slice(d.beams.start, d.beams.stop)
            w_bar[s, :, feed_cols, beams] = columns[:, i].swapaxes(-1, -2)
            codes[s, :, beams] = found[:, i]
    return w_bar, codes


def assemble_multigateway_precoder(views: list[np.ndarray],
                                   plan: GatewayPlan,
                                   p_total: float | np.ndarray,
                                   mode: str = "per_feed") -> Precoder:
    """Block-diagonal precoder from per-gateway effective channels.

    Each gateway g designs the two-stage mbim blocks of its own beams on
    its view `views[g]`, over every power of `p_total` at once; gateways
    with equally many beams are designed together (`_block_diagonals`).
    A single global power scaling per power is applied. A modelled
    failure is reported as ``gateway g: ...`` for the first gateway
    whose own design fails, with that design's error as the cause.
    """
    p = _power_vector(p_total)
    (w_bar,), (codes,) = _block_diagonals([plan_designs(views, plan)],
                                          plan.users_per_beam, p)
    for g in range(plan.gateways):
        _raise_failure(codes[:, plan.beam_slice(g)],
                       np.arange(*plan.beam_offsets[g:g + 2]),
                       (int(plan.feeds_per_gateway[g]), plan.users_per_beam),
                       gateway=g)
    return _scaled(p_total, w_bar, mode)


def assemble_multigateway_family(precoders: list, users_per_beam: int,
                                 p_total: np.ndarray,
                                 mode: str = "per_feed"
                                 ) -> tuple[Precoder, np.ndarray]:
    """S precoders of one channel over the 1-D power vector `p_total`,
    from one stacked pass, and their (S, P) failure codes. Each is given
    by its blocks (`plan_designs` for a plan; one block over every beam
    for mbim, robust and rzf, whose `interbeam` names it) or as a function
    of the power vector that returns its (P, N, K) unscaled stack
    (avg_mmse). Blocks on the same view share its decomposed ``V^H V``.

    Slot ``s*P + i`` of the returned precoder's leading axis is precoder s
    at power ``p_total[i]``, and one power scaling serves every slot.
    Where code ``[s, i]`` is 0 the slot is bit for bit what
    `assemble_multigateway_precoder`, `two_stage`, `robust_two_stage` or
    `baseline_avg_mmse` gives at that power; elsewhere that call raises,
    and the code is the earliest failing stage over all beams, `NO_SCALE`
    only where no design failed. A failed slot stays finite.
    """
    p = _power_vector(p_total)
    w_bar, codes = _block_diagonals(precoders, users_per_beam, p)
    failed = codes.max(axis=-1, initial=0).ravel()          # (S P,)
    pre = _scaled(np.tile(p, len(precoders)),
                  w_bar.reshape(-1, *w_bar.shape[2:]), mode, failed > 0)
    return pre, np.maximum(failed, NO_SCALE * (pre.alpha == 0.0)).reshape(-1, p.size)

"""Two-stage multicast precoding, its one design pass, and the baselines.

The precoder factors as ``W = alpha * Wa * Wb``: an inter-beam stage Wa
(one N x Q block per beam) that limits the interference a beam causes to
every other beam's users, a block-diagonal intra-beam stage Wb (one unit
vector w_k per beam) that lifts the beam's average user signal power, and
a scalar alpha enforcing the transmit power constraint. Column k of the
product is ``Wa_k w_k``, so Wb is never formed as a matrix.

Every design takes the total power `p_total` as a float or as a 1-D power
vector. A vector puts a leading power axis P on every output, and each
stage runs once over it: the designs depend on P_T only through the
regularizer KQ/P_T and the scale alpha. A float is the vector of one
power with that axis dropped again.

Each stage is one function: `_interbeam_blocks` for a list of block
designs (`BlockDesign`), with the mbim blocks from the spectra of
`linalg.other_gram_tails` and the rzf blocks from one decomposition of
the smaller Gram matrix, and `_beam_columns`, one stacked SVD. The
design pass (`assemble_multigateway_family`) runs both over every
precoder of a channel; the library's single designs run them on one
design. A modelled failure is a failure code per (precoder, power,
beam), from which the single designs raise.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .channel import BeamLayout, ChannelMatrix
from .exceptions import (
    DEAD,
    NO_SCALE,
    SHAPE,
    SINGULAR,
    ConfigError,
    DegenerateBeamError,
    InfeasibleChannelError,
    SingularChannelError,
)
from .linalg import RANK_TOL, gram_eigh, other_gram_tails
from .linalg import eigh_sorted  # noqa: F401 (re-exported)

__all__ = [
    "Precoder",
    "BlockDesign",
    "mbim_interbeam",
    "rzf_interbeam",
    "intrabeam",
    "power_control",
    "assemble",
    "two_stage",
    "beam_average",
    "baseline_avg_mmse",
    "baseline_four_color",
    "four_color_precoder",
    "assemble_multigateway_family",
]

POWER_MODES = ("per_feed", "total")


@dataclass(frozen=True)
class Precoder:
    """Assembled N x K precoding matrix plus its factors.

    `wa` (N x KQ) and `wb` (K x Q, the intra-beam vector of every beam)
    are kept when the precoder was built by `assemble`; the baselines and
    the design pass leave them as None. In `per_feed` mode the
    largest diagonal entry of W W^H equals P_T/N; in `total` mode the
    trace equals P_T. Designed for a power vector, every array has a
    leading power axis and `alpha` is a (P,) array.
    """

    w: np.ndarray
    alpha: float | np.ndarray
    power_mode: str
    wa: np.ndarray | None = None
    wb: np.ndarray | None = None


def _power_vector(p_total: float | np.ndarray) -> np.ndarray:
    """`p_total` as a (P,) power vector; a float gives P = 1."""
    p = np.asarray(p_total, dtype=float)
    if p.ndim > 1:
        raise ConfigError("p_total must be a float or a 1-D power vector")
    return p.reshape(-1)


def _unstack(p_total: float | np.ndarray, stacked: np.ndarray):
    """`stacked` as returned for `p_total`: without its power axis for a float."""
    return stacked[0] if np.ndim(p_total) == 0 else stacked


_FAILURES = {
    SHAPE: (InfeasibleChannelError, "cannot build an {n} x {q} inter-beam block "
            "with fewer feeds than served users"),
    SINGULAR: (SingularChannelError,
               "cross-channel Gram matrix of beam {beam} is rank deficient"),
    DEAD: (DegenerateBeamError, "beam {beam}: effective intra-beam channel is zero"),
    NO_SCALE: (InfeasibleChannelError,
               "power slot {slot}: the precoder has no finite positive power scale"),
}


def _raise_failure(codes: np.ndarray, beam_ids: np.ndarray | None = None,
                   block: tuple = (0, 0), gateway: int | None = None) -> None:
    """Raise the earliest failing stage of one design's failure codes
    (..., *S), if any, for the beams `beam_ids` (shape S; by default
    numbered over the last axis) with (N, Q) inter-beam blocks `block`.
    It names the first beam in C order that fails at any power, or the
    first power slot. With `gateway` g the message starts with
    ``gateway g:``, and the same failure without it is the cause.
    """
    code = int(np.max(codes, initial=0))
    if code == 0:
        return
    if beam_ids is None:
        beam_ids = np.arange(codes.shape[-1]) if codes.ndim else np.array(0)
    at = (codes == code).reshape(-1, beam_ids.size)
    kind, message = _FAILURES[code]
    exc = kind(message.format(n=block[0], q=block[1],
                              beam=int(beam_ids.ravel()[at.any(axis=0)][0]),
                              slot=int(np.argmax(at.any(axis=1)))))
    if gateway is None:
        raise exc
    raise kind(f"gateway {gateway}: {exc}") from exc


class BlockDesign(NamedTuple):
    """One diagonal block of a two-stage precoder: the beams `beams`
    designed on `view` (KQ, N_b), their columns on the view's feeds.

    `interbeam` names the inter-beam design, ``"mbim"`` or ``"rzf"`` as
    for `two_stage`. For mbim, `shifts(lam_max)` maps the beams' largest
    other-beam Gram eigenvalues to the shifts added to their regularizer
    (the robust design, `robust.robust_design`); rzf takes no Gram
    spectra and no shifts."""

    view: np.ndarray
    beams: range
    shifts: Callable[[np.ndarray], np.ndarray] = np.zeros_like
    interbeam: str = "mbim"


def _interbeam_blocks(designs: list[BlockDesign], users_per_beam: int,
                      p: np.ndarray, gram: Callable) -> tuple[np.ndarray, np.ndarray]:
    """The inter-beam stage: (P, M, B, N_b, Q) blocks of M block designs
    whose views share their shape (KQ, N_b) and whose beam ranges hold B
    beams, over the power vector `p`, and their (P, M, B) failure codes.
    Each rzf design is one `_rzf_blocks` call, and all mbim designs one
    `_mbim_blocks` call. `gram(view)` decomposes the view's ``V^H V`` for
    rzf and the downdated tails.
    """
    q = users_per_beam
    beam_ids = np.array([d.beams for d in designs])     # (M, B)
    rzf = [i for i, d in enumerate(designs) if d.interbeam == "rzf"]
    mbim = [i for i, d in enumerate(designs) if d.interbeam == "mbim"]
    if len(rzf) + len(mbim) < len(designs):
        raise ConfigError("inter-beam design must be 'mbim' or 'rzf'")
    wa = np.empty((p.size, *beam_ids.shape, designs[0].view.shape[1], q),
                  dtype=complex)
    codes = np.zeros((p.size, *beam_ids.shape), dtype=int)
    for i in rzf:
        wa[:, i] = _rzf_blocks(designs[i].view, designs[i].beams, q, p, gram)
    if mbim:
        wa[:, mbim], codes[:, mbim] = _mbim_blocks([designs[i] for i in mbim],
                                                   q, p, gram)
    return wa, codes


def _mbim_blocks(designs: list[BlockDesign], users_per_beam: int,
                 p: np.ndarray, gram: Callable) -> tuple[np.ndarray, np.ndarray]:
    """(P, M, B, N, Q) interference-mitigation blocks of M mbim designs,
    as `_interbeam_blocks` takes them, and their (M, B) failure codes:
    SHAPE for every beam when Q > N, SINGULAR where a beam with zero shift
    has a rank-deficient Gram matrix.

    Only once the shape checks pass are the Gram tails taken, one stacked
    call for each distinct (view, range) shared by the designs on it, and
    the shifts. A failed beam's block is finite, so the stages after it
    run on finite numbers.
    """
    q = users_per_beam
    rows, n = designs[0].view.shape
    k = rows // q
    beam_ids = np.array([d.beams for d in designs])     # (M, B)
    if q > n:
        return (np.zeros((p.size, *beam_ids.shape, n, q), dtype=complex),
                np.full(beam_ids.shape, SHAPE))
    codes = np.zeros(beam_ids.shape, dtype=int)
    if k == 1:
        amp = np.sqrt(p / (k * q)).reshape(-1, 1, 1, 1, 1)
        return amp * np.eye(n, q, dtype=complex), codes
    slots = {}
    slot = np.array([slots.setdefault((id(d.view), d.beams), len(slots))
                     for d in designs])
    first = np.unique(slot, return_index=True)[1]
    views = [designs[i].view for i in first]
    lam_max, tail_values, tail = (a[slot] for a in other_gram_tails(
        np.stack(views), beam_ids[first], q, lambda c: gram(views[c])))
    shift = np.stack([d.shifts(lam) for d, lam in zip(designs, lam_max)])
    singular = (shift == 0.0) & (
        tail_values[..., -1] <= RANK_TOL * np.maximum(lam_max, 0.0)
    )
    codes[singular] = SINGULAR
    # A rank-deficient tail may round negative, below the regularizer.
    tail_values = np.where(singular[..., None], 1.0, tail_values)
    reg = (k * q / p).reshape(-1, 1, 1, 1)
    scale = 1.0 / np.sqrt(tail_values + reg + shift[..., None])
    return tail * scale[..., None, :], codes


def _columns(blocks: np.ndarray) -> np.ndarray:
    """(..., K, N, Q) beam blocks as (..., N, KQ) matrices [B_0 ... B_K-1]."""
    *lead, _, n, _ = blocks.shape
    return blocks.swapaxes(-3, -2).reshape(*lead, n, -1)


def _blocks(wa: np.ndarray, beams: int) -> np.ndarray:
    """(..., N, KQ) matrices split into (..., K, N, Q) beam blocks (a view)."""
    return wa.reshape(*wa.shape[:-1], beams, -1).swapaxes(-3, -2)


def _design_interbeam(ch: ChannelMatrix, designs: list[BlockDesign],
                      p_total: float | np.ndarray) -> np.ndarray:
    """The inter-beam stage of `ch` from block designs on it whose beam
    ranges follow each other over every beam, one stage call per design,
    stacked to N x KQ (P x N x KQ for a power vector). A modelled failure
    raises for the first beam that fails."""
    p = _power_vector(p_total)
    found = [_interbeam_blocks([d], ch.users_per_beam, p, gram_eigh)
             for d in designs]
    wa = np.concatenate([blocks[:, 0] for blocks, _ in found], axis=1)
    _raise_failure(np.concatenate([codes[:, 0] for _, codes in found], axis=1),
                   block=(ch.feeds, ch.users_per_beam))
    return _unstack(p_total, _columns(wa))


def mbim_interbeam(ch: ChannelMatrix,
                   p_total: float | np.ndarray) -> np.ndarray:
    """Inter-beam blocks of the interference-mitigation design, stacked
    to N x KQ (P x N x KQ for a power vector).

    Block k is built from the low end of beam k's other-beam Gram
    spectrum (`linalg.other_gram_tails`): ``Wa_k = V (S + (KQ/P_T) I)^(-1/2)``
    restricted to the Q columns of smallest eigenvalue, i.e. the
    directions least aligned with the other beams' channels. A
    rank-deficient Gram matrix is rejected, naming the first such beam.
    With a single beam there is nothing to mitigate and the block
    degenerates to a scaled truncated identity.
    """
    # Below the crossover one stage call per beam, and so one `eigh_sorted`
    # call per beam: perfbench/tests/test_tracer.py counts them for
    # `two_stage`, and it changes only with the benchmark (ROADMAP item 1).
    # At or above it one call, as in the design pass.
    step = 1 if ch.beams < linalg._DOWNDATE_MIN_BEAMS else ch.beams
    return _design_interbeam(
        ch, [BlockDesign(ch.h, range(i, min(i + step, ch.beams)))
             for i in range(0, ch.beams, step)], p_total)


def _regularized_inverse(h: np.ndarray, reg: np.ndarray) -> np.ndarray:
    """``inv(h h^H + reg_p I)`` for each entry of `reg`: the averaging
    baseline's one (P, n, n) LU inverse. The stack is P copies of
    ``h h^H`` with reg_p added on the diagonal; no scaled identity or
    other copy of ``h h^H`` is kept, which keeps its working set small."""
    stack = np.repeat((h @ h.conj().T)[None], reg.size, axis=0)
    diag = np.arange(h.shape[0])
    stack[:, diag, diag] += reg[:, None]
    return np.linalg.inv(stack)


def _right_divide_upper(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``t r^-1`` for stacks of (n, q) matrices t and upper triangular
    (q, q) matrices r, by substitution one column at a time."""
    out = np.empty_like(t)
    for j in range(r.shape[-1]):
        known = (out[..., :j] @ r[..., :j, j, None])[..., 0]
        out[..., j] = (t[..., j] - known) / r[..., j, j, None]
    return out


def _rzf_blocks(h: np.ndarray, beams: range, users_per_beam: int,
                p: np.ndarray, gram: Callable) -> np.ndarray:
    """(P, B, N, Q) `rzf_interbeam` blocks of the `beams` of the channel or
    view `h` over the power vector `p`; `gram(h)` decomposes ``h^H h``.

    With more rows than columns, ``h^H h = V diag(d) V^H`` and ``Y = h V``
    give ``h^H A^-1 = V diag(1 / (d + r)) Y^H`` and
    ``r A^-1 = I - Y diag(1 / (d + r)) Y^H`` (push-through), so ``h^H``
    never cancels the large null-space part of ``A^-1``; otherwise that
    form cancels, and ``h h^H = U diag(s) U^H`` gives ``A^-1``. One
    stacked QR factors the beams' columns of ``r A^-1`` or ``A^-1``, and
    ``h^H A^-1 E_k`` is divided by the factors: no r enters a block. One
    beam has nothing to null: its block is ``h^H`` (the identity basis),
    where a QR would rotate it and lose accuracy with more users than feeds.
    """
    rows, n = h.shape
    q = users_per_beam
    if rows == q:
        return np.repeat(h.conj().T[None, None], p.size, axis=0)
    wide = rows > n
    eig = gram(h) if wide else gram_eigh(h.conj().T)
    damp = 1.0 / (eig.eigenvalues + (rows / p)[:, None])[:, None, :]
    left = h @ eig.eigenvectors if wide else eig.eigenvectors
    tail = left[q * beams.start:q * beams.stop].conj().T
    scaled = ((-left if wide else left) * damp) @ tail          # (P, KQ, C)
    if wide:
        own = np.arange(tail.shape[-1])
        scaled[:, own + q * beams.start, own] += 1.0
    right = eig.eigenvectors if wide else h.conj().T @ eig.eigenvectors
    tri = np.linalg.qr(_blocks(scaled, len(beams)), mode="r")
    return _right_divide_upper(_blocks((right * damp) @ tail, len(beams)), tri)


def rzf_interbeam(ch: ChannelMatrix,
                  p_total: float | np.ndarray) -> np.ndarray:
    """Inter-beam blocks of the regularized zero-forcing design, stacked
    to N x KQ (P x N x KQ for a power vector).

    Block k is the conjugated channel projected through the null space of
    the regularized cross-channel with beam k's rows removed,
    ``W_k = H^H A^-1 E_k R_k^-1`` with ``A = H H^H + (KQ/P_T) I``, E_k
    beam k's columns of the identity and R_k the triangular factor of the
    QR of ``A^-1 E_k``. The design is scale-free, and one
    eigendecomposition of the smaller Gram matrix, ``H^H H`` when KQ > N
    and ``H H^H`` otherwise, serves the whole power sweep (`_rzf_blocks`);
    one beam takes the identity basis.
    """
    return _design_interbeam(
        ch, [BlockDesign(ch.h, range(ch.beams), interbeam="rzf")], p_total)


def intrabeam(z: np.ndarray, beam_ids: np.ndarray | None = None) -> np.ndarray:
    """Unit vectors maximizing ``||Z w||`` (leading right singular vectors).

    `z` is one effective intra-beam channel (Q x Q) or a stack of them
    (..., *S, Q, Q) for the beams numbered by `beam_ids` (shape S, by
    default ``0 .. B-1`` over the last stack axis); the result is one
    vector (Q,) or a stack (..., *S, Q). An all-zero channel raises
    DegenerateBeamError naming the first beam, in the C order of
    `beam_ids`, that has one.
    """
    vectors, codes = _intrabeam(np.asarray(z))
    _raise_failure(codes, beam_ids)
    return vectors


def _intrabeam(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`intrabeam` of the stack `z` from one stacked SVD, and the failure
    code of each matrix: DEAD where it is zero."""
    _, _, vh = np.linalg.svd(z)
    return vh[..., 0, :].conj(), np.where(np.any(z, axis=(-2, -1)), 0, DEAD)


def _beam_columns(h_blocks: np.ndarray,
                  wa: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The intra-beam stage of beams with channel blocks `h_blocks`
    (..., Q, N) and inter-beam blocks `wa` (P, ..., N, Q): their precoder
    columns ``Wa_k w_k`` (P, ..., N), their intra-beam vectors w_k
    (P, ..., Q) from one stacked SVD, and their failure codes, DEAD where
    a beam's effective channel is zero."""
    vectors, dead = _intrabeam(h_blocks @ wa)
    return (wa @ vectors[..., None])[..., 0], vectors, dead


def power_control(w_unscaled: np.ndarray, p_total: float | np.ndarray,
                  mode: str) -> float | np.ndarray:
    """Scale factor meeting the transmit power constraint with equality.

    `per_feed` caps the largest diagonal entry of W W^H at P_T/N; `total`
    sets the trace of W W^H to P_T. For a power vector, `w_unscaled` is a
    (P, N, K) stack and the result a (P,) array. A power slot without a
    finite positive scale (the precoder underflowed or overflowed) raises
    InfeasibleChannelError.
    """
    p = _power_vector(p_total)
    w = np.asarray(w_unscaled)
    alpha = _power_scale(w.reshape(p.size, *w.shape[-2:]), p, mode)
    _raise_failure(np.where(alpha > 0.0, 0, NO_SCALE)[:, None])
    return _unstack(p_total, alpha)


def _power_scale(w: np.ndarray, p: np.ndarray, mode: str,
                 failed: bool | np.ndarray = False) -> np.ndarray:
    """(P,) scale factors of the (P, N, K) stack `w` over the power vector
    `p`, 0 in a slot without a finite positive scale. Only a slot in
    `failed` may be all zero."""
    if mode not in POWER_MODES:
        raise ConfigError(f"power mode must be one of {POWER_MODES}, got {mode!r}")
    if not np.all(np.any(w, axis=(-2, -1)) | failed):
        raise ConfigError("cannot scale an all-zero precoder")
    if mode == "per_feed":
        norm = w.shape[-2] * np.max(np.sum(np.abs(w) ** 2, axis=-1), axis=-1)
    else:
        norm = np.sum(np.abs(w.reshape(p.size, -1)) ** 2, axis=-1)
    # A precoder that underflowed or overflowed leaves no finite positive
    # scale; test before dividing, so no power slot scales by inf or NaN.
    ok = (norm > 0.0) & (p / np.finfo(float).max < norm)
    return np.sqrt(np.divide(p, norm, out=np.zeros_like(norm), where=ok))


def _scaled(p_total: float | np.ndarray, w_bar: np.ndarray, mode: str,
            failed: np.ndarray | None = None, **factors) -> Precoder:
    """The (P, N, K) stack `w_bar` and its factors scaled to the power
    constraint, as the precoder returned for `p_total`.

    A slot without a finite positive scale raises; with `failed` (P,),
    the slots whose design failed, it is scaled by 0 instead.
    """
    p = _power_vector(p_total)
    alpha = (power_control(w_bar, p, mode) if failed is None
             else _power_scale(w_bar, p, mode, failed))
    parts = dict(w=alpha[:, None, None] * w_bar, alpha=alpha, **factors)
    if np.ndim(p_total) == 0:
        parts = {name: value[0] for name, value in parts.items()}
        parts["alpha"] = float(parts["alpha"])
    return Precoder(power_mode=mode, **parts)


def assemble(ch: ChannelMatrix, wa: np.ndarray, p_total: float | np.ndarray,
             mode: str = "per_feed") -> Precoder:
    """Intra-beam stage, power normalization, and final assembly.

    `wa` is N x KQ, or P x N x KQ for a power vector.
    """
    p = _power_vector(p_total)
    wa = np.reshape(wa, (p.size, ch.feeds, ch.beams * ch.users_per_beam))
    columns, vectors, codes = _beam_columns(ch.beam_blocks(),
                                            _blocks(wa, ch.beams))
    _raise_failure(codes)
    # Contiguous like the design pass's w_bar, so the power norms sum in
    # the same order and the pass reproduces this precoder bit for bit.
    w_bar = np.ascontiguousarray(columns.swapaxes(-1, -2))   # (P, N, K)
    return _scaled(p_total, w_bar, mode, wa=wa, wb=vectors)


def two_stage(ch: ChannelMatrix, p_total: float | np.ndarray,
              mode: str = "per_feed", interbeam: str = "mbim") -> Precoder:
    """Full nominal pipeline with the chosen inter-beam design, at one
    power or over a power vector."""
    if interbeam == "mbim":
        wa = mbim_interbeam(ch, p_total)
    elif interbeam == "rzf":
        wa = rzf_interbeam(ch, p_total)
    else:
        raise ConfigError(f"unknown inter-beam design {interbeam!r}")
    return assemble(ch, wa, p_total, mode)


def beam_average(ch: ChannelMatrix) -> np.ndarray:
    """K x N matrix of per-beam user-row averages."""
    return ch.beam_blocks().mean(axis=1)


def baseline_avg_mmse(ch: ChannelMatrix, p_total: float | np.ndarray,
                      mode: str = "per_feed") -> Precoder:
    """Channel-averaging MMSE baseline.

    Averages each beam's user rows into a single representative channel
    and applies a regularized inverse (one batched inverse over a power
    vector), then the usual power scaling.
    """
    return _scaled(p_total, _avg_mmse_unscaled(ch, _power_vector(p_total)), mode)


def _avg_mmse_unscaled(ch: ChannelMatrix, p: np.ndarray) -> np.ndarray:
    """(P, N, K) unscaled channel-averaging MMSE precoders over the power
    vector `p`: ``h_bar^H (h_bar h_bar^H + KQ/P_T I)^(-1)``."""
    h_bar = beam_average(ch)
    reg = ch.beams * ch.users_per_beam / p
    return h_bar.conj().T @ _regularized_inverse(h_bar, reg)


def _block_diagonals(precoders: list, users_per_beam: int,
                     p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, P, N, K) unscaled precoders of one channel over the power
    vector `p`, and their (S, P, K) failure codes. Each is given by its
    blocks, consecutive in beams and feeds, or as a function of `p` that
    returns its (P, N, K) stack. An empty list, or precoders of more than
    one shape (N, K), raise ConfigError.

    Every block joins the group of its view width and beam count, and
    each group is designed by one call of each stage (`_interbeam_blocks`,
    `_beam_columns`); each block's columns go on its precoder's
    diagonal, and every other entry stays structurally zero.
    """
    q = users_per_beam
    dense, groups, shapes = {}, {}, set()
    for s, precoder in enumerate(precoders):
        if callable(precoder):
            dense[s] = precoder(p)
            shapes.add(dense[s].shape[1:])
            continue
        stop = 0
        for d in precoder:
            start, stop = stop, stop + d.view.shape[1]
            groups.setdefault((d.view.shape[1], len(d.beams)), []).append(
                (s, d, slice(start, stop)))
        shapes.update((stop, d.view.shape[0] // q) for d in precoder)
    if len(shapes) != 1:
        raise ConfigError("a family takes one or more precoders of one shape "
                          f"(N, K), got {sorted(shapes)}")
    (shape,) = shapes
    w_bar = np.zeros((len(precoders), p.size, *shape), dtype=complex)
    codes = np.zeros((len(precoders), p.size, shape[1]), dtype=int)
    for s, w in dense.items():
        w_bar[s] = w
    grams = {}

    def gram(view):
        # G = V^H V, decomposed once per view, when a design first takes it.
        return grams.get(id(view)) or grams.setdefault(id(view), gram_eigh(view))

    for members in groups.values():
        designs = [d for _, d, _ in members]
        wa, found = _interbeam_blocks(designs, q, p, gram)
        beams = [slice(d.beams.start, d.beams.stop) for d in designs]
        h_blocks = np.stack([d.view.reshape(-1, q, wa.shape[-2])[b]
                             for d, b in zip(designs, beams)])
        columns, _, dead = _beam_columns(h_blocks, wa)
        for i, (s, _, feed_cols) in enumerate(members):
            w_bar[s, :, feed_cols, beams[i]] = columns[:, i].swapaxes(-1, -2)
            codes[s, :, beams[i]] = np.maximum(found[:, i], dead[:, i])
    return w_bar, codes


def assemble_multigateway_family(precoders: list, users_per_beam: int,
                                 p_total: np.ndarray,
                                 mode: str = "per_feed"
                                 ) -> tuple[Precoder, np.ndarray]:
    """S precoders of one channel over the 1-D power vector `p_total`,
    from one stacked pass, and their (S, P) failure codes. Each is given
    by its blocks (`gateway.plan_designs` for a gateway plan; one block
    over every beam for mbim, robust and rzf, whose `interbeam` names it)
    or as a function of the power vector that returns its (P, N, K)
    unscaled stack (avg_mmse). Blocks on the same view share its
    decomposed ``V^H V``.

    Slot ``s*P + i`` of the returned precoder's leading axis is precoder s
    at power ``p_total[i]``, and one power scaling serves every slot.
    Where code ``[s, i]`` is 0 the slot is bit for bit what
    `gateway.assemble_multigateway_precoder`, `two_stage`,
    `robust.robust_two_stage` or `baseline_avg_mmse` gives at that power;
    elsewhere that call raises, and the code is the earliest failing stage
    over all beams, `NO_SCALE` only where no design failed. A failed slot
    stays finite.
    """
    p = _power_vector(p_total)
    w_bar, codes = _block_diagonals(precoders, users_per_beam, p)
    failed = codes.max(axis=-1, initial=0).ravel()          # (S P,)
    pre = _scaled(np.tile(p, len(precoders)),
                  w_bar.reshape(-1, *w_bar.shape[2:]), mode, failed > 0)
    return pre, np.maximum(failed, NO_SCALE * (pre.alpha == 0.0)).reshape(-1, p.size)


def four_color_precoder(layout: BeamLayout,
                        p_total: float | np.ndarray) -> Precoder:
    """Unprecoded reference: each beam driven by its own feeds.

    Every feed radiates at equal power P_T/N, so the per-feed and total
    power constraints are both met with equality.
    """
    amp = np.sqrt(_power_vector(p_total) / layout.feeds)[:, None, None]
    w = np.repeat(amp * np.eye(layout.beams, dtype=complex),
                  layout.feeds_per_beam, axis=-2)
    return Precoder(w=_unstack(p_total, w), alpha=1.0, power_mode="per_feed")


def baseline_four_color(ch: ChannelMatrix, layout: BeamLayout,
                        p_total: float | np.ndarray) -> np.ndarray:
    """Per-user SINRs of the four-coloring frequency-reuse baseline.

    No precoding: interference is accumulated only over beams sharing the
    victim's color (the other colors use disjoint quarters of the band).
    The quarter-bandwidth factor enters in the rate mapping, not here.
    Returns a (K, Q) array of linear SINRs, (P, K, Q) for a power vector.
    """
    if layout.beams != ch.beams:
        raise ConfigError("layout and channel disagree on the number of beams")
    colors = layout.color_of_beam
    if colors.min() < 0 or colors.max() > 3:
        raise ConfigError("invalid four-coloring in layout")
    w = four_color_precoder(layout, _power_vector(p_total)).w
    k_beams = ch.beams
    power = np.abs(ch.h @ w).reshape(w.shape[0], k_beams, -1, k_beams) ** 2
    beam = np.arange(k_beams)
    same = (colors[:, None] == colors) & (beam[:, None] != beam)
    interf = np.sum(power * same[:, None, :], axis=-1)
    signal = np.einsum("pkqk->pkq", power)                # (P, K, Q)
    return _unstack(p_total, signal / (interf + 1.0))

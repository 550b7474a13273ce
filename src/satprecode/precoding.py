"""Two-stage multicast precoding and the comparison baselines.

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
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel import BeamLayout, ChannelMatrix, _other_gram_tails
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
from .linalg import RANK_TOL, eigh_sorted

__all__ = [
    "Precoder",
    "mbim_interbeam",
    "mbim_stack",
    "rzf_interbeam",
    "rzf_stack",
    "intrabeam",
    "power_control",
    "assemble",
    "two_stage",
    "beam_average",
    "baseline_avg_mmse",
    "baseline_four_color",
    "four_color_precoder",
]

POWER_MODES = ("per_feed", "total")


@dataclass(frozen=True)
class Precoder:
    """Assembled N x K precoding matrix plus its factors.

    `wa` (N x KQ) and `wb` (K x Q, the intra-beam vector of every beam)
    are kept when the precoder was built by `assemble`; the baselines and
    the multi-gateway precoder leave them as None. In `per_feed` mode the
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


def _regularizer(ch: ChannelMatrix, p_total: float | np.ndarray):
    return ch.beams * ch.users_per_beam / p_total


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


def mbim_stack(ch: ChannelMatrix, beams: range, p_total: float | np.ndarray,
               shifts: Callable[[np.ndarray], np.ndarray] = np.zeros_like
               ) -> np.ndarray:
    """Inter-beam blocks Wa_k of the interference-mitigation design.

    Returns one N x Q block per beam in `beams` as a (B, N, Q) stack
    ((P, B, N, Q) for a power vector), built from the low end of each
    beam's other-beam Gram spectrum (`channel._other_gram_tails`):
    ``Wa_k = V (S + (KQ/P_T + shift_k) I)^(-1/2)`` restricted to the Q
    columns of smallest eigenvalue, i.e. the directions least aligned with
    the other beams' channels. `shifts(lam_max)` maps the beams' largest
    other-beam Gram eigenvalues to their shifts; a positive shift is the
    robust design's worst-case spectral shift (`satprecode.robust`), and
    the default, all zero, is the nominal design. Only beams with zero
    shift reject a rank-deficient Gram matrix, and the first such beam is
    named. With a single beam there is nothing to mitigate and the block
    degenerates to a scaled truncated identity.
    """
    ids = np.arange(beams.start, beams.stop)
    blocks, codes = _mbim_blocks(
        (ch.beams, ch.users_per_beam, ch.feeds),
        lambda: _other_gram_tails(ch.h, ids, ch.users_per_beam), ids,
        _power_vector(p_total), shifts)
    _raise_failure(codes, ids, (ch.feeds, ch.users_per_beam))
    return _unstack(p_total, blocks)


def _mbim_blocks(dims: tuple[int, int, int], spectra: Callable[[], tuple],
                 beam_ids: np.ndarray, p: np.ndarray,
                 shifts: Callable[[np.ndarray], np.ndarray]) -> tuple:
    """(P, *S, N, Q) interference-mitigation blocks of the beams
    `beam_ids` (shape S) of channels with `dims` = (K, Q, N), and their
    failure codes (shape S): SHAPE for every beam when Q > N, SINGULAR
    where a beam with zero shift has a rank-deficient Gram matrix.

    `spectra()` returns their trimmed other-beam spectra over S, laid out
    as `channel._other_gram_tails` returns them; it is called only
    once the shape checks pass, and so is `shifts(lam_max)`, which
    returns the shifts shaped like `beam_ids`. A failed beam's block is
    finite, so the stages after it run on finite numbers.
    """
    k, q, n = dims
    if q > n:
        return (np.zeros((p.size, *beam_ids.shape, n, q), dtype=complex),
                np.full(beam_ids.shape, SHAPE))
    codes = np.zeros(beam_ids.shape, dtype=int)
    if k == 1:
        amp = np.sqrt(p / (k * q)).reshape(-1, *[1] * (beam_ids.ndim + 2))
        return amp * np.eye(n, q, dtype=complex), codes
    lam_max, tail_values, tail = spectra()
    shift = shifts(lam_max)
    singular = (shift == 0.0) & (
        tail_values[..., -1] <= RANK_TOL * np.maximum(lam_max, 0.0)
    )
    codes[singular] = SINGULAR
    # A rank-deficient tail may round negative, below the regularizer.
    tail_values = np.where(singular[..., None], 1.0, tail_values)
    reg = (k * q / p).reshape(-1, *[1] * tail_values.ndim)
    scale = 1.0 / np.sqrt(tail_values + reg + shift[..., None])
    return tail * scale[..., None, :], codes


def _columns(blocks: np.ndarray) -> np.ndarray:
    """(..., K, N, Q) beam blocks as (..., N, KQ) matrices [B_0 ... B_K-1]."""
    *lead, _, n, _ = blocks.shape
    return blocks.swapaxes(-3, -2).reshape(*lead, n, -1)


def _blocks(wa: np.ndarray, beams: int) -> np.ndarray:
    """(..., N, KQ) matrices split into (..., K, N, Q) beam blocks (a view)."""
    return wa.reshape(*wa.shape[:-1], beams, -1).swapaxes(-3, -2)


def mbim_interbeam(ch: ChannelMatrix,
                   p_total: float | np.ndarray) -> np.ndarray:
    """All inter-beam blocks, horizontally stacked to N x KQ (P x N x KQ)."""
    return _columns(mbim_stack(ch, range(ch.beams), p_total))


def _regularized_inverse(h: np.ndarray, reg: np.ndarray) -> np.ndarray:
    """``inv(h h^H + reg_p I)`` for each entry of `reg`: one (P, n, n) inverse.

    The LU route, accurate while h has no more rows than columns; avg_mmse
    and the rzf design of such a channel take it. The stack is P copies
    of ``h h^H``, each with its reg_p added on the diagonal; no scaled
    identity is formed, and no copy of ``h h^H`` outlives the stack,
    which keeps the batched inverse's working set small.
    """
    stack = np.repeat((h @ h.conj().T)[None], reg.size, axis=0)
    diag = np.arange(h.shape[0])
    stack[:, diag, diag] += reg[:, None]
    return np.linalg.inv(stack)


def _push_through(h: np.ndarray, reg: np.ndarray, columns: slice) -> tuple:
    """``reg_p inv(h h^H + reg_p I)`` and ``reg_p h^H inv(h h^H + reg_p I)``,
    restricted to `columns`, for each entry of `reg`: (P, m, C) and
    (P, n, C) stacks for h of shape (m, n), from one eigendecomposition
    ``h^H h = V diag(d) V^H`` shared by every power.

    With ``Y = h V`` the push-through identity gives
    ``h^H inv(h h^H + r I) = V diag(1 / (d + r)) Y^H`` and
    ``r inv(h h^H + r I) = I - Y diag(1 / (d + r)) Y^H``. Accurate when h
    has more rows than columns; with m <= n the second form cancels.
    """
    eig = eigh_sorted(h.conj().T @ h)
    y = h @ eig.eigenvectors
    damp = 1.0 / (eig.eigenvalues + reg[:, None])                # (P, n)
    tail = y[columns].conj().T
    scaled = -(y * damp[:, None, :]) @ tail                      # (P, m, C)
    own = np.arange(scaled.shape[-1])
    scaled[:, own + columns.start, own] += 1.0
    image = (eig.eigenvectors * (reg[:, None] * damp)[:, None, :]) @ tail
    return scaled, image


def _null_bases(ch: ChannelMatrix, beams: range,
                inverse: np.ndarray) -> np.ndarray:
    """(P, B, KQ, Q) null-space bases of the consecutive `beams` from
    (P, KQ, KQ) inverses, one stacked QR."""
    if ch.beams == 1:
        eye = np.eye(ch.users_per_beam, dtype=complex)
        return np.broadcast_to(eye, (inverse.shape[0], 1, *eye.shape))
    # A slice, not a fancy index: the QR copies its input anyway.
    basis, _ = np.linalg.qr(_blocks(inverse, ch.beams)[:, beams.start:beams.stop])
    return basis


def _right_divide_upper(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``t r^-1`` for stacks of (n, q) matrices t and upper triangular
    (q, q) matrices r, by substitution one column at a time."""
    out = np.empty_like(t)
    for j in range(r.shape[-1]):
        known = (out[..., :j] @ r[..., :j, j, None])[..., 0]
        out[..., j] = (t[..., j] - known) / r[..., j, j, None]
    return out


def rzf_stack(ch: ChannelMatrix, beams: range,
              p_total: float | np.ndarray) -> np.ndarray:
    """Inter-beam blocks of the regularized zero-forcing design.

    Returns one N x Q block per beam in `beams` as a (B, N, Q) stack
    ((P, B, N, Q) for a power vector): the conjugated channel projected
    through the null space of the regularized cross-channel with that
    beam's rows removed, ``W_k = H^H A^-1 E_k R_k^-1`` with
    ``A = H H^H + (KQ/P_T) I``, E_k beam k's columns of the identity and
    R_k the triangular factor of the QR of ``A^-1 E_k``.

    With more served users than feeds (KQ > N), one eigendecomposition of
    ``H^H H`` serves the whole power sweep (`_push_through`): the QR
    factors the push-through form of ``A^-1 E_k``, and ``H^H A^-1 E_k`` is
    formed without A^-1. Otherwise, and for one beam, one batched LU
    inverse serves every power; its column blocks are factored in one
    stacked QR and projected in one stacked product.
    """
    reg = _regularizer(ch, _power_vector(p_total))
    kq, n = ch.h.shape
    if ch.beams == 1 or kq <= n:
        inverse = _regularized_inverse(ch.h, reg)
        return _unstack(p_total, ch.h.conj().T @ _null_bases(ch, beams, inverse))
    q = ch.users_per_beam
    scaled, image = _push_through(ch.h, reg, slice(q * beams.start, q * beams.stop))
    tri = np.linalg.qr(_blocks(scaled, len(beams)), mode="r")
    return _unstack(p_total, _right_divide_upper(_blocks(image, len(beams)), tri))


def rzf_interbeam(ch: ChannelMatrix,
                  p_total: float | np.ndarray) -> np.ndarray:
    """All regularized zero-forcing blocks, stacked to N x KQ (P x N x KQ)."""
    return _columns(rzf_stack(ch, range(ch.beams), p_total))


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
    blocks = _blocks(wa, ch.beams)
    vectors, codes = _intrabeam(ch.beam_blocks() @ blocks)
    _raise_failure(codes)
    columns = (blocks @ vectors[..., None])[..., 0]          # (P, K, N)
    # Contiguous like the multi-gateway w_bar, so the power norms sum in
    # the same order and one gateway reproduces this precoder bit for bit.
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
    return h_bar.conj().T @ _regularized_inverse(h_bar, _regularizer(ch, p))


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

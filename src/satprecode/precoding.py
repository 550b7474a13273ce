"""Two-stage multicast precoding and the comparison baselines.

The precoder factors as ``W = alpha * Wa * Wb``: an inter-beam stage Wa
(one N x Q block per beam) that limits the interference a beam causes to
every other beam's users, a block-diagonal intra-beam stage Wb (one unit
vector per beam) that lifts the beam's average user signal power, and a
scalar alpha enforcing the transmit power constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import BeamLayout, ChannelMatrix
from .exceptions import (
    ConfigError,
    DegenerateBeamError,
    InfeasibleChannelError,
    SingularChannelError,
)
from .linalg import RANK_TOL, eigh_sorted  # noqa: F401 (re-exported)

__all__ = [
    "Precoder",
    "mbim_interbeam",
    "mbim_stack",
    "mbim_block",
    "rzf_interbeam",
    "rzf_stack",
    "rzf_block",
    "rzf_null_basis",
    "intrabeam",
    "power_control",
    "assemble",
    "two_stage",
    "beam_average",
    "baseline_avg_mmse",
    "baseline_four_color",
    "four_color_precoder",
    "interbeam_spectra",
]

POWER_MODES = ("per_feed", "total")


@dataclass(frozen=True)
class Precoder:
    """Assembled N x K precoding matrix plus its factors.

    `wa` (N x KQ) and `wb` (KQ x K, block diagonal) are kept when the
    precoder was built by the two-stage pipeline; single-shot baselines
    leave them as None. In `per_feed` mode the largest diagonal entry of
    W W^H equals P_T/N; in `total` mode the trace equals P_T.
    """

    w: np.ndarray
    alpha: float
    power_mode: str
    wa: np.ndarray | None = None
    wb: np.ndarray | None = None

    def feed_powers(self) -> np.ndarray:
        return np.real(np.einsum("nk,nk->n", self.w, self.w.conj()))

    def total_power(self) -> float:
        return float(np.sum(np.abs(self.w) ** 2))


def _regularizer(ch: ChannelMatrix, p_total: float) -> float:
    return ch.beams * ch.users_per_beam / p_total


def mbim_stack(ch: ChannelMatrix, beams: range, p_total: float,
               shifts: np.ndarray | None = None) -> np.ndarray:
    """Inter-beam blocks Wa_k of the interference-mitigation design.

    Returns one N x Q block per beam in `beams` as a (B, N, Q) stack,
    built from each beam's memoized other-beam Gram eigendecomposition:
    ``Wa_k = V (S + (KQ/P_T + shift_k) I)^(-1/2)`` restricted to the Q
    columns of smallest eigenvalue, i.e. the directions least aligned with
    the other beams' channels. A positive shift is the robust design's
    worst-case spectral shift (`satprecode.robust`); no `shifts` means the
    nominal design, all zero. Only beams with zero shift reject a
    rank-deficient Gram matrix, and the first such beam is named. With a
    single beam there is nothing to mitigate and the block degenerates to
    a scaled truncated identity.
    """
    n = ch.feeds
    q = ch.users_per_beam
    if q > n:
        raise InfeasibleChannelError(
            f"cannot build an {n} x {q} inter-beam block with fewer feeds "
            "than served users"
        )
    if ch.beams == 1:
        block = np.sqrt(p_total / (ch.beams * q)) * np.eye(n, q, dtype=complex)
        return block[None]
    if shifts is None:
        shifts = np.zeros(len(beams))
    eigs = [ch.other_gram_eig(k) for k in beams]
    lam = np.array([eig.eigenvalues for eig in eigs])
    singular = (shifts == 0.0) & (
        lam[:, -1] <= RANK_TOL * np.maximum(lam[:, 0], 0.0)
    )
    if np.any(singular):
        raise SingularChannelError(
            f"cross-channel Gram matrix of beam {beams[np.argmax(singular)]} "
            "is rank deficient"
        )
    # Descending order: the Q smallest eigenvalues sit at the end.
    scale = 1.0 / np.sqrt(lam[:, -q:] + _regularizer(ch, p_total)
                          + shifts[:, None])
    return np.array([eig.tail for eig in eigs]) * scale[:, None, :]


def mbim_block(ch: ChannelMatrix, k: int, p_total: float,
               shift: float = 0.0) -> np.ndarray:
    """Inter-beam block Wa_k (N x Q) of beam k alone; see `mbim_stack`."""
    return mbim_stack(ch, range(k, k + 1), p_total, np.array([shift]))[0]


def _columns(blocks: np.ndarray) -> np.ndarray:
    """(K, N, Q) stack of per-beam blocks as the N x KQ matrix [B_0 ... B_K-1]."""
    return blocks.transpose(1, 0, 2).reshape(blocks.shape[1], -1)


def _blocks(wa: np.ndarray, beams: int) -> np.ndarray:
    """N x KQ matrix split into its (K, N, Q) stack of beam blocks (a view)."""
    return wa.reshape(wa.shape[0], beams, -1).transpose(1, 0, 2)


def mbim_interbeam(ch: ChannelMatrix, p_total: float) -> np.ndarray:
    """All inter-beam blocks, horizontally stacked to N x KQ."""
    return _columns(mbim_stack(ch, range(ch.beams), p_total))


def _regularized_inverse(ch: ChannelMatrix, p_total: float) -> np.ndarray:
    """``inv(H H^H + (KQ/P_T) I)``, the one matrix behind every RZF block."""
    reg = _regularizer(ch, p_total) * np.eye(ch.h.shape[0], dtype=complex)
    return np.linalg.inv(ch.h @ ch.h.conj().T + reg)


def _null_bases(ch: ChannelMatrix, beams: range,
                inverse: np.ndarray) -> np.ndarray:
    """(B, KQ, Q) null-space bases of `beams`, one stacked QR."""
    if ch.beams == 1:
        return np.eye(ch.users_per_beam, dtype=complex)[None]
    basis, _ = np.linalg.qr(_blocks(inverse, ch.beams)[beams])
    return basis


def rzf_null_basis(ch: ChannelMatrix, k: int, p_total: float) -> np.ndarray:
    """Null-space basis (KQ x Q) behind the zero-forcing block of beam k.

    Removing beam k's Q rows from ``A = H H^H + (KQ/P_T) I`` leaves a
    matrix whose right null space is spanned by beam k's Q columns of
    ``A^-1``: ``A A^-1 = I`` is zero in those columns off beam k's rows.
    Their QR factor is the orthonormal basis.
    """
    inverse = _regularized_inverse(ch, p_total)
    return _null_bases(ch, range(k, k + 1), inverse)[0]


def rzf_stack(ch: ChannelMatrix, beams: range, p_total: float) -> np.ndarray:
    """Inter-beam blocks of the regularized zero-forcing design.

    Returns one N x Q block per beam in `beams` as a (B, N, Q) stack: the
    conjugated channel projected through the null space of the
    regularized cross-channel with that beam's rows removed. One
    regularized inverse serves every beam; its column blocks are factored
    in one stacked QR and projected in one stacked product.
    """
    inverse = _regularized_inverse(ch, p_total)
    return ch.h.conj().T @ _null_bases(ch, beams, inverse)


def rzf_block(ch: ChannelMatrix, k: int, p_total: float) -> np.ndarray:
    """Inter-beam block (N x Q) of beam k alone; see `rzf_stack`."""
    return rzf_stack(ch, range(k, k + 1), p_total)[0]


def rzf_interbeam(ch: ChannelMatrix, p_total: float) -> np.ndarray:
    """All regularized zero-forcing blocks, stacked to N x KQ."""
    return _columns(rzf_stack(ch, range(ch.beams), p_total))


def intrabeam(z: np.ndarray, first_beam: int = 0) -> np.ndarray:
    """Unit vectors maximizing ``||Z w||`` (leading right singular vectors).

    `z` is one effective intra-beam channel (Q x Q) or a stack of them
    (B x Q x Q) for consecutive beams numbered from `first_beam`; the
    result is one vector (Q,) or a stack (B, Q). An all-zero channel
    raises DegenerateBeamError naming its beam.
    """
    z = np.asarray(z)
    dead = np.reshape(~np.any(z, axis=(-2, -1)), -1)
    if np.any(dead):
        raise DegenerateBeamError(
            f"beam {first_beam + int(np.argmax(dead))}: "
            "effective intra-beam channel is zero"
        )
    _, _, vh = np.linalg.svd(z)
    return vh[..., 0, :].conj()


def power_control(w_unscaled: np.ndarray, p_total: float, mode: str) -> float:
    """Scale factor meeting the transmit power constraint with equality.

    `per_feed` caps the largest diagonal entry of W W^H at P_T/N; `total`
    sets the trace of W W^H to P_T.
    """
    if mode not in POWER_MODES:
        raise ConfigError(f"power mode must be one of {POWER_MODES}, got {mode!r}")
    w = np.asarray(w_unscaled)
    if not np.any(w):
        raise ConfigError("cannot scale an all-zero precoder")
    if mode == "per_feed":
        peak = float(np.max(np.sum(np.abs(w) ** 2, axis=1)))
        return float(np.sqrt(p_total / (w.shape[0] * peak)))
    return float(np.sqrt(p_total / np.sum(np.abs(w) ** 2)))


def assemble(ch: ChannelMatrix, wa: np.ndarray, p_total: float,
             mode: str = "per_feed") -> Precoder:
    """Intra-beam stage, power normalization, and final assembly.

    Every beam's effective channel ``Z_k = H_k Wa_k`` is formed in one
    stacked product and decomposed in one stacked SVD.
    """
    k_beams = ch.beams
    q = ch.users_per_beam
    vectors = intrabeam(ch.beam_blocks() @ _blocks(wa, k_beams))
    wb = np.zeros((k_beams * q, k_beams), dtype=complex)
    beam = np.arange(k_beams)
    wb.reshape(k_beams, q, k_beams)[beam, :, beam] = vectors
    w_bar = wa @ wb
    alpha = power_control(w_bar, p_total, mode)
    return Precoder(w=alpha * w_bar, alpha=alpha, power_mode=mode, wa=wa, wb=wb)


def two_stage(ch: ChannelMatrix, p_total: float, mode: str = "per_feed",
              interbeam: str = "mbim") -> Precoder:
    """Full nominal pipeline with the chosen inter-beam design."""
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


def baseline_avg_mmse(ch: ChannelMatrix, p_total: float,
                      mode: str = "per_feed") -> Precoder:
    """Channel-averaging MMSE baseline.

    Averages each beam's user rows into a single representative channel
    and applies a regularized inverse, then the usual power scaling.
    """
    k_beams = ch.beams
    h_bar = beam_average(ch)
    gram = h_bar @ h_bar.conj().T + _regularizer(ch, p_total) * np.eye(
        k_beams, dtype=complex
    )
    w_bar = h_bar.conj().T @ np.linalg.inv(gram)
    alpha = power_control(w_bar, p_total, mode)
    return Precoder(w=alpha * w_bar, alpha=alpha, power_mode=mode)


def four_color_precoder(layout: BeamLayout, p_total: float) -> Precoder:
    """Unprecoded reference: each beam driven by its own feeds.

    Every feed radiates at equal power P_T/N, so the per-feed and total
    power constraints are both met with equality.
    """
    amp = np.sqrt(p_total / layout.feeds)
    w = np.repeat(amp * np.eye(layout.beams, dtype=complex),
                  layout.feeds_per_beam, axis=0)
    return Precoder(w=w, alpha=1.0, power_mode="per_feed")


def baseline_four_color(ch: ChannelMatrix, layout: BeamLayout,
                        p_total: float) -> np.ndarray:
    """Per-user SINRs of the four-coloring frequency-reuse baseline.

    No precoding: interference is accumulated only over beams sharing the
    victim's color (the other colors use disjoint quarters of the band).
    The quarter-bandwidth factor enters in the rate mapping, not here.
    Returns a (K, Q) array of linear SINRs.
    """
    if layout.beams != ch.beams:
        raise ConfigError("layout and channel disagree on the number of beams")
    colors = layout.color_of_beam
    if colors.min() < 0 or colors.max() > 3:
        raise ConfigError("invalid four-coloring in layout")
    w = four_color_precoder(layout, p_total).w
    k_beams = ch.beams
    power = np.abs(ch.h @ w).reshape(k_beams, -1, k_beams) ** 2   # (K, Q, K)
    beam = np.arange(k_beams)
    same = (colors[:, None] == colors) & (beam[:, None] != beam)
    interf = np.sum(power * same[:, None, :], axis=2)
    return power[beam, :, beam] / (interf + 1.0)


def interbeam_spectra(ch: ChannelMatrix) -> list[np.ndarray]:
    """Per-beam eigenvalue spectra of the other-beam Gram matrices."""
    return [ch.other_gram_eig(k).eigenvalues for k in range(ch.beams)]

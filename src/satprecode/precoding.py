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
    "mbim_block",
    "rzf_interbeam",
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


def mbim_block(ch: ChannelMatrix, k: int, p_total: float,
               shift: float = 0.0) -> np.ndarray:
    """Inter-beam block Wa_k of the interference-mitigation design.

    Built from the eigendecomposition of the other-beam Gram matrix:
    ``Wa_k = V (S + (KQ/P_T + shift) I)^(-1/2)`` restricted to the Q
    columns of smallest eigenvalue, i.e. the directions least aligned with
    the other beams' channels. A positive `shift` is the robust design's
    worst-case spectral shift (`satprecode.robust`). Only the nominal
    design (zero shift) rejects a rank-deficient Gram matrix. With a
    single beam there is nothing to mitigate and the block degenerates
    to a scaled truncated identity.
    """
    n = ch.feeds
    q = ch.users_per_beam
    if q > n:
        raise InfeasibleChannelError(
            f"cannot build an {n} x {q} inter-beam block with fewer feeds "
            "than served users"
        )
    if ch.beams == 1:
        return np.sqrt(p_total / (ch.beams * q)) * np.eye(n, q, dtype=complex)
    eig = ch.other_gram_eig(k)
    lam = eig.eigenvalues
    if shift == 0.0 and lam[-1] <= RANK_TOL * max(lam[0], 0.0):
        raise SingularChannelError(
            f"cross-channel Gram matrix of beam {k} is rank deficient"
        )
    # Descending order: the Q smallest eigenvalues sit at the end.
    scale = 1.0 / np.sqrt(lam[-q:] + _regularizer(ch, p_total) + shift)
    return eig.tail * scale


def mbim_interbeam(ch: ChannelMatrix, p_total: float) -> np.ndarray:
    """All inter-beam blocks, horizontally stacked to N x KQ."""
    return np.hstack([mbim_block(ch, k, p_total) for k in range(ch.beams)])


def _regularized_inverse(ch: ChannelMatrix, p_total: float) -> np.ndarray:
    """``inv(H H^H + (KQ/P_T) I)``, the one matrix behind every RZF block."""
    reg = _regularizer(ch, p_total) * np.eye(ch.h.shape[0], dtype=complex)
    return np.linalg.inv(ch.h @ ch.h.conj().T + reg)


def _null_basis(ch: ChannelMatrix, k: int, inverse: np.ndarray) -> np.ndarray:
    if ch.beams == 1:
        return np.eye(ch.users_per_beam, dtype=complex)
    basis, _ = np.linalg.qr(inverse[:, ch.beam_rows(k)])
    return basis


def rzf_null_basis(ch: ChannelMatrix, k: int, p_total: float) -> np.ndarray:
    """Null-space basis (KQ x Q) behind the zero-forcing block of beam k.

    Removing beam k's Q rows from ``A = H H^H + (KQ/P_T) I`` leaves a
    matrix whose right null space is spanned by beam k's Q columns of
    ``A^-1``: ``A A^-1 = I`` is zero in those columns off beam k's rows.
    Their QR factor is the orthonormal basis.
    """
    return _null_basis(ch, k, _regularized_inverse(ch, p_total))


def rzf_block(ch: ChannelMatrix, k: int, p_total: float) -> np.ndarray:
    """Inter-beam block of the regularized zero-forcing design.

    Projects the conjugated channel through the null space of the
    regularized cross-channel with beam k's rows removed.
    """
    return ch.h.conj().T @ rzf_null_basis(ch, k, p_total)


def rzf_interbeam(ch: ChannelMatrix, p_total: float) -> np.ndarray:
    """All regularized zero-forcing blocks, stacked to N x KQ.

    One regularized inverse serves every beam.
    """
    inverse = _regularized_inverse(ch, p_total)
    return np.hstack(
        [ch.h.conj().T @ _null_basis(ch, k, inverse) for k in range(ch.beams)]
    )


def intrabeam(z: np.ndarray) -> np.ndarray:
    """Unit vector maximizing ``||Z w||`` (leading right singular vector)."""
    z = np.asarray(z)
    if not np.any(z):
        raise DegenerateBeamError("effective intra-beam channel is zero")
    _, _, vh = np.linalg.svd(z)
    return vh[0].conj()


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
    """Intra-beam stage, power normalization, and final assembly."""
    k_beams = ch.beams
    q = ch.users_per_beam
    wb = np.zeros((k_beams * q, k_beams), dtype=complex)
    for k in range(k_beams):
        z = ch.beam(k) @ wa[:, k * q:(k + 1) * q]
        try:
            wb[k * q:(k + 1) * q, k] = intrabeam(z)
        except DegenerateBeamError as exc:
            raise DegenerateBeamError(f"beam {k}: {exc}") from None
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
    return np.array([ch.beam(k).mean(axis=0) for k in range(ch.beams)])


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
    n = layout.feeds
    w = np.zeros((n, layout.beams), dtype=complex)
    amp = np.sqrt(p_total / n)
    for k in range(layout.beams):
        w[layout.feed_slice(k), k] = amp
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
    amps = ch.h @ w
    k_beams, q = ch.beams, ch.users_per_beam
    sinr = np.empty((k_beams, q))
    for k in range(k_beams):
        same = np.nonzero((colors == colors[k]) & (np.arange(k_beams) != k))[0]
        rows = amps[ch.beam_rows(k)]
        signal = np.abs(rows[:, k]) ** 2
        interf = (
            np.sum(np.abs(rows[:, same]) ** 2, axis=1) if same.size else 0.0
        )
        sinr[k] = signal / (interf + 1.0)
    return sinr


def interbeam_spectra(ch: ChannelMatrix) -> list[np.ndarray]:
    """Per-beam eigenvalue spectra of the other-beam Gram matrices."""
    return [ch.other_gram_eig(k).eigenvalues for k in range(ch.beams)]

"""Reference maths behind the fast precoding paths, kept as test oracles.

These are the direct implementations the library once ran: the SVD null
space behind the zero-forcing design, the first-order coupler algebra of
the robust inter- and intra-beam stages, the per-beam doubling search
for the user-placement box, the per-beam loops of every design stage and
the `np.cross` form of the off-axis angle. The library now computes the
same designs in closed form (one regularized inverse for RZF; the
shifted interference-mitigation design plus the nominal intra-beam stage
for the robust precoder), every beam's box in one pass, and each design
stage in one stacked LAPACK call over all beams. The tests compare the
two.
"""

from __future__ import annotations

import warnings

import numpy as np

from satprecode import geometry
from satprecode.channel import BeamLayout, ChannelMatrix, PerturbationBounds
from satprecode.exceptions import (
    MODELLED_FAILURES,
    ConfigError,
    DegenerateBeamError,
    GeometryError,
    InfeasibleChannelError,
    SingularChannelError,
)
from satprecode.gateway import GatewayPlan, SharedCsiView
from satprecode.linalg import RANK_TOL, eigh_sorted
from satprecode.precoding import (
    Precoder,
    _regularized_inverse,
    _regularizer,
    intrabeam,
    mbim_block,
    power_control,
)
from satprecode.robust import (
    DEGENERACY_FLOOR,
    DegenerateSpectrumWarning,
    _shift_bounds,
    coupling_matrix,
    eigen_shift_bound,
    intra_penalty_scale,
)


def null_space(a: np.ndarray, rtol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the right null space of `a` (columns).

    Singular values below ``rtol * s_max`` count as zero. An empty matrix
    (zero rows) has the full identity as its null space.
    """
    a = np.asarray(a)
    n = a.shape[1]
    if a.shape[0] == 0:
        return np.eye(n, dtype=complex)
    _, s, vh = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > rtol * s[0]))
    return vh[rank:].conj().T


def rzf_null_basis(ch: ChannelMatrix, k: int, p_total: float) -> np.ndarray:
    """SVD null space of the regularized cross-channel without beam k."""
    q = ch.users_per_beam
    if ch.beams == 1:
        return np.eye(q, dtype=complex)
    reg = ch.h @ ch.h.conj().T + (ch.beams * q / p_total) * np.eye(
        ch.h.shape[0], dtype=complex
    )
    reduced = np.delete(reg, ch.beam_rows(k), axis=0)
    basis = null_space(reduced)
    if basis.shape[1] < q:
        raise InfeasibleChannelError(
            f"null space of beam {k}'s reduced cross-channel has dimension "
            f"{basis.shape[1]} < Q = {q}"
        )
    return basis[:, :q]


def rzf_interbeam(ch: ChannelMatrix, p_total: float) -> np.ndarray:
    """RZF inter-beam stage from one SVD null space per beam."""
    return np.hstack(
        [ch.h.conj().T @ rzf_null_basis(ch, k, p_total) for k in range(ch.beams)]
    )


def _shift(ch: ChannelMatrix, k: int, bounds: PerturbationBounds) -> float:
    """epsilon_k with the spectral norm taken by SVD."""
    other = ch.excluding(k)
    lam_max = np.linalg.norm(other, 2) ** 2 if other.shape[0] else 0.0
    return eigen_shift_bound(float(bounds.gamma_tilde_k[k]), lam_max)


def robust_interbeam_block(ch: ChannelMatrix, k: int,
                           bounds: PerturbationBounds,
                           p_total: float) -> np.ndarray:
    """Robust inter-beam block for beam k.

    The eigenvector basis receives the first-order correction evaluated
    at the isotropic worst case (which is exactly zero), and the spectrum
    regularization grows from KQ/P_T to KQ/P_T + epsilon_k. A zero shift
    carries no uncertainty and delegates to the nominal block, so the
    robust design reduces to the nominal one exactly.
    """
    other = ch.excluding(k)
    eps = _shift(ch, k, bounds)
    if eps == 0.0:
        return mbim_block(ch, k, p_total)
    q = ch.users_per_beam
    eig = eigh_sorted(other.conj().T @ other)
    d = coupling_matrix(eig.eigenvalues, warn=True)
    sigma = np.diag(eig.eigenvalues)
    vhv = eig.eigenvectors.conj().T @ (eps * np.eye(ch.feeds)) @ eig.eigenvectors
    r_hat = d * (vhv @ sigma + sigma @ vhv.conj().T)
    m_hat = eig.eigenvectors @ (r_hat + np.eye(ch.feeds, dtype=complex))
    reg = ch.beams * ch.users_per_beam / p_total
    scale = 1.0 / np.sqrt(eig.eigenvalues + reg + eps)
    return (m_hat * scale)[:, -q:]


def robust_intrabeam(z: np.ndarray, nu: float,
                     floor: float = DEGENERACY_FLOOR) -> np.ndarray:
    """Robust intra-beam vector for the effective channel Z.

    Applies the first-order correction ``nu * N o (L^H L T + T L^H L)``
    to the eigenbasis L of Z^H Z and returns the normalized first column.
    With a unitary L the correction vanishes, and nu = 0 delegates to the
    nominal vector outright. A degenerate leading pair falls back to the
    nominal vector with a warning.
    """
    if nu < 0.0:
        raise ConfigError("nu must be >= 0")
    if nu == 0.0:
        return intrabeam(z)
    z = np.asarray(z)
    eig = eigh_sorted(z.conj().T @ z)
    lam = eig.eigenvalues
    if lam.size > 1 and abs(lam[0] - lam[1]) < floor * abs(lam[0]):
        warnings.warn(
            "leading intra-beam eigenvalues nearly degenerate; "
            "falling back to the nominal vector",
            DegenerateSpectrumWarning,
            stacklevel=2,
        )
        return intrabeam(z)
    coupler = coupling_matrix(lam, floor)
    l_mat = eig.eigenvectors
    t_mat = np.diag(lam)
    lhl = l_mat.conj().T @ l_mat
    m_hat = nu * coupler * (lhl @ t_mat + t_mat @ lhl)
    w = (l_mat @ (m_hat + np.eye(lam.size, dtype=complex)))[:, 0]
    return w / np.linalg.norm(w)


def robust_two_stage(ch: ChannelMatrix, bounds: PerturbationBounds,
                     p_total: float, mode: str = "per_feed") -> Precoder:
    """Robust inter-beam stage followed by the robust intra-beam stage."""
    if bounds.beams != ch.beams:
        raise ConfigError("bounds and channel disagree on the number of beams")
    k_beams = ch.beams
    q = ch.users_per_beam
    wa = np.hstack(
        [robust_interbeam_block(ch, k, bounds, p_total) for k in range(k_beams)]
    )
    wb = np.zeros((k_beams * q, k_beams), dtype=complex)
    for k in range(k_beams):
        other = ch.excluding(k)
        lam = eigh_sorted(other.conj().T @ other).eigenvalues
        nu = intra_penalty_scale(
            float(bounds.gamma_lower_k[k]), lam, _shift(ch, k, bounds)
        )
        z = ch.beam(k) @ wa[:, k * q:(k + 1) * q]
        wb[k * q:(k + 1) * q, k] = robust_intrabeam(z, nu)
    w_bar = wa @ wb
    alpha = power_control(w_bar, p_total, mode)
    return Precoder(w=alpha * w_bar, alpha=alpha, power_mode=mode, wa=wa, wb=wb)


def ground_halfwidth_deg(sat: np.ndarray, lat0: float, lon0: float,
                         radius_deg: float, earth_radius_m: float) -> float:
    """Half-width (ground degrees) of a box certain to cover the contour."""
    if radius_deg <= 0.0:
        raise GeometryError("beam radius must be strictly positive")
    step = 1e-3
    for _ in range(40):
        a_lat = geometry.off_axis_angle_deg(
            sat, lat0, lon0, lat0 + step, lon0, earth_radius_m
        )
        if a_lat >= radius_deg:
            break
        step *= 2.0
    else:
        raise GeometryError("beam contour does not close on the visible Earth")
    # 1.6 margin covers the obliquity stretch of the footprint ellipse.
    return 1.6 * step


# Per-beam loops of the design stages, one small LAPACK call per beam.

def intrabeam_per_beam(z: np.ndarray) -> np.ndarray:
    """Unit vector maximizing ``||Z w||`` (leading right singular vector)."""
    z = np.asarray(z)
    if not np.any(z):
        raise DegenerateBeamError("effective intra-beam channel is zero")
    _, _, vh = np.linalg.svd(z)
    return vh[0].conj()


def mbim_block_per_beam(ch: ChannelMatrix, k: int, p_total: float,
                        shift: float = 0.0) -> np.ndarray:
    """Inter-beam block Wa_k of the interference-mitigation design."""
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


def mbim_interbeam_per_beam(ch: ChannelMatrix, p_total: float) -> np.ndarray:
    """All inter-beam blocks, horizontally stacked to N x KQ."""
    return np.hstack(
        [mbim_block_per_beam(ch, k, p_total) for k in range(ch.beams)]
    )


def robust_interbeam_per_beam(ch: ChannelMatrix, bounds: PerturbationBounds,
                              p_total: float) -> np.ndarray:
    """All robust inter-beam blocks: mbim blocks shifted by epsilon_k."""
    if bounds.beams != ch.beams:
        raise ConfigError("bounds and channel disagree on the number of beams")
    shifts = _shift_bounds(ch, bounds)
    return np.hstack(
        [mbim_block_per_beam(ch, k, p_total, shift=shifts[k])
         for k in range(ch.beams)]
    )


def _null_basis_per_beam(ch: ChannelMatrix, k: int,
                         inverse: np.ndarray) -> np.ndarray:
    if ch.beams == 1:
        return np.eye(ch.users_per_beam, dtype=complex)
    basis, _ = np.linalg.qr(inverse[:, ch.beam_rows(k)])
    return basis


def rzf_block_per_beam(ch: ChannelMatrix, k: int, p_total: float) -> np.ndarray:
    """RZF block of beam k from its own QR of the regularized inverse."""
    return ch.h.conj().T @ _null_basis_per_beam(
        ch, k, _regularized_inverse(ch, p_total)
    )


def rzf_interbeam_per_beam(ch: ChannelMatrix, p_total: float) -> np.ndarray:
    """All RZF blocks from one inverse and one QR per beam."""
    inverse = _regularized_inverse(ch, p_total)
    return np.hstack(
        [ch.h.conj().T @ _null_basis_per_beam(ch, k, inverse)
         for k in range(ch.beams)]
    )


def assemble_per_beam(ch: ChannelMatrix, wa: np.ndarray, p_total: float,
                      mode: str = "per_feed") -> Precoder:
    """Intra-beam stage (one SVD per beam), power normalization, assembly."""
    k_beams = ch.beams
    q = ch.users_per_beam
    wb = np.zeros((k_beams * q, k_beams), dtype=complex)
    for k in range(k_beams):
        z = ch.beam(k) @ wa[:, k * q:(k + 1) * q]
        try:
            wb[k * q:(k + 1) * q, k] = intrabeam_per_beam(z)
        except DegenerateBeamError as exc:
            raise DegenerateBeamError(f"beam {k}: {exc}") from None
    w_bar = wa @ wb
    alpha = power_control(w_bar, p_total, mode)
    return Precoder(w=alpha * w_bar, alpha=alpha, power_mode=mode, wa=wa, wb=wb)


def beam_average_per_beam(ch: ChannelMatrix) -> np.ndarray:
    """K x N matrix of per-beam user-row averages."""
    return np.array([ch.beam(k).mean(axis=0) for k in range(ch.beams)])


def four_color_precoder_per_beam(layout: BeamLayout, p_total: float) -> Precoder:
    """Each beam driven by its own feeds at equal power P_T/N."""
    n = layout.feeds
    w = np.zeros((n, layout.beams), dtype=complex)
    amp = np.sqrt(p_total / n)
    for k in range(layout.beams):
        w[layout.feed_slice(k), k] = amp
    return Precoder(w=w, alpha=1.0, power_mode="per_feed")


def baseline_four_color_per_beam(ch: ChannelMatrix, layout: BeamLayout,
                                 p_total: float) -> np.ndarray:
    """Four-coloring SINRs, interference summed over same-color beams."""
    colors = layout.color_of_beam
    w = four_color_precoder_per_beam(layout, p_total).w
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


def assemble_multigateway_per_beam(views: list[SharedCsiView],
                                   plan: GatewayPlan, p_total: float,
                                   precoder_kind: str = "mbim",
                                   mode: str = "per_feed") -> Precoder:
    """Block-diagonal multi-gateway precoder, one beam at a time."""
    block = mbim_block_per_beam if precoder_kind == "mbim" else rzf_block_per_beam
    w_bar = np.zeros((plan.feeds, plan.beams), dtype=complex)
    for view in views:
        g = view.gateway
        eff = view.channel
        beams = plan.beam_slice(g)
        for k in range(beams.start, beams.stop):
            try:
                wa_k = block(eff, k, p_total)
                z = eff.beam(k) @ wa_k
                w_bar[plan.feed_slice(g), k] = wa_k @ intrabeam_per_beam(z)
            except MODELLED_FAILURES as exc:
                raise type(exc)(f"gateway {g}: {exc}") from exc
    alpha = power_control(w_bar, p_total, mode)
    return Precoder(w=alpha * w_bar, alpha=alpha, power_mode=mode)


def boresight_angle_deg_cross(bore: np.ndarray, targ: np.ndarray) -> np.ndarray:
    """Off-axis angle with the rejection taken by `np.cross`."""
    bu = bore / np.linalg.norm(bore)
    sin_part = np.linalg.norm(np.cross(targ, bu), axis=-1)
    cos_part = targ @ bu
    return np.degrees(np.arctan2(sin_part, cos_part))

"""Reference maths behind the fast precoding paths, kept as test oracles.

These are the direct implementations the library once ran: the SVD null
space behind the zero-forcing design, the first-order coupler algebra of
the robust inter- and intra-beam stages, and the per-beam doubling
search for the user-placement box. The library now computes the same
designs in closed form (one regularized inverse for RZF; the shifted
interference-mitigation design plus the nominal intra-beam stage for the
robust precoder) and every beam's box in one pass. The tests compare the
two.
"""

from __future__ import annotations

import warnings

import numpy as np

from satprecode import geometry
from satprecode.channel import ChannelMatrix, PerturbationBounds
from satprecode.exceptions import ConfigError, GeometryError, InfeasibleChannelError
from satprecode.linalg import RANK_TOL, eigh_sorted
from satprecode.precoding import Precoder, intrabeam, mbim_block, power_control
from satprecode.robust import (
    DEGENERACY_FLOOR,
    DegenerateSpectrumWarning,
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

"""Worst-case robust precoding under norm-bounded channel errors.

The robust design models the effect of a norm-bounded channel error on
the eigendecomposition used by the nominal inter-beam stage. Eigenvalues
are shifted by a worst-case scalar bound epsilon_k (`eigen_shift_bound`,
validated by Weyl's inequality) and eigenvectors by a first-order
coupling correction. Substituting the isotropic worst case into the
coupler makes the eigenvector correction vanish, and the intra-beam
correction vanishes for a unitary eigenbasis. So the robust precoder is
the interference-mitigation design with epsilon_k added to its
regularizer, followed by the nominal intra-beam stage. The coupling
matrices (`beam_couplers`) are diagnostics only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix, PerturbationBounds
from .exceptions import ConfigError
from .linalg import EigDecomposition, eigh_sorted
from .precoding import Precoder, _columns, assemble, mbim_stack

__all__ = [
    "DEGENERACY_FLOOR",
    "PerturbationCouplers",
    "DegenerateSpectrumWarning",
    "coupling_matrix",
    "first_order_eigvecs",
    "eigen_shift_bound",
    "weyl_upper_bound",
    "intra_penalty_scale",
    "robust_interbeam",
    "robust_two_stage",
    "derive_scalars",
    "beam_couplers",
]

# First-order theory breaks down at eigenvalue crossings; coupler entries
# for pairs closer than this (relative to the largest eigenvalue) are zeroed.
DEGENERACY_FLOOR = 1e-8


class DegenerateSpectrumWarning(UserWarning):
    """A needed eigenvalue pair was too close; its coupling was zeroed."""


@dataclass(frozen=True)
class PerturbationCouplers:
    """Inverse-gap coupling matrices of one beam.

    `inter` is built from the other-beam Gram spectrum, `intra` from the
    effective intra-beam Gram spectrum. Both have zero diagonal and
    antisymmetric off-diagonal entries 1/(lambda_f - lambda_g).
    """

    inter: np.ndarray
    intra: np.ndarray


def coupling_matrix(eigenvalues: np.ndarray, floor: float = DEGENERACY_FLOOR,
                    warn: bool = False) -> np.ndarray:
    """Inverse eigenvalue-gap matrix with entry (g, f) = 1/(l_f - l_g).

    The diagonal is zero, and any pair whose gap falls below
    ``floor * max|lambda|`` is zeroed (degenerate to first order).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    gaps = lam[None, :] - lam[:, None]
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    degenerate = np.abs(gaps) < floor * scale
    np.fill_diagonal(degenerate, True)
    if warn and np.any(degenerate & ~np.eye(lam.size, dtype=bool)):
        warnings.warn(
            "near-degenerate eigenvalue pair; coupling entries zeroed",
            DegenerateSpectrumWarning,
            stacklevel=2,
        )
    out = np.zeros_like(gaps)
    np.divide(1.0, gaps, out=out, where=~degenerate)
    return out


def first_order_eigvecs(eig: EigDecomposition, delta_gram: np.ndarray,
                        floor: float = DEGENERACY_FLOOR) -> np.ndarray:
    """First-order eigenvector model of a perturbed Hermitian matrix.

    For ``A + E`` with A eigendecomposed as (V, lambda), the predicted
    basis is ``V (I + D o (V^H E V))`` where D is the inverse-gap
    coupler. The residual against the exact basis shrinks quadratically
    in ``||E||``.
    """
    d = coupling_matrix(eig.eigenvalues, floor)
    v = eig.eigenvectors
    r = d * (v.conj().T @ delta_gram @ v)
    return v @ (r + np.eye(v.shape[1], dtype=complex))


def eigen_shift_bound(gamma_hat: float, lam_max: float) -> float:
    """Worst-case spectral-norm bound on the Gram-matrix perturbation.

    ``gamma_hat**2 + 2 * gamma_hat * lam_max`` bounds the spectral norm
    of ``D^H H~ + H~^H D + D^H D`` for every error matrix D with norm at
    most gamma_hat (when the channel norm is at least one). `lam_max` is
    the largest eigenvalue of ``H~^H H~``, i.e. the squared spectral norm
    of the other-beam channel H~.
    """
    if gamma_hat < 0.0:
        raise ConfigError("gamma_hat must be >= 0")
    if gamma_hat == 0.0:
        return 0.0
    return gamma_hat**2 + 2.0 * gamma_hat * float(lam_max)


def weyl_upper_bound(eigenvalues: np.ndarray, epsilon: float) -> np.ndarray:
    """Componentwise eigenvalue upper bound under a bounded perturbation.

    If the perturbing Hermitian matrix has spectral norm at most
    `epsilon`, every eigenvalue of the perturbed matrix is bounded by the
    matching nominal eigenvalue plus epsilon (Weyl's inequality).
    """
    if epsilon < 0.0:
        raise ConfigError("epsilon must be >= 0")
    return np.asarray(eigenvalues, dtype=float) + epsilon


def intra_penalty_scale(gamma_lower: float, eigenvalues: np.ndarray,
                        epsilon: float) -> float:
    """Intra-beam worst-case scalar: gamma_lower * sum((l_i + eps)^-1/2)."""
    if gamma_lower < 0.0 or epsilon < 0.0:
        raise ConfigError("inputs must be nonnegative")
    if gamma_lower == 0.0:
        return 0.0
    lam = np.asarray(eigenvalues, dtype=float)
    return float(gamma_lower * np.sum(1.0 / np.sqrt(lam + epsilon)))


def _shift_bounds(ch: ChannelMatrix, bounds: PerturbationBounds) -> np.ndarray:
    """epsilon_k of every beam, from the cached other-beam spectra."""
    return np.array([
        eigen_shift_bound(float(bounds.gamma_tilde_k[k]),
                          ch.other_gram_eig(k).eigenvalues[0])
        for k in range(ch.beams)
    ])


def robust_interbeam(ch: ChannelMatrix, bounds: PerturbationBounds,
                     p_total: float | np.ndarray) -> np.ndarray:
    """All robust inter-beam blocks, stacked to N x KQ (P x N x KQ).

    Block k is the interference-mitigation block with its regularizer
    grown from KQ/P_T to KQ/P_T + epsilon_k. A zero shift carries no
    uncertainty, so zero bounds reproduce the nominal design exactly.
    """
    if bounds.beams != ch.beams:
        raise ConfigError("bounds and channel disagree on the number of beams")
    return _columns(
        mbim_stack(ch, range(ch.beams), p_total, _shift_bounds(ch, bounds))
    )


def derive_scalars(ch: ChannelMatrix,
                   bounds: PerturbationBounds) -> PerturbationBounds:
    """Fill in the per-beam worst-case scalars epsilon_k and nu_k."""
    eps = _shift_bounds(ch, bounds)
    nu = np.array([
        intra_penalty_scale(float(bounds.gamma_lower_k[k]),
                            ch.other_gram_eig(k).eigenvalues, eps[k])
        for k in range(ch.beams)
    ])
    return bounds.with_derived(eps, nu)


def robust_two_stage(ch: ChannelMatrix, bounds: PerturbationBounds,
                     p_total: float | np.ndarray,
                     mode: str = "per_feed") -> Precoder:
    """Robust inter-beam stage followed by the nominal intra-beam stage, at
    one power or over a power vector."""
    return assemble(ch, robust_interbeam(ch, bounds, p_total), p_total, mode)


def beam_couplers(ch: ChannelMatrix, wa: np.ndarray,
                  floor: float = DEGENERACY_FLOOR) -> list[PerturbationCouplers]:
    """Inter- and intra-beam coupling matrices per beam, for diagnostics."""
    q = ch.users_per_beam
    out = []
    for k in range(ch.beams):
        inter = coupling_matrix(ch.other_gram_eig(k).eigenvalues, floor)
        z = ch.beam(k) @ wa[:, k * q:(k + 1) * q]
        intra = coupling_matrix(eigh_sorted(z.conj().T @ z).eigenvalues, floor)
        out.append(PerturbationCouplers(inter=inter, intra=intra))
    return out

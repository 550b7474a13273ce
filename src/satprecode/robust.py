"""Worst-case robust precoding under norm-bounded channel errors.

The robust design models the effect of a norm-bounded channel error on
the eigendecomposition used by the nominal inter-beam stage. Eigenvalues
are shifted by a worst-case scalar bound per beam (`eigen_shift_bound`)
and eigenvectors by a first-order coupling correction. Substituting the
isotropic worst case into the coupler makes the eigenvector correction
vanish, and the intra-beam correction vanishes for a unitary eigenbasis.
So the robust precoder is the interference-mitigation design with that
bound added to its regularizer, followed by the nominal intra-beam
stage, and no coupling matrix is ever formed: `robust_design` is that
block design, and the design pass of `satprecode.precoding` designs it.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelMatrix, PerturbationBounds
from .exceptions import ConfigError
from .linalg import eigh_sorted  # noqa: F401 (re-exported)
from .precoding import BlockDesign, Precoder, _design_interbeam, assemble

__all__ = [
    "eigen_shift_bound",
    "robust_design",
    "robust_interbeam",
    "robust_two_stage",
]


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


def robust_design(ch: ChannelMatrix, bounds: PerturbationBounds) -> BlockDesign:
    """The robust design as one block over every beam of `ch`: the
    interference-mitigation block with beam k's worst-case shift
    (`eigen_shift_bound`, from its largest other-beam Gram eigenvalue)
    added to its regularizer KQ/P_T. A zero shift carries no uncertainty,
    so zero bounds reproduce the nominal design exactly. The shifts come
    from the design's own spectra, so a channel the design rejects is
    never decomposed."""
    if bounds.beams != ch.beams:
        raise ConfigError("bounds and channel disagree on the number of beams")
    # One scalar call per beam: Python's ``float ** 2`` calls libm pow, which
    # NumPy's elementwise square does not always match bit for bit.
    return BlockDesign(ch.h, range(ch.beams), lambda lam_max: np.array(
        [eigen_shift_bound(float(gamma), lam)
         for gamma, lam in zip(bounds.gamma_tilde_k, lam_max)]))


def robust_interbeam(ch: ChannelMatrix, bounds: PerturbationBounds,
                     p_total: float | np.ndarray) -> np.ndarray:
    """All robust inter-beam blocks (`robust_design`), stacked to N x KQ
    (P x N x KQ for a power vector)."""
    return _design_interbeam(ch, [robust_design(ch, bounds)], p_total)


def robust_two_stage(ch: ChannelMatrix, bounds: PerturbationBounds,
                     p_total: float | np.ndarray,
                     mode: str = "per_feed") -> Precoder:
    """Robust inter-beam stage followed by the nominal intra-beam stage, at
    one power or over a power vector."""
    return assemble(ch, robust_interbeam(ch, bounds, p_total), p_total, mode)

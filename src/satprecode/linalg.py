"""Dense Hermitian eigendecomposition helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative eigenvalue floor below which a Gram matrix counts as rank
# deficient.
RANK_TOL = 1e-12


@dataclass(frozen=True)
class EigDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    `eigenvalues` is real of shape (n,); `eigenvectors` is unitary with
    column j matching eigenvalue j.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


@dataclass(frozen=True)
class TrimmedEig:
    """Full spectrum of a Hermitian matrix, eigenvectors of its low end only.

    `eigenvalues` is real of shape (n,), descending; `tail` (n x m) holds
    the eigenvectors of the m smallest eigenvalues, column j matching
    eigenvalue ``n - m + j``.
    """

    eigenvalues: np.ndarray
    tail: np.ndarray


def eigh_sorted(a: np.ndarray) -> EigDecomposition:
    """Hermitian eigendecomposition sorted by descending eigenvalue.

    Ties keep LAPACK's ascending-order positions (stable sort), so the
    result is deterministic for a given input.
    """
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    return EigDecomposition(w[order], v[:, order])

"""Dense Hermitian eigendecomposition helpers.

Besides the sorted dense eigendecomposition, this module computes the
low end of many "other-beam" Gram spectra at once. For a channel H with
Gram matrix ``G = H^H H = V D V^H`` and the rows B_k of beam k, the
other-beam Gram matrix is the rank-Q downdate ``G_k = G - B_k^H B_k``,
similar to ``D - C_k^H C_k`` with ``C_k = B_k V``. Its eigenvalues below
a shift mu are counted by Haynsworth inertia additivity (Haynsworth
1968): ``#{d_i < mu} + neg(M(mu))`` with the Q x Q secular matrix
``M(mu) = I - C_k (D - mu)^-1 C_k^H``. Safeguarded Newton steps on
``det M`` inside count-bisection brackets find the Q smallest eigenvalues
and the largest one; the tail vectors come from one Rayleigh-Ritz step on
the span of ``(D - mu)^-1 C_k^H`` at the tail roots, widened by the Q+1
eigenvectors of G with the smallest eigenvalues, which hold the deflated
directions (a zero column of C_k or a repeated d_i). See Bunch, Nielsen &
Sorensen, Numer. Math. 31 (1978), and Gu & Eisenstat, SIAM J. Matrix
Anal. Appl. 15 (1994), for the rank-one case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative eigenvalue floor below which a Gram matrix counts as rank
# deficient.
RANK_TOL = 1e-12

# Relative accuracy the downdate certifies for every eigenvalue it returns,
# and the bound on each tail Ritz residual, both relative to ||G||. A beam
# that misses either is left to a dense decomposition.
DOWNDATE_TOL = 1e-12

_EPS = np.finfo(float).eps
# Bisection needs about 52 halvings from a bracket of width ||G|| to
# machine precision; Newton steps usually finish in a third of that.
_MAX_STEPS = 64


@dataclass(frozen=True)
class EigDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of a stack of them,
    eigenvalues descending.

    `eigenvalues` is real of shape (..., n); `eigenvectors` (..., n, n) is
    unitary with column j matching eigenvalue j.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh_sorted(a: np.ndarray) -> EigDecomposition:
    """Hermitian eigendecomposition sorted by descending eigenvalue.

    `a` is one (n, n) matrix or a (..., n, n) stack, decomposed in one
    LAPACK call; each matrix of a stack gets exactly the decomposition it
    gets alone. Ties keep LAPACK's ascending-order positions (stable
    sort), so the result is deterministic for a given input.
    """
    w, v = np.linalg.eigh(a)
    if np.all(w[..., 1:] > w[..., :-1]):
        # Strictly ascending, as LAPACK returns them without ties: the
        # stable descending order is the reversal.
        return EigDecomposition(w[..., ::-1].copy(), v[..., ::-1].copy())
    order = np.argsort(-w, axis=-1, kind="stable")
    return EigDecomposition(np.take_along_axis(w, order, axis=-1),
                            np.take_along_axis(v, order[..., None, :], axis=-1))


def _inertia_and_log_slope(m: np.ndarray, dm: np.ndarray):
    """Negative eigenvalue count of each Hermitian matrix in the stack `m`
    and the derivative of ``log |det m|`` along `dm`, from an unpivoted
    LDL^H factorization carried with its derivative.

    An exact zero pivot is read as a tiny positive one, that is, as the
    matrix a rounding error above it.
    """
    a, da = m.copy(), dm.copy()
    neg = np.zeros(m.shape[:-2], dtype=int)
    slope = np.zeros(m.shape[:-2])
    for j in range(m.shape[-1]):
        p, dp = a[..., j, j].real, da[..., j, j].real
        p = np.where(np.abs(p) < _EPS**2, np.where(p < 0.0, -_EPS**2, _EPS**2), p)
        neg += p < 0.0
        slope += dp / p
        low, row, drow = a[..., j + 1:, j], a[..., j, j + 1:], da[..., j, j + 1:]
        lower = low / p[..., None]
        dlower = (da[..., j + 1:, j] - lower * dp[..., None]) / p[..., None]
        a[..., j + 1:, j + 1:] -= lower[..., :, None] * row[..., None, :]
        da[..., j + 1:, j + 1:] -= (dlower[..., :, None] * row[..., None, :]
                                    + lower[..., :, None] * drow[..., None, :])
    return neg, slope


def downdated_tails(h: np.ndarray, blocks: np.ndarray) -> tuple:
    """Largest eigenvalue and Q-smallest eigenpairs of every other-beam Gram
    matrix ``G - B_k^H B_k``, from one eigendecomposition of ``G = h^H h``.

    `blocks` is the (B, Q, N) stack of the beams' rows of `h`. Returns
    ``lam_max`` (B,), ``tail_values`` (B, Q) and ``tail`` (B, N, Q), laid
    out as `channel._other_gram_tails` returns them, and the mask `ok`
    of the beams whose eigenvalues were certified to `DOWNDATE_TOL` with
    every tail Ritz residual within it; the caller decomposes any other
    beam's Gram matrix directly. No beam is ok when Q > N or G = 0, which
    leave no tail to downdate.
    """
    b, q, n = blocks.shape
    if q <= n:
        eig = eigh_sorted(h.conj().T @ h)
        scale = float(max(eig.eigenvalues[0], -eig.eigenvalues[-1]))
    if q > n or not scale > 0.0:
        m = min(q, n)
        return (np.zeros(b), np.zeros((b, m)), np.zeros((b, n, m), dtype=complex),
                np.zeros(b, dtype=bool))
    # Ascending and scaled to ||G|| = 1, so every bound below is absolute.
    d = eig.eigenvalues[::-1] / scale
    v = eig.eigenvectors[:, ::-1]
    c = (blocks.reshape(-1, n) @ v).reshape(b, q, n) / np.sqrt(scale)
    ch = c.conj().swapaxes(-1, -2)                                 # (B, N, Q)
    # Row i of beam k's slab is the Q x Q outer product c_i c_i^H, as reals.
    outer = np.ascontiguousarray(
        c.swapaxes(-1, -2)[..., :, None] * ch[..., None, :]
    ).reshape(b, n, q * q).view(float)
    # Targets: the Q smallest eigenvalues, then the largest.
    targets = np.append(np.arange(q), n - 1)

    def poles(mu):
        """``d - mu``, kept at least one rounding unit away from zero."""
        gap = d - mu[..., None]
        return np.where(np.abs(gap) < _EPS, np.where(gap < 0.0, -_EPS, _EPS), gap)

    def count(mu):
        """Eigenvalues below each shift and ``d log|det M| / d mu``."""
        w = 1.0 / poles(mu)
        m = np.eye(q) - (w @ outer).view(complex).reshape(*mu.shape, q, q)
        dm = -((w * w) @ outer).view(complex).reshape(*mu.shape, q, q)
        neg, slope = _inertia_and_log_slope(m, dm)
        return np.searchsorted(d, mu, side="left") + neg, slope

    # Interlacing brackets: lambda_t lies in [d_{t-Q}, d_t], and every
    # eigenvalue of a Gram matrix is >= 0 up to rounding.
    weight = np.sum(np.abs(c) ** 2, axis=(1, 2))
    below_q = targets - q
    lo = np.where(below_q >= 0, d[np.maximum(below_q, 0)] - _EPS,
                  np.maximum(d[0] - weight, -DOWNDATE_TOL)[:, None])
    hi = np.broadcast_to(d[targets] + _EPS, lo.shape)
    count_lo = np.full(lo.shape, -1)
    count_hi = np.full(lo.shape, n + 1)
    mu = 0.5 * (lo + hi)
    for _ in range(_MAX_STEPS):
        below, slope = count(mu)
        left = below <= targets
        lo, count_lo = np.where(left, mu, lo), np.where(left, below, count_lo)
        hi, count_hi = np.where(left, hi, mu), np.where(left, count_hi, below)
        # Newton on det M only once the bracket holds this one eigenvalue,
        # so the step cannot converge to a neighbouring root.
        width = hi - lo
        newton = (count_hi - count_lo == 1) & (np.abs(slope) * width > 1.0)
        step = -np.divide(1.0, slope, out=np.zeros_like(slope), where=newton)
        done = ((newton & (np.abs(step) <= 4.0 * _EPS * np.abs(mu) + _EPS))
                | (width <= 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)) + _EPS))
        inside = newton & (mu + step > lo) & (mu + step < hi)
        mu = np.where(done, mu, np.where(inside, mu + step, 0.5 * (lo + hi)))
        if done.all():
            break
    certified = ((count(mu - DOWNDATE_TOL)[0] <= targets)
                 & (count(mu + DOWNDATE_TOL)[0] > targets)).all(axis=-1)

    # Rayleigh-Ritz on span{(D - mu_j)^-1 C_k^H : j < Q} plus e_0 .. e_Q.
    roots = mu[:, :q]
    span = (ch[:, None] / poles(roots)[..., None]).swapaxes(1, 2).reshape(b, n, q * q)
    basis, _ = np.linalg.qr(np.concatenate(
        [span, np.broadcast_to(np.eye(n, q + 1), (b, n, q + 1))], axis=-1))
    image = d[:, None] * basis - ch @ (c @ basis)
    ritz, z = np.linalg.eigh(basis.conj().swapaxes(-1, -2) @ image)
    ritz, z = ritz[:, :q], z[..., :q]
    vectors = basis @ z
    residual = np.linalg.norm(image @ z - vectors * ritz[:, None, :], axis=-2)
    ok = (certified & np.all(np.abs(ritz - roots) <= DOWNDATE_TOL, axis=-1)
          & np.all(residual <= DOWNDATE_TOL, axis=-1))
    # Back to the original basis in one product; descending like eigh_sorted.
    tails = (v @ vectors.swapaxes(0, 1).reshape(n, -1)).reshape(n, b, q)
    tails = tails.swapaxes(0, 1)[..., ::-1]
    return mu[:, -1] * scale, ritz[:, ::-1] * scale, tails, ok

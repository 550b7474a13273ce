"""Dense Hermitian eigendecomposition helpers.

Besides the sorted dense eigendecomposition, this module computes the
low end of many "other-beam" Gram spectra at once: `other_gram_tails` is
the one function every design takes them from, for one channel or a
stack. At or above a crossover in beams it downdates one decomposition
per channel (`downdated_tails`), and it serves every other beam from one
stacked dense call (`_dense_other_gram_tails`). For a channel H with
Gram matrix ``G = H^H H = V D V^H`` and the rows B_k of beam k, the
other-beam Gram matrix is the rank-Q downdate ``G_k = G - B_k^H B_k``,
similar to ``D - C_k^H C_k`` with ``C_k = B_k V``. Its eigenvalues below
a shift mu are counted by Haynsworth inertia additivity (Haynsworth
1968): ``#{d_i < mu} + neg(M(mu))`` with the Q x Q secular matrix
``M(mu) = I - C_k (D - mu)^-1 C_k^H``, and
``det(G_k - mu) = det(D - mu) det M(mu)``. One sweep counts every target
(the Q smallest eigenvalues and the largest) of every beam at once: one
product gives the Taylor coefficients of M to second order, and an
unpivoted LDL^H factorization of them gives the inertia and the first two
logarithmic derivatives of det M; removing the known poles d_i leaves
those of the characteristic polynomial of G_k. Laguerre's method on that
polynomial converges cubically to the nearest eigenvalue on the side it
steps to, without passing it (Parlett, Math. Comp. 18 (1964); Li & Zeng,
SIAM J. Sci. Comput. 15 (1994)); a step is taken only where the count
makes that eigenvalue the target, the other small eigenvalues' current
estimates are divided out (Aberth, Math. Comp. 27 (1973)), and the count
brackets are bisected otherwise. The starts come from the poles: a small
eigenvalue starts midway between d_t and the pole below it, the largest
at d_{N-1} less its first-order shift. The tail vectors come from one
Rayleigh-Ritz step on the span of ``(D - mu)^-1 C_k^H`` at the tail
roots, widened by the Q+1 eigenvectors of G with the smallest
eigenvalues, which hold the deflated directions (a zero column of C_k or
a repeated d_i). See Bunch, Nielsen & Sorensen, Numer. Math. 31 (1978),
and Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 15 (1994), for the
rank-one case.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# Relative eigenvalue floor below which a Gram matrix counts as rank
# deficient.
RANK_TOL = 1e-12

# Smallest beam range whose other-beam Gram tails come from one
# eigendecomposition of H^H H and per-beam downdates instead of one dense
# eigendecomposition per beam: the measured crossover (CHANGES.md table).
_DOWNDATE_MIN_BEAMS = 22

# Relative accuracy the downdate certifies for every eigenvalue it returns,
# and the bound on each tail Ritz residual, both relative to ||G||. A beam
# that misses either is left to a dense decomposition.
DOWNDATE_TOL = 1e-12

_EPS = np.finfo(float).eps
# Bisection needs about 52 halvings from a bracket of width ||G|| to
# machine precision; Laguerre steps usually finish in a tenth of that.
_MAX_STEPS = 64
# A Laguerre step below this relative size ends a target's iteration: the
# convergence is cubic, so the next step would be below the rounding error.
_CUBIC_STEP = 1e-6


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


def gram_eigh(h: np.ndarray) -> EigDecomposition:
    """`eigh_sorted` of ``h^H h``: the one place a Gram matrix G is decomposed."""
    return eigh_sorted(h.conj().T @ h)


def _inertia_and_log_derivatives(m: np.ndarray) -> tuple:
    """Negative eigenvalue count of each Hermitian matrix M(mu) of a stack,
    and the first two derivatives of ``log |det M|`` in mu.

    `m` (3, ..., q, q) holds the Taylor coefficients of M, M' and M''/2 in
    mu; an unpivoted LDL^H factorization runs on the three at once, as
    truncated power series, and overwrites `m`. An exact zero pivot is
    read as a tiny positive one, that is, as the matrix a rounding error
    above it.
    """
    neg = np.zeros(m.shape[1:-2], dtype=int)
    first = np.zeros(m.shape[1:-2])
    second = np.zeros(m.shape[1:-2])
    for j in range(m.shape[-1]):
        p = m[..., j, j].real
        p0 = np.where(np.abs(p[0]) < _EPS**2,
                      np.where(p[0] < 0.0, -_EPS**2, _EPS**2), p[0])
        neg += p0 < 0.0
        r1, r2 = p[1] / p0, p[2] / p0
        first += r1
        second += 2.0 * r2 - r1 * r1
        if j + 1 == m.shape[-1]:
            break
        # The column below the pivot over the pivot, and the Schur
        # complement update, as power series truncated after mu^2.
        col, row = m[..., j + 1:, j, None], m[..., None, j, j + 1:]
        piv, dp, ddp = (a[..., None, None] for a in (p0, p[1], p[2]))
        l0 = col[0] / piv
        l1 = (col[1] - l0 * dp) / piv
        l2 = (col[2] - l0 * ddp - l1 * dp) / piv
        m[0, ..., j + 1:, j + 1:] -= l0 * row[0]
        m[1, ..., j + 1:, j + 1:] -= l0 * row[1] + l1 * row[0]
        m[2, ..., j + 1:, j + 1:] -= l0 * row[2] + l1 * row[1] + l2 * row[0]
    return neg, first, second


def downdated_tails(gram: EigDecomposition, blocks: np.ndarray) -> tuple:
    """Largest eigenvalue and Q-smallest eigenpairs of every other-beam Gram
    matrix ``G - B_k^H B_k``, from the decomposition `gram` of ``G = h^H h``.

    `blocks` is the (B, Q, N) stack of the beams' rows of `h`. Returns
    ``lam_max`` (B,), ``tail_values`` (B, Q) and ``tail`` (B, N, Q), laid
    out as `other_gram_tails` returns one channel's, and the mask `ok`
    of the beams whose eigenvalues were certified to `DOWNDATE_TOL` with
    every tail Ritz residual within it; the caller decomposes any other
    beam's Gram matrix directly. No beam is ok when Q > N or G = 0, which
    leave no tail to downdate.
    """
    b, q, n = blocks.shape
    scale = float(max(gram.eigenvalues[0], -gram.eigenvalues[-1]))
    if q > n or not scale > 0.0:
        m = min(q, n)
        return (np.zeros(b), np.zeros((b, m)), np.zeros((b, n, m), dtype=complex),
                np.zeros(b, dtype=bool))
    # Ascending and scaled to ||G|| = 1, so every bound below is absolute.
    d = gram.eigenvalues[::-1] / scale
    v = gram.eigenvectors[:, ::-1]
    c = (blocks.reshape(-1, n) @ v).reshape(b, q, n) / np.sqrt(scale)
    ch = c.conj().swapaxes(-1, -2)                                 # (B, N, Q)
    # Row i of beam k's slab is the Q x Q outer product c_i c_i^H and a 1,
    # as reals: one product with it also sums the powers of 1 / (d_i - mu).
    slab = np.empty((b, n, q * q + 1), dtype=complex)
    slab[..., :-1] = (c.swapaxes(-1, -2)[..., :, None]
                      * ch[..., None, :]).reshape(b, n, -1)
    slab[..., -1] = 1.0
    slab = slab.view(float)
    # Targets: the Q smallest eigenvalues, then the largest.
    targets = np.append(np.arange(q), n - 1)
    # Laguerre degree: that of det(G_k - mu), less the other Q - 1 smallest
    # eigenvalues, whose estimates are divided out.
    degree = np.append(np.full(q, n - q + 1), n)

    def poles(mu):
        """``d - mu``, kept at least one rounding unit away from zero."""
        gap = d - mu[..., None]
        return np.copysign(np.maximum(np.abs(gap), _EPS), gap)

    def count(mu):
        """Eigenvalues below each shift, and the first two logarithmic
        derivatives of ``det(G_k - mu)``: the sums of 1 / (mu - lambda_j)
        and of 1 / (mu - lambda_j)^2."""
        powers = np.empty((b, 3, *mu.shape[1:], n))
        w = np.divide(1.0, poles(mu), out=powers[:, 0])
        np.multiply(w, w, out=powers[:, 1])
        np.multiply(powers[:, 1], w, out=powers[:, 2])
        # M(mu + x) = I - sum_i c_i c_i^H (w_i + w_i^2 x + w_i^3 x^2 + ...)
        # with w_i = 1 / (d_i - mu): its Taylor coefficients in one product.
        series = powers.reshape(b, -1, n) @ slab
        m = (-series[..., :-2]).view(complex).reshape(b, 3, -1, q, q).swapaxes(0, 1)
        m[0] += np.eye(q)
        neg, first, second = _inertia_and_log_derivatives(m)
        # det(G_k - mu) = det(D - mu) det M(mu): the poles of det M go.
        sums = series[..., -2].reshape(b, 3, -1)
        return (np.searchsorted(d, mu, side="left") + neg,
                first - sums[:, 0], sums[:, 1] - second)

    # Interlacing brackets: lambda_t lies in [d_{t-Q}, d_t], and every
    # eigenvalue of a Gram matrix is >= 0 up to rounding.
    weight = np.sum(np.abs(c) ** 2, axis=(1, 2))
    below_q = targets - q
    lo = np.where(below_q >= 0, d[np.maximum(below_q, 0)] - _EPS,
                  np.maximum(d[0] - weight, -DOWNDATE_TOL)[:, None])
    hi = np.broadcast_to(d[targets] + _EPS, lo.shape)
    # Starts from the pole structure of det M: a small eigenvalue midway
    # between d_t and the pole below it (below d_0, the first spacing
    # again), the largest at d_{N-1} less its first-order shift.
    pole_below = np.append(2.0 * d[0] - d[min(1, n - 1)], d)[targets]
    start = np.broadcast_to(0.5 * (pole_below + d[targets]), lo.shape).copy()
    start[:, -1] = d[-1] - np.sum(np.abs(c[..., -1]) ** 2, axis=-1)
    mu = np.where((start > lo) & (start < hi), start, 0.5 * (lo + hi))
    done = np.zeros(mu.shape, dtype=bool)
    for _ in range(_MAX_STEPS):
        below, slope, curvature = count(mu)
        # Aberth: divide out the other small eigenvalues' estimates.
        gap = mu[:, :q, None] - mu[:, None, :q]
        other = np.divide(1.0, gap, out=np.zeros_like(gap), where=gap != 0.0)
        slope[:, :q] -= other.sum(axis=-1)
        curvature[:, :q] -= (other * other).sum(axis=-1)
        left = below <= targets
        lo = np.where(left, mu, lo)
        hi = np.where(left, hi, mu)
        # Laguerre's step towards the target converges to the nearest
        # eigenvalue on that side without passing it; it is taken only where
        # the count makes that eigenvalue the target.
        sign = 2.0 * left - 1.0
        root = np.sqrt(np.maximum((degree - 1) * (degree * curvature - slope**2), 0.0))
        den = root - sign * slope
        step = sign * np.divide(degree, den, out=np.zeros_like(den), where=den > 0.0)
        adjacent = below == targets + ~left
        # The slope points to the nearest eigenvalue.
        ahead = sign * slope < 0.0
        tiny = np.abs(step) <= 4.0 * _EPS * np.abs(mu) + _EPS
        inside = (mu + step > lo) & (mu + step < hi)
        stop = ((adjacent & ahead & tiny)
                | (hi - lo <= 4.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)) + _EPS))
        last = adjacent & ahead & inside & (np.abs(step) <= _CUBIC_STEP * np.abs(mu))
        # A tiny step with the nearest eigenvalue behind makes no progress.
        laguerre = adjacent & (ahead | ~tiny) & inside
        mu = np.where(done | stop, mu, np.where(laguerre, mu + step, 0.5 * (lo + hi)))
        done |= stop | last
        if done.all():
            break
    below = count(np.concatenate([mu - DOWNDATE_TOL, mu + DOWNDATE_TOL], axis=-1))[0]
    certified = ((below[:, :targets.size] <= targets)
                 & (below[:, targets.size:] > targets)).all(axis=-1)

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


def other_gram_tails(h: np.ndarray, beam_ids: np.ndarray, users_per_beam: int,
                     gram: Callable[[int], EigDecomposition]) -> tuple:
    """Trimmed other-beam Gram spectra of the beams ``beam_ids[c]`` (C, B)
    of each channel ``h[c]`` of the stack `h` (C, KQ, N): beam k's Gram
    matrix is ``O_k^H O_k``, where O_k holds every other beam's rows in
    order.

    Returns the largest eigenvalue ``lam_max`` (C, B), the Q smallest
    ``tail_values`` (C, B, Q), descending, and their eigenvectors ``tail``
    (C, B, N, Q). With at least `_DOWNDATE_MIN_BEAMS` beams, each channel's
    come from `gram(c)`, the eigendecomposition of ``h[c]^H h[c]``, and a
    rank-Q downdate per beam (`downdated_tails`). Every other (channel,
    beam) pair, below the crossover or left uncertified by the downdate,
    comes from one stacked dense call (`_dense_other_gram_tails`).
    """
    c, b = beam_ids.shape
    q, n = users_per_beam, h.shape[-1]
    m = min(q, n)
    out = (np.empty((c, b)), np.empty((c, b, m)),
           np.empty((c, b, n, m), dtype=complex))
    dense = np.ones((c, b), dtype=bool)
    if b >= _DOWNDATE_MIN_BEAMS:
        for i in range(c):
            *found, ok = downdated_tails(gram(i),
                                         h[i].reshape(-1, q, n)[beam_ids[i]])
            for slab, rows in zip(out, found):
                slab[i, ok] = rows[ok]
            dense[i] = ~ok
    pairs = np.nonzero(dense)
    if pairs[0].size:
        found = _dense_other_gram_tails(h, pairs[0], beam_ids[pairs], q)
        for slab, rows in zip(out, found):
            slab[pairs] = rows
    return out


def _dense_other_gram_tails(h: np.ndarray, channel: np.ndarray,
                            beam: np.ndarray, users_per_beam: int) -> tuple:
    """Trimmed other-beam Gram spectra of (channel, beam) pairs from one
    stacked `eigh_sorted` call.

    `h` is a (C, KQ, N) stack of channels. Returns ``lam_max`` (M,),
    ``tail_values`` (M, Q) and ``tail`` (M, N, Q); row i is the spectrum
    of beam ``beam[i]`` of channel ``channel[i]``, formed from the other
    beams' rows in their original order, so each equals the dense
    decomposition of that one Gram matrix bit for bit.
    """
    q = users_per_beam
    other = h[channel[:, None], _other_rows(h.shape[-2], q, beam)]
    full = eigh_sorted(other.conj().swapaxes(-1, -2) @ other)
    return (full.eigenvalues[:, 0], full.eigenvalues[:, -q:],
            full.eigenvectors[..., -q:])


def _other_rows(rows: int, users_per_beam: int, beam: np.ndarray) -> np.ndarray:
    """(M, rows - Q) indices of the rows outside beam ``beam[i]``, in order,
    for each i, where `rows` beam-major rows hold Q rows per beam."""
    q = users_per_beam
    kept = np.arange(rows - q)
    return kept + q * (kept >= q * beam[:, None])

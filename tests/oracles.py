"""Reference maths behind the fast paths of the library, kept as test oracles.

Each design has one oracle, written the plainest way: a loop over its
beams at one float power, one small LAPACK call per beam.
`mbim_interbeam_per_beam`, `robust_interbeam_per_beam` and
`rzf_interbeam_per_beam` (the factors `rzf_factors_per_power`, then one
QR per beam in `rzf_stack_per_beam`) are the inter-beam stages;
`intrabeam_per_beam` the intra-beam stage, and `assemble_per_beam` the
assembly over it; `four_color_precoder_per_beam` and
`baseline_four_color_per_beam` the four-colour baseline; and
`assemble_multigateway_per_beam` a gateway plan, one gateway at a time
and stage by stage within it, naming the failure the library names. The
designs with no loop over beams, the averaging baseline, the power
control and the SINR map, keep their one-power bodies (`*_per_power`).
The library runs each stage once over every beam and a leading power
axis; the tests hold it to these oracles at float powers, and each slot
of a power-vector call to the call at that float power. The mbim loops
take their spectra from `other_gram_tails`, the library's spectra of a
beam range, so they see what the library designs from; the dense
per-beam eigendecomposition of each other-beam Gram matrix
(`other_gram_eig_per_beam`) is the reference for those spectra where
they are downdated.

Other references are the direct implementations the library once ran:
the SVD null space behind the zero-forcing design (`rzf_interbeam`), its
former LU route and null-space bases (`rzf_interbeam_lu`, `_null_bases`),
the first-order coupler algebra of the robust inter- and intra-beam
stages (`robust_two_stage`), the per-beam doubling search for the
user-placement box, the `np.exp` form of the phase synthesis
(`build_phase_matrix_exp`) and the `np.cross` form of the off-axis angle.
`run_trial_per_cell`, every (scenario, power) cell of a trial designed
by its oracle above at that one power, is the reference for the cells
that the failure codes of the stacked pass skip, and
`run_batch_per_cell` runs it over each trial of a batch; it calls none
of the library's single designs, so it stays a reference when they
become calls of that pass.

Helpers that no part of the program calls live here too, unchanged from
when the library exported them:

* the first-order perturbation model: `coupling_matrix` (with
  `DEGENERACY_FLOOR` and `DegenerateSpectrumWarning`),
  `first_order_eigvecs`, `weyl_upper_bound` and `intra_penalty_scale`;
* the one-beam views of the stacked designs: `mbim_block`, `rzf_block`
  and `rzf_null_basis`, and `mbim_stack`, the mbim blocks of one beam
  range of a channel alone, from the design pass's inter-beam stage on
  that one design;
* `feed_gain`, the scalar path to the feed gain that
  `build_gain_matrix` computes for every user and feed at once,
  `off_axis_angle_deg`, the angle from ground coordinates behind it, and
  `slant_range_m`, the distance from the satellite to ground points;
* `excluding`, the other-beam rows whose Gram matrix the inter-beam
  designs decompose, and `reconstruct`, an eigendecomposition multiplied
  back out;
* `feed_powers` and `total_power` of a precoding matrix, which the power
  constraints bound;
* `bootstrap_mean_diff_quantiles`, the paired bootstrap behind the
  statistical acceptance criteria;
* `random_unitary`, for seeded test spectra.

The per-cell statistics of a Monte Carlo result (`trial_means`,
`mean_per_beam`, `std_per_beam`, one NumPy reduction per (scenario,
power) cell) and the `csv.writer` row loops behind `results_csv_per_cell`
and `curve_csv_per_cell` are the reference for the one-pass
`MonteCarloResult.statistics` and the one-string file writers.

The per-beam and per-feed loops of a trial's set-up are the reference
for their array passes: `validate_geometry_per_beam` (the layout check),
`build_gain_matrix_per_feed`, `select_per_beam` (the grouping),
`extract_users_per_beam`, `served_delta_per_beam` and
`from_delta_per_beam` (the error bounds), composed into
`trial_channels_per_beam` with `place_users_per_attempt`, the user
sampler that draws one rejection attempt per call. These loops take
their angles by `boresight_angle_deg`, one boresight per call, which
`geometry` once exported; the library takes every angle through
`geometry.off_axis_deg`.
"""

from __future__ import annotations

import csv
import io
import math
import warnings

import numpy as np

from satprecode import evaluate, geometry, linalg
from satprecode.channel import (
    BeamLayout,
    ChannelMatrix,
    LinkBudget,
    PerturbationBounds,
    PhaseModel,
    UserSet,
    assemble_channel,
    beam_contours,
    build_phase_matrix,
    pattern_gain,
    perturb_channel,
)
from satprecode.exceptions import (
    ConfigError,
    DegenerateBeamError,
    GeometryError,
    InfeasibleChannelError,
    SingularChannelError,
)
from satprecode.evaluate import beam_rate, sinr_matrix
from satprecode.gateway import GatewayPlan
from satprecode.linalg import RANK_TOL, EigDecomposition, eigh_sorted, gram_eigh
from satprecode.precoding import (
    BlockDesign,
    Precoder,
    _blocks,
    _columns,
    _interbeam_blocks,
    _power_vector,
    _raise_failure,
    _regularized_inverse,
    _right_divide_upper,
    _rzf_blocks,
    _unstack,
    baseline_four_color,
    intrabeam,
)
from satprecode.robust import eigen_shift_bound, robust_design

# The design failures the channel model can produce, which the public
# designs raise where the stacked pass sets a failure code. The oracles
# and the tests catch these; a Monte Carlo run skips a cell by the code
# alone, and any other exception, a LAPACK error among them, propagates.
MODELLED_FAILURES = (
    SingularChannelError,
    InfeasibleChannelError,
    DegenerateBeamError,
)

# First-order theory breaks down at eigenvalue crossings; coupler entries
# for pairs closer than this (relative to the largest eigenvalue) are zeroed.
DEGENERACY_FLOOR = 1e-8


class DegenerateSpectrumWarning(UserWarning):
    """A needed eigenvalue pair was too close; its coupling was zeroed."""


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


def mbim_stack(ch: ChannelMatrix, beams: range, p_total: float | np.ndarray,
               shift: float = 0.0) -> np.ndarray:
    """(B, N, Q) interference-mitigation blocks of the `beams` of `ch`
    ((P, B, N, Q) for a power vector), every beam's regularizer raised by
    `shift`, from one call of the inter-beam stage on that one design. A
    modelled failure raises, naming the first beam that fails."""
    design = BlockDesign(ch.h, beams, lambda lam_max: np.full_like(lam_max, shift))
    blocks, codes = _interbeam_blocks([design], ch.users_per_beam,
                                      _power_vector(p_total), gram_eigh)
    _raise_failure(codes, np.arange(beams.start, beams.stop),
                   (ch.feeds, ch.users_per_beam))
    return _unstack(p_total, blocks[:, 0])


def mbim_block(ch: ChannelMatrix, k: int, p_total: float | np.ndarray,
               shift: float = 0.0) -> np.ndarray:
    """Inter-beam block Wa_k (N x Q) of beam k alone; see `mbim_stack`."""
    return mbim_stack(ch, range(k, k + 1), p_total, shift)[..., 0, :, :]


def _null_bases(ch: ChannelMatrix, beams: range,
                inverse: np.ndarray) -> np.ndarray:
    """(P, B, KQ, Q) null-space bases of the consecutive `beams` from
    (P, KQ, KQ) inverses, one stacked QR; the identity for one beam."""
    if ch.beams == 1:
        eye = np.eye(ch.users_per_beam, dtype=complex)
        return np.broadcast_to(eye, (inverse.shape[0], 1, *eye.shape))
    basis, _ = np.linalg.qr(_blocks(inverse, ch.beams)[:, beams.start:beams.stop])
    return basis


def rzf_null_basis(ch: ChannelMatrix, k: int, p_total: float) -> np.ndarray:
    """Null-space basis (KQ x Q) behind the zero-forcing block of beam k.

    Removing beam k's Q rows from ``A = H H^H + (KQ/P_T) I`` leaves a
    matrix whose right null space is spanned by beam k's Q columns of
    ``A^-1``: ``A A^-1 = I`` is zero in those columns off beam k's rows.
    Their QR factor is the orthonormal basis. The columns are the ones
    `_rzf_blocks` factors (`rzf_factors_per_power`), a positive multiple of
    ``A^-1``'s, which span the same space.
    """
    rows = ch.h.shape[0]
    inverse = rzf_factors_per_power(ch, p_total, slice(0, rows))[0]
    return _null_bases(ch, range(k, k + 1), inverse[None])[0, 0]


def rzf_interbeam_lu(ch: ChannelMatrix, p_total: float | np.ndarray) -> np.ndarray:
    """All RZF blocks, N x KQ (P x N x KQ), from one LU inverse per power
    for any shape and the identity basis for one beam, as the library
    designed them before it took an eigendecomposition of the smaller
    Gram matrix for every shape."""
    reg = ch.beams * ch.users_per_beam / _power_vector(p_total)
    inverse = _regularized_inverse(ch.h, reg)
    blocks = ch.h.conj().T @ _null_bases(ch, range(ch.beams), inverse)
    return _unstack(p_total, _columns(blocks))


def rzf_block(ch: ChannelMatrix, k: int, p_total: float | np.ndarray) -> np.ndarray:
    """Inter-beam block (N x Q) of beam k alone; see `precoding._rzf_blocks`."""
    blocks = _rzf_blocks([ch.h], np.array([[k]]), ch.users_per_beam,
                         _power_vector(p_total), gram_eigh)
    return _unstack(p_total, blocks[:, 0])[..., 0, :, :]


def off_axis_angle_deg(sat_pos: np.ndarray, bore_lat, bore_lon,
                       target_lat, target_lon,
                       earth_radius_m: float) -> np.ndarray:
    """Angle at the satellite between the boresight direction and targets.

    Broadcasts over target arrays; the boresight is a single ground point.
    """
    return boresight_angle_deg(
        geometry.latlon_to_ecef(bore_lat, bore_lon, earth_radius_m) - sat_pos,
        geometry.latlon_to_ecef(target_lat, target_lon, earth_radius_m) - sat_pos,
    )


def excluding(ch: ChannelMatrix, k: int) -> np.ndarray:
    """(K-1)Q x N matrix of every beam's rows but beam k's."""
    return np.delete(ch.h, ch.beam_rows(k), axis=0)


def reconstruct(eig: EigDecomposition) -> np.ndarray:
    """``V diag(lambda) V^H``, for one decomposition or a stack."""
    v = eig.eigenvectors
    return (v * eig.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


def feed_powers(w: np.ndarray) -> np.ndarray:
    """Diagonal of ``W W^H``: the power each feed radiates, (..., N)."""
    return np.real(np.einsum("...nk,...nk->...n", w, w.conj()))


def total_power(w: np.ndarray) -> float | np.ndarray:
    """Trace of ``W W^H``; a float for one matrix, (P,) for a stack."""
    return np.sum(np.abs(w) ** 2, axis=(-2, -1))[()]


def bootstrap_mean_diff_quantiles(a: np.ndarray, b: np.ndarray,
                                  quantiles=(0.05, 0.95), n_boot: int = 2000,
                                  seed: int = 0) -> np.ndarray:
    """Paired bootstrap quantiles of mean(a - b) over trials.

    Rows where either input is NaN are dropped jointly, keeping the
    pairing intact.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ok = ~(np.isnan(a) | np.isnan(b))
    diff = a[ok] - b[ok]
    if diff.size == 0:
        raise ConfigError("no jointly valid trials to bootstrap")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, diff.size, size=(n_boot, diff.size))
    means = diff[idx].mean(axis=1)
    return np.quantile(means, quantiles)


def cell_throughput(result, scenario: str, p_dbw: float) -> np.ndarray:
    """The (T, K) throughput rows of one (scenario, power) cell."""
    return result.throughput[result.scenarios.index(scenario),
                             result.power_dbw.index(p_dbw)]


def cell_skipped(result, scenario: str, p_dbw: float) -> int:
    """How many trials of one (scenario, power) cell were skipped."""
    return int(result.skipped[result.scenarios.index(scenario),
                              result.power_dbw.index(p_dbw)])


def trial_means(result, scenario: str, p_dbw: float) -> np.ndarray:
    """Per-trial mean over beams (NaN where the trial was skipped)."""
    arr = cell_throughput(result, scenario, p_dbw)
    valid = ~np.all(np.isnan(arr), axis=1)
    out = np.full(arr.shape[0], np.nan)
    if np.any(valid):
        out[valid] = np.nanmean(arr[valid], axis=1)
    return out


def mean_per_beam(result, scenario: str, p_dbw: float) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.nanmean(cell_throughput(result, scenario, p_dbw), axis=0)


def std_per_beam(result, scenario: str, p_dbw: float) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.nanstd(cell_throughput(result, scenario, p_dbw), axis=0)


def results_csv_per_cell(result, header_lines=()) -> str:
    """`results.csv` of a Monte Carlo result, one cell and row at a time."""
    fh = io.StringIO(newline="")
    for line in header_lines:
        fh.write(f"# {line}\n")
    writer = csv.writer(fh)
    writer.writerow(
        ["scenario", "p_total_dbw", "beam", "mean_throughput_bps",
         "std_throughput_bps", "trials", "skipped"]
    )
    for name in result.scenarios:
        for p in result.power_dbw:
            skipped = cell_skipped(result, name, p)
            used = result.trials - skipped
            if used > 0:
                mean = mean_per_beam(result, name, p)
                std = std_per_beam(result, name, p)
            else:
                mean = std = np.full(result.beams, np.nan)
            for k in range(result.beams):
                writer.writerow(
                    [name, f"{float(p)!r}", k, f"{float(mean[k])!r}",
                     f"{float(std[k])!r}", used, skipped]
                )
    return fh.getvalue()


def curve_csv_per_cell(result, scenario: str) -> str:
    """`curve_<scenario>.csv`: mean and std over the surviving trials'
    beam-mean throughput at each power, one cell at a time."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["p_total_dbw", "mean_throughput_bps", "std_throughput_bps"])
    for p in result.power_dbw:
        means = trial_means(result, scenario, p)
        valid = means[~np.isnan(means)]
        mean = valid.mean() if valid.size else float("nan")
        std = valid.std() if valid.size else float("nan")
        writer.writerow([f"{float(p)!r}", f"{float(mean)!r}", f"{float(std)!r}"])
    return fh.getvalue()


def feed_gain(feed_boresight, user_position, layout: BeamLayout,
              budget: LinkBudget):
    """Feed radiation pattern gain toward a user (linear, power-like).

    Tapered-aperture model: peak ``k_a**2`` at boresight, exactly 3 dB
    down at the beam radius, Airy-type sidelobes beyond the first null.
    Defined for every angle; scalars or arrays of positions are accepted.
    """
    sat = budget.satellite_position()
    bore = np.asarray(feed_boresight, dtype=float)
    user = np.asarray(user_position, dtype=float)
    theta = off_axis_angle_deg(
        sat, bore[0], bore[1], user[..., 0], user[..., 1], budget.earth_radius_m
    )
    return pattern_gain(theta, layout.beam_radius_3db_deg)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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


def rzf_null_basis_svd(ch: ChannelMatrix, k: int, p_total: float) -> np.ndarray:
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
    return np.hstack([ch.h.conj().T @ rzf_null_basis_svd(ch, k, p_total)
                      for k in range(ch.beams)])


def _shift(ch: ChannelMatrix, k: int, bounds: PerturbationBounds) -> float:
    """epsilon_k with the spectral norm taken by SVD."""
    other = excluding(ch, k)
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
    other = excluding(ch, k)
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
                     gamma_lower_k: np.ndarray, p_total: float,
                     mode: str = "per_feed") -> Precoder:
    """Robust inter-beam stage followed by the robust intra-beam stage.

    `gamma_lower_k` is a per-beam lower bound on the perturbation energy,
    which sets the intra-beam penalty.
    """
    if bounds.beams != ch.beams:
        raise ConfigError("bounds and channel disagree on the number of beams")
    k_beams = ch.beams
    q = ch.users_per_beam
    wa = np.hstack(
        [robust_interbeam_block(ch, k, bounds, p_total) for k in range(k_beams)]
    )
    wb = np.zeros((k_beams * q, k_beams), dtype=complex)
    for k in range(k_beams):
        other = excluding(ch, k)
        lam = eigh_sorted(other.conj().T @ other).eigenvalues
        nu = intra_penalty_scale(
            float(gamma_lower_k[k]), lam, _shift(ch, k, bounds)
        )
        z = ch.beam(k) @ wa[:, k * q:(k + 1) * q]
        wb[k * q:(k + 1) * q, k] = robust_intrabeam(z, nu)
    w_bar = wa @ wb
    alpha = power_control_per_power(w_bar, p_total, mode)
    return Precoder(w=alpha * w_bar, alpha=alpha, power_mode=mode, wa=wa, wb=wb)


def ground_halfwidth_deg(sat: np.ndarray, lat0: float, lon0: float,
                         radius_deg: float, earth_radius_m: float) -> float:
    """Half-width (ground degrees) of a box certain to cover the contour."""
    if radius_deg <= 0.0:
        raise GeometryError("beam radius must be strictly positive")
    step = 1e-3
    for _ in range(40):
        a_lat = off_axis_angle_deg(
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

def other_gram_eig_per_beam(ch: ChannelMatrix, k: int) -> EigDecomposition:
    """Dense eigendecomposition of beam k's other-beam Gram matrix, the
    reference for the downdated spectra (`linalg.downdated_tails`)."""
    other = excluding(ch, k)
    return eigh_sorted(other.conj().T @ other)


def other_gram_tails(ch: ChannelMatrix, beams: range) -> tuple:
    """The trimmed spectra the library designs the consecutive `beams`
    from (`linalg.other_gram_tails`): the downdate for a range at or
    above the crossover, one stacked dense call below it."""
    ids = np.arange(beams.start, beams.stop)
    return tuple(a[0] for a in linalg.other_gram_tails(
        ch.h[None], ids[None], ch.users_per_beam, lambda c: gram_eigh(ch.h)))


def build_phase_matrix_exp(model: PhaseModel, rows: int,
                           feeds: int) -> np.ndarray:
    """The phase matrix as ``np.exp(1j * theta)``, with its complex
    temporary: the expression `build_phase_matrix` replaced."""
    rng = np.random.default_rng(model.rng_seed)
    if model.variant == "uniform":
        theta = rng.uniform(0.0, 2.0 * math.pi, (rows, feeds))
    else:
        phi = rng.uniform(0.0, 2.0 * math.pi, (rows, 1))
        spread = rng.normal(0.0, math.radians(model.chi_deg), (rows, feeds))
        theta = phi + spread
    return np.exp(1j * theta)


def intrabeam_per_beam(z: np.ndarray) -> np.ndarray:
    """Unit vector maximizing ``||Z w||`` (leading right singular vector)."""
    z = np.asarray(z)
    if not np.any(z):
        raise DegenerateBeamError("effective intra-beam channel is zero")
    _, _, vh = np.linalg.svd(z)
    return vh[0].conj()


def beam_vector_per_beam(ch: ChannelMatrix, k: int, wa_k: np.ndarray) -> np.ndarray:
    """Beam k's intra-beam vector through its inter-beam block `wa_k`; a
    zero effective channel raises naming the beam, as the library does."""
    try:
        return intrabeam_per_beam(ch.beam(k) @ wa_k)
    except DegenerateBeamError as exc:
        raise DegenerateBeamError(f"beam {k}: {exc}") from None


def mbim_block_per_beam(ch: ChannelMatrix, k: int, p_total: float,
                        shift: float = 0.0, tails: tuple | None = None
                        ) -> np.ndarray:
    """Inter-beam block Wa_k of the interference-mitigation design, from
    beam k's trimmed spectrum `tails` (by default its dense one)."""
    n = ch.feeds
    q = ch.users_per_beam
    if q > n:
        raise InfeasibleChannelError(
            f"cannot build an {n} x {q} inter-beam block with fewer feeds "
            "than served users"
        )
    if ch.beams == 1:
        return np.sqrt(p_total / (ch.beams * q)) * np.eye(n, q, dtype=complex)
    if tails is None:
        tails = [a[0] for a in other_gram_tails(ch, range(k, k + 1))]
    lam_max, lam, tail = tails
    if shift == 0.0 and lam[-1] <= RANK_TOL * max(lam_max, 0.0):
        raise SingularChannelError(
            f"cross-channel Gram matrix of beam {k} is rank deficient"
        )
    scale = 1.0 / np.sqrt(lam + regularizer_per_power(ch, p_total) + shift)
    return tail * scale


def mbim_interbeam_per_beam(ch: ChannelMatrix, p_total: float) -> np.ndarray:
    """All inter-beam blocks, horizontally stacked to N x KQ, from the
    spectra the library takes for the whole range."""
    tails = other_gram_tails(ch, range(ch.beams))
    return np.hstack(
        [mbim_block_per_beam(ch, k, p_total, tails=[a[k] for a in tails])
         for k in range(ch.beams)]
    )


def robust_interbeam_per_beam(ch: ChannelMatrix, bounds: PerturbationBounds,
                              p_total: float) -> np.ndarray:
    """All robust inter-beam blocks: mbim blocks shifted by epsilon_k."""
    if bounds.beams != ch.beams:
        raise ConfigError("bounds and channel disagree on the number of beams")
    tails = other_gram_tails(ch, range(ch.beams))
    shifts = robust_design(ch, bounds).shifts(tails[0])
    return np.hstack(
        [mbim_block_per_beam(ch, k, p_total, shift=shifts[k],
                             tails=[a[k] for a in tails])
         for k in range(ch.beams)]
    )


def rzf_stack_per_beam(ch: ChannelMatrix, beams: range,
                       p_total: float) -> np.ndarray:
    """`_rzf_blocks` at one power: one QR and one triangular division per
    beam, and the identity basis for one beam."""
    if ch.beams == 1:
        return ch.h.conj().T[None]
    q = ch.users_per_beam
    scaled, image = rzf_factors_per_power(
        ch, p_total, slice(q * beams.start, q * beams.stop))
    blocks = []
    for i in range(len(beams)):
        cols = slice(q * i, q * (i + 1))
        tri = np.linalg.qr(scaled[:, cols], mode="r")
        blocks.append(_right_divide_upper(image[:, cols], tri))
    return np.stack(blocks)


def rzf_interbeam_per_beam(ch: ChannelMatrix, p_total: float) -> np.ndarray:
    """All RZF blocks from one QR and one triangular division per beam."""
    return np.hstack(list(rzf_stack_per_beam(ch, range(ch.beams), p_total)))


def assemble_per_beam(ch: ChannelMatrix, wa: np.ndarray, p_total: float,
                      mode: str = "per_feed") -> Precoder:
    """Intra-beam stage (one SVD per beam), power normalization, assembly."""
    k_beams = ch.beams
    q = ch.users_per_beam
    wb = np.zeros((k_beams, q), dtype=complex)
    w_bar = np.zeros((ch.feeds, k_beams), dtype=complex)
    for k in range(k_beams):
        wa_k = wa[:, k * q:(k + 1) * q]
        wb[k] = beam_vector_per_beam(ch, k, wa_k)
        w_bar[:, k] = wa_k @ wb[k]
    alpha = power_control_per_power(w_bar, p_total, mode)
    return Precoder(w=alpha * w_bar, alpha=alpha, power_mode=mode, wa=wa, wb=wb)


def beam_average_per_beam(ch: ChannelMatrix) -> np.ndarray:
    """K x N matrix of per-beam user-row averages."""
    return np.array([ch.beam(k).mean(axis=0) for k in range(ch.beams)])


def four_color_precoder_per_beam(layout: BeamLayout, p_total: float) -> Precoder:
    """Each beam driven by its own feeds at equal power P_T/N."""
    n = layout.feeds
    w = np.zeros((n, layout.beams), dtype=complex)
    amp = np.sqrt(p_total / n)
    f = layout.feeds_per_beam
    for k in range(layout.beams):
        w[k * f:(k + 1) * f, k] = amp
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


def assemble_multigateway_per_beam(views: list[np.ndarray],
                                   plan: GatewayPlan, p_total: float,
                                   mode: str = "per_feed") -> Precoder:
    """Block-diagonal multi-gateway precoder at one power, one gateway at
    a time and, within a gateway, stage by stage: the inter-beam blocks of
    all its own beams, from the spectra the library takes for that range
    of its view, then their intra-beam vectors, one beam at a time. The
    first gateway whose design fails raises ``gateway g: ...``, with the
    failure of its first failing beam in its earliest failing stage as
    the cause."""
    w_bar = np.zeros((plan.feeds, plan.beams), dtype=complex)
    for g, view in enumerate(views):
        eff = ChannelMatrix(h=view, beams=plan.beams,
                            users_per_beam=plan.users_per_beam)
        beams = range(*plan.beam_offsets[g:g + 2])
        tails = other_gram_tails(eff, beams)
        try:
            blocks = [mbim_block_per_beam(eff, k, p_total,
                                          tails=[a[i] for a in tails])
                      for i, k in enumerate(beams)]
            for k, wa_k in zip(beams, blocks):
                w_bar[plan.feed_slice(g), k] = wa_k @ beam_vector_per_beam(
                    eff, k, wa_k)
        except MODELLED_FAILURES as exc:
            raise type(exc)(f"gateway {g}: {exc}") from exc
    alpha = power_control_per_power(w_bar, p_total, mode)
    return Precoder(w=alpha * w_bar, alpha=alpha, power_mode=mode)


def boresight_angle_deg_cross(bore: np.ndarray, targ: np.ndarray) -> np.ndarray:
    """Off-axis angle with the rejection taken by `np.cross`."""
    bu = bore / np.linalg.norm(bore)
    sin_part = np.linalg.norm(np.cross(targ, bu), axis=-1)
    cos_part = targ @ bu
    return np.degrees(np.arctan2(sin_part, cos_part))


# One-power bodies of the designs that have no loop over beams (the
# averaging baseline and the power control), of the rzf factors behind
# `rzf_interbeam_per_beam`, and of the SINR map.

def regularizer_per_power(ch: ChannelMatrix, p_total: float) -> float:
    return ch.beams * ch.users_per_beam / p_total


def rzf_factors_per_power(ch: ChannelMatrix, p_total: float,
                          columns: slice) -> tuple:
    """``c A^-1`` and ``H^H A^-1`` in `columns` at one power, with
    ``A = H H^H + r I``: with more rows than feeds from the
    eigendecomposition of ``H^H H`` (push-through, c = r), otherwise from
    that of ``H H^H`` (c = 1)."""
    reg = regularizer_per_power(ch, p_total)
    h = ch.h
    if h.shape[0] > ch.feeds:
        eig = eigh_sorted(h.conj().T @ h)
        y = h @ eig.eigenvectors
        damp = 1.0 / (eig.eigenvalues + reg)
        tail = y[columns].conj().T
        scaled = -(y * damp) @ tail
        own = np.arange(scaled.shape[-1])
        scaled[own + columns.start, own] += 1.0
        return scaled, (eig.eigenvectors * damp) @ tail
    eig = eigh_sorted(h @ h.conj().T)
    damp = 1.0 / (eig.eigenvalues + reg)
    tail = eig.eigenvectors[columns].conj().T
    return ((eig.eigenvectors * damp) @ tail,
            ((h.conj().T @ eig.eigenvectors) * damp) @ tail)


def power_control_per_power(w_unscaled: np.ndarray, p_total: float,
                            mode: str) -> float:
    if mode not in ("per_feed", "total"):
        raise ConfigError(f"power mode must be one of ('per_feed', 'total'), "
                          f"got {mode!r}")
    w = np.asarray(w_unscaled)
    if not np.any(w):
        raise ConfigError("cannot scale an all-zero precoder")
    if mode == "per_feed":
        peak = float(np.max(np.sum(np.abs(w) ** 2, axis=1)))
        return float(np.sqrt(p_total / (w.shape[0] * peak)))
    return float(np.sqrt(p_total / np.sum(np.abs(w) ** 2)))


def baseline_avg_mmse_per_power(ch: ChannelMatrix, p_total: float,
                                mode: str = "per_feed") -> Precoder:
    k_beams = ch.beams
    h_bar = ch.beam_blocks().mean(axis=1)
    gram = h_bar @ h_bar.conj().T + regularizer_per_power(ch, p_total) * np.eye(
        k_beams, dtype=complex
    )
    w_bar = h_bar.conj().T @ np.linalg.inv(gram)
    alpha = power_control_per_power(w_bar, p_total, mode)
    return Precoder(w=alpha * w_bar, alpha=alpha, power_mode=mode)


def sinr_matrix_per_power(ch: ChannelMatrix, w: np.ndarray) -> np.ndarray:
    """(K, Q) linear SINRs under one (N, K) precoder."""
    amps = np.abs(ch.h @ w) ** 2                     # (KQ, K)
    beam_of_row = np.repeat(np.arange(ch.beams), ch.users_per_beam)
    signal = amps[np.arange(amps.shape[0]), beam_of_row]
    interference = amps.sum(axis=1) - signal
    return (signal / (interference + 1.0)).reshape(ch.beams, ch.users_per_beam)


# The per-cell reference of a Monte Carlo trial: each cell designed on its
# own, skipped where its design raises a modelled failure. The run reads
# its skipped cells from the stacked design pass's failure codes instead.

def run_batch_per_cell(trial_seeds, cfg, layout: BeamLayout, budget: LinkBudget,
                       table, plans: dict, p_w: np.ndarray,
                       contours: tuple) -> np.ndarray:
    """`evaluate._run_batch`, a batch of consecutive trials, as each trial
    alone (`run_trial_per_cell`): an (S, P, T, K) array of beam rates."""
    return np.stack([run_trial_per_cell(seed, cfg, layout, budget, table,
                                        plans, p_w, contours)
                     for seed in trial_seeds], axis=2)


def run_trial_per_cell(trial_seed, cfg, layout: BeamLayout, budget: LinkBudget,
                       table, plans: dict, p_w: np.ndarray,
                       contours: tuple) -> np.ndarray:
    """One trial of `evaluate._run_batch` with every (scenario, power) cell
    designed by its oracle at that one power (four_color by
    `baseline_four_color`, which the run calls outside the stacked pass):
    an (S, P, K) array of beam rates, NaN where the design raised a
    modelled failure. The run designs a whole batch of trials in one pass;
    this designs one trial, and each of its cells, on its own.

    The channels and views come through `satprecode.evaluate`, the
    channels as a one-trial batch, so a test that patches
    `_batch_channels` or `share_csi` there patches them here.
    """
    (ch_true, ch_est, bounds), = evaluate._batch_channels(
        [trial_seed], cfg, layout, budget, contours)
    out = np.full((len(cfg.scenarios), p_w.size, cfg.beams), np.nan)
    for s, name in enumerate(cfg.scenarios):
        views = evaluate.share_csi(ch_est, plans[name]) if name in plans else None
        for i, p in enumerate(p_w.tolist()):
            try:
                sinrs, factor = _scenario_sinrs_at(name, ch_true, ch_est, bounds,
                                                   p, cfg, layout, plans, views)
            except MODELLED_FAILURES:
                continue
            out[s, i] = beam_rate(sinrs, table, budget, factor)
    return out


def _scenario_sinrs_at(name: str, ch_true: ChannelMatrix, ch_est: ChannelMatrix,
                       bounds: PerturbationBounds, p: float, cfg, layout: BeamLayout,
                       plans: dict, views) -> tuple:
    """Scenario `name`'s (K, Q) SINRs at the one power `p`, and its band
    factor."""
    if name == "four_color":
        return baseline_four_color(ch_true, layout, p), 0.25
    mode = cfg.power_mode
    if name == "avg_mmse":
        pre = baseline_avg_mmse_per_power(ch_est, p, mode)
    elif name in plans:
        pre = assemble_multigateway_per_beam(views, plans[name], p, mode)
    elif name == "robust":
        pre = assemble_per_beam(
            ch_est, robust_interbeam_per_beam(ch_est, bounds, p), p, mode)
    else:
        interbeam = (mbim_interbeam_per_beam if name == "mbim"
                     else rzf_interbeam_per_beam)
        pre = assemble_per_beam(ch_est, interbeam(ch_est, p), p, mode)
    return sinr_matrix(ch_true, pre.w), 1.0


# Per-beam and per-feed loops of the layout check, the gain matrix, the
# grouping, the extraction and the error bounds. The library now runs each
# as one array pass.

def validate_geometry_per_beam(layout: BeamLayout, budget: LinkBudget) -> None:
    """`BeamLayout.validate_geometry` with one `boresight_angle_deg` call
    per beam: the separations of beam k to every center, then its first
    clash."""
    sat = budget.satellite_position()
    centers = layout.beam_centers
    elev = geometry.elevation_deg(sat, centers[:, 0], centers[:, 1],
                                  budget.earth_radius_m)
    if np.any(elev <= 0.0):
        raise GeometryError(f"beam {int(np.argmin(elev))} center is below the horizon")
    to_center = geometry.latlon_to_ecef(centers[:, 0], centers[:, 1],
                                        budget.earth_radius_m) - sat
    colors = layout.color_of_beam
    for k in range(layout.beams):
        sep = boresight_angle_deg(to_center[k], to_center)
        close = ((sep < 2.0 * layout.beam_radius_3db_deg)
                 & (np.arange(layout.beams) != k))
        clash = close & (colors == colors[k])
        if np.any(clash):
            raise ConfigError(
                f"beams {k} and {int(np.nonzero(clash)[0][0])} are closer than "
                "twice the beam radius but share a color"
            )


def slant_range_m(sat_pos: np.ndarray, lat_deg, lon_deg,
                  earth_radius_m: float) -> np.ndarray:
    """Distance from the satellite to ground points, in meters."""
    ground = geometry.latlon_to_ecef(lat_deg, lon_deg, earth_radius_m)
    d = np.linalg.norm(ground - sat_pos, axis=-1)
    if np.any(d <= 0.0):
        raise GeometryError("nonpositive slant range")
    return d


def build_gain_matrix_per_feed(layout: BeamLayout, users,
                               budget: LinkBudget) -> np.ndarray:
    """`build_gain_matrix` with each feed's boresight converted on its own
    and its angles taken by `boresight_angle_deg`, and the slant
    ranges from a second conversion of the users (`slant_range_m`)."""
    sat = budget.satellite_position()
    flat = users.flat_positions()
    d = slant_range_m(sat, flat[:, 0], flat[:, 1], budget.earth_radius_m)
    g_r = 10.0 ** (budget.user_antenna_gain_db / 20.0)
    denom = 4.0 * math.pi * (d / budget.wavelength_m) * budget.noise_amplitude
    targ = geometry.latlon_to_ecef(flat[:, 0], flat[:, 1],
                                   budget.earth_radius_m) - sat
    gains = np.empty((flat.shape[0], layout.feeds))
    for n, (lat, lon) in enumerate(layout.feed_boresights):
        bore = geometry.latlon_to_ecef(lat, lon, budget.earth_radius_m) - sat
        gains[:, n] = pattern_gain(boresight_angle_deg(bore, targ),
                                   layout.beam_radius_3db_deg)
    return g_r * np.sqrt(gains) / denom[:, None]


def select_per_beam(pool: ChannelMatrix, q_served: int, rng_seed,
                    penalties: np.ndarray | None = None) -> np.ndarray:
    """`grouping._select` one beam at a time: draw the seed, score the
    beam's pool, sort."""
    candidates = pool.users_per_beam
    rng = np.random.default_rng(rng_seed)
    members = np.empty((pool.beams, q_served), dtype=int)
    for k in range(pool.beams):
        seed = int(rng.integers(candidates))
        rows = pool.beam(k)
        score = np.sum(np.abs(rows - rows[seed]) ** 2, axis=1)
        if penalties is not None:
            score = score + penalties[k]
        score[seed] = np.inf
        members[k, 0] = seed
        members[k, 1:] = np.sort(np.argsort(score, kind="stable")[: q_served - 1])
    return members


def select_uniform_per_beam(pool: ChannelMatrix, q_served: int,
                            rng_seed) -> np.ndarray:
    """The ``grouping = none`` members: q_served pool users per beam drawn
    without replacement, sorted, one beam at a time, whatever the pool
    size."""
    rng = np.random.default_rng(rng_seed)
    return np.array([np.sort(rng.choice(pool.users_per_beam, size=q_served,
                                        replace=False))
                     for _ in range(pool.beams)])


def extract_users_per_beam(pool: ChannelMatrix, members: np.ndarray) -> ChannelMatrix:
    """`extract_users` as one row gather per beam, stacked."""
    rows = [pool.beam(k)[members[k]] for k in range(pool.beams)]
    return ChannelMatrix(h=np.vstack(rows), beams=pool.beams,
                         users_per_beam=members.shape[1])


def served_delta_per_beam(delta_pool: np.ndarray, members: np.ndarray,
                          pool_per_beam: int) -> np.ndarray:
    """The served users' rows of a pool perturbation, one beam at a time."""
    return np.vstack([delta_pool[k * pool_per_beam + members[k]]
                      for k in range(members.shape[0])])


def from_delta_per_beam(delta: np.ndarray, beams: int,
                        users_per_beam: int) -> PerturbationBounds:
    """`PerturbationBounds.from_delta` with one sum per beam and each
    complement formed literally by `np.delete`."""
    q = users_per_beam
    gamma_k = np.array(
        [np.sum(np.abs(delta[k * q:(k + 1) * q]) ** 2) for k in range(beams)]
    )
    gamma_tilde = np.array([np.sum(np.delete(gamma_k, k)) for k in range(beams)])
    return PerturbationBounds(gamma_k=gamma_k, gamma_tilde_k=gamma_tilde)


def boresight_angle_deg(bore: np.ndarray, targ: np.ndarray) -> np.ndarray:
    """Angle between one boresight vector (3,) and target vectors (..., 3).

    Both vectors point from the satellite to the ground, so callers that
    test many boresights against the same targets convert the targets
    once.
    """
    bu = bore / np.linalg.norm(bore)
    # atan2 of the rejection/projection pair stays accurate at tiny angles,
    # where arccos of a rounded dot product does not. The cross product
    # targ x bu is filled component by component: the same arithmetic as
    # np.cross without its broadcasting set-up.
    cross = np.empty(np.shape(targ))
    cross[..., 0] = targ[..., 1] * bu[2] - targ[..., 2] * bu[1]
    cross[..., 1] = targ[..., 2] * bu[0] - targ[..., 0] * bu[2]
    cross[..., 2] = targ[..., 0] * bu[1] - targ[..., 1] * bu[0]
    sin_part = np.linalg.norm(cross, axis=-1)
    cos_part = targ @ bu
    return np.degrees(np.arctan2(sin_part, cos_part))


def place_users_per_attempt(layout: BeamLayout, q_sched: int, rng_seed,
                            budget: LinkBudget | None = None,
                            contours: tuple | None = None):
    """`place_users` with one uniform call per coordinate and one
    `boresight_angle_deg` call per rejection attempt, the stream contract
    as written."""
    if q_sched < 1:
        raise ConfigError("q_sched must be >= 1")
    budget = budget or LinkBudget()
    sat = budget.satellite_position()
    rng = np.random.default_rng(rng_seed)
    radius = layout.beam_radius_3db_deg
    if contours is None:
        contours = beam_contours(layout, budget)
    halfwidths, bores = contours
    positions = np.empty((layout.beams, q_sched, 2))
    for k in range(layout.beams):
        lat0, lon0 = layout.beam_centers[k]
        half = halfwidths[k]
        cos_lat = math.cos(math.radians(lat0))
        if cos_lat <= 0.0:
            raise GeometryError(f"beam {k} center at the pole is unsupported")
        bore = bores[k]
        got = 0
        attempts = 0
        while got < q_sched:
            attempts += 1
            if attempts > 200:
                raise GeometryError(
                    f"beam {k} contour accepts no samples (degenerate contour?)"
                )
            n_draw = max(4 * (q_sched - got), 16)
            lat = lat0 + rng.uniform(-half, half, n_draw)
            lon = lon0 + rng.uniform(-half, half, n_draw) / cos_lat
            ang = boresight_angle_deg(
                bore, geometry.latlon_to_ecef(lat, lon, budget.earth_radius_m) - sat
            )
            ok = ang <= radius
            take = min(int(np.count_nonzero(ok)), q_sched - got)
            if take:
                idx = np.nonzero(ok)[0][:take]
                positions[k, got:got + take, 0] = lat[idx]
                positions[k, got:got + take, 1] = lon[idx]
                got += take
    return UserSet(positions=positions)


def trial_channels_per_beam(trial_seed, cfg, layout: BeamLayout,
                            budget: LinkBudget, contours: tuple) -> tuple:
    """One trial of `evaluate._batch_channels` through the per-beam and
    per-feed loops above, extracting the estimate separately even with
    perfect CSI."""
    users_seed, phase_seed, perturb_seed, select_seed = trial_seed.spawn(4)
    users = place_users_per_attempt(layout, cfg.pool_per_beam, users_seed,
                                    budget=budget, contours=contours)
    gain = build_gain_matrix_per_feed(layout, users, budget)
    phase = build_phase_matrix(
        PhaseModel(variant=cfg.phase_model, chi_deg=cfg.phase_sigma_deg,
                   rng_seed=phase_seed), *gain.shape)
    pool_true = assemble_channel(gain, phase, cfg.beams, cfg.pool_per_beam)
    gamma_user = None
    pool_est, delta_pool = pool_true, None
    if cfg.csi_error_ratio > 0.0:
        pool_est, delta_pool = perturb_channel(pool_true, cfg.csi_error_ratio,
                                               perturb_seed)
        gamma_user = (np.sum(np.abs(delta_pool) ** 2, axis=1)
                      .reshape(cfg.beams, cfg.pool_per_beam))
    q = cfg.users_per_beam
    if cfg.grouping == "nominal":
        members = select_per_beam(pool_est, q, select_seed)
    elif cfg.grouping == "robust":
        if gamma_user is None:
            gamma_user = np.zeros((cfg.beams, cfg.pool_per_beam))
        members = select_per_beam(pool_est, q, select_seed, gamma_user)
    else:
        members = select_uniform_per_beam(pool_est, q, select_seed)
    ch_true = extract_users_per_beam(pool_true, members)
    ch_est = extract_users_per_beam(pool_est, members)
    if delta_pool is None:
        return ch_true, ch_est, PerturbationBounds.zero(cfg.beams)
    delta = served_delta_per_beam(delta_pool, members, cfg.pool_per_beam)
    return ch_true, ch_est, from_delta_per_beam(delta, cfg.beams, q)

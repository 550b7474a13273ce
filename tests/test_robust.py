import warnings

import numpy as np
import pytest

import satprecode.linalg
import satprecode.precoding
from satprecode.channel import PerturbationBounds
from satprecode.evaluate import sinr_matrix
from satprecode.exceptions import ConfigError, InfeasibleChannelError
from satprecode.linalg import eigh_sorted
from satprecode.precoding import intrabeam, mbim_interbeam, two_stage
from satprecode.robust import eigen_shift_bound, robust_interbeam, robust_two_stage

import oracles
from conftest import acceptance_corpus, perturbed, random_channel
from oracles import (
    DegenerateSpectrumWarning,
    coupling_matrix,
    first_order_eigvecs,
    intra_penalty_scale,
    random_unitary,
    robust_intrabeam,
    weyl_upper_bound,
)


def spread_hermitian(n, seed, spectrum=None):
    """Hermitian matrix with a well-separated, seeded spectrum."""
    rng = np.random.default_rng(seed)
    lam = np.asarray(spectrum if spectrum is not None
                     else np.arange(n, 0, -1) * 1.5 + rng.uniform(0, 0.2, n))
    v = random_unitary(n, rng)
    return (v * lam) @ v.conj().T


class TestEigenShiftBound:
    def test_zero_uncertainty_gives_zero(self):
        lam_max = np.linalg.norm(np.ones((3, 3)), 2) ** 2
        assert eigen_shift_bound(0.0, lam_max) == 0.0

    def test_hand_case(self):
        # Cross-Gram with largest eigenvalue four: diag(2, 1) rows.
        h_other = np.diag([2.0, 1.0]).astype(complex)
        lam_max = np.linalg.norm(h_other, 2) ** 2
        assert eigen_shift_bound(1.0, lam_max) == pytest.approx(9.0, rel=1e-12)
        # Larger inter-beam uncertainty can only raise the shift bound.
        assert eigen_shift_bound(4.0, lam_max) > eigen_shift_bound(1.0, lam_max)

    def test_bounds_gram_perturbation_spectral_norm(self):
        # Monte Carlo validity: for every error with Frobenius norm at
        # most gamma_hat, the Gram perturbation stays below the bound.
        rng = np.random.default_rng(3)
        h_other = 3.0 * (rng.standard_normal((6, 4))
                         + 1j * rng.standard_normal((6, 4)))
        gamma_hat = 2.0
        eps = eigen_shift_bound(gamma_hat, np.linalg.norm(h_other, 2) ** 2)
        for _ in range(1000):
            d = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
            d *= gamma_hat * rng.uniform() / np.linalg.norm(d)
            dk = (d.conj().T @ h_other + h_other.conj().T @ d
                  + d.conj().T @ d)
            assert np.linalg.norm(dk, 2) <= eps

    def test_negative_uncertainty_rejected(self):
        with pytest.raises(ConfigError):
            eigen_shift_bound(-1.0, np.linalg.norm(np.ones((2, 2)), 2) ** 2)


class TestWeyl:
    def test_zero_shift_returns_spectrum(self):
        lam = np.array([5.0, 2.0, 1.0])
        assert np.array_equal(weyl_upper_bound(lam, 0.0), lam)

    def test_scalar_case_tight(self):
        assert weyl_upper_bound(np.array([2.0]), 1.0)[0] == 3.0
        # True perturbed eigenvalue of [2] + [1] equals the bound.
        assert np.linalg.eigvalsh(np.array([[3.0]]))[0] <= 3.0

    def test_random_trials_never_violate(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
            gram = x.conj().T @ x
            lam = np.linalg.eigvalsh(gram)[::-1]
            e = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            e = (e + e.conj().T) / 2
            eps = np.linalg.norm(e, 2)
            perturbed = np.linalg.eigvalsh(gram + e)[::-1]
            assert np.all(perturbed <= weyl_upper_bound(lam, eps) + 1e-10)


class TestIntraPenalty:
    def test_zero_lower_bound_gives_zero(self):
        assert intra_penalty_scale(0.0, np.array([3.0, 0.0]), 0.0) == 0.0

    def test_hand_case(self):
        # (3 + 1)^-1/2 + (0 + 1)^-1/2 = 1.5, times lower bound 2.
        nu = intra_penalty_scale(2.0, np.array([3.0, 0.0]), 1.0)
        assert nu == 3.0

    def test_monotone_nonincreasing_in_shift(self):
        lam = np.array([4.0, 2.0, 0.5])
        values = [intra_penalty_scale(1.5, lam, e) for e in np.linspace(0, 10, 25)]
        assert np.all(np.diff(values) <= 0.0)


class TestCouplers:
    def test_zero_diagonal_and_antisymmetry(self):
        lam = np.array([5.0, 3.0, 1.0])
        d = coupling_matrix(lam)
        assert np.all(np.diag(d) == 0.0)
        assert np.allclose(d, -d.T, atol=0)
        assert d[0, 1] == pytest.approx(1.0 / (lam[1] - lam[0]), rel=1e-14)

    def test_degenerate_pairs_zeroed(self):
        lam = np.array([5.0, 1.0, 1.0 + 1e-12])
        d = coupling_matrix(lam)
        assert d[1, 2] == 0.0 and d[2, 1] == 0.0
        assert d[0, 1] != 0.0

    def test_warning_on_zeroed_pair(self):
        with pytest.warns(DegenerateSpectrumWarning):
            coupling_matrix(np.array([2.0, 1.0, 1.0]), warn=True)


class TestFirstOrderModel:
    def test_error_shrinks_quadratically(self):
        # Exact eigendecomposition oracle: the model residual ratio at
        # delta vs delta/2 approaches four.
        a = spread_hermitian(6, seed=4)
        rng = np.random.default_rng(5)
        e = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        e = (e + e.conj().T) / 2
        e /= np.linalg.norm(e)
        eig = eigh_sorted(a)

        def model_error(delta):
            import scipy.linalg

            model = first_order_eigvecs(eig, delta * e)
            exact = eigh_sorted(a + delta * e).eigenvectors
            angles = scipy.linalg.subspace_angles(model[:, :3], exact[:, :3])
            return float(np.max(angles))

        ratios = [model_error(d) / model_error(d / 2)
                  for d in (1e-2, 5e-3, 2.5e-3)]
        for r in ratios:
            assert 3.0 < r < 5.0


class TestRobustInterbeam:
    def test_zero_bounds_reproduce_nominal_bitwise(self):
        ch = random_channel(4, 2, 6, seed=6)
        bounds = PerturbationBounds.zero(4)
        assert np.array_equal(
            robust_interbeam(ch, bounds, 8.0), mbim_interbeam(ch, 8.0)
        )

    def test_spectrum_regularization_grows_by_shift(self):
        # With the worst-case substitution the eigenvector correction is
        # exactly zero, so the block is the nominal basis with epsilon
        # added to the regularizer. Verified against a direct oracle.
        ch = random_channel(3, 2, 4, seed=7)
        p = 5.0
        _, bounds = perturbed(ch, 0.05, 1)
        wa = robust_interbeam(ch, bounds, p)
        for k in range(3):
            other = oracles.excluding(ch, k)
            eps = eigen_shift_bound(float(bounds.gamma_tilde_k[k]),
                                    np.linalg.norm(other, 2) ** 2)
            lam, vec = np.linalg.eigh(other.conj().T @ other)
            expected = vec[:, :2][:, ::-1] / np.sqrt(
                lam[:2][::-1] + 6.0 / p + eps
            )
            block = wa[:, 2 * k:2 * k + 2]
            for j in range(2):
                phase = np.vdot(expected[:, j], block[:, j])
                phase /= abs(phase)
                assert np.allclose(block[:, j], expected[:, j] * phase,
                                   atol=1e-10)

    def test_mismatched_bounds_rejected(self):
        ch = random_channel(3, 2, 4, seed=8)
        with pytest.raises(ConfigError):
            robust_interbeam(ch, PerturbationBounds.zero(5), 1.0)

    @pytest.mark.parametrize("beams, users, feeds", [(6, 3, 2), (1, 2, 3)],
                             ids=["infeasible", "one_beam"])
    def test_no_decomposition_before_shape_checks(self, monkeypatch, beams,
                                                  users, feeds):
        # Q > N is rejected and a single beam has no other-beam Gram
        # matrix, so neither may decompose anything for its shifts.
        calls = []
        for module, name in ((satprecode.linalg, "eigh_sorted"),
                             (satprecode.linalg, "gram_eigh"),
                             (satprecode.linalg, "downdated_tails"),
                             (satprecode.precoding, "gram_eigh")):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counting)
        ch = random_channel(beams, users, feeds, seed=9)
        bounds = PerturbationBounds(np.full(beams, 0.5), np.full(beams, 2.0))
        if users > feeds:
            with pytest.raises(InfeasibleChannelError):
                robust_interbeam(ch, bounds, 10.0)
        else:
            assert robust_interbeam(ch, bounds, 10.0).shape == (feeds, users)
        assert calls == []


class TestRobustIntrabeam:
    def test_zero_penalty_reproduces_nominal_bitwise(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(robust_intrabeam(z, 0.0), intrabeam(z))

    def test_output_unit_norm(self):
        rng = np.random.default_rng(10)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w = robust_intrabeam(z, 3.7)
        assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)

    def test_worst_case_never_below_nominal(self):
        # Grid-search adversary: over seeded error matrices of fixed
        # energy, the adversarial effective channel never favors the
        # nominal vector over the robust one.
        rng = np.random.default_rng(11)
        n, q = 4, 2
        h_k = rng.standard_normal((q, n)) + 1j * rng.standard_normal((q, n))
        wa = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
        z = h_k @ wa
        gamma_lower = 0.5
        w_nom = intrabeam(z)
        w_rob = robust_intrabeam(z, 2.4)

        def worst(w):
            value = np.inf
            adv = np.random.default_rng(12)
            for _ in range(10_000):
                d = adv.standard_normal((q, n)) + 1j * adv.standard_normal((q, n))
                d *= np.sqrt(gamma_lower) / np.linalg.norm(d)
                value = min(value, np.linalg.norm((z + d @ wa) @ w) ** 2)
            return value

        assert worst(w_rob) >= worst(w_nom) - 1e-9

    def test_degenerate_leading_pair_falls_back_with_warning(self):
        z = np.eye(2, dtype=complex)  # equal singular values
        with pytest.warns(DegenerateSpectrumWarning):
            w = robust_intrabeam(z, 1.0)
        assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)


class TestRobustPipeline:
    def test_zero_bounds_full_pipeline_bitwise_nominal(self):
        ch = random_channel(4, 2, 6, seed=13)
        bounds = PerturbationBounds.zero(4)
        robust = robust_two_stage(ch, bounds, 9.0, "per_feed")
        nominal = two_stage(ch, 9.0, "per_feed", "mbim")
        assert np.array_equal(robust.w, nominal.w)
        assert np.array_equal(robust.wa, nominal.wa)
        assert np.array_equal(robust.wb, nominal.wb)

    def test_power_constraints_match_nominal_path(self):
        ch = random_channel(3, 2, 4, seed=14)
        _, bounds = perturbed(ch, 0.1, 2)
        for mode, check in (
            ("per_feed", lambda pre: np.max(oracles.feed_powers(pre.w))),
            ("total", lambda pre: oracles.total_power(pre.w)),
        ):
            pre = robust_two_stage(ch, bounds, 6.0, mode)
            target = 6.0 / 4 if mode == "per_feed" else 6.0
            assert check(pre) == pytest.approx(target, rel=1e-9)

    def test_matches_coupler_pipeline_on_acceptance_corpus(self):
        # The oracle runs the first-order coupler algebra of both stages;
        # the library runs shifted mbim plus the nominal intra stage.
        for i, (ch, p) in enumerate(acceptance_corpus()):
            est, bounds = perturbed(ch, 0.05, 700 + i)
            gamma_lower = np.minimum(1.0, bounds.gamma_k)
            assert np.all(bounds.gamma_tilde_k > 0.0)
            for mode in ("per_feed", "total"):
                fast = robust_two_stage(est, bounds, p, mode)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateSpectrumWarning)
                    slow = oracles.robust_two_stage(est, bounds, gamma_lower,
                                                   p, mode)
                np.testing.assert_allclose(
                    sinr_matrix(ch, fast.w), sinr_matrix(ch, slow.w), rtol=1e-6
                )

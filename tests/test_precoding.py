import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import satprecode as sp
from satprecode.channel import BeamLayout, ChannelMatrix
from satprecode.exceptions import (
    ConfigError,
    DegenerateBeamError,
    InfeasibleChannelError,
    SingularChannelError,
)
from satprecode.precoding import (
    assemble,
    baseline_avg_mmse,
    baseline_four_color,
    beam_average,
    four_color_precoder,
    intrabeam,
    mbim_interbeam,
    power_control,
    rzf_interbeam,
    two_stage,
)
from satprecode.evaluate import sinr_matrix

import oracles
from conftest import acceptance_corpus, random_channel
from oracles import mbim_block, rzf_block, rzf_null_basis


class TestMbim:
    def test_whitening_identity(self):
        ch = random_channel(4, 2, 6, seed=0)
        p = 37.0
        reg = 4 * 2 / p
        for k in range(4):
            wa = mbim_block(ch, k, p)
            other = oracles.excluding(ch, k)
            gram = other.conj().T @ other + reg * np.eye(6)
            ident = wa.conj().T @ gram @ wa
            assert np.max(np.abs(ident - np.eye(2))) < 1e-8

    def test_single_beam_returns_scaled_truncated_identity(self):
        ch = random_channel(1, 3, 5, seed=1)
        wa = mbim_block(ch, 0, 12.0)
        assert np.array_equal(wa, np.sqrt(12.0 / 3) * np.eye(5, 3))

    def test_high_power_limit_matches_unregularized_spectrum(self):
        # Oracle: an independent eigendecomposition; at huge power the
        # regularizer vanishes and the block tends to the smallest
        # eigenvectors scaled by eigenvalue**-1/2.
        ch = random_channel(3, 2, 4, seed=2)
        wa = mbim_block(ch, 0, 1e9)
        other = oracles.excluding(ch, 0)
        lam, vec = scipy.linalg.eigh(other.conj().T @ other)
        expected = vec[:, :2] / np.sqrt(lam[:2])      # ascending order
        expected = expected[:, ::-1]                  # match descending layout
        for j in range(2):
            phase = np.vdot(expected[:, j], wa[:, j])
            phase /= abs(phase)
            assert np.allclose(wa[:, j], expected[:, j] * phase, atol=1e-6)

    def test_rank_deficient_cross_gram_rejected(self):
        # K*Q rows fewer than N make the cross-Gram singular.
        ch = random_channel(2, 1, 5, seed=3)
        with pytest.raises(SingularChannelError, match="beam 0"):
            mbim_block(ch, 0, 10.0)

    def test_stack_has_one_block_per_beam(self):
        ch = random_channel(3, 2, 4, seed=4)
        wa = mbim_interbeam(ch, 10.0)
        assert wa.shape == (4, 6)
        assert np.array_equal(wa[:, 2:4], mbim_block(ch, 1, 10.0))


class TestRzf:
    def test_null_space_residual(self):
        ch = random_channel(4, 2, 8, seed=5)
        p = 21.0
        reg = ch.h @ ch.h.conj().T + (8 / p) * np.eye(8)
        for k in range(4):
            reduced = np.delete(reg, slice(2 * k, 2 * k + 2), axis=0)
            basis = scipy.linalg.null_space(reduced)
            assert basis.shape[1] == 2
            residual = np.linalg.norm(reduced @ basis)
            assert residual <= 1e-8 * np.linalg.norm(reduced)

    def test_block_projects_through_computed_null_basis(self):
        ch = random_channel(3, 2, 6, seed=6)
        p = 9.0
        wa = rzf_block(ch, 1, p)
        assert wa.shape == (6, 2)
        basis = rzf_null_basis(ch, 1, p)
        assert np.array_equal(wa, ch.h.conj().T @ basis)
        reg = ch.h @ ch.h.conj().T + (6 / p) * np.eye(6)
        reduced = np.delete(reg, slice(2, 4), axis=0)
        assert np.linalg.norm(reduced @ basis) <= 1e-8 * np.linalg.norm(reduced)

    def test_single_beam_uses_identity_basis(self):
        ch = random_channel(1, 2, 4, seed=7)
        wa = rzf_block(ch, 0, 5.0)
        assert np.array_equal(wa, ch.h.conj().T)

    def test_cross_beam_suppression_vs_unprecoded(self):
        # Direct numerical comparison on a seeded instance: the projected
        # block leaks less into other beams than the raw conjugated block.
        ch = random_channel(3, 2, 6, seed=8)
        p = 50.0
        for k in range(3):
            wa = rzf_block(ch, k, p)
            raw = ch.h.conj().T[:, 2 * k:2 * k + 2]
            wa = wa / np.linalg.norm(wa)
            raw = raw / np.linalg.norm(raw)
            for j in range(3):
                if j == k:
                    continue
                assert (
                    np.linalg.norm(ch.beam(j) @ wa)
                    < np.linalg.norm(ch.beam(j) @ raw)
                )

    def test_matches_svd_null_space_oracle_on_acceptance_corpus(self):
        for ch, p in acceptance_corpus():
            for k in range(ch.beams):
                new = rzf_null_basis(ch, k, p)
                ref = oracles.rzf_null_basis_svd(ch, k, p)
                # Same subspace: equal orthogonal projectors.
                assert np.allclose(new @ new.conj().T, ref @ ref.conj().T,
                                   atol=1e-8)
            fast = two_stage(ch, p, interbeam="rzf")
            slow = assemble(ch, oracles.rzf_interbeam(ch, p), p)
            np.testing.assert_allclose(
                sinr_matrix(ch, fast.w), sinr_matrix(ch, slow.w), rtol=1e-6
            )


class TestIntrabeam:
    def test_beats_random_probes(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        w = intrabeam(z)
        best = np.linalg.norm(z @ w) ** 2
        for _ in range(1000):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(z @ v) ** 2 <= best * (1 + 1e-12)

    def test_single_user_gives_unit_scalar(self):
        w = intrabeam(np.array([[2.0 - 1.0j]]))
        assert w.shape == (1,)
        assert abs(abs(w[0]) - 1.0) < 1e-14

    def test_axis_aligned_diagonal(self):
        w = intrabeam(np.diag([3.0, 1.0]))
        assert abs(abs(w[0]) - 1.0) < 1e-12
        assert abs(w[1]) < 1e-12

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateBeamError):
            intrabeam(np.zeros((2, 2)))


class TestPowerControl:
    def test_prenormalized_matrix_gets_unit_alpha(self):
        n, p = 5, 15.0
        w = np.sqrt(p / n) * np.eye(n, dtype=complex)
        assert power_control(w, p, "per_feed") == pytest.approx(1.0, abs=1e-15)

    def test_per_feed_constraint_tight_after_scaling(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        p = 7.5
        alpha = power_control(w, p, "per_feed")
        scaled = alpha * w
        feed_powers = np.sum(np.abs(scaled) ** 2, axis=1)
        assert np.max(feed_powers) == pytest.approx(p / 6, rel=1e-9)
        assert np.all(feed_powers <= p / 6 * (1 + 1e-9))

    def test_total_mode_hand_case(self):
        w = np.zeros((4, 2), dtype=complex)
        w[0, 0] = 2.0  # trace of W W^H is 4
        assert power_control(w, 1.0, "total") == pytest.approx(0.5, abs=1e-15)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ConfigError):
            power_control(np.zeros((3, 2)), 1.0, "per_feed")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            power_control(np.ones((2, 2)), 1.0, "equal")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["per_feed", "total"])
    def test_no_finite_scale_is_infeasible(self, mode):
        # Slot 1 underflows (|w|^2 is 0), slot 2 overflows (p / |w|^2).
        w = np.ones((3, 4, 2), dtype=complex)
        w[1] *= 1e-200
        w[2] *= 1e-10
        p = np.array([1.0, 1.0, 1e300])
        with pytest.raises(InfeasibleChannelError, match="power slot 1"):
            power_control(w, p, mode)
        with pytest.raises(InfeasibleChannelError, match="power slot 0"):
            power_control(w[2], 1e300, mode)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 9999),
           st.sampled_from(["per_feed", "total"]))
    def test_tightness_property(self, beams, q, seed, mode):
        ch = random_channel(beams, q, beams, seed=seed)
        p = 3.0
        pre = two_stage(ch, p, mode, "rzf")
        if mode == "per_feed":
            assert np.max(oracles.feed_powers(pre.w)) == pytest.approx(p / beams, rel=1e-9)
        else:
            assert oracles.total_power(pre.w) == pytest.approx(p, rel=1e-9)


class TestTwoStage:
    def test_blocks_are_unit_norm_and_block_diagonal(self):
        ch = random_channel(3, 2, 4, seed=11)
        pre = two_stage(ch, 4.0, "per_feed", "mbim")
        # Wb is kept as its diagonal blocks: one unit vector per beam.
        assert pre.wb.shape == (3, 2)
        for k in range(3):
            assert np.linalg.norm(pre.wb[k]) == pytest.approx(1.0, rel=1e-12)
            column = pre.wa[:, 2 * k:2 * k + 2] @ pre.wb[k]
            assert np.allclose(pre.w[:, k], pre.alpha * column, rtol=1e-12)

    def test_channel_scaling_covariance(self):
        # Scaling H by c with the power budget divided by c**2 keeps the
        # regularizer balance: the inter-beam blocks scale by 1/c, the
        # intra-beam directions stay fixed, and the scaled-down budget is
        # still met exactly.
        c = 2.0
        p = 4.0
        ch = random_channel(4, 2, 6, seed=12)
        scaled = ChannelMatrix(h=c * ch.h, beams=4, users_per_beam=2)
        a = two_stage(ch, p, "per_feed", "mbim")
        b = two_stage(scaled, p / c**2, "per_feed", "mbim")
        assert np.allclose(b.wa, a.wa / c, rtol=1e-9)
        for k in range(4):
            va, vb = a.wb[k], b.wb[k]
            assert abs(np.vdot(va, vb)) == pytest.approx(1.0, rel=1e-9)
        assert np.max(oracles.feed_powers(b.w)) == pytest.approx(p / c**2 / 6, rel=1e-9)

    def test_unknown_interbeam_design_rejected(self):
        ch = random_channel(2, 2, 4, seed=13)
        with pytest.raises(ConfigError):
            two_stage(ch, 1.0, "per_feed", "zf")


class TestAvgMmse:
    def test_single_user_average_is_regularized_inverse(self):
        ch = random_channel(3, 1, 5, seed=14)
        p = 11.0
        pre = baseline_avg_mmse(ch, p, "total")
        h_bar = ch.h
        gram = h_bar @ h_bar.conj().T + (3 / p) * np.eye(3)
        expected = h_bar.conj().T @ np.linalg.inv(gram)
        expected *= power_control(expected, p, "total")
        assert np.allclose(pre.w, expected, rtol=1e-10)

    def test_duplicated_users_average_to_single_row(self):
        single = random_channel(3, 1, 5, seed=15)
        dup = ChannelMatrix(
            h=np.repeat(single.h, 2, axis=0), beams=3, users_per_beam=2
        )
        assert np.allclose(beam_average(dup), single.h, rtol=1e-14)
        # Full matrix check against the closed form at the doubled
        # regularizer the duplicated-user channel implies.
        p = 11.0
        pre = baseline_avg_mmse(dup, p, "total")
        gram = single.h @ single.h.conj().T + (6 / p) * np.eye(3)
        expected = single.h.conj().T @ np.linalg.inv(gram)
        expected *= power_control(expected, p, "total")
        assert np.allclose(pre.w, expected, rtol=1e-10)

    def test_seeded_min_sinr_below_interference_mitigation(
        self, desk_layout, budget
    ):
        from conftest import desk_channel

        ch = desk_channel(desk_layout, budget, 2, seed=40)
        p = 10.0 ** (25 / 10)  # mid-power operating point
        s_avg = sinr_matrix(ch, baseline_avg_mmse(ch, p, "per_feed").w)
        s_mbim = sinr_matrix(ch, two_stage(ch, p, "per_feed", "mbim").w)
        assert s_avg.min() <= s_mbim.min()


class TestFourColor:
    def test_every_feed_drives_its_own_beam_at_equal_power(self, desk_layout):
        p = 13.0
        pre = four_color_precoder(desk_layout, p)
        assert np.allclose(oracles.feed_powers(pre.w), p / 7, rtol=1e-12)
        assert oracles.total_power(pre.w) == pytest.approx(p, rel=1e-12)

    def test_unique_color_beam_sees_zero_interference(self, desk_layout, budget):
        from conftest import desk_channel

        ch = desk_channel(desk_layout, budget, 2, seed=41)
        # Beam 0 is the only beam of its color in the 7-beam layout.
        assert np.count_nonzero(desk_layout.color_of_beam == 0) == 1
        p = 100.0
        sinrs = baseline_four_color(ch, desk_layout, p)
        w = four_color_precoder(desk_layout, p).w
        signal = np.abs(ch.beam(0) @ w[:, 0]) ** 2
        assert np.allclose(sinrs[0], signal, rtol=1e-12)

    def test_equal_gain_cochannel_pair_saturates_at_zero_db(self):
        layout = BeamLayout(
            beam_centers=np.array([[45.0, 0.0], [49.0, 0.0]]),
            feed_boresights=np.array([[45.0, 0.0], [49.0, 0.0]]),
            feeds_per_beam=1,
            beam_radius_3db_deg=0.25,
            color_of_beam=np.array([1, 1]),
        )
        h = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        ch = ChannelMatrix(h=h, beams=2, users_per_beam=1)
        sinrs = baseline_four_color(ch, layout, 1e12)
        # Closed form: (p/2) / (p/2 + 1) tends to one (0 dB) at high power.
        assert np.allclose(sinrs, 1.0, rtol=1e-10)

    def test_mismatched_layout_rejected(self, desk_layout):
        ch = random_channel(3, 2, 7, seed=16)
        with pytest.raises(ConfigError):
            baseline_four_color(ch, desk_layout, 1.0)

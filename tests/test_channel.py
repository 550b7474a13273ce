import math
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import j1

import satprecode as sp
from satprecode import geometry
from satprecode.channel import (
    ChannelMatrix,
    _other_gram_tails,
    _stacked_other_gram_tails,
    beam_contours,
    pattern_gain,
)
from satprecode.config import parse_config
from satprecode.evaluate import _build_budget, _build_layout
from satprecode.exceptions import ConfigError, GeometryError
from satprecode.linalg import downdated_tails, gram_eigh

from conftest import perturbed, random_channel
from oracles import (
    boresight_angle_deg,
    boresight_angle_deg_cross,
    build_phase_matrix_exp,
    excluding,
    feed_gain,
    ground_halfwidth_deg,
    off_axis_angle_deg,
    other_gram_eig_per_beam,
    slant_range_m,
    validate_geometry_per_beam,
)

SHIPPED_CONFIGS = ("desk.cfg", "figure3_recipe.cfg", "gateway_desk.cfg",
                   "paper_scale.cfg")


class TestLinkBudget:
    def test_noise_temperature_derived_from_g_over_t(self):
        b = sp.LinkBudget()
        expected = 10 ** ((41.7 - 17.68) / 10)
        assert b.receiver_noise_temp_k == pytest.approx(expected, rel=1e-12)

    def test_consistent_explicit_temperature_accepted(self):
        t = 10 ** ((41.7 - 17.68) / 10)
        b = sp.LinkBudget(receiver_noise_temp_k=t)
        assert b.receiver_noise_temp_k == t

    def test_inconsistent_temperature_rejected(self):
        with pytest.raises(ConfigError, match="inconsistent"):
            sp.LinkBudget(receiver_noise_temp_k=100.0)

    @pytest.mark.parametrize("field,value", [
        ("bandwidth_hz", 0.0),
        ("carrier_freq_hz", -1.0),
        ("rolloff", 1.0),
        ("rolloff", -0.1),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            sp.LinkBudget(**{field: value})


class TestLayout:
    def test_hex_layout_shapes_and_colors(self, desk_layout):
        assert desk_layout.beams == 7
        assert desk_layout.feeds == 7
        assert set(desk_layout.color_of_beam) <= {0, 1, 2, 3}

    def test_adjacent_beams_never_share_color(self, desk_layout, budget):
        sat = budget.satellite_position()
        centers = desk_layout.beam_centers
        for i in range(desk_layout.beams):
            ang = off_axis_angle_deg(
                sat, centers[i, 0], centers[i, 1], centers[:, 0], centers[:, 1],
                budget.earth_radius_m,
            )
            for j in range(desk_layout.beams):
                if i != j and ang[j] < 2 * desk_layout.beam_radius_3db_deg:
                    assert (
                        desk_layout.color_of_beam[i] != desk_layout.color_of_beam[j]
                    )

    def test_multiple_feeds_per_beam(self, budget):
        lay = sp.hex_layout(3, 47.0, 10.0, 0.25, 4.0, feeds_per_beam=3,
                            budget=budget)
        assert lay.feeds == 9
        # Feeds are beam-major: beam 1's three feeds ring its center.
        assert np.allclose(lay.feed_boresights[3:6].mean(axis=0),
                           lay.beam_centers[1])

    def test_full_scale_layout_valid(self, budget):
        lay = sp.hex_layout(245, 47.0, 10.0, 0.09, 1.1, budget=budget)
        assert lay.beams == 245
        assert np.bincount(lay.color_of_beam, minlength=4).min() > 0

    @pytest.mark.parametrize("beams, radius, spacing",
                             [(7, 0.25, 4.0), (61, 0.09, 1.1), (245, 0.09, 1.1)])
    def test_centers_converted_once_give_the_same_angles(self, budget, beams,
                                                         radius, spacing):
        # The per-beam layout check (oracles.validate_geometry_per_beam)
        # converts every center once and measures the separations with
        # oracles.boresight_angle_deg: bit for bit the angles of
        # oracles.off_axis_angle_deg, which converts them again per beam.
        # validate_geometry's one (K, K) pass is held to that check's
        # decisions in test_array_passes.py.
        lay = sp.hex_layout(beams, 47.0, 10.0, radius, spacing, budget=budget)
        sat = budget.satellite_position()
        c = lay.beam_centers
        to_center = geometry.latlon_to_ecef(c[:, 0], c[:, 1],
                                            budget.earth_radius_m) - sat
        for k in range(beams):
            assert np.array_equal(
                boresight_angle_deg(to_center[k], to_center),
                off_axis_angle_deg(sat, c[k, 0], c[k, 1], c[:, 0],
                                   c[:, 1], budget.earth_radius_m))

    def test_first_color_clash_is_named(self, budget):
        # Beams 0, 1 and 2 sit 0.3 deg apart in a row; 0 and 2 share a
        # color with 1, so the first clash found is (0, 1).
        lay = sp.BeamLayout(
            beam_centers=np.array([[47.0, 10.0], [47.0, 10.3], [47.0, 10.6]]),
            feed_boresights=np.array([[47.0, 10.0], [47.0, 10.3], [47.0, 10.6]]),
            feeds_per_beam=1,
            beam_radius_3db_deg=0.25,
            color_of_beam=np.array([1, 1, 1]),
        )
        with pytest.raises(ConfigError, match=r"^beams 0 and 1 are closer"):
            lay.validate_geometry(budget)
        # Six beams in the same row, all close: beam 0's color is its own,
        # beam 1 clashes with 3 and 5 and beam 2 with 4. The per-beam loop
        # names the lowest beam with a clash, then its lowest partner:
        # (1, 3), not (2, 4) or (3, 1).
        row = np.array([[47.0, 10.0 + 0.3 * i] for i in range(6)])
        lay = sp.BeamLayout(
            beam_centers=row,
            feed_boresights=row,
            feeds_per_beam=1,
            beam_radius_3db_deg=0.25,
            color_of_beam=np.array([0, 1, 2, 1, 2, 1]),
        )
        with pytest.raises(ConfigError, match=r"^beams 1 and 3 are closer"):
            lay.validate_geometry(budget)
        with pytest.raises(ConfigError, match=r"^beams 1 and 3 are closer"):
            validate_geometry_per_beam(lay, budget)

    def test_zero_radius_rejected(self):
        with pytest.raises(ConfigError):
            sp.BeamLayout(
                beam_centers=np.array([[47.0, 10.0]]),
                feed_boresights=np.array([[47.0, 10.0]]),
                feeds_per_beam=1,
                beam_radius_3db_deg=0.0,
                color_of_beam=np.array([0]),
            )

    def test_invisible_beam_rejected(self, budget):
        lay = sp.BeamLayout(
            beam_centers=np.array([[0.0, 180.0]]),  # opposite side of Earth
            feed_boresights=np.array([[0.0, 180.0]]),
            feeds_per_beam=1,
            beam_radius_3db_deg=0.25,
            color_of_beam=np.array([0]),
        )
        with pytest.raises(GeometryError, match="horizon"):
            lay.validate_geometry(budget)


class TestPlaceUsers:
    def test_pool_of_200_users_per_beam_inside_contours(self, desk_layout, budget):
        users = sp.place_users(desk_layout, 200, 11, budget=budget)
        assert users.positions.shape == (7, 200, 2)
        sat = budget.satellite_position()
        for k in range(7):
            lat0, lon0 = desk_layout.beam_centers[k]
            ang = off_axis_angle_deg(
                sat, lat0, lon0,
                users.positions[k, :, 0], users.positions[k, :, 1],
                budget.earth_radius_m,
            )
            assert np.all(ang <= desk_layout.beam_radius_3db_deg)

    def test_single_user_pool(self, desk_layout, budget):
        users = sp.place_users(desk_layout, 1, 5, budget=budget)
        assert users.positions.shape == (7, 1, 2)

    def test_same_seed_reproduces_positions(self, desk_layout, budget):
        a = sp.place_users(desk_layout, 13, 99, budget=budget)
        b = sp.place_users(desk_layout, 13, 99, budget=budget)
        assert np.array_equal(a.positions, b.positions)

    def test_invalid_pool_size_rejected(self, desk_layout, budget):
        with pytest.raises(ConfigError):
            sp.place_users(desk_layout, 0, 1, budget=budget)


def assert_halfwidths_match_oracle(layout, budget):
    sat = budget.satellite_position()
    radius = layout.beam_radius_3db_deg
    got, _ = beam_contours(layout, budget)
    want = np.array([
        ground_halfwidth_deg(sat, lat0, lon0, radius, budget.earth_radius_m)
        for lat0, lon0 in layout.beam_centers
    ])
    assert np.array_equal(got, want)


def shipped_layout(name):
    ref = resources.files("satprecode.data").joinpath(f"configs/{name}")
    with resources.as_file(ref) as path:
        cfg = parse_config(path)
    budget = _build_budget(cfg)
    return _build_layout(cfg, budget), budget


class TestContourHalfwidths:
    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_shipped_layouts_match_scalar_search(self, name):
        assert_halfwidths_match_oracle(*shipped_layout(name))

    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_boresights_match_per_beam_conversion(self, name):
        # One vectorised conversion serves the boxes and the sampling; it
        # must give the bits of converting each beam center on its own.
        layout, budget = shipped_layout(name)
        sat = budget.satellite_position()
        want = np.array([
            geometry.latlon_to_ecef(lat0, lon0, budget.earth_radius_m) - sat
            for lat0, lon0 in layout.beam_centers
        ])
        _, bores = beam_contours(layout, budget)
        assert bores.shape == (layout.beams, 3)
        assert np.array_equal(bores, want)

    @settings(deadline=None, max_examples=25)
    @given(
        beams=st.integers(1, 19),
        log_radius=st.floats(-4.0, 0.3),
        spacing_factor=st.floats(1.0, 8.0),
        center_lat=st.floats(-60.0, 60.0),
        center_lon=st.floats(-30.0, 50.0),
    )
    def test_random_layouts_match_scalar_search(self, budget, beams,
                                                log_radius, spacing_factor,
                                                center_lat, center_lon):
        radius = 10.0 ** log_radius
        layout = sp.hex_layout(beams, center_lat, center_lon, radius,
                               spacing_factor * radius)
        assert_halfwidths_match_oracle(layout, budget)

    def test_tiny_contour_stops_at_first_step(self, budget):
        # A 1e-3 degree ground step already spans more than 5e-5 degrees
        # seen from GEO, so the search stops at once.
        layout = sp.hex_layout(3, 47.0, 10.0, 5e-5, 1e-3)
        assert_halfwidths_match_oracle(layout, budget)
        got, _ = beam_contours(layout, budget)
        assert np.all(got == 1.6e-3)

    def test_contour_wider_than_earth_disk_does_not_close(self, budget):
        # Seen from GEO the whole Earth lies within about 8.7 degrees of
        # the sub-satellite point (0, 10), so a 10-degree contour around
        # it never closes.
        layout = sp.hex_layout(1, 0.0, 10.0, 10.0, 20.0)
        sat = budget.satellite_position()
        with pytest.raises(GeometryError, match="does not close"):
            ground_halfwidth_deg(sat, 0.0, 10.0, 10.0, budget.earth_radius_m)
        with pytest.raises(GeometryError, match="beam 0 contour does not close"):
            sp.place_users(layout, 2, 0, budget=budget)


_COORD = st.floats(-5e7, 5e7, allow_nan=False, allow_infinity=False)


def kernel_angle_deg(bore, targ):
    """`geometry.off_axis_deg` with the projection of the sampler and the
    gain matrix: one gemv ``targ @ bu`` on C-contiguous targets."""
    bu = bore / np.linalg.norm(bore)
    return geometry.off_axis_deg(targ[..., 0], targ[..., 1], targ[..., 2],
                                 bu, targ @ bu)


class TestBoresightAngle:
    # The library's angle kernel and the per-call oracle behind the
    # sampler and gain-matrix references both equal the np.cross form.
    @settings(deadline=None, max_examples=50)
    @given(st.tuples(_COORD, _COORD, _COORD),
           st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=20))
    def test_equals_the_cross_product_form(self, bore, targets):
        bore = np.array(bore)
        if not np.linalg.norm(bore) > 0.0:
            bore = np.array([1.0, 0.0, 0.0])
        targ = np.array(targets)
        want = boresight_angle_deg_cross(bore, targ)
        assert np.array_equal(boresight_angle_deg(bore, targ), want)
        assert np.array_equal(kernel_angle_deg(bore, targ), want)

    def test_equals_the_cross_product_form_on_user_draws(self, desk_layout,
                                                         budget):
        sat = budget.satellite_position()
        users = sp.place_users(desk_layout, 50, 3, budget=budget)
        flat = users.flat_positions()
        targ = geometry.latlon_to_ecef(flat[:, 0], flat[:, 1],
                                       budget.earth_radius_m) - sat
        for lat, lon in desk_layout.feed_boresights:
            bore = geometry.latlon_to_ecef(lat, lon, budget.earth_radius_m) - sat
            want = boresight_angle_deg_cross(bore, targ)
            assert np.array_equal(boresight_angle_deg(bore, targ), want)
            assert np.array_equal(kernel_angle_deg(bore, targ), want)
            assert np.array_equal(boresight_angle_deg(bore, targ[0]),
                                  boresight_angle_deg_cross(bore, targ[0]))


class TestFeedPattern:
    def test_peak_gain_at_boresight(self, desk_layout, budget):
        bore = desk_layout.feed_boresights[0]
        gain = feed_gain(bore, bore, desk_layout, budget)
        assert gain == pytest.approx(pattern_gain(0.0, 0.25), rel=1e-12)

    def test_three_db_point_matches_beam_radius(self, desk_layout, budget):
        # Oracle: root-find the angle where the pattern is 3 dB below peak,
        # then evaluate the gain for a user placed at that off-axis angle.
        radius = desk_layout.beam_radius_3db_deg
        peak = pattern_gain(0.0, radius)
        theta_3db = brentq(
            lambda t: pattern_gain(t, radius) / peak - 10 ** (-0.3),
            1e-6, 2.0 * radius,
        )
        assert theta_3db == pytest.approx(radius, rel=1e-9)

        sat = budget.satellite_position()
        lat0, lon0 = desk_layout.beam_centers[0]
        offset = brentq(
            lambda d: float(
                off_axis_angle_deg(
                    sat, lat0, lon0, lat0 + d, lon0, budget.earth_radius_m
                )
            ) - theta_3db,
            1e-9, 10.0,
        )
        gain = feed_gain(
            (lat0, lon0), (lat0 + offset, lon0), desk_layout, budget
        )
        delta_db = 10 * math.log10(peak / gain)
        assert abs(delta_db - 3.0) < 0.05

    def test_half_power_argument_is_the_root_brentq_finds(self):
        from satprecode.channel import _U_HALF
        root = brentq(lambda u: (2.0 * j1(u) / u) ** 2 - 10.0 ** (-0.3),
                      1.0, 2.0)
        assert abs(_U_HALF - root) <= 2 * np.spacing(root)

    @pytest.mark.parametrize("radius", [1e-3, 0.1, 0.25, 0.5, 2.0])
    def test_pattern_is_three_db_down_at_the_beam_radius(self, radius):
        ratio = pattern_gain(radius, radius) / pattern_gain(0.0, radius)
        assert ratio == pytest.approx(10.0 ** (-0.3), rel=1e-12)

    def test_importing_the_cli_leaves_scipy_optimize_unloaded(self):
        src = os.path.dirname(os.path.dirname(sp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, satprecode.cli; "
             "print('scipy.optimize' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert probe.stdout.strip() == "False"

    def test_far_sidelobes_at_least_20_db_down(self):
        peak = pattern_gain(0.0, 0.25)
        tail = pattern_gain(10 * 0.25, 0.25)
        assert 10 * math.log10(peak / tail) >= 20.0

    def test_mainlobe_monotone_to_first_null(self):
        from satprecode.channel import _U_HALF
        radius = 0.25
        k_a = _U_HALF / math.sin(math.radians(radius))
        theta_null = math.degrees(math.asin(3.8317 / k_a))
        theta = np.linspace(0.0, theta_null, 400)
        gains = pattern_gain(theta, radius)
        assert np.all(np.diff(gains) <= 1e-9 * gains[0])


class TestGainMatrix:
    def test_subsatellite_slant_range_is_orbit_height(self, budget):
        sat = budget.satellite_position()
        d = slant_range_m(sat, 0.0, 10.0, budget.earth_radius_m)
        assert float(d) == pytest.approx(35_786_000.0, rel=1e-9)

    def test_doubling_bandwidth_scales_entries_by_inverse_sqrt2(
        self, desk_layout, budget
    ):
        users = sp.place_users(desk_layout, 2, 3, budget=budget)
        f1 = sp.build_gain_matrix(desk_layout, users, budget)
        b2 = sp.LinkBudget(bandwidth_hz=2 * budget.bandwidth_hz)
        f2 = sp.build_gain_matrix(desk_layout, users, b2)
        assert np.allclose(f2, f1 / math.sqrt(2.0), rtol=1e-14)

    def test_noise_temperature_scaling_is_exact(self, desk_layout):
        users_budget = sp.LinkBudget()
        users = sp.place_users(desk_layout, 2, 3, budget=users_budget)
        t1 = 250.0
        budgets = []
        for t in (t1, 4 * t1):
            g_over_t = 41.7 - 10 * math.log10(t)
            budgets.append(
                sp.LinkBudget(receiver_noise_temp_k=t, g_over_t_db=g_over_t)
            )
        f1 = sp.build_gain_matrix(desk_layout, users, budgets[0])
        f4 = sp.build_gain_matrix(desk_layout, users, budgets[1])
        assert np.array_equal(f1, 2.0 * f4)


class TestPhaseMatrix:
    def test_entries_unit_modulus(self):
        phi = sp.build_phase_matrix(sp.PhaseModel(variant="uniform", rng_seed=0),
                                    40, 9)
        assert np.allclose(np.abs(phi), 1.0, atol=1e-12)

    def test_ultra_stable_zero_spread_gives_constant_rows(self):
        phi = sp.build_phase_matrix(
            sp.PhaseModel(variant="ultra_stable", chi_deg=0.0, rng_seed=2), 10, 6
        )
        assert np.allclose(phi, phi[:, :1], atol=1e-12)

    def test_uniform_rows_not_constant(self):
        phi = sp.build_phase_matrix(sp.PhaseModel(variant="uniform", rng_seed=2),
                                    10, 6)
        assert not np.allclose(phi, phi[:, :1], atol=1e-3)

    def test_ten_degree_spread_has_matching_circular_std(self):
        rows, feeds = 100, 1000
        phi = sp.build_phase_matrix(
            sp.PhaseModel(variant="ultra_stable", chi_deg=10.0, rng_seed=7),
            rows, feeds,
        )
        # Remove each row's common phase via the circular row mean, then
        # measure the circular standard deviation of the residuals.
        row_mean = np.mean(phi, axis=1, keepdims=True)
        residual = phi * np.conj(row_mean / np.abs(row_mean))
        r = np.abs(np.mean(residual))
        circ_std_deg = math.degrees(math.sqrt(-2.0 * math.log(r)))
        assert abs(circ_std_deg - 10.0) < 0.3

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            sp.PhaseModel(variant="laser")

    @pytest.mark.parametrize("variant", ["uniform", "ultra_stable"])
    def test_equals_complex_exponential_bitwise(self, variant):
        model = sp.PhaseModel(variant=variant, chi_deg=10.0, rng_seed=3)
        assert np.array_equal(sp.build_phase_matrix(model, 300, 61),
                              build_phase_matrix_exp(model, 300, 61))


class TestAssemble:
    def test_all_ones_phase_returns_gain(self):
        gain = np.arange(12.0).reshape(4, 3) + 1.0
        ch = sp.assemble_channel(gain, np.ones((4, 3)), 2, 2)
        assert np.array_equal(ch.h, gain.astype(complex))

    def test_magnitude_equals_gain(self, desk_layout, budget):
        users = sp.place_users(desk_layout, 2, 8, budget=budget)
        gain = sp.build_gain_matrix(desk_layout, users, budget)
        phase = sp.build_phase_matrix(sp.PhaseModel(rng_seed=1), 14, 7)
        ch = sp.assemble_channel(gain, phase, 7, 2)
        assert np.allclose(np.abs(ch.h), gain, rtol=1e-12)

    def test_two_by_two_hand_case(self):
        gain = np.array([[1.0, 2.0], [3.0, 4.0]])
        phase = np.array([[1.0, -1.0], [1j, -1j]])
        ch = sp.assemble_channel(gain, phase, 1, 2)
        assert np.array_equal(ch.h, np.array([[1.0, -2.0], [3j, -4j]]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            sp.assemble_channel(np.ones((2, 3)), np.ones((3, 2)), 1, 2)

    def test_product_is_formed_in_a_writable_complex_phase(self, desk_layout,
                                                            budget):
        users = sp.place_users(desk_layout, 3, 9, budget=budget)
        gain = sp.build_gain_matrix(desk_layout, users, budget)
        phase = sp.build_phase_matrix(sp.PhaseModel(rng_seed=2), 21, 7)
        gain_in, phase_in = gain.copy(), phase.copy()
        ch = sp.assemble_channel(gain, phase, 7, 3)
        # Bit for bit the allocated product, held in the phase array.
        assert np.array_equal(ch.h, gain_in * phase_in)
        assert ch.h is phase
        assert not phase.flags.writeable
        assert np.array_equal(gain, gain_in)
        # A phase array that cannot hold the product is left alone.
        for other in (np.ones((21, 7)), phase_in.copy()):
            other.flags.writeable = other.dtype != complex
            before = other.copy()
            ch = sp.assemble_channel(gain, other, 7, 3)
            assert np.array_equal(other, before)
            assert np.array_equal(ch.h, gain * before)
            assert not np.shares_memory(ch.h, other)


class TestChannelMatrixViews:
    def test_beam_and_user_views(self):
        ch = random_channel(3, 2, 5, seed=0)
        assert ch.beam(1).shape == (2, 5)
        # Rows are beam-major: user q of beam k is row k*Q + q.
        assert np.array_equal(ch.beam(1)[0], ch.h[2])

    def test_excluding_removes_exactly_one_beam(self):
        ch = random_channel(4, 3, 6, seed=1)
        other = excluding(ch, 2)
        assert other.shape == (9, 6)
        expected = np.vstack([ch.beam(0), ch.beam(1), ch.beam(3)])
        assert np.array_equal(other, expected)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 8),
           st.integers(0, 10_000))
    def test_remove_reinsert_round_trip(self, beams, q, feeds, seed):
        ch = random_channel(beams, q, feeds, seed=seed)
        for k in range(beams):
            other = excluding(ch, k)
            rebuilt = np.insert(other, k * q, ch.beam(k), axis=0)
            assert np.array_equal(rebuilt, ch.h)

    def test_other_gram_tails_are_trimmed(self):
        ch = random_channel(3, 2, 4, seed=2)
        first = [a[0] for a in _other_gram_tails(ch.h, np.array([1]), 2)]
        lam_max, tail_values, tail = first
        other = excluding(ch, 1)
        full = sp.eigh_sorted(other.conj().T @ other)
        assert lam_max == full.eigenvalues[0]
        assert np.array_equal(tail_values, full.eigenvalues[-2:])
        assert np.array_equal(tail, full.eigenvectors[:, -2:])
        for whole, row in zip(_other_gram_tails(ch.h, np.arange(3), 2), first):
            assert np.array_equal(whole[1], row)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**16),
           st.integers(0, 5), st.integers(1, 6))
    def test_other_gram_tails_read_the_crossover_at_call_time(
            self, beams, users, seed, start, count):
        # With the crossover lowered to 2, two or more beams take the
        # downdate (a beam it cannot certify the dense path), one beam the
        # dense path; the stacked form gives the same bits.
        ch = random_channel(beams, users, beams * users, seed=seed)
        start = start % beams
        ids = np.arange(start, min(start + count, beams))
        ok = np.zeros(ids.size, dtype=bool)
        if ids.size >= 2:
            *found, ok = downdated_tails(gram_eigh(ch.h), ch.beam_blocks()[ids])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("satprecode.channel._DOWNDATE_MIN_BEAMS", 2)
            got = _other_gram_tails(ch.h, ids, users)
            stacked = _stacked_other_gram_tails(ch.h[None], ids[None], users,
                                                lambda c: gram_eigh(ch.h))
        for i, k in enumerate(ids):
            if ok[i]:
                want = [a[i] for a in found]
            else:
                dense = other_gram_eig_per_beam(ch, k)
                want = [dense.eigenvalues[0], dense.eigenvalues[-users:],
                        dense.eigenvectors[:, -users:]]
            for slab, row, value in zip(got, stacked, want):
                assert np.array_equal(slab[i], value)
                assert np.array_equal(row[0, i], value)

    def test_channel_is_read_only(self):
        ch = random_channel(2, 2, 3, seed=3)
        with pytest.raises(ValueError):
            ch.h[0, 0] = 0.0

    def test_non_finite_entries_rejected(self):
        h = np.ones((4, 3), dtype=complex)
        h[1, 1] = np.nan
        with pytest.raises(ConfigError):
            ChannelMatrix(h=h, beams=2, users_per_beam=2)


class TestPerturbation:
    def test_zero_ratio_returns_same_channel(self):
        ch = random_channel(3, 2, 4, seed=5)
        perturbed, delta = sp.perturb_channel(ch, 0.0, 1)
        assert perturbed is ch
        assert not np.any(delta)
        bounds = sp.PerturbationBounds.from_delta(delta, 3, 2)
        assert np.all(bounds.gamma_k == 0.0)

    def test_frobenius_ratio_exact(self):
        ch = random_channel(4, 2, 6, seed=6)
        _, delta = sp.perturb_channel(ch, 0.37, 2)
        realized = np.linalg.norm(delta) / np.linalg.norm(ch.h)
        assert abs(realized - 0.37) <= 1e-12

    def test_complement_sum_identity(self):
        ch = random_channel(5, 2, 7, seed=7)
        _, bounds = perturbed(ch, 0.2, 3)
        for k in range(5):
            assert bounds.gamma_tilde_k[k] == np.sum(np.delete(bounds.gamma_k, k))

    def test_total_energy_matches_beam_split(self):
        ch = random_channel(5, 3, 6, seed=8)
        _, delta = sp.perturb_channel(ch, 0.1, 4)
        bounds = sp.PerturbationBounds.from_delta(delta, 5, 3)
        assert np.sum(bounds.gamma_k) == pytest.approx(
            np.linalg.norm(delta) ** 2, rel=1e-12
        )

    def test_negative_ratio_rejected(self):
        ch = random_channel(2, 2, 3, seed=10)
        with pytest.raises(ConfigError):
            sp.perturb_channel(ch, -0.1, 0)

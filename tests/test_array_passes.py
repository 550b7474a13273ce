"""Each array pass over beams or feeds gives the result of the per-beam or
per-feed loop it replaced (the references in `oracles.py`).

The layout check and the contour boxes must reach the same decisions; the
gain matrix, the grouping (with the ``none`` draws skipped when the
whole pool is served), the served-user extraction and the error
bounds must be bit for bit equal. Checked on every shipped config, on all
48 benchmark workload configs, on random layouts and channels, at K = 1,
and on gain matrices of several row blocks.
"""

import itertools
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satprecode as sp
from satprecode import geometry, grouping
from satprecode.channel import _GAIN_ROWS, _served_rows, beam_contours
from satprecode.config import ScenarioConfig, parse_config
from satprecode.evaluate import (
    _build_budget,
    _build_layout,
    _select_members,
    _trial_channels,
)
from satprecode.exceptions import ConfigError, GeometryError
from satprecode.grouping import group_users, robust_group_users

from conftest import load_perfbench_workloads, random_channel
from oracles import (
    boresight_angle_deg,
    build_gain_matrix_per_feed,
    extract_users_per_beam,
    from_delta_per_beam,
    ground_halfwidth_deg,
    select_per_beam,
    select_uniform_per_beam,
    served_delta_per_beam,
    trial_channels_per_beam,
    validate_geometry_per_beam,
)

SHIPPED_CONFIGS = ("desk.cfg", "figure3_recipe.cfg", "gateway_desk.cfg",
                   "paper_scale.cfg")
_WORKLOADS = load_perfbench_workloads()
WORKLOAD_CONFIGS = [(name, seed) for name in sorted(_WORKLOADS.WORKLOADS)
                    for seed in range(_WORKLOADS.REFERENCE_SEEDS)]


def shipped_config(name):
    ref = resources.files("satprecode.data").joinpath(f"configs/{name}")
    with resources.as_file(ref) as path:
        return parse_config(path)


def raised(check, *args):
    """The (type, message) of the layout error `check(*args)` raises, or
    None when it accepts."""
    try:
        check(*args)
    except (ConfigError, GeometryError) as exc:
        return type(exc), str(exc)
    return None


def assert_trial_matches_per_beam_loops(cfg):
    """One config's layout check, contour boxes and first trial's channels
    and bounds against the per-beam and per-feed loops."""
    budget = _build_budget(cfg)
    layout = _build_layout(cfg, budget)
    assert raised(validate_geometry_per_beam, layout, budget) is None
    halfwidths, _ = contours = beam_contours(layout, budget)
    sat = budget.satellite_position()
    assert np.array_equal(halfwidths, [
        ground_halfwidth_deg(sat, lat0, lon0, layout.beam_radius_3db_deg,
                             budget.earth_radius_m)
        for lat0, lon0 in layout.beam_centers
    ])

    def first_trial():
        # A fresh sequence each time: spawning advances it.
        return np.random.SeedSequence(cfg.seed).spawn(1)[0]

    ch_true, ch_est, bounds = _trial_channels(first_trial(), cfg, layout,
                                              budget, contours)
    want = trial_channels_per_beam(first_trial(), cfg, layout, budget, contours)
    assert np.array_equal(ch_true.h, want[0].h)
    assert np.array_equal(ch_est.h, want[1].h)
    assert np.array_equal(bounds.gamma_k, want[2].gamma_k)
    assert np.array_equal(bounds.gamma_tilde_k, want[2].gamma_tilde_k)
    if cfg.csi_error_ratio == 0.0:
        assert ch_est is ch_true


class TestConfigs:
    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_shipped_config_trial_matches_per_beam_loops(self, name):
        assert_trial_matches_per_beam_loops(shipped_config(name))

    @pytest.mark.parametrize("name, seed", WORKLOAD_CONFIGS)
    def test_workload_config_trial_matches_per_beam_loops(self, name, seed,
                                                          tmp_path):
        path = _WORKLOADS.WORKLOADS[name].write_config(seed, tmp_path / "w.cfg")
        assert_trial_matches_per_beam_loops(parse_config(path))

    def test_perfect_csi_estimate_is_the_true_channel(self):
        cfg = shipped_config("desk.cfg")
        assert cfg.csi_error_ratio == 0.0
        budget = _build_budget(cfg)
        layout = _build_layout(cfg, budget)
        ch_true, ch_est, bounds = _trial_channels(
            np.random.SeedSequence(1), cfg, layout, budget,
            beam_contours(layout, budget))
        assert ch_est is ch_true
        assert not np.any(bounds.gamma_k) and not np.any(bounds.gamma_tilde_k)


class TestLayoutCheck:
    @settings(deadline=None, max_examples=60)
    @given(
        beams=st.integers(1, 19),
        log_radius=st.floats(-3.0, -0.5),
        spacing=st.floats(0.05, 3.0),
        center_lat=st.floats(-80.0, 80.0),
        center_lon=st.floats(-90.0, 110.0),
        colors=st.lists(st.integers(0, 3), min_size=19, max_size=19),
    )
    def test_random_layouts_get_the_same_decision(self, budget, beams,
                                                  log_radius, spacing,
                                                  center_lat, center_lon,
                                                  colors):
        # Random colorings put clashes anywhere, and wide coverage puts
        # centers below the horizon; both checks must name the same fault.
        hexed = sp.hex_layout(beams, center_lat, center_lon,
                              10.0 ** log_radius, spacing)
        layout = sp.BeamLayout(
            beam_centers=hexed.beam_centers,
            feed_boresights=hexed.feed_boresights,
            feeds_per_beam=1,
            beam_radius_3db_deg=hexed.beam_radius_3db_deg,
            color_of_beam=np.array(colors[:beams]),
        )
        assert (raised(layout.validate_geometry, budget)
                == raised(validate_geometry_per_beam, layout, budget))

    @pytest.mark.parametrize("beams, radius, spacing",
                             [(7, 0.25, 4.0), (61, 0.09, 1.1), (245, 0.09, 1.1)])
    def test_separations_stay_within_rounding_of_the_per_beam_angles(
            self, budget, beams, radius, spacing):
        lay = sp.hex_layout(beams, 47.0, 10.0, radius, spacing)
        sat = budget.satellite_position()
        c = lay.beam_centers
        to_center = geometry.latlon_to_ecef(c[:, 0], c[:, 1],
                                            budget.earth_radius_m) - sat
        got = geometry.boresight_angles_deg(to_center, to_center)
        want = np.array([boresight_angle_deg(b, to_center)
                         for b in to_center])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_one_beam_has_no_pair_to_compare(self, budget):
        layout = sp.hex_layout(1, 47.0, 10.0, 0.25, 4.0)
        assert raised(layout.validate_geometry, budget) is None
        assert raised(validate_geometry_per_beam, layout, budget) is None


class TestGainMatrix:
    @settings(deadline=None, max_examples=30)
    @given(
        beams=st.integers(1, 7),
        feeds_per_beam=st.integers(1, 3),
        log_radius=st.floats(-2.0, -0.5),
        spacing_factor=st.floats(1.0, 6.0),
        center_lat=st.floats(-50.0, 50.0),
        center_lon=st.floats(-20.0, 40.0),
        pool=st.integers(1, 5),
        seed=st.integers(0, 10_000),
    )
    def test_random_layouts_match_per_feed_angles(self, budget, beams,
                                                  feeds_per_beam, log_radius,
                                                  spacing_factor, center_lat,
                                                  center_lon, pool, seed):
        radius = 10.0 ** log_radius
        layout = sp.hex_layout(beams, center_lat, center_lon, radius,
                               spacing_factor * radius,
                               feeds_per_beam=feeds_per_beam)
        users = sp.place_users(layout, pool, seed, budget=budget)
        assert np.array_equal(sp.build_gain_matrix(layout, users, budget),
                              build_gain_matrix_per_feed(layout, users, budget))

    def test_one_beam(self, budget):
        layout = sp.hex_layout(1, 47.0, 10.0, 0.25, 4.0)
        users = sp.place_users(layout, 3, 5, budget=budget)
        assert np.array_equal(sp.build_gain_matrix(layout, users, budget),
                              build_gain_matrix_per_feed(layout, users, budget))

    # The random layouts above fit in one row block of the gain matrix;
    # these span several.
    def test_wide_robust_pool_spans_several_blocks(self, tmp_path):
        path = _WORKLOADS.WORKLOADS["wide_robust"].write_config(
            0, tmp_path / "w.cfg")
        cfg = parse_config(path)
        budget = _build_budget(cfg)
        layout = _build_layout(cfg, budget)
        users = sp.place_users(layout, cfg.pool_per_beam, 11, budget=budget)
        rows = layout.beams * cfg.pool_per_beam
        assert rows // _GAIN_ROWS >= 2 and rows % _GAIN_ROWS > 0
        assert np.array_equal(sp.build_gain_matrix(layout, users, budget),
                              build_gain_matrix_per_feed(layout, users, budget))

    @pytest.mark.parametrize("beams, feeds_per_beam", [(7, 1), (7, 3), (1, 1)])
    def test_one_row_past_whole_blocks(self, budget, beams, feeds_per_beam):
        layout = sp.hex_layout(beams, 47.0, 10.0, 0.25, 4.0,
                               feeds_per_beam=feeds_per_beam)
        pool = next(p for p in itertools.count(_GAIN_ROWS // beams + 1)
                    if beams * p % _GAIN_ROWS == 1)
        users = sp.place_users(layout, pool, 5, budget=budget)
        assert np.array_equal(sp.build_gain_matrix(layout, users, budget),
                              build_gain_matrix_per_feed(layout, users, budget))


# Pools of up to 40 candidates: past 16 NumPy's default sort is no longer
# an insertion sort, so only a stable sort keeps tied candidates in order.
POOLS = st.tuples(st.integers(1, 6), st.integers(1, 40), st.integers(1, 6),
                  st.integers(1, 8), st.integers(0, 10_000), st.booleans())


def random_pool(beams, pool_size, feeds, seed, ties):
    """A random pool channel; with `ties`, entries in {-1, 0, 1} + 1j{-1, 0, 1},
    so equal scores are common and the tie-break order shows."""
    if not ties:
        return random_channel(beams, pool_size, feeds, seed=seed)
    rng = np.random.default_rng(seed)
    h = (rng.integers(-1, 2, (beams * pool_size, feeds))
         + 1j * rng.integers(-1, 2, (beams * pool_size, feeds)))
    return sp.ChannelMatrix(h=h, beams=beams, users_per_beam=pool_size)


class TestGroupingAndExtraction:
    @settings(deadline=None, max_examples=60)
    @given(POOLS)
    def test_random_pools_match_per_beam_loops(self, shape):
        beams, pool_size, feeds, q, seed, ties = shape
        q = min(q, pool_size)
        pool = random_pool(beams, pool_size, feeds, seed, ties)
        rng = np.random.default_rng(seed + 1)
        penalties = (rng.integers(0, 3, (beams, pool_size)).astype(float) if ties
                     else rng.uniform(0.0, 5.0, (beams, pool_size)))
        nominal = group_users(pool, q, rng_seed=seed)
        robust = robust_group_users(pool, penalties, q, rng_seed=seed)
        # grouping = none; a pool of q users is served whole, undrawn.
        uniform = _select_members(ScenarioConfig(grouping="none",
                                                 users_per_beam=q),
                                  pool, None, seed)
        assert np.array_equal(nominal, select_per_beam(pool, q, seed))
        assert np.array_equal(robust, select_per_beam(pool, q, seed, penalties))
        assert np.array_equal(uniform, select_uniform_per_beam(pool, q, seed))
        for members in (nominal, robust, uniform):
            assert np.array_equal(sp.extract_users(pool, members).h,
                                  extract_users_per_beam(pool, members).h)

    @settings(deadline=None, max_examples=60)
    @given(POOLS)
    def test_random_deltas_match_per_beam_bounds(self, shape):
        beams, pool_size, feeds, q, seed, _ = shape
        q = min(q, pool_size)
        rng = np.random.default_rng(seed)
        delta_pool = (rng.standard_normal((beams * pool_size, feeds))
                      + 1j * rng.standard_normal((beams * pool_size, feeds)))
        members = np.sort(rng.permuted(
            np.tile(np.arange(pool_size), (beams, 1)), axis=1)[:, :q], axis=1)
        delta = _served_rows(delta_pool, members)
        assert np.array_equal(
            delta, served_delta_per_beam(delta_pool, members, pool_size))
        got = sp.PerturbationBounds.from_delta(delta, beams, q)
        want = from_delta_per_beam(delta, beams, q)
        assert np.array_equal(got.gamma_k, want.gamma_k)
        assert np.array_equal(got.gamma_tilde_k, want.gamma_tilde_k)

    @pytest.mark.parametrize("score_bytes", [1, 3 * 5 * 4 * 16])
    def test_pools_scored_in_blocks_of_beams(self, monkeypatch, score_bytes):
        # One beam per pass, then passes of 3 beams over 7, the last one
        # short: every block must give the per-beam scores.
        monkeypatch.setattr(grouping, "_SCORE_BYTES", score_bytes)
        pool = random_pool(7, 5, 4, seed=11, ties=True)
        penalties = np.random.default_rng(12).integers(0, 3, (7, 5)).astype(float)
        assert np.array_equal(robust_group_users(pool, penalties, 3, rng_seed=2),
                              select_per_beam(pool, 3, 2, penalties))
        assert np.array_equal(group_users(pool, 4, rng_seed=3),
                              select_per_beam(pool, 4, 3))

    def test_one_beam(self):
        pool = random_channel(1, 6, 4, seed=3)
        penalties = np.linspace(0.0, 1.0, 6)[None]
        members = robust_group_users(pool, penalties, 3, rng_seed=2)
        assert np.array_equal(members, select_per_beam(pool, 3, 2, penalties))
        assert np.array_equal(sp.extract_users(pool, members).h,
                              extract_users_per_beam(pool, members).h)
        delta = pool.h[:3]
        got = sp.PerturbationBounds.from_delta(delta, 1, 3)
        want = from_delta_per_beam(delta, 1, 3)
        # The complement of the only beam is empty: its sum is 0.
        assert np.array_equal(got.gamma_tilde_k, [0.0])
        assert np.array_equal(got.gamma_k, want.gamma_k)
        assert np.array_equal(got.gamma_tilde_k, want.gamma_tilde_k)

    def test_delta_with_the_wrong_row_count_rejected(self):
        with pytest.raises(ConfigError, match="K\\*Q rows"):
            sp.PerturbationBounds.from_delta(np.ones((5, 2)), 2, 2)

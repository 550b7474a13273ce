"""The windowed user sampler keeps the one-attempt-per-call stream.

`place_users` draws up to `channel._WINDOW` rejection attempts in one
call while each attempt draws 16 points, and puts back the draws it did
not use. Its positions must equal `oracles.place_users_per_attempt`,
which draws one attempt per call, bit for bit: on the layouts of the
three benchmark workloads and the three shipped desk configs, for pool
sizes 1 to 25 (so the window switches on within a beam, or is on from
the start) and for the trial seeds a run draws. A caller's PCG64
generator must be left where the oracle leaves it, and the 200-attempt
limit must fall on the same attempt. The files under ``perfbench/`` are
only read.
"""

from importlib import resources

import numpy as np
import pytest

import satprecode as sp
from satprecode.channel import _WINDOW, beam_contours, place_users
from satprecode.config import parse_config
from satprecode.evaluate import _build_budget, _build_layout
from satprecode.exceptions import GeometryError

import oracles
from conftest import load_perfbench_workloads, record_calls

WORKLOADS = load_perfbench_workloads()

SHIPPED_CONFIGS = ("desk.cfg", "figure3_recipe.cfg", "gateway_desk.cfg")


def _workload_config(name, tmp_path):
    return parse_config(
        WORKLOADS.WORKLOADS[name].write_config(0, tmp_path / f"{name}.cfg"))


def _shipped_config(name):
    ref = resources.files("satprecode.data").joinpath(f"configs/{name}")
    with resources.as_file(ref) as path:
        return parse_config(path)


def _sampler_inputs(cfg):
    budget = _build_budget(cfg)
    layout = _build_layout(cfg, budget)
    return layout, budget, beam_contours(layout, budget)


def _outcome(sampler, *args, **kwargs):
    """The positions, or the message of a GeometryError."""
    try:
        return sampler(*args, **kwargs).positions
    except GeometryError as exc:
        return str(exc)


def _assert_same_draws(layout, budget, contours, pool, seed):
    kwargs = dict(budget=budget, contours=contours)
    fast = _outcome(place_users, layout, pool, seed, **kwargs)
    slow = _outcome(oracles.place_users_per_attempt, layout, pool, seed,
                    **kwargs)
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert np.array_equal(fast, slow)


def _assert_matches_oracle(cfg, seeds_per_pool, trial_seeds):
    layout, budget, contours = _sampler_inputs(cfg)
    for pool in range(1, 26):
        for seed in range(seeds_per_pool):
            _assert_same_draws(layout, budget, contours, pool, 1000 * pool + seed)
    # The users seeds of a run's first trials, at the configured pool.
    for trial_seed in np.random.SeedSequence(cfg.seed).spawn(trial_seeds):
        _assert_same_draws(layout, budget, contours, cfg.pool_per_beam,
                           trial_seed.spawn(4)[0])


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_positions_equal_one_attempt_per_call_on_every_workload(name, tmp_path):
    cfg = _workload_config(name, tmp_path)
    # wide_robust's 61 beams make each call about a hundred times dearer.
    wide = cfg.beams > 24
    _assert_matches_oracle(cfg, 1 if wide else 6, 10 if wide else 60)


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_positions_equal_one_attempt_per_call_on_the_shipped_configs(name):
    _assert_matches_oracle(_shipped_config(name), 6, 60)


def test_a_callers_generator_is_left_where_one_attempt_per_call_leaves_it(
        desk_layout, budget):
    for pool in (1, 3, 6, 13):
        for seed in range(8):
            fast_rng = np.random.default_rng(seed)
            slow_rng = np.random.default_rng(seed)
            fast = place_users(desk_layout, pool, fast_rng, budget=budget)
            slow = oracles.place_users_per_attempt(desk_layout, pool, slow_rng,
                                                   budget=budget)
            assert np.array_equal(fast.positions, slow.positions)
            assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def test_generators_that_cannot_advance_draw_one_attempt_per_call(
        desk_layout, budget):
    for seed in range(4):
        fast_rng = np.random.Generator(np.random.MT19937(seed))
        slow_rng = np.random.Generator(np.random.MT19937(seed))
        fast = place_users(desk_layout, 3, fast_rng, budget=budget)
        slow = oracles.place_users_per_attempt(desk_layout, 3, slow_rng,
                                               budget=budget)
        assert np.array_equal(fast.positions, slow.positions)
        assert np.array_equal(fast_rng.random(4), slow_rng.random(4))


def test_a_contour_that_accepts_no_samples_is_named(desk_layout, budget):
    # Beam 3's bore points away from the Earth, so none of its draws is
    # ever accepted; beams 0 to 2 fill first. A pool of 2 draws 16 points
    # per attempt, so every one of beam 3's attempts is in a window.
    halfwidths, bores = beam_contours(desk_layout, budget)
    bores = bores.copy()
    bores[3] = -bores[3]
    for sampler in (place_users, oracles.place_users_per_attempt):
        with pytest.raises(GeometryError,
                           match="^beam 3 contour accepts no samples"):
            sampler(desk_layout, 2, 7, budget=budget,
                    contours=(halfwidths, bores))


def test_the_attempt_limit_falls_on_the_same_attempt(budget, monkeypatch):
    # A one-beam box 32 times wider than it needs to be accepts about one
    # attempt in a hundred. These seeds make the one-attempt-per-call
    # oracle fill the beam at attempts 196 to 200, in the last window, or
    # give up at attempt 201.
    assert _WINDOW == 4
    seeds = {1: 196, 2478: 197, 79: 198, 7: 199, 451: 200, 5: None}
    layout = sp.hex_layout(1, 47.0, 10.0, 0.25, 4.0, budget=budget)
    halfwidths, bores = beam_contours(layout, budget)
    contours = (32.0 * halfwidths, bores)
    for seed, filled_at in seeds.items():
        with monkeypatch.context() as patch:
            calls = record_calls(patch, oracles.boresight_angle_deg)
            slow = _outcome(oracles.place_users_per_attempt, layout, 1, seed,
                            budget=budget, contours=contours)
        attempts = len(calls["boresight_angle_deg"])
        if filled_at is None:
            assert slow == ("beam 0 contour accepts no samples "
                            "(degenerate contour?)")
            assert attempts == 200
        else:
            assert attempts == filled_at
        _assert_same_draws(layout, budget, contours, 1, seed)

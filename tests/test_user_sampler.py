"""The windowed user sampler keeps the one-attempt-per-call stream.

`place_users` draws up to `channel._WINDOW` rejection attempts in one
call while each attempt draws 16 points, and puts back the draws it did
not use. A batch of seeds (`batch=True`) steps its trials through each
beam together, and a single seed is a batch of one. Each trial's
positions must equal `oracles.place_users_per_attempt`, which draws one
attempt per call, bit for bit. The pool grid (pools 1 to 25, so the
window switches on within a beam or is on from the start, at batch sizes
1, 2, 3 and 7) runs once per distinct sampler input among the three
benchmark workloads and the three shipped desk configs: configs that
share a layout, link budget and contour boxes draw the same positions
for a seed. Each config's run seeds are checked at its configured pool,
each seed in a call of its own and seven of them in one batch. Each
generator must be left where the oracle leaves it, the 200-attempt
limit must fall on the same attempt, and a failing batch must raise the
earliest failing trial's error, its later trials drawing no more;
without the flag a list is one NumPy seed. The files under
``perfbench/`` are only read.
"""

import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import satprecode as sp
from satprecode import geometry
from satprecode.channel import _WINDOW, beam_contours, place_users
from satprecode.config import parse_config
from satprecode.evaluate import _build_budget, _build_layout
from satprecode.exceptions import GeometryError

import oracles
from conftest import load_perfbench_workloads, record_calls

WORKLOADS = load_perfbench_workloads()

SHIPPED_CONFIGS = ("desk.cfg", "figure3_recipe.cfg", "gateway_desk.cfg")


def _configs():
    """Each workload's seed-0 config and each shipped desk config, parsed,
    by name."""
    configs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in sorted(WORKLOADS.WORKLOADS.items()):
            configs[name] = parse_config(
                workload.write_config(0, Path(tmp) / f"{name}.cfg"))
    for name in SHIPPED_CONFIGS:
        ref = resources.files("satprecode.data").joinpath(f"configs/{name}")
        with resources.as_file(ref) as path:
            configs[name] = parse_config(path)
    return configs


CONFIGS = _configs()


def _sampler_inputs(cfg):
    budget = _build_budget(cfg)
    layout = _build_layout(cfg, budget)
    return layout, budget, beam_contours(layout, budget)


def _distinct_sampler_inputs():
    """One case per distinct (layout, link budget, contour boxes), named
    after every config that has it."""
    groups = {}
    for name, cfg in CONFIGS.items():
        layout, budget, contours = inputs = _sampler_inputs(cfg)
        key = (budget, layout.feeds_per_beam, layout.beam_radius_3db_deg,
               *(a.tobytes() for a in (layout.beam_centers,
                                       layout.feed_boresights,
                                       layout.color_of_beam, *contours)))
        groups.setdefault(key, (inputs, []))[1].append(name)
    return [pytest.param(inputs, id="+".join(names))
            for inputs, names in groups.values()]


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


def _assert_run_seeds_match(cfg, trial_seeds):
    # The users seeds of a run's first trials, at the configured pool, each
    # in a call of its own.
    layout, budget, contours = _sampler_inputs(cfg)
    for trial_seed in np.random.SeedSequence(cfg.seed).spawn(trial_seeds):
        _assert_same_draws(layout, budget, contours, cfg.pool_per_beam,
                           trial_seed.spawn(4)[0])


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_positions_equal_one_attempt_per_call_on_every_workload(name):
    cfg = CONFIGS[name]
    # wide_robust's 61 beams make each call about a hundred times dearer.
    _assert_run_seeds_match(cfg, 10 if cfg.beams > 24 else 60)


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_positions_equal_one_attempt_per_call_on_the_shipped_configs(name):
    _assert_run_seeds_match(CONFIGS[name], 60)


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


BATCH_SIZES = (1, 2, 3, 7)


def _assert_batch_matches_each_seed(layout, budget, contours, pool, seeds):
    kwargs = dict(budget=budget, contours=contours)
    batch = place_users(layout, pool, seeds, batch=True, **kwargs)
    assert isinstance(batch, list) and len(batch) == len(seeds)
    for users, seed in zip(batch, seeds):
        assert np.array_equal(
            users.positions,
            oracles.place_users_per_attempt(layout, pool, seed, **kwargs).positions)


@pytest.mark.parametrize("inputs", _distinct_sampler_inputs())
def test_a_batch_gives_each_trial_its_own_positions_on_each_distinct_layout(
        inputs):
    layout, budget, contours = inputs
    # wide_robust's 61 beams make each call about a hundred times dearer:
    # each pool takes one of the batch sizes there.
    wide = layout.beams > 24
    for pool in range(1, 26):
        # Pools of 5 and more leave the trials of a step needing different
        # numbers of users, so they draw different n and windows.
        sizes = BATCH_SIZES[pool % 4:pool % 4 + 1] if wide else BATCH_SIZES
        for size in sizes:
            seeds = [100_000 * size + 1000 * pool + i for i in range(size)]
            _assert_batch_matches_each_seed(layout, budget, contours, pool, seeds)


@pytest.mark.parametrize("name", CONFIGS)
def test_a_batch_of_a_runs_users_seeds_gives_each_trial_its_own_positions(
        name):
    # The users seeds of a run's first trials, at the configured pool.
    cfg = CONFIGS[name]
    streams = np.random.SeedSequence(cfg.seed).spawn(7)
    _assert_batch_matches_each_seed(*_sampler_inputs(cfg), cfg.pool_per_beam,
                                    [stream.spawn(4)[0] for stream in streams])


def test_a_list_seed_without_the_batch_flag_is_one_numpy_seed(desk_layout,
                                                              budget):
    users = place_users(desk_layout, 3, [1, 2, 3], budget=budget)
    assert isinstance(users, sp.UserSet)
    alone = oracles.place_users_per_attempt(
        desk_layout, 3, np.random.default_rng([1, 2, 3]), budget=budget)
    assert np.array_equal(users.positions, alone.positions)


def test_a_batch_leaves_each_generator_where_one_attempt_per_call_leaves_it(
        desk_layout, budget):
    for pool in (1, 3, 6, 13):
        for size in BATCH_SIZES:
            seeds = range(10 * size, 11 * size)
            fast = [np.random.default_rng(seed) for seed in seeds]
            slow = [np.random.default_rng(seed) for seed in seeds]
            batch = place_users(desk_layout, pool, fast, budget=budget,
                                batch=True)
            for users, fast_rng, slow_rng in zip(batch, fast, slow):
                alone = oracles.place_users_per_attempt(desk_layout, pool,
                                                        slow_rng, budget=budget)
                assert np.array_equal(users.positions, alone.positions)
                assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def test_a_batch_mixes_generators_that_cannot_advance(desk_layout, budget):
    def generators():
        return [np.random.default_rng(1), np.random.Generator(np.random.MT19937(2)),
                np.random.default_rng(3)]

    fast, slow = generators(), generators()
    batch = place_users(desk_layout, 3, fast, budget=budget, batch=True)
    for users, fast_rng, slow_rng in zip(batch, fast, slow):
        alone = oracles.place_users_per_attempt(desk_layout, 3, slow_rng,
                                                budget=budget)
        assert np.array_equal(users.positions, alone.positions)
        assert np.array_equal(fast_rng.random(4), slow_rng.random(4))


def test_a_batch_raises_the_earliest_failing_trials_error(budget, monkeypatch):
    # Three beams, each box 32 times wider than it needs to be, so a beam
    # accepts about one attempt in a hundred and a pool of 2 often needs
    # more than 200 attempts. Find seeds that fail on their own at
    # different beams, and one that fills every beam.
    layout = sp.hex_layout(3, 47.0, 10.0, 0.25, 4.0, budget=budget)
    halfwidths, bores = beam_contours(layout, budget)
    kwargs = dict(budget=budget, contours=(32.0 * halfwidths, bores))
    alone = {seed: _outcome(place_users, layout, 2, seed, **kwargs)
             for seed in range(40)}
    failed_at = {seed: int(got.split()[1]) for seed, got in alone.items()
                 if isinstance(got, str)}
    filled = [seed for seed, got in alone.items() if not isinstance(got, str)]
    late = next(seed for seed, beam in failed_at.items() if beam > 0)
    early = next(seed for seed, beam in failed_at.items()
                 if beam < failed_at[late])
    assert filled
    # The earlier trial fails at a later beam than the trial after it.
    for seeds, want in (([filled[0], late, early], late),
                        ([late, early], late),
                        ([early, late], early),
                        ([filled[0], early], early)):
        for sampler in (place_users, oracles.place_users_per_attempt):
            assert _outcome(sampler, layout, 2, want, **kwargs) == alone[want]
        with pytest.raises(GeometryError) as exc:
            place_users(layout, 2, seeds, batch=True, **kwargs)
        assert str(exc.value) == alone[want]
    # A trial that fails at beam 0 stops the trial after it there: the
    # batch takes as many steps, one angle pass each, as that trial alone.
    first = next(seed for seed, beam in failed_at.items() if beam == 0)
    steps = []
    for seeds in ([first], [first, filled[0]]):
        with monkeypatch.context() as patch:
            calls = record_calls(patch, geometry.off_axis_deg)
            with pytest.raises(GeometryError, match="^beam 0 "):
                place_users(layout, 2, seeds, batch=True, **kwargs)
        steps.append(len(calls["off_axis_deg"]))
    assert steps[0] == steps[1]

"""The per-trial stages of a Monte Carlo batch run once per batch, and each
trial keeps its own bits.

A batch's users are drawn in one `place_users` call (tests/
test_user_sampler.py); its gains are built in one `build_gain_matrix`
call, whose 256-row blocks may cross trial boundaries, and each trial's
rows must equal `oracles.build_gain_matrix_per_feed`. The four-colour
SINRs of a batch's stacked true rows equal one call per trial. In the
design pass every rzf design of a group is one `_rzf_blocks` call and
every averaging precoder one `_avg_mmse_unscaled` call, and each design
equals a pass with that design alone. At or above the downdate
crossover one `gram_eigh` per view still serves rzf and the downdate.
"""

import numpy as np
import pytest

import satprecode as sp
import satprecode.evaluate
import satprecode.linalg
import satprecode.precoding
from satprecode.channel import (
    _GAIN_ROWS,
    ChannelMatrix,
    beam_contours,
    build_gain_matrix,
    place_users,
)
from satprecode.config import dbw_to_watts, parse_config
from satprecode.evaluate import _build_budget, _build_layout, run_monte_carlo
from satprecode.exceptions import ConfigError
from satprecode.linalg import _DOWNDATE_MIN_BEAMS, gram_eigh
from satprecode.precoding import (
    BlockDesign,
    assemble_multigateway_family,
    baseline_four_color,
)

import oracles
from conftest import (
    desk_channel,
    load_perfbench_workloads,
    random_channel,
    record_calls,
    trial_batches,
)

WORKLOADS = load_perfbench_workloads()


@pytest.mark.parametrize("beams, pool, trials", [
    # 140 rows a trial: the boundaries at rows 140 and 280 fall inside
    # the first and second blocks.
    (7, 20, 3),
    # 171 rows a trial, 513 in all: the last row is a one-row tail that
    # joins the block before it.
    (19, 9, 3),
])
def test_batch_gains_equal_each_trials_per_feed_oracle(budget, beams, pool,
                                                        trials):
    layout = sp.hex_layout(beams, 47.0, 10.0, 0.25, 4.0, budget=budget)
    rows = beams * pool
    assert any(0 < t * rows % _GAIN_ROWS for t in range(1, trials))
    users = place_users(layout, pool, range(trials), budget=budget,
                        batch=True)
    gains = build_gain_matrix(layout, users, budget)
    assert gains.shape == (trials * rows, layout.feeds)
    for t, user_set in enumerate(users):
        trial = gains[t * rows:(t + 1) * rows]
        assert np.array_equal(trial, build_gain_matrix(layout, user_set, budget))
        assert np.array_equal(
            trial, oracles.build_gain_matrix_per_feed(layout, user_set, budget))
    if beams == 19:
        assert trials * rows % _GAIN_ROWS == 1


def test_the_gain_matrix_rejects_a_set_of_another_layout(budget, desk_layout):
    other = sp.hex_layout(3, 47.0, 10.0, 0.25, 4.0, budget=budget)
    users = [place_users(desk_layout, 2, 1, budget=budget),
             place_users(other, 2, 2, budget=budget)]
    with pytest.raises(ConfigError, match="disagree on the number of beams"):
        build_gain_matrix(desk_layout, users, budget)


def test_four_color_on_stacked_rows_equals_one_call_per_trial(desk_layout,
                                                              budget):
    channels = [desk_channel(desk_layout, budget, 2, seed) for seed in range(5)]
    rows = np.stack([ch.h for ch in channels])
    p = np.array([10.0, 100.0, 1e3, 3e3])
    for power in (p, 100.0):
        stacked = baseline_four_color(rows, desk_layout, power)
        assert stacked.shape == (len(channels), *np.shape(power), 7, 2)
        for t, ch in enumerate(channels):
            assert np.array_equal(stacked[t],
                                  baseline_four_color(ch, desk_layout, power))


def _assert_pass_equals_each_design_alone(precoders, users_per_beam, p):
    family, codes = assemble_multigateway_family(precoders, users_per_beam, p)
    w = family.w.reshape(len(precoders), p.size, *family.w.shape[1:])
    alpha = family.alpha.reshape(len(precoders), p.size)
    for s, precoder in enumerate(precoders):
        alone, alone_codes = assemble_multigateway_family([precoder],
                                                          users_per_beam, p)
        assert np.array_equal(codes[s], alone_codes[0])
        assert np.array_equal(w[s], alone.w)
        assert np.array_equal(alpha[s], alone.alpha)


@pytest.mark.parametrize("beams, users, feeds", [
    (7, 2, 7),      # more users than feeds: the push-through form
    (4, 2, 12),     # fewer: the inverse of h h^H
    (1, 2, 5),      # one beam, nothing to null
])
def test_rzf_and_avg_mmse_of_several_trials_equal_each_design_alone(
        beams, users, feeds):
    channels = [random_channel(beams, users, feeds, seed) for seed in range(4)]
    precoders = []
    for ch in channels:
        precoders += [[BlockDesign(ch.h, range(beams), interbeam="rzf")], ch,
                      [BlockDesign(ch.h, range(beams))]]
    _assert_pass_equals_each_design_alone(precoders, users,
                                          np.array([1.0, 30.0, 1e4]))


def test_rzf_blocks_of_different_beam_ranges_share_one_call(monkeypatch):
    # Two blocks of three beams, each on its own three feeds of a view:
    # one group, one `_rzf_blocks` call, the two ranges starting at 0 and 3.
    views = [random_channel(6, 2, 6, seed).h for seed in range(3)]
    precoders = [[BlockDesign(v[:, :3], range(3), interbeam="rzf"),
                  BlockDesign(v[:, 3:], range(3, 6), interbeam="rzf")]
                 for v in views]
    p = np.array([5.0, 50.0])
    calls = record_calls(monkeypatch, satprecode.precoding._rzf_blocks)
    assemble_multigateway_family(precoders, 2, p)
    (views_in, beam_ids, *_), = calls["_rzf_blocks"]
    assert beam_ids.tolist() == [[0, 1, 2], [3, 4, 5]] * len(views)
    # Each design's blocks are its own beams' per-beam oracle blocks.
    blocks = satprecode.precoding._rzf_blocks(views_in, beam_ids, 2, p, gram_eigh)
    for m, (view, beams) in enumerate(zip(views_in, beam_ids)):
        ch = ChannelMatrix(h=view, beams=6, users_per_beam=2)
        for i, power in enumerate(p.tolist()):
            assert np.array_equal(blocks[i, m], oracles.rzf_stack_per_beam(
                ch, range(beams[0], beams[-1] + 1), power))
    _assert_pass_equals_each_design_alone(precoders, 2, p)


def test_a_batch_makes_one_rzf_and_one_avg_mmse_call(monkeypatch):
    cfg = sp.ScenarioConfig(beams=7, users_per_beam=2, pool_per_beam=2,
                            scenarios=("mbim", "rzf", "avg_mmse", "four_color"),
                            trials=5, power_sweep_dbw=(10.0, 20.0, 30.0), seed=5)
    batches = trial_batches(cfg)
    assert batches == [5]
    clean = run_monte_carlo(cfg)
    calls = record_calls(
        monkeypatch, satprecode.precoding._rzf_blocks,
        satprecode.precoding._avg_mmse_unscaled,
        satprecode.evaluate.baseline_four_color, satprecode.evaluate.place_users,
        satprecode.evaluate.build_gain_matrix)
    res = run_monte_carlo(cfg)
    assert np.array_equal(res.throughput, clean.throughput)
    assert {name: len(args) for name, args in calls.items()} == {
        "_rzf_blocks": 1, "_avg_mmse_unscaled": 1, "baseline_four_color": 1,
        "place_users": 1, "build_gain_matrix": 1}
    (views, *_), = calls["_rzf_blocks"]
    (estimates, _), = calls["_avg_mmse_unscaled"]
    assert len(views) == len(estimates) == cfg.trials


def test_one_gram_decomposition_per_view_serves_rzf_and_the_downdate(
        monkeypatch, tmp_path):
    path = WORKLOADS.WORKLOADS["wide_robust"].write_config(0, tmp_path / "w.cfg")
    cfg = parse_config(path)
    cfg.trials = 2
    assert cfg.beams >= _DOWNDATE_MIN_BEAMS
    assert {"mbim", "robust", "rzf"} <= set(cfg.scenarios)
    # Both trials in one batch.
    monkeypatch.setattr(satprecode.evaluate, "_BATCH_BYTES", 2**40)
    assert trial_batches(cfg) == [2]
    calls = record_calls(monkeypatch, satprecode.linalg.gram_eigh,
                         satprecode.precoding._rzf_blocks)
    assert run_monte_carlo(cfg).total_skipped() == 0
    (rzf_views, *_), = calls["_rzf_blocks"]
    decomposed = [view for view, in calls["gram_eigh"]]
    # One decomposition per trial's estimate: each rzf view is one of them.
    assert len(decomposed) == cfg.trials
    assert len({id(view) for view in decomposed}) == cfg.trials
    assert {id(view) for view in rzf_views} == {id(view) for view in decomposed}


def test_the_per_cell_oracle_draws_its_trial_as_a_one_seed_batch(monkeypatch,
                                                                tmp_path):
    path = WORKLOADS.WORKLOADS["desk_sweep"].write_config(0, tmp_path / "w.cfg")
    cfg = parse_config(path)
    budget = _build_budget(cfg)
    layout = _build_layout(cfg, budget)
    calls = record_calls(monkeypatch, satprecode.evaluate._batch_channels)
    seed = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    p_w = np.array([dbw_to_watts(p) for p in cfg.power_sweep_dbw])
    oracles.run_trial_per_cell(seed, cfg, layout, budget,
                               satprecode.evaluate._build_table(cfg),
                               satprecode.evaluate.gateway_plans(cfg, layout),
                               p_w, beam_contours(layout, budget))
    (seeds, *_), = calls["_batch_channels"]
    assert seeds == [seed]

"""A Monte Carlo run's trials go through the design pass in batches, and
no trial's bits depend on its batch.

Seven trials of the ``desk_sweep`` and ``gateway_coop`` benchmark
templates run in batches of 1, of 3 (3, 3 and 1) and of all 7, the cap
`evaluate._BATCH_BYTES` set to give each size: the throughput and the
skipped counts agree bit for bit. A failure code that the design pass
sets for one trial's averaging precoder at one power, or for one
trial's gateway scenario at every power, skips those cells and no other,
as when every trial runs alone; no exception skips a cell. The batch sizes of the shipped configs and the benchmark
workloads are pinned: the working-set estimate counts the pool gains a
batch draws at once, and that leaves them as they were. The files under
``perfbench/`` are only read.
"""

from importlib import resources

import numpy as np
import pytest

import satprecode.evaluate
from satprecode.config import parse_config
from satprecode.evaluate import _batch_trials, _trial_bytes, run_monte_carlo
from satprecode.exceptions import SINGULAR

from conftest import load_perfbench_workloads, trial_batches

WORKLOADS = load_perfbench_workloads()

TRIALS = 7
SIZES = (1, 3, TRIALS)


def _config(tmp_path, workload):
    path = WORKLOADS.WORKLOADS[workload].write_config(3, tmp_path / "w.cfg")
    cfg = parse_config(path)
    cfg.trials = TRIALS
    return cfg


def _runs(monkeypatch, cfg):
    """`run_monte_carlo(cfg)` in batches of each of `SIZES` trials."""
    args = (cfg, cfg.beams * cfg.feeds_per_beam, len(cfg.power_sweep_dbw))
    results = []
    for size in SIZES:
        monkeypatch.setattr(satprecode.evaluate, "_BATCH_BYTES",
                            size * _trial_bytes(*args))
        assert _batch_trials(*args) == size
        assert trial_batches(cfg) == [min(size, TRIALS - t)
                                      for t in range(0, TRIALS, size)]
        results.append(run_monte_carlo(cfg))
    return results


def _assert_batch_independent(results):
    alone, *batched = results
    for res in batched:
        assert np.array_equal(res.throughput, alone.throughput, equal_nan=True)
        assert np.array_equal(res.skipped, alone.skipped)


def _estimates(monkeypatch):
    """Records each trial's estimated channel as the run draws it:
    ``estimates[t]`` is trial t's in the run under way."""
    estimates = {}
    original = satprecode.evaluate._batch_channels

    def recorded(trial_seeds, *args):
        channels = original(trial_seeds, *args)
        # Trial t's seed is spawn t of the run's master seed.
        for seed, (_, est, _) in zip(trial_seeds, channels):
            estimates[seed.spawn_key[-1]] = est
        return channels

    monkeypatch.setattr(satprecode.evaluate, "_batch_channels", recorded)
    return estimates


@pytest.mark.parametrize("workload", ["desk_sweep", "gateway_coop"])
def test_trial_bits_do_not_depend_on_the_batch(tmp_path, monkeypatch,
                                               workload):
    results = _runs(monkeypatch, _config(tmp_path, workload))
    assert results[0].total_skipped() == 0
    _assert_batch_independent(results)


def test_failure_code_in_one_trial_skips_only_its_cell(tmp_path, monkeypatch):
    cfg = _config(tmp_path, "desk_sweep")
    estimates = _estimates(monkeypatch)
    original = satprecode.evaluate.assemble_multigateway_family
    bad_power = 10.0 ** 2.0

    def failing(precoders, users_per_beam, p, mode):
        # avg_mmse's design is the estimate it averages.
        pre, codes = original(precoders, users_per_beam, p, mode)
        for s, design in enumerate(precoders):
            if design is estimates.get(4):
                codes[s, p == bad_power] = SINGULAR
        return pre, codes

    monkeypatch.setattr(satprecode.evaluate, "assemble_multigateway_family",
                        failing)
    results = _runs(monkeypatch, cfg)
    _assert_batch_independent(results)
    s = cfg.scenarios.index("avg_mmse")
    i = cfg.power_sweep_dbw.index(20.0)
    expected = np.zeros_like(results[0].skipped)
    expected[s, i] = 1
    assert np.array_equal(results[0].skipped, expected)
    assert np.all(np.isnan(results[0].throughput[s, i, 4]))


def test_failure_code_in_one_trial_skips_only_its_gateway_scenario(
        tmp_path, monkeypatch):
    cfg = _config(tmp_path, "gateway_coop")
    estimates = _estimates(monkeypatch)
    original_designs = satprecode.evaluate._trial_designs
    original_family = satprecode.evaluate.assemble_multigateway_family
    icp = []  # trial 2's gw_icp blocks, one list per run

    def recorded(scenarios, ch_est, *args):
        designs = original_designs(scenarios, ch_est, *args)
        if ch_est is estimates.get(2):
            icp.append(designs["gw_icp"])
        return designs

    def failing(precoders, users_per_beam, p, mode):
        pre, codes = original_family(precoders, users_per_beam, p, mode)
        for s, design in enumerate(precoders):
            if any(design is blocks for blocks in icp):
                codes[s] = SINGULAR
        return pre, codes

    monkeypatch.setattr(satprecode.evaluate, "_trial_designs", recorded)
    monkeypatch.setattr(satprecode.evaluate, "assemble_multigateway_family",
                        failing)
    results = _runs(monkeypatch, cfg)
    assert len(icp) == len(SIZES)
    _assert_batch_independent(results)
    s = cfg.scenarios.index("gw_icp")
    expected = np.zeros_like(results[0].skipped)
    expected[s] = 1
    assert np.array_equal(results[0].skipped, expected)
    assert np.all(np.isnan(results[0].throughput[s, :, 2]))


def _shipped_config(name):
    ref = resources.files("satprecode.data").joinpath(f"configs/{name}")
    with resources.as_file(ref) as path:
        return parse_config(path)


@pytest.mark.parametrize("name, size", [
    ("desk.cfg", 20),
    ("figure3_recipe.cfg", 13),
    ("gateway_desk.cfg", 3),
    ("paper_scale.cfg", 1),
    # desk_sweep runs its 3 trials in one batch under a cap of 13.
    ("desk_sweep", 13),
    ("gateway_coop", 3),
    ("wide_robust", 1),
])
def test_batch_sizes(tmp_path, name, size):
    if name.endswith(".cfg"):
        cfg = _shipped_config(name)
    else:
        cfg = parse_config(WORKLOADS.WORKLOADS[name].write_config(
            0, tmp_path / "w.cfg"))
    feeds = cfg.beams * cfg.feeds_per_beam
    assert _batch_trials(cfg, feeds, len(cfg.power_sweep_dbw)) == size
    # Each pool row of a trial adds its 8-byte gains on every feed.
    before = _trial_bytes(cfg, feeds, len(cfg.power_sweep_dbw))
    cfg.pool_per_beam += 1
    assert (_trial_bytes(cfg, feeds, len(cfg.power_sweep_dbw)) - before
            == 8 * cfg.beams * feeds)

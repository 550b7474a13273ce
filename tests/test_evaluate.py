import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satprecode.channel
import satprecode.evaluate
import satprecode.gateway
import satprecode.linalg
import satprecode.precoding
from satprecode.channel import ChannelMatrix, beam_contours
from satprecode.config import ScenarioConfig, dbw_to_watts
from satprecode.evaluate import (
    ModcodTable,
    _build_budget,
    _build_layout,
    _build_table,
    _run_batch,
    beam_rate,
    gateway_plans,
    run_monte_carlo,
    sinr_matrix,
)
from satprecode.exceptions import ConfigError
from satprecode.io import write_results_csv
from satprecode.linalg import _DOWNDATE_MIN_BEAMS

import oracles
from conftest import random_channel, record_calls, trial_batches
from oracles import (
    bootstrap_mean_diff_quantiles,
    cell_skipped,
    cell_throughput,
)


@pytest.fixture(scope="module")
def table():
    return ModcodTable.default()


class TestModcodTable:
    def test_default_table_is_valid_and_sizeable(self, table):
        assert table.thresholds_db.size >= 8
        assert np.all(np.diff(table.thresholds_db) > 0)
        assert np.all(np.diff(table.efficiencies) >= 0)

    def test_boundary_threshold_inclusive(self, table):
        t0 = float(table.thresholds_db[0])
        assert table.efficiency(t0) == table.efficiencies[0]
        assert table.efficiency(t0 - 1e-9) == 0.0

    def test_outage_below_minimum(self, table):
        assert table.efficiency(-np.inf) == 0.0

    def test_saturation_at_high_snir(self, table):
        assert table.efficiency(50.0) == table.efficiencies[-1]

    def test_unsorted_rows_are_sorted_on_load(self):
        t = ModcodTable.from_rows([(5.0, 2.0), (-1.0, 1.0)])
        assert list(t.thresholds_db) == [-1.0, 5.0]

    def test_nonmonotone_efficiency_rejected(self):
        with pytest.raises(ConfigError):
            ModcodTable.from_rows([(0.0, 2.0), (1.0, 1.0)])

    def test_duplicate_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            ModcodTable.from_rows([(0.0, 1.0), (0.0, 2.0)])

    @settings(deadline=None, max_examples=50)
    @given(st.floats(-30, 40), st.floats(0, 10))
    def test_monotone_lookup(self, snir, delta):
        t = ModcodTable.default()
        assert t.efficiency(snir + delta) >= t.efficiency(snir)


class TestSinr:
    def test_single_beam_has_no_interference(self):
        ch = random_channel(1, 2, 3, seed=0)
        w = np.ones((3, 1), dtype=complex)
        s = sinr_matrix(ch, w)[0, 0]
        expected = abs(ch.h[0] @ w[:, 0]) ** 2
        assert s == pytest.approx(expected, rel=1e-12)

    def test_nulled_interference_equals_single_beam(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        ch = ChannelMatrix(h=h, beams=2, users_per_beam=1)
        w = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        s = sinr_matrix(ch, w)
        assert np.allclose(s, 1.0 / 1.0)

    def test_two_beam_hand_case(self):
        # User channel (1, 0); own column (1, 0); interferer (1, 1)/sqrt2.
        h = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        ch = ChannelMatrix(h=h, beams=2, users_per_beam=1)
        w = np.array([[1.0, 1.0 / np.sqrt(2)], [0.0, 1.0 / np.sqrt(2)]],
                     dtype=complex)
        s = sinr_matrix(ch, w)[0, 0]
        assert s == pytest.approx(1.0 / (0.5 + 1.0), rel=1e-12)

    def test_energy_bookkeeping(self):
        ch = random_channel(4, 2, 5, seed=1)
        rng = np.random.default_rng(2)
        w = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        amps = np.abs(ch.h @ w) ** 2
        beam_of_row = np.repeat(np.arange(4), 2)
        intended = amps[np.arange(8), beam_of_row]
        interference = amps.sum(axis=1) - intended
        total_columns = sum(
            np.linalg.norm(ch.h @ w[:, j]) ** 2 for j in range(4)
        )
        assert np.sum(interference) == pytest.approx(
            total_columns - np.sum(intended), rel=1e-9
        )


class TestBeamRate:
    def test_outage_gives_zero_rate(self, table, budget):
        assert beam_rate([1e-9], table, budget) == 0.0

    def test_equal_sinrs_match_single_user(self, table, budget):
        one = beam_rate([10.0], table, budget)
        many = beam_rate([10.0, 10.0, 10.0], table, budget)
        assert one == many

    def test_hand_rate_800_mbps(self, budget):
        # 500 MHz, roll-off 0.25, efficiency 2: 500e6 / 1.25 * 2.
        t = ModcodTable.from_rows([(0.0, 2.0)])
        rate = beam_rate([10.0], t, budget)
        assert rate == pytest.approx(800e6, rel=1e-12)

    def test_quarter_band_factor(self, table, budget):
        full = beam_rate([100.0], table, budget)
        quarter = beam_rate([100.0], table, budget, bandwidth_factor=0.25)
        assert quarter == pytest.approx(full / 4, rel=1e-12)

    def test_min_rate_dominance(self, table, budget):
        rng = np.random.default_rng(3)
        sinrs = rng.uniform(0.1, 1000.0, 5)
        beam = beam_rate(sinrs, table, budget)
        for s in sinrs:
            assert beam <= beam_rate([s], table, budget) + 1e-9

    def test_beam_by_user_array_gives_one_rate_per_beam(self, table, budget):
        rng = np.random.default_rng(4)
        sinrs = rng.uniform(0.1, 1000.0, (4, 3))
        rates = beam_rate(sinrs, table, budget, bandwidth_factor=0.25)
        assert rates.shape == (4,)
        for k in range(4):
            single = beam_rate(sinrs[k], table, budget, bandwidth_factor=0.25)
            assert isinstance(single, float)
            assert rates[k] == single

    def test_empty_sinrs_rejected(self, table, budget):
        with pytest.raises(ConfigError):
            beam_rate([], table, budget)

    def test_nan_sinr_is_not_paid(self, table, budget):
        # Not a modelled failure: the run must crash, not skip or pay.
        with pytest.raises(FloatingPointError, match="NaN SINR"):
            beam_rate([[10.0, 10.0], [np.nan, 10.0]], table, budget)


def small_config(**overrides):
    base = dict(
        beams=7, users_per_beam=2, pool_per_beam=2,
        scenarios=("mbim", "four_color"),
        trials=8, power_sweep_dbw=(25.0,), seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestMonteCarlo:
    def test_zero_trials_gives_empty_aggregate(self):
        res = run_monte_carlo(small_config(trials=0))
        assert res.trials == 0
        assert res.throughput.shape == (2, 1, 0, 7)
        stats = res.statistics()
        assert stats.beam_mean.shape == stats.beam_std.shape == (2, 1, 7)
        assert stats.curve_mean.shape == stats.curve_std.shape == (2, 1)
        for arr in (stats.beam_mean, stats.beam_std, stats.curve_mean,
                    stats.curve_std):
            assert np.all(np.isnan(arr))

    def test_fixed_seed_bit_identical(self):
        a = run_monte_carlo(small_config())
        b = run_monte_carlo(small_config())
        assert np.array_equal(a.throughput, b.throughput, equal_nan=True)

    def test_trial_alone_equals_its_row_of_the_run(self):
        # Each trial draws only from its own spawned seed stream, so trial 2
        # run on its own gives the bits of row 2 of the whole run.
        cfg = small_config(trials=4, pool_per_beam=4, grouping="robust",
                           csi_error_ratio=0.05, power_sweep_dbw=(25.0, 35.0),
                           scenarios=("mbim", "robust", "rzf", "gw_icp"),
                           gateways=2)
        res = run_monte_carlo(cfg)
        budget = _build_budget(cfg)
        layout = _build_layout(cfg, budget)
        p_w = np.array([dbw_to_watts(p) for p in cfg.power_sweep_dbw])
        rows = _run_batch(np.random.SeedSequence(cfg.seed).spawn(4)[2:3], cfg,
                          layout, budget, _build_table(cfg),
                          gateway_plans(cfg, layout), p_w,
                          beam_contours(layout, budget))[:, :, 0]
        assert rows.shape == (4, 2, 7)
        assert np.all(np.isfinite(rows))
        assert np.array_equal(rows, res.throughput[:, :, 2])

    def test_failing_scenario_counts_skips(self):
        # A gateway per beam under no cooperation cannot precode at all.
        cfg = small_config(
            beams=7, gateways=7, scenarios=("mbim", "gw_icp"), trials=4
        )
        res = run_monte_carlo(cfg)
        assert cell_skipped(res, "gw_icp", 25.0) == 4
        assert cell_skipped(res, "mbim", 25.0) == 0
        assert np.all(np.isnan(cell_throughput(res, "gw_icp", 25.0)))

    def test_unmodelled_exception_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("design bug")

        # mbim is designed in the stacked pass of the trial.
        monkeypatch.setattr(satprecode.evaluate, "assemble_multigateway_family",
                            broken)
        with pytest.raises(TypeError, match="design bug"):
            run_monte_carlo(small_config(trials=1))

    def test_linalg_error_in_a_batch_propagates(self, monkeypatch):
        # Only the design pass's failure codes skip cells: a LAPACK error
        # in the stacked rzf kernel of a batch of trials is a bug, and it
        # leaves the run rather than coming back as skipped cells.
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(satprecode.precoding, "_rzf_blocks", singular)
        cfg = small_config(scenarios=("mbim", "rzf", "four_color"), trials=4)
        assert trial_batches(cfg) == [4]
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            run_monte_carlo(cfg)

    def test_linalg_error_in_the_csi_exchange_propagates(self, monkeypatch):
        # A CSI exchange that fails (an msvdgc SVD that does not converge)
        # is not a modelled failure: it leaves the run rather than skipping
        # the gateway scenario's cells.
        def broken(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(satprecode.evaluate, "share_csi", broken)
        cfg = small_config(beams=12, gateways=3, scenarios=("mbim", "gw_icp"),
                           trials=2, power_sweep_dbw=(40.0, 45.0))
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            run_monte_carlo(cfg)

    @staticmethod
    def _robust_trial_eigh_shapes(monkeypatch, beams):
        """Shapes of every `eigh_sorted` call in a one-trial mbim + robust
        run on estimated CSI."""
        calls = record_calls(monkeypatch, satprecode.linalg.eigh_sorted)
        cfg = small_config(
            beams=beams, scenarios=("mbim", "robust"), trials=1,
            pool_per_beam=6, grouping="robust", csi_error_ratio=0.1,
            power_sweep_dbw=(25.0, 30.0),
        )
        assert run_monte_carlo(cfg).total_skipped() == 0
        return [a.shape for a, in calls["eigh_sorted"]]

    def test_each_beam_gram_decomposed_once_per_trial(self, monkeypatch):
        # One stacked call over the 7 beams, one 7 x 7 Gram matrix each,
        # which mbim and robust share.
        shapes = self._robust_trial_eigh_shapes(monkeypatch, 7)
        assert shapes == [(7, 7, 7)]

    def test_one_gram_decomposition_per_estimate_above_the_crossover(
            self, monkeypatch):
        # Every beam's Gram tail comes from one decomposition of H^H H.
        shapes = self._robust_trial_eigh_shapes(monkeypatch, 37)
        assert _DOWNDATE_MIN_BEAMS <= 37
        assert shapes == [(37, 37)]

    def test_gateway_views_and_decompositions_shared_across_powers(
            self, monkeypatch):
        scenarios = ("gw_ref", "gw_closest:1", "gw_icp", "gw_msvdgc")
        counts = []
        for powers in ((40.0,), (40.0, 45.0)):
            with monkeypatch.context() as mp:
                calls = record_calls(
                    mp, satprecode.linalg.eigh_sorted,
                    satprecode.evaluate.share_csi,
                    satprecode.gateway.assemble_multigateway_precoder)
                cfg = small_config(beams=12, gateways=3, scenarios=scenarios,
                                   trials=2, power_sweep_dbw=powers)
                assert run_monte_carlo(cfg).total_skipped() == 0
            counts.append({name: len(args) for name, args in calls.items()})
            counts[-1]["eigh_sorted"] = [a.shape for a, in calls["eigh_sorted"]]
        # One exchange per (trial, scenario) and, for the batch of both
        # trials, one stacked decomposition per view shape, whatever the
        # number of power points: each trial's 12 beams of gw_ref's one
        # 12-feed view, and the 4 own beams of each 4-feed view of the other
        # three scenarios' 3 gateways. No scenario is designed on its own.
        expected = {"share_csi": 2 * len(scenarios),
                    "eigh_sorted": [(2 * 12, 12, 12), (2 * 3 * 3 * 4, 4, 4)],
                    "assemble_multigateway_precoder": 0}
        assert counts == [expected, expected]

    def test_failing_gateway_scenario_leaves_the_others_bit_for_bit(
            self, monkeypatch):
        # gw_icp's gateway 1 does not see its own beam 5, so its design
        # fails at every power; the stacked pass over all gateway
        # scenarios skips those cells and no other, as designing each cell
        # on its own does.
        scenarios = ("mbim", "gw_ref", "gw_icp", "gw_closest:1", "gw_msvdgc")
        cfg = small_config(beams=12, gateways=3, scenarios=scenarios,
                           trials=3, power_sweep_dbw=(40.0, 45.0))
        clean = run_monte_carlo(cfg)
        original = satprecode.evaluate.share_csi

        def blind_icp(ch, plan):
            views = original(ch, plan)
            if plan.mode == "icp":
                views[1] = views[1].copy()
                views[1][10:12] = 0.0
            return views

        monkeypatch.setattr(satprecode.evaluate, "share_csi", blind_icp)
        failing = run_monte_carlo(cfg)

        oracle = record_calls(monkeypatch, oracles.run_trial_per_cell)
        monkeypatch.setattr(satprecode.evaluate, "_run_batch",
                            oracles.run_batch_per_cell)
        per_scenario = run_monte_carlo(cfg)
        assert len(oracle["run_trial_per_cell"]) == cfg.trials
        assert np.array_equal(failing.skipped, per_scenario.skipped)
        assert failing.skipped.tolist() == [
            [3 if name == "gw_icp" else 0] * len(cfg.power_sweep_dbw)
            for name in scenarios]
        assert np.array_equal(failing.throughput, per_scenario.throughput,
                              equal_nan=True)
        for s, name in enumerate(scenarios):
            if name != "gw_icp":
                assert np.array_equal(failing.throughput[s],
                                      clean.throughput[s])

    def test_contour_boxes_worked_out_once_per_run(self, monkeypatch):
        calls = record_calls(monkeypatch,
                             satprecode.channel._ground_halfwidths_deg)
        assert run_monte_carlo(small_config(trials=4)).total_skipped() == 0
        assert len(calls["_ground_halfwidths_deg"]) == 1

    def test_robust_and_grouping_scenarios_run(self):
        cfg = small_config(
            scenarios=("mbim", "robust"), trials=4, pool_per_beam=6,
            grouping="nominal", csi_error_ratio=0.1,
        )
        res = run_monte_carlo(cfg)
        for name in ("mbim", "robust"):
            assert cell_skipped(res, name, 25.0) == 0
            assert np.all(np.isfinite(cell_throughput(res, name, 25.0)))

    def test_gateway_scenarios_run(self):
        cfg = small_config(
            beams=12, gateways=3,
            scenarios=("gw_ref", "gw_icp", "gw_closest:1", "gw_msvdgc"),
            trials=3, power_sweep_dbw=(40.0,),
        )
        res = run_monte_carlo(cfg)
        assert res.total_skipped() == 0

    def test_csv_rows_schema(self, tmp_path):
        res = run_monte_carlo(small_config(trials=3))
        path = tmp_path / "results.csv"
        write_results_csv(res, res.statistics(), path)
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["scenario", "p_total_dbw", "beam",
                          "mean_throughput_bps", "std_throughput_bps",
                          "trials", "skipped"]
        assert len(rows) == 2 * 1 * 7
        scenario, p, beam, mean, std, trials, skipped = rows[0]
        assert scenario == "mbim"
        assert float(p) == 25.0 and beam == "0"
        assert (trials, skipped) == ("3", "0")
        assert float(mean) > 0.0 and float(std) >= 0.0


class TestBootstrap:
    def test_clear_separation_detected(self):
        rng = np.random.default_rng(4)
        a = rng.normal(10.0, 1.0, 200)
        b = rng.normal(9.0, 1.0, 200)
        lo, hi = bootstrap_mean_diff_quantiles(a, b, (0.05, 0.95), seed=1)
        assert lo > 0.0

    def test_nan_rows_dropped_jointly(self):
        a = np.array([1.0, np.nan, 3.0, 4.0])
        b = np.array([0.5, 1.0, np.nan, 3.0])
        lo, hi = bootstrap_mean_diff_quantiles(a, b, (0.05, 0.95), seed=2)
        assert np.isfinite(lo) and np.isfinite(hi)

    def test_all_nan_rejected(self):
        with pytest.raises(ConfigError):
            bootstrap_mean_diff_quantiles(
                np.array([np.nan]), np.array([1.0]), (0.05, 0.95)
            )

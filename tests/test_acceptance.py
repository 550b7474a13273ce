"""Acceptance suite: one test per release criterion.

Each test prints a [PASS] line once its criterion holds at the stated
tolerance. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest
import scipy.linalg

import satprecode as sp
from satprecode.channel import PerturbationBounds
from satprecode.config import ScenarioConfig
from satprecode.evaluate import run_monte_carlo
from satprecode.gateway import (
    assemble_multigateway_precoder,
    make_plan,
    overhead_per_gateway,
    share_csi,
)
from satprecode.grouping import group_users, robust_group_users
from satprecode.linalg import eigh_sorted
from satprecode.precoding import (
    baseline_avg_mmse,
    four_color_precoder,
    intrabeam,
    two_stage,
)
from satprecode.robust import robust_two_stage

from conftest import acceptance_corpus, perturbed, random_channel
from oracles import (
    bootstrap_mean_diff_quantiles,
    excluding,
    feed_powers,
    first_order_eigvecs,
    mbim_block,
    random_unitary,
    rzf_null_basis,
    total_power,
    weyl_upper_bound,
)


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus()


def test_criterion_01_mbim_whitening_identity(corpus):
    started = time.perf_counter()
    worst = 0.0
    for ch, p in corpus:
        reg = ch.beams * ch.users_per_beam / p
        for k in range(ch.beams):
            wa = mbim_block(ch, k, p)
            other = excluding(ch, k)
            gram = other.conj().T @ other + reg * np.eye(ch.feeds)
            err = np.max(np.abs(wa.conj().T @ gram @ wa
                                - np.eye(ch.users_per_beam)))
            worst = max(worst, float(err))
    elapsed = time.perf_counter() - started
    assert worst < 1e-8
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 1: whitening identity, worst residual "
          f"{worst:.2e} over 100 channels in {elapsed:.2f}s")


def test_criterion_02_rzf_null_space_residual(corpus):
    worst = 0.0
    for ch, p in corpus:
        kq = ch.beams * ch.users_per_beam
        reg = ch.h @ ch.h.conj().T + (kq / p) * np.eye(kq)
        for k in range(ch.beams):
            basis = rzf_null_basis(ch, k, p)
            assert basis.shape == (kq, ch.users_per_beam)
            reduced = np.delete(reg, ch.beam_rows(k), axis=0)
            err = np.linalg.norm(reduced @ basis) / np.linalg.norm(reduced)
            worst = max(worst, float(err))
    assert worst <= 1e-8
    print(f"\n[PASS] criterion 2: null-space residual, worst {worst:.2e}")


def test_criterion_03_power_constraints_all_kinds(desk_layout, budget):
    from conftest import desk_channel

    ch7 = desk_channel(desk_layout, budget, 2, seed=300)
    ch12 = random_channel(12, 2, 12, seed=301)
    plan_icp = make_plan(12, 12, 2, 3, "icp")
    plan_c = make_plan(12, 12, 2, 3, "closest", closest_c=2)
    plan_m = make_plan(12, 12, 2, 3, "msvdgc")
    _, bounds = perturbed(ch7, 0.1, 7)
    p = 12.0
    checked = 0
    for mode in ("per_feed", "total"):
        precoders = [
            two_stage(ch7, p, mode, "mbim"),
            two_stage(ch7, p, mode, "rzf"),
            baseline_avg_mmse(ch7, p, mode),
            robust_two_stage(ch7, bounds, p, mode),
            assemble_multigateway_precoder(
                share_csi(ch12, plan_icp), plan_icp, p, mode=mode),
            assemble_multigateway_precoder(
                share_csi(ch12, plan_c), plan_c, p, mode=mode),
            assemble_multigateway_precoder(
                share_csi(ch12, plan_m), plan_m, p, mode=mode),
        ]
        for pre in precoders:
            if mode == "per_feed":
                n = pre.w.shape[0]
                assert abs(np.max(feed_powers(pre.w)) - p / n) <= 1e-9 * (p / n)
                assert np.all(feed_powers(pre.w) <= (p / n) * (1 + 1e-9))
            else:
                assert abs(total_power(pre.w) - p) <= 1e-9 * p
            checked += 1
    four = four_color_precoder(desk_layout, p)
    assert abs(np.max(feed_powers(four.w)) - p / 7) <= 1e-9 * (p / 7)
    assert abs(total_power(four.w) - p) <= 1e-9 * p
    checked += 1
    print(f"\n[PASS] criterion 3: power constraints tight on {checked} "
          "precoders across both modes")


def test_criterion_04_intrabeam_optimality(corpus):
    rng = np.random.default_rng(4)
    checked = 0
    for ch, p in corpus[:25]:
        wa = sp.mbim_interbeam(ch, p)
        q = ch.users_per_beam
        for k in range(ch.beams):
            z = ch.beam(k) @ wa[:, k * q:(k + 1) * q]
            w = intrabeam(z)
            best = np.linalg.norm(z @ w) ** 2
            sigma_sq = np.linalg.svd(z, compute_uv=False)[0] ** 2
            assert abs(best - sigma_sq) <= 1e-10 * sigma_sq
            probes = rng.standard_normal((1000, q)) \
                + 1j * rng.standard_normal((1000, q))
            probes /= np.linalg.norm(probes, axis=1, keepdims=True)
            probe_best = np.max(np.linalg.norm(probes @ z.T, axis=1) ** 2)
            assert probe_best <= best * (1 + 1e-12)
            checked += 1
    print(f"\n[PASS] criterion 4: intra-beam optimality on {checked} beams, "
          "1000 random probes each")


def test_criterion_05_robust_nominal_continuity():
    for seed in range(5):
        k = 3 + seed % 3
        ch = random_channel(k, 2, min(2 * (k - 1), k + 2), seed=500 + seed)
        bounds = PerturbationBounds.zero(k)
        robust = robust_two_stage(ch, bounds, 6.0, "per_feed")
        nominal = two_stage(ch, 6.0, "per_feed", "mbim")
        assert np.array_equal(robust.w, nominal.w)
        assert np.array_equal(robust.wa, nominal.wa)
        assert np.array_equal(robust.wb, nominal.wb)
        assert robust.alpha == nominal.alpha
    print("\n[PASS] criterion 5: zero-uncertainty robust pipeline "
          "bit-identical to nominal on 5 instances")


def test_criterion_06_first_order_error_ratio():
    delta = 1e-2
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(600 + seed)
        lam = np.sort(rng.uniform(0.5, 10.0, 6))[::-1]
        lam += np.arange(6, 0, -1) * 0.8     # enforce healthy gaps
        v = random_unitary(6, rng)
        a = (v * lam) @ v.conj().T
        e = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        e = (e + e.conj().T) / 2
        e /= np.linalg.norm(e)
        eig = eigh_sorted(a)

        def model_error(d):
            model = first_order_eigvecs(eig, d * e)
            exact = eigh_sorted(a + d * e).eigenvectors
            return float(np.max(
                scipy.linalg.subspace_angles(model[:, :3], exact[:, :3])
            ))

        ratios.append(model_error(delta) / model_error(delta / 2))
    ratios = np.array(ratios)
    assert np.all(ratios >= 3.0) and np.all(ratios <= 5.0)
    print(f"\n[PASS] criterion 6: error ratios in [{ratios.min():.2f}, "
          f"{ratios.max():.2f}] on 20 cases (target [3, 5])")


def test_criterion_07_weyl_soundness():
    rng = np.random.default_rng(7)
    violations = 0
    for _ in range(50):
        x = rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
        gram = x.conj().T @ x
        lam = np.linalg.eigvalsh(gram)[::-1]
        e = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        e = (e + e.conj().T) / 2
        eps = float(np.linalg.norm(e, 2))
        bound = weyl_upper_bound(lam, eps)
        perturbed = np.linalg.eigvalsh(gram + e)[::-1]
        violations += int(np.any(perturbed > bound + 1e-10 * max(1.0, lam[0])))
    assert violations == 0
    print("\n[PASS] criterion 7: Weyl bound held in 50/50 trials")


def test_criterion_08_overhead_formulas_exact():
    rng = np.random.default_rng(8)
    cases = [(14, 2, 17, 17)]
    while len(cases) < 20:
        g = int(rng.integers(2, 12))
        q = int(rng.integers(1, 4))
        k_g = int(rng.integers(1, 20))
        cases.append((g, q, k_g, k_g))
    for g, q, k_g, n_g in cases:
        beams = g * k_g
        full = make_plan(beams, beams, q, g, "closest", closest_c=g - 1)
        assert np.all(overhead_per_gateway(full) == (g - 1) * q * k_g * n_g)
        c = int(rng.integers(1, g))
        partial = make_plan(beams, beams, q, g, "closest", closest_c=c)
        assert np.all(overhead_per_gateway(partial) == c * q * k_g * n_g)
        compressed = make_plan(beams, beams, q, g, "msvdgc")
        assert np.all(overhead_per_gateway(compressed) == (g - 1) * n_g)
    paper_point = make_plan(238, 238, 2, 14, "closest", closest_c=13)
    assert overhead_per_gateway(paper_point)[0] == 7514
    print("\n[PASS] criterion 8: overhead counters equal the closed forms "
          "on 20 tuples (incl. 13*2*17*17 = 7514)")


def test_criterion_09_grouping_invariance_under_uniform_penalty():
    rng = np.random.default_rng(9)
    for trial in range(500):
        beams = int(rng.integers(1, 4))
        pool = int(rng.integers(2, 13))
        q = int(rng.integers(1, pool + 1))
        feeds = int(rng.integers(2, 7))
        ch = random_channel(beams, pool, feeds, seed=90_000 + trial)
        seed = int(rng.integers(0, 2**32))
        gamma = float(rng.uniform(0.0, 10.0))
        nominal = group_users(ch, q, seed)
        uniform = robust_group_users(ch, np.full((beams, pool), gamma), q, seed)
        assert np.array_equal(np.sort(nominal, 1), np.sort(uniform, 1))
    print("\n[PASS] criterion 9: uniform-penalty grouping matched nominal "
          "on 500/500 random pools")


@pytest.fixture(scope="module")
def figure3_result():
    cfg = ScenarioConfig(
        beams=7, users_per_beam=2, pool_per_beam=2,
        scenarios=("mbim", "rzf", "avg_mmse", "four_color"),
        trials=500, power_sweep_dbw=(25.0, 30.0), seed=10,
    )
    started = time.perf_counter()
    result = run_monte_carlo(cfg)
    return result, time.perf_counter() - started


def test_criterion_10_scheme_ordering_with_bootstrap(figure3_result):
    result, elapsed = figure3_result
    assert elapsed < 300.0
    order = ("mbim", "rzf", "avg_mmse", "four_color")
    for p in result.power_dbw:
        means = {s: result.trial_means(s, p) for s in order}
        for hi, lo in zip(order, order[1:]):
            q05 = bootstrap_mean_diff_quantiles(
                means[hi], means[lo], (0.05,), n_boot=2000, seed=100
            )[0]
            assert q05 > 0.0, f"{hi} vs {lo} at {p} dBW: 5th pct {q05:.3g}"
    summary = ", ".join(
        f"{s}={np.nanmean(result.trial_means(s, 30.0)) / 1e6:.0f}M"
        for s in order
    )
    print(f"\n[PASS] criterion 10: ordering confirmed at 95% bootstrap at "
          f"25 and 30 dBW ({summary}); 500 trials in {elapsed:.0f}s")


def test_criterion_11_gateway_cooperation_monotonicity():
    cfg = ScenarioConfig(
        beams=12, users_per_beam=2, pool_per_beam=2,
        scenarios=("gw_ref", "gw_closest:2", "gw_closest:1", "gw_icp",
                   "gw_msvdgc"),
        trials=400, power_sweep_dbw=(40.0, 45.0), seed=11, gateways=3,
    )
    result = run_monte_carlo(cfg)
    assert result.total_skipped() == 0
    chain = ("gw_ref", "gw_closest:2", "gw_closest:1", "gw_icp")
    for p in result.power_dbw:
        means = {s: result.trial_means(s, p) for s in result.scenarios}
        for hi, lo in zip(chain, chain[1:]):
            q05 = bootstrap_mean_diff_quantiles(
                means[hi], means[lo], (0.05,), n_boot=2000, seed=110
            )[0]
            assert q05 > 0.0, f"{hi} vs {lo} at {p} dBW: 5th pct {q05:.3g}"
        for hi, lo in (("gw_msvdgc", "gw_icp"), ("gw_ref", "gw_msvdgc")):
            q05 = bootstrap_mean_diff_quantiles(
                means[hi], means[lo], (0.05,), n_boot=2000, seed=111
            )[0]
            assert q05 > 0.0, f"{hi} vs {lo} at {p} dBW: 5th pct {q05:.3g}"
    summary = ", ".join(
        f"{s}={np.nanmean(result.trial_means(s, 45.0)) / 1e6:.0f}M"
        for s in result.scenarios
    )
    print(f"\n[PASS] criterion 11: cooperation monotone and rank-1 sharing "
          f"between the extremes at 40 and 45 dBW ({summary})")


def test_criterion_12_grouping_gain_over_random_selection():
    common = dict(
        beams=7, users_per_beam=2, pool_per_beam=50,
        scenarios=("mbim",), trials=300, power_sweep_dbw=(25.0,), seed=12,
    )
    grouped = run_monte_carlo(ScenarioConfig(grouping="nominal", **common))
    random_pick = run_monte_carlo(ScenarioConfig(grouping="none", **common))
    a = grouped.trial_means("mbim", 25.0)
    b = random_pick.trial_means("mbim", 25.0)
    q05 = bootstrap_mean_diff_quantiles(a, b, (0.05,), n_boot=2000, seed=120)[0]
    assert q05 > 0.0
    print(f"\n[PASS] criterion 12: grouped {np.nanmean(a)/1e6:.0f}M vs random "
          f"{np.nanmean(b)/1e6:.0f}M over a 50-user pool, gap 5th pct "
          f"{q05/1e6:.1f}M > 0")


def test_criterion_13_end_to_end_determinism(tmp_path):
    import subprocess
    import sys

    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "[channel]\nbeams = 7\nusers_per_beam = 2\n\n"
        "[run]\nscenarios = mbim, four_color\ntrials = 20\n"
        "power_sweep_dbw = 25, 30\nseed = 13\n"
    )
    for out in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "satprecode.cli", "run",
             "--config", str(cfg_path), "--out", str(tmp_path / out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    bytes_a = (tmp_path / "a" / "results.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "results.csv").read_bytes()
    assert bytes_a == bytes_b
    print("\n[PASS] criterion 13: two processes with identical config and "
          "seed reproduced results.csv byte for byte")

"""Every design runs once over a leading power axis.

A design given a power vector must equal its one-power-per-call body
(`oracles.*_per_power`) bit for bit at every power, and so must the SINR
map; a float power is the vector of one with the axis dropped. A Monte
Carlo trial makes one design call per scenario, and a modelled failure
at one power skips only that (scenario, power) cell.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satprecode as sp
import satprecode.evaluate
import satprecode.precoding
from satprecode.evaluate import ModcodTable, beam_rate, run_monte_carlo, sinr_matrix
from satprecode.exceptions import MODELLED_FAILURES, ConfigError
from satprecode.gateway import assemble_multigateway_precoder, make_plan, share_csi
from satprecode.precoding import (
    assemble,
    baseline_avg_mmse,
    baseline_four_color,
    four_color_precoder,
    mbim_interbeam,
    rzf_interbeam,
    two_stage,
)
from satprecode.robust import robust_interbeam, robust_two_stage

import oracles
from conftest import acceptance_corpus, desk_channel, perturbed, random_channel

POWERS = np.array([0.5, 10.0, 316.25, 1e4, 3.0, 2.5e5])
P_SIZES = (1, 2, 6)
MODES = ("per_feed", "total")


def _outcome(func, *args):
    """The function's result, or the type and message of a modelled failure."""
    try:
        return func(*args)
    except MODELLED_FAILURES as exc:
        return type(exc), str(exc)


def _assert_slice_equal(stacked, i, expected):
    """Power slot i of a stacked result equals one single-power result."""
    if isinstance(expected, sp.Precoder):
        assert stacked.alpha[i] == expected.alpha
        assert stacked.power_mode == expected.power_mode
        for name in ("w", "wa", "wb"):
            fast, slow = getattr(stacked, name), getattr(expected, name)
            assert (fast is None) == (slow is None)
            if slow is not None:
                assert np.array_equal(fast[i], slow)
    else:
        assert np.array_equal(stacked[i], expected)


def _assert_same(fast, slow):
    if isinstance(slow, tuple):
        assert fast == slow
    elif isinstance(slow, sp.Precoder):
        assert isinstance(fast.alpha, float)
        _assert_slice_equal(
            sp.Precoder(w=fast.w[None], alpha=np.array([fast.alpha]),
                        power_mode=fast.power_mode,
                        wa=None if fast.wa is None else fast.wa[None],
                        wb=None if fast.wb is None else fast.wb[None]),
            0, slow)
    else:
        assert np.array_equal(fast, slow)


def _assert_stack_matches(fast, slow, p):
    """fast(p) over the vector p equals slow(p_i) at every power; so does
    fast(p_i) with a float. A modelled failure at any power fails the
    stacked call too."""
    expected = [_outcome(slow, float(x)) for x in p]
    for x, want in zip(p, expected):
        _assert_same(_outcome(fast, float(x)), want)
    stacked = _outcome(fast, p)
    if any(isinstance(want, tuple) for want in expected):
        assert isinstance(stacked, tuple)
        return
    for i, want in enumerate(expected):
        _assert_slice_equal(stacked, i, want)


def _per_power_arg(p, of):
    """`of(p)` for a float, the stack of `of(p_i)` for a vector."""
    return of(p) if np.ndim(p) == 0 else np.array([of(x) for x in p])


def _assert_designs_match(ch, p, seed):
    _, bounds = perturbed(ch, 0.05, seed)
    _assert_stack_matches(lambda x: mbim_interbeam(ch, x),
                          lambda x: oracles.mbim_interbeam_per_power(ch, x), p)
    _assert_stack_matches(lambda x: rzf_interbeam(ch, x),
                          lambda x: oracles.rzf_interbeam_per_power(ch, x), p)
    _assert_stack_matches(
        lambda x: robust_interbeam(ch, bounds, x),
        lambda x: oracles.robust_interbeam_per_power(ch, bounds, x), p)
    wa_of = lambda x: oracles.rzf_interbeam_per_power(ch, x)  # noqa: E731
    for mode in MODES:
        _assert_stack_matches(
            lambda x: assemble(ch, _per_power_arg(x, wa_of), x, mode),
            lambda x: oracles.assemble_per_power(ch, wa_of(x), x, mode), p)
        for kind in ("mbim", "rzf"):
            _assert_stack_matches(
                lambda x: two_stage(ch, x, mode, kind),
                lambda x: oracles.two_stage_per_power(ch, x, mode, kind), p)
        _assert_stack_matches(
            lambda x: robust_two_stage(ch, bounds, x, mode),
            lambda x: oracles.robust_two_stage_per_power(ch, bounds, x, mode),
            p)
        _assert_stack_matches(
            lambda x: baseline_avg_mmse(ch, x, mode),
            lambda x: oracles.baseline_avg_mmse_per_power(ch, x, mode), p)
    _assert_sinrs_match(ch, two_stage(ch, p, "per_feed", "rzf").w)


def _assert_sinrs_match(ch, w_stack):
    stacked = sinr_matrix(ch, w_stack)
    table, budget = ModcodTable.default(), sp.LinkBudget()
    rates = beam_rate(stacked, table, budget)
    for i, w in enumerate(w_stack):
        sinrs = oracles.sinr_matrix_per_power(ch, w)
        assert np.array_equal(stacked[i], sinrs)
        assert np.array_equal(sinr_matrix(ch, w), sinrs)
        assert np.array_equal(rates[i], beam_rate(sinrs, table, budget))


def _assert_gateways_match(ch, p):
    gateways = min(3, ch.beams)
    modes = ["icp", "msvdgc", "ref"] + (["closest"] if gateways > 1 else [])
    for gw_mode in modes:
        plan = make_plan(ch.beams, ch.feeds, ch.users_per_beam, gateways,
                         gw_mode, closest_c=1 if gw_mode == "closest" else None)
        views = share_csi(ch, plan)
        for mode in MODES:
            _assert_stack_matches(
                lambda x: assemble_multigateway_precoder(views, plan, x, mode),
                lambda x: oracles.assemble_multigateway_precoder_per_power(
                    views, plan, x, mode), p)


def _assert_four_color_matches(ch, feeds_per_beam, p):
    layout = sp.hex_layout(ch.beams, 47.0, 10.0, 0.25, 4.0, feeds_per_beam)
    _assert_stack_matches(
        lambda x: four_color_precoder(layout, x).w,
        lambda x: oracles.four_color_precoder_per_power(layout, x).w, p)
    _assert_stack_matches(
        lambda x: baseline_four_color(ch, layout, x),
        lambda x: oracles.baseline_four_color_per_power(ch, layout, x), p)


@pytest.mark.parametrize("powers", P_SIZES)
def test_power_stack_equals_per_power_on_acceptance_corpus(powers):
    for i, (ch, _) in enumerate(acceptance_corpus()):
        _assert_designs_match(ch, POWERS[:powers], seed=i)
        if ch.feeds % ch.beams == 0:
            _assert_gateways_match(ch, POWERS[:powers])


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 9), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**16))
def test_power_stack_equals_per_power_on_random_channels(
        beams, users, feeds_per_beam, seed):
    ch = random_channel(beams, users, beams * feeds_per_beam, seed=seed)
    for powers in P_SIZES:
        p = POWERS[:powers]
        _assert_designs_match(ch, p, seed)
        _assert_gateways_match(ch, p)
        _assert_four_color_matches(ch, feeds_per_beam, p)


@pytest.mark.parametrize("powers", P_SIZES)
def test_power_stack_equals_per_power_on_link_budget_channels(
        desk_layout, budget, powers):
    # The shipped desk sweep, 10 to 35 dBW.
    p = 10.0 ** (np.arange(10.0, 40.0, 5.0) / 10.0)[:powers]
    for seed in range(5):
        ch = desk_channel(desk_layout, budget, 2, seed)
        _assert_designs_match(ch, p, seed)
        _assert_gateways_match(ch, p)
        _assert_four_color_matches(ch, 1, p)


def test_power_vector_must_be_one_dimensional():
    ch = random_channel(3, 2, 3, seed=1)
    with pytest.raises(ConfigError, match="1-D power vector"):
        two_stage(ch, np.ones((2, 2)))


def _small_config(**overrides):
    cfg = sp.ScenarioConfig(beams=7, users_per_beam=2, pool_per_beam=2,
                            scenarios=("mbim", "rzf", "avg_mmse", "four_color"),
                            trials=3, power_sweep_dbw=(10.0, 20.0, 30.0),
                            seed=5)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def _failing_at(p_fail, design, power_arg):
    """`design`, failing whenever its power argument `power_arg` holds
    `p_fail`."""
    def failing(*args, **kwargs):
        if np.any(np.asarray(args[power_arg]) == p_fail):
            raise np.linalg.LinAlgError("singular at one power")
        return design(*args, **kwargs)

    return failing


def test_failure_at_one_power_skips_only_that_cell(monkeypatch):
    bad_power = 10.0 ** (20.0 / 10.0)
    cfg = _small_config()
    clean = run_monte_carlo(cfg)
    # The inter-beam kernels of rzf and mbim, which the stacked pass and
    # the designs on their own both reach through the inter-beam stage.
    for module, name, power_arg in (
            (satprecode.precoding, "_rzf_blocks", 3),
            (satprecode.precoding, "_mbim_blocks", 2)):
        monkeypatch.setattr(module, name, _failing_at(
            bad_power, getattr(module, name), power_arg))
    res = run_monte_carlo(cfg)
    for s, name in enumerate(cfg.scenarios):
        for i, p in enumerate(cfg.power_sweep_dbw):
            failed = name in ("mbim", "rzf") and p == 20.0
            assert res.skipped[s, i] == (cfg.trials if failed else 0)
            if failed:
                assert np.all(np.isnan(res.throughput[s, i]))
            else:
                assert np.array_equal(res.throughput[s, i],
                                      clean.throughput[s, i])


@pytest.mark.parametrize("scenarios, design", [
    (("rzf",), "assemble_multigateway_family"),
    (("avg_mmse",), "assemble_multigateway_family"),
    (("four_color",), "baseline_four_color"),
    (("mbim", "robust", "gw_ref", "gw_icp"), "assemble_multigateway_family"),
])
def test_one_design_sinr_and_rate_call_per_trial_and_scenario(
        monkeypatch, scenarios, design):
    calls = {design: 0, "sinr_matrix": 0, "beam_rate": 0}
    for name in calls:
        original = getattr(satprecode.evaluate, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(satprecode.evaluate, name, counting)
    cfg = _small_config(scenarios=scenarios, beams=12, gateways=3,
                        power_sweep_dbw=(20.0, 25.0, 30.0, 35.0),
                        csi_error_ratio=0.05)
    res = run_monte_carlo(cfg)
    assert res.total_skipped() == 0
    # All precoded scenarios of a trial (every one but four_color) are
    # designed and evaluated together.
    family = design == "assemble_multigateway_family"
    cells = cfg.trials * (1 if family else len(scenarios))
    four_color = design == "baseline_four_color"
    assert calls == {design: cells, "sinr_matrix": 0 if four_color else cells,
                     "beam_rate": cells}

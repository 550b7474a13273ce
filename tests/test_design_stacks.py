"""Every design equals its oracle, and runs once over a power axis.

At each float power a design equals its oracle (`oracles`: a loop over
beams, or the one-power body of a design with no such loop) bit for bit,
including the modelled failure it names. The designs are mbim, robust
and rzf through the intra-beam stage and the assembly (`two_stage`,
`robust_two_stage`), the averaging baseline, the gateway plans and the
four-colour baseline; the four-colour SINRs sum their interference over
a same-colour mask, so zero terms regroup the pairwise sum and they agree
within a relative 1e-12. Given a power vector, slot i of each design
equals the design at the float p_i bit for bit, and a failure at any
power fails the call; so do the SINR map and the rates.

The gateway plans (`oracles.assemble_multigateway_per_beam`) are held
in every cooperation mode on the inputs above over three gateways, on
equal and unequal splits of beams and feeds over two to four gateways,
on views at and above the downdate crossover, and on Hypothesis channels
over one to four gateways. A failing plan names its first failing
gateway, and within it the first failing beam of the earliest failing
stage, and the plan decomposes one stacked Gram matrix per view shape.
A batch of Monte Carlo trials makes one design call per scenario, and a
failure code at one power skips only that (scenario, power) cell.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satprecode as sp
import satprecode.evaluate
import satprecode.linalg
from satprecode.channel import ChannelMatrix
from satprecode.evaluate import ModcodTable, beam_rate, run_monte_carlo, sinr_matrix
from satprecode.exceptions import (
    ConfigError,
    DegenerateBeamError,
    SINGULAR,
    InfeasibleChannelError,
    SingularChannelError,
)
from satprecode.gateway import assemble_multigateway_precoder, make_plan, share_csi
from satprecode.linalg import _DOWNDATE_MIN_BEAMS
from satprecode.precoding import (
    assemble,
    baseline_avg_mmse,
    baseline_four_color,
    beam_average,
    four_color_precoder,
    intrabeam,
    two_stage,
)
from satprecode.robust import robust_two_stage

import oracles
from conftest import (
    acceptance_corpus,
    assert_design,
    assert_same,
    desk_channel,
    outcome,
    perturbed,
    random_channel,
    record_calls,
    trial_batches,
)

# (beams, users per beam, feeds per beam)
SHAPES = [(1, 1, 1), (1, 2, 3), (7, 1, 1), (7, 2, 1), (12, 2, 1), (19, 3, 3),
          (61, 2, 1)]
POWERS = np.array([0.5, 10.0, 316.25, 1e4, 3.0, 2.5e5])
P_SIZES = (1, 2, 6)
MODES = ("per_feed", "total")
GATEWAY_POWERS = np.array([0.5, 5.0, 3e3])


def _assert_designs(ch, p, seed):
    """Every design of `ch` against its oracle at each power of `p`, and
    over ``p[:n]`` against its float calls for each n in `P_SIZES`."""
    sizes = [n for n in P_SIZES if n <= p.size]

    def check(design, oracle, rtol=0.0):
        assert_design(design, oracle, p, sizes, rtol)

    _, bounds = perturbed(ch, 0.05, seed)
    for mode in MODES:
        for kind, interbeam in (("mbim", oracles.mbim_interbeam_per_beam),
                                ("rzf", oracles.rzf_interbeam_per_beam)):
            check(lambda x: two_stage(ch, x, mode, kind),
                  lambda x: oracles.assemble_per_beam(ch, interbeam(ch, x), x,
                                                      mode))
        check(lambda x: robust_two_stage(ch, bounds, x, mode),
              lambda x: oracles.assemble_per_beam(
                  ch, oracles.robust_interbeam_per_beam(ch, bounds, x), x, mode))
        check(lambda x: baseline_avg_mmse(ch, x, mode),
              lambda x: oracles.baseline_avg_mmse_per_power(ch, x, mode))
    assert np.array_equal(beam_average(ch), oracles.beam_average_per_beam(ch))
    _assert_sinrs_match(ch, two_stage(ch, p, "per_feed", "rzf").w)
    if ch.feeds % ch.beams:
        return
    gateways = min(3, ch.beams)
    for gw_mode in ["icp", "msvdgc", "ref"] + (["closest"] if gateways > 1 else []):
        _assert_gateway_plan(ch, gateways, gw_mode, p, sizes)
    layout = sp.hex_layout(ch.beams, 47.0, 10.0, 0.25, 4.0, ch.feeds // ch.beams)
    check(lambda x: four_color_precoder(layout, x).w,
          lambda x: oracles.four_color_precoder_per_beam(layout, x).w)
    check(lambda x: baseline_four_color(ch, layout, x),
          lambda x: oracles.baseline_four_color_per_beam(ch, layout, x),
          rtol=1e-12)


def _assert_gateway_plan(ch, gateways, gw_mode, p=GATEWAY_POWERS,
                         sizes=(GATEWAY_POWERS.size,)):
    """The `gw_mode` plan of `ch` over `gateways` against its oracle, as
    `assert_design` holds a design, per_feed then total. Returns the plan
    and its outcome at each power, per_feed first."""
    plan = make_plan(ch.beams, ch.feeds, ch.users_per_beam, gateways, gw_mode,
                     closest_c=1 if gw_mode == "closest" else None)
    views = share_csi(ch, plan)
    outcomes = []
    for mode in MODES:
        outcomes += assert_design(
            lambda x: assemble_multigateway_precoder(views, plan, x, mode),
            lambda x: oracles.assemble_multigateway_per_beam(views, plan, x,
                                                             mode),
            p, sizes)
    return plan, outcomes


def _assert_sinrs_match(ch, w_stack):
    stacked = sinr_matrix(ch, w_stack)
    table, budget = ModcodTable.default(), sp.LinkBudget()
    rates = beam_rate(stacked, table, budget)
    for i, w in enumerate(w_stack):
        sinrs = oracles.sinr_matrix_per_power(ch, w)
        assert np.array_equal(stacked[i], sinrs)
        assert np.array_equal(sinr_matrix(ch, w), sinrs)
        assert np.array_equal(rates[i], beam_rate(sinrs, table, budget))


@pytest.mark.parametrize("beams, users, feeds_per_beam", SHAPES)
def test_designs_equal_their_oracles_and_power_slots(beams, users,
                                                     feeds_per_beam):
    ch = random_channel(beams, users, beams * feeds_per_beam, seed=beams + users)
    _assert_designs(ch, POWERS, seed=7)


def test_designs_equal_their_oracles_and_power_slots_on_acceptance_corpus():
    for i, (ch, p_total) in enumerate(acceptance_corpus()):
        _assert_designs(ch, POWERS, seed=i)
        _assert_designs(ch, np.array([p_total]), seed=i)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 9), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**16), st.floats(0.1, 1e4))
def test_designs_equal_their_oracles_on_random_channels_at_one_power(
        beams, users, feeds_per_beam, seed, p_total):
    ch = random_channel(beams, users, beams * feeds_per_beam, seed=seed)
    _assert_designs(ch, np.array([p_total]), seed)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 9), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**16))
def test_designs_equal_their_oracles_and_power_slots_on_random_channels(
        beams, users, feeds_per_beam, seed):
    ch = random_channel(beams, users, beams * feeds_per_beam, seed=seed)
    _assert_designs(ch, POWERS, seed)


@pytest.mark.parametrize("seed", range(5))
def test_designs_equal_their_oracles_and_power_slots_on_link_budget_channels(
        desk_layout, budget, seed):
    # The shipped desk sweep, 10 to 35 dBW.
    p = 10.0 ** (np.arange(10.0, 40.0, 5.0) / 10.0)
    _assert_designs(desk_channel(desk_layout, budget, 2, seed), p, seed)


@pytest.mark.parametrize("gw_mode", ["icp", "closest", "msvdgc", "ref"])
@pytest.mark.parametrize("beams, gateways, users, feeds_per_beam", [
    (12, 3, 2, 1),     # one block size
    (13, 3, 2, 1),     # 5, 4, 4 beams: two block sizes
    (7, 2, 1, 2),      # 4, 3 beams, two feeds per beam
    (10, 4, 3, 2),     # 3, 3, 2, 2 beams, Q = 3
])
def test_gateway_plans_equal_their_oracle_on_equal_and_unequal_splits(
        beams, gateways, users, feeds_per_beam, gw_mode):
    ch = random_channel(beams, users, beams * feeds_per_beam, seed=beams + users)
    plan, _ = _assert_gateway_plan(ch, gateways, gw_mode)
    if gw_mode != "ref":
        assert len(set(plan.beams_per_gateway.tolist())) == (
            1 if beams % gateways == 0 else 2)


@pytest.mark.parametrize("gw_mode", ["icp", "closest", "msvdgc"])
@pytest.mark.parametrize("beams", [61, 43])
def test_gateway_plans_equal_their_oracle_at_the_downdate_crossover(beams,
                                                                     gw_mode):
    # 61 beams: 31 and 30 per gateway, both views downdate. 43 beams: 22
    # and 21, so one run downdates and the other takes the stacked tails.
    ch = random_channel(beams, 2, beams, seed=beams)
    plan, outcomes = _assert_gateway_plan(ch, 2, gw_mode)
    assert max(plan.beams_per_gateway) >= _DOWNDATE_MIN_BEAMS
    assert not any(isinstance(o, tuple) for o in outcomes)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 9), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 4), st.sampled_from(["icp", "closest", "msvdgc", "ref"]),
       st.integers(0, 2**16))
def test_gateway_plans_equal_their_oracle_on_random_channels(
        beams, users, feeds_per_beam, gateways, gw_mode, seed):
    # Includes K = 1, Q > N_g and singular views (few feeds, no sharing).
    gateways = min(gateways, beams)
    if gw_mode == "closest" and gateways < 2:
        gw_mode = "icp"
    ch = random_channel(beams, users, beams * feeds_per_beam, seed=seed)
    _assert_gateway_plan(ch, gateways, gw_mode)


def _with_dead_beams(ch, dead):
    h = ch.h.copy()
    for k in dead:
        h[ch.beam_rows(k)] = 0.0
    return ChannelMatrix(h=h, beams=ch.beams, users_per_beam=ch.users_per_beam)


def test_degenerate_error_names_the_first_dead_beam():
    ch = _with_dead_beams(random_channel(6, 2, 6, seed=3), (4, 2))
    wa = oracles.rzf_interbeam_per_beam(ch, 10.0)
    with pytest.raises(DegenerateBeamError, match=r"^beam 2: "):
        assemble(ch, wa, 10.0)
    assert_same(outcome(assemble, ch, wa, 10.0),
                outcome(oracles.assemble_per_beam, ch, wa, 10.0))


def test_gateway_error_names_the_gateway_and_the_dead_beam():
    ch = _with_dead_beams(random_channel(6, 2, 6, seed=4), (3,))
    plan = make_plan(6, 6, 2, 3, "closest", closest_c=2)
    with pytest.raises(DegenerateBeamError, match=r"^gateway 1: beam 3: "):
        assemble_multigateway_precoder(share_csi(ch, plan), plan, 10.0)


def _private_feed(h, beam, feed, q):
    """`h` with `feed` reaching only `beam`'s users: every other beam's
    Gram matrix, seen without `beam`, then misses that feed."""
    own = h[q * beam:q * (beam + 1), feed].copy()
    h[:, feed] = 0.0
    h[q * beam:q * (beam + 1), feed] = own


def test_first_failing_gateway_is_reported_whatever_stage_fails():
    # Gateway 1 (beams 4-7) has a dead beam 5; gateway 2 (beams 8-11) a
    # rank-deficient Gram matrix at beam 9, a check the stacked pass makes
    # before any beam's intra-beam stage. The loop reports gateway 1.
    h = random_channel(12, 2, 12, seed=21).h.copy()
    h[10:12] = 0.0
    _private_feed(h, 9, 9, 2)
    ch = ChannelMatrix(h=h.copy(), beams=12, users_per_beam=2)
    plan, outcomes = _assert_gateway_plan(ch, 3, "icp")
    assert outcomes[0][:3] == (
        DegenerateBeamError,
        "gateway 1: beam 5: effective intra-beam channel is zero",
        DegenerateBeamError)
    # Without the dead beam, gateway 2's own failure is reported.
    h[10:12] = random_channel(12, 2, 12, seed=21).h[10:12]
    ch = ChannelMatrix(h=h.copy(), beams=12, users_per_beam=2)
    _, outcomes = _assert_gateway_plan(ch, 3, "icp")
    assert outcomes[0][:2] == (
        SingularChannelError,
        "gateway 2: cross-channel Gram matrix of beam 9 is rank deficient")


def test_first_failing_gateway_is_reported_across_block_sizes():
    # 13 beams over 3 gateways: 5, 4 and 4, designed in two passes.
    # Gateway 0 has a dead beam 2, gateway 1 a rank-deficient Gram matrix
    # at beam 6 and gateway 2 a dead beam 11.
    clean = random_channel(13, 2, 13, seed=22).h
    h = clean.copy()
    h[4:6] = 0.0
    h[22:24] = 0.0
    _private_feed(h, 6, 6, 2)
    ch = ChannelMatrix(h=h.copy(), beams=13, users_per_beam=2)
    _, outcomes = _assert_gateway_plan(ch, 3, "icp")
    assert outcomes[0][:2] == (
        DegenerateBeamError,
        "gateway 0: beam 2: effective intra-beam channel is zero")
    h[4:6] = clean[4:6]
    ch = ChannelMatrix(h=h.copy(), beams=13, users_per_beam=2)
    _, outcomes = _assert_gateway_plan(ch, 3, "icp")
    assert outcomes[0][:2] == (
        SingularChannelError,
        "gateway 1: cross-channel Gram matrix of beam 6 is rank deficient")


def test_fewer_feeds_than_users_names_the_first_gateway():
    ch = random_channel(4, 3, 4, seed=23)
    _, outcomes = _assert_gateway_plan(ch, 2, "closest")
    assert outcomes[0][:2] == (
        InfeasibleChannelError,
        "gateway 0: cannot build an 2 x 3 inter-beam block with fewer feeds "
        "than served users")


def test_one_decomposition_per_view_shape(monkeypatch):
    ch = random_channel(13, 2, 13, seed=24)
    plan = make_plan(13, 13, 2, 3, "msvdgc")
    views = share_csi(ch, plan)
    calls = record_calls(monkeypatch, satprecode.linalg.eigh_sorted)
    shapes = calls["eigh_sorted"]
    assemble_multigateway_precoder(views, plan, np.array([1.0, 10.0]))
    # 5 own beams of one view, then 4 of each of the other two: one call
    # per view shape, one 5 x 5 (or 4 x 4) Gram matrix per (view, beam).
    assert [a.shape for a, in shapes] == [(5, 5, 5), (8, 4, 4)]
    # The views hold no memo: a rerun decomposes again, in the same calls.
    assemble_multigateway_precoder(views, plan, 10.0)
    assert [a.shape for a, in shapes] == [(5, 5, 5), (8, 4, 4)] * 2


def test_intrabeam_of_a_stack_equals_each_matrix_alone():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    stacked = intrabeam(z)
    assert stacked.shape == (5, 3)
    for b in range(5):
        assert np.array_equal(stacked[b], oracles.intrabeam_per_beam(z[b]))
    z[3] = 0.0
    with pytest.raises(DegenerateBeamError, match=r"^beam 13: "):
        intrabeam(z, beam_ids=np.arange(10, 15))


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


def test_failure_code_at_one_power_skips_only_that_cell(monkeypatch):
    bad_power = 10.0 ** (20.0 / 10.0)
    cfg = _small_config()
    clean = run_monte_carlo(cfg)
    original = satprecode.evaluate.assemble_multigateway_family

    def failing(precoders, users_per_beam, p, mode):
        # mbim and rzf are each one block over every beam; avg_mmse is the
        # estimate it averages.
        pre, codes = original(precoders, users_per_beam, p, mode)
        for s, design in enumerate(precoders):
            if isinstance(design, list):
                codes[s, p == bad_power] = SINGULAR
        return pre, codes

    monkeypatch.setattr(satprecode.evaluate, "assemble_multigateway_family",
                        failing)
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
def test_one_design_sinr_and_rate_call_per_batch_and_scenario(
        monkeypatch, scenarios, design):
    calls = record_calls(monkeypatch, getattr(satprecode.evaluate, design),
                         sinr_matrix, beam_rate)
    cfg = _small_config(scenarios=scenarios, beams=12, gateways=3,
                        power_sweep_dbw=(20.0, 25.0, 30.0, 35.0),
                        csi_error_ratio=0.05)
    batches = len(trial_batches(cfg))
    assert batches < cfg.trials
    res = run_monte_carlo(cfg)
    assert res.total_skipped() == 0
    # All precoded scenarios of a batch of trials (every one but
    # four_color) are designed and evaluated together; four_color takes
    # the batch's SINRs in one call of its own and one rate call.
    four_color = design == "baseline_four_color"
    assert {name: len(args) for name, args in calls.items()} == {
        design: batches, "sinr_matrix": 0 if four_color else batches,
        "beam_rate": batches}

"""Every precoded scenario is designed in the stacked family pass of a
trial.

mbim, robust and rzf are each one block design over every beam of the
estimated channel, and avg_mmse joins the pass as its unscaled
precoder. The family pass must give `two_stage` (mbim and rzf),
`robust_two_stage` and `baseline_avg_mmse` bit for bit (`w` and
`alpha`, in both power modes) on the first-trial channels of the
shipped configs and of every benchmark workload config, below and above
the downdate crossover. A trial designs every precoded scenario in one
pass, with one power scaling, one SINR and one rate call. A
rank-deficient estimate skips mbim, and the scenarios that share its
view, through that pass's failure codes: every cell is as designing its
scenario on its own at that power gives it (`oracles.run_trial_per_cell`),
and no scenario is designed a second time. The files under
``perfbench/`` are only read.
"""

import sys
from importlib import resources

import numpy as np
import pytest

import satprecode.evaluate
import satprecode.gateway
import satprecode.linalg
import satprecode.precoding
import satprecode.robust
from satprecode.channel import ChannelMatrix, beam_contours
from satprecode.config import ScenarioConfig, dbw_to_watts, parse_config
from satprecode.evaluate import (
    _build_budget,
    _build_layout,
    _trial_channels,
    _trial_designs,
    run_monte_carlo,
    sinr_matrix,
)
from satprecode.exceptions import (
    DEAD,
    MODELLED_FAILURES,
    NO_SCALE,
    SHAPE,
    SINGULAR,
    ConfigError,
    DegenerateBeamError,
    InfeasibleChannelError,
    SingularChannelError,
)
from satprecode.gateway import (
    assemble_multigateway_precoder,
    make_plan,
    plan_designs,
    share_csi,
)
from satprecode.linalg import _DOWNDATE_MIN_BEAMS
from satprecode.precoding import (
    BlockDesign,
    _avg_mmse_unscaled,
    assemble,
    assemble_multigateway_family,
    baseline_avg_mmse,
    two_stage,
)
from satprecode.robust import robust_two_stage

import oracles
from conftest import load_perfbench_workloads, random_channel

WORKLOADS = load_perfbench_workloads()

# paper_scale.cfg is left out for its run time: its first trial alone
# synthesizes a 49,000-row pool. Its one-trial results.csv is compared
# by sha256 instead.
SHIPPED_CONFIGS = ("desk.cfg", "figure3_recipe.cfg", "gateway_desk.cfg")

GATEWAY_SCENARIOS = ("gw_ref", "gw_icp", "gw_closest:1", "gw_msvdgc")


def _first_trial(cfg):
    """The power sweep in Watts, and the estimate and error bounds of the
    first trial of `cfg` as a run draws them."""
    p_w, _, ch_est, bounds = _first_trial_channels(cfg)
    return p_w, ch_est, bounds


def _first_trial_channels(cfg):
    """The power sweep in Watts, and the true channel, the estimate and the
    error bounds of the first trial of `cfg` as a run draws them."""
    budget = _build_budget(cfg)
    layout = _build_layout(cfg, budget)
    seed = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    channels = _trial_channels(seed, cfg, layout, budget,
                               beam_contours(layout, budget))
    return np.array([dbw_to_watts(p) for p in cfg.power_sweep_dbw]), *channels


def _assert_family_equals_each_design(cfg):
    """Returns the number of beams of the checked channel."""
    p_w, ch_est, bounds = _first_trial(cfg)
    # As a trial designs them.
    designs = _trial_designs(("mbim", "robust", "rzf", "avg_mmse"),
                             ch_est, bounds, {})
    for mode in ("per_feed", "total"):
        family, codes = assemble_multigateway_family(
            list(designs.values()), ch_est.users_per_beam, p_w, mode)
        assert not codes.any()
        w = family.w.reshape(len(designs), p_w.size, *family.w.shape[1:])
        alpha = family.alpha.reshape(len(designs), p_w.size)
        for i, alone in enumerate((two_stage(ch_est, p_w, mode, "mbim"),
                                   robust_two_stage(ch_est, bounds, p_w, mode),
                                   two_stage(ch_est, p_w, mode, "rzf"),
                                   baseline_avg_mmse(ch_est, p_w, mode))):
            assert np.array_equal(w[i], alone.w)
            assert np.array_equal(alpha[i], alone.alpha)
    return ch_est.beams


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_family_equals_each_design_on_the_shipped_configs(name):
    ref = resources.files("satprecode.data").joinpath(f"configs/{name}")
    with resources.as_file(ref) as path:
        assert _assert_family_equals_each_design(parse_config(path)) < (
            _DOWNDATE_MIN_BEAMS)


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_family_equals_each_design_on_every_workload_config(name, tmp_path):
    beams = set()
    for seed in range(WORKLOADS.REFERENCE_SEEDS):
        path = WORKLOADS.WORKLOADS[name].write_config(seed, tmp_path / "w.cfg")
        beams.add(_assert_family_equals_each_design(parse_config(path)))
    # wide_robust is the one workload above the crossover.
    assert (min(beams) >= _DOWNDATE_MIN_BEAMS) == (name == "wide_robust")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_sinrs_match_the_dense_spectra_and_lu_designs(name, tmp_path,
                                                      monkeypatch):
    # mbim and robust from dense per-beam Gram spectra and rzf from an LU
    # inverse are the designs the downdate's secular solver and the
    # push-through rzf replace: every user's SINR on the true channel
    # agrees within 1e-9 at every power.
    for seed in range(WORKLOADS.REFERENCE_SEEDS):
        cfg = parse_config(WORKLOADS.WORKLOADS[name].write_config(
            seed, tmp_path / "w.cfg"))
        p_w, ch_true, ch_est, bounds = _first_trial_channels(cfg)
        mode = cfg.power_mode
        designs = _trial_designs(("mbim", "robust", "rzf"), ch_est, bounds, {})
        family, codes = assemble_multigateway_family(
            list(designs.values()), ch_est.users_per_beam, p_w, mode)
        assert not codes.any()
        with monkeypatch.context() as mp:
            mp.setattr("satprecode.linalg._DOWNDATE_MIN_BEAMS", sys.maxsize)
            refs = (two_stage(ch_est, p_w, mode, "mbim"),
                    robust_two_stage(ch_est, bounds, p_w, mode))
        refs += (assemble(ch_est, oracles.rzf_interbeam_lu(ch_est, p_w), p_w,
                          mode),)
        w = family.w.reshape(len(designs), p_w.size, *family.w.shape[1:])
        for got, ref in zip(w, refs):
            np.testing.assert_allclose(sinr_matrix(ch_true, got),
                                       sinr_matrix(ch_true, ref.w),
                                       rtol=1e-9, atol=0)


def _small_config(**overrides):
    base = dict(beams=12, users_per_beam=2, pool_per_beam=2, gateways=3,
                scenarios=("mbim", "robust") + GATEWAY_SCENARIOS,
                trials=2, power_sweep_dbw=(40.0, 45.0), seed=5,
                csi_error_ratio=0.05)
    base.update(overrides)
    return ScenarioConfig(**base)


def _counting(monkeypatch, module, name, calls, record=None):
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        if record is not None:
            record(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def _counting_at_home(monkeypatch, calls):
    """Counts `two_stage`, `robust_two_stage` and
    `assemble_multigateway_precoder` calls at their defining modules:
    `satprecode.evaluate` calls none of them."""
    for module, name in ((satprecode.precoding, "two_stage"),
                         (satprecode.robust, "robust_two_stage"),
                         (satprecode.gateway, "assemble_multigateway_precoder")):
        _counting(monkeypatch, module, name, calls)


def _counting_everywhere(monkeypatch, name, calls, record=None):
    """Counts calls to `satprecode.linalg.<name>` from every package module
    that imported it."""
    original = getattr(satprecode.linalg, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("satprecode") and vars(mod).get(name) is original:
            _counting(monkeypatch, mod, name, calls, record)


def test_every_two_stage_scenario_in_one_pass_per_trial(monkeypatch):
    calls = dict.fromkeys(("_block_diagonals", "_scaled", "sinr_matrix",
                           "beam_rate", "two_stage", "robust_two_stage",
                           "assemble_multigateway_precoder", "eigh_sorted"), 0)
    for name in ("_block_diagonals", "_scaled"):
        _counting(monkeypatch, satprecode.precoding, name, calls)
    for name in ("sinr_matrix", "beam_rate"):
        _counting(monkeypatch, satprecode.evaluate, name, calls)
    _counting_at_home(monkeypatch, calls)
    shapes = []
    _counting_everywhere(monkeypatch, "eigh_sorted", calls,
                         lambda a: shapes.append(a.shape))
    cfg = _small_config()
    assert run_monte_carlo(cfg).total_skipped() == 0
    per_trial = {name: count // cfg.trials for name, count in calls.items()}
    assert per_trial == {
        "_block_diagonals": 1, "_scaled": 1, "sinr_matrix": 1, "beam_rate": 1,
        "two_stage": 0, "robust_two_stage": 0,
        "assemble_multigateway_precoder": 0, "eigh_sorted": 2}
    # mbim, robust and gw_ref, whose one view is the estimate itself, share
    # its 12 beam spectra; the 3 split plans' 3 gateways have 4 own beams
    # each.
    assert shapes == [(12, 12, 12), (36, 4, 4)] * cfg.trials


def test_desk_sweep_trial_designs_every_precoded_scenario_in_one_pass(
        monkeypatch, tmp_path):
    calls = dict.fromkeys(("_scaled", "sinr_matrix", "beam_rate", "two_stage",
                           "baseline_avg_mmse", "baseline_four_color",
                           "rzf_interbeam", "_rzf_blocks", "eigh_sorted"), 0)
    for name in ("sinr_matrix", "beam_rate", "baseline_four_color"):
        _counting(monkeypatch, satprecode.evaluate, name, calls)
    # At their defining module: satprecode.evaluate calls none of them.
    for name in ("two_stage", "baseline_avg_mmse", "rzf_interbeam"):
        _counting(monkeypatch, satprecode.precoding, name, calls)
    # Every power scaling and rzf kernel call, both made in the module
    # that defines them, and every Gram decomposition.
    for name in ("_scaled", "_rzf_blocks"):
        _counting(monkeypatch, satprecode.precoding, name, calls)
    shapes = []
    _counting_everywhere(monkeypatch, "eigh_sorted", calls,
                         lambda a: shapes.append(a.shape))
    path = WORKLOADS.WORKLOADS["desk_sweep"].write_config(0, tmp_path / "w.cfg")
    cfg = parse_config(path)
    cfg.trials = 1
    assert cfg.scenarios == ("mbim", "rzf", "avg_mmse", "four_color")
    assert run_monte_carlo(cfg).total_skipped() == 0
    # four_color keeps its own SINR and its own rate call (quarter band).
    # rzf is a design of the pass, which calls its kernel once.
    assert calls == {"_scaled": 1, "sinr_matrix": 1, "beam_rate": 2,
                     "two_stage": 0, "baseline_avg_mmse": 0,
                     "baseline_four_color": 1, "rzf_interbeam": 0,
                     "_rzf_blocks": 1, "eigh_sorted": 2}
    # Only mbim's 7 beams take Gram spectra, below the crossover from
    # their own Gram matrices. rzf (14 users on 7 feeds) takes the
    # estimate's H^H H once for its whole power sweep.
    assert shapes == [(7, 7), (7, 7, 7)]


def test_wide_robust_trial_decomposes_the_estimate_gram_once(monkeypatch,
                                                             tmp_path):
    # mbim and robust downdate G = H^H H of the estimate (61 beams, at or
    # above the crossover), and rzf (122 users on 61 feeds) factors the
    # same G: the pass decomposes it once, and every downdated beam is
    # certified, so no other Gram matrix is decomposed.
    calls, shapes = {"eigh_sorted": 0}, []
    _counting_everywhere(monkeypatch, "eigh_sorted", calls,
                         lambda a: shapes.append(a.shape))
    path = WORKLOADS.WORKLOADS["wide_robust"].write_config(0, tmp_path / "w.cfg")
    cfg = parse_config(path)
    cfg.trials = 1
    assert cfg.beams >= _DOWNDATE_MIN_BEAMS
    assert {"mbim", "robust", "rzf"} <= set(cfg.scenarios)
    assert run_monte_carlo(cfg).total_skipped() == 0
    assert shapes == [(cfg.beams, cfg.beams)]


def _rank_deficient_estimates(monkeypatch):
    # Outside beam 5's rows, feed 8 repeats feed 0, so e_0 - e_8 is in the
    # null space of beam 5's other-beam Gram matrix on the estimate. No
    # gateway view of a split plan holds both feeds; gw_ref's view is the
    # whole estimate; robust's positive shift keeps its design regular.
    original = satprecode.evaluate._trial_channels

    def rank_deficient(*args):
        ch_true, ch_est, bounds = original(*args)
        h = ch_est.h.copy()
        others = np.ones(h.shape[0], dtype=bool)
        others[ch_est.beam_rows(5)] = False
        h[others, 8] = h[others, 0]
        est = ChannelMatrix(h=h, beams=ch_est.beams,
                            users_per_beam=ch_est.users_per_beam)
        return ch_true, est, bounds

    monkeypatch.setattr(satprecode.evaluate, "_trial_channels", rank_deficient)


def _assert_rank_deficient_run_skips_as_each_cell_alone(monkeypatch, powers):
    _rank_deficient_estimates(monkeypatch)
    cfg = _small_config(trials=3, power_sweep_dbw=powers)
    stacked = run_monte_carlo(cfg)
    monkeypatch.setattr(satprecode.evaluate, "_run_trial",
                        oracles.run_trial_per_cell)
    alone = run_monte_carlo(cfg)
    assert stacked.skipped.tolist() == [
        [cfg.trials if name in ("mbim", "gw_ref") else 0] * 2
        for name in cfg.scenarios]
    assert np.array_equal(stacked.skipped, alone.skipped)
    assert np.array_equal(stacked.throughput, alone.throughput, equal_nan=True)


def test_rank_deficient_estimate_skips_only_mbim_and_what_shares_its_view(
        monkeypatch):
    _assert_rank_deficient_run_skips_as_each_cell_alone(monkeypatch,
                                                        (40.0, 45.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rank_deficient_beam_stays_finite_where_its_tail_rounds_negative(
        monkeypatch):
    # At 170 dBW the regularizer KQ/P_T is 2.4e-16, below the magnitude of
    # beam 5's tail eigenvalue, which rounds to -2.6e-15 and -1.6e-15 in
    # trials 0 and 2. The failed design must not take the root of a
    # negative number: its cells are skipped, as each cell alone skips them.
    _assert_rank_deficient_run_skips_as_each_cell_alone(monkeypatch,
                                                        (40.0, 170.0))


def test_rank_deficient_estimate_takes_one_family_call_per_trial(monkeypatch):
    # A failing design costs no redesign: the failure codes of the stacked
    # pass skip its cells, and no scenario is designed a second time.
    _rank_deficient_estimates(monkeypatch)
    calls = dict.fromkeys(("assemble_multigateway_family", "two_stage",
                           "robust_two_stage",
                           "assemble_multigateway_precoder"), 0)
    _counting(monkeypatch, satprecode.evaluate, "assemble_multigateway_family",
              calls)
    _counting_at_home(monkeypatch, calls)
    cfg = _small_config()
    assert run_monte_carlo(cfg).total_skipped() == 2 * 2 * cfg.trials
    per_trial = {name: count // cfg.trials for name, count in calls.items()}
    assert per_trial == {"assemble_multigateway_family": 1, "two_stage": 0,
                         "robust_two_stage": 0,
                         "assemble_multigateway_precoder": 0}


def test_rzf_and_avg_mmse_take_no_gram_spectra(monkeypatch):
    # No other-beam Gram matrix is decomposed; rzf (24 users on 12 feeds)
    # decomposes H^H H once per estimate for its whole power sweep.
    calls, shapes = {"eigh_sorted": 0}, []
    _counting_everywhere(monkeypatch, "eigh_sorted", calls,
                         lambda a: shapes.append(a.shape))
    cfg = _small_config(scenarios=("rzf", "avg_mmse"))
    assert run_monte_carlo(cfg).total_skipped() == 0
    assert calls == {"eigh_sorted": cfg.trials}
    assert shapes == [(12, 12)] * cfg.trials


def test_a_block_with_its_own_interbeam_stage_takes_no_spectra(monkeypatch):
    # mbim on one channel and rzf on another share a group (same view
    # shape and beam count), and only mbim's beams take Gram spectra; rzf
    # decomposes its H^H H (6 x 6) once.
    ch, other = random_channel(5, 2, 6, seed=3), random_channel(5, 2, 6, seed=4)
    p = np.array([3.0, 300.0])
    designs = [[BlockDesign(ch.h, range(5))],
               [BlockDesign(other.h, range(5), interbeam="rzf")]]
    calls, shapes = {"eigh_sorted": 0}, []
    _counting_everywhere(monkeypatch, "eigh_sorted", calls,
                         lambda a: shapes.append(a.shape))
    family, codes = assemble_multigateway_family(designs, 2, p)
    assert sorted(shapes) == [(5, 6, 6), (6, 6)]
    assert not codes.any()
    w = family.w.reshape(2, p.size, *family.w.shape[1:])
    for i, alone in enumerate((two_stage(ch, p, interbeam="mbim"),
                               two_stage(other, p, interbeam="rzf"))):
        assert np.array_equal(w[i], alone.w)


def test_an_unknown_interbeam_design_is_rejected():
    ch = random_channel(3, 2, 4, seed=5)
    with pytest.raises(ConfigError, match="mbim"):
        assemble_multigateway_family(
            [[BlockDesign(ch.h, range(3), interbeam="zf")]], 2, np.array([1.0]))


def test_an_empty_family_is_rejected():
    with pytest.raises(ConfigError, match="one or more precoders"):
        assemble_multigateway_family([], 2, np.array([1.0]))


def test_a_family_of_precoders_of_different_shapes_is_rejected():
    # A 6-feed and an 8-feed mbim design on K = 6 beams: the 6-feed
    # precoder must not be padded to 8 feeds.
    designs = [[BlockDesign(random_channel(6, 2, feeds, seed=feeds).h, range(6))]
               for feeds in (6, 8)]
    with pytest.raises(ConfigError, match=r"\(6, 6\), \(8, 6\)"):
        assemble_multigateway_family(designs, 2, np.array([1.0]))


_CODE_CLASS = {SHAPE: InfeasibleChannelError, SINGULAR: SingularChannelError,
               DEAD: DegenerateBeamError, NO_SCALE: InfeasibleChannelError}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["per_feed", "total"])
def test_failure_codes_are_where_each_design_alone_raises(mode):
    # One channel, 6 beams of Q = 3 users on 6 feeds, scaled up so that at
    # 1e300 W a precoder that stands has no finite power scale:
    # - SINGULAR: mbim, since feed 5 repeats feed 0 outside beam 2's rows;
    # - DEAD: a 2-gateway icp plan whose gateway 1 view lost beam 4's rows;
    # - SHAPE: a 3-gateway icp plan, 2 feeds per gateway for 3 users;
    # - NO_SCALE: avg_mmse, a 2-gateway msvdgc plan and rzf at 1e300 W
    #   (rzf's blocks, of order 1 / ||H|| = 1e-100, do not underflow).
    h = 1e100 * random_channel(6, 3, 6, seed=31).h
    others = np.ones(18, dtype=bool)
    others[6:9] = False
    h[others, 5] = h[others, 0]
    ch = ChannelMatrix(h=h, beams=6, users_per_beam=3)
    plans = {"icp2": make_plan(6, 6, 3, 2, "icp"),
             "icp3": make_plan(6, 6, 3, 3, "icp"),
             "msvdgc": make_plan(6, 6, 3, 2, "msvdgc")}
    views = {name: share_csi(ch, plan) for name, plan in plans.items()}
    views["icp2"][1] = views["icp2"][1].copy()
    views["icp2"][1][12:15] = 0.0

    def gateway(name):
        return (plan_designs(views[name], plans[name]),
                lambda p: assemble_multigateway_precoder(
                    views[name], plans[name], p, mode))

    cases = [
        ([BlockDesign(ch.h, range(6))], lambda p: two_stage(ch, p, mode)),
        gateway("icp2"),
        gateway("icp3"),
        (lambda p: _avg_mmse_unscaled(ch, p),
         lambda p: baseline_avg_mmse(ch, p, mode)),
        gateway("msvdgc"),
        ([BlockDesign(ch.h, range(6), interbeam="rzf")],
         lambda p: two_stage(ch, p, mode, "rzf")),
    ]
    p = np.array([10.0, 1e300])
    family, codes = assemble_multigateway_family([d for d, _ in cases], 3, p,
                                                 mode)
    assert codes.tolist() == [[SINGULAR] * 2, [DEAD] * 2, [SHAPE] * 2,
                              [0, NO_SCALE], [0, NO_SCALE], [0, NO_SCALE]]
    w = family.w.reshape(len(cases), p.size, *family.w.shape[1:])
    alpha = family.alpha.reshape(len(cases), p.size)
    assert np.all(np.isfinite(w))
    for s, (_, alone) in enumerate(cases):
        for i, power in enumerate(p.tolist()):
            try:
                pre = alone(power)
            except MODELLED_FAILURES as exc:
                assert type(exc) is _CODE_CLASS[codes[s, i]]
                continue
            assert codes[s, i] == 0
            assert np.array_equal(w[s, i], pre.w)
            assert alpha[s, i] == pre.alpha

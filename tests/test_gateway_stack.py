"""The multi-gateway precoder designs all gateways of one view shape in
one stacked pass, and the family pass all plans of a channel at once.

Its precoder, or its modelled failure (type, message and cause), must
equal the per-view loop it replaced (`oracles.assemble_multigateway_per_view`)
bit for bit, on equal and unequal splits, on views below and above the
downdate crossover, and when several gateways fail in different ways.
The family pass's precoders and rates must equal each plan designed and
evaluated on its own.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satprecode
import satprecode.linalg
from satprecode.channel import ChannelMatrix
from satprecode.exceptions import (
    MODELLED_FAILURES,
    SHAPE,
    DegenerateBeamError,
    InfeasibleChannelError,
    SingularChannelError,
)
from satprecode.evaluate import ModcodTable, beam_rate, sinr_matrix
from satprecode.gateway import (
    assemble_multigateway_precoder,
    make_plan,
    plan_designs,
    share_csi,
)
from satprecode.linalg import _DOWNDATE_MIN_BEAMS
from satprecode.precoding import assemble_multigateway_family

import oracles
from conftest import perturbed, random_channel

POWERS = (5.0, np.array([0.5, 5.0, 3e3]))


def _outcome(views, plan, p_total, mode, design):
    try:
        return design(views, plan, p_total, mode)
    except MODELLED_FAILURES as exc:
        return type(exc), str(exc), type(exc.__cause__), str(exc.__cause__)


def _assert_equals_per_view(ch, gateways, gw_mode, closest_c=None):
    plan = make_plan(ch.beams, ch.feeds, ch.users_per_beam, gateways, gw_mode,
                     closest_c=closest_c)
    views = share_csi(ch, plan)
    outcomes = []
    for mode in ("per_feed", "total"):
        for p_total in POWERS:
            fast = _outcome(views, plan, p_total, mode,
                            assemble_multigateway_precoder)
            slow = _outcome(views, plan, p_total, mode,
                            oracles.assemble_multigateway_per_view)
            if isinstance(slow, tuple):
                assert fast == slow
            else:
                assert np.array_equal(fast.w, slow.w)
                assert np.array_equal(fast.alpha, slow.alpha)
                assert type(fast.alpha) is type(slow.alpha)
            outcomes.append(slow)
    return plan, outcomes


def _counting_eigh(monkeypatch):
    original = satprecode.linalg.eigh_sorted
    shapes = []

    def counting(a):
        shapes.append(a.shape)
        return original(a)

    for name, mod in list(sys.modules.items()):
        if name.startswith("satprecode") and vars(mod).get(
                "eigh_sorted") is original:
            monkeypatch.setattr(mod, "eigh_sorted", counting)
    return shapes


@pytest.mark.parametrize("gw_mode", ["icp", "closest", "msvdgc", "ref"])
@pytest.mark.parametrize("beams, gateways, users, feeds_per_beam", [
    (12, 3, 2, 1),     # one block size
    (13, 3, 2, 1),     # 5, 4, 4 beams: two block sizes
    (7, 2, 1, 2),      # 4, 3 beams, two feeds per beam
    (10, 4, 3, 2),     # 3, 3, 2, 2 beams, Q = 3
])
def test_stacked_design_equals_the_per_view_loop(beams, gateways, users,
                                                 feeds_per_beam, gw_mode):
    ch = random_channel(beams, users, beams * feeds_per_beam, seed=beams + users)
    plan, outcomes = _assert_equals_per_view(
        ch, gateways, gw_mode, closest_c=1 if gw_mode == "closest" else None)
    if gw_mode != "ref":
        assert len(set(plan.beams_per_gateway.tolist())) == (
            1 if beams % gateways == 0 else 2)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 9), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 4), st.sampled_from(["icp", "closest", "msvdgc", "ref"]),
       st.integers(0, 2**16))
def test_stacked_design_equals_the_per_view_loop_on_random_channels(
        beams, users, feeds_per_beam, gateways, gw_mode, seed):
    # Includes K = 1, Q > N_g and singular views (few feeds, no sharing).
    gateways = min(gateways, beams)
    if gw_mode == "closest" and gateways < 2:
        gw_mode = "icp"
    ch = random_channel(beams, users, beams * feeds_per_beam, seed=seed)
    _assert_equals_per_view(ch, gateways, gw_mode,
                            closest_c=1 if gw_mode == "closest" else None)


@pytest.mark.parametrize("gw_mode", ["icp", "closest", "msvdgc"])
@pytest.mark.parametrize("beams", [61, 43])
def test_views_at_the_downdate_crossover_equal_the_per_view_loop(beams,
                                                                 gw_mode):
    # 61 beams: 31 and 30 per gateway, both views downdate. 43 beams: 22
    # and 21, so one run downdates and the other takes the stacked tails.
    ch = random_channel(beams, 2, beams, seed=beams)
    plan, outcomes = _assert_equals_per_view(
        ch, 2, gw_mode, closest_c=1 if gw_mode == "closest" else None)
    assert max(plan.beams_per_gateway) >= _DOWNDATE_MIN_BEAMS
    assert not any(isinstance(o, tuple) for o in outcomes)


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
    plan, outcomes = _assert_equals_per_view(ch, 3, "icp")
    assert outcomes[0][:3] == (
        DegenerateBeamError,
        "gateway 1: beam 5: effective intra-beam channel is zero",
        DegenerateBeamError)
    # Without the dead beam, gateway 2's own failure is reported.
    h[10:12] = random_channel(12, 2, 12, seed=21).h[10:12]
    ch = ChannelMatrix(h=h.copy(), beams=12, users_per_beam=2)
    _, outcomes = _assert_equals_per_view(ch, 3, "icp")
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
    _, outcomes = _assert_equals_per_view(ch, 3, "icp")
    assert outcomes[0][:2] == (
        DegenerateBeamError,
        "gateway 0: beam 2: effective intra-beam channel is zero")
    h[4:6] = clean[4:6]
    ch = ChannelMatrix(h=h.copy(), beams=13, users_per_beam=2)
    _, outcomes = _assert_equals_per_view(ch, 3, "icp")
    assert outcomes[0][:2] == (
        SingularChannelError,
        "gateway 1: cross-channel Gram matrix of beam 6 is rank deficient")


def test_fewer_feeds_than_users_names_the_first_gateway():
    ch = random_channel(4, 3, 4, seed=23)
    _, outcomes = _assert_equals_per_view(ch, 2, "closest", closest_c=1)
    assert outcomes[0][:2] == (
        InfeasibleChannelError,
        "gateway 0: cannot build an 2 x 3 inter-beam block with fewer feeds "
        "than served users")


def test_one_decomposition_per_view_shape(monkeypatch):
    ch = random_channel(13, 2, 13, seed=24)
    plan = make_plan(13, 13, 2, 3, "msvdgc")
    views = share_csi(ch, plan)
    shapes = _counting_eigh(monkeypatch)
    assemble_multigateway_precoder(views, plan, np.array([1.0, 10.0]))
    # 5 own beams of one view, then 4 of each of the other two: one call
    # per view shape, one 5 x 5 (or 4 x 4) Gram matrix per (view, beam).
    assert shapes == [(5, 5, 5), (8, 4, 4)]
    # The views hold no memo: a rerun decomposes again, in the same calls.
    assemble_multigateway_precoder(views, plan, 10.0)
    assert shapes == [(5, 5, 5), (8, 4, 4)] * 2


def _family_plans(beams, feeds, users, gateways):
    modes = [("icp", None), ("msvdgc", None), ("ref", None)]
    modes += [("closest", c) for c in range(1, min(gateways, 3))]
    return [make_plan(beams, feeds, users, gateways, mode, closest_c=c)
            for mode, c in modes]


@pytest.mark.parametrize("beams, gateways, users", [
    (12, 3, 2),     # equal split: 4 beams per gateway
    (13, 3, 2),     # unequal split: 5, 4 and 4 beams
    (50, 2, 2),     # 25 beams per view, at or above the downdate crossover
])
@pytest.mark.parametrize("mode", ["per_feed", "total"])
def test_family_pass_equals_each_plan_alone(beams, gateways, users, mode,
                                            budget):
    ch_true = random_channel(beams, users, beams, seed=beams)
    ch_est, _ = perturbed(ch_true, 0.05, beams + 1)
    plans = _family_plans(beams, beams, users, gateways)
    designs = [(share_csi(ch_est, plan), plan) for plan in plans]
    assert (beams // gateways >= _DOWNDATE_MIN_BEAMS) == (beams == 50)
    table = ModcodTable.default()
    p = np.array([0.5, 5.0, 3e3])
    family, codes = assemble_multigateway_family(
        [plan_designs(*design) for design in designs], users, p, mode)
    assert not codes.any()
    w = family.w.reshape(len(plans), p.size, *family.w.shape[1:])
    alpha = family.alpha.reshape(len(plans), p.size)
    rates = beam_rate(sinr_matrix(ch_true, family.w), table, budget).reshape(
        len(plans), p.size, beams)
    for i, (views, plan) in enumerate(designs):
        alone = assemble_multigateway_precoder(views, plan, p, mode)
        assert np.array_equal(w[i], alone.w)
        assert np.array_equal(alpha[i], alone.alpha)
        assert np.array_equal(
            rates[i], beam_rate(sinr_matrix(ch_true, alone.w), table, budget))


def test_family_pass_fails_where_a_plan_has_fewer_feeds_than_users():
    # Q = 3 users per beam, but 6 feeds over 3 gateways leave N_g = 2:
    # every split plan is infeasible, the one-gateway reference is not.
    ch = random_channel(6, 3, 6, seed=26)
    plans = _family_plans(6, 6, 3, 3)
    designs = [(share_csi(ch, plan), plan) for plan in plans]
    p = np.array([1.0, 10.0])
    family, codes = assemble_multigateway_family(
        [plan_designs(*design) for design in designs], 3, p)
    assert codes.tolist() == [[0 if plan.mode == "ref" else SHAPE] * 2
                              for plan in plans]
    w = family.w.reshape(len(plans), p.size, *family.w.shape[1:])
    for i, (views, plan) in enumerate(designs):
        if plan.mode == "ref":
            assert np.array_equal(w[i],
                                  assemble_multigateway_precoder(views, plan, p).w)
        else:
            assert np.all(np.isfinite(w[i]))
            with pytest.raises(InfeasibleChannelError, match="^gateway 0: "):
                assemble_multigateway_precoder(views, plan, p)


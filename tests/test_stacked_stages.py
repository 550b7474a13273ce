"""Each design stage runs as one stacked call over the beams.

The stacked stages must reproduce the per-beam loops they replaced
(`oracles.*_per_beam`) bit for bit, including which beam a modelled
failure names. The four-colour baseline sums its interference over a
same-colour mask, so zero terms regroup the pairwise sum and its SINRs
agree to a relative 1e-12 instead.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satprecode as sp
from satprecode.channel import ChannelMatrix
from satprecode.exceptions import MODELLED_FAILURES, DegenerateBeamError
from satprecode.gateway import assemble_multigateway_precoder, make_plan, share_csi
from satprecode.precoding import (
    assemble,
    baseline_four_color,
    beam_average,
    four_color_precoder,
    intrabeam,
    mbim_interbeam,
    rzf_interbeam,
)
from satprecode.robust import robust_interbeam

import oracles
from conftest import acceptance_corpus, desk_channel, perturbed, random_channel

# (beams, users per beam, feeds per beam)
SHAPES = [(1, 1, 1), (1, 2, 3), (7, 1, 1), (7, 2, 1), (12, 2, 1), (19, 3, 3),
          (61, 2, 1)]


def _outcome(func, *args):
    """The function's result, or the type and message of a modelled failure."""
    try:
        return func(*args)
    except MODELLED_FAILURES as exc:
        return type(exc), str(exc)


def _assert_same(fast, slow):
    if isinstance(slow, tuple):
        assert fast == slow
    elif isinstance(slow, sp.Precoder):
        assert isinstance(fast, sp.Precoder)
        assert fast.alpha == slow.alpha
        for name in ("w", "wa", "wb"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name))
    else:
        assert np.array_equal(fast, slow)


def _assert_stages_match_loops(ch, p_total, seed):
    _assert_same(_outcome(mbim_interbeam, ch, p_total),
                 _outcome(oracles.mbim_interbeam_per_beam, ch, p_total))
    rzf = rzf_interbeam(ch, p_total)
    assert np.array_equal(rzf, oracles.rzf_interbeam_per_beam(ch, p_total))
    _, bounds = perturbed(ch, 0.05, seed)
    robust = _outcome(robust_interbeam, ch, bounds, p_total)
    _assert_same(robust, _outcome(oracles.robust_interbeam_per_beam, ch,
                                  bounds, p_total))
    for wa in (rzf, robust):
        if isinstance(wa, np.ndarray):
            for mode in ("per_feed", "total"):
                _assert_same(_outcome(assemble, ch, wa, p_total, mode),
                             _outcome(oracles.assemble_per_beam, ch, wa,
                                      p_total, mode))
    assert np.array_equal(beam_average(ch), oracles.beam_average_per_beam(ch))


def _assert_gateways_match_loops(ch, p_total):
    gateways = min(3, ch.beams)
    modes = ["icp", "msvdgc", "ref"] + (["closest"] if gateways > 1 else [])
    for mode in modes:
        plan = make_plan(ch.beams, ch.feeds, ch.users_per_beam, gateways, mode,
                         closest_c=1 if mode == "closest" else None)
        views = share_csi(ch, plan)
        fast = _outcome(assemble_multigateway_precoder, views, plan, p_total)
        # The loop reads each view's spectra from a memo filled over the
        # gateway's whole own-beam range, the path the library takes (the
        # downdate, for a range at or above the crossover).
        channels = [oracles.view_channel(view, plan) for view in views]
        for g, view in enumerate(channels):
            beams = plan.beam_slice(g)
            view.other_gram_eigs(range(beams.start, beams.stop))
        slow = _outcome(oracles.assemble_multigateway_per_beam, channels, plan,
                        p_total)
        if isinstance(slow, tuple):
            # The stacked intra stage also names the beam inside the
            # gateway; type and gateway agree.
            assert fast[0] is slow[0]
            assert fast[1].split(":")[0] == slow[1].split(":")[0]
        else:
            _assert_same(fast, slow)


def _assert_four_color_matches_loop(ch, feeds_per_beam, p_total):
    layout = sp.hex_layout(ch.beams, 47.0, 10.0, 0.25, 4.0, feeds_per_beam)
    assert np.array_equal(
        four_color_precoder(layout, p_total).w,
        oracles.four_color_precoder_per_beam(layout, p_total).w,
    )
    np.testing.assert_allclose(
        baseline_four_color(ch, layout, p_total),
        oracles.baseline_four_color_per_beam(ch, layout, p_total),
        rtol=1e-12, atol=0.0,
    )


@pytest.mark.parametrize("beams, users, feeds_per_beam", SHAPES)
def test_stacked_stages_equal_per_beam_loops(beams, users, feeds_per_beam):
    ch = random_channel(beams, users, beams * feeds_per_beam, seed=beams + users)
    for p_total in (0.5, 10.0, 1e4):
        _assert_stages_match_loops(ch, p_total, seed=7)
        _assert_gateways_match_loops(ch, p_total)
        _assert_four_color_matches_loop(ch, feeds_per_beam, p_total)


def test_stacked_stages_equal_per_beam_loops_on_acceptance_corpus():
    for i, (ch, p_total) in enumerate(acceptance_corpus()):
        _assert_stages_match_loops(ch, p_total, seed=i)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 9), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**16), st.floats(0.1, 1e4))
def test_stacked_stages_equal_per_beam_loops_on_random_channels(
        beams, users, feeds_per_beam, seed, p_total):
    ch = random_channel(beams, users, beams * feeds_per_beam, seed=seed)
    _assert_stages_match_loops(ch, p_total, seed)
    _assert_gateways_match_loops(ch, p_total)
    _assert_four_color_matches_loop(ch, feeds_per_beam, p_total)


def test_stacked_stages_equal_per_beam_loops_on_link_budget_channels(
        desk_layout, budget):
    for seed in range(5):
        ch = desk_channel(desk_layout, budget, 2, seed)
        for p_total in (10.0, 100.0):
            _assert_stages_match_loops(ch, p_total, seed)
            _assert_gateways_match_loops(ch, p_total)
            _assert_four_color_matches_loop(ch, 1, p_total)


def _with_dead_beams(ch, dead):
    h = ch.h.copy()
    for k in dead:
        h[ch.beam_rows(k)] = 0.0
    return ChannelMatrix(h=h, beams=ch.beams, users_per_beam=ch.users_per_beam)


def test_degenerate_error_names_the_first_dead_beam():
    ch = _with_dead_beams(random_channel(6, 2, 6, seed=3), (4, 2))
    wa = rzf_interbeam(ch, 10.0)
    with pytest.raises(DegenerateBeamError, match=r"^beam 2: "):
        assemble(ch, wa, 10.0)
    _assert_same(_outcome(assemble, ch, wa, 10.0),
                 _outcome(oracles.assemble_per_beam, ch, wa, 10.0))


def test_gateway_error_names_the_gateway_and_the_dead_beam():
    ch = _with_dead_beams(random_channel(6, 2, 6, seed=4), (3,))
    plan = make_plan(6, 6, 2, 3, "closest", closest_c=2)
    with pytest.raises(DegenerateBeamError, match=r"^gateway 1: beam 3: "):
        assemble_multigateway_precoder(share_csi(ch, plan), plan, 10.0)


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

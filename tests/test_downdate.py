"""Other-beam Gram spectra from one eigendecomposition and rank-Q downdates.

`linalg.downdated_tails` must agree with the dense per-beam
decomposition (`oracles.other_gram_eig_per_beam`) on any channel, and the
designs built from it with the designs built beam by beam. Eigenvalues
are compared within 1e-12 of the beam's largest eigenvalue plus 1e-13 of
||G||: an other-beam Gram matrix may be exactly zero (every other row a
zero row, as in a gateway view), and the downdate resolves its spectrum
to rounding errors of G, not of G_k.

`linalg.other_gram_tails`, the one function the designs take their
spectra from, must give every beam it serves densely (below the
crossover, or left uncertified by the downdate) the bits of that beam's
own dense decomposition, from one stacked call.
"""

import contextlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satprecode as sp
import satprecode.linalg
from satprecode.channel import ChannelMatrix
from satprecode.evaluate import sinr_matrix
from satprecode.exceptions import SingularChannelError
from satprecode.gateway import assemble_multigateway_precoder, make_plan, share_csi
from satprecode.linalg import (
    _DOWNDATE_MIN_BEAMS,
    _dense_other_gram_tails,
    downdated_tails,
    gram_eigh,
    other_gram_tails,
)
from satprecode.robust import robust_two_stage

import oracles
from conftest import desk_channel, perturbed, random_channel, record_calls

SHAPES = st.tuples(st.integers(2, 9), st.integers(1, 3), st.integers(1, 3))

# The most secular sweeps (inertia counts of every target of every beam
# at once) one call took on 240 link-budget channels, K = 22, 37 and 61
# with and without 5% CSI error; count-bisection steps with Newton on
# det M took at least 13.
MAX_SWEEPS = 8


def _variant(ch, kind, rng):
    """`ch` with zero rows, duplicated rows or a rank-deficient Gram."""
    h = ch.h.copy()
    rows = h.shape[0]
    if kind == "zero_beams":          # a gateway view: unknown beams are zero
        for k in rng.choice(ch.beams, size=max(1, ch.beams // 2), replace=False):
            h[ch.beam_rows(k)] = 0.0
    elif kind == "zero_rows":
        h[rng.choice(rows, size=max(1, rows // 3), replace=False)] = 0.0
    elif kind == "duplicated_rows":
        src, dst = rng.choice(rows, size=2, replace=rows < 2)
        h[dst] = h[src]
    elif kind == "low_rank":
        rank = max(1, ch.feeds // 2)
        h = (h[:, :rank] @ rng.standard_normal((rank, ch.feeds))).astype(complex)
    return ChannelMatrix(h=h, beams=ch.beams, users_per_beam=ch.users_per_beam)


def _assert_matches_dense(ch):
    """Every certified beam agrees with the dense decomposition; returns
    the beams left to the dense path."""
    q, n = ch.users_per_beam, ch.feeds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam_max, tail_values, tails, ok = downdated_tails(gram_eigh(ch.h),
                                                          ch.beam_blocks())
    gram_norm = np.linalg.norm(ch.h, 2) ** 2
    fallbacks = []
    for k in range(ch.beams):
        if not ok[k]:
            fallbacks.append(k)
            continue
        ref = oracles.other_gram_eig_per_beam(ch, k)
        lam = ref.eigenvalues
        tol = 1e-12 * lam[0] + 1e-13 * gram_norm
        assert abs(lam_max[k] - lam[0]) <= tol
        np.testing.assert_allclose(tail_values[k], lam[-q:], rtol=0, atol=tol)
        tail = tails[k]
        assert tail.shape == (n, q)
        np.testing.assert_allclose(tail.conj().T @ tail, np.eye(q),
                                   rtol=0, atol=1e-12)
        # The tail subspace is defined only where the spectrum has a gap
        # after the Q smallest eigenvalues.
        if n == q or lam[n - q - 1] - lam[n - q] > 1e-6 * gram_norm:
            ref_tail = ref.eigenvectors[:, -q:]
            np.testing.assert_allclose(tail @ tail.conj().T,
                                       ref_tail @ ref_tail.conj().T,
                                       rtol=0, atol=1e-10)
    return fallbacks


@settings(deadline=None, max_examples=60)
@given(SHAPES, st.sampled_from(["plain", "zero_beams", "zero_rows",
                                "duplicated_rows", "low_rank"]),
       st.integers(0, 2**16))
def test_downdate_matches_dense_decomposition(shape, kind, seed):
    beams, users, feeds_per_beam = shape
    rng = np.random.default_rng(seed)
    ch = _variant(random_channel(beams, users, beams * feeds_per_beam, seed),
                  kind, rng)
    fallbacks = _assert_matches_dense(ch)
    feeds = beams * feeds_per_beam
    if kind == "plain" and users <= feeds <= users * (beams - 1):
        # Full-rank other-beam Grams with distinct spectra: nothing falls back.
        assert fallbacks == []
    elif users > feeds:
        assert fallbacks == list(range(beams))


@pytest.mark.parametrize("beams", [_DOWNDATE_MIN_BEAMS, 37, 61])
def test_downdate_certifies_every_beam_of_a_link_budget_channel(beams, budget):
    layout = sp.hex_layout(beams, 47.0, 10.0, 0.09, 1.1, budget=budget)
    ch = desk_channel(layout, budget, 2, seed=beams)
    assert _assert_matches_dense(ch) == []


@pytest.mark.parametrize("beams", [_DOWNDATE_MIN_BEAMS, 37, 61])
def test_downdate_takes_few_secular_sweeps_on_a_link_budget_channel(
        beams, budget, monkeypatch):
    calls = record_calls(monkeypatch,
                         satprecode.linalg._inertia_and_log_derivatives)
    layout = sp.hex_layout(beams, 47.0, 10.0, 0.09, 1.1, budget=budget)
    ch = desk_channel(layout, budget, 2, seed=beams)
    *_, ok = downdated_tails(gram_eigh(ch.h), ch.beam_blocks())
    assert ok.all()
    # One count per sweep, then one at mu -/+ DOWNDATE_TOL that certifies.
    assert 2 <= len(calls["_inertia_and_log_derivatives"]) <= MAX_SWEEPS + 1


@contextlib.contextmanager
def _per_beam_path():
    """Inside, every design takes its Gram spectra from the dense path of
    `other_gram_tails`: the downdate crossover is out of reach."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("satprecode.linalg._DOWNDATE_MIN_BEAMS", sys.maxsize)
        yield


@pytest.mark.parametrize("beams", [37, 61])
@pytest.mark.parametrize("mode", ["per_feed", "total"])
def test_designs_equal_the_per_beam_path(beams, mode):
    ch = random_channel(beams, 2, beams, seed=beams)
    p = np.array([1.0, 100.0, 1e4])
    _, bounds = perturbed(ch, 0.05, 3)
    for design in (lambda c: sp.two_stage(c, p, mode, "mbim"),
                   lambda c: robust_two_stage(c, bounds, p, mode)):
        with _per_beam_path():
            ref = design(ch)
        np.testing.assert_allclose(sinr_matrix(ch, design(ch).w),
                                   sinr_matrix(ch, ref.w),
                                   rtol=1e-9, atol=0)


@pytest.mark.parametrize("mode", ["icp", "closest", "msvdgc"])
def test_two_gateway_views_above_the_crossover_equal_the_per_beam_path(mode):
    ch = random_channel(61, 2, 61, seed=8)
    plan = make_plan(61, 61, 2, 2, mode, closest_c=1 if mode == "closest" else None)
    assert min(plan.beams_per_gateway) >= _DOWNDATE_MIN_BEAMS
    views = share_csi(ch, plan)
    p = np.array([10.0, 1e3])
    with _per_beam_path():
        ref = np.stack([oracles.assemble_multigateway_per_beam(views, plan, x).w
                        for x in p.tolist()])
    np.testing.assert_allclose(
        sinr_matrix(ch, assemble_multigateway_precoder(views, plan, p).w),
        sinr_matrix(ch, ref), rtol=1e-9, atol=0)


@settings(deadline=None, max_examples=8)
@given(st.integers(_DOWNDATE_MIN_BEAMS, 40), st.integers(1, 3),
       st.integers(0, 2**16), st.floats(0.1, 1e4))
def test_downdated_design_whitens_and_meets_the_power_constraint(
        beams, users, seed, p_total):
    feeds = min(beams, (beams - 1) * users)    # full-rank other-beam Grams
    ch = random_channel(beams, users, feeds, seed=seed)
    wa = sp.mbim_interbeam(ch, p_total)
    reg = beams * users / p_total
    for k in range(beams):
        other = oracles.excluding(ch, k)
        block = wa[:, k * users:(k + 1) * users]
        white = block.conj().T @ (other.conj().T @ other + reg * np.eye(feeds)) @ block
        np.testing.assert_allclose(white, np.eye(users), rtol=0, atol=1e-9)
    per_feed = sp.two_stage(ch, p_total, "per_feed")
    assert np.max(oracles.feed_powers(per_feed.w)) == pytest.approx(p_total / feeds, rel=1e-12)
    total = sp.two_stage(ch, p_total, "total")
    assert oracles.total_power(total.w) == pytest.approx(p_total, rel=1e-12)


@pytest.mark.parametrize("singular", [(7,), (12, 7)])
def test_rank_deficient_beam_is_named_on_both_paths(singular):
    # Each singular beam has a private feed that reaches only its own
    # users, so its other-beam Gram matrix has a zero column.
    beams = 30
    assert beams >= _DOWNDATE_MIN_BEAMS
    h = random_channel(beams, 2, beams, seed=11).h.copy()
    for i, k in enumerate(singular):
        feed = 5 + 4 * i
        own = h[2 * k:2 * k + 2, feed].copy()
        h[:, feed] = 0.0
        h[2 * k:2 * k + 2, feed] = own
    ch = ChannelMatrix(h=h, beams=beams, users_per_beam=2)
    for path in (contextlib.nullcontext(), _per_beam_path()):
        with path, pytest.raises(SingularChannelError,
                                 match=rf"of beam {min(singular)} "):
            sp.mbim_interbeam(ch, 10.0)


def _dense_rows(ch, k, users):
    """Beam k's dense spectrum, trimmed as `other_gram_tails` returns it."""
    dense = oracles.other_gram_eig_per_beam(ch, k)
    return [dense.eigenvalues[0], dense.eigenvalues[-users:],
            dense.eigenvectors[:, -users:]]


def test_other_gram_tails_are_trimmed():
    ch = random_channel(3, 2, 4, seed=2)
    first = [a[0, 0] for a in other_gram_tails(ch.h[None], np.array([[1]]), 2,
                                               lambda c: gram_eigh(ch.h))]
    for got, want in zip(first, _dense_rows(ch, 1, 2)):
        assert np.array_equal(got, want)
    whole = other_gram_tails(ch.h[None], np.arange(3)[None], 2,
                             lambda c: gram_eigh(ch.h))
    for slab, row in zip(whole, first):
        assert np.array_equal(slab[0, 1], row)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**16),
       st.integers(0, 5), st.integers(1, 6))
def test_other_gram_tails_read_the_crossover_at_call_time(
        beams, users, seed, start, count):
    # With the crossover lowered to 2, two or more beams take the
    # downdate (a beam it cannot certify the dense path), one beam the
    # dense path.
    ch = random_channel(beams, users, beams * users, seed=seed)
    start = start % beams
    ids = np.arange(start, min(start + count, beams))
    ok = np.zeros(ids.size, dtype=bool)
    if ids.size >= 2:
        *found, ok = downdated_tails(gram_eigh(ch.h), ch.beam_blocks()[ids])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("satprecode.linalg._DOWNDATE_MIN_BEAMS", 2)
        got = other_gram_tails(ch.h[None], ids[None], users,
                               lambda c: gram_eigh(ch.h))
    for i, k in enumerate(ids):
        want = [a[i] for a in found] if ok[i] else _dense_rows(ch, k, users)
        for slab, value in zip(got, want):
            assert np.array_equal(slab[0, i], value)


@settings(deadline=None, max_examples=30)
@given(st.integers(2, 12), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 3), st.integers(0, 2**16), st.booleans())
def test_stacked_dense_tails_equal_each_beam_alone(beams, users, feeds,
                                                   channels, seed, zero_rows):
    chans = []
    for c in range(channels):
        h = random_channel(beams, users, feeds, seed=seed + c).h.copy()
        if zero_rows:
            # Gateway-like view: the rows of half the beams are unknown.
            h[: users * (beams // 2)] = 0.0
        chans.append(ChannelMatrix(h=h, beams=beams, users_per_beam=users))
    rng = np.random.default_rng(seed)
    channel = rng.integers(0, channels, 2 * beams)
    beam = rng.integers(0, beams, 2 * beams)
    lam_max, tail_values, tail = _dense_other_gram_tails(
        np.stack([ch.h for ch in chans]), channel, beam, users)
    for i, (c, k) in enumerate(zip(channel, beam)):
        dense = oracles.other_gram_eig_per_beam(chans[c], k)
        assert lam_max[i] == dense.eigenvalues[0]
        assert np.array_equal(tail_values[i], dense.eigenvalues[-users:])
        assert np.array_equal(tail[i], dense.eigenvectors[:, -users:])


def test_uncertified_beams_of_a_stack_share_one_dense_call(monkeypatch):
    # Three channels above the crossover; the downdate certifies every
    # beam, and the wrapper leaves chosen beams of two channels
    # uncertified. Those rows must be their dense decompositions, bit for
    # bit, from one stacked call; every other row the downdate's.
    beams, users = _DOWNDATE_MIN_BEAMS + 2, 2
    chans = [random_channel(beams, users, beams, seed=s) for s in (3, 4, 5)]
    cleared = {0: [1, 7], 2: [0, beams - 1]}
    downdates = []

    def uncertain(gram, blocks):
        *found, ok = downdated_tails(gram, blocks)
        assert ok.all()
        ok = ok.copy()
        ok[cleared.get(len(downdates), [])] = False
        downdates.append(found)
        return (*found, ok)

    monkeypatch.setattr(satprecode.linalg, "downdated_tails", uncertain)
    dense = record_calls(monkeypatch, _dense_other_gram_tails)
    h = np.stack([ch.h for ch in chans])
    got = other_gram_tails(h, np.tile(np.arange(beams), (3, 1)), users,
                           lambda c: gram_eigh(h[c]))
    assert len(downdates) == 3
    pairs = [list(zip(channel.tolist(), beam.tolist()))
             for _, channel, beam, _ in dense["_dense_other_gram_tails"]]
    assert pairs == [[(c, k) for c in sorted(cleared) for k in cleared[c]]]
    for c, found in enumerate(downdates):
        for k in range(beams):
            want = (_dense_rows(chans[c], k, users) if k in cleared.get(c, [])
                    else [a[k] for a in found])
            for slab, value in zip(got, want):
                assert np.array_equal(slab[c, k], value)

"""Other-beam Gram spectra from one eigendecomposition and rank-Q downdates.

`linalg.downdated_tails` must agree with the dense per-beam
decomposition (`oracles.other_gram_eig_per_beam`) on any channel, and the
designs built from it with the designs built beam by beam. Eigenvalues
are compared within 1e-12 of the beam's largest eigenvalue plus 1e-13 of
||G||: an other-beam Gram matrix may be exactly zero (every other row a
zero row, as in a gateway view), and the downdate resolves its spectrum
to rounding errors of G, not of G_k.
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
from satprecode.channel import _DOWNDATE_MIN_BEAMS, ChannelMatrix
from satprecode.evaluate import sinr_matrix
from satprecode.exceptions import SingularChannelError
from satprecode.gateway import assemble_multigateway_precoder, make_plan, share_csi
from satprecode.linalg import downdated_tails
from satprecode.robust import robust_two_stage

import oracles
from conftest import desk_channel, perturbed, random_channel

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
        lam_max, tail_values, tails, ok = downdated_tails(ch.h, ch.beam_blocks())
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
    counts = []
    original = satprecode.linalg._inertia_and_log_derivatives

    def counting(m):
        counts.append(m.shape)
        return original(m)

    monkeypatch.setattr(satprecode.linalg, "_inertia_and_log_derivatives",
                        counting)
    layout = sp.hex_layout(beams, 47.0, 10.0, 0.09, 1.1, budget=budget)
    ch = desk_channel(layout, budget, 2, seed=beams)
    *_, ok = downdated_tails(ch.h, ch.beam_blocks())
    assert ok.all()
    # One count per sweep, then one at mu -/+ DOWNDATE_TOL that certifies.
    assert 2 <= len(counts) <= MAX_SWEEPS + 1


@contextlib.contextmanager
def _per_beam_path():
    """Inside, every design takes its Gram spectra from the dense per-beam
    path of `_other_gram_tails`: the downdate crossover is out of reach."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("satprecode.channel._DOWNDATE_MIN_BEAMS", sys.maxsize)
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
        ref = oracles.assemble_multigateway_per_view(views, plan, p)
    np.testing.assert_allclose(
        sinr_matrix(ch, assemble_multigateway_precoder(views, plan, p).w),
        sinr_matrix(ch, ref.w), rtol=1e-9, atol=0)


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

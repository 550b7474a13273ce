"""The regularized zero-forcing design against a 40-digit reference.

The rzf precoder (`two_stage(..., "rzf")`) takes its inter-beam blocks
from ``A = H H^H + (KQ/P_T) I`` at every power, by one
eigendecomposition of the smaller Gram matrix. With more served users
than feeds (F = 1), ``A^-1`` holds a null-space part of size P_T/KQ that
``H^H`` must cancel, so an LU inverse would lose accuracy as the power
grows; the eigendecomposition of ``H^H H`` and the push-through form
avoid it. With fewer users than feeds (F = 3) that form would cancel
instead, and the route takes the eigendecomposition of ``H H^H``. Either
way every user's SINR must agree with an mpmath reference of the same
design, computed to 40 digits, within 1e-12; both SINR maps run in
mpmath, so the check sees the design's error alone.

After a LAPACK error a trial reruns each (scenario, power) cell alone,
so the inter-beam blocks of a one-power call (the precoder's `wa`) must
equal their slot of the power-vector call bit for bit.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

import satprecode as sp  # noqa: E402
from satprecode.config import dbw_to_watts  # noqa: E402
from satprecode.precoding import two_stage  # noqa: E402

from conftest import desk_channel, random_channel  # noqa: E402

POWERS_DBW = (25.0, 40.0, 55.0)


def _channel(feeds_per_beam):
    budget = sp.LinkBudget()
    layout = sp.hex_layout(7, 47.0, 10.0, 0.25, 4.0,
                           feeds_per_beam=feeds_per_beam, budget=budget)
    return desk_channel(layout, budget, 2, seed=11)


def _mp_matrix(a):
    return mpmath.mp.matrix([[mpmath.mp.mpc(complex(x)) for x in row] for row in a])


def _reference_precoder(ch, p_total):
    """The per-feed rzf precoder (N, K) of `ch` at `p_total`, in mpmath."""
    mp = mpmath.mp
    k_beams, q = ch.beams, ch.users_per_beam
    rows, n = ch.h.shape
    h = _mp_matrix(ch.h)
    hh = h.transpose_conj()
    reg = mp.mpf(rows) / mp.mpf(p_total)
    inverse = mp.inverse(h * hh + reg * mp.eye(rows))
    w = mp.matrix(n, k_beams)
    for k in range(k_beams):
        # Beam k's columns of A^-1, orthonormalized (Gram-Schmidt).
        basis = []
        for j in range(q * k, q * (k + 1)):
            x = inverse[:, j]
            for u in basis:
                x -= u * (u.transpose_conj() * x)[0]
            basis.append(x / mp.norm(x))
        wa = hh * mp.matrix([[u[i] for u in basis] for i in range(rows)])
        # Intra-beam stage: the leading right singular vector of H_k Wa_k.
        z = h[q * k:q * (k + 1), :] * wa
        values, vectors = mp.eighe(z.transpose_conj() * z)
        column = wa * vectors[:, max(range(q), key=lambda i: values[i])]
        for i in range(n):
            w[i, k] = column[i]
    feed_power = max(sum(abs(w[i, k]) ** 2 for k in range(k_beams))
                     for i in range(n))
    return w * mp.sqrt(mp.mpf(p_total) / (n * feed_power))


def _sinrs(ch, w):
    """Per-user SINRs (K, Q) of the mpmath precoder `w`, in mpmath: a
    double-precision SINR map would cancel in the interference sum."""
    gains = _mp_matrix(ch.h) * w
    out = np.empty((ch.beams, ch.users_per_beam))
    for k in range(ch.beams):
        for j in range(ch.users_per_beam):
            power = [abs(gains[ch.users_per_beam * k + j, b]) ** 2
                     for b in range(ch.beams)]
            out[k, j] = float(power[k] / (sum(power) - power[k] + 1))
    return out


@pytest.mark.parametrize("feeds_per_beam", [1, 3])
@pytest.mark.parametrize("p_dbw", POWERS_DBW)
def test_sinrs_match_a_40_digit_reference(feeds_per_beam, p_dbw):
    ch = _channel(feeds_per_beam)
    assert (ch.h.shape[0] > ch.feeds) == (feeds_per_beam == 1)
    p_total = dbw_to_watts(p_dbw)
    w = two_stage(ch, p_total, "per_feed", "rzf").w
    with mpmath.workdps(40):
        ref = _sinrs(ch, _reference_precoder(ch, p_total))
        got = _sinrs(ch, _mp_matrix(w))
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("ch", [_channel(1), _channel(3),
                                random_channel(12, 3, 20, seed=4)],
                         ids=["F1", "F3", "K12_Q3"])
def test_one_power_equals_its_slot_of_the_power_vector(ch):
    p = np.array([dbw_to_watts(x) for x in POWERS_DBW])
    stacked = two_stage(ch, p, "per_feed", "rzf").wa
    for i, p_i in enumerate(p):
        assert np.array_equal(two_stage(ch, float(p_i), "per_feed", "rzf").wa,
                              stacked[i])

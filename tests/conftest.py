import numpy as np
import pytest

import satprecode as sp
from satprecode.channel import ChannelMatrix


@pytest.fixture(scope="session")
def budget():
    return sp.LinkBudget()


@pytest.fixture(scope="session")
def desk_layout(budget):
    return sp.hex_layout(7, 47.0, 10.0, 0.25, 4.0, budget=budget)


def random_channel(beams, users_per_beam, feeds, seed, scale=3.0):
    """Random complex-Gaussian channel, scaled so cross-Gram norms are >= 1."""
    rng = np.random.default_rng(seed)
    h = scale * (
        rng.standard_normal((beams * users_per_beam, feeds))
        + 1j * rng.standard_normal((beams * users_per_beam, feeds))
    )
    return ChannelMatrix(h=h, beams=beams, users_per_beam=users_per_beam)


def perturbed(ch, ratio, seed):
    """`perturb_channel`'s estimate of `ch` and the tight per-beam bounds
    of its error."""
    est, delta = sp.perturb_channel(ch, ratio, seed)
    return est, sp.PerturbationBounds.from_delta(delta, ch.beams,
                                                 ch.users_per_beam)


def acceptance_corpus(count=100, master_seed=2024):
    """Random channels with full-rank cross-Grams: K<=7, Q<=3, N<=14."""
    rng = np.random.default_rng(master_seed)
    out = []
    for i in range(count):
        k = int(rng.integers(2, 8))
        q = int(rng.integers(2, 4))
        n_lo = max(k, q)
        n_hi = min(14, (k - 1) * q)
        n = int(rng.integers(n_lo, n_hi + 1)) if n_hi > n_lo else n_lo
        p_total = float(rng.uniform(0.5, 200.0))
        out.append((random_channel(k, q, n, seed=10_000 + i), p_total))
    return out


def corpus_dims(rng):
    """(K, Q, N) with the cross-Gram full rank and a Q-dim null space."""
    k = int(rng.integers(2, 8))
    q = int(rng.integers(2, 4))
    n_max = min(14, (k - 1) * q)
    n = int(rng.integers(k, n_max + 1)) if n_max > k else k
    return k, q, n


def desk_channel(layout, budget, q_served, seed, pool=None, chi_deg=10.0):
    """Link-budget channel on the desk layout, one realization."""
    pool = pool or q_served
    users = sp.place_users(layout, pool, seed, budget=budget)
    gain = sp.build_gain_matrix(layout, users, budget)
    phase = sp.build_phase_matrix(
        sp.PhaseModel(variant="ultra_stable", chi_deg=chi_deg, rng_seed=seed + 1),
        gain.shape[0],
        gain.shape[1],
    )
    ch = sp.assemble_channel(gain, phase, layout.beams, pool)
    if pool == q_served:
        return ch
    members = np.tile(np.arange(q_served), (layout.beams, 1))
    return sp.extract_users(ch, members)

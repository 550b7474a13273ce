import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satprecode.channel import ChannelMatrix
from satprecode.exceptions import ConfigError
from satprecode.grouping import group_users, robust_group_users

from conftest import random_channel


def pool_channel(vectors):
    """Single-beam pool from a list of channel vectors."""
    h = np.asarray(vectors, dtype=complex)
    return ChannelMatrix(h=h, beams=1, users_per_beam=h.shape[0])


def seed_users(beams, pool_size, rng_seed):
    """The seed user each beam draws: one integer per beam, in beam order."""
    rng = np.random.default_rng(rng_seed)
    return np.array([rng.integers(pool_size) for _ in range(beams)])


def both_groupings(beams, pool_size, q, seed):
    """Nominal and random-penalty robust members of one random pool."""
    pool = random_channel(beams, pool_size, 3, seed=seed)
    gammas = np.random.default_rng(seed).uniform(0.0, 5.0, (beams, pool_size))
    return (group_users(pool, q, rng_seed=seed),
            robust_group_users(pool, gammas, q, rng_seed=seed))


POOLS = st.tuples(st.integers(1, 4), st.integers(1, 8), st.integers(1, 8),
                  st.integers(0, 10_000))


class TestMemberArrays:
    @settings(deadline=None, max_examples=30)
    @given(POOLS)
    def test_rows_hold_distinct_pool_indices(self, shape):
        beams, pool_size, q, seed = shape
        q = min(q, pool_size)
        for members in both_groupings(beams, pool_size, q, seed):
            assert members.shape == (beams, q)
            assert members.dtype.kind == "i"
            assert np.all((members >= 0) & (members < pool_size))
            for row in members:
                assert len(set(row.tolist())) == q

    @settings(deadline=None, max_examples=30)
    @given(POOLS)
    def test_column_0_is_the_seed(self, shape):
        beams, pool_size, q, seed = shape
        q = min(q, pool_size)
        for members in both_groupings(beams, pool_size, q, seed):
            assert np.array_equal(members[:, 0],
                                  seed_users(beams, pool_size, seed))
            # The seed's neighbors follow in ascending index order.
            assert np.all(np.diff(members[:, 1:], axis=1) > 0)


class TestGroupUsers:
    def test_group_of_one_is_just_the_seed(self):
        pool = random_channel(2, 5, 3, seed=0)
        members = group_users(pool, 1, rng_seed=4)
        assert np.array_equal(members, seed_users(2, 5, 4)[:, None])

    def test_exact_duplicate_of_seed_selected_first(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        far = 10.0 * (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
        # Pool: seed candidates all distinct, one exact duplicate pair.
        vectors = np.vstack([base, far, base])
        pool = pool_channel(vectors)
        for seed in range(25):
            g = group_users(pool, 2, rng_seed=seed)[0]
            if g[0] == 0:
                assert 4 in g
            elif g[0] == 4:
                assert 0 in g

    def test_hand_distances_pick_two_nearest(self):
        # Exhaustive-distance oracle: seed plus candidates at squared
        # distances 0.1, 0.2, 0.9, 1.5.
        base = np.zeros(4, dtype=complex)
        base[0] = 1.0
        offsets = [0.1, 0.2, 0.9, 1.5]
        vectors = [base] + [
            base + np.array([0, np.sqrt(d), 0, 0], dtype=complex) for d in offsets
        ]
        pool = pool_channel(np.array(vectors))
        for seed in range(40):
            g = group_users(pool, 3, rng_seed=seed)[0]
            if g[0] == 0:
                assert set(g.tolist()) == {0, 1, 2}
                return
        pytest.fail("seed user 0 never drawn")

    def test_deterministic_for_fixed_seed(self):
        pool = random_channel(3, 8, 4, seed=2)
        a = group_users(pool, 3, rng_seed=7)
        b = group_users(pool, 3, rng_seed=7)
        assert np.array_equal(a, b)

    def test_oversized_group_rejected(self):
        pool = random_channel(2, 3, 4, seed=3)
        with pytest.raises(ConfigError):
            group_users(pool, 4, rng_seed=0)


class TestRobustGroupUsers:
    def test_uniform_penalty_matches_nominal(self):
        pool = random_channel(4, 10, 5, seed=4)
        for seed in range(10):
            nominal = group_users(pool, 3, rng_seed=seed)
            uniform = np.full((4, 10), 2.7)
            robust = robust_group_users(pool, uniform, 3, rng_seed=seed)
            assert np.array_equal(np.sort(nominal, 1), np.sort(robust, 1))

    def test_penalty_outweighs_distance(self):
        # Candidate at squared distance 1.0 with no penalty wins over a
        # nearer candidate carrying penalty 0.5 (scores 1.0 vs 1.4).
        base = np.zeros(3, dtype=complex)
        vec_a = base.copy()
        vec_a[0] = 1.0
        vec_b = base.copy()
        vec_b[0] = np.sqrt(0.9)
        pool = pool_channel(np.array([base, vec_a, vec_b]))
        gammas = np.array([[0.0, 0.0, 0.5]])
        for seed in range(40):
            g = robust_group_users(pool, gammas, 2, rng_seed=seed)[0]
            if g[0] == 0:
                assert g.tolist() == [0, 1]
                return
        pytest.fail("seed user 0 never drawn")

    def test_zero_penalties_identical_to_nominal(self):
        pool = random_channel(3, 6, 4, seed=5)
        nominal = group_users(pool, 2, rng_seed=9)
        robust = robust_group_users(pool, np.zeros((3, 6)), 2, rng_seed=9)
        assert np.array_equal(nominal, robust)

    def test_negative_penalties_rejected(self):
        pool = random_channel(2, 4, 3, seed=6)
        with pytest.raises(ConfigError):
            robust_group_users(pool, -np.ones((2, 4)), 2, rng_seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_penalties_rejected(self, bad):
        # A non-finite penalty could tie with the seed's own infinite
        # score and put the seed in its group twice.
        pool = random_channel(2, 4, 3, seed=6)
        gammas = np.zeros((2, 4))
        gammas[1, 2] = bad
        with pytest.raises(ConfigError, match="finite"):
            robust_group_users(pool, gammas, 4, rng_seed=0)

    @settings(deadline=None, max_examples=20)
    @given(st.floats(0.0, 50.0), st.integers(0, 500))
    def test_constant_shift_invariance(self, shift, seed):
        pool = random_channel(2, 7, 4, seed=123)
        nominal = group_users(pool, 3, rng_seed=seed)
        shifted = robust_group_users(pool, np.full((2, 7), shift), 3,
                                     rng_seed=seed)
        assert np.array_equal(np.sort(nominal, 1), np.sort(shifted, 1))


def test_grouping_improves_collinearity_over_random_choice():
    # Statistical property: the mean pairwise normalized inner product of
    # the selected group beats a random subset in most trials.
    rng = np.random.default_rng(31)
    wins = 0
    trials = 500
    for t in range(trials):
        pool = random_channel(1, 30, 6, seed=10_000 + t)
        members = group_users(pool, 3, rng_seed=20_000 + t)[0]
        random_members = rng.choice(30, 3, replace=False)

        def mean_cos(idx):
            rows = pool.h[list(idx)]
            total = 0.0
            count = 0
            for i in range(len(idx)):
                for j in range(i + 1, len(idx)):
                    total += abs(np.vdot(rows[i], rows[j])) / (
                        np.linalg.norm(rows[i]) * np.linalg.norm(rows[j])
                    )
                    count += 1
            return total / count

        if mean_cos(members) >= mean_cos(random_members):
            wins += 1
    assert wins >= 0.55 * trials

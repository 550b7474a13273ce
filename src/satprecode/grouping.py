"""Per-beam user grouping by channel-vector proximity.

Multicast rates collapse when the simultaneously served users of a beam
have near-orthogonal channel vectors, so the scheduler picks, from each
beam's candidate pool, a seed user at random plus the Q-1 pool members
closest to it in Euclidean norm (full complex vectors, so both magnitude
and phase structure count). The robust variant adds a per-candidate
scalar penalty for channel uncertainty; a uniform penalty leaves the
selection unchanged.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelMatrix
from .exceptions import ConfigError

__all__ = ["group_users", "robust_group_users"]


def _select(pool: ChannelMatrix, q_served: int, rng_seed,
            penalties: np.ndarray | None) -> np.ndarray:
    """(K, Q) served-user indices: row k is beam k's random seed user,
    then its Q-1 nearest pool candidates in ascending index order."""
    candidates = pool.users_per_beam
    if not 1 <= q_served <= candidates:
        raise ConfigError(
            f"group size {q_served} must lie in [1, pool size {candidates}]"
        )
    rng = np.random.default_rng(rng_seed)
    members = np.empty((pool.beams, q_served), dtype=int)
    for k in range(pool.beams):
        seed = int(rng.integers(candidates))
        rows = pool.beam(k)
        score = np.sum(np.abs(rows - rows[seed]) ** 2, axis=1)
        if penalties is not None:
            score = score + penalties[k]
        score[seed] = np.inf
        members[k, 0] = seed
        # Stable argsort breaks ties by candidate index.
        members[k, 1:] = np.sort(np.argsort(score, kind="stable")[: q_served - 1])
    return members


def group_users(pool: ChannelMatrix, q_served: int, rng_seed) -> np.ndarray:
    """Nominal grouping: seed user plus the Q-1 nearest pool channels."""
    return _select(pool, q_served, rng_seed, None)


def robust_group_users(pool: ChannelMatrix, gamma_user: np.ndarray,
                       q_served: int, rng_seed) -> np.ndarray:
    """Uncertainty-aware grouping.

    `gamma_user` is a (K, pool) array of finite nonnegative per-candidate
    bounds added to the squared distances, penalizing candidates whose
    channel knowledge is poor. A non-finite bound could tie with the seed
    user's own infinite score and select it twice.
    """
    gamma_user = np.asarray(gamma_user, dtype=float)
    if gamma_user.shape != (pool.beams, pool.users_per_beam):
        raise ConfigError("gamma_user must be a (K, pool) array")
    if not np.all((gamma_user >= 0.0) & np.isfinite(gamma_user)):
        raise ConfigError("gamma_user must be finite and nonnegative")
    return _select(pool, q_served, rng_seed, gamma_user)


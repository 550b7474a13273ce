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

# Bytes of pool rows scored in one pass. Larger passes save little time
# but their temporaries add to the peak RSS: about 1 MiB on a 61-beam pool
# of 20 candidates with 4 MiB passes, and one pass over a paper-scale pool
# (245 beams of 200 candidates, 245 feeds) would hold about 270 MiB.
_SCORE_BYTES = 256 * 2**10


def _select(pool: ChannelMatrix, q_served: int, rng_seed,
            penalties: np.ndarray | None) -> np.ndarray:
    """(K, Q) served-user indices: row k is beam k's random seed user,
    then its Q-1 nearest pool candidates in ascending index order.

    The pools are scored in (B, pool, N) passes over blocks of B beams
    (at most `_SCORE_BYTES` of pool rows, and at least one beam), and the
    neighbors of every beam are ranked in one row-wise stable sort. The
    seeds stay K scalar draws in beam order, the stream the per-beam loop
    read: NumPy does not promise that one vector draw reads the same one.
    """
    candidates = pool.users_per_beam
    if not 1 <= q_served <= candidates:
        raise ConfigError(
            f"group size {q_served} must lie in [1, pool size {candidates}]"
        )
    rng = np.random.default_rng(rng_seed)
    seeds = np.array([rng.integers(candidates) for _ in range(pool.beams)])
    beams = np.arange(pool.beams)
    blocks = pool.beam_blocks()
    seed_rows = blocks[beams, seeds][:, None]
    score = np.empty((pool.beams, candidates))
    step = max(1, _SCORE_BYTES // blocks[0].nbytes)
    for b in range(0, pool.beams, step):
        part = slice(b, b + step)
        score[part] = np.sum(np.abs(blocks[part] - seed_rows[part]) ** 2, axis=2)
    if penalties is not None:
        score += penalties
    score[beams, seeds] = np.inf
    members = np.empty((pool.beams, q_served), dtype=int)
    members[:, 0] = seeds
    # Stable argsort breaks ties by candidate index.
    nearest = np.argsort(score, axis=1, kind="stable")[:, : q_served - 1]
    members[:, 1:] = np.sort(nearest, axis=1)
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


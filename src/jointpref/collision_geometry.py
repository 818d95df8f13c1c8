"""Pairwise distances, repeller cost and hard collision detection.

The repeller cost softly accumulates proximity violations below an
interaction radius r; hard collision detection counts agent pairs that come
strictly closer than a threshold at any future timestep.

Every function takes modes shaped (..., A, T_fut, 2), e.g. one joint mode or
a scene's (K, A, T_fut, 2) stack, and reduces per mode: a stack's k-th result
equals the result for its k-th mode alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_RADIUS_M = 1.0
DEFAULT_EPSILON = 1e-6
COLLISION_THRESHOLD_M = 1.0


@dataclass(frozen=True)
class RepellerParams:
    r: float = DEFAULT_RADIUS_M
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("interaction radius r must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


def _pairwise(modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position differences (..., A, A, T, 2) and their norms (..., A, A, T)."""
    modes = np.asarray(modes, dtype=np.float64)
    if modes.ndim < 3 or modes.shape[-1] != 2:
        raise ValueError(f"modes must be (..., A, T_fut, 2), got {modes.shape}")
    diff = modes[..., :, None, :, :] - modes[..., None, :, :, :]
    return diff, np.sqrt(np.sum(diff * diff, axis=-1))


def pairwise_distances(modes: np.ndarray) -> np.ndarray:
    """Euclidean distance between every agent pair at every timestep.

    modes: (..., A, T_fut, 2) trajectories. Returns an (..., A, A, T_fut)
    tensor, symmetric in the two agent axes with a zero diagonal.
    """
    return _pairwise(modes)[1]


def repeller_matrix(delta: np.ndarray, params: RepellerParams) -> np.ndarray:
    """Hinge proximity tensor: max(0, 1 - d/r) off-diagonal, 0 on the diagonal."""
    delta = np.asarray(delta, dtype=np.float64)
    a = np.maximum(1.0 - delta / params.r, 0.0)
    idx = np.arange(delta.shape[-2])
    a[..., idx, idx, :] = 0.0
    return a


def repeller_cost(repeller: np.ndarray, epsilon: float = DEFAULT_EPSILON):
    """Per-mode sum of proximity violations over their count (plus epsilon)."""
    total = np.sum(repeller, axis=(-3, -2, -1))
    count = np.count_nonzero(repeller > 0, axis=(-3, -2, -1))
    return total / (count + epsilon)


def mode_repeller_cost(modes: np.ndarray, params: RepellerParams):
    """Repeller cost of each joint mode straight from its trajectories."""
    return repeller_cost(repeller_matrix(pairwise_distances(modes), params),
                         params.epsilon)


def repeller_cost_grad(modes: np.ndarray, params: RepellerParams):
    """(mode_repeller_cost, its gradient with respect to agent positions),
    both from one pass over the pairwise geometry.

    The positive-entry count is piecewise constant and treated as fixed;
    the hinge subgradient at d == r is 0, and coincident agents (d == 0)
    contribute no gradient.
    """
    diff, delta = _pairwise(modes)
    repeller = repeller_matrix(delta, params)
    active = repeller > 0
    denom = np.count_nonzero(active, axis=(-3, -2, -1)) + params.epsilon
    # dR/dA[i,j,t] = 1/denom on active entries; dA/dd = -1/r where A > 0.
    safe = np.where(delta > 0, delta, 1.0)
    unit = np.where(delta[..., None] > 0, diff / safe[..., None], 0.0)
    coeff = np.where(active, -1.0 / (params.r * denom[..., None, None, None]),
                     0.0)                                     # (..., A, A, T)
    # d d_ij/d x_i = unit vector from j to i; both (i,j) and (j,i) slots count.
    contrib = coeff[..., None] * unit                         # (..., A, A, T, 2)
    return (repeller_cost(repeller, params.epsilon),
            contrib.sum(axis=-3) - contrib.sum(axis=-4))


def joint_collision_counts(modes: np.ndarray,
                           threshold_m: float = COLLISION_THRESHOLD_M):
    """Per-mode count of unordered agent pairs closer than threshold_m.

    A (K, A, T_fut, 2) stack gives K counts; one mode gives a 0-d count.
    """
    if threshold_m <= 0:
        raise ValueError("collision threshold must be positive")
    delta = pairwise_distances(modes)
    iu, ju = np.triu_indices(delta.shape[-2], k=1)
    min_dist = delta[..., iu, ju, :].min(axis=-1)            # (..., pairs)
    return np.sum(min_dist < threshold_m, axis=-1)

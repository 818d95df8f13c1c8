"""Pairwise distances, repeller cost and hard collision detection.

The repeller cost softly accumulates proximity violations below an
interaction radius r; hard collision detection counts agent pairs that come
strictly closer than a threshold at any future timestep.

Every function takes modes shaped (..., A, T_fut, 2), e.g. one joint mode or
a scene's (K, A, T_fut, 2) stack, and reduces per mode: a stack's k-th result
equals the result for its k-th mode alone. All of them work on the
P = A(A-1)/2 agent pairs i < j, in triu_indices(A, 1) order.
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


def _pair_geometry(modes: np.ndarray):
    """Pair indices (iu, ju) of triu_indices(A, 1), the pairs' position
    differences modes[i] - modes[j] (..., P, T, 2) and their distances
    (..., P, T)."""
    modes = np.asarray(modes, dtype=np.float64)
    if modes.ndim < 3 or modes.shape[-1] != 2:
        raise ValueError(f"modes must be (..., A, T_fut, 2), got {modes.shape}")
    iu, ju = np.triu_indices(modes.shape[-3], k=1)
    diff = modes.take(iu, axis=-3) - modes.take(ju, axis=-3)
    sq = diff * diff
    # x^2 + y^2 is the float np.sum(sq, axis=-1) gives, without its slow
    # length-2 reduction
    return iu, ju, diff, np.sqrt(sq[..., 0] + sq[..., 1])


def pairwise_distances(modes: np.ndarray) -> np.ndarray:
    """Euclidean distance between every agent pair i < j at every timestep,
    (..., P, T_fut) in triu_indices(A, 1) pair order."""
    return _pair_geometry(modes)[3]


def _repeller(dist: np.ndarray, params: RepellerParams):
    """Per-mode repeller cost from (..., P, T) pair distances, with the mask
    of its positive hinge entries and its denominator. The cost sums the
    hinge max(0, 1 - d/r) over ordered agent pairs, so each pair twice, and
    divides by twice the pairs' positive count plus epsilon."""
    hinge = np.maximum(1.0 - dist / params.r, 0.0)
    active = hinge > 0
    denom = 2 * np.count_nonzero(active, axis=(-2, -1)) + params.epsilon
    return 2 * hinge.sum(axis=(-2, -1)) / denom, active, denom


def mode_repeller_cost(modes: np.ndarray, params: RepellerParams):
    """Repeller cost of each joint mode straight from its trajectories."""
    return _repeller(pairwise_distances(modes), params)[0]


def repeller_cost_grad(modes: np.ndarray, params: RepellerParams):
    """(mode_repeller_cost, its gradient with respect to agent positions),
    both from one pass over the pair geometry.

    The positive-entry count is piecewise constant and treated as fixed;
    the hinge subgradient at d == r is 0, and coincident agents (d == 0)
    contribute no gradient.
    """
    iu, ju, diff, dist = _pair_geometry(modes)
    cost, active, denom = _repeller(dist, params)
    # d cost / d d_ij = -2 / (r * denom) on active entries, and d d_ij / d x_i
    # is the unit vector from j to i, its negative for x_j; coincident
    # agents' unit vector is 0, their difference over an infinite distance
    coeff = np.where(active, -2.0 / (params.r * denom[..., None, None]), 0.0)
    pulls = coeff[..., None] * (
        diff / np.where(dist > 0, dist, np.inf)[..., None])
    *lead, a, t, _ = np.shape(modes)
    incidence = np.eye(a)[:, iu] - np.eye(a)[:, ju]           # (A, P)
    return cost, (incidence @ pulls.reshape(*lead, iu.size, 2 * t)).reshape(
        np.shape(modes))


def joint_collision_counts(modes: np.ndarray,
                           threshold_m: float = COLLISION_THRESHOLD_M):
    """Per-mode count of unordered agent pairs closer than threshold_m.

    A (K, A, T_fut, 2) stack gives K counts; one mode gives a 0-d count.
    """
    if threshold_m <= 0:
        raise ValueError("collision threshold must be positive")
    min_dist = pairwise_distances(modes).min(axis=-1)         # (..., P)
    return np.sum(min_dist < threshold_m, axis=-1)

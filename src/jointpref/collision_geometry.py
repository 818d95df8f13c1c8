"""Pairwise distances, repeller cost and hard collision detection.

The repeller cost softly accumulates proximity violations below an
interaction radius r; hard collision detection counts agent pairs that come
strictly closer than a threshold at any future timestep.

Every function takes modes shaped (..., A, T_fut, 2), e.g. one joint mode or
a scene's (K, A, T_fut, 2) stack, and reduces per mode: a stack's k-th result
equals the result for its k-th mode alone.

Distances, hinges, unit vectors and gradient coefficients are computed on a
pair axis of P = A(A-1)/2 entries, the agent pairs i < j in triu_indices
order: a (j, i) entry repeats its (i, j) mirror, or negates it. The
repeller sums still run over a zero (..., A, A, T[, 2]) tensor holding each
pair value in both of its slots: numpy's pairwise summation order depends on
that layout, so folding the mirrors into one pair sum (say 2 * sum) would
change the low bits of every cost and gradient.
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
    """Pair indices (iu, ju) of triu_indices(A, 1), the P = A(A-1)/2 pairs'
    position differences modes[i] - modes[j] (..., P, T, 2) and their
    distances (..., P, T)."""
    modes = np.asarray(modes, dtype=np.float64)
    if modes.ndim < 3 or modes.shape[-1] != 2:
        raise ValueError(f"modes must be (..., A, T_fut, 2), got {modes.shape}")
    iu, ju = np.triu_indices(modes.shape[-3], k=1)
    diff = modes.take(iu, axis=-3) - modes.take(ju, axis=-3)
    sq = diff * diff
    # x^2 + y^2 is the float np.sum(sq, axis=-1) gives, without its slow
    # length-2 reduction
    return iu, ju, diff, np.sqrt(sq[..., 0] + sq[..., 1])


def _square(upper: np.ndarray, lower: np.ndarray, iu, ju, a: int,
            tail: int) -> np.ndarray:
    """Zero (..., A, A, *tail dims) tensor with pair p's values upper[..., p,
    ...] at (iu[p], ju[p]) and lower[..., p, ...] at (ju[p], iu[p])."""
    lead = upper.shape[:upper.ndim - tail - 1]
    out = np.zeros(lead + (a, a) + upper.shape[upper.ndim - tail:])
    rest = (slice(None),) * tail
    out[(..., iu, ju) + rest] = upper
    out[(..., ju, iu) + rest] = lower
    return out


def pairwise_distances(modes: np.ndarray) -> np.ndarray:
    """Euclidean distance between every agent pair at every timestep.

    modes: (..., A, T_fut, 2) trajectories. Returns an (..., A, A, T_fut)
    tensor, symmetric in the two agent axes with a zero diagonal.
    """
    iu, ju, _, dist = _pair_geometry(modes)
    return _square(dist, dist, iu, ju, np.shape(modes)[-3], 1)


def repeller_cost(repeller: np.ndarray, epsilon: float = DEFAULT_EPSILON):
    """Per-mode sum of proximity violations over their count (plus epsilon),
    from an (..., A, A, T) hinge tensor."""
    total = np.sum(repeller, axis=(-3, -2, -1))
    count = np.count_nonzero(repeller > 0, axis=(-3, -2, -1))
    return total / (count + epsilon)


def _hinge(modes: np.ndarray, params: RepellerParams):
    """Pair geometry, the pair hinge max(0, 1 - d/r) (..., P, T), and the
    per-mode repeller cost: the sum over the (..., A, A, T) tensor holding
    each hinge value in both of its pair's slots, over twice the pairs'
    positive count."""
    iu, ju, diff, dist = _pair_geometry(modes)
    hinge = np.maximum(1.0 - dist / params.r, 0.0)
    total = _square(hinge, hinge, iu, ju, np.shape(modes)[-3], 1).sum(
        axis=(-3, -2, -1))
    count = 2 * np.count_nonzero(hinge > 0, axis=(-2, -1))
    return (iu, ju, diff, dist), hinge, total / (count + params.epsilon)


def mode_repeller_cost(modes: np.ndarray, params: RepellerParams):
    """Repeller cost of each joint mode straight from its trajectories."""
    return _hinge(modes, params)[2]


def repeller_cost_grad(modes: np.ndarray, params: RepellerParams):
    """(mode_repeller_cost, its gradient with respect to agent positions),
    both from one pass over the pair geometry.

    The positive-entry count is piecewise constant and treated as fixed;
    the hinge subgradient at d == r is 0, and coincident agents (d == 0)
    contribute no gradient.
    """
    (iu, ju, diff, dist), hinge, cost = _hinge(modes, params)
    active = hinge > 0
    denom = 2 * np.count_nonzero(active, axis=(-2, -1)) + params.epsilon
    # dR/dA[i,j,t] = 1/denom on active entries; dA/dd = -1/r where A > 0.
    coeff = np.where(active, -1.0 / (params.r * denom[..., None, None]),
                     0.0)[..., None]                          # (..., P, T, 1)
    apart = dist[..., None] > 0
    unit = diff / np.where(apart, dist[..., None], 1.0)
    # d d_ij/d x_i = unit vector from j to i; both (i,j) and (j,i) slots
    # count. The (j, i) unit is where(apart, -unit, 0), not -where(...),
    # so coincident agents hold +0.0 in both slots.
    contrib = _square(coeff * np.where(apart, unit, 0.0),
                      coeff * np.where(apart, -unit, 0.0),
                      iu, ju, np.shape(modes)[-3], 2)         # (..., A, A, T, 2)
    return cost, contrib.sum(axis=-3) - contrib.sum(axis=-4)


def joint_collision_counts(modes: np.ndarray,
                           threshold_m: float = COLLISION_THRESHOLD_M):
    """Per-mode count of unordered agent pairs closer than threshold_m.

    A (K, A, T_fut, 2) stack gives K counts; one mode gives a 0-d count.
    """
    if threshold_m <= 0:
        raise ValueError("collision threshold must be positive")
    min_dist = _pair_geometry(modes)[3].min(axis=-1)          # (..., pairs)
    return np.sum(min_dist < threshold_m, axis=-1)

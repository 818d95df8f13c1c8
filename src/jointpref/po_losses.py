"""Preference-distribution losses and their gradients.

Implements the listwise (Plackett-Luce style) negative log-likelihood with
a rank-scaled target margin on log-probability rewards, which at two modes
is the pairwise Bradley-Terry margin loss, and the direct preference cost
objective used as a degenerate baseline. Everything is computed in the log
domain with log-sum-exp stabilization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collision_geometry import RepellerParams, repeller_cost_grad
from .mode_aggregation import log_softmax, softmax
from .scene_model import JointModeSet

DEFAULT_BETA = 2.0
DEFAULT_GAMMA = 5.0


@dataclass(frozen=True)
class SimPOConfig:
    beta: float = DEFAULT_BETA
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


def _pl_stages(rewards: np.ndarray, ranking: np.ndarray, gamma: float):
    """(tau, scores, lse) of the Plackett-Luce stages: the ranking as ints,
    the scores reward[tau(k)] + k*gamma in ranking order and their suffix
    log-sum-exps, lse[..., i] = logsumexp(scores[..., i:]). ValueError
    unless every row of ranking permutes 0..K-1."""
    tau = np.asarray(ranking, dtype=np.int64)
    k = rewards.shape[-1]
    if (tau.shape != rewards.shape
            or np.any(np.sort(tau, axis=-1) != np.arange(k))):
        raise ValueError(f"ranking must be a permutation of 0..{k - 1}")
    scores = np.take_along_axis(rewards, tau, -1) + gamma * np.arange(1, k + 1)
    lse = np.logaddexp.accumulate(scores[..., ::-1], axis=-1)[..., ::-1]
    return tau, scores, lse


def pl_nll(rewards: np.ndarray, ranking: np.ndarray, gamma: float = 0.0):
    """Listwise ranking loss with rank-scaled target margin.

    rewards[..., i] is the reward of mode i; ranking lists mode indices best
    first. Stage k (1-based) compares reward[tau(k)] + k*gamma against
    log-sum-exp over j >= k of reward[tau(j)] + j*gamma. Leading axes stack
    scenes, one loss each.
    """
    _, scores, lse = _pl_stages(np.asarray(rewards, dtype=np.float64),
                                ranking, gamma)
    return np.sum(lse - scores, axis=-1)


def pl_nll_from_logits(scene_logits: np.ndarray, ranking: np.ndarray,
                       config: SimPOConfig):
    """pl_nll composed with rewards = beta * log_softmax(scene_logits)."""
    rewards = config.beta * log_softmax(scene_logits)
    return pl_nll(rewards, ranking, config.gamma)


def pl_nll_grad(scene_logits: np.ndarray, ranking: np.ndarray,
                config: SimPOConfig) -> np.ndarray:
    """Analytic gradient of pl_nll_from_logits with respect to scene logits."""
    z = np.asarray(scene_logits, dtype=np.float64)
    tau, scores, lse = _pl_stages(config.beta * log_softmax(z), ranking,
                                  config.gamma)
    # dL/dscores in ranking order: stage i takes 1 off scores[i] and adds
    # exp(scores[j] - lse[i]) <= 1 to j >= i (clipped so j < i cannot overflow)
    w = np.triu(np.exp(np.minimum(scores[..., None, :] - lse[..., :, None],
                                  0.0)))                      # (..., K, K)
    d_rewards = np.zeros_like(z)
    np.put_along_axis(d_rewards, tau, w.sum(axis=-2) - 1.0, -1)
    # rewards = beta * (z - logsumexp(z)); Jacobian is beta * (I - 1 p^T)
    p = softmax(z)
    return config.beta * (d_rewards - d_rewards.sum(axis=-1, keepdims=True) * p)


def direct_cost_loss(joint: JointModeSet, ground_truth: np.ndarray,
                     lam: float, repeller_params: RepellerParams | None = None):
    """Mean preference cost over modes plus its gradient w.r.t. positions.

    Returns (loss, grad) with grad shaped like joint.modes, one loss per
    scene of a stack; one repeller_cost_grad pass gives both repeller terms.
    The endpoint term's gradient is taken as 0 at exact hits, where it has
    none, matching the hinge convention of the repeller.
    """
    params = repeller_params or RepellerParams()
    modes = joint.modes
    gt = np.asarray(ground_truth, dtype=np.float64)
    k, a = modes.shape[-4], modes.shape[-3]
    end_err = modes[..., -1, :] - gt[..., None, :, -1, :]    # (..., K, A, 2)
    dist = np.linalg.norm(end_err, axis=-1)                  # (..., K, A)
    rep_cost, rep_grad = repeller_cost_grad(modes, params)
    costs = dist.mean(axis=-1) + lam * rep_cost
    # summed in mode order, not pairwise
    loss = np.cumsum(costs, axis=-1)[..., -1] / k
    grad = lam * rep_grad
    safe = np.where(dist > 0, dist, 1.0)
    grad[..., -1, :] += np.where(dist[..., None] > 0,
                                 end_err / safe[..., None], 0.0) / a
    return loss, grad / k

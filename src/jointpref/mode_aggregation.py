"""Likelihood-order aggregation of marginal predictions into joint scene modes.

Each agent's K trajectories are sorted by logit; the m-th most likely
trajectories across agents are paired into the m-th scene mode, whose logit
is the mean of the paired agent logits. Scene probabilities are the softmax
of the scene logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scene_model import JointModeSet, MarginalPrediction


@dataclass(frozen=True)
class AggregationTrace:
    """Bookkeeping needed to backpropagate through aggregation.

    agent_order[i, m] is the marginal mode index paired into joint pairing m
    for agent i; emit_order[k] is the pairing index emitted as output mode k
    (descending scene logit).
    """

    agent_order: np.ndarray  # (A, K) int
    emit_order: np.ndarray   # (K,) int


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))


def rank_marginal_modes(pred: MarginalPrediction) -> np.ndarray:
    """Per-agent descending sort of logits; ties keep the lower index first.

    Returns an (A, K) array whose row i is agent i's mode indices from most
    to least likely.
    """
    logits = pred.logits
    # stable sort on negated logits: equal logits keep original index order
    return np.argsort(-logits, axis=1, kind="stable")


def aggregate_to_joint(pred: MarginalPrediction,
                       return_trace: bool = False):
    """Pair per-agent modes by likelihood order and average the paired logits.

    Output modes are emitted in descending scene-logit order. Trajectories
    are regrouped but numerically untouched.
    """
    a, k = pred.logits.shape
    order = rank_marginal_modes(pred)                       # (A, K)
    rows = np.arange(a)[:, None]
    paired_logits = pred.logits[rows, order]                # (A, K)
    scene_logits = paired_logits.mean(axis=0)               # (K,)
    paired_trajs = pred.trajectories[rows, order]           # (A, K, T, 2)

    emit = np.argsort(-scene_logits, kind="stable")         # (K,)
    scene_logits = scene_logits[emit]
    modes = np.transpose(paired_trajs[:, emit], (1, 0, 2, 3))  # (K, A, T, 2)
    joint = JointModeSet(modes=modes, scene_logits=scene_logits,
                         scene_probs=softmax(scene_logits))
    if return_trace:
        return joint, AggregationTrace(agent_order=order, emit_order=emit)
    return joint


def scene_logit_grad_to_agent_logits(d_scene_logits: np.ndarray,
                                     trace: AggregationTrace) -> np.ndarray:
    """Push a gradient on emitted scene logits back onto per-agent logits.

    The pairing and emission permutations are treated as constant; each
    paired agent logit receives 1/A of its pairing's scene-logit gradient.
    """
    a, k = trace.agent_order.shape
    d_pairing = np.zeros(k)
    d_pairing[trace.emit_order] = np.asarray(d_scene_logits, dtype=np.float64)
    d_agent = np.zeros((a, k))
    rows = np.arange(a)[:, None]
    d_agent[rows, trace.agent_order] = d_pairing[None, :] / a
    return d_agent


def select_top_modes(joint: JointModeSet, n: int) -> JointModeSet:
    """Keep the n most probable modes and renormalize their probabilities."""
    k = joint.num_modes
    if not 1 <= n <= k:
        raise ValueError(f"n must be in [1, {k}], got {n}")
    keep = np.argsort(-joint.scene_probs, kind="stable")[:n]
    keep = np.sort(keep)  # modes are stored probability-descending already
    probs = joint.scene_probs[keep]
    return JointModeSet(modes=joint.modes[keep],
                        scene_logits=joint.scene_logits[keep],
                        scene_probs=probs / probs.sum())

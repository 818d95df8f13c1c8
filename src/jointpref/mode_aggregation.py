"""Likelihood-order aggregation of marginal predictions into joint scene modes.

Each agent's K trajectories are sorted by logit; the m-th most likely
trajectories across agents are paired into the m-th scene mode, whose logit
is the mean of the paired agent logits. Scene probabilities are the softmax
of the scene logits.
"""

from __future__ import annotations

import numpy as np

from .scene_model import JointModeSet, MarginalPrediction


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


def aggregate_to_joint(pred: MarginalPrediction,
                       return_trace: bool = False):
    """Pair per-agent modes by likelihood order and average the paired logits.

    Output modes are emitted in descending scene-logit order. Trajectories
    are regrouped but numerically untouched. Leading axes of pred stack
    scenes and are kept. With return_trace, also returns source (..., A, K):
    source[..., i, k] is agent i's marginal mode in joint mode k.
    """
    # each agent's modes, most likely first; equal logits keep index order
    order = np.argsort(-pred.logits, axis=-1, kind="stable")         # (..., A, K)
    scene_logits = np.take_along_axis(pred.logits, order, -1).mean(axis=-2)
    emit = np.argsort(-scene_logits, axis=-1, kind="stable")         # (..., K)
    # mode k, agent i is agent i's marginal mode order[..., i, emit[..., k]]
    source = np.take_along_axis(order, emit[..., None, :], -1)       # (..., A, K)
    modes = np.take_along_axis(np.swapaxes(pred.trajectories, -4, -3),
                               np.swapaxes(source, -2, -1)[..., None, None],
                               -4)                                   # (..., K, A, T, 2)
    scene_logits = np.take_along_axis(scene_logits, emit, -1)
    joint = JointModeSet(modes=modes, scene_logits=scene_logits,
                         scene_probs=softmax(scene_logits))
    if return_trace:
        return joint, source
    return joint


def scene_logit_grad_to_agent_logits(d_scene_logits: np.ndarray,
                                     source: np.ndarray) -> np.ndarray:
    """Push a gradient on emitted scene logits back onto per-agent logits.

    source is aggregate_to_joint's marginal-mode index (..., A, K). The
    pairing and emission permutations are treated as constant; each paired
    agent logit receives 1/A of its joint mode's scene-logit gradient.
    """
    d_agent = np.zeros(source.shape)
    np.put_along_axis(d_agent, source,
                      np.asarray(d_scene_logits, dtype=np.float64)[..., None, :]
                      / source.shape[-2], -1)
    return d_agent


def select_top_modes(joint: JointModeSet, n: int) -> JointModeSet:
    """Keep the n most probable modes and renormalize their probabilities."""
    k = joint.num_modes
    if not 1 <= n <= k:
        raise ValueError(f"n must be in [1, {k}], got {n}")
    keep = np.argsort(-joint.scene_probs, axis=-1, kind="stable")[..., :n]
    keep = np.sort(keep, axis=-1)  # modes are stored probability-descending
    probs = np.take_along_axis(joint.scene_probs, keep, -1)
    return JointModeSet(
        modes=np.take_along_axis(joint.modes, keep[..., None, None, None], -4),
        scene_logits=np.take_along_axis(joint.scene_logits, keep, -1),
        scene_probs=probs / probs.sum(axis=-1, keepdims=True))

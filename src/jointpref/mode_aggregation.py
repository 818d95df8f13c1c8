"""Likelihood-order aggregation of marginal predictions into joint scene modes.

Each agent's K trajectories are sorted by logit; the m-th most likely
trajectories across agents are paired into the m-th scene mode, whose logit
is the mean of the paired agent logits. Those means never increase along K,
so the joint modes come out most likely first, the order JointModeSet
requires and its consumers read from the front. Scene probabilities are the
softmax of the scene logits.
"""

from __future__ import annotations

import numpy as np

from .scene_model import JointModeSet


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


def _flat_index(source: np.ndarray):
    """source (..., A, K) as (S, A, K) over its S flattened scenes, with
    the (scene, agent) index arrays (S, 1, 1) and (A, 1) that go with it."""
    flat = source.reshape(-1, *source.shape[-2:])
    return np.arange(len(flat))[:, None, None], \
        np.arange(source.shape[-2])[:, None], flat


def aggregate_to_joint(trajectories: np.ndarray, logits: np.ndarray
                       ) -> tuple[JointModeSet, np.ndarray]:
    """Pair per-agent modes by likelihood order and average the paired logits.

    trajectories (..., A, K, T, 2) and logits (..., A, K) are the forward's
    outputs; leading axes stack scenes and are kept. Returns the joint modes,
    most likely first, and source (..., A, K): source[..., i, k] is agent
    i's marginal mode in joint mode k. Trajectories are regrouped but
    numerically untouched: one integer-index gather over the flattened
    leading axes, (scene, agent, source), gives a contiguous
    (..., K, A, T, 2) stack that JointModeSet keeps without a copy.
    """
    if logits.ndim < 2 or trajectories.shape[:-2] != logits.shape:
        raise ValueError(f"agent/mode shape mismatch: trajectories "
                         f"{trajectories.shape}, logits {logits.shape}")
    # each agent's modes, most likely first; equal logits keep index order
    source = np.argsort(-logits, axis=-1, kind="stable")       # (..., A, K)
    scene, agent, flat = _flat_index(source)                   # (S, A, K)
    # numpy's summation order depends on layout: the mean runs on (..., A, K)
    scene_logits = logits.reshape(flat.shape)[scene, agent, flat].reshape(
        source.shape).mean(axis=-2)
    modes = trajectories.reshape(flat.shape + trajectories.shape[-2:])[
        scene, agent.T, flat.swapaxes(-2, -1)]                # (S, K, A, T, 2)
    return JointModeSet(
        modes=modes.reshape(logits.shape[:-2] + modes.shape[1:]),
        scene_logits=scene_logits,
        scene_probs=softmax(scene_logits)), source


def scene_logit_grad_to_agent_logits(d_scene_logits: np.ndarray,
                                     source: np.ndarray) -> np.ndarray:
    """Push a gradient on scene logits back onto per-agent logits.

    source is aggregate_to_joint's marginal-mode index (..., A, K). The
    pairing is treated as constant; each paired agent logit receives 1/A of
    its joint mode's scene-logit gradient, scattered through the same
    (scene, agent, source) integer index as the gather.
    """
    scene, agent, flat = _flat_index(source)
    d_agent = np.zeros(flat.shape)
    d_agent[scene, agent, flat] = (
        np.asarray(d_scene_logits, dtype=np.float64).reshape(
            len(flat), 1, flat.shape[-1]) / source.shape[-2])
    return d_agent.reshape(source.shape)


def select_top_modes(joint: JointModeSet, n: int) -> JointModeSet:
    """Keep the n most probable modes, the first n as JointModeSet stores
    them, and renormalize their probabilities."""
    k = joint.num_modes
    if not 1 <= n <= k:
        raise ValueError(f"n must be in [1, {k}], got {n}")
    probs = joint.scene_probs[..., :n]
    return JointModeSet(modes=joint.modes[..., :n, :, :, :],
                        scene_logits=joint.scene_logits[..., :n],
                        scene_probs=probs / probs.sum(axis=-1, keepdims=True))

"""Hand-differentiated marginal trajectory predictor.

Architecture: per-agent history MLP (2 tanh layers, width 64) -> mean-pooled
social context of the other agents' embeddings (tanh projection) -> K
trajectory heads emitting residual offsets on a constant-velocity anchor,
plus a logit head scoring the K modes. All gradients are written out by
hand so the whole pipeline stays dependency-light and bit-deterministic.

Training stages: winner-takes-all pretraining (regression on the closest
mode + cross-entropy toward its index), listwise preference fine-tuning
through the aggregation's logit averaging, and the direct preference-cost
baseline whose gradients flow into the trajectory offsets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .mode_aggregation import (
    aggregate_to_joint,
    log_softmax,
    scene_logit_grad_to_agent_logits,
    softmax,
)
from .po_losses import SimPOConfig, direct_cost_loss, pl_nll_grad, pl_nll_from_logits
from .collision_geometry import RepellerParams
from .preference_ranking import preference_cost
from .scene_model import MarginalPrediction, Scene
from .scenegen import DT

HIDDEN = 64
VEL_SCALE = 0.1   # keeps velocity features O(1)

CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    learning_rate: float = 1e-5
    epochs: int = 5
    batch_size: int = 16
    objective: str = "simpo"   # pretrain | simpo | direct-cost
    simpo: SimPOConfig = field(default_factory=SimPOConfig)
    lam: float = 1e3
    momentum: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.objective not in ("pretrain", "simpo", "direct-cost"):
            raise ValueError(f"unknown objective {self.objective!r}")


def feature_dim(t_obs: int) -> int:
    # past displacements + velocities + last-yaw sin/cos + centroid-relative
    # current position (gives the social pooling actual relative geometry)
    return (t_obs - 1) * 2 + t_obs * 2 + 2 + 2


PARAM_KEYS = ("W1", "b1", "W2", "b2", "Ws", "bs", "Wtraj", "btraj", "Wl", "bl")


def init_params(t_obs: int, t_fut: int, k: int, seed: int,
                hidden: int = HIDDEN) -> dict:
    """Seeded uniform init, scale 1/sqrt(fan_in) per matrix; zero biases."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 17]))
    d_in = feature_dim(t_obs)
    d_cat = 2 * hidden

    def u(shape, fan_in):
        s = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-s, s, size=shape)

    return {
        "W1": u((d_in, hidden), d_in), "b1": np.zeros(hidden),
        "W2": u((hidden, hidden), hidden), "b2": np.zeros(hidden),
        "Ws": u((hidden, hidden), hidden), "bs": np.zeros(hidden),
        "Wtraj": u((k, d_cat, t_fut * 2), d_cat),
        "btraj": np.zeros((k, t_fut * 2)),
        "Wl": u((d_cat, k), d_cat), "bl": np.zeros(k),
        "_meta": {"t_obs": t_obs, "t_fut": t_fut, "k": k, "hidden": hidden,
                  "seed": seed},
    }


def param_count(params: dict) -> int:
    return sum(int(np.asarray(params[k]).size) for k in PARAM_KEYS)


def zero_grads(params: dict) -> dict:
    return {k: np.zeros_like(params[k]) for k in PARAM_KEYS}


POS_SCALE = 0.1   # keeps centroid-relative positions O(1)


def _features(scene: Scene) -> np.ndarray:
    last = np.array([a.past_positions[-1] for a in scene.agents])
    centroid = last.mean(axis=0)
    feats = []
    for agent, rel in zip(scene.agents, last - centroid):
        disp = np.diff(agent.past_positions, axis=0)
        vel = agent.past_velocities * VEL_SCALE
        yaw = agent.past_yaws[-1]
        feats.append(np.concatenate([disp.ravel(), vel.ravel(),
                                     [np.sin(yaw), np.cos(yaw)],
                                     rel * POS_SCALE]))
    return np.asarray(feats)


def _anchors(scene: Scene, t_fut: int) -> np.ndarray:
    """Constant-velocity rollout per agent: (A, T_fut, 2)."""
    steps = DT * np.arange(1, t_fut + 1)
    out = np.zeros((scene.num_agents, t_fut, 2))
    for i, agent in enumerate(scene.agents):
        p_last = agent.past_positions[-1]
        v_last = agent.past_velocities[-1]
        out[i] = p_last[None, :] + steps[:, None] * v_last[None, :]
    return out


def forward(params: dict, scene: Scene, cache: bool = False):
    """Run the predictor on one scene.

    Returns a MarginalPrediction, plus the activation cache when requested.
    """
    meta = params["_meta"]
    t_fut, k = meta["t_fut"], meta["k"]
    if scene.t_obs != meta["t_obs"]:
        raise ValueError(f"scene t_obs {scene.t_obs} != model {meta['t_obs']}")
    if scene.t_fut != t_fut:
        raise ValueError(f"scene t_fut {scene.t_fut} != model {t_fut}")
    a = scene.num_agents

    f = _features(scene)                                   # (A, d_in)
    h1 = np.tanh(f @ params["W1"] + params["b1"])          # (A, H)
    e = np.tanh(h1 @ params["W2"] + params["b2"])          # (A, H)
    if a > 1:
        m = (e.sum(axis=0, keepdims=True) - e) / (a - 1)   # mean of others
    else:
        m = np.zeros_like(e)
    s = np.tanh(m @ params["Ws"] + params["bs"])           # (A, H)
    z = np.concatenate([e, s], axis=1)                     # (A, 2H)

    offsets = np.einsum("ac,kco->ako", z, params["Wtraj"]) + params["btraj"]
    offsets = offsets.reshape(a, k, t_fut, 2)
    anchors = _anchors(scene, t_fut)
    trajs = anchors[:, None] + offsets                     # (A, K, T, 2)
    logits = z @ params["Wl"] + params["bl"]               # (A, K)

    pred = MarginalPrediction(trajectories=trajs, logits=logits)
    if not cache:
        return pred
    return pred, {"f": f, "h1": h1, "e": e, "m": m, "s": s, "z": z, "a": a}


def backward(params: dict, cache: dict, d_logits: np.ndarray,
             d_trajs: np.ndarray | None) -> dict:
    """Backpropagate gradients on logits and/or trajectories into parameters."""
    meta = params["_meta"]
    t_fut, k = meta["t_fut"], meta["k"]
    a = cache["a"]
    z, e, s, m, h1, f = (cache["z"], cache["e"], cache["s"], cache["m"],
                         cache["h1"], cache["f"])
    grads = zero_grads(params)

    dz = d_logits @ params["Wl"].T
    grads["Wl"] = z.T @ d_logits
    grads["bl"] = d_logits.sum(axis=0)

    if d_trajs is not None:
        d_off = d_trajs.reshape(a, k, t_fut * 2)           # (A, K, O)
        grads["Wtraj"] = np.einsum("ac,ako->kco", z, d_off)
        grads["btraj"] = d_off.sum(axis=0)
        dz = dz + np.einsum("ako,kco->ac", d_off, params["Wtraj"])

    hidden = meta["hidden"]
    de = dz[:, :hidden].copy()
    ds = dz[:, hidden:]

    dpre_s = ds * (1.0 - s * s)
    grads["Ws"] = m.T @ dpre_s
    grads["bs"] = dpre_s.sum(axis=0)
    dm = dpre_s @ params["Ws"].T
    if a > 1:
        de += (dm.sum(axis=0, keepdims=True) - dm) / (a - 1)

    dpre_e = de * (1.0 - e * e)
    grads["W2"] = h1.T @ dpre_e
    grads["b2"] = dpre_e.sum(axis=0)
    dh1 = dpre_e @ params["W2"].T
    dpre_h1 = dh1 * (1.0 - h1 * h1)
    grads["W1"] = f.T @ dpre_h1
    grads["b1"] = dpre_h1.sum(axis=0)
    return grads


def _accumulate(total: dict, grads: dict, scale: float = 1.0) -> None:
    for key in PARAM_KEYS:
        total[key] += scale * grads[key]


def sgd_step(params: dict, grads: dict, lr: float, momentum: float = 0.0,
             velocity: dict | None = None) -> dict | None:
    """In-place SGD update; returns the updated velocity state when used."""
    if momentum > 0:
        if velocity is None:
            velocity = zero_grads(params)
        for key in PARAM_KEYS:
            velocity[key] = momentum * velocity[key] + grads[key]
            params[key] = params[key] - lr * velocity[key]
        return velocity
    for key in PARAM_KEYS:
        params[key] = params[key] - lr * grads[key]
    return velocity


def pretrain_scene_loss(params: dict, scene: Scene):
    """Winner-takes-all loss and parameter gradients for one scene."""
    pred, cache = forward(params, scene, cache=True)
    gt = scene.ground_truth_futures                       # (A, T, 2)
    a, k = pred.logits.shape
    t_fut = gt.shape[1]

    err = pred.trajectories - gt[:, None]                 # (A, K, T, 2)
    sq = np.sum(err * err, axis=(2, 3))                   # (A, K)
    winners = np.argmin(sq, axis=1)                       # (A,)

    d_trajs = np.zeros_like(pred.trajectories)
    d_logits = np.zeros_like(pred.logits)
    loss = 0.0
    for i in range(a):
        w = winners[i]
        reg = sq[i, w] / t_fut
        logp = log_softmax(pred.logits[i])
        loss += reg - logp[w]
        d_trajs[i, w] = 2.0 * err[i, w] / t_fut / a
        d_logits[i] = softmax(pred.logits[i]) / a
        d_logits[i, w] -= 1.0 / a
    loss /= a
    grads = backward(params, cache, d_logits, d_trajs)
    return loss, grads


def simpo_scene_loss(params: dict, scene: Scene, config: TrainConfig,
                     repeller: RepellerParams):
    """Listwise preference loss, gradients and the top/bottom reward gap."""
    pred, cache = forward(params, scene, cache=True)
    joint, trace = aggregate_to_joint(pred, return_trace=True)
    rec = preference_cost(joint, scene.ground_truth_futures,
                          lam=config.lam, repeller_params=repeller)
    tau = rec.ranking
    loss = pl_nll_from_logits(joint.scene_logits, tau, config.simpo)
    d_scene = pl_nll_grad(joint.scene_logits, tau, config.simpo)
    d_agent_logits = scene_logit_grad_to_agent_logits(d_scene, trace)
    grads = backward(params, cache, d_agent_logits, None)
    rewards = config.simpo.beta * log_softmax(joint.scene_logits)
    gap = float(rewards[tau[0]] - rewards[tau[-1]])
    return loss, grads, gap


def direct_scene_loss(params: dict, scene: Scene, lam: float,
                      repeller: RepellerParams):
    """Direct preference-cost objective; gradients flow into the offsets."""
    pred, cache = forward(params, scene, cache=True)
    joint, trace = aggregate_to_joint(pred, return_trace=True)
    loss, d_modes = direct_cost_loss(joint, scene.ground_truth_futures,
                                     lam=lam, repeller_params=repeller)
    # mode k, agent i came from marginal mode agent_order[i, emit_order[k]]
    d_trajs = np.zeros_like(pred.trajectories)
    rows = np.arange(pred.logits.shape[0])[:, None]
    d_trajs[rows, trace.agent_order[:, trace.emit_order]] = d_modes.swapaxes(0, 1)
    grads = backward(params, cache, np.zeros_like(pred.logits), d_trajs)
    return loss, grads


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def train(params: dict, scenes: list[Scene], config: TrainConfig,
          repeller: RepellerParams | None = None,
          log_fn=None) -> dict:
    """Run one training stage in place; returns a per-epoch history dict."""
    repeller = repeller or RepellerParams()
    rng = np.random.default_rng(
        np.random.SeedSequence([config.rng_seed & 0xFFFFFFFF, 23]))
    history = {"epoch_loss": [], "epoch_reward_gap": []}
    velocity = None
    for epoch in range(config.epochs):
        losses, gaps = [], []
        for batch_idx in _batches(len(scenes), config.batch_size, rng):
            total = zero_grads(params)
            batch_loss = 0.0
            for si in batch_idx:
                scene = scenes[int(si)]
                if config.objective == "pretrain":
                    loss, grads = pretrain_scene_loss(params, scene)
                elif config.objective == "simpo":
                    loss, grads, gap = simpo_scene_loss(params, scene, config,
                                                        repeller)
                    gaps.append(gap)
                else:
                    loss, grads = direct_scene_loss(params, scene, config.lam,
                                                    repeller)
                batch_loss += loss
                _accumulate(total, grads)
            n = len(batch_idx)
            for key in PARAM_KEYS:
                total[key] /= n
            velocity = sgd_step(params, total, config.learning_rate,
                                config.momentum, velocity)
            losses.append(batch_loss / n)
        history["epoch_loss"].append(float(np.mean(losses)))
        if gaps:
            history["epoch_reward_gap"].append(float(np.mean(gaps)))
        if log_fn:
            log_fn(epoch, history)
    return history


def save_checkpoint(path, params: dict) -> None:
    """Bit-exact round-trip checkpoint with shape manifest and seed."""
    meta = dict(params["_meta"])
    meta["version"] = CHECKPOINT_VERSION
    meta["shapes"] = {k: list(np.asarray(params[k]).shape) for k in PARAM_KEYS}
    arrays = {k: params[k] for k in PARAM_KEYS}
    np.savez(path, _meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **arrays)


def load_checkpoint(path) -> dict:
    with np.load(path) as data:
        meta = json.loads(bytes(data["_meta"]).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unknown checkpoint version {meta.get('version')!r}")
        params = {k: data[k].copy() for k in PARAM_KEYS}
    for k, shape in meta["shapes"].items():
        if list(params[k].shape) != shape:
            raise ValueError(f"checkpoint shape mismatch for {k}")
    meta.pop("shapes")
    meta.pop("version")
    params["_meta"] = meta
    return params

"""Hand-differentiated marginal trajectory predictor.

Architecture: per-agent history MLP (2 tanh layers, width 64) -> mean-pooled
social context of the other agents' embeddings (tanh projection) -> K
trajectory heads giving residual offsets on a constant-velocity anchor,
plus a logit head scoring the K modes. All gradients are written out by
hand so the whole pipeline stays dependency-light and bit-deterministic.
A split is read into arrays once; the predictor and its losses take (B, A,
...) blocks of them and give the bits of one scene at a time.

Training stages: winner-takes-all pretraining (regression on the closest
mode + cross-entropy toward its index), listwise preference fine-tuning
through the aggregation's logit averaging, and the direct preference-cost
baseline whose gradients flow into the trajectory offsets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .mode_aggregation import (
    aggregate_to_joint,
    log_softmax,
    scene_logit_grad_to_agent_logits,
    softmax,
)
from .po_losses import SimPOConfig, direct_cost_loss, pl_nll_grad, pl_nll_from_logits
from .preference_ranking import DEFAULT_LAMBDA, preference_cost
from .scene_model import NonFiniteError, Scene, atomic_open
from .scenegen import DT

HIDDEN = 64
VEL_SCALE = 0.1   # keeps velocity features O(1)
POS_SCALE = 0.1   # keeps centroid-relative positions O(1)

CHECKPOINT_VERSION = 1
# an epoch's mean loss above this multiple of the first epoch's is divergence
DIVERGENCE_RATIO = 1e6


@dataclass
class TrainConfig:
    """A training stage: its objective and what its step reads."""

    learning_rate: float
    epochs: int = 5
    batch_size: int = 16
    objective: str = "simpo"   # pretrain | simpo | direct-cost
    simpo: SimPOConfig = field(default_factory=SimPOConfig)
    lam: float = DEFAULT_LAMBDA
    momentum: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
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


def zero_grads(params: dict) -> dict:
    return {k: np.zeros_like(params[k]) for k in PARAM_KEYS}


class SceneBlock(NamedTuple):
    """Scenes as (N, ...) arrays: the predictor's inputs and targets."""

    features: np.ndarray   # (N, A, d_in)
    anchors: np.ndarray    # (N, A, T_fut, 2) constant-velocity rollouts
    futures: np.ndarray    # (N, A, T_fut, 2) ground truth
    ids: np.ndarray        # (N,) scene ids


def _features(positions: np.ndarray, velocities: np.ndarray,
              yaws: np.ndarray) -> np.ndarray:
    """(N, A, d_in) features from (N, A, T_obs, ...) tracks."""
    n, a = positions.shape[:2]
    last = positions[:, :, -1]                             # (N, A, 2)
    rel = last - last.mean(axis=1, keepdims=True)
    yaw = yaws[:, :, -1:]
    return np.concatenate([np.diff(positions, axis=2).reshape(n, a, -1),
                           (velocities * VEL_SCALE).reshape(n, a, -1),
                           np.sin(yaw), np.cos(yaw), rel * POS_SCALE], axis=2)


def _anchors(positions: np.ndarray, velocities: np.ndarray,
             t_fut: int) -> np.ndarray:
    """Constant-velocity rollout per agent: (N, A, T_fut, 2)."""
    steps = DT * np.arange(1, t_fut + 1)
    return (positions[:, :, -1, None, :]
            + steps[:, None] * velocities[:, :, -1, None, :])


def scene_block(scenes: list[Scene]) -> SceneBlock:
    """Scenes of one agent count and one pair of horizons (read_scenes
    checks both on every line of a split) as arrays; the anchors take the
    futures' horizon. ValueError when the list is empty."""
    if not scenes:
        raise ValueError("no scenes")
    positions = np.array([scene.past_positions for scene in scenes])
    velocities = np.array([scene.past_velocities for scene in scenes])
    futures = np.array([scene.ground_truth_futures for scene in scenes])
    return SceneBlock(
        features=_features(positions, velocities,
                           np.array([scene.past_yaws for scene in scenes])),
        anchors=_anchors(positions, velocities, futures.shape[2]),
        futures=futures,
        ids=np.array([scene.scene_id for scene in scenes], dtype=str))


def forward(params: dict, block: SceneBlock, cache: bool = False, *,
            ranking_only: bool = False):
    """Trajectories (B, A, K, T_fut, 2) and logits (B, A, K) of a block,
    plus the activation cache when requested.

    The offsets contract z against a contiguous (2H, K*O) copy of Wtraj, so
    einsum's inner loop runs over all K*O outputs at once. Each offset is
    still z's terms summed over c in order: numpy's einsum (2.4.6) adds one
    rounded product per c to each output, in this layout as in the
    per-scene "ac,kco->ako" it replaced. The tests pin the bits.

    ranking_only=True makes the offsets one BLAS matmul over all B*A rows
    instead, in BLAS's summation order: a few ulps from the einsum's and
    several times faster at K=12. Such trajectories may only decide an
    order (the SimPO step's ranking), never reach a gradient, a loss or a
    reported number; the tests check that the order is the einsum's. The
    logits and the cache are the same bits either way.
    ValueError when the block's horizons are not the model's."""
    f = block.features                                     # (B, A, d_in)
    meta, t_fut = params["_meta"], block.anchors.shape[2]
    # feature_dim(t_obs) = 4 t_obs + 2 features; W1 has one row for each
    if (f.shape[2], t_fut) != (params["W1"].shape[0], meta["t_fut"]):
        raise ValueError(
            f"block has t_obs {(f.shape[2] - 2) / 4:g}, t_fut {t_fut}; the "
            f"model has t_obs {meta['t_obs']}, t_fut {meta['t_fut']}")
    a = f.shape[1]
    h1 = np.tanh(f @ params["W1"] + params["b1"])          # (B, A, H)
    e = np.tanh(h1 @ params["W2"] + params["b2"])          # (B, A, H)
    # mean of the other agents' embeddings; a lone agent's is 0
    m = (e.sum(axis=1, keepdims=True) - e) / max(a - 1, 1)
    s = np.tanh(m @ params["Ws"] + params["bs"])           # (B, A, H)
    z = np.concatenate([e, s], axis=2)                     # (B, A, 2H)

    k, c, o = params["Wtraj"].shape
    w = np.ascontiguousarray(params["Wtraj"].transpose(1, 0, 2)).reshape(c, -1)
    if ranking_only:
        flat = z.reshape(-1, c) @ w                        # (B*A, K*O)
    else:
        flat = np.einsum("bac,cp->bap", z, w)              # (B, A, K*O)
    offsets = (flat.reshape(*z.shape[:2], k, o)
               + params["btraj"])                          # (B, A, K, O)
    trajs = block.anchors[:, :, None] + offsets.reshape(
        *offsets.shape[:3], -1, 2)                         # (B, A, K, T, 2)
    logits = z @ params["Wl"] + params["bl"]               # (B, A, K)
    if not np.all(np.isfinite(logits)):
        raise NonFiniteError("logits must be finite")
    if not cache:
        return trajs, logits
    return trajs, logits, (f, h1, e, m, s, z)


def backward(params: dict, cache: tuple, d_logits: np.ndarray,
             d_trajs: np.ndarray | None) -> dict:
    """Batch-mean gradients of the parameters a block's logit/trajectory
    gradients reach: all ten, or all but Wtraj and btraj when d_trajs is
    None (their gradient would be exactly zero).

    Each (B, ...) stack of per-scene gradients is summed in scene order as
    soon as it is made, so one stack is alive at a time, and each sum is
    made a batch mean at the end. _accumulate makes the two Wtraj terms
    from the live part of d_off: Wtraj's gradient sum, and Wtraj's part of
    dz, which is added to the logit path's dz in one sum, as the full
    "bako,kco->bac" einsum's result was. The tests pin the bits."""
    hidden = params["_meta"]["hidden"]
    f, h1, e, m, s, z = cache
    a = z.shape[1]
    sums = {"Wl": (z.swapaxes(1, 2) @ d_logits).sum(axis=0),
            "bl": d_logits.sum(axis=1).sum(axis=0)}
    dz = d_logits @ params["Wl"].T
    if d_trajs is not None:
        d_off = d_trajs.reshape(*d_trajs.shape[:3], -1)    # (B, A, K, O)
        sums["btraj"] = d_off.sum(axis=1).sum(axis=0)
        dz_off, sums["Wtraj"] = _accumulate(params, z, d_off)
        dz = dz + dz_off

    de = dz[..., :hidden].copy()
    dpre_s = dz[..., hidden:] * (1.0 - s * s)
    sums["Ws"] = (m.swapaxes(1, 2) @ dpre_s).sum(axis=0)
    sums["bs"] = dpre_s.sum(axis=1).sum(axis=0)
    dm = dpre_s @ params["Ws"].T
    de += (dm.sum(axis=1, keepdims=True) - dm) / max(a - 1, 1)

    dpre_e = de * (1.0 - e * e)
    sums["W2"] = (h1.swapaxes(1, 2) @ dpre_e).sum(axis=0)
    sums["b2"] = dpre_e.sum(axis=1).sum(axis=0)
    dh1 = dpre_e @ params["W2"].T
    dpre_h1 = dh1 * (1.0 - h1 * h1)
    sums["W1"] = (f.swapaxes(1, 2) @ dpre_h1).sum(axis=0)
    sums["b1"] = dpre_h1.sum(axis=1).sum(axis=0)
    for grad in sums.values():
        grad /= len(z)
    return sums


def _accumulate(params: dict, z: np.ndarray, d_off: np.ndarray):
    """The Wtraj terms of a block's backward pass, from the live part of
    d_off (B, A, K, O) only: Wtraj's part of dz (B, A, 2H), and the sum over
    scenes b of z[b]^T d_off[b] (Wtraj's gradient before the batch mean).

    One (B, A, K) mask marks the (scene, agent, mode) rows with a nonzero
    d_off slice, and one loop visits the modes that some row reaches, in
    mode order: under winner-takes-all most rows are dead, and the
    direct-cost gradient touches every row but few offset columns.

    dz: a mode's live rows are contracted in one "no,co->nc" einsum and
    added onto their rows of dz's offset part, which starts at +0. That is
    the order of the full "bako,kco->bac" einsum: numpy's einsum (2.4.6)
    reduces one mode's O terms per inner loop and adds the modes in order,
    and a dead row's +-0 leaves a sum that started at +0 unchanged.

    Wtraj: per mode, only the live scenes and, among them, the offset
    columns with a nonzero entry are contracted. A mode that some scene
    gives to two live agents (always, under the direct cost) is summed per
    scene: one einsum adds each scene's agents in order, as a per-scene
    einsum does, and the (live B, O, 2H) stack is summed over scenes in
    order. In a mode that no scene shares, each scene's term is one
    agent's exact outer product, the others adding +-0, so one
    "bao,bac->oc" einsum gives the same bits without the stack: numpy's
    einsum adds its rounded products one at a time, scenes in order.
    Either sum is added onto +0, so the bits equal the sum over every slice
    and column. The tests pin both sides."""
    wtraj = params["Wtraj"]
    dz_off = np.zeros_like(z)
    d_wtraj = np.zeros_like(wtraj)
    live = d_off.any(axis=3)                               # (B, A, K)
    for k in np.flatnonzero(live.any(axis=(0, 1))):
        rows = live[:, :, k]                               # (B, A)
        d_rows = d_off[rows, k]                            # (live rows, O)
        dz_off[rows] += np.einsum("no,co->nc", d_rows, wtraj[k])
        scenes = rows.any(axis=1)
        cols = np.flatnonzero(d_rows.any(axis=0))
        d_k, z_k = d_off[scenes, :, k][:, :, cols], z[scenes]
        # the longer 2H axis runs innermost
        if rows.sum(axis=1).max() == 1:                    # no scene shares k
            d_wtraj[k][:, cols] += np.einsum("bao,bac->oc", d_k, z_k).T
        else:                                              # (live B, O, 2H)
            d_wtraj[k][:, cols] += np.einsum(
                "bao,bac->boc", d_k, z_k).sum(axis=0).T
    return dz_off, d_wtraj


def sgd_step(params: dict, grads: dict, lr: float, momentum: float = 0.0,
             velocity: dict | None = None) -> dict | None:
    """In-place SGD update of the parameters in grads; returns the updated
    velocity state when used. Each array is updated in place (v *= momentum;
    v += g; p -= lr * v), the same elementwise operations and so the same
    bits as v = momentum * v + g; p = p - lr * v, without the temporaries;
    the tests pin them. A parameter missing from grads keeps its array, its
    value and its velocity: a loss leaves out only a parameter it never
    reaches, so over a stage this equals a zero update of a zero velocity."""
    if momentum > 0:
        if velocity is None:
            velocity = zero_grads(params)
        for key in grads:
            velocity[key] *= momentum
            velocity[key] += grads[key]
            params[key] -= lr * velocity[key]
        return velocity
    for key in grads:
        params[key] -= lr * grads[key]
    return velocity


def pretrain_scene_loss(params: dict, block: SceneBlock, config: TrainConfig):
    """Winner-takes-all loss per scene, batch-mean grads, no gaps."""
    trajs, logits, cache = forward(params, block, cache=True)
    b, a, t_fut, _ = block.futures.shape
    err = trajs - block.futures[:, :, None]               # (B, A, K, T, 2)
    sq = np.sum(err * err, axis=(3, 4))                   # (B, A, K)
    rows, agents = np.indices((b, a))
    w = np.argmin(sq, axis=2)                             # (B, A) winners
    reg = sq[rows, agents, w] / t_fut
    logp = log_softmax(logits)[rows, agents, w]
    # agents summed in order, as a running total would
    losses = np.cumsum(reg - logp, axis=1)[:, -1] / a
    d_trajs = np.zeros_like(trajs)
    d_trajs[rows, agents, w] = 2.0 * err[rows, agents, w] / t_fut / a
    d_logits = softmax(logits) / a
    d_logits[rows, agents, w] -= 1.0 / a
    return losses, backward(params, cache, d_logits, d_trajs), None


def simpo_scene_loss(params: dict, block: SceneBlock, config: TrainConfig):
    """Listwise loss per scene, batch-mean grads (none for Wtraj, btraj)
    and top/bottom reward gap per scene.

    The trajectories only rank each scene's joint modes (tau); the losses,
    gradients and gaps read the logits and tau alone. So they come from
    forward's matmul path, a few ulps from the einsum's: tau, and with it
    every output, keeps the einsum path's bits unless two modes' costs lie
    within that margin. The tests check tau and the bits at K=6 and 12."""
    trajs, logits, cache = forward(params, block, cache=True,
                                   ranking_only=True)
    joint, source = aggregate_to_joint(trajs, logits)
    tau = preference_cost(joint, block.futures, lam=config.lam).ranking
    losses = pl_nll_from_logits(joint.scene_logits, tau, config.simpo)
    d_scene = pl_nll_grad(joint.scene_logits, tau, config.simpo)
    d_logits = scene_logit_grad_to_agent_logits(d_scene, source)
    rewards = config.simpo.beta * log_softmax(joint.scene_logits)
    ends = np.take_along_axis(rewards, tau[:, [0, -1]], 1)
    return losses, backward(params, cache, d_logits, None), ends[:, 0] - ends[:, 1]


def direct_scene_loss(params: dict, block: SceneBlock, config: TrainConfig):
    """Direct preference-cost loss per scene, batch-mean grads via offsets,
    no gaps."""
    trajs, logits, cache = forward(params, block, cache=True)
    joint, source = aggregate_to_joint(trajs, logits)
    losses, d_modes = direct_cost_loss(joint, block.futures, lam=config.lam)
    # mode k, agent i came from agent i's marginal mode source[b, i, k]
    b, a = source.shape[:2]
    d_trajs = np.zeros_like(trajs)
    d_trajs[np.arange(b)[:, None, None], np.arange(a)[:, None], source] = \
        d_modes.swapaxes(1, 2)
    return losses, backward(params, cache, np.zeros_like(logits), d_trajs), None


def train(params: dict, block: SceneBlock, config: TrainConfig,
          log_fn=None) -> dict:
    """Run one training stage in place on a scene block, calling
    log_fn(epoch, history) after each epoch; returns the per-epoch history.
    Each batch is one config.objective step: (params, block, config) ->
    (per-scene losses, batch-mean grads, per-scene reward gaps or None).

    NonFiniteError naming the epoch when a step meets a non-finite logit,
    an epoch's mean loss is not finite or above DIVERGENCE_RATIO times the
    first epoch's (the losses are nonnegative), or a parameter is not finite
    at the end; the checks add no work per step."""
    # built per call, so a step rebound on this module is the one called
    step = {"pretrain": pretrain_scene_loss, "simpo": simpo_scene_loss,
            "direct-cost": direct_scene_loss}[config.objective]
    rng = np.random.default_rng(
        np.random.SeedSequence([config.rng_seed & 0xFFFFFFFF, 23]))
    history = {"epoch_loss": [], "epoch_reward_gap": []}
    velocity = None
    for epoch in range(config.epochs):
        losses, gaps = [], []
        order = rng.permutation(len(block.ids))
        try:
            for start in range(0, len(block.ids), config.batch_size):
                rows = order[start:start + config.batch_size]
                batch = SceneBlock(*(arrays[rows] for arrays in block))
                scene_losses, grads, scene_gaps = step(params, batch, config)
                if scene_gaps is not None:
                    gaps.extend(scene_gaps)
                velocity = sgd_step(params, grads, config.learning_rate,
                                    config.momentum, velocity)
                # scenes summed in order: np.sum adds 8 or more pairwise
                losses.append(np.cumsum(scene_losses)[-1] / len(rows))
        except NonFiniteError as e:
            raise NonFiniteError(f"epoch {epoch}: {e}") from e
        epoch_loss = float(np.mean(losses))
        if not np.isfinite(epoch_loss):
            raise NonFiniteError(f"epoch {epoch}: loss {epoch_loss}")
        if history["epoch_loss"] and (
                epoch_loss > DIVERGENCE_RATIO * history["epoch_loss"][0]):
            raise NonFiniteError(
                f"epoch {epoch}: loss {epoch_loss:.4g} is over "
                f"{DIVERGENCE_RATIO:g} times epoch 0's "
                f"{history['epoch_loss'][0]:.4g}")
        history["epoch_loss"].append(epoch_loss)
        if gaps:
            history["epoch_reward_gap"].append(float(np.mean(gaps)))
        if log_fn:
            log_fn(epoch, history)
    for key in PARAM_KEYS:
        if not np.isfinite(params[key]).all():
            raise NonFiniteError(f"epoch {config.epochs - 1}: {key} is not "
                                 "finite")
    return history


def save_checkpoint(path, params: dict) -> None:
    """Bit-exact round-trip checkpoint with shape manifest and seed."""
    meta = dict(params["_meta"])
    meta["version"] = CHECKPOINT_VERSION
    meta["shapes"] = {k: list(np.asarray(params[k]).shape) for k in PARAM_KEYS}
    # given a file object, savez writes path as named, with no .npz added
    with atomic_open(path, "wb") as f:
        np.savez(f, _meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **{k: params[k] for k in PARAM_KEYS})


def load_checkpoint(path) -> dict:
    """Parameters and meta of a checkpoint; ValueError naming the key when a
    parameter's shape differs from the manifest or a value is not finite."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["_meta"]).decode())
        if not isinstance(meta, dict):
            raise ValueError("checkpoint _meta is not a JSON object")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unknown checkpoint version {meta.get('version')!r}")
        params = {k: data[k].copy() for k in PARAM_KEYS}
    if not isinstance(meta.get("shapes"), dict):
        raise ValueError("checkpoint shapes is not a JSON object")
    for k, shape in meta["shapes"].items():
        if list(params[k].shape) != shape:
            raise ValueError(f"checkpoint shape mismatch for {k}")
    for k in PARAM_KEYS:
        if not np.isfinite(params[k]).all():
            raise ValueError(f"checkpoint parameter {k} is not finite")
    meta.pop("shapes")
    meta.pop("version")
    params["_meta"] = meta
    return params

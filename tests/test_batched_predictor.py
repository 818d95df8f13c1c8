"""The batched predictor path against the per-scene code it replaced.

The reference functions below are the predictor's former one-scene-at-a-time
forward, backward and training losses. A block of B scenes must give each
scene's loss and reward gap, and the batch-mean gradient summed in scene
order, bit for bit, at the default BLAS thread count and at one thread. A
parameter the block's gradients leave out must have a +0 reference
gradient.

The training step's exact paths rest on the order in which numpy's einsum
sums each contraction, so every path is pinned here: forward's flattened
Wtraj contraction, _accumulate's per-mode dz over a mode's live rows (some
or all of them), both ways it sums a mode's Wtraj gradient, and the
in-place SGD update. The SimPO step alone takes its trajectories from
forward's BLAS matmul path, which may only decide the ranking: its ranking,
losses, gradients and gaps are checked against a step ranked on the einsum
trajectories.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jointpref
from jointpref.collision_geometry import RepellerParams
from jointpref.mode_aggregation import (
    aggregate_to_joint,
    log_softmax,
    scene_logit_grad_to_agent_logits,
    softmax,
)
from jointpref.po_losses import (
    SimPOConfig,
    direct_cost_loss,
    pl_nll_from_logits,
    pl_nll_grad,
)
from jointpref.preference_ranking import preference_cost
from jointpref.scenegen import DT, ScenarioSpec, generate_scene
from jointpref.toy_predictor import (
    PARAM_KEYS,
    POS_SCALE,
    VEL_SCALE,
    SceneBlock,
    TrainConfig,
    backward,
    direct_scene_loss,
    feature_dim,
    forward,
    init_params,
    pretrain_scene_loss,
    scene_block,
    sgd_step,
    simpo_scene_loss,
    train,
    zero_grads,
)

T_OBS, T_FUT = 10, 30
KINDS = ("crossing", "merge", "follow", "parallel")


# ---------------------------------------------------------------------------
# reference: the per-scene predictor
# ---------------------------------------------------------------------------

def features_ref(scene):
    last = np.array([scene.past_positions[i, -1]
                     for i in range(scene.num_agents)])
    centroid = last.mean(axis=0)
    feats = []
    for i, rel in enumerate(last - centroid):
        disp = np.diff(scene.past_positions[i], axis=0)
        vel = scene.past_velocities[i] * VEL_SCALE
        yaw = scene.past_yaws[i, -1]
        feats.append(np.concatenate([disp.ravel(), vel.ravel(),
                                     [np.sin(yaw), np.cos(yaw)],
                                     rel * POS_SCALE]))
    return np.asarray(feats)


def anchors_ref(scene, t_fut):
    steps = DT * np.arange(1, t_fut + 1)
    out = np.zeros((scene.num_agents, t_fut, 2))
    for i in range(scene.num_agents):
        p_last = scene.past_positions[i][-1]
        v_last = scene.past_velocities[i][-1]
        out[i] = p_last[None, :] + steps[:, None] * v_last[None, :]
    return out


def forward_ref(params, scene):
    meta = params["_meta"]
    t_fut, k = meta["t_fut"], meta["k"]
    a = scene.num_agents
    f = features_ref(scene)
    h1 = np.tanh(f @ params["W1"] + params["b1"])
    e = np.tanh(h1 @ params["W2"] + params["b2"])
    if a > 1:
        m = (e.sum(axis=0, keepdims=True) - e) / (a - 1)
    else:
        m = np.zeros_like(e)
    s = np.tanh(m @ params["Ws"] + params["bs"])
    z = np.concatenate([e, s], axis=1)
    offsets = np.einsum("ac,kco->ako", z, params["Wtraj"]) + params["btraj"]
    offsets = offsets.reshape(a, k, t_fut, 2)
    trajs = anchors_ref(scene, t_fut)[:, None] + offsets
    logits = z @ params["Wl"] + params["bl"]
    return (trajs, logits), {"f": f, "h1": h1, "e": e, "m": m, "s": s,
                             "z": z, "a": a}


def backward_ref(params, cache, d_logits, d_trajs):
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
        d_off = d_trajs.reshape(a, k, t_fut * 2)
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


def pretrain_ref(params, scene):
    (trajs, logits), cache = forward_ref(params, scene)
    gt = scene.ground_truth_futures
    a, k = logits.shape
    t_fut = gt.shape[1]
    err = trajs - gt[:, None]
    sq = np.sum(err * err, axis=(2, 3))
    winners = np.argmin(sq, axis=1)
    d_trajs = np.zeros_like(trajs)
    d_logits = np.zeros_like(logits)
    loss = 0.0
    for i in range(a):
        w = winners[i]
        reg = sq[i, w] / t_fut
        logp = log_softmax(logits[i])
        loss += reg - logp[w]
        d_trajs[i, w] = 2.0 * err[i, w] / t_fut / a
        d_logits[i] = softmax(logits[i]) / a
        d_logits[i, w] -= 1.0 / a
    loss /= a
    return loss, backward_ref(params, cache, d_logits, d_trajs), None


def simpo_ref(params, scene, config, repeller):
    (trajs, logits), cache = forward_ref(params, scene)
    joint, trace = aggregate_to_joint(trajs, logits)
    tau = preference_cost(joint, scene.ground_truth_futures, lam=config.lam,
                          repeller_params=repeller).ranking
    loss = pl_nll_from_logits(joint.scene_logits, tau, config.simpo)
    d_scene = pl_nll_grad(joint.scene_logits, tau, config.simpo)
    d_agent_logits = scene_logit_grad_to_agent_logits(d_scene, trace)
    grads = backward_ref(params, cache, d_agent_logits, None)
    rewards = config.simpo.beta * log_softmax(joint.scene_logits)
    return loss, grads, float(rewards[tau[0]] - rewards[tau[-1]])


def direct_ref(params, scene, lam, repeller):
    (trajs, logits), cache = forward_ref(params, scene)
    joint, source = aggregate_to_joint(trajs, logits)
    loss, d_modes = direct_cost_loss(joint, scene.ground_truth_futures,
                                     lam=lam, repeller_params=repeller)
    d_trajs = np.zeros_like(trajs)
    rows = np.arange(logits.shape[0])[:, None]
    d_trajs[rows, source] = d_modes.swapaxes(0, 1)
    grads = backward_ref(params, cache, np.zeros_like(logits), d_trajs)
    return loss, grads, None


def batch_ref(params, scenes, scene_fn):
    """Per-scene losses and gaps, and the gradients summed in scene order."""
    total = zero_grads(params)
    losses, gaps = [], []
    for scene in scenes:
        loss, grads, gap = scene_fn(params, scene)
        losses.append(loss)
        gaps.append(gap)
        for key in PARAM_KEYS:
            total[key] += grads[key]
    for key in PARAM_KEYS:
        total[key] /= len(scenes)
    return losses, total, gaps


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

CONFIG = TrainConfig(learning_rate=1e-5, objective="simpo",
                     simpo=SimPOConfig(beta=2.0, gamma=5.0))
DIRECT = TrainConfig(learning_rate=1e-5, objective="direct-cost", lam=10.0)
# name: (per-scene reference, training step, the step's config)
OBJECTIVES = {
    "pretrain": (pretrain_ref, pretrain_scene_loss,
                 TrainConfig(learning_rate=1e-5, objective="pretrain")),
    "simpo": (lambda p, s: simpo_ref(p, s, CONFIG, RepellerParams()),
              simpo_scene_loss, CONFIG),
    "direct": (lambda p, s: direct_ref(p, s, DIRECT.lam, RepellerParams()),
               direct_scene_loss, DIRECT),
}


def make_scenes(n, seed=0):
    return [generate_scene(ScenarioSpec(kind=KINDS[i % 4]), seed=seed + i,
                           t_obs=T_OBS, t_fut=T_FUT) for i in range(n)]


def make_params(k, seed=0):
    """Seeded weights with non-zero biases, so every gradient term moves."""
    params = init_params(T_OBS, T_FUT, k, seed=seed)
    rng = np.random.default_rng(seed)
    for key in PARAM_KEYS:
        params[key] = params[key] + 0.05 * rng.standard_normal(params[key].shape)
    return params


def mismatches(objective, b, k):
    """Names of the results where block and reference differ in any bit."""
    params = make_params(k)
    scenes = make_scenes(b, seed=10 * b + k)
    ref_fn, step, config = OBJECTIVES[objective]
    ref_losses, ref_grads, ref_gaps = batch_ref(params, scenes, ref_fn)
    losses, grads, gaps = step(params, scene_block(scenes), config)
    bad = [key for key in PARAM_KEYS
           if grads.get(key, np.zeros_like(params[key])).tobytes()
           != ref_grads[key].tobytes()]
    if objective != "simpo" and sorted(grads) != sorted(PARAM_KEYS):
        bad.append("keys")
    if np.asarray(losses).tobytes() != np.asarray(ref_losses).tobytes():
        bad.append("losses")
    if gaps is not None and gaps.tobytes() != np.asarray(ref_gaps).tobytes():
        bad.append("gaps")
    return bad


CASES = [(objective, b, k) for objective in OBJECTIVES
         for b in (1, 3, 16) for k in (6, 12)]


@pytest.mark.parametrize("objective,b,k", CASES)
def test_block_matches_per_scene_reference(objective, b, k):
    assert mismatches(objective, b, k) == []


def test_block_matches_reference_on_one_blas_thread():
    script = ("import test_batched_predictor as t; "
              "print([c for c in t.CASES if t.mismatches(*c)])")
    paths = [Path(jointpref.__file__).parents[1], Path(__file__).parent]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(map(str, paths)))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stderr


def test_forward_matches_reference_over_a_split():
    params = make_params(6)
    scenes = make_scenes(200, seed=3)
    trajs, logits = forward(params, scene_block(scenes))
    for scene, t, l in zip(scenes, trajs, logits):
        (ref_t, ref_l), _ = forward_ref(params, scene)
        assert t.tobytes() == ref_t.tobytes()
        assert l.tobytes() == ref_l.tobytes()


def bits(x):
    return np.asarray(x).view(np.uint64)


@pytest.mark.parametrize("b", [1, 23])
def test_forward_matches_reference_at_k12(b):
    """23 is not a multiple of the default batch size of 16."""
    params = make_params(12)
    scenes = make_scenes(b, seed=3)
    trajs, logits = forward(params, scene_block(scenes))
    for scene, t, l in zip(scenes, trajs, logits):
        (ref_t, ref_l), _ = forward_ref(params, scene)
        assert np.array_equal(bits(t), bits(ref_t))
        assert np.array_equal(bits(l), bits(ref_l))


# ---------------------------------------------------------------------------
# the SimPO step ranks on forward's matmul trajectories
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=[6, 12], ids=lambda k: f"k{k}")
def ranking_split(request):
    """A 200-scene split and a model of K modes pretrained on it for 3
    epochs, so the modes sit near the futures and their costs are close.
    The tests only read it."""
    params = make_params(request.param)
    block = scene_block(make_scenes(200, seed=5))
    train(params, block, TrainConfig(learning_rate=0.05, epochs=3,
                                     objective="pretrain", momentum=0.9))
    return params, block


def ranking(joint, block, config=CONFIG):
    return preference_cost(joint, block.futures, lam=config.lam,
                           repeller_params=RepellerParams()).ranking


def simpo_einsum_step(params, block, config):
    """simpo_scene_loss ranked on forward's einsum trajectories."""
    trajs, logits, cache = forward(params, block, cache=True)
    joint, source = aggregate_to_joint(trajs, logits)
    tau = ranking(joint, block, config)
    d_scene = pl_nll_grad(joint.scene_logits, tau, config.simpo)
    rewards = config.simpo.beta * log_softmax(joint.scene_logits)
    ends = np.take_along_axis(rewards, tau[:, [0, -1]], 1)
    return (pl_nll_from_logits(joint.scene_logits, tau, config.simpo),
            backward(params, cache, scene_logit_grad_to_agent_logits(
                d_scene, source), None),
            ends[:, 0] - ends[:, 1])


def test_matmul_trajectories_rank_as_einsum_ones(ranking_split):
    params, block = ranking_split
    trajs, logits = forward(params, block)
    fast, fast_logits = forward(params, block, ranking_only=True)
    assert fast_logits.tobytes() == logits.tobytes()
    assert np.array_equal(ranking(aggregate_to_joint(fast, logits)[0], block),
                          ranking(aggregate_to_joint(trajs, logits)[0], block))


def test_simpo_step_matches_step_ranked_on_einsum(ranking_split):
    params, block = ranking_split
    for start in range(0, len(block.ids), 16):
        batch = SceneBlock(*(arrays[start:start + 16] for arrays in block))
        losses, grads, gaps = simpo_scene_loss(params, batch, CONFIG)
        ref_losses, ref_grads, ref_gaps = simpo_einsum_step(params, batch,
                                                            CONFIG)
        assert losses.tobytes() == ref_losses.tobytes()
        assert gaps.tobytes() == ref_gaps.tobytes()
        assert sorted(grads) == sorted(ref_grads)
        for key, grad in ref_grads.items():
            assert grads[key].tobytes() == grad.tobytes(), key


def test_matmul_trajectories_within_ulps_of_einsum(ranking_split):
    """Each offset is a 2H-term dot product summed in two orders, then
    btraj and the anchor are added with one rounding each. The paths
    differ by at most 4 eps times the offset terms' magnitude sum plus the
    trajectory's magnitude (the largest ratio to eps was 1.4 at K=6 and 1.7
    at K=12 when written); a 2H-term sum's worst case is 2H times wider."""
    params, block = ranking_split
    trajs, _, cache = forward(params, block, cache=True)
    fast, _ = forward(params, block, ranking_only=True)
    z = cache[-1]
    c = z.shape[-1]
    w = np.abs(params["Wtraj"]).transpose(1, 0, 2).reshape(c, -1)
    terms = (np.abs(z) @ w).reshape(fast.shape)        # sum of |z_c w_c|
    eps = np.finfo(float).eps
    bound = 4 * eps * (terms + np.abs(trajs))
    assert np.all(np.abs(fast - trajs) <= bound)
    assert not np.array_equal(fast, trajs)   # the two paths do differ


# ---------------------------------------------------------------------------
# backward on synthetic blocks: shared, absent and all-zero winning modes
# ---------------------------------------------------------------------------

def synthetic_block(b, a, seed):
    rng = np.random.default_rng(seed)
    shape = (b, a, T_FUT, 2)
    return SceneBlock(
        features=rng.standard_normal((b, a, feature_dim(T_OBS))),
        anchors=rng.standard_normal(shape), futures=rng.standard_normal(shape),
        ids=np.array([f"s{i}" for i in range(b)]))


def winner_grads(winners, k, seed):
    """(B, A, K, T, 2) trajectory gradient that is nonzero only on each
    agent's winning mode, with some of those entries -0."""
    b, a = winners.shape
    rng = np.random.default_rng(seed)
    d_trajs = np.zeros((b, a, k, T_FUT, 2))
    rows, agents = np.indices((b, a))
    live = rng.standard_normal((b, a, T_FUT, 2))
    live[rng.random(live.shape) < 0.2] = -0.0
    d_trajs[rows, agents, winners] = live
    return d_trajs


def backward_and_reference(params, block, d_trajs):
    """backward's gradients on a block, and the per-scene reference's summed
    in scene order."""
    _, logits, cache = forward(params, block, cache=True)
    d_logits = softmax(logits) / logits.shape[1]
    grads = backward(params, cache, d_logits, d_trajs)
    total = zero_grads(params)
    for b in range(len(block.ids)):
        f, h1, e, m, s, z = (x[b] for x in cache)
        scene = backward_ref(params, {"f": f, "h1": h1, "e": e, "m": m, "s": s,
                                      "z": z, "a": z.shape[0]},
                             d_logits[b], d_trajs[b])
        for key in PARAM_KEYS:
            total[key] += scene[key]
    for key in PARAM_KEYS:
        total[key] /= len(block.ids)
    return grads, total


def assert_bits_equal(grads, ref):
    assert sorted(grads) == sorted(PARAM_KEYS)
    assert [key for key in PARAM_KEYS
            if grads[key].tobytes() != ref[key].tobytes()] == []


@pytest.mark.parametrize("a", [3, 4])
@pytest.mark.parametrize("k", [6, 12])
def test_agents_sharing_a_winning_mode(a, k):
    params = make_params(k)
    rng = np.random.default_rng(a * k)
    winners = rng.integers(0, k, (16, a))
    winners[:, 1] = winners[:, 0]
    grads, ref = backward_and_reference(params, synthetic_block(16, a, k),
                                        winner_grads(winners, k, seed=a))
    assert_bits_equal(grads, ref)


@pytest.mark.parametrize("b", [1, 8, 16])
def test_a_mode_that_wins_in_no_scene(b):
    k = 6
    params = make_params(k)
    winners = np.random.default_rng(b).integers(0, k - 1, (b, 2))
    grads, ref = backward_and_reference(params, synthetic_block(b, 2, b),
                                        winner_grads(winners, k, seed=b))
    assert_bits_equal(grads, ref)
    assert grads["Wtraj"][k - 1].tobytes() == bytes(grads["Wtraj"][k - 1].nbytes)


@pytest.mark.parametrize("k", [6, 12])
def test_offset_columns_with_no_gradient(k):
    """Every mode is live, as under the direct cost, but each scene's
    gradient touches only some offset columns; some entries are -0."""
    params = make_params(k)
    rng = np.random.default_rng(k)
    d_trajs = rng.standard_normal((16, 2, k, T_FUT, 2))
    d_trajs[np.broadcast_to(rng.random((16, 1, 1, T_FUT, 2)) < 0.8,
                            d_trajs.shape)] = 0.0
    d_trajs[rng.random(d_trajs.shape) < 0.1] = -0.0
    grads, ref = backward_and_reference(params, synthetic_block(16, 2, k),
                                        d_trajs)
    assert_bits_equal(grads, ref)


def test_all_zero_trajectory_gradient_gives_positive_zeros():
    params = make_params(6)
    block = synthetic_block(16, 2, 0)
    grads, ref = backward_and_reference(params, block,
                                        np.zeros((16, 2, 6, T_FUT, 2)))
    assert_bits_equal(grads, ref)
    for key in ("Wtraj", "btraj"):   # +0 is the all-zero bit pattern
        assert grads[key].tobytes() == bytes(grads[key].nbytes)


def test_simpo_with_momentum_leaves_trajectory_head_untouched():
    params = make_params(6)
    frozen = {key: params[key].tobytes() for key in ("Wtraj", "btraj")}
    trunk = params["W1"].copy()
    config = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4,
                         objective="simpo", momentum=0.9,
                         simpo=SimPOConfig(beta=2.0, gamma=5.0))
    train(params, scene_block(make_scenes(8)), config)
    assert {key: params[key].tobytes() for key in frozen} == frozen
    assert not np.array_equal(params["W1"], trunk)


def test_shared_and_unshared_modes_in_one_block():
    """Mode 0 is won by two agents of scenes 2 and 5, after a scene where
    one agent wins it; no scene has two agents on mode 1. So _accumulate
    sums mode 0 scene by scene and mode 1 in one einsum, in the same call."""
    winners = np.array([[1, 3, 0], [2, 1, 4], [0, 0, 1], [5, 2, 3],
                        [1, 4, 5], [0, 0, 2], [3, 1, 5], [4, 5, 1]])
    per_scene = [(winners == mode).sum(axis=1) for mode in (0, 1)]
    assert per_scene[0].max() == 2 and per_scene[1].max() == 1
    params = make_params(6)
    grads, ref = backward_and_reference(params, synthetic_block(8, 3, 5),
                                        winner_grads(winners, 6, seed=5))
    assert_bits_equal(grads, ref)


@pytest.mark.parametrize("k", [6, 12])
def test_every_offset_row_live(k):
    """Every (scene, agent, mode) row has a gradient, as under the direct
    cost, so dz takes each mode's whole slice; the logit gradient is
    nonzero, so the order in which the modes reach dz shows in its bits."""
    params = make_params(k)
    d_trajs = np.random.default_rng(k).standard_normal((16, 2, k, T_FUT, 2))
    grads, ref = backward_and_reference(params, synthetic_block(16, 2, k),
                                        d_trajs)
    assert_bits_equal(grads, ref)


def direct_block_ref(params, block, config):
    """direct_scene_loss with its trajectory-gradient scatter written as a
    loop over scenes, agents and joint modes."""
    trajs, logits, cache = forward(params, block, cache=True)
    joint, source = aggregate_to_joint(trajs, logits)
    losses, d_modes = direct_cost_loss(joint, block.futures, lam=config.lam,
                                       repeller_params=RepellerParams())
    d_trajs = np.zeros_like(trajs)
    for b, i, k in np.ndindex(source.shape):
        d_trajs[b, i, source[b, i, k]] = d_modes[b, k, i]
    return losses, backward(params, cache, np.zeros_like(logits), d_trajs)


@pytest.mark.parametrize("a,tied", [(1, False), (2, True), (3, False),
                                    (3, True)])
def test_direct_step_scatter_matches_loop(a, tied):
    """Tied logit columns make aggregation pair equal-logit modes, which
    it keeps in index order."""
    params = make_params(6)
    if tied:
        params["Wl"][:, 1:4] = params["Wl"][:, [0]]
        params["bl"][1:4] = params["bl"][0]
    block = synthetic_block(5, a, seed=a)
    losses, grads, _ = direct_scene_loss(params, block, DIRECT)
    ref_losses, ref_grads = direct_block_ref(params, block, DIRECT)
    assert losses.tobytes() == ref_losses.tobytes()
    assert_bits_equal(grads, ref_grads)
    if tied:
        logits = forward(params, block)[1]
        assert np.all(logits[..., 1:4] == logits[..., [0]])


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_sgd_step_in_place_matches_out_of_place(momentum):
    """Five in-place steps give the bits of the former out-of-place update;
    a key missing from grads keeps its array object and its bits."""
    params = make_params(6)
    ref = {key: params[key].copy() for key in PARAM_KEYS}
    ref_velocity = zero_grads(params)
    frozen = {key: params[key] for key in ("Wtraj", "btraj")}
    frozen_bits = {key: params[key].tobytes() for key in frozen}
    rng = np.random.default_rng(1)
    velocity = None
    for _ in range(5):
        grads = {key: rng.standard_normal(params[key].shape)
                 for key in PARAM_KEYS if key not in frozen}
        velocity = sgd_step(params, grads, 1e-2, momentum, velocity)
        for key, grad in grads.items():
            if momentum > 0:
                ref_velocity[key] = momentum * ref_velocity[key] + grad
                ref[key] = ref[key] - 1e-2 * ref_velocity[key]
            else:
                ref[key] = ref[key] - 1e-2 * grad
    for key in PARAM_KEYS:
        assert np.array_equal(bits(params[key]), bits(ref[key])), key
    for key, array in frozen.items():
        assert params[key] is array
        assert params[key].tobytes() == frozen_bits[key]
    if momentum > 0:
        for key in PARAM_KEYS:
            assert np.array_equal(bits(velocity[key]),
                                  bits(ref_velocity[key])), key

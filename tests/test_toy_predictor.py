import numpy as np
import pytest

from jointpref.collision_geometry import RepellerParams
from jointpref.po_losses import SimPOConfig
from jointpref.scene_model import Scene
from jointpref.scenegen import DT, ScenarioSpec, generate_scene
from jointpref.toy_predictor import (
    PARAM_KEYS,
    TrainConfig,
    backward,
    direct_scene_loss,
    feature_dim,
    forward,
    init_params,
    load_checkpoint,
    pretrain_scene_loss,
    save_checkpoint,
    scene_block,
    sgd_step,
    simpo_scene_loss,
    train,
    zero_grads,
)

T_OBS, T_FUT, K = 10, 30, 4


@pytest.fixture(scope="module")
def scenes():
    specs = [ScenarioSpec(kind="crossing"), ScenarioSpec(kind="parallel"),
             ScenarioSpec(kind="follow"), ScenarioSpec(kind="merge")]
    return [generate_scene(spec, seed=100 + i)
            for i, spec in enumerate(specs)]


@pytest.fixture()
def params():
    return init_params(T_OBS, T_FUT, K, seed=0, hidden=16)


def block(*scenes):
    return scene_block(list(scenes))


def predict(params, scene):
    trajs, logits = forward(params, block(scene))
    return trajs[0], logits[0]


def hand_scene(num_agents, seed):
    """Agents on noisy straight lines: any agent count, no generator retries."""
    rng = np.random.default_rng(seed)
    t = DT * np.arange(T_OBS + T_FUT)
    tracks, velocities, yaws = [], [], []
    for i in range(num_agents):
        heading = rng.uniform(-np.pi, np.pi)
        vel = rng.uniform(3.0, 8.0) * np.array([np.cos(heading), np.sin(heading)])
        tracks.append(rng.uniform(-15.0, 15.0, 2) + t[:, None] * vel
                      + 0.05 * rng.standard_normal((t.size, 2)))
        velocities.append(vel + 0.05 * rng.standard_normal((T_OBS, 2)))
        yaws.append(np.full(T_OBS, heading))
    tracks = np.array(tracks)
    return Scene(scene_id=f"hand-{num_agents}-{seed}",
                 past_positions=tracks[:, :T_OBS], past_velocities=velocities,
                 past_yaws=yaws, ground_truth_futures=tracks[:, T_OBS:])


def batch_mean(scene_loss):
    """A block's mean loss next to its batch-mean gradient."""
    losses, grads = scene_loss[0], scene_loss[1]
    return float(np.mean(losses)), grads


def clone(params):
    out = {k: params[k].copy() for k in PARAM_KEYS}
    out["_meta"] = dict(params["_meta"])
    return out


def fd_check(params, scenes, loss_fn, tol, rng_seed=0, n_probes=12, h=1e-6):
    """Central finite differences on randomly probed parameter entries."""
    rng = np.random.default_rng(rng_seed)
    base_loss, grads = loss_fn(params)
    worst = 0.0
    for _ in range(n_probes):
        key = PARAM_KEYS[int(rng.integers(len(PARAM_KEYS)))]
        arr = params[key]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        pp, pm = clone(params), clone(params)
        pp[key][idx] += h
        pm[key][idx] -= h
        lp, _ = loss_fn(pp)
        lm, _ = loss_fn(pm)
        fd = (lp - lm) / (2 * h)
        grad = grads[key][idx] if key in grads else 0.0   # not reached
        denom = max(1e-6, abs(fd), abs(grad))
        worst = max(worst, abs(fd - grad) / denom)
    assert worst < tol, f"finite-difference mismatch {worst:.2e}"


class TestInitAndForward:
    def test_feature_dim(self):
        assert feature_dim(10) == 9 * 2 + 10 * 2 + 2 + 2

    def test_init_deterministic(self):
        a = init_params(T_OBS, T_FUT, K, seed=5)
        b = init_params(T_OBS, T_FUT, K, seed=5)
        for k in PARAM_KEYS:
            np.testing.assert_array_equal(a[k], b[k])

    def test_init_seed_changes_weights(self):
        a = init_params(T_OBS, T_FUT, K, seed=1)
        b = init_params(T_OBS, T_FUT, K, seed=2)
        assert not np.array_equal(a["W1"], b["W1"])

    def test_bias_zero_and_bounds(self):
        p = init_params(T_OBS, T_FUT, K, seed=3)
        assert np.all(p["b1"] == 0) and np.all(p["btraj"] == 0)
        d_in = feature_dim(T_OBS)
        assert np.all(np.abs(p["W1"]) <= 1 / np.sqrt(d_in))

    def test_forward_shapes(self, params, scenes):
        trajs, logits = forward(params, block(*scenes))
        assert trajs.shape == (4, 2, K, T_FUT, 2)
        assert logits.shape == (4, 2, K)

    def test_forward_horizon_mismatch_rejected(self, params):
        # a block takes its horizons from its scenes; the model's differ
        for t_obs, t_fut in ((T_OBS, T_FUT + 5), (T_OBS + 2, T_FUT)):
            bad = generate_scene(ScenarioSpec(kind="follow"), seed=1,
                                 t_obs=t_obs, t_fut=t_fut)
            with pytest.raises(ValueError, match=(
                    f"block has t_obs {t_obs}, t_fut {t_fut}; "
                    f"the model has t_obs {T_OBS}, t_fut {T_FUT}")):
                forward(params, block(bad))

    def test_fresh_model_tracks_constant_velocity_anchor(self, params, scenes):
        # offsets start small, so predictions stay near the CV rollout
        trajs, _ = predict(params, scenes[1])
        scene = scenes[1]
        anchors = np.array([
            scene.past_positions[i, -1] + 0.1 * np.arange(1, T_FUT + 1)[:, None]
            * scene.past_velocities[i, -1]
            for i in range(scene.num_agents)])
        err = np.abs(trajs - anchors[:, None]).max()
        assert err < 20.0


def translate_scene(scene, offset):
    offset = np.asarray(offset, dtype=float)
    return Scene(scene_id=scene.scene_id,
                 past_positions=scene.past_positions + offset,
                 past_velocities=scene.past_velocities,
                 past_yaws=scene.past_yaws,
                 ground_truth_futures=scene.ground_truth_futures + offset)


class TestTranslationInvariance:
    def test_offsets_and_logits_unchanged(self, params, scenes):
        # inputs are scene-local deltas, so shifting every coordinate moves
        # the trajectories rigidly and touches nothing else
        offset = np.array([123.0, -45.0])
        for scene in scenes:
            base_trajs, base_logits = predict(params, scene)
            moved_trajs, moved_logits = predict(
                params, translate_scene(scene, offset))
            # centroid subtraction reintroduces float rounding, so equality
            # holds to addition roundoff rather than bit-exactly
            np.testing.assert_allclose(moved_logits, base_logits, atol=1e-9)
            np.testing.assert_allclose(
                moved_trajs, base_trajs + offset, atol=1e-9)


def check_block_gradients(params, blk):
    cfg = TrainConfig(learning_rate=1e-5, objective="simpo",
                      simpo=SimPOConfig(beta=2.0, gamma=5.0),
                      repeller=RepellerParams())
    direct = TrainConfig(learning_rate=1e-5, objective="direct-cost", lam=10.0)
    for loss_fn in (lambda p: pretrain_scene_loss(p, blk, cfg),
                    lambda p: simpo_scene_loss(p, blk, cfg),
                    lambda p: direct_scene_loss(p, blk, direct)):
        fd_check(params, None, lambda p: batch_mean(loss_fn(p)), tol=1e-4)


class TestGradients:
    def test_pretrain_gradients(self, params, scenes):
        cfg = TrainConfig(learning_rate=1e-5, objective="pretrain")
        fd_check(params, scenes,
                 lambda p: batch_mean(pretrain_scene_loss(p, block(scenes[0]),
                                                          cfg)),
                 tol=1e-4)

    def test_simpo_gradients(self, params, scenes):
        cfg = TrainConfig(learning_rate=1e-5, objective="simpo",
                          simpo=SimPOConfig(beta=2.0, gamma=5.0),
                          repeller=RepellerParams())

        def loss_fn(p):
            return batch_mean(simpo_scene_loss(p, block(scenes[0]), cfg))

        fd_check(params, scenes, loss_fn, tol=1e-4)

    def test_direct_gradients(self, params, scenes):
        cfg = TrainConfig(learning_rate=1e-5, objective="direct-cost",
                          lam=10.0, repeller=RepellerParams())
        fd_check(params, scenes,
                 lambda p: batch_mean(direct_scene_loss(p, block(scenes[0]),
                                                        cfg)),
                 tol=1e-4)

    def test_backward_zero_inputs_zero_grads(self, params, scenes):
        trajs, logits, cache = forward(params, block(scenes[0]), cache=True)
        grads = backward(params, cache, np.zeros_like(logits),
                         np.zeros_like(trajs))
        for k in PARAM_KEYS:
            assert np.all(grads[k] == 0)


class TestBlockGradients:
    """The batch-mean gradient of a block, every objective."""

    def test_three_scene_block(self, params, scenes):
        check_block_gradients(params, block(*scenes[:3]))

    def test_three_agents(self, params):
        # the social pooling divides by a - 1
        check_block_gradients(params, block(hand_scene(3, 0), hand_scene(3, 1)))

    def test_four_agents(self, params):
        check_block_gradients(params, block(hand_scene(4, 2)))


class TestSgd:
    def test_plain_step(self, params):
        grads = zero_grads(params)
        grads["W1"][:] = 1.0
        before = params["W1"].copy()
        sgd_step(params, grads, lr=0.5)
        np.testing.assert_allclose(params["W1"], before - 0.5)

    def test_momentum_accumulates(self, params):
        grads = zero_grads(params)
        grads["W1"][:] = 1.0
        before = params["W1"].copy()
        v = sgd_step(params, grads, lr=1.0, momentum=0.9)
        v = sgd_step(params, grads, lr=1.0, momentum=0.9, velocity=v)
        # steps of 1 then 1.9
        np.testing.assert_allclose(params["W1"], before - 2.9)


class TestTraining:
    def test_pretrain_loss_decreases(self, scenes):
        params = init_params(T_OBS, T_FUT, K, seed=0, hidden=16)
        cfg = TrainConfig(objective="pretrain", learning_rate=0.05,
                          momentum=0.9, epochs=15, batch_size=4, rng_seed=0)
        history = train(params, block(*scenes), cfg)
        assert history["epoch_loss"][-1] < history["epoch_loss"][0]

    def test_simpo_records_reward_gap(self, scenes):
        params = init_params(T_OBS, T_FUT, K, seed=0, hidden=16)
        cfg = TrainConfig(objective="simpo", learning_rate=1e-3, epochs=2,
                          batch_size=4, rng_seed=0)
        history = train(params, block(*scenes), cfg)
        assert len(history["epoch_reward_gap"]) == 2

    def test_training_bit_deterministic(self, scenes):
        runs = []
        for _ in range(2):
            params = init_params(T_OBS, T_FUT, K, seed=0, hidden=16)
            cfg = TrainConfig(objective="pretrain", learning_rate=0.05,
                              epochs=3, batch_size=2, rng_seed=4)
            history = train(params, block(*scenes), cfg)
            runs.append((params, history))
        for k in PARAM_KEYS:
            np.testing.assert_array_equal(runs[0][0][k], runs[1][0][k])
        assert runs[0][1] == runs[1][1]

    def test_direct_objective_loss_decreases(self, scenes):
        params = init_params(T_OBS, T_FUT, K, seed=0, hidden=16)
        cfg = TrainConfig(objective="direct-cost", learning_rate=1e-3,
                          epochs=10, batch_size=4, rng_seed=0)
        history = train(params, block(*scenes), cfg)
        assert history["epoch_loss"][-1] < history["epoch_loss"][0]

    def test_preference_step_does_not_boost_worst_mode(self):
        # one small listwise step must not raise the probability of the
        # lowest-ranked (typically colliding) joint mode
        from jointpref.mode_aggregation import aggregate_to_joint
        from jointpref.preference_ranking import preference_cost

        scene = generate_scene(ScenarioSpec(kind="crossing"), seed=3)
        params = init_params(T_OBS, T_FUT, K, seed=0, hidden=16)
        cfg = TrainConfig(learning_rate=1e-5, objective="simpo",
                          repeller=RepellerParams())

        joint_before, _ = aggregate_to_joint(*predict(params, scene))
        rec = preference_cost(joint_before, scene.ground_truth_futures,
                              repeller_params=cfg.repeller)
        worst = int(rec.ranking[-1])
        prob_before = joint_before.scene_probs[worst]

        _, grads, _ = simpo_scene_loss(params, block(scene), cfg)
        sgd_step(params, grads, lr=1e-4)
        joint_after, _ = aggregate_to_joint(*predict(params, scene))
        assert joint_after.scene_probs[worst] <= prob_before + 1e-9

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=1e-5, epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=1e-5, objective="adversarial")


class TestLogitHeadIsolation:
    def test_logit_only_updates_leave_trajectories_untouched(self, scenes):
        # preference gradients reach trajectories only through shared
        # parameters; updating just the logit head must change probabilities
        # while keeping every trajectory bit-identical
        params = init_params(T_OBS, T_FUT, K, seed=0, hidden=16)
        cfg = TrainConfig(learning_rate=1e-5, objective="simpo",
                          repeller=RepellerParams())
        before = [predict(params, s) for s in scenes]
        for _ in range(20):
            for scene in scenes:
                _, grads, _ = simpo_scene_loss(params, block(scene), cfg)
                for key in ("Wl", "bl"):
                    params[key] = params[key] - 0.05 * grads[key]
        after = [predict(params, s) for s in scenes]
        changed = False
        for (b_trajs, b_logits), (a_trajs, a_logits) in zip(before, after):
            np.testing.assert_array_equal(a_trajs, b_trajs)
            changed = changed or not np.array_equal(a_logits, b_logits)
        assert changed


class TestCheckpoint:
    def test_round_trip_bit_exact(self, params, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        for k in PARAM_KEYS:
            np.testing.assert_array_equal(loaded[k], params[k])
        assert loaded["_meta"] == params["_meta"]

    def test_forward_identical_after_reload(self, params, scenes, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        t0, l0 = predict(params, scenes[0])
        t1, l1 = predict(loaded, scenes[0])
        np.testing.assert_array_equal(t0, t1)
        np.testing.assert_array_equal(l0, l1)

    def test_unknown_version_rejected(self, params, tmp_path):
        import json

        path = tmp_path / "model.npz"
        save_checkpoint(path, params)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["_meta"]).decode())
        meta["version"] = 99
        arrays["_meta"] = np.frombuffer(json.dumps(meta).encode(),
                                        dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

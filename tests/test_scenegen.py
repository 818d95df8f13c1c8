import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jointpref import scenegen
from jointpref.scenegen import (
    DEFAULT_T_FUT,
    DEFAULT_T_OBS,
    DT,
    KINDS,
    SPEED_MAX_MPS,
    SPEED_MIN_MPS,
    ScenarioSpec,
    generate_dataset,
    generate_scene,
)
from jointpref.scene_model import _scene_to_record, validate_scene


class TestScenarioSpec:
    def test_defaults(self):
        spec = ScenarioSpec()
        assert spec.kind == "crossing"
        assert spec.num_agents == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(kind="roundabout")

    def test_agent_count_bounds(self):
        with pytest.raises(ValueError):
            ScenarioSpec(num_agents=1)
        with pytest.raises(ValueError):
            ScenarioSpec(num_agents=7)


def min_future_gap(scene):
    fut = scene.ground_truth_futures
    a = fut.shape[0]
    best = math.inf
    for i in range(a):
        for j in range(i + 1, a):
            best = min(best, float(np.linalg.norm(fut[i] - fut[j],
                                                  axis=-1).min()))
    return best


class TestGenerateScene:
    @pytest.mark.parametrize("kind", KINDS)
    def test_shapes_and_validity(self, kind):
        scene = generate_scene(ScenarioSpec(kind=kind), seed=3)
        assert scene.num_agents == 2
        assert scene.t_obs == DEFAULT_T_OBS
        assert scene.t_fut == DEFAULT_T_FUT
        assert validate_scene(scene) == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_ground_truth_collision_free(self, kind):
        for seed in range(25):
            scene = generate_scene(ScenarioSpec(kind=kind, num_agents=3),
                                   seed=seed)
            assert min_future_gap(scene) >= 1.0

    def test_deterministic_for_seed(self):
        spec = ScenarioSpec(kind="crossing")
        s1 = generate_scene(spec, seed=42)
        s2 = generate_scene(spec, seed=42)
        np.testing.assert_array_equal(s1.ground_truth_futures,
                                      s2.ground_truth_futures)
        np.testing.assert_array_equal(s1.past_positions, s2.past_positions)

    def test_seeds_differ(self):
        spec = ScenarioSpec(kind="crossing")
        s1 = generate_scene(spec, seed=1)
        s2 = generate_scene(spec, seed=2)
        assert not np.array_equal(s1.ground_truth_futures,
                                  s2.ground_truth_futures)

    def test_noise_applied_to_past_only(self):
        spec = ScenarioSpec(kind="follow", noise_std=0.0)
        clean = generate_scene(spec, seed=5)
        # noise-free past is exactly constant-velocity: second differences 0
        pos = clean.past_positions[0]
        assert np.allclose(np.diff(pos, n=2, axis=0), 0.0, atol=1e-9)

    def test_custom_horizons(self):
        scene = generate_scene(ScenarioSpec(kind="parallel"), seed=0,
                               t_obs=6, t_fut=15)
        assert scene.t_obs == 6
        assert scene.ground_truth_futures.shape == (2, 15, 2)

    def test_yaw_in_half_open_interval(self):
        for seed in range(10):
            scene = generate_scene(ScenarioSpec(kind="crossing"), seed=seed)
            assert np.all(scene.past_yaws > -math.pi)
            assert np.all(scene.past_yaws <= math.pi)

    def test_crossing_futures_pass_near_conflict_point(self):
        # agents head toward a common conflict region, so their paths come
        # much closer than parallel-lane scenes would
        spec = ScenarioSpec(kind="crossing", noise_std=0.0)
        gaps = [min_future_gap(generate_scene(spec, seed=s)) for s in range(20)]
        assert min(gaps) < 6.0

    def test_follow_keeps_constant_spacing(self):
        spec = ScenarioSpec(kind="follow", num_agents=3, noise_std=0.0)
        scene = generate_scene(spec, seed=9)
        fut = scene.ground_truth_futures
        d01 = np.linalg.norm(fut[0] - fut[1], axis=-1)
        assert np.allclose(d01, d01[0], atol=1e-9)

    def test_speed_in_requested_band(self):
        spec = ScenarioSpec(kind="parallel", noise_std=0.0)
        scene = generate_scene(spec, seed=12)
        fut = scene.ground_truth_futures
        speeds = np.linalg.norm(np.diff(fut, axis=1), axis=-1) / DT
        assert np.all(speeds >= SPEED_MIN_MPS - 1e-9)
        assert np.all(speeds <= SPEED_MAX_MPS + 1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_any_seed_yields_valid_crossing(self, seed):
        scene = generate_scene(ScenarioSpec(kind="crossing"), seed=seed)
        assert validate_scene(scene) == []
        assert min_future_gap(scene) >= 1.0


# (kind, num_agents, seed) at default horizons and noise whose crossing
# ground truth cannot be made collision-free
PINNED_FAILURES = [
    ("crossing", 3, 69), ("crossing", 3, 89), ("crossing", 4, 14),
    ("crossing", 4, 37), ("crossing", 4, 95), ("crossing", 5, 40),
    ("crossing", 6, 25), ("crossing", 6, 52), ("merge", 4, 31),
    ("merge", 5, 35), ("merge", 6, 2), ("merge", 6, 11), ("merge", 6, 52),
]


def test_generated_scenes_pinned():
    # every kind at every agent count over 100 seeds: the scenes that build
    # keep their file records byte for byte; the hash skips the listed
    # failing seeds, so it stays valid when some of them start to build
    digest = hashlib.sha256()
    for kind in KINDS:
        for a in range(2, 7):
            spec = ScenarioSpec(kind=kind, num_agents=a)
            for seed in range(100):
                if (kind, a, seed) in PINNED_FAILURES:
                    with pytest.raises(ValueError, match="collision-free"):
                        generate_scene(spec, seed)
                    continue
                record = _scene_to_record(generate_scene(spec, seed))
                digest.update((json.dumps(record) + "\n").encode())
    assert digest.hexdigest() == (
        "10c9f9d1ef635f067f6086e49070d8ce877581320aa511ddf603ed57c3afca02")


def test_colliding_ground_truth_raises(monkeypatch):
    # a check that raises, not an assert, so it also holds under python -O
    monkeypatch.setattr(scenegen, "_lane_like",
                        lambda spec, rng, t_obs, t_fut, parallel:
                        np.zeros((spec.num_agents, t_obs + t_fut, 2)))
    with pytest.raises(ValueError, match="closer than 1 m"):
        generate_scene(ScenarioSpec(kind="follow"), seed=0)


class TestGenerateDataset:
    def test_counts_and_ids(self):
        specs = [(ScenarioSpec(kind="crossing"), 0.5),
                 (ScenarioSpec(kind="parallel"), 0.5)]
        scenes, manifest = generate_dataset(specs, n_scenes=30, seed=0)
        assert len(scenes) == 30
        assert sum(manifest["kind_counts"].values()) == 30
        assert len({s.scene_id for s in scenes}) == 30

    def test_deterministic(self):
        specs = [(ScenarioSpec(kind="crossing"), 1.0)]
        a, _ = generate_dataset(specs, n_scenes=5, seed=7)
        b, _ = generate_dataset(specs, n_scenes=5, seed=7)
        for s1, s2 in zip(a, b):
            np.testing.assert_array_equal(s1.ground_truth_futures,
                                          s2.ground_truth_futures)

    def test_single_kind_mixture(self):
        specs = [(ScenarioSpec(kind="follow"), 1.0)]
        scenes, manifest = generate_dataset(specs, n_scenes=8, seed=1)
        assert manifest["kind_counts"] == {"follow": 8}

    def test_weights_respected_roughly(self):
        specs = [(ScenarioSpec(kind="crossing"), 0.9),
                 (ScenarioSpec(kind="follow"), 0.1)]
        _, manifest = generate_dataset(specs, n_scenes=200, seed=3)
        assert manifest["kind_counts"]["crossing"] > 150

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset([(ScenarioSpec(), 1.0)], n_scenes=0, seed=0)

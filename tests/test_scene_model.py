import hashlib
import json
import math

import numpy as np
import pytest

from jointpref import scene_model
from jointpref.mode_aggregation import aggregate_to_joint
from jointpref.scene_model import (
    SCHEMA_VERSION,
    JointModeSet,
    NonFiniteError,
    Scene,
    SceneFileError,
    atomic_open,
    read_scenes,
    validate_scene,
    write_scenes,
)
from jointpref.scenegen import KINDS, ScenarioSpec, generate_dataset


def make_arrays(num_agents=2, t_obs=10, t_fut=30, seed=0):
    """Valid Scene fields as writable arrays, for tests to break."""
    rng = np.random.default_rng(seed)
    return {"past_positions": rng.normal(size=(num_agents, t_obs, 2)) * 10,
            "past_velocities": rng.normal(size=(num_agents, t_obs, 2)) * 5,
            "past_yaws": rng.uniform(-math.pi + 1e-9, math.pi,
                                     size=(num_agents, t_obs)),
            "ground_truth_futures": rng.normal(size=(num_agents, t_fut, 2)) * 10}


def make_scene(scene_id="s0", num_agents=2, t_obs=10, t_fut=30, seed=0):
    return Scene(scene_id, **make_arrays(num_agents, t_obs, t_fut, seed))


class TestDataclasses:
    def test_track_arrays_read_only(self):
        scene = make_scene()
        for arr in (scene.past_positions, scene.past_velocities,
                    scene.past_yaws, scene.ground_truth_futures):
            with pytest.raises(ValueError):
                arr.flat[0] = 1.0

    def test_scene_copies_its_inputs(self):
        arrays = make_arrays()
        scene = Scene("s0", **arrays)
        arrays["past_positions"][0, 0, 0] += 1.0
        assert scene.past_positions[0, 0, 0] != arrays["past_positions"][0, 0, 0]

    def test_scene_properties(self):
        scene = make_scene(num_agents=3, t_obs=7, t_fut=12)
        assert scene.num_agents == 3
        assert scene.t_obs == 7
        assert scene.t_fut == 12
        assert scene.past_positions.shape == (3, 7, 2)
        assert scene.past_yaws.shape == (3, 7)
        assert scene.ground_truth_futures.shape == (3, 12, 2)

    def test_marginal_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="agent/mode"):
            aggregate_to_joint(np.zeros((2, 3, 5, 2)), np.zeros((2, 4)))

    def test_marginal_nonfinite_logits_rejected(self):
        with pytest.raises(NonFiniteError):
            aggregate_to_joint(np.zeros((1, 2, 5, 2)),
                               np.array([[0.0, np.nan]]))

    def test_joint_probs_must_be_distribution(self):
        with pytest.raises(ValueError):
            JointModeSet(modes=np.zeros((2, 1, 3, 2)),
                         scene_logits=np.zeros(2),
                         scene_probs=np.array([0.7, 0.7]))

    def test_joint_accessors(self):
        joint = JointModeSet(modes=np.zeros((4, 3, 5, 2)),
                             scene_logits=np.zeros(4),
                             scene_probs=np.full(4, 0.25))
        assert joint.num_modes == 4
        assert joint.num_agents == 3


def broken(field, edit):
    """make_arrays() with `field` replaced by edit(its array)."""
    arrays = make_arrays()
    arrays[field] = edit(arrays[field])
    return arrays


def set_first(value):
    def edit(arr):
        arr.flat[0] = value
        return arr
    return edit


class TestValidation:
    def test_clean_scene_passes(self):
        assert validate_scene(make_scene()) == []

    def test_nan_future_flagged(self):
        with pytest.raises(ValueError, match="scene bad has a non-finite value"):
            Scene("bad", **broken("ground_truth_futures", set_first(np.nan)))

    @pytest.mark.parametrize("field", ["past_positions", "past_velocities",
                                       "past_yaws", "ground_truth_futures"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, field, value):
        with pytest.raises(ValueError, match="scene bad has a non-finite value"):
            Scene("bad", **broken(field, set_first(value)))

    def test_future_shape_mismatch_flagged(self):
        with pytest.raises(ValueError, match="scene bad has ground_truth_"
                           r"futures of shape \(3, 30, 2\)"):
            Scene("bad", **broken("ground_truth_futures",
                                  lambda f: np.concatenate([f, f[:1]])))

    def test_yaw_range_flagged(self):
        for yaw in (math.pi + 0.1, -math.pi, 7.0):
            with pytest.raises(ValueError, match=r"scene bad has a yaw "
                               r"outside \(-pi, pi\]"):
                Scene("bad", **broken("past_yaws", set_first(yaw)))
        scene = Scene("ok", **broken("past_yaws", set_first(math.pi)))
        assert scene.past_yaws.flat[0] == math.pi

    def test_track_length_mismatch_flagged(self):
        for field in ("past_velocities", "past_yaws"):
            with pytest.raises(ValueError,
                               match=f"scene bad has {field} of shape"):
                Scene("bad", **broken(field, lambda arr: arr[:, :-1]))

    @pytest.mark.parametrize("field,edit", [
        ("past_positions", lambda arr: arr[:0]),
        ("past_positions", lambda arr: arr[:, :0]),
        ("past_positions", lambda arr: arr[..., :1]),
        ("ground_truth_futures", lambda arr: arr[:, :0]),
    ], ids=["no-agents", "empty-track", "one-coordinate", "empty-future"])
    def test_empty_or_misshapen_rejected(self, field, edit):
        with pytest.raises(ValueError, match=f"scene bad has {field} of shape"):
            Scene("bad", **broken(field, edit))

    def test_ragged_track_rejected(self):
        arrays = make_arrays()
        velocities = arrays["past_velocities"].tolist()
        velocities[1] = velocities[1][:-1]
        arrays["past_velocities"] = velocities
        with pytest.raises(ValueError,
                           match="scene bad has a malformed past_velocities"):
            Scene("bad", **arrays)


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        scenes = [make_scene(f"s{i}", seed=i) for i in range(5)]
        path = tmp_path / "scenes.jsonl"
        write_scenes(path, scenes, t_obs=10, t_fut=30)
        loaded, header = read_scenes(path)
        assert header["schema_version"] == SCHEMA_VERSION
        assert header["t_obs"] == 10 and header["t_fut"] == 30
        assert len(loaded) == 5
        for orig, got in zip(scenes, loaded):
            assert got.scene_id == orig.scene_id
            for name in ("past_positions", "past_velocities", "past_yaws",
                         "ground_truth_futures"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(orig, name))

    def test_file_format_pinned(self, tmp_path):
        # a fixed dataset's bytes, recorded before Scene held (A, T, .)
        # arrays: changing the layout in memory must not change the file
        specs = [(ScenarioSpec(kind=kind, num_agents=2 + i % 2), 1.0)
                 for i, kind in enumerate(KINDS)]
        scenes, _ = generate_dataset(specs, 8, seed=11, t_obs=6, t_fut=12)
        path = tmp_path / "pinned.jsonl"
        write_scenes(path, scenes, t_obs=6, t_fut=12)
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "552ce997444899a351fef94c88a977bb045000c15a7e2ecc34ef81ebfa7eabc4")
        # a file that is read holds one agent count, so each count's scenes
        # are written alone, to the pinned lines, and read back exactly
        other = next(i for i, scene in enumerate(scenes)
                     if scene.num_agents != scenes[0].num_agents)
        with pytest.raises(SceneFileError, match=(
                f"line {other + 2}: scene {scenes[other].scene_id} has "
                f"{scenes[other].num_agents} agents, scene "
                f"{scenes[0].scene_id} has {scenes[0].num_agents}")):
            read_scenes(path)
        lines = data.decode().splitlines(keepends=True)
        for count in (2, 3):
            group = [i for i, scene in enumerate(scenes)
                     if scene.num_agents == count]
            assert group
            once, again = (tmp_path / f"{count}{name}.jsonl"
                           for name in ("once", "again"))
            write_scenes(once, [scenes[i] for i in group], t_obs=6, t_fut=12)
            assert once.read_text().splitlines(keepends=True) == \
                [lines[0]] + [lines[1 + i] for i in group]
            write_scenes(again, read_scenes(once)[0], t_obs=6, t_fut=12)
            assert again.read_bytes() == once.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        scenes, header = read_scenes(path)
        assert scenes == []
        assert header == {}

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = {"schema_version": SCHEMA_VERSION, "t_obs": 10, "t_fut": 30}
        path.write_text(json.dumps(header) + "\n{not json\n")
        with pytest.raises(SceneFileError, match="line 2"):
            read_scenes(path)

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"schema_version": 99, "t_obs": 10,
                                    "t_fut": 30}) + "\n")
        with pytest.raises(SceneFileError, match="schema version"):
            read_scenes(path)

    def test_bad_record_names_line_number(self, tmp_path):
        path = tmp_path / "bad2.jsonl"
        header = {"schema_version": SCHEMA_VERSION, "t_obs": 10, "t_fut": 30}
        path.write_text(json.dumps(header) + "\n"
                        + json.dumps({"scene_id": "x"}) + "\n")
        with pytest.raises(SceneFileError, match="line 2"):
            read_scenes(path)


class TestAtomicWrite:
    def test_interrupted_write_leaves_no_file(self, tmp_path, fail_on_call):
        # the third scene's record raises after the header and two scenes
        # went to the temp file
        fail_on_call(scene_model, "_scene_to_record", 3)
        path = tmp_path / "scenes.jsonl"
        with pytest.raises(RuntimeError, match="interrupted"):
            write_scenes(path, [make_scene(f"s{i}", seed=i) for i in range(5)],
                         t_obs=10, t_fut=30)
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as f:
                f.write("new, partly\n")
                raise RuntimeError("write interrupted")
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_replaces_on_success(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with atomic_open(path, "wb") as f:
            f.write(b"new")
        assert path.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [path]

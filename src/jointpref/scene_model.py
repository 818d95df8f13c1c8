"""Scene and prediction data model shared by the whole pipeline.

Scene files are line-oriented JSON: a header record carrying
{schema_version, t_obs, t_fut} followed by one scene per line.
All coordinates live in a scene-local frame.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = 1


class SceneFileError(ValueError):
    """Raised when a scene file cannot be parsed."""


class NonFiniteError(ValueError):
    """A logit, loss or parameter that must be finite is not, or a training
    loss runs away toward it."""


_TRACKS = ("past_positions", "past_velocities", "past_yaws")


@dataclass(frozen=True)
class Scene:
    """One prediction problem: agent histories plus ground-truth futures,
    with agents on the first axis of every array.

    The arrays are read-only float64 copies. ValueError naming the scene
    and its first violation when they do not make a valid scene, so every
    Scene that exists is valid."""

    scene_id: str
    past_positions: np.ndarray        # (A, T_obs, 2) meters
    past_velocities: np.ndarray       # (A, T_obs, 2) m/s
    past_yaws: np.ndarray             # (A, T_obs) radians in (-pi, pi]
    ground_truth_futures: np.ndarray  # (A, T_fut, 2) meters

    def __post_init__(self):
        for name in (*_TRACKS, "ground_truth_futures"):
            try:
                arr = np.array(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError) as e:
                raise ValueError(f"scene {self.scene_id} has a malformed "
                                 f"{name}: {e}") from e
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        violations = validate_scene(self)
        if violations:
            raise ValueError(f"scene {self.scene_id} {violations[0]}")

    @property
    def num_agents(self) -> int:
        return self.past_positions.shape[0]

    @property
    def t_obs(self) -> int:
        return self.past_positions.shape[1]

    @property
    def t_fut(self) -> int:
        return self.ground_truth_futures.shape[1]


@dataclass(frozen=True)
class JointModeSet:
    """K scene-level modes, each pairing one trajectory per agent, stored
    most likely first; leading axes stack scenes.

    NonFiniteError when a scene logit is not finite, ValueError when the
    scene logits increase along K or the probabilities are no distribution.
    So a JointModeSet's first n modes are its n most likely."""

    modes: np.ndarray         # (..., K, A, T_fut, 2)
    scene_logits: np.ndarray  # (..., K)
    scene_probs: np.ndarray   # (..., K) softmax of scene_logits

    def __post_init__(self):
        modes = np.ascontiguousarray(self.modes, dtype=np.float64)
        logits = np.ascontiguousarray(self.scene_logits, dtype=np.float64)
        probs = np.ascontiguousarray(self.scene_probs, dtype=np.float64)
        if not np.all(np.isfinite(logits)):
            raise NonFiniteError("scene logits must be finite")
        if np.any(logits[..., 1:] > logits[..., :-1]):
            raise ValueError("scene logits must not increase along K")
        if np.any((abs(probs.sum(axis=-1, keepdims=True) - 1.0) > 1e-9)
                  | (probs < 0) | (probs > 1)):
            raise ValueError("scene_probs must be a distribution")
        for arr in (modes, logits, probs):
            arr.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "scene_logits", logits)
        object.__setattr__(self, "scene_probs", probs)

    @property
    def num_modes(self) -> int:
        return self.scene_logits.shape[-1]

    @property
    def num_agents(self) -> int:
        return self.modes.shape[-3]


def validate_scene(scene: Scene) -> list[str]:
    """The scene's violations, each worded to follow "scene <id>"; empty
    when it is valid. Shapes are checked first, and values only when the
    shapes hold."""
    pos, yaws = scene.past_positions, scene.past_yaws
    vel, fut = scene.past_velocities, scene.ground_truth_futures
    if pos.ndim != 3 or pos.shape[2] != 2 or 0 in pos.shape:
        return [f"has past_positions of shape {pos.shape}, not (A, T_obs, 2)"]
    for name, arr, shape in (("past_velocities", vel, pos.shape),
                             ("past_yaws", yaws, pos.shape[:2])):
        if arr.shape != shape:
            return [f"has {name} of shape {arr.shape}, not {shape}"]
    if (fut.ndim != 3 or fut.shape[0] != pos.shape[0] or fut.shape[2] != 2
            or not fut.shape[1]):
        return [f"has ground_truth_futures of shape {fut.shape}, "
                f"not ({pos.shape[0]}, T_fut, 2)"]
    # the yaws are finite when their min and max are, as NaN propagates
    low, high = yaws.min(), yaws.max()
    if not (np.isfinite(pos).all() and np.isfinite(vel).all()
            and np.isfinite(fut).all()
            and math.isfinite(low) and math.isfinite(high)):
        return ["has a non-finite value"]
    if not (-math.pi < low and high <= math.pi):
        return ["has a yaw outside (-pi, pi]"]
    return []


def _scene_to_record(scene: Scene) -> dict:
    tracks = zip(scene.past_positions.tolist(), scene.past_velocities.tolist(),
                 scene.past_yaws.tolist())
    return {
        "scene_id": scene.scene_id,
        "agents": [{"agent_id": i, "past_positions": positions,
                    "past_velocities": velocities, "past_yaws": yaws}
                   for i, (positions, velocities, yaws) in enumerate(tracks)],
        "futures": scene.ground_truth_futures.tolist(),
    }


@contextmanager
def atomic_open(path, mode: str = "w"):
    """A file opened for writing in place of path: a sibling temp file that
    replaces path when the block ends and is removed if the block raises,
    so path never holds a partly written file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_scenes(path, scenes, t_obs: int, t_fut: int) -> None:
    """Write scenes as JSON lines preceded by a header record.

    Round-trips coordinate values bit-exactly (shortest-repr floats).
    """
    with atomic_open(path) as f:
        header = {"schema_version": SCHEMA_VERSION, "t_obs": t_obs, "t_fut": t_fut}
        f.write(json.dumps(header) + "\n")
        for scene in scenes:
            f.write(json.dumps(_scene_to_record(scene)) + "\n")


def read_scenes(path) -> tuple[list[Scene], dict]:
    """Read a scene file; returns (scenes, header).

    Raises SceneFileError naming the offending line on malformed records,
    invalid scenes, scenes whose horizons differ from the header or whose
    agent count differs from the first scene's, or unknown schema versions.
    An empty file yields no scenes.
    """
    scenes: list[Scene] = []
    header: dict = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise SceneFileError(f"line {lineno}: malformed record: {e}") from e
            if lineno == 1:
                if rec.get("schema_version") != SCHEMA_VERSION:
                    raise SceneFileError(
                        f"line 1: unknown schema version {rec.get('schema_version')!r}")
                header = rec
                continue
            try:
                agents = rec["agents"]
                scene = Scene(str(rec["scene_id"]),
                              *([agent[name] for agent in agents]
                                for name in _TRACKS),
                              rec["futures"])
            except (KeyError, TypeError) as e:
                raise SceneFileError(f"line {lineno}: bad scene record: {e}") from e
            except ValueError as e:
                raise SceneFileError(f"line {lineno}: {e}") from e
            if (scene.t_obs, scene.t_fut) != (header.get("t_obs"),
                                              header.get("t_fut")):
                raise SceneFileError(
                    f"line {lineno}: scene {scene.scene_id} has horizons "
                    f"{scene.t_obs}/{scene.t_fut}, the header has "
                    f"{header.get('t_obs')}/{header.get('t_fut')}")
            if scenes and scene.num_agents != scenes[0].num_agents:
                raise SceneFileError(
                    f"line {lineno}: scene {scene.scene_id} has "
                    f"{scene.num_agents} agents, scene {scenes[0].scene_id} "
                    f"has {scenes[0].num_agents}")
            scenes.append(scene)
    return scenes, header

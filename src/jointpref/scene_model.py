"""Scene and prediction data model shared by the whole pipeline.

Scene files are line-oriented JSON: a header record carrying
{schema_version, t_obs, t_fut} followed by one scene per line.
All coordinates live in a scene-local frame.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1


class SceneFileError(ValueError):
    """Raised when a scene file cannot be parsed."""


class NonFiniteError(ValueError):
    """A logit, loss or parameter that must be finite is not."""


@dataclass(frozen=True)
class AgentTrack:
    """Observed history of a single agent: positions, velocities and yaws.

    All three sequences share the same length T_obs.
    """

    agent_id: int
    past_positions: np.ndarray    # (T_obs, 2) meters
    past_velocities: np.ndarray   # (T_obs, 2) m/s
    past_yaws: np.ndarray         # (T_obs,) radians in (-pi, pi]

    def __post_init__(self):
        object.__setattr__(self, "past_positions",
                           np.asarray(self.past_positions, dtype=np.float64))
        object.__setattr__(self, "past_velocities",
                           np.asarray(self.past_velocities, dtype=np.float64))
        object.__setattr__(self, "past_yaws",
                           np.asarray(self.past_yaws, dtype=np.float64))
        for arr in (self.past_positions, self.past_velocities, self.past_yaws):
            arr.setflags(write=False)

    @property
    def t_obs(self) -> int:
        return self.past_positions.shape[0]


@dataclass(frozen=True)
class Scene:
    """One prediction problem: agent histories plus ground-truth futures."""

    scene_id: str
    agents: tuple[AgentTrack, ...]
    ground_truth_futures: np.ndarray  # (A, T_fut, 2) meters
    t_fut: int

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        gt = np.asarray(self.ground_truth_futures, dtype=np.float64)
        gt.setflags(write=False)
        object.__setattr__(self, "ground_truth_futures", gt)

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @property
    def t_obs(self) -> int:
        return self.agents[0].t_obs if self.agents else 0


@dataclass(frozen=True)
class MarginalPrediction:
    """Per-agent K trajectories with unnormalized scores, same K for all agents.

    Leading axes stack scenes. Arrays are stored C-contiguous, so a scene's
    sums run in the same order alone and inside a stack."""

    trajectories: np.ndarray  # (..., A, K, T_fut, 2)
    logits: np.ndarray        # (..., A, K)

    def __post_init__(self):
        trajs = np.ascontiguousarray(self.trajectories, dtype=np.float64)
        logits = np.ascontiguousarray(self.logits, dtype=np.float64)
        if logits.ndim < 2 or trajs.shape[:-2] != logits.shape:
            raise ValueError(f"agent/mode shape mismatch: trajectories "
                             f"{trajs.shape}, logits {logits.shape}")
        if not np.all(np.isfinite(logits)):
            raise NonFiniteError("logits must be finite")
        trajs.setflags(write=False)
        logits.setflags(write=False)
        object.__setattr__(self, "trajectories", trajs)
        object.__setattr__(self, "logits", logits)

    @property
    def num_agents(self) -> int:
        return self.logits.shape[-2]

    @property
    def num_modes(self) -> int:
        return self.logits.shape[-1]


@dataclass(frozen=True)
class JointModeSet:
    """K scene-level modes, each pairing one trajectory per agent; leading
    axes stack scenes, as in MarginalPrediction."""

    modes: np.ndarray         # (..., K, A, T_fut, 2)
    scene_logits: np.ndarray  # (..., K)
    scene_probs: np.ndarray   # (..., K) softmax of scene_logits

    def __post_init__(self):
        modes = np.ascontiguousarray(self.modes, dtype=np.float64)
        logits = np.ascontiguousarray(self.scene_logits, dtype=np.float64)
        probs = np.ascontiguousarray(self.scene_probs, dtype=np.float64)
        if not np.all(np.isfinite(logits)):
            raise NonFiniteError("scene logits must be finite")
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


@dataclass
class ValidationResult:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_scene(scene: Scene) -> ValidationResult:
    """Check scene invariants; returns the list of violations instead of raising."""
    res = ValidationResult()
    if scene.num_agents < 1:
        res.violations.append("scene has no agents")
        return res
    if scene.t_fut < 1:
        res.violations.append("t_fut < 1")
    t_obs = scene.agents[0].t_obs
    for a in scene.agents:
        n = a.past_positions.shape[0]
        if not (n == a.past_velocities.shape[0] == a.past_yaws.shape[0]):
            res.violations.append(f"agent {a.agent_id}: track length mismatch")
        if n < 1:
            res.violations.append(f"agent {a.agent_id}: empty track")
        if n != t_obs:
            res.violations.append(f"agent {a.agent_id}: t_obs differs across agents")
        for arr, name in ((a.past_positions, "position"),
                          (a.past_velocities, "velocity"),
                          (a.past_yaws, "yaw")):
            if not np.all(np.isfinite(arr)):
                res.violations.append(
                    f"agent {a.agent_id}: non-finite {name} coordinate")
        if np.all(np.isfinite(a.past_yaws)) and (
                np.any(a.past_yaws <= -math.pi) or np.any(a.past_yaws > math.pi)):
            res.violations.append(f"agent {a.agent_id}: yaw outside (-pi, pi]")
    gt = scene.ground_truth_futures
    if gt.shape != (scene.num_agents, scene.t_fut, 2):
        res.violations.append(
            f"future length mismatch: expected {(scene.num_agents, scene.t_fut, 2)}, "
            f"got {gt.shape}")
    if not np.all(np.isfinite(gt)):
        res.violations.append("non-finite coordinate in ground-truth future")
    return res


def _scene_to_record(scene: Scene) -> dict:
    return {
        "scene_id": scene.scene_id,
        "agents": [
            {
                "agent_id": a.agent_id,
                "past_positions": a.past_positions.tolist(),
                "past_velocities": a.past_velocities.tolist(),
                "past_yaws": a.past_yaws.tolist(),
            }
            for a in scene.agents
        ],
        "futures": scene.ground_truth_futures.tolist(),
    }


def _scene_from_record(rec: dict, t_fut: int) -> Scene:
    agents = tuple(
        AgentTrack(
            agent_id=int(a["agent_id"]),
            past_positions=np.array(a["past_positions"], dtype=np.float64),
            past_velocities=np.array(a["past_velocities"], dtype=np.float64),
            past_yaws=np.array(a["past_yaws"], dtype=np.float64),
        )
        for a in rec["agents"]
    )
    return Scene(
        scene_id=str(rec["scene_id"]),
        agents=agents,
        ground_truth_futures=np.array(rec["futures"], dtype=np.float64),
        t_fut=t_fut,
    )


def write_scenes(path, scenes, t_obs: int, t_fut: int) -> None:
    """Write scenes as JSON lines preceded by a header record.

    Round-trips coordinate values bit-exactly (shortest-repr floats).
    """
    with open(path, "w") as f:
        header = {"schema_version": SCHEMA_VERSION, "t_obs": t_obs, "t_fut": t_fut}
        f.write(json.dumps(header) + "\n")
        for scene in scenes:
            f.write(json.dumps(_scene_to_record(scene)) + "\n")


def read_scenes(path) -> tuple[list[Scene], dict]:
    """Read a scene file; returns (scenes, header).

    Raises SceneFileError naming the offending line on malformed records or
    unknown schema versions. An empty file yields no scenes.
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
                scenes.append(_scene_from_record(rec, t_fut=header["t_fut"]))
            except (KeyError, TypeError, ValueError) as e:
                raise SceneFileError(f"line {lineno}: bad scene record: {e}") from e
    return scenes, header

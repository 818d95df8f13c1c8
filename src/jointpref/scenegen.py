"""Deterministic synthetic scene generation.

Four scenario kinds: crossing (paths intersect at a conflict point; in the
ground truth all but one agent yield by decelerating so futures stay
collision-free), merge (small-angle crossing onto a shared direction),
follow (single lane, spaced platoon) and parallel (separate lanes).

Past tracks run at constant speed, so in crossing scenes who yields is only
weakly observable before the future begins; that ambiguity is what makes
the predictor produce colliding joint modes worth fine-tuning away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision_geometry import pairwise_distances
from .scene_model import Scene

DT = 0.1
DEFAULT_T_OBS = 10
DEFAULT_T_FUT = 30
YIELD_GAP_M = 1.5   # minimum inter-agent distance enforced on ground truth
SPEED_MIN_MPS, SPEED_MAX_MPS = 4.0, 8.0   # every kind's agent speeds
# headings of successive crossing agents differ by an angle in this band
CROSSING_ANGLE_MIN, CROSSING_ANGLE_MAX = math.pi / 3, 2 * math.pi / 3

KINDS = ("crossing", "merge", "follow", "parallel")


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str = "crossing"
    num_agents: int = 2
    noise_std: float = 0.05

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not 2 <= self.num_agents <= 6:
            raise ValueError("num_agents must be in [2, 6]")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")


def _rollout(start: np.ndarray, heading: float, speeds: np.ndarray) -> np.ndarray:
    """Positions after each step of a straight path with per-step speeds."""
    direction = np.array([math.cos(heading), math.sin(heading)])
    arc = np.cumsum(speeds) * DT
    return start[None, :] + arc[:, None] * direction[None, :]


def _min_future_gap(futures: np.ndarray) -> float:
    return float(pairwise_distances(futures).min())


def _crossing_like(spec: ScenarioSpec, rng: np.random.Generator,
                   t_obs: int, t_fut: int, merge: bool) -> np.ndarray:
    """Full (A, T_obs+T_fut, 2) noise-free tracks for crossing/merge scenes."""
    a = spec.num_agents
    speeds = rng.uniform(SPEED_MIN_MPS, SPEED_MAX_MPS, size=a)
    if merge:
        base = rng.uniform(0, 2 * math.pi)
        spread = rng.uniform(0.25, 0.5)
        headings = base + np.linspace(-spread / 2, spread / 2, a)
    else:
        base = rng.uniform(0, 2 * math.pi)
        gap = rng.uniform(CROSSING_ANGLE_MIN, CROSSING_ANGLE_MAX)
        headings = base + np.arange(a) * gap
    # rank[i] = i's arrival priority at the conflict point (0 goes first)
    rank = rng.permutation(a)
    # time to conflict at t=0: roughly mid-future, nearly simultaneous
    t_conflict = (t_fut * DT) * rng.uniform(0.35, 0.55)
    jitter = rng.uniform(-0.05, 0.05, size=a)
    # lower-priority agents start slightly farther out: a weak observable cue
    time_to_conflict = t_conflict + jitter + 0.08 * rank

    total = t_obs + t_fut
    tracks = np.zeros((a, total, 2))
    slow_frac = 0.45
    stagger = 0.0
    for attempt in range(16):
        for i in range(a):
            step_speeds = np.full(total, speeds[i])
            if rank[i] > 0:
                # yield: decelerate over a window after observation ends
                w0 = t_obs
                w1 = t_obs + int(0.7 * t_fut)
                step_speeds[w0:w1] *= slow_frac ** rank[i]
            dist0 = speeds[i] * (time_to_conflict[i] + stagger * rank[i])
            direction = np.array([math.cos(headings[i]), math.sin(headings[i])])
            conflict = np.zeros(2)
            # position at the last observed step is dist0 short of the conflict
            start = conflict - direction * (dist0 + speeds[i] * DT * (t_obs - 1))
            tracks[i] = np.vstack([start, _rollout(start, headings[i],
                                                   step_speeds[:-1])])
        if _min_future_gap(tracks[:, t_obs:]) >= YIELD_GAP_M:
            return tracks
        # strengthen the yield and, failing that, start yielders farther back
        slow_frac *= 0.85
        if attempt >= 4:
            stagger += 0.12
    raise ValueError("could not construct a collision-free crossing ground truth")


def _lane_like(spec: ScenarioSpec, rng: np.random.Generator,
               t_obs: int, t_fut: int, parallel: bool) -> np.ndarray:
    a = spec.num_agents
    heading = rng.uniform(0, 2 * math.pi)
    direction = np.array([math.cos(heading), math.sin(heading)])
    normal = np.array([-direction[1], direction[0]])
    total = t_obs + t_fut
    tracks = np.zeros((a, total, 2))
    if parallel:
        speeds = rng.uniform(SPEED_MIN_MPS, SPEED_MAX_MPS, size=a)
        offsets = (np.arange(a) - (a - 1) / 2) * rng.uniform(3.0, 5.0)
        along = rng.uniform(-5.0, 5.0, size=a)
    else:
        # follow: shared speed, longitudinal spacing
        speed = rng.uniform(SPEED_MIN_MPS, SPEED_MAX_MPS)
        speeds = np.full(a, speed)
        offsets = np.zeros(a)
        spacing = rng.uniform(6.0, 10.0)
        along = -np.arange(a) * spacing
    for i in range(a):
        start = along[i] * direction + offsets[i] * normal
        step_speeds = np.full(total - 1, speeds[i])
        tracks[i] = np.vstack([start, _rollout(start, heading, step_speeds)])
    return tracks


def generate_scene(spec: ScenarioSpec, seed: int, scene_id: str | None = None,
                   t_obs: int = DEFAULT_T_OBS, t_fut: int = DEFAULT_T_FUT) -> Scene:
    """Build one scene deterministically from (spec, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF]))
    if spec.kind in ("crossing", "merge"):
        tracks = _crossing_like(spec, rng, t_obs, t_fut, merge=spec.kind == "merge")
    else:
        tracks = _lane_like(spec, rng, t_obs, t_fut,
                            parallel=spec.kind == "parallel")

    past = tracks[:, :t_obs].copy()
    future = tracks[:, t_obs:]
    if spec.noise_std > 0:
        past += rng.normal(0.0, spec.noise_std, size=past.shape)

    vel = np.gradient(past, DT, axis=1)
    yaw = np.arctan2(vel[..., 1], vel[..., 0])
    # atan2 returns -pi for due-west motion; fold onto (-pi, pi]
    yaw = np.where(yaw <= -math.pi, math.pi, yaw)
    scene = Scene(scene_id or f"{spec.kind}-{seed}", past, vel, yaw, future)
    if _min_future_gap(future) < 1.0:
        raise ValueError("ground-truth agents come closer than 1 m")
    return scene


def generate_dataset(specs: list[tuple[ScenarioSpec, float]], n_scenes: int,
                     seed: int, t_obs: int = DEFAULT_T_OBS,
                     t_fut: int = DEFAULT_T_FUT) -> tuple[list[Scene], dict]:
    """Draw n scenes from a weighted mixture of specs; returns (scenes, manifest)."""
    if n_scenes < 1:
        raise ValueError("n_scenes must be >= 1")
    weights = np.array([w for _, w in specs], dtype=np.float64)
    weights = weights / weights.sum()
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF]))
    picks = rng.choice(len(specs), size=n_scenes, p=weights)
    scenes = []
    counts: dict[str, int] = {}
    for idx, pick in enumerate(picks):
        spec = specs[pick][0]
        scene_seed = int(np.random.SeedSequence([seed & 0xFFFFFFFF, idx])
                         .generate_state(1)[0])
        try:
            scenes.append(generate_scene(spec, scene_seed,
                                         scene_id=f"{spec.kind}-{idx:06d}",
                                         t_obs=t_obs, t_fut=t_fut))
        except ValueError as e:
            raise ValueError(f"{spec.kind} scene {idx}: {e}") from e
        counts[spec.kind] = counts.get(spec.kind, 0) + 1
    manifest = {"seed": seed, "n": n_scenes, "kind_counts": counts,
                "t_obs": t_obs, "t_fut": t_fut}
    return scenes, manifest

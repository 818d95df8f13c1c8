"""Deterministic synthetic scene generation.

Four scenario kinds: crossing (paths intersect at a conflict point; in the
ground truth all but one agent yield by decelerating so futures stay
collision-free), merge (small-angle crossing onto a shared direction),
follow (single lane, spaced platoon) and parallel (separate lanes).

Past tracks run at constant speed, so in crossing scenes who yields is only
weakly observable before the future begins; that ambiguity is what makes
the predictor produce colliding joint modes worth fine-tuning away.

Every kind draws its agents' starts, headings and per-step speeds as arrays
and builds all of a scene's straight tracks in one `_tracks` call; a
crossing or merge scene makes one such call per attempt at a collision-free
ground truth.
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


def _tracks(starts: np.ndarray, headings: np.ndarray,
            step_speeds: np.ndarray) -> np.ndarray:
    """(A, S+1, 2) straight tracks from (A, 2) starts, (A,) headings and
    (A, S) per-step speeds: row 0 is the starts, row s+1 each start moved
    cumsum(step_speeds)[:, s] * DT along its agent's heading."""
    directions = np.array([(math.cos(h), math.sin(h)) for h in headings])
    arc = np.cumsum(step_speeds, axis=1) * DT
    tracks = np.empty((len(starts), arc.shape[1] + 1, 2))
    # assigned, not added to 0 * direction, so a -0.0 start keeps its sign
    tracks[:, 0] = starts
    tracks[:, 1:] = starts[:, None] + arc[..., None] * directions[:, None]
    return tracks


def _min_future_gap(futures: np.ndarray) -> float:
    return float(pairwise_distances(futures).min())


def _crossing_like(spec: ScenarioSpec, rng: np.random.Generator,
                   t_obs: int, t_fut: int, merge: bool) -> np.ndarray:
    """Full (A, T_obs+T_fut, 2) noise-free tracks for crossing/merge scenes."""
    a = spec.num_agents
    speeds = rng.uniform(SPEED_MIN_MPS, SPEED_MAX_MPS, size=a)
    base = rng.uniform(0, 2 * math.pi)
    if merge:
        spread = rng.uniform(0.25, 0.5)
        headings = base + np.linspace(-spread / 2, spread / 2, a)
    else:
        gap = rng.uniform(CROSSING_ANGLE_MIN, CROSSING_ANGLE_MAX)
        headings = base + np.arange(a) * gap
    directions = np.array([(math.cos(h), math.sin(h)) for h in headings])
    # rank[i] = i's arrival priority at the conflict point (0 goes first)
    rank = rng.permutation(a)
    # time to conflict at t=0: roughly mid-future, nearly simultaneous
    t_conflict = (t_fut * DT) * rng.uniform(0.35, 0.55)
    jitter = rng.uniform(-0.05, 0.05, size=a)
    # lower-priority agents start slightly farther out: a weak observable cue
    time_to_conflict = t_conflict + jitter + 0.08 * rank

    # yielders decelerate over a window after observation ends
    window = slice(t_obs, t_obs + int(0.7 * t_fut))
    slow_frac = 0.45
    stagger = 0.0
    for attempt in range(16):
        step_speeds = np.repeat(speeds[:, None], t_obs + t_fut - 1, axis=1)
        # scalar powers, one per agent: an array power rounds differently
        step_speeds[:, window] *= np.array([[slow_frac ** r] for r in rank])
        dist0 = speeds * (time_to_conflict + stagger * rank)
        # the last observed position is dist0 short of the conflict point,
        # which is the origin
        reach = dist0 + speeds * DT * (t_obs - 1)
        starts = np.zeros(2) - directions * reach[:, None]
        tracks = _tracks(starts, headings, step_speeds)
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
    if parallel:
        speeds = rng.uniform(SPEED_MIN_MPS, SPEED_MAX_MPS, size=a)
        offsets = (np.arange(a) - (a - 1) / 2) * rng.uniform(3.0, 5.0)
        along = rng.uniform(-5.0, 5.0, size=a)
    else:
        # follow: shared speed, longitudinal spacing
        speeds = np.full(a, rng.uniform(SPEED_MIN_MPS, SPEED_MAX_MPS))
        offsets = np.zeros(a)
        along = -np.arange(a) * rng.uniform(6.0, 10.0)
    starts = along[:, None] * direction + offsets[:, None] * normal
    step_speeds = np.repeat(speeds[:, None], t_obs + t_fut - 1, axis=1)
    return _tracks(starts, np.full(a, heading), step_speeds)


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

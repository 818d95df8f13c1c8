"""Scene-consistency and displacement metrics over datasets.

SCR is the fraction of evaluated joint modes containing a collision; pSCR
weights that indicator by the predicted mode probabilities; MinJointFDE is
the best per-mode mean endpoint error, all taken from one batched pass over
a scene's modes. Dataset values are unweighted means over scenes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .collision_geometry import COLLISION_THRESHOLD_M, joint_collision_counts
from .preference_ranking import avg_fde
from .scene_model import JointModeSet, Scene


@dataclass(frozen=True)
class SceneMetrics:
    scene_id: str
    scr: float
    pscr: float
    min_joint_fde: float
    avg_fde_best: float


@dataclass(frozen=True)
class MetricsReport:
    scr: float
    pscr: float
    min_joint_fde: float
    avg_fde: float
    n_scenes: int
    n_modes_evaluated: int
    collision_threshold: float

    def to_dict(self) -> dict:
        return asdict(self)

    def display_lines(self) -> list[str]:
        # collision rates shown x1e3 alongside raw values
        return [
            f"scenes evaluated : {self.n_scenes} ({self.n_modes_evaluated} modes each)",
            f"SCR              : {self.scr:.6f}  (x1e3: {self.scr * 1e3:.2f})",
            f"pSCR             : {self.pscr:.6f}  (x1e3: {self.pscr * 1e3:.2f})",
            f"MinJointFDE      : {self.min_joint_fde:.4f} m",
            f"avgFDE (top mode): {self.avg_fde:.4f} m",
        ]


def scene_scr(collision_counts: np.ndarray) -> float:
    """Fraction of modes with at least one collision."""
    counts = np.asarray(collision_counts)
    if counts.size < 1:
        raise ValueError("need at least one mode")
    return float(np.mean(counts > 0))


def scene_pscr(scene_probs: np.ndarray, collision_counts: np.ndarray) -> float:
    """Probability-weighted collision indicator under the mode distribution."""
    probs = np.asarray(scene_probs, dtype=np.float64)
    counts = np.asarray(collision_counts)
    if abs(probs.sum() - 1.0) > 1e-6:
        raise ValueError("scene probabilities must sum to 1")
    return float(np.sum(probs * (counts > 0)))


def min_joint_fde(joint: JointModeSet, ground_truth: np.ndarray) -> float:
    """Minimum over modes of the per-mode mean endpoint displacement."""
    return float(avg_fde(joint.modes, ground_truth).min())


def scene_metrics(scene: Scene, joint: JointModeSet,
                  threshold: float = COLLISION_THRESHOLD_M) -> SceneMetrics:
    counts = joint_collision_counts(joint.modes, threshold)
    fdes = avg_fde(joint.modes, scene.ground_truth_futures)
    return SceneMetrics(
        scene_id=scene.scene_id,
        scr=scene_scr(counts),
        pscr=scene_pscr(joint.scene_probs, counts),
        min_joint_fde=float(fdes.min()),
        avg_fde_best=float(fdes[0]),
    )


def evaluate_dataset(scenes, joints_by_scene: dict, top_n: int = 6,
                     threshold: float = COLLISION_THRESHOLD_M
                     ) -> tuple[MetricsReport, list[SceneMetrics]]:
    """Aggregate per-scene metrics over a dataset.

    joints_by_scene maps every scene_id to a JointModeSet; each is cut here
    to its top_n most probable modes, with renormalized probabilities.
    """
    from .mode_aggregation import select_top_modes

    rows: list[SceneMetrics] = []
    for scene in scenes:
        if scene.scene_id not in joints_by_scene:
            raise KeyError(f"no prediction for scene {scene.scene_id}")
        joint = joints_by_scene[scene.scene_id]
        if joint.num_modes >= top_n:
            joint = select_top_modes(joint, top_n)
        rows.append(scene_metrics(scene, joint, threshold))
    if not rows:
        raise ValueError("empty dataset")
    report = MetricsReport(
        scr=float(np.mean([r.scr for r in rows])),
        pscr=float(np.mean([r.pscr for r in rows])),
        min_joint_fde=float(np.mean([r.min_joint_fde for r in rows])),
        avg_fde=float(np.mean([r.avg_fde_best for r in rows])),
        n_scenes=len(rows),
        n_modes_evaluated=min(top_n, next(iter(joints_by_scene.values())).num_modes),
        collision_threshold=threshold,
    )
    return report, rows


def comparison_report(before: MetricsReport, after: MetricsReport) -> dict:
    """Before/after table with relative changes, per metric."""
    out = {}
    for name in ("scr", "pscr", "min_joint_fde", "avg_fde"):
        b = getattr(before, name)
        a = getattr(after, name)
        rel = (a - b) / b * 100.0 if b != 0 else float("nan")
        out[name] = {"before": b, "after": a, "relative_change_percent": rel}
    return out

"""Scene-consistency and displacement metrics over datasets.

SCR is the fraction of evaluated joint modes containing a collision; pSCR
weights that indicator by the predicted mode probabilities; MinJointFDE is
the best per-mode mean endpoint error, all taken from one batched pass over
a (..., K, A, T, 2) stack of scenes' modes. Dataset values are unweighted
means over scenes.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .collision_geometry import COLLISION_THRESHOLD_M, joint_collision_counts
from .mode_aggregation import select_top_modes
from .preference_ranking import avg_fde
from .scene_model import JointModeSet


@dataclass(frozen=True)
class SceneMetrics:
    """One scene's metrics; for a stack of scenes each field is an array."""

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

    def display_lines(self) -> list[str]:
        # collision rates shown x1e3 alongside raw values
        return [
            f"scenes evaluated : {self.n_scenes} ({self.n_modes_evaluated} modes each)",
            f"SCR              : {self.scr:.6f}  (x1e3: {self.scr * 1e3:.2f})",
            f"pSCR             : {self.pscr:.6f}  (x1e3: {self.pscr * 1e3:.2f})",
            f"MinJointFDE      : {self.min_joint_fde:.4f} m",
            f"avgFDE (top mode): {self.avg_fde:.4f} m",
        ]


def scene_scr(collision_counts: np.ndarray):
    """Fraction of modes with at least one collision, per (..., K) row."""
    counts = np.asarray(collision_counts)
    if counts.ndim < 1 or counts.shape[-1] < 1:
        raise ValueError("need at least one mode")
    return np.mean(counts > 0, axis=-1)


def scene_pscr(scene_probs: np.ndarray, collision_counts: np.ndarray):
    """Probability-weighted collision indicator under the mode distribution."""
    probs = np.asarray(scene_probs, dtype=np.float64)
    counts = np.asarray(collision_counts)
    if np.any(abs(probs.sum(axis=-1) - 1.0) > 1e-6):
        raise ValueError("scene probabilities must sum to 1")
    return np.sum(probs * (counts > 0), axis=-1)


def scene_metrics(scene_id, joint: JointModeSet,
                  ground_truth: np.ndarray) -> SceneMetrics:
    """Metrics of a scene, or of a stack of scenes with (B,) ids and
    (B, A, T, 2) ground truths."""
    counts = joint_collision_counts(joint.modes)
    fdes = avg_fde(joint.modes, np.expand_dims(ground_truth, -4))
    return SceneMetrics(
        scene_id=scene_id,
        scr=scene_scr(counts),
        pscr=scene_pscr(joint.scene_probs, counts),
        min_joint_fde=fdes.min(axis=-1),
        avg_fde_best=fdes[..., 0],
    )


def evaluate_dataset(chunks, top_n: int = 6
                     ) -> tuple[MetricsReport, list[SceneMetrics]]:
    """Per-scene metrics over a dataset and their unweighted means.

    chunks yields (ids, ground truths, joint mode stack) triples, each
    covering a run of the dataset's scenes: (B,) ids, (B, A, T, 2) futures
    and B scenes' joint modes. Each stack is cut here to its top_n most
    probable modes, with renormalized probabilities. ValueError when chunks
    is empty or a chunk's ids do not match its scenes.
    """
    parts = []
    for ids, ground_truth, joint in chunks:
        if joint.num_modes >= top_n:
            joint = select_top_modes(joint, top_n)
        ids = np.asarray(ids, dtype=str)
        if ids.shape != joint.scene_logits.shape[:-1]:
            raise ValueError(f"{ids.size} ids for "
                             f"{joint.scene_logits.shape[:-1]} scenes")
        parts.append(astuple(scene_metrics(ids, joint, ground_truth)))
    if not parts:
        raise ValueError("no scenes to evaluate")
    ids, scr, pscr, fde, fde_best = (np.concatenate(p) for p in zip(*parts))
    report = MetricsReport(
        scr=float(np.mean(scr)),
        pscr=float(np.mean(pscr)),
        min_joint_fde=float(np.mean(fde)),
        avg_fde=float(np.mean(fde_best)),
        n_scenes=len(scr),
        n_modes_evaluated=joint.num_modes,
        collision_threshold=COLLISION_THRESHOLD_M,
    )
    rows = list(map(SceneMetrics, ids.tolist(), scr.tolist(), pscr.tolist(),
                    fde.tolist(), fde_best.tolist()))
    return report, rows


def comparison_report(before: MetricsReport, after: MetricsReport) -> dict:
    """Before/after table with relative changes in percent, per metric;
    None where the before value is 0."""
    out = {}
    for name in ("scr", "pscr", "min_joint_fde", "avg_fde"):
        b = getattr(before, name)
        a = getattr(after, name)
        # no relative change from 0; JSON null, never a bare NaN token
        rel = (a - b) / b * 100.0 if b != 0 else None
        out[name] = {"before": b, "after": a, "relative_change_percent": rel}
    return out

"""Per-mode preference costs, mode rankings and preference-subset extraction.

Cost of a joint mode = average final displacement error + lambda * repeller
cost; lower is better, computed for a whole (..., K, A, T, 2) stack of
scenes' modes at once. A scene enters the fine-tuning subset if any mode
collides or the cost spread across modes exceeds delta.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .collision_geometry import (
    COLLISION_THRESHOLD_M,
    RepellerParams,
    joint_collision_counts,
    mode_repeller_cost,
)
from .scene_model import JointModeSet

DEFAULT_LAMBDA = 1e3


@dataclass(frozen=True)
class PreferenceRecord:
    """Costs and ranking of the joint modes of a scene, or a stack of them.

    ranking[..., k] is the index of the (k+1)-th best mode; costs along the
    ranking are non-decreasing.
    """

    avg_fde: np.ndarray    # (..., K) meters
    repeller: np.ndarray   # (..., K)
    cost: np.ndarray       # (..., K) avg_fde + lam * repeller
    ranking: np.ndarray    # (..., K) permutation, best mode first


@dataclass(frozen=True)
class ExtractionConfig:
    delta: float               # cost-spread threshold
    collision_threshold: float = COLLISION_THRESHOLD_M

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.collision_threshold <= 0:
            raise ValueError("collision threshold must be positive")


def avg_fde(modes: np.ndarray, ground_truth: np.ndarray):
    """Mean over agents of the final-step displacement, per (..., A, T, 2)
    mode against a broadcasting (..., A, T, 2) ground truth."""
    modes = np.asarray(modes, dtype=np.float64)
    gt = np.asarray(ground_truth, dtype=np.float64)
    if modes.shape[-3:] != gt.shape[-3:]:
        raise ValueError(f"shape mismatch: {modes.shape} vs {gt.shape}")
    return np.linalg.norm(modes[..., -1, :] - gt[..., -1, :],
                          axis=-1).mean(axis=-1)


def preference_cost(joint: JointModeSet, ground_truth: np.ndarray,
                    lam: float = DEFAULT_LAMBDA,
                    repeller_params: RepellerParams | None = None
                    ) -> PreferenceRecord:
    """Cost every mode and rank each scene's modes ascending by cost.

    ground_truth holds one (A, T, 2) future per scene. A tie in cost goes
    to the lower mode index, which JointModeSet's order makes the likelier
    mode.
    """
    params = repeller_params or RepellerParams()
    fdes = avg_fde(joint.modes, np.expand_dims(ground_truth, -4))
    reps = mode_repeller_cost(joint.modes, params)
    costs = fdes + lam * reps
    return PreferenceRecord(avg_fde=fdes, repeller=reps, cost=costs,
                            ranking=np.argsort(costs, axis=-1, kind="stable"))


@dataclass(frozen=True)
class ExtractionSummary:
    total: int
    extracted: int
    collision_branch_count: int
    spread_branch_count: int

    @property
    def fraction(self) -> float:
        return self.extracted / self.total if self.total else 0.0

    def __add__(self, other: ExtractionSummary) -> ExtractionSummary:
        """Counts over the scenes of both summaries."""
        return ExtractionSummary(*(a + b for a, b in zip(astuple(self),
                                                          astuple(other))))


def scene_is_preferred(joint: JointModeSet, record: PreferenceRecord,
                       config: ExtractionConfig):
    """Per-scene inclusion decision: (included, via_collision, via_spread),
    each a bool array over the stack's scenes."""
    counts = joint_collision_counts(joint.modes, config.collision_threshold)
    via_collision = np.any(counts > 0, axis=-1)
    via_spread = (record.cost.max(axis=-1) - record.cost.min(axis=-1)
                  > config.delta)
    return via_collision | via_spread, via_collision, via_spread


def extract_preference_subset(scene_ids, joints: JointModeSet,
                              records: PreferenceRecord,
                              config: ExtractionConfig
                              ) -> tuple[list[str], ExtractionSummary]:
    """Select scene ids whose modes collide or whose cost spread exceeds
    delta; joints and records stack one scene per id, in the same order."""
    scene_ids = np.asarray(scene_ids, dtype=str)
    included, via_coll, via_spread = scene_is_preferred(joints, records, config)
    if included.shape != scene_ids.shape:
        raise ValueError(f"{scene_ids.size} ids for {included.shape} scenes")
    kept = scene_ids[included].tolist()
    return kept, ExtractionSummary(total=len(scene_ids), extracted=len(kept),
                                   collision_branch_count=int(via_coll.sum()),
                                   spread_branch_count=int(via_spread.sum()))

"""Per-mode preference costs, mode rankings and preference-subset extraction.

Cost of a joint mode = average final displacement error + lambda * repeller
cost; lower is better, computed for a scene's whole (K, A, T, 2) mode stack
at once. A scene enters the fine-tuning subset if any mode collides or the
cost spread across modes exceeds delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collision_geometry import (
    COLLISION_THRESHOLD_M,
    RepellerParams,
    joint_collision_counts,
    mode_repeller_cost,
)
from .scene_model import JointModeSet

DEFAULT_LAMBDA = 1e3
DEFAULT_DELTA = 2.5        # cost-spread threshold; 1.0 is the easier preset


@dataclass(frozen=True)
class PreferenceRecord:
    """Costs and ranking for one scene's joint modes.

    ranking[k] is the index of the (k+1)-th best mode; costs along the
    ranking are non-decreasing.
    """

    avg_fde: np.ndarray    # (K,) meters
    repeller: np.ndarray   # (K,)
    cost: np.ndarray       # (K,) avg_fde + lam * repeller
    ranking: np.ndarray    # (K,) permutation, best mode first
    lam: float


@dataclass(frozen=True)
class ExtractionConfig:
    delta: float = DEFAULT_DELTA
    collision_threshold: float = COLLISION_THRESHOLD_M

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.collision_threshold <= 0:
            raise ValueError("collision threshold must be positive")


def avg_fde(modes: np.ndarray, ground_truth: np.ndarray):
    """Mean over agents of the final-step displacement, per (..., A, T, 2) mode."""
    modes = np.asarray(modes, dtype=np.float64)
    gt = np.asarray(ground_truth, dtype=np.float64)
    if modes.shape[-3:] != gt.shape:
        raise ValueError(f"shape mismatch: {modes.shape} vs {gt.shape}")
    return np.linalg.norm(modes[..., -1, :] - gt[:, -1], axis=-1).mean(axis=-1)


def preference_cost(joint: JointModeSet, ground_truth: np.ndarray,
                    lam: float = DEFAULT_LAMBDA,
                    repeller_params: RepellerParams | None = None
                    ) -> PreferenceRecord:
    """Cost every mode and rank ascending by cost.

    Ties break toward the higher-probability mode, then the lower mode index.
    """
    params = repeller_params or RepellerParams()
    fdes = avg_fde(joint.modes, ground_truth)
    reps = mode_repeller_cost(joint.modes, params)
    costs = fdes + lam * reps
    # lexsort keys: last key is primary; -probs prefers likelier modes on ties
    ranking = np.lexsort((np.arange(joint.num_modes),
                          -joint.scene_probs, costs))
    return PreferenceRecord(avg_fde=fdes, repeller=reps, cost=costs,
                            ranking=ranking, lam=lam)


@dataclass(frozen=True)
class ExtractionSummary:
    total: int
    extracted: int
    collision_branch_count: int
    spread_branch_count: int

    @property
    def fraction(self) -> float:
        return self.extracted / self.total if self.total else 0.0


def scene_is_preferred(joint: JointModeSet, record: PreferenceRecord,
                       config: ExtractionConfig) -> tuple[bool, bool, bool]:
    """Per-scene inclusion decision: (included, via_collision, via_spread)."""
    counts = joint_collision_counts(joint.modes, config.collision_threshold)
    via_collision = bool(np.any(counts > 0))
    via_spread = bool(record.cost.max() - record.cost.min() > config.delta)
    return via_collision or via_spread, via_collision, via_spread


def extract_preference_subset(scene_ids, joints, records,
                              config: ExtractionConfig
                              ) -> tuple[list[str], ExtractionSummary]:
    """Select scene ids whose modes collide or whose cost spread exceeds delta."""
    scene_ids = list(scene_ids)
    kept: list[str] = []
    n_coll = n_spread = 0
    for sid, joint, rec in zip(scene_ids, joints, records):
        included, via_coll, via_spread = scene_is_preferred(joint, rec, config)
        if included:
            kept.append(sid)
        n_coll += via_coll
        n_spread += via_spread
    return kept, ExtractionSummary(total=len(scene_ids), extracted=len(kept),
                                   collision_branch_count=n_coll,
                                   spread_branch_count=n_spread)

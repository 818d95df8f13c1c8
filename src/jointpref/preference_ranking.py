"""Per-mode preference costs, mode rankings and preference-subset extraction.

Cost of a joint mode = average final displacement error + lambda * repeller
cost; lower is better, computed for a whole (..., K, A, T, 2) stack of
scenes' modes at once. A scene enters the fine-tuning subset if any mode
collides or the cost spread across modes exceeds delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collision_geometry import (
    RepellerParams,
    joint_collision_counts,
    mode_repeller_cost,
)
from .scene_model import JointModeSet

DEFAULT_LAMBDA = 1e3
# cost-spread threshold, co-tuned with the default scene mixture so the
# subset stays a minority of the training set. A smaller delta barely
# selects on crossing-heavy data: on the acceptance mixture at seed 7,
# delta 2.5 keeps 1,992 of 2,000 train scenes at K=6 and all 2,000 at
# K=12, each by the spread rule (1,405 and 1,550 by the collision rule)
DEFAULT_DELTA = 10.0


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
    fraction: float   # extracted / total; 0.0 when there are no scenes
    collision_branch_count: int
    spread_branch_count: int


def extract_preference_subset(chunks, lam: float = DEFAULT_LAMBDA,
                              repeller_params: RepellerParams | None = None,
                              delta: float = DEFAULT_DELTA
                              ) -> tuple[list[str], ExtractionSummary]:
    """Ids of the scenes whose modes collide or whose cost spread exceeds
    delta, and how many scenes each rule kept.

    chunks yields (ids, ground truths, joint mode stack) triples, each
    covering a run of the dataset's scenes: (B,) ids, (B, A, T, 2) futures
    and B scenes' joint modes. Kept ids stay in dataset order. ValueError
    when chunks is empty or a chunk's ids do not match its scenes.
    """
    parts = []
    for ids, ground_truth, joint in chunks:
        cost = preference_cost(joint, ground_truth, lam, repeller_params).cost
        counts = joint_collision_counts(joint.modes)
        ids = np.asarray(ids, dtype=str)
        if ids.shape != counts.shape[:-1]:
            raise ValueError(f"{ids.size} ids for {counts.shape[:-1]} scenes")
        parts.append((ids, np.any(counts > 0, axis=-1),
                      cost.max(axis=-1) - cost.min(axis=-1) > delta))
    if not parts:
        raise ValueError("no scenes to extract from")
    ids, via_collision, via_spread = (np.concatenate(p) for p in zip(*parts))
    kept = ids[via_collision | via_spread].tolist()
    return kept, ExtractionSummary(
        total=len(ids), extracted=len(kept),
        fraction=len(kept) / len(ids) if len(ids) else 0.0,
        collision_branch_count=int(via_collision.sum()),
        spread_branch_count=int(via_spread.sum()))

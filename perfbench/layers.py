"""Which jointpref functions the traced run wraps, and the per-layer metrics.

Each metric is self time (or an exact count) per unit of work. Self time is
a span's duration minus its traced children, so a helper that is not in
TARGETS (softmax, pairwise_distances, avg_fde, ...) is charged to the
nearest traced caller. Metrics whose functions no longer exist are reported
as missing, never as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from spans import FunctionStats

# (module, function, units(args, result) or None). units sizes a call's work
# in scenes when one call handles many.
TARGETS = (
    ("scenegen", "generate_dataset", lambda args, res: len(res[0])),
    ("scenegen", "_min_future_gap", None),
    ("scene_model", "read_scenes", lambda args, res: len(res[0])),
    ("scene_model", "write_scenes", lambda args, res: len(args[1])),
    ("scene_model", "validate_scene", None),
    ("toy_predictor", "train", None),
    ("toy_predictor", "_features", None),
    ("toy_predictor", "_anchors", None),
    ("toy_predictor", "forward", None),
    ("toy_predictor", "backward", None),
    ("toy_predictor", "zero_grads", None),
    ("toy_predictor", "_accumulate", None),
    ("toy_predictor", "sgd_step", None),
    ("toy_predictor", "pretrain_scene_loss", None),
    ("toy_predictor", "simpo_scene_loss", None),
    ("toy_predictor", "direct_scene_loss", None),
    ("toy_predictor", "save_checkpoint", None),
    ("toy_predictor", "load_checkpoint", None),
    ("mode_aggregation", "aggregate_to_joint", None),
    ("mode_aggregation", "scene_logit_grad_to_agent_logits", None),
    ("mode_aggregation", "select_top_modes", None),
    ("preference_ranking", "preference_cost", None),
    ("preference_ranking", "extract_preference_subset",
     lambda args, res: res[1].total),
    ("collision_geometry", "mode_repeller_cost", None),
    ("collision_geometry", "joint_collision_counts", None),
    ("collision_geometry", "repeller_cost_grad", None),
    ("po_losses", "pl_nll_from_logits", None),
    ("po_losses", "pl_nll_grad", None),
    ("po_losses", "direct_cost_loss", None),
    ("eval_metrics", "evaluate_dataset", lambda args, res: len(res[1])),
    ("cli", "_write_manifest", None),
)

STAGE = "stage"   # the span the benchmark opens around each cli.main call
STEPS = ("toy_predictor.pretrain_scene_loss",   # one call per scene-step
         "toy_predictor.simpo_scene_loss",
         "toy_predictor.direct_scene_loss")
COLLISION_ENTRY = ("collision_geometry.mode_repeller_cost",
                   "collision_geometry.joint_collision_counts",
                   "collision_geometry.repeller_cost_grad")


@dataclass(frozen=True)
class Metric:
    """`measure` summed over the spans in `of`, per call (or unit) of `per`."""

    name: str
    unit: str
    of: tuple[str, ...]
    per: tuple[str, ...] = ()   # empty: an absolute total
    measure: str = "self_s"     # self_s | total_s | calls
    per_units: bool = False     # divide by the units of `per`, not its calls
    scale: float = 1e6          # seconds -> microseconds
    scope: str = "pass"         # count spans of the whole pass, or only of
                                # the "timed" or "finetune" stages


def _us(name, of, per, **kw):
    return Metric(name, "us", of, per, **kw)


METRICS = (
    _us("toy_predictor.features_us_per_scene",
        ("toy_predictor._features", "toy_predictor._anchors"),
        ("toy_predictor._features",)),
    _us("toy_predictor.forward_self_us_per_scene",
        ("toy_predictor.forward",), ("toy_predictor.forward",)),
    _us("toy_predictor.backward_us_per_scene",
        ("toy_predictor.backward",), ("toy_predictor.backward",)),
    _us("toy_predictor.grad_bookkeeping_us_per_step",
        ("toy_predictor.zero_grads", "toy_predictor._accumulate"), STEPS),
    _us("toy_predictor.sgd_step_us_per_batch",
        ("toy_predictor.sgd_step",), ("toy_predictor.sgd_step",)),
    _us("toy_predictor.scene_loss_self_us_per_step", STEPS, STEPS),
    _us("toy_predictor.train_loop_self_us_per_step",
        ("toy_predictor.train",), STEPS),
    Metric("toy_predictor.checkpoint_io_ms", "ms",
           ("toy_predictor.save_checkpoint", "toy_predictor.load_checkpoint"),
           ("toy_predictor.save_checkpoint", "toy_predictor.load_checkpoint"),
           scale=1e3),
    Metric("toy_predictor.scene_steps", "count", STEPS, measure="calls",
           scale=1.0),
    _us("mode_aggregation.aggregate_us_per_scene",
        ("mode_aggregation.aggregate_to_joint",
         "mode_aggregation.scene_logit_grad_to_agent_logits"),
        ("mode_aggregation.aggregate_to_joint",)),
    _us("mode_aggregation.select_top_us_per_scene",
        ("mode_aggregation.select_top_modes",),
        ("mode_aggregation.select_top_modes",)),
    _us("preference_ranking.cost_self_us_per_scene",
        ("preference_ranking.preference_cost",),
        ("preference_ranking.preference_cost",)),
    _us("preference_ranking.extract_self_us_per_scene",
        ("preference_ranking.extract_preference_subset",),
        ("preference_ranking.extract_preference_subset",), per_units=True),
    _us("collision_geometry.repeller_cost_us_per_mode",
        ("collision_geometry.mode_repeller_cost",),
        ("collision_geometry.mode_repeller_cost",)),
    _us("collision_geometry.collision_counts_us_per_scene",
        ("collision_geometry.joint_collision_counts",),
        ("collision_geometry.joint_collision_counts",)),
    _us("collision_geometry.repeller_grad_us_per_mode",
        ("collision_geometry.repeller_cost_grad",),
        ("collision_geometry.repeller_cost_grad",)),
    Metric("collision_geometry.calls_per_step", "count", COLLISION_ENTRY, STEPS,
           measure="calls", scale=1.0, scope="finetune"),
    _us("po_losses.pl_us_per_scene",
        ("po_losses.pl_nll_from_logits", "po_losses.pl_nll_grad"),
        ("po_losses.pl_nll_grad",)),
    _us("po_losses.direct_cost_self_us_per_scene",
        ("po_losses.direct_cost_loss",), ("po_losses.direct_cost_loss",)),
    _us("eval_metrics.evaluate_self_us_per_scene",
        ("eval_metrics.evaluate_dataset",), ("eval_metrics.evaluate_dataset",),
        per_units=True),
    _us("scene_model.read_us_per_scene",
        ("scene_model.read_scenes",), ("scene_model.read_scenes",),
        per_units=True),
    _us("scene_model.write_us_per_scene",
        ("scene_model.write_scenes",), ("scene_model.write_scenes",),
        per_units=True),
    _us("scene_model.validate_us_per_scene",
        ("scene_model.validate_scene",), ("scene_model.validate_scene",)),
    # the generator's helpers are its own layer, so its time is inclusive
    _us("scenegen.generate_us_per_scene",
        ("scenegen.generate_dataset",), ("scenegen.generate_dataset",),
        measure="total_s", per_units=True),
    Metric("scenegen.gap_checks_per_scene", "count",
           ("scenegen._min_future_gap",), ("scenegen.generate_dataset",),
           measure="calls", per_units=True, scale=1.0),
    Metric("cli.self_s", "s", (STAGE,), scale=1.0, scope="timed"),
    Metric("cli.manifest_ms", "ms", ("cli._write_manifest",),
           ("cli._write_manifest",), scale=1e3, scope="timed"),
)


def evaluate(stats: dict[str, dict[str, FunctionStats]], missing: set[str]
             ) -> tuple[dict[str, float], list[str], list[str]]:
    """Evaluate METRICS over span totals keyed by scope, then by span name.

    Returns (values, missing_metrics, idle_metrics). A metric is missing when
    one of its functions could not be instrumented or its work could not be
    sized; it is idle (value 0) when its functions exist but never ran.
    """
    values, absent, idle = {}, [], []
    for m in METRICS:
        scoped = stats[m.scope]
        denom = float(sum((scoped[n].units if m.per_units else scoped[n].calls)
                          for n in m.per if n in scoped)) if m.per else 1.0
        if (set(m.of) | set(m.per)) & missing or math.isnan(denom):
            absent.append(m.name)
        elif denom == 0:
            values[m.name] = 0.0
            idle.append(m.name)
        else:
            total = sum(getattr(scoped[n], m.measure) for n in m.of if n in scoped)
            values[m.name] = total * m.scale / denom
    return values, absent, idle

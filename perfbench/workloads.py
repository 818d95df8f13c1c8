"""The benchmark's workloads: a run config plus set-up and timed CLI stages.

All three use the acceptance mixture (crossing 0.6, merge 0.15, follow 0.1,
parallel 0.15, delta 2.5) at num_agents=2. Scene counts are sized so one
pass (set-up plus timed stages) takes about 1.5 s on a 2-core box with one
BLAS thread, which gives each segment of a stage about 20 passes per 40 s
run to find its fastest time in. Stage arguments may name "{wd}", the
pass's work directory.
"""

from __future__ import annotations

from dataclasses import dataclass

MIXTURE = {
    "crossing_weight": 0.6, "merge_weight": 0.15, "follow_weight": 0.1,
    "parallel_weight": 0.15, "delta": 2.5, "num_agents": 2,
}

EVAL_BEFORE_AFTER = ("eval", "--before", "{wd}/pretrained.npz",
                     "--after", "{wd}/finetuned.npz", "--tag", "final")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                          # RunConfig overrides over MIXTURE
    setup: tuple[tuple[str, ...], ...]    # stages run before timing starts
    timed: tuple[tuple[str, ...], ...]    # stages whose wall time is wall_s

    def run_config(self, seed: int) -> dict:
        return {**MIXTURE, **self.config, "seed": seed}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pipeline_k6",
        config={"n_train": 40, "n_val": 80, "k": 6,
                "pretrain_epochs": 40, "finetune_epochs": 5},
        setup=(("gen",),),
        timed=(("pretrain",), ("extract",), ("finetune",), EVAL_BEFORE_AFTER),
    ),
    Workload(
        name="preference_k12",
        config={"n_train": 60, "n_val": 80, "k": 12,
                "pretrain_epochs": 10, "finetune_epochs": 10},
        setup=(("gen",), ("pretrain",)),
        timed=(("extract",), ("finetune",), EVAL_BEFORE_AFTER),
    ),
    Workload(
        name="direct_k6",
        config={"n_train": 24, "n_val": 80, "k": 6,
                "pretrain_epochs": 10, "finetune_epochs": 25},
        setup=(("gen",), ("pretrain",), ("extract",)),
        timed=(("finetune", "--objective", "direct-cost"),
               ("eval", "--checkpoint", "{wd}/finetuned_direct.npz",
                "--tag", "direct")),
    ),
)}

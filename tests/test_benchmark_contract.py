"""The benchmark's traced functions must exist under their names and run.

perfbench/layers.py lists the (module, function) pairs a traced benchmark
run wraps. A function renamed or inlined away drops its per-layer metrics
from the run, and one that the pipeline stops calling, or whose sized result
changes shape, leaves them idle or NaN. So every listed name is checked
here, and a tiny pipeline is traced with the benchmark's own tracer.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

from jointpref.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def targets():
    return [(module, function)
            for module, function, _ in perfbench_module("layers").TARGETS]


@pytest.mark.parametrize("module,function", targets(),
                         ids=lambda name: name)
def test_traced_function_is_defined(module, function):
    target = getattr(importlib.import_module(f"jointpref.{module}"), function,
                     None)
    assert callable(target), f"jointpref.{module}.{function} is gone"


TINY = [("n_train", "16"), ("n_val", "6"), ("hidden", "8"), ("k", "3"),
        ("top_n", "3"), ("pretrain_epochs", "1"), ("finetune_epochs", "1"),
        ("delta", "0")]


def test_tiny_pipeline_calls_every_traced_function(tmp_path):
    spans, layers = perfbench_module("spans"), perfbench_module("layers")
    sets = []
    for key, value in TINY + [("workdir", str(tmp_path))]:
        sets += ["--set", key, value]
    ckpt = [str(tmp_path / "pretrained.npz"), str(tmp_path / "finetuned.npz")]
    stages = (["gen"], ["pretrain"], ["extract"], ["finetune"],
              ["finetune", "--objective", "direct-cost"],
              ["eval", "--before", ckpt[0], "--after", ckpt[1]],
              ["eval", "--checkpoint", str(tmp_path / "finetuned_direct.npz"),
               "--tag", "direct"])
    tracer = spans.Tracer()
    inst = spans.instrument(tracer, layers.TARGETS)
    try:
        assert inst.missing == []
        for stage in stages:
            assert main(sets + stage) == EXIT_OK, stage
    finally:
        inst.restore()
    stats = spans.summarize(tracer)
    for module, function, units in layers.TARGETS:
        name = f"{module}.{function}"
        assert name in stats, f"{name} never ran"
        if units is not None:
            assert math.isfinite(stats[name].units) and stats[name].units > 0, \
                f"{name} sized {stats[name].units}"

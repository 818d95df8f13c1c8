"""Tests of the benchmark's own arithmetic and gates.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import math
import sys

import pytest

import clock
import layers
import run
import spans
from clock import SegmentClock, SpeedProbe
from workloads import EVAL_BEFORE_AFTER, Workload

TINY = Workload(
    name="tiny",
    config={"n_train": 6, "n_val": 3, "k": 6, "pretrain_epochs": 2,
            "finetune_epochs": 1, "crossing_weight": 1.0, "merge_weight": 0.0,
            "follow_weight": 0.0, "parallel_weight": 0.0},
    setup=(("gen",),),
    timed=(("pretrain",), ("extract",), ("finetune",), EVAL_BEFORE_AFTER),
)


def synthetic(tracer, rows):
    """Append spans given as (name, start, end, parent)."""
    for name, start, end, parent in rows:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.units.append(0.0)


def test_self_time_subtracts_direct_children_only():
    tr = spans.Tracer()
    synthetic(tr, [
        ("stage", 0.0, 10.0, spans.ROOT),   # 0
        ("a", 1.0, 6.0, 0),                 # 1
        ("b", 2.0, 3.0, 1),                 # 2
        ("b", 3.5, 5.5, 1),                 # 3
        ("c", 4.0, 5.0, 3),                 # 4
        ("a", 7.0, 8.0, 0),                 # 5
        ("stage", 20.0, 21.0, spans.ROOT),  # 6
        ("a", 20.25, 20.75, 6),             # 7
    ])
    assert tr.self_times() == pytest.approx(
        [4.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5])
    stats = spans.summarize(tr)
    assert stats["a"].calls == 3
    assert stats["a"].total_s == pytest.approx(6.5)
    assert stats["a"].self_s == pytest.approx(3.5)
    assert stats["b"].self_s == pytest.approx(2.0)
    first_stage = spans.summarize(tr, within={0})
    assert first_stage["a"].calls == 2
    assert "stage" in first_stage and first_stage["stage"].calls == 1


def test_tracer_spans_nest_and_time_real_calls():
    tr = spans.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1, units=lambda args, res: args[0])
    outer = tr.wrap("outer", lambda: inner(2) + inner(3))
    with tr.span("root"):
        assert outer() == 7
    assert tr.names == ["root", "outer", "inner", "inner"]
    assert tr.parents == [spans.ROOT, 0, 1, 1]
    assert tr.units[2:] == [2, 3]
    assert all(s >= 0 for s in tr.self_times())


def test_missing_function_is_reported_missing_not_zero():
    tr = spans.Tracer()
    inst = spans.instrument(tr, [("po_losses", "no_such_function", None),
                                 ("no_such_module", "f", None)])
    inst.restore()
    assert inst.missing == ["po_losses.no_such_function", "no_such_module.f"]
    empty = {"pass": {}, "timed": {}, "finetune": {}}
    values, absent, idle = layers.evaluate(
        empty, {"collision_geometry.repeller_cost_grad"})
    assert absent == ["collision_geometry.repeller_grad_us_per_mode",
                      "collision_geometry.calls_per_step"]
    assert not set(absent) & set(values)
    assert "po_losses.direct_cost_self_us_per_scene" in idle


def test_segment_clock_sums_per_segment_minimums():
    clock = SegmentClock(segment_s=1.0)
    clock.add([0.0, 1.0, 2.0, 3.0, 4.0])        # cut into four 1 s segments
    clock.add([10.0, 10.5, 11.0, 13.0, 13.5])   # 0.5, 0.5, 2.0, 0.5
    clock.add([0.0, 5.0])                        # other mark count: own group
    assert clock.best_s() == pytest.approx(0.5 + 0.5 + 1.0 + 0.5)
    assert clock.describe() == {"segments": 4, "passes": 2, "groups": 2}

    short = SegmentClock(segment_s=1.0)
    short.add([0.0, 0.4, 0.8, 1.2, 1.3, 2.5])   # cut at marks 3 and 5 only
    assert short.describe()["segments"] == 2
    short.add([0.0, 0.1, 0.2, 0.3, 0.4, 3.0])   # 0.3, then 2.7
    assert short.best_s() == pytest.approx(0.3 + 1.3)


@pytest.fixture(scope="module")
def mods():
    return run.import_program()


def test_heartbeat_ticks_on_every_return_and_restores(mods):
    tp, cli = mods["toy_predictor"], mods["cli"]
    original, feature_dim = tp.preference_cost, tp.feature_dim
    ticks = []
    inst = spans.heartbeat(lambda: ticks.append(1))
    try:
        assert tp.preference_cost is not original
        assert cli.preference_cost is tp.preference_cost
        assert tp.feature_dim is not feature_dim
        assert tp.feature_dim(8) == feature_dim(8)
        assert len(ticks) == 1
        wrapped = len(inst._undo)
        again = spans.heartbeat(ticks.clear)   # wrappers are not wrapped twice
        assert again._undo == []
    finally:
        inst.restore()
    assert wrapped > len(layers.TARGETS)
    assert tp.preference_cost is original and cli.preference_cost is original
    tp.feature_dim(8)
    assert len(ticks) == 1


def test_pulse_probes_every_few_marks_off_the_clock():
    probe = SpeedProbe()
    pulse = clock.Pulse(probe)
    for _ in range(2 * clock.PROBE_EVERY):
        pulse.tick()
    assert probe.units == 2 and len(probe.slots) == 2
    assert len(pulse.marks) == 2 * clock.PROBE_EVERY
    assert pulse.paused_s >= sum(probe.slots)
    assert list(pulse.marks) == sorted(pulse.marks)
    # the probe's time is left out of the marks around it
    i = clock.PROBE_EVERY - 1
    assert pulse.marks[i] - pulse.marks[i - 1] < probe.slots[0]


def test_instrument_rebinds_every_import_and_restores(mods):
    tp, cli = mods["toy_predictor"], mods["cli"]
    pref = mods["preference_ranking"]
    original = pref.preference_cost
    assert tp.preference_cost is original and cli.preference_cost is original
    inst = spans.instrument(spans.Tracer(), layers.TARGETS)
    try:
        assert not inst.missing
        for module in (tp, cli, pref):
            assert module.preference_cost is not original
    finally:
        inst.restore()
    for module in (tp, cli, pref):
        assert module.preference_cost is original


def test_per_unit_normalisation_on_tiny_workload(mods, tmp_path):
    p = run.run_pass(mods, TINY, 3, tmp_path / "pass", traced=True)
    assert not p.failed, p.problems
    cfg = TINY.run_config(3)
    kept = p.results["kept"]
    stats = spans.summarize(p.tracer)
    values, missing, idle = run.per_layer(p)
    assert missing == []

    steps = cfg["n_train"] * cfg["pretrain_epochs"] + kept * cfg["finetune_epochs"]
    assert values["toy_predictor.scene_steps"] == steps
    assert values["collision_geometry.calls_per_step"] == cfg["k"]
    assert values["scenegen.gap_checks_per_scene"] == (
        stats["scenegen._min_future_gap"].calls
        / (cfg["n_train"] + cfg["n_val"]))
    # every scene read: train for pretrain/extract/finetune, val for eval
    assert stats["scene_model.read_scenes"].units == 3 * cfg["n_train"] + cfg["n_val"]
    assert values["scene_model.read_us_per_scene"] == pytest.approx(
        stats["scene_model.read_scenes"].self_s * 1e6
        / stats["scene_model.read_scenes"].units)
    # forward runs once per scene-step, extract scene and evaluated scene
    forwards = steps + cfg["n_train"] + 2 * cfg["n_val"]
    assert stats["toy_predictor.forward"].calls == forwards
    assert values["toy_predictor.forward_self_us_per_scene"] == pytest.approx(
        stats["toy_predictor.forward"].self_s * 1e6 / forwards)
    assert stats["eval_metrics.evaluate_dataset"].units == 2 * cfg["n_val"]
    assert stats["preference_ranking.extract_preference_subset"].units \
        == cfg["n_train"]
    assert idle == ["collision_geometry.repeller_grad_us_per_mode",
                    "po_losses.direct_cost_self_us_per_scene"]
    assert values["preference_ranking.extract_keep_fraction"] == kept / cfg["n_train"]
    assert 0 < values["trace.coverage"] <= 1
    assert set(values) | {"trace.overhead_s"} == set(run.PER_LAYER_UNITS)


def test_passes_feed_one_clock_per_stage(mods, tmp_path):
    clocks = {False: {}, True: {}}
    walls = []
    for i, traced in enumerate((False, True, False)):
        p = run.run_pass(mods, TINY, 3, tmp_path / f"pass{i}", traced=traced,
                         clocks=clocks[traced])
        assert not p.failed, p.problems
        walls.append({s.kind: s.wall_s for s in p.stages})
    for traced, passes in ((False, 2), (True, 1)):
        assert set(clocks[traced]) == {"gen", "pretrain", "extract",
                                       "finetune", "eval"}
        for clock in clocks[traced].values():
            assert clock.describe()["passes"] == passes
            assert len(clock.groups) == 1 and clock.describe()["segments"] >= 1
    for kind, clock in clocks[False].items():
        assert 0 < clock.best_s() <= min(walls[0][kind], walls[2][kind]) + 1e-9
    scales = {kind: 2.0 for kind in clocks[False]} | {"import": 3.0}
    metrics = run.end_to_end([p], clocks[False], scales, TINY, 3, import_s=0.5)
    assert metrics["wall_s"] == pytest.approx(
        2.0 * run.timed_s(clocks[False], TINY))
    assert metrics["setup_s"] == pytest.approx(
        3.0 * 0.5 + 2.0 * clocks[False]["gen"].best_s())
    assert set(metrics) == set(run.END_TO_END_UNITS)


def test_fresh_interpreter_imports_the_program():
    assert 0 < run.import_time_s() < 60


def test_speed_probe_keeps_each_slots_fastest_unit():
    probe = SpeedProbe()
    probe.sample(1, 3)
    assert probe.units == 3 and probe.slots[0] == math.inf
    probe.sample(0, 3)
    first = list(probe.slots)
    probe.sample(0, 3)
    assert probe.slots[0] <= first[0] and probe.slots[1] == first[1]
    assert all(0 < t < 1 for t in probe.slots)
    assert probe.unit_s() == pytest.approx(sum(probe.slots) / 2)
    assert probe.unit_s(range(1, 2)) == probe.slots[1]
    assert probe.unit_s(range(0)) == probe.unit_s()
    assert probe.scale() == pytest.approx(clock.PROBE_NOMINAL_S / probe.unit_s())


def test_gate_flags_tampered_report_and_history(mods, tmp_path):
    p = run.run_pass(mods, TINY, 5, tmp_path / "pass", traced=False)
    assert not p.failed, p.problems
    ledger = tmp_path / "hashes.json"
    assert run.check_ledger(ledger, "tiny|5", p.hashes) == []
    assert run.check_ledger(ledger, "tiny|5", p.hashes) == []

    report = tmp_path / "pass" / "report_final.json"
    payload = json.loads(report.read_text())
    payload["after"]["scr"] = 0.5 if payload["after"]["scr"] != 0.5 else 0.25
    report.write_text(json.dumps(payload, indent=2) + "\n")
    history = tmp_path / "pass" / "finetune_history.json"
    hist = json.loads(history.read_text())
    hist["epoch_loss"][-1] = math.nan
    history.write_text(json.dumps(hist) + "\n")

    again = run.Pass(traced=False)
    run.check_artifacts(again, TINY, 5, tmp_path / "pass")
    assert run.check_ledger(ledger, "tiny|5", again.hashes) == [
        "finetune_history.json", "report_final.json"]
    assert again.failed == {"finetune"}


def test_bare_directory_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert run.main(["--workload", "pipeline_k6", "--seconds", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "not found" in out.err


def test_benchmark_json_matches_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER_UNITS

"""Stage-throughput benchmark for the jointpref pipeline.

Run from the root of a jointpref checkout:

    python3 perfbench/run.py --workload pipeline_k6 --seed 7 --seconds 40 --trace 0

One run is one process. It repeats *passes* until --seconds is used up:
each pass makes a fresh work directory, runs the workload's set-up stages
and then its timed stages in-process through ``jointpref.cli.main(argv)``,
checks the artifacts and removes the directory. A plain pass runs with
only a heartbeat (spans.heartbeat). Each stage's time is the sum over its
short segments of each segment's fastest pass (clock.SegmentClock).

With --trace 0 the passes are plain and the end-to-end metrics are
printed. The set-up time is the set-up stages' time plus the fastest of
several fresh interpreters' imports of jointpref. Each stage's time is
scaled to the nominal host speed measured by a fixed probe run inside it
(clock.SpeedProbe). With --trace 1 plain and traced passes alternate and
the per-layer metrics (medians over traced passes of self time per unit
of work, exact counts, trace coverage and overhead) are printed.

The program is deterministic and CPU-bound, so load from elsewhere on the
host can only add time. On a shared 2-core host that load flips the speed
between fast and 1.7x slower many times a second, and shifts how often it
is fast over minutes. Per-segment minimums take out the first, and the
probe takes out the second (clock.py says how).

Informational lines (provenance, artifact hashes, the probe, the import
and stage times unscaled, missing or idle layer metrics) go to stdout first;
the last line is the JSON result {"correct", "attempted", "failed",
"metrics"}. A run whose checks fail still prints its result and exits 1.
A directory without ``src/jointpref`` is refused with exit code 2 and no
result.
"""

import argparse
import contextlib
import ctypes
import gzip
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import layers
import spans
from clock import PROBE_EVERY, Pulse, SegmentClock, SpeedProbe
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MODULES = ("scene_model", "scenegen", "collision_geometry", "mode_aggregation",
           "preference_ranking", "po_losses", "toy_predictor", "eval_metrics",
           "cli")
# One compute thread; main() pins these before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3        # per kind (untraced / traced) before the clock may stop
SEGMENT_S = 0.005     # shortest segment a stage's time is cut into
IMPORT_EVERY = 4      # end-to-end passes per fresh-interpreter import timing
HARD_LIMIT_S = 150.0  # never start a pass that could end past this

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s",
    "pretrain_steps_per_s": "scene-steps/s",
    "finetune_steps_per_s": "scene-steps/s",
    "extract_scenes_per_s": "scenes/s", "eval_scenes_per_s": "scenes/s",
    "peak_rss_mb": "MiB",
}


class NotACheckout(Exception):
    pass


def import_time_s() -> float:
    """Seconds a fresh interpreter takes to import every jointpref module."""
    code = ("import importlib, sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "start = time.perf_counter()\n"
            f"for name in {MODULES!r}:\n"
            "    importlib.import_module('jointpref.' + name)\n"
            "print(time.perf_counter() - start)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


def import_program() -> dict:
    """Import jointpref from this checkout's src/, never from elsewhere."""
    if not (SRC / "jointpref" / "cli.py").is_file():
        raise NotACheckout(f"{SRC / 'jointpref'} not found: run from the root "
                           "of a jointpref checkout")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"jointpref.{name}") for name in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "jointpref":
        raise NotACheckout(f"jointpref imported from {mods['cli'].__file__}")
    return mods


# --------------------------------------------------------------------------
# one pass: fresh work directory, set-up stages, timed stages, checks
# --------------------------------------------------------------------------

@dataclass
class StageRun:
    phase: str           # setup | timed
    kind: str            # gen | pretrain | extract | finetune | eval
    wall_s: float
    span: int            # root span index in a traced pass, else -1


@dataclass
class Pass:
    traced: bool
    stages: list[StageRun] = field(default_factory=list)
    failed: set[str] = field(default_factory=set)    # stage kinds that failed
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    results: dict[str, float] = field(default_factory=dict)
    tracer: spans.Tracer | None = None
    missing: set[str] = field(default_factory=set)
    probe_slots: dict[str, range] = field(default_factory=dict)

    def fail(self, kind: str, problem: str) -> None:
        self.failed.add(kind)
        self.problems.append(f"{kind}: {problem}")

    def wall(self, kind: str) -> float:
        return next(s.wall_s for s in self.stages if s.kind == kind)


def run_stage(cli, argv: list[str], tracer: spans.Tracer | None):
    """Run one CLI stage; returns (exit code, start, end, output, span)."""
    buf = io.StringIO()
    span = -1
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(layers.STAGE) as span:
                    code = cli.main(argv)
    except SystemExit as e:          # argparse refused the arguments
        code = e.code if isinstance(e.code, int) else 2
    except Exception:                # a crash is a failed operation
        code = -1
        buf.write(traceback.format_exc())
    return code, start, time.perf_counter(), buf.getvalue(), span


def run_pass(mods: dict, wl: Workload, seed: int, wd: Path, traced: bool,
             clocks: dict[str, SegmentClock] | None = None,
             probe: SpeedProbe | None = None) -> Pass:
    """One pass in a fresh `wd`.

    Given `clocks`, the pass adds each stage's marks to that stage's clock:
    a plain pass runs with the heartbeat on and its ticks are the marks; a
    traced pass uses its span ends. Given `probe`, a plain pass's heartbeat
    samples it (see clock.Pulse).
    """
    shutil.rmtree(wd, ignore_errors=True)
    p = Pass(traced=traced)
    inst = None
    pulse = Pulse(probe)
    if traced:
        p.tracer = spans.Tracer()
        inst = spans.instrument(p.tracer, layers.TARGETS)
        p.missing = set(inst.missing)
    elif clocks is not None:
        inst = spans.heartbeat(pulse.tick)
    base = ["--set", "workdir", str(wd)]
    for key, value in wl.run_config(seed).items():
        base += ["--set", key, json.dumps(value)]
    try:
        for phase, stages in (("setup", wl.setup), ("timed", wl.timed)):
            for stage in stages:
                argv = base + [arg.format(wd=wd) for arg in stage]
                first = len(p.tracer.ends) if traced else 0
                paused, ticks = pulse.paused_s, pulse.count
                code, begin, end, log, span = run_stage(mods["cli"], argv,
                                                        p.tracer)
                begin, end = begin - paused, end - pulse.paused_s
                p.probe_slots[stage[0]] = range(ticks // PROBE_EVERY,
                                                pulse.count // PROBE_EVERY)
                p.stages.append(StageRun(phase, stage[0], end - begin, span))
                if clocks is not None:
                    marks = array("d", [begin])
                    marks.extend(sorted(p.tracer.ends[first:]) if traced
                                 else pulse.marks)
                    marks.append(end)
                    del pulse.marks[:]
                    clocks.setdefault(stage[0], SegmentClock(
                        SEGMENT_S)).add(marks)
                if code != 0:
                    p.fail(stage[0], f"exit code {code}\n{log[-3000:]}")
                    return p
    finally:
        if inst is not None:
            inst.restore()
    try:
        check_artifacts(p, wl, seed, wd)
    except (OSError, KeyError, TypeError, ValueError) as e:
        p.fail("check", f"unreadable artifact: {e!r}")
    return p


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_artifacts(p: Pass, wl: Workload, seed: int, wd: Path) -> None:
    """Correctness gate on one pass's artifacts; records results and hashes."""
    cfg = wl.run_config(seed)
    for path in sorted(wd.glob("report_*.json")) + sorted(wd.glob("*_history.json")):
        p.hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()

    for path in sorted(wd.glob("*_history.json")):
        kind = "pretrain" if path.name.startswith("pretrain") else "finetune"
        losses = json.loads(path.read_text())["epoch_loss"]
        epochs = cfg[f"{kind}_epochs"]
        if len(losses) != epochs or not _finite(losses):
            p.fail(kind, f"{path.name}: {len(losses)} epoch losses, "
                         f"expected {epochs} finite values")
        elif kind == "finetune":
            p.results["finetune_final_loss"] = losses[-1]

    summary = json.loads((wd / "extract_summary.json").read_text())
    kept = len((wd / "subset.txt").read_text().split())
    if summary["total"] != cfg["n_train"] or summary["extracted"] != kept \
            or kept < 1:
        p.fail("extract", f"summary {summary} vs {kept} subset lines")
    p.results["kept"] = kept
    p.results["extract_keep_fraction"] = kept / cfg["n_train"]

    (report_path,) = wd.glob("report_*.json")
    payload = json.loads(report_path.read_text())
    after = payload.get("after", payload.get("report"))
    reports = [after] + ([payload["before"]] if "before" in payload else [])
    p.results["eval_checkpoints"] = len(reports)
    for rep in reports:
        if rep["n_scenes"] != cfg["n_val"] or not 0 <= rep["scr"] <= 1 \
                or not 0 <= rep["pscr"] <= 1 \
                or not _finite([rep["min_joint_fde"], rep["avg_fde"]]):
            p.fail("eval", f"{report_path.name}: implausible report {rep}")
    p.results["scr_after"] = after["scr"]
    p.results["pscr_after"] = after["pscr"]
    p.results["min_joint_fde_after_m"] = after["min_joint_fde"]


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def timed_s(clocks: dict[str, SegmentClock], wl: Workload) -> float:
    return sum(clocks[stage[0]].best_s() for stage in wl.timed)


def end_to_end(passes: list[Pass], clocks: dict[str, SegmentClock],
               scales: dict[str, float], wl: Workload, seed: int,
               import_s: float) -> dict[str, float]:
    """End-to-end metrics of a run's untraced passes and their stage clocks.

    `scales` has, per stage kind and for "import", the speed probe's factor
    to the nominal host speed. Set-up is `import_s` plus the set-up stages'
    times.
    """
    cfg = wl.run_config(seed)
    r = passes[0].results   # the same in every pass: the hashes match
    best = {kind: clock.best_s() * scales[kind]
            for kind, clock in clocks.items()}
    return {
        "wall_s": sum(best[stage[0]] for stage in wl.timed),
        "setup_s": import_s * scales["import"]
                   + sum(best[stage[0]] for stage in wl.setup),
        "pretrain_steps_per_s":
            cfg["n_train"] * cfg["pretrain_epochs"] / best["pretrain"],
        "finetune_steps_per_s":
            r["kept"] * cfg["finetune_epochs"] / best["finetune"],
        "extract_scenes_per_s": cfg["n_train"] / best["extract"],
        "eval_scenes_per_s": cfg["n_val"] * r["eval_checkpoints"] / best["eval"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(p: Pass) -> tuple[dict[str, float], list[str], list[str]]:
    """Layer metrics of one traced pass: (values, missing, idle)."""
    timed = {s.span for s in p.stages if s.phase == "timed"}
    finetune = {s.span for s in p.stages if s.kind == "finetune"}
    stats = {"pass": spans.summarize(p.tracer),
             "timed": spans.summarize(p.tracer, within=timed),
             "finetune": spans.summarize(p.tracer, within=finetune)}
    values, missing, idle = layers.evaluate(stats, p.missing)
    values["trace.coverage"] = (
        1.0 - values["cli.self_s"] / stats["timed"][layers.STAGE].total_s)
    r = p.results
    values["preference_ranking.extract_keep_fraction"] = r["extract_keep_fraction"]
    values["toy_predictor.finetune_final_loss"] = r["finetune_final_loss"]
    for name in ("scr_after", "pscr_after", "min_joint_fde_after_m"):
        values[f"eval_metrics.{name}"] = r[name]
    return values, missing, idle


def stage_shares(p: Pass, floor: float = 0.01) -> dict:
    """Where one traced pass's timed wall time went.

    "stages" is each timed stage's share of the timed wall; "functions" is,
    per stage, each traced function's self time as a share of that stage.
    The "stage" span holds the time no layer covers. Function shares below
    `floor` are left out.
    """
    timed = [s for s in p.stages if s.phase == "timed"]
    walls = {s.kind: p.tracer.ends[s.span] - p.tracer.starts[s.span]
             for s in timed}
    functions = {}
    for stage in timed:
        stats = spans.summarize(p.tracer, within={stage.span})
        ranked = sorted(((st.self_s / walls[stage.kind], name)
                         for name, st in stats.items()), reverse=True)
        functions[stage.kind] = {name: round(share, 3) for share, name in ranked
                                 if share >= floor}
    total = sum(walls.values())
    return {"stages": {k: round(w / total, 3) for k, w in walls.items()},
            "functions": functions}


PER_LAYER_UNITS = {m.name: m.unit for m in layers.METRICS} | {
    "toy_predictor.finetune_final_loss": "loss",
    "preference_ranking.extract_keep_fraction": "ratio",
    "eval_metrics.scr_after": "ratio", "eval_metrics.pscr_after": "ratio",
    "eval_metrics.min_joint_fde_after_m": "m",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
}


# --------------------------------------------------------------------------
# provenance and the cross-run hash ledger
# --------------------------------------------------------------------------

def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "jointpref").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD's commit from .git files; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info(np) -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def provenance(wl: Workload, seed: int) -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(),
        "source_sha256": source_hash(),
        "workload": wl.name,
        "seed": seed,
        "config": wl.run_config(seed),
        "setup_stages": [list(s) for s in wl.setup],
        "timed_stages": [list(s) for s in wl.timed],
    }


def check_ledger(ledger_path: Path, key: str, hashes: dict[str, str]) -> list[str]:
    """Names whose hash differs from an earlier run's under the same key.

    The first run of a key records its hashes and finds no difference.
    """
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    earlier = ledger.setdefault(key, hashes)
    diffs = sorted(name for name in earlier.keys() | hashes.keys()
                   if earlier.get(name) != hashes.get(name))
    if earlier is hashes:
        tmp = ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
        tmp.replace(ledger_path)
    return diffs


def write_spans(path: Path, tracer: spans.Tracer) -> None:
    names = sorted(set(tracer.names))
    ids = {n: i for i, n in enumerate(names)}
    with gzip.open(path, "wt") as f:
        json.dump({"names": names, "fields": ["name", "start", "end",
                                              "parent", "units"],
                   "spans": [[ids[n], s, e, par, u] for n, s, e, par, u in zip(
                       tracer.names, tracer.starts, tracer.ends,
                       tracer.parents, tracer.units)]}, f)


# --------------------------------------------------------------------------
# the run
# --------------------------------------------------------------------------

def run_passes(mods: dict, wl: Workload, seed: int, seconds: float,
               trace: bool, clocks: dict[bool, dict[str, SegmentClock]],
               probe: SpeedProbe | None = None,
               imports: list[float] | None = None) -> list[Pass]:
    """Repeat passes until `seconds` are used; stops at the first failure.

    With `trace`, untraced and traced passes alternate. A pass whose
    artifact hashes differ from the first pass's fails the determinism gate.
    Plain passes feed `clocks[False]` and traced ones `clocks[True]`;
    `probe`, when given, is sampled by their heartbeat, and `imports`
    gets a fresh interpreter's import time before every IMPORT_EVERY-th
    pass.
    """
    start = time.perf_counter()
    work = OUT / f"work-{wl.name}-seed{seed}-pid{os.getpid()}"
    kinds = (False, True) if trace else (False,)
    passes: list[Pass] = []
    try:
        while True:
            began = time.perf_counter()
            traced = kinds[len(passes) % len(kinds)]
            if imports is not None and len(passes) % IMPORT_EVERY == 0:
                imports.append(import_time_s())
            p = run_pass(mods, wl, seed, work / f"pass{len(passes)}", traced,
                         clocks[traced], probe)
            passes.append(p)
            first = passes[0].hashes
            if not p.failed and p.hashes != first:
                diff = sorted(n for n in p.hashes if p.hashes[n] != first.get(n))
                p.fail("determinism", f"hashes differ from pass 0: {diff}")
            if p.failed:
                return passes
            now = time.perf_counter()
            next_end = now + (now - began)
            done = min(sum(q.traced == k for q in passes) for k in kinds)
            if next_end > start + HARD_LIMIT_S or (
                    done >= MIN_PASSES and next_end > start + seconds):
                return passes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        mods = import_program()
    except NotACheckout as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    wl, seed = WORKLOADS[args.workload], args.seed
    OUT.mkdir(exist_ok=True)

    # Stage times are segment minimums in both modes; only the end-to-end
    # metrics are scaled to the probe's speed.
    clocks = {False: {}, True: {}}
    probe = None if args.trace else SpeedProbe()
    imports = None if args.trace else []
    passes = run_passes(mods, wl, seed, args.seconds, bool(args.trace),
                        clocks, probe, imports)
    problems = [msg for p in passes for msg in p.problems]
    failed = sum(len(p.failed) for p in passes)
    good = [p for p in passes if not p.failed]
    plain = [p for p in good if not p.traced]
    traced = [p for p in good if p.traced]
    print("provenance " + json.dumps(provenance(wl, seed), sort_keys=True))
    print(f"passes {len(passes)} ({len(traced)} traced)")
    if good:
        run_key = json.dumps([wl.run_config(seed), wl.setup, wl.timed])
        key = (f"{wl.name}|src={source_hash()[:16]}"
               f"|run={hashlib.sha256(run_key.encode()).hexdigest()[:16]}")
        print("hashes " + json.dumps(good[0].hashes, sort_keys=True))
        diffs = check_ledger(OUT / "hashes.json", key, good[0].hashes)
        if diffs:
            failed += 1
            problems.append(f"determinism: {diffs} differ from an earlier "
                            f"run of {key}")

    metrics: dict[str, float] = {}
    missing: list[str] = []
    if args.trace and traced and plain:
        per_pass = [per_layer(p) for p in traced]
        metrics = {name: statistics.median(v[name] for v, _, _ in per_pass)
                   for name in per_pass[0][0]}
        metrics["trace.overhead_s"] = (timed_s(clocks[True], wl)
                                       - timed_s(clocks[False], wl))
        _, missing, idle = per_pass[0]
        print("missing_layer_metrics " + json.dumps(missing))
        print("idle_layer_metrics " + json.dumps(idle))
        print("stage_shares " + json.dumps(stage_shares(traced[-1])))
        write_spans(OUT / f"spans-{wl.name}-seed{seed}.json.gz", traced[-1].tracer)
    elif not args.trace and plain:
        scales = {kind: probe.scale(slots)
                  for kind, slots in plain[0].probe_slots.items()}
        scales["import"] = probe.scale()
        metrics = end_to_end(plain, clocks[False], scales, wl, seed,
                             min(imports))
        walls = {s.kind: [p.wall(s.kind) for p in plain] for s in plain[0].stages}
        print("speed_probe " + json.dumps({
            "unit_s": probe.unit_s(), "slots": len(probe.slots),
            "units": probe.units, "scales": scales}))
        print("import_times " + json.dumps(imports))
        print("stage_times " + json.dumps({   # seconds as measured, unscaled
            kind: {"segment_min_s": clocks[False][kind].best_s(),
                   "fastest_pass_s": min(w), "median_pass_s": statistics.median(w),
                   **clocks[False][kind].describe()}
            for kind, w in walls.items()}))
    for problem in problems:
        print(f"problem {problem}", file=sys.stderr)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    correct = (failed == 0 and set(units) - set(missing) <= set(metrics)
               and _finite(metrics.values()))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(p.stages) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

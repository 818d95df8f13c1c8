"""Pipeline CLI: gen, pretrain, extract, finetune, eval, ablate, report.

Every stage writes its artifacts plus a manifest (merged config, seed,
content hashes of inputs and outputs, wall time, the process's peak
memory), each through a temp file renamed into place, and reuses
existing artifacts only while that manifest still matches. A stage also
refuses an input whose maker's manifest records other inputs than the
files their own makers' manifests record. Exit codes: 0 success, 2
config error or stale artifact, 3 missing upstream artifact, 4
validation failure, unreadable input file or diverged training (no
checkpoint, history or manifest is written).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fnmatch
import hashlib
import json
import os
import platform
import re
import resource
import sys
import time
import zipfile
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import eval_metrics, scenegen, toy_predictor
from .collision_geometry import DEFAULT_RADIUS_M, RepellerParams
from .mode_aggregation import aggregate_to_joint
from .po_losses import DEFAULT_BETA, DEFAULT_GAMMA, SimPOConfig
from .preference_ranking import (
    DEFAULT_DELTA,
    DEFAULT_LAMBDA,
    extract_preference_subset,
    preference_cost,  # noqa: F401  perfbench/test_perfbench.py looks it up here
)
from .scene_model import NonFiniteError, atomic_open, read_scenes, write_scenes
from .scenegen import DEFAULT_T_FUT, DEFAULT_T_OBS, ScenarioSpec
from .toy_predictor import HIDDEN, TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_VALIDATION = 4


class ConfigError(Exception):
    pass


class MissingArtifact(Exception):
    pass


class UnreadableArtifact(Exception):
    pass


WEIGHTS = ("crossing_weight", "merge_weight", "follow_weight",
           "parallel_weight")


@dataclass
class RunConfig:
    workdir: str = "runs/default"
    seed: int = 0
    # data
    n_train: int = 2000
    n_val: int = 200
    crossing_weight: float = 0.15
    merge_weight: float = 0.05
    follow_weight: float = 0.35
    parallel_weight: float = 0.45
    num_agents: int = 2
    t_obs: int = DEFAULT_T_OBS
    t_fut: int = DEFAULT_T_FUT
    # predictor / decoding
    k: int = 6
    top_n: int = 6
    hidden: int = HIDDEN
    # preference metric / extraction
    lam: float = DEFAULT_LAMBDA
    delta: float = DEFAULT_DELTA
    repeller_r: float = DEFAULT_RADIUS_M
    # optimization
    beta: float = DEFAULT_BETA
    gamma: float = DEFAULT_GAMMA
    # optimizer settings sized to this small network; rates tuned for
    # production-scale predictors (around 1e-5) are inert here
    pretrain_lr: float = 0.1
    pretrain_epochs: int = 40
    finetune_lr: float = 2.5e-3
    finetune_epochs: int = 5
    batch_size: int = 16

    def validate(self):
        """ConfigError naming the first field out of its range; the
        mixture, repeller and SimPO dataclasses check their own fields."""
        if self.k < self.top_n:
            raise ConfigError(f"K ({self.k}) must be >= top_n ({self.top_n})")
        for name in ("n_train", "t_fut", "top_n", "hidden", "pretrain_lr",
                     "finetune_lr", "pretrain_epochs", "finetune_epochs",
                     "batch_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.t_obs < 2:
            raise ConfigError("t_obs must be >= 2 (velocities need two steps)")
        # 0 weight: kind left out; 0 lam: modes ranked by avgFDE alone
        for name in ("n_val", "delta", "lam", *WEIGHTS):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        try:
            specs = self.mixture()
            self.repeller()
            self.simpo()
        except ValueError as e:
            raise ConfigError(str(e)) from e
        if not specs:
            raise ConfigError("at least one mixture weight must be positive")

    def mixture(self) -> list[tuple[ScenarioSpec, float]]:
        kinds = [(name.removesuffix("_weight"), getattr(self, name))
                 for name in WEIGHTS]
        return [(ScenarioSpec(kind=kind, num_agents=self.num_agents), w)
                for kind, w in kinds if w > 0]

    def repeller(self) -> RepellerParams:
        return RepellerParams(r=self.repeller_r)

    def simpo(self) -> SimPOConfig:
        return SimPOConfig(beta=self.beta, gamma=self.gamma)


def _checked(key: str, value, current):
    """value as the type of the field's default; ConfigError if it is not one."""
    if isinstance(current, str):
        ok = isinstance(value, str)
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (value % 1 == 0 if isinstance(current, int)
                   else abs(value) <= sys.float_info.max))
    if not ok:
        raise ConfigError(f"{key} needs a finite {type(current).__name__}, "
                          f"got {value!r}")
    return type(current)(value)


def _parse_json(data: str | bytes, source: str):
    try:
        return json.loads(data)
    except ValueError as e:   # also bytes that are not UTF-8
        raise ConfigError(f"{source} is not valid JSON: {e}") from e


def _read_json(path: Path, source: str):
    """The JSON value a file holds; ConfigError naming source when the file
    cannot be read or does not hold JSON."""
    try:
        return _parse_json(path.read_bytes(), source)
    except OSError as e:
        raise ConfigError(f"cannot read {source}: {e.strerror}") from e


def load_config(args) -> RunConfig:
    cfg = RunConfig()
    known = {f.name for f in dataclasses.fields(RunConfig)}
    if args.config:
        data = _read_json(Path(args.config), args.config)
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config} must hold a JSON object")
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            setattr(cfg, key, _checked(key, value, getattr(cfg, key)))
    for key, value in (args.set or []):
        if key not in known:
            raise ConfigError(f"unknown config key: {key}")
        current = getattr(cfg, key)
        if not isinstance(current, str):
            value = _parse_json(value, f"--set {key}")
        setattr(cfg, key, _checked(key, value, current))
    cfg.validate()
    return cfg


def _write(path: Path, data: str | bytes) -> None:
    with atomic_open(path, "wb" if isinstance(data, bytes) else "w") as f:
        f.write(data)


def _hash_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _hashes(workdir: Path, paths: list[Path]) -> dict:
    """sha256 per file, keyed by name in workdir and by path elsewhere."""
    return {p.name if p.parent == workdir else str(p): _hash_file(p)
            for p in dict.fromkeys(paths)}


def _write_manifest(workdir: Path, step: str, cfg: RunConfig,
                    inputs: list[Path], outputs: list[Path],
                    started: float) -> None:
    cfg_json = json.dumps(dataclasses.asdict(cfg), sort_keys=True)
    manifest = {
        "step": step,
        "config": json.loads(cfg_json),
        "config_hash": hashlib.sha256(cfg_json.encode()).hexdigest(),
        "seed": cfg.seed,
        "input_hashes": _hashes(workdir, inputs),
        "output_hashes": _hashes(workdir, outputs),
        "wall_time_s": round(time.time() - started, 3),
        # the whole process's peak so far: stages run in one process share it
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        # the bit-exact training paths rest on numpy's einsum summation order
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            **{var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    _write(workdir / f"{step}_manifest.json",
           json.dumps(manifest, indent=2) + "\n")


def _maker(path: Path) -> tuple[str, Path] | None:
    """The stage whose output template fits path's file name, with the
    manifest that stage writes beside path; None when no template fits."""
    for name, stage in STAGES.items():
        for out in stage.outputs:
            if fnmatch.fnmatchcase(path.name, out.format(suffix="*")):
                head, _, tail = out.partition("{suffix}")
                suffix = path.name[len(head):len(path.name) - len(tail)]
                return name, path.with_name(f"{name}{suffix}_manifest.json")
    return None


def _require(path: Path) -> Path:
    """path if it exists; else MissingArtifact naming the stage whose output
    template its file name fits, when one does."""
    if not path.exists():
        maker = _maker(path)
        raise MissingArtifact(f"missing {path.name}"
                              + (f"; run '{maker[0]}' first" if maker else ""))
    return path


@contextlib.contextmanager
def _reading(path: Path):
    """UnreadableArtifact (exit 4) naming path for any error that reading a
    scene file, subset, checkpoint or report in the block raises."""
    try:
        yield
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as e:
        raise UnreadableArtifact(f"{path}: {e}") from e


def _match(source: str, found: dict, cfg: RunConfig, fields) -> None:
    """ConfigError naming the first field where an artifact and cfg differ."""
    for name in fields:
        if found.get(name) != getattr(cfg, name):
            raise ConfigError(f"{name}: {source} has {found.get(name)!r}, "
                              f"the config has {getattr(cfg, name)!r}")


def _read_split(cfg: RunConfig, path: Path,
                subset: Path | None = None) -> toy_predictor.SceneBlock:
    """A split file, or the scenes of it a subset file names, as a
    SceneBlock; exit 4 naming the file when it cannot be read or its scenes
    are not one block of finite arrays."""
    with _reading(path):
        scenes, header = read_scenes(path)
        _match(path.name, header, cfg, ("t_obs", "t_fut"))
        if subset is not None:
            scenes = _subset_scenes(scenes, subset, path)
        return toy_predictor.scene_block(scenes)


def _subset_scenes(scenes, subset: Path, split: Path):
    """The scenes whose ids subset lists, in split order; exit 4 naming
    subset when it cannot be read, lists no id or lists an id that no scene
    of the split has."""
    with _reading(subset):
        ids = subset.read_text().split()
        if not ids:
            raise ValueError("names no scene")
        known = {scene.scene_id for scene in scenes}
        unknown = [i for i in ids if i not in known]
        if unknown:
            raise ValueError(f"scene {unknown[0]} is not in {split.name}")
    keep = set(ids)
    return [scene for scene in scenes if scene.scene_id in keep]


def _load_params(cfg: RunConfig, path: Path) -> dict:
    with _reading(path):
        params = toy_predictor.load_checkpoint(path)
    _match(path.name, params["_meta"], cfg, MODEL)
    return params


def cmd_gen(cfg: RunConfig, train_path, val_path, summary_path):
    Path(cfg.workdir).mkdir(parents=True, exist_ok=True)
    n_total = cfg.n_train + cfg.n_val
    try:
        scenes, manifest = scenegen.generate_dataset(
            cfg.mixture(), n_total, cfg.seed, t_obs=cfg.t_obs, t_fut=cfg.t_fut)
    except ValueError as e:
        print(f"scene generation failed: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    train, val = scenes[:cfg.n_train], scenes[cfg.n_train:]
    write_scenes(train_path, train, cfg.t_obs, cfg.t_fut)
    write_scenes(val_path, val, cfg.t_obs, cfg.t_fut)
    if not val:
        print("warning: empty validation split", file=sys.stderr)
    _write(summary_path, json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(train)} train / {len(val)} val scenes to {cfg.workdir}")


PRETRAIN_MOMENTUM = 0.9   # finetune keeps TrainConfig's default of 0


def cmd_pretrain(cfg: RunConfig, train_path, out, history_path):
    split = _read_split(cfg, train_path)
    params = toy_predictor.init_params(cfg.t_obs, cfg.t_fut, cfg.k, cfg.seed,
                                       hidden=cfg.hidden)
    tc = TrainConfig(learning_rate=cfg.pretrain_lr, epochs=cfg.pretrain_epochs,
                     batch_size=cfg.batch_size, objective="pretrain",
                     momentum=PRETRAIN_MOMENTUM, rng_seed=cfg.seed)
    return _train("pretrain", params, split, tc, out, history_path)


def _train(stage: str, params, split, tc: TrainConfig, out, history_path):
    """Train, printing one line per epoch, then save the checkpoint and
    history; exit 4 naming the stage and epoch, with nothing saved, when
    training diverges. Overflow is left to train's non-finite checks, so
    that line is the only explanation."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            history = toy_predictor.train(
                params, split, tc, log_fn=lambda epoch, h: print(
                    f"{stage} epoch {epoch}: loss {h['epoch_loss'][-1]:.4f}"
                    + (f" reward_gap {h['epoch_reward_gap'][-1]:.3f}"
                       if h["epoch_reward_gap"] else "")))
    except NonFiniteError as e:
        print(f"{stage} diverged at {e}", file=sys.stderr)
        return EXIT_VALIDATION
    toy_predictor.save_checkpoint(out, params)
    _write(history_path, json.dumps(history) + "\n")


def _predict_joints(params, split, batch_size: int):
    """Yield (ids, futures, joint mode stack) for each batch_size chunk of a
    split; one forward per chunk keeps memory flat in the split size."""
    for start in range(0, len(split.ids), batch_size):
        block = toy_predictor.SceneBlock(
            *(x[start:start + batch_size] for x in split))
        yield (block.ids, block.futures,
               aggregate_to_joint(*toy_predictor.forward(params, block))[0])


def cmd_extract(cfg: RunConfig, train_path, ckpt, out, summary_path):
    """Write the ids of the train scenes the checkpoint's joint modes make
    worth fine-tuning on, and how many scenes each rule kept."""
    split = _read_split(cfg, train_path)
    params = _load_params(cfg, ckpt)
    kept, summary = extract_preference_subset(
        _predict_joints(params, split, cfg.batch_size), lam=cfg.lam,
        repeller_params=cfg.repeller(), delta=cfg.delta)
    _write(out, "".join(sid + "\n" for sid in kept))
    _write(summary_path,
           json.dumps(dataclasses.asdict(summary), indent=2) + "\n")
    print(f"extracted {summary.extracted}/{summary.total} scenes "
          f"({summary.fraction:.1%})")


def cmd_finetune(cfg: RunConfig, train_path, ckpt, subset_path, out,
                 history_path, objective: str = "simpo"):
    subset = _read_split(cfg, train_path, subset_path)
    params = _load_params(cfg, ckpt)
    tc = TrainConfig(learning_rate=cfg.finetune_lr, epochs=cfg.finetune_epochs,
                     batch_size=cfg.batch_size, objective=objective,
                     simpo=cfg.simpo(), lam=cfg.lam, repeller=cfg.repeller(),
                     rng_seed=cfg.seed)
    return _train(f"finetune[{objective}]", params, subset, tc, out,
                  history_path)


def _eval_checkpoint(cfg: RunConfig, split, ckpt: Path):
    params = _load_params(cfg, ckpt)
    return eval_metrics.evaluate_dataset(
        _predict_joints(params, split, cfg.batch_size), top_n=cfg.top_n)


def cmd_eval(cfg: RunConfig, val_path, *checkpoints_and_out):
    """Report one checkpoint with per-scene rows, or compare two."""
    *checkpoints, out = checkpoints_and_out
    split = _read_split(cfg, val_path)
    if len(checkpoints) == 2:
        rb, _ = _eval_checkpoint(cfg, split, checkpoints[0])
        ra, _ = _eval_checkpoint(cfg, split, checkpoints[1])
        payload = {"before": dataclasses.asdict(rb),
                   "after": dataclasses.asdict(ra),
                   "comparison": eval_metrics.comparison_report(rb, ra)}
        for name, row in payload["comparison"].items():
            rel = row["relative_change_percent"]
            print(f"{name:14s} {row['before']:.6f} -> {row['after']:.6f} "
                  f"({'n/a' if rel is None else f'{rel:+.1f}%'})")
    else:
        report, rows = _eval_checkpoint(cfg, split, checkpoints[0])
        payload = {"report": dataclasses.asdict(report),
                   "per_scene": [dataclasses.asdict(r) for r in rows]}
        print("\n".join(report.display_lines()))
    _write(out, json.dumps(payload, indent=2) + "\n")


def _eval_checkpoints(cfg: RunConfig, args):
    """The checkpoint paths eval's flags name."""
    if (args.before is None) != (args.after is None):
        raise ConfigError("eval needs --before and --after together")
    if args.checkpoint is not None and args.before is not None:
        raise ConfigError("eval takes --checkpoint or --before/--after, "
                          "not both")
    paths = ((args.before, args.after) if args.before is not None
             else (args.checkpoint or Path(cfg.workdir) / "pretrained.npz",))
    return tuple(map(Path, paths))


class Stage(NamedTuple):
    work: Callable[..., int | None]   # work(cfg, *inputs, *outputs)
    inputs: tuple[str, ...]    # workdir files, each an earlier stage's output
    outputs: tuple[str, ...]   # the first one decides whether the stage ran
    fields: tuple[str, ...]    # config fields the outputs depend on


MODEL = ("t_obs", "t_fut", "k", "hidden")   # a checkpoint's shape
# in pipeline order; {suffix} is finetune's objective or eval's tag
STAGES = {
    "gen": Stage(cmd_gen, (), ("train.jsonl", "val.jsonl", "gen_summary.json"),
                 ("seed", "n_train", "n_val", *WEIGHTS, "num_agents",
                  "t_obs", "t_fut")),
    "pretrain": Stage(cmd_pretrain, ("train.jsonl",),
                      ("pretrained.npz", "pretrain_history.json"),
                      ("seed", *MODEL, "pretrain_lr", "pretrain_epochs",
                       "batch_size")),
    "extract": Stage(cmd_extract, ("train.jsonl", "pretrained.npz"),
                     ("subset.txt", "extract_summary.json"),
                     (*MODEL, "lam", "delta", "repeller_r")),
    "finetune": Stage(cmd_finetune,
                      ("train.jsonl", "pretrained.npz", "subset.txt"),
                      ("finetuned{suffix}.npz", "finetune{suffix}_history.json"),
                      ("seed", *MODEL, "finetune_lr", "finetune_epochs",
                       "batch_size", "beta", "gamma", "lam", "repeller_r")),
    "eval": Stage(cmd_eval, ("val.jsonl",), ("report{suffix}.json",),
                  (*MODEL, "top_n")),
}
PIPELINE = ("gen", "pretrain", "extract", "finetune")


def _run(cfg: RunConfig, force: bool, name: str, suffix: str = "",
         checkpoints=(), **options) -> int:
    """Run stage `name` in cfg.workdir: require its declared inputs and
    `checkpoints` paths (exit 3 naming the stage that writes a missing one,
    if any) and that each input's maker still rests on the files their own
    makers record (exit 2 naming the input if not); keep an existing first
    output while its manifest matches (exit 2 if it does not) unless
    --force, else do its work and write its manifest."""
    stage, workdir = STAGES[name], Path(cfg.workdir)
    inputs = [_require(path) for path in
              [workdir / f for f in stage.inputs] + list(checkpoints)]
    _check_makers(inputs)
    outputs = [workdir / f.format(suffix=suffix) for f in stage.outputs]
    manifest = workdir / f"{name}{suffix}_manifest.json"
    if outputs[0].exists() and not force:
        try:
            _check_current(manifest, cfg, stage.fields, inputs, outputs)
        except ConfigError as e:
            raise _stale(outputs[0], name, e) from e
        print(f"{outputs[0]} exists; skipping (use --force to rebuild)")
        return EXIT_OK
    started = time.time()
    code = stage.work(cfg, *inputs, *outputs, **options)
    if code is None:
        _write_manifest(workdir, name + suffix, cfg, inputs, outputs, started)
    return code or EXIT_OK


def _stale(path: Path, stage: str, reason) -> ConfigError:
    return ConfigError(f"{path} is stale: {reason}; "
                       f"rerun {stage} with --force to rebuild it")


def _read_manifest(manifest: Path) -> dict:
    """A stage's manifest; ConfigError naming it when it cannot be read or
    does not record the config and the input and output hashes."""
    recorded = _read_json(manifest, manifest.name)
    keys = ("config", "input_hashes", "output_hashes")
    if not (isinstance(recorded, dict)
            and all(isinstance(recorded.get(key), dict) for key in keys)):
        raise ConfigError(f"{manifest.name} does not record {', '.join(keys)}")
    return recorded


def _check_makers(inputs) -> None:
    """ConfigError naming the first input whose maker's manifest records an
    input hash other than the output hash that file's own maker's manifest
    records now. Only manifests are read; an absent one is skipped."""
    for path in inputs:
        maker = _maker(path)
        if maker is None or not maker[1].exists():
            continue
        name, manifest = maker
        for key, digest in sorted(
                _read_manifest(manifest)["input_hashes"].items()):
            source = manifest.parent / key
            upstream = _maker(source)
            if upstream is None or not upstream[1].exists():
                continue
            made = _read_manifest(upstream[1])["output_hashes"]
            if made.get(source.name) != digest:
                raise _stale(path, name, f"{source.name} is not the file "
                                         f"{manifest.name} records")


def _check_current(manifest: Path, cfg: RunConfig, fields, inputs, outputs):
    """ConfigError naming the first way the outputs differ from what the
    manifest records: its config fields, input hashes or output hashes."""
    if not manifest.exists():
        raise ConfigError(f"{manifest.name} is missing")
    recorded = _read_manifest(manifest)
    _match(manifest.name, recorded["config"], cfg, fields)
    for path in outputs:
        if not path.exists():
            raise ConfigError(f"{path.name} is missing")
    for key, paths in (("input_hashes", inputs), ("output_hashes", outputs)):
        known, found = recorded[key], _hashes(manifest.parent, paths)
        for name in sorted(set(known) | set(found)):
            if known.get(name) != found.get(name):
                raise ConfigError(f"{name} is not the file {manifest.name} "
                                  "records")


SWEEPABLE = ("gamma", "lam", "k")


def cmd_ablate(cfg: RunConfig, force: bool, param: str, values: list[float]) -> int:
    """Per value, rerun the pipeline from the first stage that reads
    `param` on copies of the earlier stages' outputs, then evaluate it.
    Those earlier stages run once, in the parent and never forced: built
    when missing, skipped when current, exit 2 when stale. The copies are
    made afresh on every sweep, so the manifest checks see the parent's
    current outputs; `force` reaches only the swept stages and eval. A
    failing stage ends the sweep with its exit code and writes no table."""
    workdir = Path(cfg.workdir)
    started = time.time()
    subs = {}   # by directory; every value is checked before any stage runs
    for value in values:
        name = f"ablate_{param}_{value:g}"
        if name in subs:
            raise ConfigError(f"ablate {param}: values {subs[name][0]!r} and "
                              f"{value!r} would share {name}")
        sub = dataclasses.replace(cfg, workdir=str(workdir / name))
        try:
            setattr(sub, param, _checked(param, value, getattr(cfg, param)))
            sub.validate()
        except ConfigError as e:
            raise ConfigError(f"ablate {param} {value:g}: {e}") from e
        subs[name] = value, sub
    first = next(i for i, name in enumerate(PIPELINE)
                 if param in STAGES[name].fields)
    for name in PIPELINE[:first]:
        try:
            code = _run(cfg, False, name)
        except ConfigError as e:
            raise ConfigError(f"ablate {param}: {e}") from e
        if code:
            print(f"ablate {param}: {name} failed", file=sys.stderr)
            return code
    shared = [f for name in PIPELINE[:first]
              for f in (*STAGES[name].outputs, f"{name}_manifest.json")]
    rows = []
    for value, sub in subs.values():
        subdir = Path(sub.workdir)
        subdir.mkdir(parents=True, exist_ok=True)
        for name in shared:
            _write(subdir / name, (workdir / name).read_bytes())
        stages = [(name, "", ()) for name in PIPELINE[first:]] + [
            ("eval", "_final", (subdir / "pretrained.npz",
                                subdir / "finetuned.npz"))]
        for name, suffix, checkpoints in stages:
            code = _run(sub, force, name, suffix, checkpoints)
            if code:
                print(f"ablate {param} {value:g}: {name} failed", file=sys.stderr)
                return code
        rows.append({param: value, **json.loads(
            (subdir / "report_final.json").read_text())})
    out = workdir / f"ablation_{param}.json"
    _write(out, json.dumps(rows, indent=2) + "\n")
    flat = workdir / f"ablation_{param}.tsv"
    with atomic_open(flat) as f:
        f.write(f"{param}\tscr_before\tscr_after\tpscr_before\tpscr_after"
                "\tfde_before\tfde_after\n")
        for row in rows:
            f.write("\t".join([f"{row[param]:g}"] + [
                f"{row[when][key]:.6f}" for key in ("scr", "pscr", "min_joint_fde")
                for when in ("before", "after")]) + "\n")
    _write_manifest(workdir, f"ablate_{param}", cfg, [], [out, flat], started)
    return EXIT_OK


def _tag(tag: str) -> str:
    """tag, if it is a plain file-name part; else ConfigError naming it."""
    if not re.fullmatch(r"[\w.-]+", tag):
        raise ConfigError(f"--tag {tag!r}: use only letters, digits, "
                          "'.', '_' and '-'")
    return tag


def cmd_report(cfg: RunConfig, tag: str) -> int:
    path = _require(Path(cfg.workdir) / f"report_{_tag(tag)}.json")
    with _reading(path):
        text = path.read_text()
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointpref",
        description="Preference-optimization pipeline for multi-agent "
                    "trajectory prediction")
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--set", nargs=2, action="append",
                        metavar=("KEY", "VALUE"),
                        help="override a config field (repeatable)")
    parser.add_argument("--force", action="store_true",
                        help="rebuild artifacts that already exist")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", help="generate synthetic train/val scenes")
    sub.add_parser("pretrain", help="winner-takes-all pretraining")
    sub.add_parser("extract", help="extract the preference subset")
    ft = sub.add_parser("finetune", help="preference fine-tuning")
    ft.add_argument("--objective", choices=("simpo", "direct-cost"),
                    default="simpo")
    ev = sub.add_parser("eval", help="evaluate a checkpoint on the val split")
    ev.add_argument("--checkpoint")
    ev.add_argument("--before")
    ev.add_argument("--after")
    ev.add_argument("--tag", default="eval")
    ab = sub.add_parser("ablate", help="sweep gamma, lam or k")
    ab.add_argument("param", choices=SWEEPABLE)
    ab.add_argument("values", nargs="+", type=float)
    rp = sub.add_parser("report", help="print a stored report")
    rp.add_argument("--tag", default="eval")
    return parser


COMMANDS = {
    "gen": lambda cfg, args: _run(cfg, args.force, "gen"),
    "pretrain": lambda cfg, args: _run(cfg, args.force, "pretrain"),
    "extract": lambda cfg, args: _run(cfg, args.force, "extract"),
    "finetune": lambda cfg, args: _run(
        cfg, args.force, "finetune", "" if args.objective == "simpo"
        else "_direct", objective=args.objective),
    "eval": lambda cfg, args: _run(cfg, args.force, "eval",
                                   f"_{_tag(args.tag)}",
                                   _eval_checkpoints(cfg, args)),
    "ablate": lambda cfg, args: cmd_ablate(cfg, args.force, args.param,
                                           args.values),
    "report": lambda cfg, args: cmd_report(cfg, args.tag),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](load_config(args), args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifact as e:
        print(f"missing artifact: {e}", file=sys.stderr)
        return EXIT_MISSING
    except UnreadableArtifact as e:
        print(f"unreadable artifact: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""Pipeline CLI: gen, pretrain, extract, finetune, eval, ablate, report.

Every command writes its artifact plus a manifest (merged config, seed,
content hashes of inputs, wall time). Exit codes: 0 success, 2 config
error, 3 missing upstream artifact, 4 validation failure or unreadable
input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path

from . import eval_metrics, scenegen, toy_predictor
from .collision_geometry import RepellerParams
from .mode_aggregation import aggregate_to_joint
from .po_losses import SimPOConfig
from .preference_ranking import (
    ExtractionConfig,
    ExtractionSummary,
    extract_preference_subset,
    preference_cost,
)
from .scene_model import (
    MarginalPrediction,
    read_scenes,
    validate_scene,
    write_scenes,
)
from .scenegen import ScenarioSpec
from .toy_predictor import TrainConfig

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
    noise_std: float = 0.05
    t_obs: int = 10
    t_fut: int = 30
    # predictor / decoding
    k: int = 6
    top_n: int = 6
    hidden: int = 64
    # preference metric / extraction
    lam: float = 1e3
    # extraction threshold co-tuned with the default scene mixture so the
    # subset stays a minority of the training set; harder crossing-heavy
    # mixtures pair naturally with smaller deltas (2.5 or 1.0)
    delta: float = 10.0
    repeller_r: float = 1.0
    repeller_eps: float = 1e-6
    collision_threshold: float = 1.0
    # optimization
    beta: float = 2.0
    gamma: float = 5.0
    # optimizer settings sized to this small network; rates tuned for
    # production-scale predictors (around 1e-5) are inert here
    pretrain_lr: float = 0.1
    pretrain_momentum: float = 0.9
    pretrain_epochs: int = 40
    finetune_lr: float = 2.5e-3
    finetune_epochs: int = 5
    batch_size: int = 16
    momentum: float = 0.0

    def validate(self):
        if self.k < self.top_n:
            raise ConfigError(f"K ({self.k}) must be >= top_n ({self.top_n})")
        for name in ("n_train", "t_fut", "top_n", "hidden", "pretrain_lr",
                     "finetune_lr", "pretrain_epochs", "finetune_epochs",
                     "batch_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.t_obs < 2:
            raise ConfigError("t_obs must be >= 2 (velocities need two steps)")
        for name in WEIGHTS:   # 0 leaves a kind out
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        try:   # the parameter dataclasses check their own fields
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
        return [(ScenarioSpec(kind=kind, num_agents=self.num_agents,
                              noise_std=self.noise_std), w)
                for kind, w in kinds if w > 0]

    def repeller(self) -> RepellerParams:
        return RepellerParams(r=self.repeller_r, epsilon=self.repeller_eps)

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


def _parse_json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{source} is not valid JSON: {e}") from e


def load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        data = _parse_json(path.read_text(), str(path))
        if not isinstance(data, dict):
            raise ConfigError(f"{path} must hold a JSON object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            setattr(cfg, key, _checked(key, value, getattr(cfg, key)))
    for key, value in (args.set or []):
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown config key: {key}")
        current = getattr(cfg, key)
        if not isinstance(current, str):
            value = _parse_json(value, f"--set {key}")
        setattr(cfg, key, _checked(key, value, current))
    cfg.validate()
    return cfg


def _hash_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(workdir: Path, step: str, cfg: RunConfig,
                    inputs: list[Path], started: float) -> None:
    cfg_json = json.dumps(dataclasses.asdict(cfg), sort_keys=True)
    manifest = {
        "step": step,
        "config": json.loads(cfg_json),
        "config_hash": hashlib.sha256(cfg_json.encode()).hexdigest(),
        "seed": cfg.seed,
        "input_hashes": {p.name: _hash_file(p) for p in inputs if p.exists()},
        "wall_time_s": round(time.time() - started, 3),
    }
    (workdir / f"{step}_manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n")


def _require(path: Path, step: str) -> Path:
    if not path.exists():
        raise MissingArtifact(f"missing {path.name}; run '{step}' first")
    return path


def _match(source: str, found: dict, cfg: RunConfig, fields) -> None:
    """ConfigError naming the first field where an artifact and cfg differ."""
    for name in fields:
        if found.get(name) != getattr(cfg, name):
            raise ConfigError(f"{name}: {source} has {found.get(name)!r}, "
                              f"the config has {getattr(cfg, name)!r}")


def _read_split(cfg: RunConfig, path: Path):
    try:
        scenes, header = read_scenes(path)
    except (OSError, ValueError) as e:
        raise UnreadableArtifact(f"{path}: {e}") from e
    _match(path.name, header, cfg, ("t_obs", "t_fut"))
    return scenes


def _load_params(cfg: RunConfig, path: Path) -> dict:
    try:
        params = toy_predictor.load_checkpoint(path)
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as e:
        raise UnreadableArtifact(f"{path}: {e}") from e
    _match(path.name, params["_meta"], cfg, ("t_obs", "t_fut", "k", "hidden"))
    return params


def _skip(path: Path, force: bool) -> bool:
    if path.exists() and not force:
        print(f"{path} exists; skipping (use --force to rebuild)")
        return True
    return False


def cmd_gen(cfg: RunConfig, force: bool) -> int:
    workdir = Path(cfg.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    train_path = workdir / "train.jsonl"
    val_path = workdir / "val.jsonl"
    if _skip(train_path, force):
        return EXIT_OK
    started = time.time()
    n_total = cfg.n_train + cfg.n_val
    try:
        scenes, manifest = scenegen.generate_dataset(
            cfg.mixture(), n_total, cfg.seed, t_obs=cfg.t_obs, t_fut=cfg.t_fut)
    except ValueError as e:
        print(f"scene generation failed: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    for scene in scenes:
        result = validate_scene(scene)
        if not result.ok:
            print(f"generated scene {scene.scene_id} invalid: {result.violations}",
                  file=sys.stderr)
            return EXIT_VALIDATION
    train, val = scenes[:cfg.n_train], scenes[cfg.n_train:]
    write_scenes(train_path, train, cfg.t_obs, cfg.t_fut)
    write_scenes(val_path, val, cfg.t_obs, cfg.t_fut)
    if not val:
        print("warning: empty validation split", file=sys.stderr)
    (workdir / "gen_summary.json").write_text(json.dumps(manifest, indent=2) + "\n")
    _write_manifest(workdir, "gen", cfg, [], started)
    print(f"wrote {len(train)} train / {len(val)} val scenes to {workdir}")
    return EXIT_OK


def cmd_pretrain(cfg: RunConfig, force: bool) -> int:
    workdir = Path(cfg.workdir)
    out = workdir / "pretrained.npz"
    if _skip(out, force):
        return EXIT_OK
    started = time.time()
    train_path = _require(workdir / "train.jsonl", "gen")
    scenes = _read_split(cfg, train_path)
    params = toy_predictor.init_params(cfg.t_obs, cfg.t_fut, cfg.k, cfg.seed,
                                       hidden=cfg.hidden)
    tc = TrainConfig(learning_rate=cfg.pretrain_lr, epochs=cfg.pretrain_epochs,
                     batch_size=cfg.batch_size, objective="pretrain",
                     momentum=cfg.pretrain_momentum, rng_seed=cfg.seed)
    history = toy_predictor.train(
        params, scenes, tc,
        log_fn=lambda ep, h: print(f"pretrain epoch {ep}: "
                                   f"loss {h['epoch_loss'][-1]:.4f}"))
    toy_predictor.save_checkpoint(out, params)
    (workdir / "pretrain_history.json").write_text(json.dumps(history) + "\n")
    _write_manifest(workdir, "pretrain", cfg, [train_path], started)
    return EXIT_OK


def _predict_joints(params, split, batch_size: int):
    """Yield (block, joint mode stack) for each batch_size chunk of a split;
    one forward per chunk keeps memory flat in the split size."""
    for start in range(0, len(split.ids), batch_size):
        block = toy_predictor.SceneBlock(
            *(x[start:start + batch_size] for x in split))
        trajs, logits = toy_predictor.forward(params, block)
        yield block, aggregate_to_joint(MarginalPrediction(trajs, logits))


def cmd_extract(cfg: RunConfig, force: bool) -> int:
    workdir = Path(cfg.workdir)
    out = workdir / "subset.txt"
    if _skip(out, force):
        return EXIT_OK
    started = time.time()
    train_path = _require(workdir / "train.jsonl", "gen")
    ckpt = _require(workdir / "pretrained.npz", "pretrain")
    split = toy_predictor.scene_block(_read_split(cfg, train_path),
                                      cfg.t_obs, cfg.t_fut)
    params = _load_params(cfg, ckpt)
    econfig = ExtractionConfig(delta=cfg.delta,
                               collision_threshold=cfg.collision_threshold)
    kept, summary = [], ExtractionSummary(0, 0, 0, 0)
    for block, joints in _predict_joints(params, split, cfg.batch_size):
        records = preference_cost(joints, block.futures, lam=cfg.lam,
                                  repeller_params=cfg.repeller())
        chunk_kept, chunk_summary = extract_preference_subset(
            block.ids, joints, records, econfig)
        kept += chunk_kept
        summary += chunk_summary
    out.write_text("".join(sid + "\n" for sid in kept))
    (workdir / "extract_summary.json").write_text(json.dumps({
        "total": summary.total, "extracted": summary.extracted,
        "fraction": summary.fraction,
        "collision_branch_count": summary.collision_branch_count,
        "spread_branch_count": summary.spread_branch_count,
    }, indent=2) + "\n")
    _write_manifest(workdir, "extract", cfg, [train_path, ckpt], started)
    print(f"extracted {summary.extracted}/{summary.total} scenes "
          f"({summary.fraction:.1%})")
    return EXIT_OK


def cmd_finetune(cfg: RunConfig, force: bool, objective: str = "simpo") -> int:
    workdir = Path(cfg.workdir)
    suffix = "" if objective == "simpo" else "_direct"
    out = workdir / f"finetuned{suffix}.npz"
    if _skip(out, force):
        return EXIT_OK
    started = time.time()
    train_path = _require(workdir / "train.jsonl", "gen")
    ckpt = _require(workdir / "pretrained.npz", "pretrain")
    subset_path = _require(workdir / "subset.txt", "extract")
    scenes = _read_split(cfg, train_path)
    kept = set(subset_path.read_text().split())
    subset = [s for s in scenes if s.scene_id in kept]
    if not subset:
        raise MissingArtifact("preference subset is empty")
    params = _load_params(cfg, ckpt)
    tc = TrainConfig(learning_rate=cfg.finetune_lr, epochs=cfg.finetune_epochs,
                     batch_size=cfg.batch_size, objective=objective,
                     simpo=cfg.simpo(), lam=cfg.lam, momentum=cfg.momentum,
                     rng_seed=cfg.seed)
    history = toy_predictor.train(
        params, subset, tc, repeller=cfg.repeller(),
        log_fn=lambda ep, h: print(
            f"finetune[{objective}] epoch {ep}: loss {h['epoch_loss'][-1]:.4f}"
            + (f" reward_gap {h['epoch_reward_gap'][-1]:.3f}"
               if h["epoch_reward_gap"] else "")))
    toy_predictor.save_checkpoint(out, params)
    (workdir / f"finetune{suffix}_history.json").write_text(
        json.dumps(history) + "\n")
    _write_manifest(workdir, f"finetune{suffix}", cfg,
                    [train_path, ckpt, subset_path], started)
    return EXIT_OK


def _eval_checkpoint(cfg: RunConfig, split, ckpt: Path):
    params = _load_params(cfg, ckpt)
    joints = (joint for _, joint in _predict_joints(params, split,
                                                    cfg.batch_size))
    return eval_metrics.evaluate_dataset(
        split.ids, split.futures, joints, top_n=cfg.top_n,
        threshold=cfg.collision_threshold)


def cmd_eval(cfg: RunConfig, force: bool, before: str | None,
             after: str | None, checkpoint: str | None, tag: str) -> int:
    if (before is None) != (after is None):
        raise ConfigError("eval needs --before and --after together")
    if checkpoint is not None and before is not None:
        raise ConfigError("eval takes --checkpoint or --before/--after, "
                          "not both")
    workdir = Path(cfg.workdir)
    out = workdir / f"report_{tag}.json"
    started = time.time()
    val_path = _require(workdir / "val.jsonl", "gen")
    split = toy_predictor.scene_block(_read_split(cfg, val_path),
                                      cfg.t_obs, cfg.t_fut)
    inputs = [val_path]
    if before is not None:
        rb, _ = _eval_checkpoint(cfg, split, _require(Path(before), "pretrain"))
        ra, _ = _eval_checkpoint(cfg, split, _require(Path(after), "finetune"))
        payload = {"before": rb.to_dict(), "after": ra.to_dict(),
                   "comparison": eval_metrics.comparison_report(rb, ra)}
        inputs += [Path(before), Path(after)]
        for name, row in payload["comparison"].items():
            print(f"{name:14s} {row['before']:.6f} -> {row['after']:.6f} "
                  f"({row['relative_change_percent']:+.1f}%)")
    else:
        ckpt = Path(checkpoint) if checkpoint else workdir / "pretrained.npz"
        report, rows = _eval_checkpoint(cfg, split, _require(ckpt, "pretrain"))
        payload = {"report": report.to_dict(),
                   "per_scene": [dataclasses.asdict(r) for r in rows]}
        inputs.append(ckpt)
        print("\n".join(report.display_lines()))
    out.write_text(json.dumps(payload, indent=2) + "\n")
    _write_manifest(workdir, f"eval_{tag}", cfg, inputs, started)
    return EXIT_OK


SWEEPABLE = ("gamma", "lam", "k")


def cmd_ablate(cfg: RunConfig, force: bool, param: str, values: list[float]) -> int:
    if param not in SWEEPABLE:
        raise ConfigError(f"cannot sweep {param!r}; choose from {SWEEPABLE}")
    if not values:
        raise ConfigError("empty sweep value list")
    workdir = Path(cfg.workdir)
    started = time.time()
    subs = []
    for value in values:   # every value is checked before any stage runs
        sub = dataclasses.replace(cfg, workdir=str(
            workdir / f"ablate_{param}_{value:g}"))
        try:
            setattr(sub, param, _checked(param, value, getattr(cfg, param)))
            sub.validate()
        except ConfigError as e:
            raise ConfigError(f"ablate {param} {value:g}: {e}") from e
        subs.append(sub)
    rows = []
    for value, sub in zip(values, subs):
        Path(sub.workdir).mkdir(parents=True, exist_ok=True)
        # share generated data; gamma/lam sweeps also share the parent's
        # pretrained checkpoint (K changes the head count, so K re-pretrains)
        share = ["train.jsonl", "val.jsonl"]
        if param != "k":
            share.append("pretrained.npz")
        if param == "gamma":
            share.append("subset.txt")  # extraction is gamma-independent
        for name in share:
            src, dst = workdir / name, Path(sub.workdir) / name
            if name.endswith(".jsonl"):
                _require(src, "gen")
            if src.exists() and not dst.exists():
                dst.write_bytes(src.read_bytes())
        for step in (cmd_pretrain, cmd_extract, cmd_finetune):
            code = step(sub, force)
            if code != EXIT_OK:
                return code
        split = toy_predictor.scene_block(
            _read_split(sub, Path(sub.workdir) / "val.jsonl"),
            sub.t_obs, sub.t_fut)
        rb, _ = _eval_checkpoint(sub, split, Path(sub.workdir) / "pretrained.npz")
        ra, _ = _eval_checkpoint(sub, split, Path(sub.workdir) / "finetuned.npz")
        rows.append({param: value, "before": rb.to_dict(), "after": ra.to_dict(),
                     "comparison": eval_metrics.comparison_report(rb, ra)})
        print(f"{param}={value:g}: SCR {rb.scr:.4f}->{ra.scr:.4f} "
              f"pSCR {rb.pscr:.4f}->{ra.pscr:.4f}")
    out = workdir / f"ablation_{param}.json"
    out.write_text(json.dumps(rows, indent=2) + "\n")
    flat = workdir / f"ablation_{param}.tsv"
    with open(flat, "w") as f:
        f.write(f"{param}\tscr_before\tscr_after\tpscr_before\tpscr_after"
                "\tfde_before\tfde_after\n")
        for row in rows:
            f.write(f"{row[param]:g}\t{row['before']['scr']:.6f}"
                    f"\t{row['after']['scr']:.6f}\t{row['before']['pscr']:.6f}"
                    f"\t{row['after']['pscr']:.6f}"
                    f"\t{row['before']['min_joint_fde']:.6f}"
                    f"\t{row['after']['min_joint_fde']:.6f}\n")
    _write_manifest(workdir, f"ablate_{param}", cfg, [], started)
    return EXIT_OK


def cmd_report(cfg: RunConfig, tag: str) -> int:
    path = Path(cfg.workdir) / f"report_{tag}.json"
    _require(path, "eval")
    print(path.read_text())
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "gen":
            return cmd_gen(cfg, args.force)
        if args.command == "pretrain":
            return cmd_pretrain(cfg, args.force)
        if args.command == "extract":
            return cmd_extract(cfg, args.force)
        if args.command == "finetune":
            return cmd_finetune(cfg, args.force, args.objective)
        if args.command == "eval":
            return cmd_eval(cfg, args.force, args.before, args.after,
                            args.checkpoint, args.tag)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.force, args.param, args.values)
        if args.command == "report":
            return cmd_report(cfg, args.tag)
        raise ConfigError(f"unknown command {args.command!r}")
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

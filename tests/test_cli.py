import dataclasses
import hashlib
import io
import json
import os
import platform
import shutil
import warnings

import numpy as np
import pytest

from jointpref import cli, scene_model, scenegen, toy_predictor
from jointpref.cli import (
    EXIT_CONFIG,
    EXIT_MISSING,
    EXIT_OK,
    EXIT_VALIDATION,
    STAGES,
    RunConfig,
    main,
)

FAST = [
    ("n_train", "40"), ("n_val", "10"),
    ("pretrain_epochs", "2"), ("finetune_epochs", "1"),
    ("hidden", "8"), ("k", "3"), ("top_n", "3"),
    ("delta", "1.0"),
]


def run(tmp_path, command, *extra, sets=(), force=False):
    argv = []
    for key, value in list(FAST) + [("workdir", str(tmp_path))] + list(sets):
        argv += ["--set", key, value]
    argv += ["--force", command] if force else [command]
    argv += list(extra)
    return main(argv)


class TestConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        cfg.validate()
        assert cfg.k >= cfg.top_n
        assert cfg.beta == 2.0 and cfg.gamma == 5.0
        assert cfg.lam == 1e3 and cfg.delta == 10.0

    def test_unknown_set_key_is_config_error(self, tmp_path, capsys):
        # a RunConfig method or dunder attribute is not a field either, nor
        # is a setting that is now a library constant
        for key, value in [("nonsense", "1"), ("validate", "1"),
                           ("__doc__", '"x"'), ("noise_std", "0.1"),
                           ("repeller_eps", "1e-3"),
                           ("collision_threshold", "0"),
                           ("pretrain_momentum", "-0.5"),
                           ("pretrain_momentum", "1")]:
            assert run(tmp_path, "gen", sets=[(key, value)]) == EXIT_CONFIG
            assert f"config error: unknown config key: {key}" in \
                capsys.readouterr().err
        assert not (tmp_path / "train.jsonl").exists()

    def test_unknown_config_file_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        for data in ({"bogus": 1}, {"collision_threshold": 1.0}):
            path.write_text(json.dumps(data))
            assert main(["--config", str(path), "gen"]) == EXIT_CONFIG
            assert f"unknown config keys: {list(data)}" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("make,named", [
        (lambda path: path.mkdir(), "cannot read {path}: Is a directory"),
        (lambda path: path.write_bytes(b'{"k": "\x80"}'),
         "{path} is not valid JSON: 'utf-8' codec can't decode"),
    ], ids=["directory", "not-utf8"])
    def test_unreadable_config_file(self, tmp_path, capsys, make, named):
        path = tmp_path / "cfg.json"
        make(path)
        assert main(["--config", str(path), "gen"]) == EXIT_CONFIG
        assert f"config error: {named.format(path=path)}" in \
            capsys.readouterr().err

    def test_missing_config_file(self):
        assert main(["--config", "/nonexistent.json", "gen"]) == EXIT_CONFIG

    def test_k_less_than_top_n_rejected(self, tmp_path):
        assert run(tmp_path, "gen", sets=[("k", "2")]) == EXIT_CONFIG

    @pytest.mark.parametrize("sets", [
        [("k", "6.7")],                   # int field: no silent truncation
        [("k", "abc")],                   # not JSON
        [("seed", "NaN")],                # not finite
        [("pretrain_lr", "-1")],          # checked before any stage runs
        [("finetune_epochs", "0")],
        [("batch_size", "0")],
        [("t_obs", "1")],                 # velocities need two steps
        [("t_fut", "0")],
        [("top_n", "0")],
        [("crossing_weight", "0"), ("merge_weight", "0"),
         ("follow_weight", "0"), ("parallel_weight", "0")],
        [("num_agents", "7")],            # the parameter dataclasses' checks
        [("crossing_weight", "-1")],      # 0 leaves a kind out; below is wrong
        [("beta", "0")],
        [("delta", "-1")],                # the extraction config's checks
        [("lam", "-1")],                  # would reward proximity
        [("collision_threshold", "0")],   # a constant now: unknown key
        [("n_val", "-3")],
        [("pretrain_momentum", "-0.5")],  # a constant now: unknown key
        [("pretrain_momentum", "1")],
    ], ids=lambda sets: "-".join(f"{k}={v}" for k, v in sets)[:40])
    def test_bad_value_is_config_error(self, tmp_path, capsys, sets):
        assert run(tmp_path, "gen", sets=sets) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "train.jsonl").exists()

    @pytest.mark.parametrize("data", [{"k": "12"}, {"k": 6.5}, {"lam": "1e3"},
                                      {"seed": True}, {"workdir": 3}, None])
    def test_config_file_values_type_checked(self, tmp_path, data):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["--config", str(path), "gen"]) == EXIT_CONFIG

    def test_integral_float_accepted_for_int_field(self, tmp_path):
        assert run(tmp_path, "gen", sets=[("n_train", "4.0"),
                                          ("n_val", "1")]) == EXIT_OK
        manifest = json.loads((tmp_path / "gen_manifest.json").read_text())
        assert manifest["config"]["n_train"] == 4

    def test_config_file_applies(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"workdir": str(tmp_path / "w"),
                                    "n_train": 5, "n_val": 2}))
        assert main(["--config", str(path), "gen"]) == EXIT_OK
        assert (tmp_path / "w" / "train.jsonl").exists()


class TestPipeline:
    def test_missing_upstream_artifacts(self, tmp_path):
        assert run(tmp_path, "pretrain") == EXIT_MISSING
        assert run(tmp_path, "extract") == EXIT_MISSING
        assert run(tmp_path, "finetune") == EXIT_MISSING
        assert run(tmp_path, "eval") == EXIT_MISSING
        assert run(tmp_path, "report") == EXIT_MISSING

    @pytest.mark.parametrize("command,named", [
        ("pretrain", "train.jsonl; run 'gen'"),
        ("extract", "train.jsonl; run 'gen'"),
        ("finetune", "train.jsonl; run 'gen'"),
        ("eval", "val.jsonl; run 'gen'"),
        ("report", "report_eval.json; run 'eval'")])
    def test_missing_input_names_its_maker(self, tmp_path, capsys, command,
                                           named):
        assert run(tmp_path, command) == EXIT_MISSING
        assert f"missing artifact: missing {named} first" in \
            capsys.readouterr().err

    def test_missing_subset_names_extract(self, pretrained, tmp_path, capsys):
        workdir = copy_run(pretrained, tmp_path)
        assert run(workdir, "finetune") == EXIT_MISSING
        assert "missing subset.txt; run 'extract' first" in \
            capsys.readouterr().err

    def test_full_pipeline(self, tmp_path, capsys):
        assert run(tmp_path, "gen") == EXIT_OK
        assert (tmp_path / "train.jsonl").exists()
        assert (tmp_path / "val.jsonl").exists()
        assert (tmp_path / "gen_manifest.json").exists()

        assert run(tmp_path, "pretrain") == EXIT_OK
        assert (tmp_path / "pretrained.npz").exists()

        assert run(tmp_path, "extract") == EXIT_OK
        subset = (tmp_path / "subset.txt").read_text().split()
        summary = json.loads((tmp_path / "extract_summary.json").read_text())
        assert summary["extracted"] == len(subset)
        assert 0 <= summary["fraction"] <= 1

        assert run(tmp_path, "finetune") == EXIT_OK
        assert (tmp_path / "finetuned.npz").exists()

        assert run(tmp_path, "eval",
                   "--before", str(tmp_path / "pretrained.npz"),
                   "--after", str(tmp_path / "finetuned.npz"),
                   "--tag", "final") == EXIT_OK
        payload = json.loads((tmp_path / "report_final.json").read_text())
        assert set(payload) == {"before", "after", "comparison"}
        assert "scr" in payload["comparison"]

        assert run(tmp_path, "report", "--tag", "final") == EXIT_OK
        out = capsys.readouterr().out
        assert "comparison" in out

    def test_idempotent_without_force(self, tmp_path, capsys):
        assert run(tmp_path, "gen") == EXIT_OK
        before = (tmp_path / "train.jsonl").read_bytes()
        assert run(tmp_path, "gen") == EXIT_OK
        assert "skipping" in capsys.readouterr().out
        assert (tmp_path / "train.jsonl").read_bytes() == before

    def test_force_rebuilds(self, tmp_path):
        assert run(tmp_path, "gen") == EXIT_OK
        (tmp_path / "train.jsonl").write_text("")
        argv = []
        for key, value in list(FAST) + [("workdir", str(tmp_path))]:
            argv += ["--set", key, value]
        assert main(argv + ["--force", "gen"]) == EXIT_OK
        assert (tmp_path / "train.jsonl").stat().st_size > 0

    def test_manifest_contents(self, tmp_path):
        assert run(tmp_path, "gen") == EXIT_OK
        assert run(tmp_path, "pretrain") == EXIT_OK
        manifest = json.loads((tmp_path / "pretrain_manifest.json").read_text())
        assert manifest["step"] == "pretrain"
        assert "train.jsonl" in manifest["input_hashes"]
        assert len(manifest["input_hashes"]["train.jsonl"]) == 64
        assert manifest["wall_time_s"] >= 0
        assert manifest["peak_rss_mb"] > 0
        assert manifest["config_hash"]
        assert manifest["config"]["n_train"] == 40
        env = manifest["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            assert env[var] == os.environ.get(var)

    def test_single_checkpoint_eval(self, tmp_path):
        assert run(tmp_path, "gen") == EXIT_OK
        assert run(tmp_path, "pretrain") == EXIT_OK
        assert run(tmp_path, "eval", "--tag", "base") == EXIT_OK
        payload = json.loads((tmp_path / "report_base.json").read_text())
        assert "report" in payload
        assert payload["report"]["n_scenes"] == 10
        assert len(payload["per_scene"]) == 10

    def test_zero_before_metric_is_null_and_n_a(self, tmp_path, capsys):
        # parallel scenes never collide, so SCR and pSCR are 0 before
        sets = [("crossing_weight", "0"), ("merge_weight", "0"),
                ("follow_weight", "0"), ("parallel_weight", "1"),
                ("delta", "0")]
        for stage in ("gen", "pretrain", "extract", "finetune"):
            assert run(tmp_path, stage, sets=sets) == EXIT_OK
        assert run(tmp_path, "eval",
                   "--before", str(tmp_path / "pretrained.npz"),
                   "--after", str(tmp_path / "finetuned.npz"),
                   "--tag", "final", sets=sets) == EXIT_OK
        text = (tmp_path / "report_final.json").read_text()
        comparison = json.loads(text, parse_constant=pytest.fail)["comparison"]
        assert comparison["scr"]["before"] == 0.0
        assert comparison["scr"]["relative_change_percent"] is None
        out = capsys.readouterr().out
        assert "0.000000 -> 0.000000 (n/a)" in out and "nan" not in out

    def test_epoch_lines_pinned(self, tmp_path, capsys):
        # one line per epoch; finetune[simpo]'s also gives the reward gap
        two = [("finetune_epochs", "2")]
        assert run(tmp_path, "gen") == EXIT_OK
        assert run(tmp_path, "pretrain") == EXIT_OK
        assert run(tmp_path, "extract") == EXIT_OK
        capsys.readouterr()
        assert run(tmp_path, "pretrain", force=True) == EXIT_OK
        assert capsys.readouterr().out == (
            "pretrain epoch 0: loss 7.3814\n"
            "pretrain epoch 1: loss 7.4630\n")
        assert run(tmp_path, "finetune", sets=two) == EXIT_OK
        assert capsys.readouterr().out == (
            "finetune[simpo] epoch 0: loss 15.1730 reward_gap -0.139\n"
            "finetune[simpo] epoch 1: loss 15.1640 reward_gap -0.134\n")
        assert run(tmp_path, "finetune", "--objective", "direct-cost",
                   sets=two) == EXIT_OK
        assert capsys.readouterr().out == (
            "finetune[direct-cost] epoch 0: loss 348.3381\n"
            "finetune[direct-cost] epoch 1: loss 321.3031\n")

    def test_extract_outputs_pinned(self, pretrained, tmp_path):
        workdir = copy_run(pretrained, tmp_path)
        assert run(workdir, "extract") == EXIT_OK
        assert (workdir / "extract_summary.json").read_text() == (
            '{\n  "total": 40,\n  "extracted": 6,\n  "fraction": 0.15,\n'
            '  "collision_branch_count": 6,\n  "spread_branch_count": 6\n}\n')
        assert hashlib.sha256((workdir / "subset.txt").read_bytes()).hexdigest() \
            == "cd6af39a23a936535eb028524282059ba30b2c235af1e0b080e705ae5f12cda6"

    def test_direct_cost_objective_writes_separate_artifact(self, tmp_path):
        assert run(tmp_path, "gen") == EXIT_OK
        assert run(tmp_path, "pretrain") == EXIT_OK
        assert run(tmp_path, "extract") == EXIT_OK
        assert run(tmp_path, "finetune", "--objective", "direct-cost") == EXIT_OK
        assert (tmp_path / "finetuned_direct.npz").exists()
        assert not (tmp_path / "finetuned.npz").exists()

    def test_generator_failure_names_scene(self, tmp_path, capsys):
        # 3-agent crossing scene 2 of seed 0 has no collision-free ground truth
        sets = [("seed", "0"), ("num_agents", "3"), ("n_train", "8"),
                ("n_val", "2"), ("crossing_weight", "1"), ("merge_weight", "0"),
                ("follow_weight", "0"), ("parallel_weight", "0")]
        assert run(tmp_path, "gen", sets=sets) == EXIT_VALIDATION
        assert "crossing scene 2" in capsys.readouterr().err
        assert not (tmp_path / "train.jsonl").exists()

    def test_gen_deterministic_across_runs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(d1, "gen") == EXIT_OK
        assert run(d2, "gen") == EXIT_OK
        assert (d1 / "train.jsonl").read_bytes() == (d2 / "train.jsonl").read_bytes()
        assert (d1 / "val.jsonl").read_bytes() == (d2 / "val.jsonl").read_bytes()


class TestStale:
    """An existing output is reused only while its stage's manifest records
    the same declared fields, inputs and outputs; otherwise exit 2."""

    def test_extract_at_other_delta(self, pretrained, tmp_path, capsys):
        workdir = copy_run(pretrained, tmp_path)
        assert run(workdir, "extract", sets=[("delta", "2.5")]) == EXIT_OK
        subset = (workdir / "subset.txt").read_bytes()
        assert run(workdir, "extract", sets=[("delta", "1000")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "subset.txt is stale: delta: extract_manifest.json has 2.5" in err
        assert (workdir / "subset.txt").read_bytes() == subset

    def test_gen_at_other_size(self, tmp_path, capsys):
        assert run(tmp_path, "gen") == EXIT_OK
        assert run(tmp_path, "gen", sets=[("n_train", "20")]) == EXIT_CONFIG
        assert "n_train: gen_manifest.json has 40" in capsys.readouterr().err
        assert len((tmp_path / "train.jsonl").read_text().splitlines()) == 41

    def test_truncated_output(self, pretrained, tmp_path, capsys):
        workdir = copy_run(pretrained, tmp_path)
        ckpt = workdir / "pretrained.npz"
        ckpt.write_bytes(ckpt.read_bytes()[:100])
        assert run(workdir, "pretrain") == EXIT_CONFIG
        assert ("pretrained.npz is not the file pretrain_manifest.json records"
                in capsys.readouterr().err)
        assert run(workdir, "pretrain", force=True) == EXIT_OK
        assert ckpt.read_bytes() == (pretrained / "pretrained.npz").read_bytes()

    def test_changed_input(self, pretrained, tmp_path, capsys):
        workdir = copy_run(pretrained, tmp_path)
        assert run(workdir, "extract") == EXIT_OK
        assert run(workdir, "pretrain", sets=[("pretrain_epochs", "1")],
                   force=True) == EXIT_OK
        assert run(workdir, "extract") == EXIT_CONFIG
        assert ("pretrained.npz is not the file extract_manifest.json records"
                in capsys.readouterr().err)

    def test_interrupted_stage_leaves_no_partial_output(self, tmp_path,
                                                        monkeypatch,
                                                        fail_on_call):
        # gen dies while writing val.jsonl, after train.jsonl went out
        # whole: the 45th record is the 5th of 10 val scenes
        fail_on_call(scene_model, "_scene_to_record", 45, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run(tmp_path, "gen")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.jsonl"]
        monkeypatch.undo()
        assert run(tmp_path, "gen") == EXIT_CONFIG   # no gen_manifest.json
        assert run(tmp_path, "gen", force=True) == EXIT_OK
        assert len((tmp_path / "val.jsonl").read_text().splitlines()) == 11

    @pytest.mark.parametrize("edit,named", [
        (lambda path: path.unlink(), "is missing"),
        (lambda path: path.write_text("[]"), "does not record"),
        (lambda path: path.write_text(json.dumps(   # an older manifest
            {key: value for key, value in json.loads(path.read_text()).items()
             if key != "output_hashes"})), "does not record"),
        (lambda path: path.write_bytes(b"\x80" + path.read_bytes()),
         "is not valid JSON"),
    ], ids=["missing", "not-an-object", "no-output-hashes", "not-utf8"])
    def test_unusable_manifest(self, pretrained, tmp_path, capsys, edit, named):
        workdir = copy_run(pretrained, tmp_path)
        edit(workdir / "pretrain_manifest.json")
        assert run(workdir, "pretrain") == EXIT_CONFIG
        assert f"pretrain_manifest.json {named}" in capsys.readouterr().err
        if named != "is missing":
            # a stage reading pretrained.npz checks what its maker records
            assert run(workdir, "eval", "--tag", "x") == EXIT_CONFIG
            assert f"pretrain_manifest.json {named}" in \
                capsys.readouterr().err
            assert not (workdir / "report_x.json").exists()

    def test_rebuilt_upstream_is_stale(self, pretrained, tmp_path, capsys):
        # gen is rebuilt at another seed: the checkpoint and the subset made
        # from the old train.jsonl are stale for each stage that reads them
        workdir = copy_run(pretrained, tmp_path)
        assert run(workdir, "extract") == EXIT_OK
        seed1 = [("seed", "1")]
        assert run(workdir, "gen", sets=seed1, force=True) == EXIT_OK
        files = sorted(workdir.iterdir())
        capsys.readouterr()
        for argv in (("eval", "--tag", "x"), ("finetune",)):
            assert run(workdir, *argv, sets=seed1) == EXIT_CONFIG
            assert (f"{workdir / 'pretrained.npz'} is stale: train.jsonl is "
                    "not the file pretrain_manifest.json records; rerun "
                    "pretrain with --force to rebuild it"
                    in capsys.readouterr().err)
        assert sorted(workdir.iterdir()) == files
        assert run(workdir, "pretrain", sets=seed1, force=True) == EXIT_OK
        capsys.readouterr()
        assert run(workdir, "finetune", sets=seed1) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{workdir / 'subset.txt'} is stale: " in err
        assert "rerun extract with --force to rebuild it" in err
        assert not (workdir / "finetuned.npz").exists()

    def test_matching_rerun_skips(self, pretrained, tmp_path, capsys):
        workdir = copy_run(pretrained, tmp_path)
        for stage in ("gen", "pretrain", "extract", "finetune"):
            assert run(workdir, stage) == EXIT_OK
        capsys.readouterr()
        # batch_size is not a field of gen's outputs
        for stage in ("gen", "pretrain", "extract", "finetune"):
            assert run(workdir, stage) == EXIT_OK
        assert run(workdir, "gen", sets=[("batch_size", "7")]) == EXIT_OK
        assert capsys.readouterr().out.count("skipping") == 5
        manifest = json.loads((workdir / "extract_manifest.json").read_text())
        assert set(manifest["output_hashes"]) == {"subset.txt",
                                                  "extract_summary.json"}

    def test_eval_of_two_runs_checkpoints(self, pretrained, tmp_path, capsys):
        # both checkpoints are named pretrained.npz; each is checked
        workdir, other = copy_run(pretrained, tmp_path), tmp_path / "other"
        shutil.copytree(pretrained, other)
        assert run(other, "pretrain", sets=[("pretrain_epochs", "1")],
                   force=True) == EXIT_OK
        flags = ["--before", str(workdir / "pretrained.npz"),
                 "--after", str(other / "pretrained.npz"), "--tag", "ab"]
        assert run(workdir, "eval", *flags) == EXIT_OK
        assert run(workdir, "eval", *flags) == EXIT_OK
        assert "skipping" in capsys.readouterr().out
        flags[1] = str(other / "pretrained.npz")
        assert run(workdir, "eval", *flags) == EXIT_CONFIG
        assert "is not the file eval_ab_manifest.json records" in \
            capsys.readouterr().err


class RecordingConfig(RunConfig):
    """A RunConfig that records which of its fields are read."""

    def __getattribute__(self, name):
        if name in FIELDS:
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("argv", [
    ["gen"], ["pretrain"], ["extract"], ["finetune"],
    ["finetune", "--objective", "direct-cost"],
    ["eval", "--tag", "x"],
    ["eval", "--before", "{wd}/pretrained.npz", "--after",
     "{wd}/finetuned.npz"],
], ids=lambda argv: "-".join(a for a in argv if "/" not in a))
def test_stage_reads_only_its_declared_fields(pretrained, tmp_path,
                                              monkeypatch, argv):
    """A field a stage reads but does not declare would let a rerun with a
    different value reuse the old output."""
    workdir = copy_run(pretrained, tmp_path)
    for stage in ("extract", "finetune"):
        assert run(workdir, stage) == EXIT_OK
    load_config = cli.load_config
    recorder = []

    def recording(args):
        cfg = RecordingConfig(**dataclasses.asdict(load_config(args)))
        cfg.reads = set()
        recorder.append(cfg)
        return cfg

    monkeypatch.setattr(cli, "load_config", recording)
    monkeypatch.setattr(cli, "_write_manifest", lambda *args: None)
    argv = [a.format(wd=workdir) for a in argv]
    assert run(workdir, *argv, force=True) == EXIT_OK
    # batch_size only sets the chunks of extract's and eval's forwards,
    # whose bytes test_extract_and_eval_bytes_independent_of_chunk_size fixes
    chunked = {"batch_size"} if argv[0] in ("extract", "eval") else set()
    reads = recorder[0].reads - {"workdir"} - chunked
    assert reads == set(STAGES[argv[0]].fields)


class TestDefaultExtraction:
    @pytest.mark.slow
    def test_fraction_in_band_on_default_data(self, tmp_path):
        # full-scale run on the default configuration (several minutes):
        # the extracted preference subset must be a minority of training
        argv = ["--set", "workdir", str(tmp_path)]
        for cmd in ("gen", "pretrain", "extract"):
            assert main(argv + [cmd]) == EXIT_OK
        summary = json.loads((tmp_path / "extract_summary.json").read_text())
        assert 0.05 <= summary["fraction"] <= 0.35


class TestAblate:
    def test_lam_sweep_reruns_from_extract(self, pretrained, tmp_path):
        workdir = copy_run(pretrained, tmp_path)
        assert run(workdir, "extract") == EXIT_OK
        assert run(workdir, "ablate", "lam", "10") == EXIT_OK
        sub = workdir / "ablate_lam_10"
        for name in ("train.jsonl", "pretrained.npz", "pretrain_manifest.json"):
            assert (sub / name).read_bytes() == (workdir / name).read_bytes()
        manifest = json.loads((sub / "extract_manifest.json").read_text())
        assert manifest["config"]["lam"] == 10.0
        (row,) = json.loads((workdir / "ablation_lam.json").read_text())
        report = json.loads((sub / "report_final.json").read_text())
        assert row == {"lam": 10.0, **report}


    def test_failing_stage_stops_the_sweep(self, tmp_path, capsys):
        assert run(tmp_path, "gen") == EXIT_OK
        assert run(tmp_path, "ablate", "k", "4", "6",
                   sets=[("pretrain_lr", "1e300")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "pretrain diverged at epoch 0" in err
        assert "ablate k 4: pretrain failed" in err
        assert "missing artifact" not in err
        for name in ("ablate_k_6", "ablation_k.json", "ablation_k.tsv",
                     "ablate_k_manifest.json"):
            assert not (tmp_path / name).exists()

    def test_invalid_param_rejected(self, tmp_path):
        # argparse enforces the choices and exits with its own code
        with pytest.raises(SystemExit):
            main(["--set", "workdir", str(tmp_path), "ablate", "speed", "1"])

    def test_empty_sweep_rejected(self, tmp_path):
        # argparse needs at least one value and exits before any stage runs
        with pytest.raises(SystemExit) as e:
            main(["--set", "workdir", str(tmp_path), "ablate", "gamma"])
        assert e.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_gamma_sweep(self, tmp_path):
        assert run(tmp_path, "gen") == EXIT_OK
        assert run(tmp_path, "pretrain") == EXIT_OK
        assert run(tmp_path, "extract") == EXIT_OK
        assert run(tmp_path, "ablate", "gamma", "0", "5") == EXIT_OK
        rows = json.loads((tmp_path / "ablation_gamma.json").read_text())
        assert [r["gamma"] for r in rows] == [0.0, 5.0]
        tsv = (tmp_path / "ablation_gamma.tsv").read_text().splitlines()
        assert tsv[0].startswith("gamma\t")
        assert len(tsv) == 3
        # gamma sweeps share the parent's pretrain and subset artifacts
        sub = tmp_path / "ablate_gamma_0"
        assert (sub / "pretrained.npz").exists()
        assert (sub / "subset.txt").read_text() == \
            (tmp_path / "subset.txt").read_text()

    def test_copies_follow_the_parent_run(self, tmp_path, capsys):
        # the parent's gen, pretrain and extract are rebuilt at another
        # seed after a gamma sweep copied them: the sweep's copies follow
        for cmd in ("gen", "pretrain", "extract", "finetune"):
            assert run(tmp_path, cmd) == EXIT_OK
        assert run(tmp_path, "ablate", "gamma", "0") == EXIT_OK
        seed1 = [("seed", "1")]
        for cmd in ("gen", "pretrain", "extract"):
            assert run(tmp_path, cmd, sets=seed1, force=True) == EXIT_OK
        sub = tmp_path / "ablate_gamma_0"
        shared = ("train.jsonl", "pretrained.npz", "subset.txt")
        # without --force the copies are refreshed and the sweep's finetune
        # is reported stale against them
        capsys.readouterr()
        assert run(tmp_path, "ablate", "gamma", "0", sets=seed1) == EXIT_CONFIG
        assert "finetuned.npz is stale" in capsys.readouterr().err
        for name in (*shared, "pretrain_manifest.json",
                     "extract_manifest.json"):
            assert (sub / name).read_bytes() == (tmp_path / name).read_bytes()
        assert run(tmp_path, "ablate", "gamma", "0", sets=seed1,
                   force=True) == EXIT_OK
        for name in shared:
            assert (sub / name).read_bytes() == (tmp_path / name).read_bytes()
        manifest = json.loads((sub / "finetune_manifest.json").read_text())
        assert manifest["input_hashes"]["train.jsonl"] == \
            cli._hash_file(tmp_path / "train.jsonl")

    def test_stale_parent_stage_stops_the_sweep(self, pretrained, tmp_path,
                                                capsys):
        # the shared stages are never forced from a sweep: the parent's
        # seed-0 split is stale at seed 1 even under --force
        workdir = copy_run(pretrained, tmp_path)
        assert run(workdir, "ablate", "gamma", "0", sets=[("seed", "1")],
                   force=True) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert (f"ablate gamma: {workdir / 'train.jsonl'} is stale: seed: "
                "gen_manifest.json has 0, the config has 1; "
                "rerun gen with --force to rebuild it") in err
        assert not list(workdir.glob("ablate_*"))

    def test_force_reaches_only_the_swept_stages(self, pretrained, tmp_path,
                                                 capsys):
        workdir = copy_run(pretrained, tmp_path)
        for cmd in ("extract", "finetune"):
            assert run(workdir, cmd) == EXIT_OK
        capsys.readouterr()
        assert run(workdir, "ablate", "gamma", "0", "5", force=True) == EXIT_OK
        out = capsys.readouterr().out
        assert "pretrain epoch" not in out
        assert "extracted" not in out
        assert out.count("finetune[simpo] epoch 0:") == 2

    def test_shared_stages_run_once_in_the_parent(self, tmp_path, capsys):
        assert run(tmp_path, "gen") == EXIT_OK
        capsys.readouterr()
        assert run(tmp_path, "ablate", "gamma", "0", "5") == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("pretrain epoch 0:") == 1
        assert out.count("extracted") == 1
        for name in ("pretrained.npz", "pretrain_manifest.json", "subset.txt"):
            for value in ("0", "5"):
                assert (tmp_path / f"ablate_gamma_{value}" / name).read_bytes() \
                    == (tmp_path / name).read_bytes()


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    """A FAST run through pretrain, copied by each test that uses it."""
    workdir = tmp_path_factory.mktemp("pretrained")
    assert run(workdir, "gen") == EXIT_OK
    assert run(workdir, "pretrain") == EXIT_OK
    return workdir


def copy_run(src, tmp_path):
    dst = tmp_path / "run"
    shutil.copytree(src, dst)
    return dst


class TestMisuse:
    @pytest.mark.parametrize("values,named", [
        (["5", "3.5"], "3.5"),     # k is an int: no silent truncation to 3
        (["5", "2"], "2"),         # below top_n 3
    ])
    def test_bad_k_sweep_value(self, tmp_path, capsys, values, named):
        assert run(tmp_path, "ablate", "k", *values) == EXIT_CONFIG
        assert f"ablate k {named}" in capsys.readouterr().err
        # checked before the first value's stages ran
        assert not list(tmp_path.glob("ablate_*"))

    @pytest.mark.parametrize("values,named", [
        (["1", "1.0000001"], "values 1.0 and 1.0000001"),
        (["0", "0"], "values 0.0 and 0.0"),
    ])
    def test_sweep_values_sharing_a_directory(self, tmp_path, capsys, values,
                                              named):
        assert run(tmp_path, "ablate", "gamma", *values) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"ablate gamma: {named}" in err
        assert "ablate_gamma_" in err
        assert not list(tmp_path.glob("ablate_*"))

    def test_bad_gamma_sweep_value(self, tmp_path, capsys):
        assert run(tmp_path, "ablate", "gamma", "5", "-1") == EXIT_CONFIG
        assert "ablate gamma -1" in capsys.readouterr().err
        assert not list(tmp_path.glob("ablate_*"))

    @pytest.mark.parametrize("flags", [
        ("--after", "pretrained.npz"),
        ("--before", "pretrained.npz"),
        ("--checkpoint", "pretrained.npz", "--before", "pretrained.npz"),
        ("--checkpoint", "pretrained.npz", "--after", "pretrained.npz"),
    ], ids=lambda flags: "-".join(f for f in flags if f.startswith("--")))
    def test_eval_flags_that_would_be_ignored(self, pretrained, tmp_path,
                                              capsys, flags):
        workdir = copy_run(pretrained, tmp_path)
        argv = [str(workdir / f) if f.endswith(".npz") else f for f in flags]
        assert run(workdir, "eval", *argv, "--tag", "x") == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (workdir / "report_x.json").exists()

    @pytest.mark.parametrize("command", ["eval", "report"])
    @pytest.mark.parametrize("tag", ["a/b", "../x", "", "a b", "x\\y"])
    def test_tag_not_a_plain_name(self, pretrained, tmp_path, capsys,
                                  command, tag):
        workdir = copy_run(pretrained, tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert run(workdir, command, "--tag", tag) == EXIT_CONFIG
        assert f"--tag {tag!r}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flag", ["--checkpoint", "--before", "--after"])
    @pytest.mark.parametrize("name,stage", [
        ("finetuned_direct.npz", "finetune"), ("finetuned.npz", "finetune"),
        ("pretrained.npz", "pretrain"), ("other.npz", None)])
    def test_missing_checkpoint_names_its_stage(self, pretrained, tmp_path,
                                                capsys, flag, name, stage):
        workdir = copy_run(pretrained, tmp_path)
        argv = [flag, str(workdir / "elsewhere" / name)]
        pair = {"--before": "--after", "--after": "--before"}
        if flag in pair:   # the other checkpoint of the pair exists
            argv += [pair[flag], str(workdir / "pretrained.npz")]
        assert run(workdir, "eval", *argv, "--tag", "x") == EXIT_MISSING
        err = capsys.readouterr().err
        if stage is None:   # no stage writes it, so none is named
            assert err.strip().endswith(f"missing {name}")
        else:
            assert f"missing {name}; run '{stage}' first" in err

    @pytest.mark.parametrize("key,value", [("k", "4"), ("hidden", "16")])
    def test_checkpoint_shape_differs_from_config(self, pretrained, tmp_path,
                                                  capsys, key, value):
        workdir = copy_run(pretrained, tmp_path)
        assert run(workdir, "eval", "--tag", "x",
                   sets=[(key, value)]) == EXIT_CONFIG
        assert f"{key}: pretrained.npz has" in capsys.readouterr().err
        assert not (workdir / "report_x.json").exists()

    def test_extract_with_other_k_than_checkpoint(self, pretrained, tmp_path,
                                                  capsys):
        workdir = copy_run(pretrained, tmp_path)
        assert run(workdir, "extract", sets=[("k", "4")]) == EXIT_CONFIG
        assert "k: pretrained.npz has 3" in capsys.readouterr().err
        assert not (workdir / "subset.txt").exists()
        assert not (workdir / "extract_manifest.json").exists()

    def test_scene_file_horizon_differs_from_config(self, pretrained, tmp_path,
                                                    capsys):
        workdir = copy_run(pretrained, tmp_path)
        (workdir / "pretrained.npz").unlink()
        assert run(workdir, "pretrain", sets=[("t_obs", "8")]) == EXIT_CONFIG
        assert "t_obs: train.jsonl has 10" in capsys.readouterr().err
        assert not (workdir / "pretrained.npz").exists()

    def test_truncated_scene_file_names_it(self, pretrained, tmp_path, capsys):
        workdir = copy_run(pretrained, tmp_path)
        val = workdir / "val.jsonl"
        text = val.read_text()
        val.write_text(text[:len(text.splitlines()[0]) + 40])
        assert run(workdir, "eval", "--tag", "x") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(val) in err and "line 2" in err
        assert not (workdir / "report_x.json").exists()

    def test_invalid_generated_scene_names_it(self, tmp_path, capsys,
                                              monkeypatch):
        # a Scene checks itself as gen builds it, so no split is written
        def nan_tracks(spec, rng, t_obs, t_fut, **kind):
            return np.full((spec.num_agents, t_obs + t_fut, 2), np.nan)
        monkeypatch.setattr(scenegen, "_crossing_like", nan_tracks)
        monkeypatch.setattr(scenegen, "_lane_like", nan_tracks)
        assert run(tmp_path, "gen") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "scene generation failed" in err
        assert "-000000 has a non-finite value" in err
        assert not (tmp_path / "train.jsonl").exists()

    def test_empty_split_names_it(self, pretrained, tmp_path, capsys):
        workdir = copy_run(pretrained, tmp_path)
        assert run(workdir, "gen", sets=[("n_val", "0")], force=True) == EXIT_OK
        assert run(workdir, "eval", "--tag", "x") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(workdir / "val.jsonl") in err and "no scenes" in err
        assert not (workdir / "report_x.json").exists()

    @pytest.mark.parametrize("edit,where,named", [
        (lambda rec: rec["agents"][1]["past_positions"][4].__setitem__(
            0, float("nan")), "line 4: ", "has a non-finite value"),
        (lambda rec: rec.update(agents=rec["agents"][:1],
                                futures=rec["futures"][:1]),
         "line 4: ", "has 1 agents"),
        (lambda rec: rec.update(futures=[f[:-1] for f in rec["futures"]]),
         "line 4: ", "has horizons 10/29, the header has 10/30"),
        (lambda rec: rec["agents"][0]["past_yaws"].__setitem__(2, 7.0),
         "line 4: ", "has a yaw outside (-pi, pi]"),
        (lambda rec: rec["agents"][1]["past_velocities"].pop(),
         "line 4: ", "has a malformed past_velocities"),
    ], ids=["nan", "one-agent", "short-futures", "yaw-7", "short-velocity"])
    def test_malformed_scene_names_it(self, pretrained, tmp_path, capsys,
                                      edit, where, named):
        workdir = copy_run(pretrained, tmp_path)
        for stage, split, output in (("eval", "val.jsonl", "report_x.json"),
                                     ("pretrain", "train.jsonl",
                                      "pretrained.npz")):
            path = workdir / split
            lines = path.read_text().splitlines()
            rec = json.loads(lines[3])
            edit(rec)
            lines[3] = json.dumps(rec)
            path.write_text("\n".join(lines) + "\n")
            if stage == "pretrain":
                (workdir / output).unlink()
            tag = ("--tag", "x") if stage == "eval" else ()
            assert run(workdir, stage, *tag) == EXIT_VALIDATION, stage
            err = capsys.readouterr().err
            assert f"{path}: {where}scene {rec['scene_id']} {named}" in err
            assert not (workdir / output).exists()

    @pytest.mark.parametrize("name,edit,argv,named", [
        ("val.jsonl", lambda path: path.write_text(
            "[1, 2]\n" + path.read_text().split("\n", 1)[1]),
         ("eval", "--tag", "x"), "line 1: not a JSON object"),
        ("pretrained.npz", lambda path: path.write_bytes(
            checkpoint_bytes(path, _meta=np.frombuffer(b"[1]", np.uint8))),
         ("eval", "--tag", "x"), "_meta is not a JSON object"),
        ("subset.txt", lambda path: path.write_bytes(b"\x80\n"),
         ("finetune",), "can't decode byte 0x80"),
        ("subset.txt", lambda path: path.write_text(""),
         ("finetune",), "names no scene"),
        ("subset.txt", lambda path: path.write_text(
            path.read_text().split()[0] + "\nnosuch-1\nnosuch-2\n"),
         ("finetune",), "scene nosuch-1 is not in train.jsonl"),
        ("report_x.json", lambda path: path.write_bytes(b"\x80\n"),
         ("report", "--tag", "x"), "can't decode byte 0x80"),
    ], ids=["split-header-list", "meta-list", "subset-not-utf8",
            "subset-empty", "subset-unknown-id", "report-not-utf8"])
    def test_unreadable_input_names_it(self, pretrained, tmp_path, capsys,
                                       name, edit, argv, named):
        workdir = copy_run(pretrained, tmp_path)
        assert run(workdir, "extract") == EXIT_OK
        path = workdir / name
        edit(path)
        files = sorted(workdir.iterdir())
        capsys.readouterr()
        assert run(workdir, *argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"unreadable artifact: {path}: " in err and named in err
        assert "Traceback" not in err
        assert sorted(workdir.iterdir()) == files

    def test_garbage_checkpoint_names_it(self, pretrained, tmp_path, capsys):
        workdir = copy_run(pretrained, tmp_path)
        ckpt = workdir / "pretrained.npz"
        ckpt.write_bytes(b"not a checkpoint\n" * 8)
        assert run(workdir, "extract") == EXIT_VALIDATION
        assert str(ckpt) in capsys.readouterr().err
        assert not (workdir / "subset.txt").exists()


class TestNonFiniteCheckpoint:
    """A checkpoint with an infinite parameter exits 4 naming the file and
    the parameter, as other unreadable checkpoints do."""

    @pytest.fixture
    def workdir(self, pretrained, tmp_path):
        workdir = copy_run(pretrained, tmp_path)
        ckpt = workdir / "pretrained.npz"
        params = toy_predictor.load_checkpoint(ckpt)
        params["Wl"][0, 0] = np.inf
        toy_predictor.save_checkpoint(ckpt, params)
        return workdir

    def test_extract(self, workdir, capsys):
        assert run(workdir, "extract") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{workdir / 'pretrained.npz'}: checkpoint parameter Wl" in err
        assert not (workdir / "subset.txt").exists()

    def test_eval(self, workdir, capsys):
        ckpt = workdir / "pretrained.npz"
        assert run(workdir, "eval", "--checkpoint", str(ckpt),
                   "--tag", "x") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{ckpt}: checkpoint parameter Wl is not finite" in err
        assert not (workdir / "report_x.json").exists()


def checkpoint_bytes(path, **arrays) -> bytes:
    """The bytes of the checkpoint at path with some of its arrays replaced."""
    with np.load(path) as data:
        arrays = {**data, **arrays}
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def runtime_warnings(caught):
    """The messages of recorded RuntimeWarnings: each would be printed on
    stderr above the exit-4 line."""
    return [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)]


class TestDiverged:
    """A training stage whose loss or logits stop being finite, or whose
    epoch loss passes DIVERGENCE_RATIO times the first epoch's, exits 4,
    naming the stage and epoch, with no numpy warning before that line,
    and writes no checkpoint, history or manifest."""

    def test_pretrain_with_non_finite_logits(self, tmp_path, capsys):
        assert run(tmp_path, "gen") == EXIT_OK
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(tmp_path, "pretrain",
                       sets=[("pretrain_lr", "1e300")]) == EXIT_VALIDATION
        assert "pretrain diverged at epoch 0: logits must be finite" in \
            capsys.readouterr().err
        assert runtime_warnings(caught) == []
        for name in ("pretrained.npz", "pretrain_history.json",
                     "pretrain_manifest.json"):
            assert not (tmp_path / name).exists()

    def test_pretrain_with_exploding_finite_loss(self, tmp_path, capsys):
        # every loss stays finite: 19.77 at epoch 0, 2.36e7 at epoch 2
        assert run(tmp_path, "gen") == EXIT_OK
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(tmp_path, "pretrain",
                       sets=[("pretrain_lr", "50"),
                             ("pretrain_epochs", "10")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "pretrain diverged at epoch 2: loss 2.359e+07 is over 1e+06 " \
            "times epoch 0's 19.77" in err
        assert runtime_warnings(caught) == []
        for name in ("pretrained.npz", "pretrain_history.json",
                     "pretrain_manifest.json"):
            assert not (tmp_path / name).exists()

    def test_direct_cost_with_infinite_loss(self, pretrained, tmp_path, capsys):
        workdir = copy_run(pretrained, tmp_path)
        assert run(workdir, "extract") == EXIT_OK
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(workdir, "finetune", "--objective", "direct-cost",
                       sets=[("finetune_lr", "1e300"),
                             ("finetune_epochs", "3")]) == EXIT_VALIDATION
        assert "finetune[direct-cost] diverged at epoch 1: loss inf" in \
            capsys.readouterr().err
        assert runtime_warnings(caught) == []
        for name in ("finetuned_direct.npz", "finetune_direct_history.json",
                     "finetune_direct_manifest.json"):
            assert not (workdir / name).exists()


def test_extract_and_eval_bytes_independent_of_chunk_size(pretrained, tmp_path):
    """Extract and eval score a split in batch_size chunks; the artifacts
    must not depend on where the chunks are cut."""
    outputs = []
    for size in ("1", "3", "1000"):
        workdir = copy_run(pretrained, tmp_path / size)
        sets = [("batch_size", size)]
        assert run(workdir, "extract", sets=sets) == EXIT_OK
        assert run(workdir, "eval", "--tag", "base", sets=sets) == EXIT_OK
        assert run(workdir, "eval", "--before", str(workdir / "pretrained.npz"),
                   "--after", str(workdir / "pretrained.npz"),
                   "--tag", "pair", sets=sets) == EXIT_OK
        outputs.append({name: (workdir / name).read_bytes() for name in (
            "subset.txt", "extract_summary.json", "report_base.json",
            "report_pair.json")})
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0]["extract_summary.json"])["total"] == 40

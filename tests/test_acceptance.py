"""End-to-end acceptance checks.

Criteria 1-3 verify the loss and cost math exactly against independently
computed oracle values; criteria 4-8 run the full pipeline (generate,
pretrain, extract, fine-tune, evaluate) on a seeded synthetic dataset and
check the directional claims; criterion 9 reruns the pipeline and demands
bit-identical reports. Each test prints one pass/fail summary line.

The pipeline runs dominate the suite's wall time (several minutes); they
execute once per session and are shared across criteria.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from bradley_terry import bt_nll
from jointpref.cli import EXIT_OK, main
from jointpref.collision_geometry import (
    RepellerParams,
    mode_repeller_cost,
    pairwise_distances,
)
from jointpref.mode_aggregation import aggregate_to_joint, select_top_modes, softmax
from jointpref.po_losses import (
    SimPOConfig,
    direct_cost_loss,
    pl_nll,
    pl_nll_from_logits,
    pl_nll_grad,
)
from jointpref.scene_model import JointModeSet, read_scenes
from jointpref.scenegen import DT
from jointpref.toy_predictor import forward, load_checkpoint, scene_block

SEED = 7
PIPELINE_SETS = [
    ("seed", str(SEED)),
    ("n_train", "2000"), ("n_val", "200"),
    ("crossing_weight", "0.6"), ("merge_weight", "0.15"),
    ("follow_weight", "0.1"), ("parallel_weight", "0.15"),
    # crossing-heavy data pairs with a smaller extraction threshold;
    # harder data, tighter spread requirement
    ("delta", "2.5"),
]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# criteria 1-3: exact math
# ---------------------------------------------------------------------------

def test_criterion_1_pl_reduces_to_bt():
    rng = np.random.default_rng(0)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        rewards = rng.normal(size=2) * 10
        for gamma in (0.0, 2.0, 5.0):
            diff = abs(pl_nll(rewards, np.array([0, 1]), gamma)
                       - bt_nll(rewards[0], rewards[1], gamma))
            worst = max(worst, diff)
    elapsed = time.time() - start
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"max |pl_nll(K=2) - bt_nll| = {worst:.2e} in {elapsed:.2f}s")


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(1)
    start = time.time()
    cfg = SimPOConfig(beta=2.0, gamma=5.0)
    h = 1e-5
    worst_loss = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        z = rng.normal(size=k) * 3
        tau = rng.permutation(k)
        grad = pl_nll_grad(z, tau, cfg)
        for i in range(k):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd = (pl_nll_from_logits(zp, tau, cfg)
                  - pl_nll_from_logits(zm, tau, cfg)) / (2 * h)
            if abs(fd) < 1e-8:
                continue
            worst_loss = max(worst_loss, abs(fd - grad[i]) / abs(fd))

    params = RepellerParams()
    worst_direct = 0.0
    checked = 0
    while checked < 100:
        k = int(rng.integers(1, 9))
        a = int(rng.integers(2, 5))
        gt = rng.normal(size=(a, 3, 2)) * 2
        modes = rng.normal(size=(k, a, 3, 2)) * 2
        off = pairwise_distances(modes)                       # (K, P, T)
        # keep probes away from the hinge kink and coincident agents
        if np.any(np.abs(off - params.r) < 1e-3) or np.any(off < 1e-3):
            continue
        logits = np.sort(rng.normal(size=k))[::-1]   # most likely first
        joint = JointModeSet(modes=modes, scene_logits=logits,
                             scene_probs=softmax(logits))
        _, grad = direct_cost_loss(joint, gt, lam=10.0, repeller_params=params)
        for _ in range(4):
            idx = (int(rng.integers(k)), int(rng.integers(a)),
                   int(rng.integers(3)), int(rng.integers(2)))
            mp, mm = modes.copy(), modes.copy()
            mp[idx] += h
            mm[idx] -= h
            lp, _ = direct_cost_loss(
                JointModeSet(modes=mp, scene_logits=logits,
                             scene_probs=softmax(logits)),
                gt, 10.0, params)
            lm, _ = direct_cost_loss(
                JointModeSet(modes=mm, scene_logits=logits,
                             scene_probs=softmax(logits)),
                gt, 10.0, params)
            fd = (lp - lm) / (2 * h)
            if abs(fd) < 1e-7:
                continue
            worst_direct = max(worst_direct, abs(fd - grad[idx]) / abs(fd))
        checked += 1
    elapsed = time.time() - start
    report(2, worst_loss < 1e-6 and worst_direct < 1e-5 and elapsed < 10.0,
           f"loss grad rel err {worst_loss:.2e}, direct grad rel err "
           f"{worst_direct:.2e} in {elapsed:.1f}s")


def test_criterion_3_formula_fixtures():
    errs = []
    # repeller aggregation: agents 0.5 m apart at one of three steps, r = 1,
    # give two 0.5 entries (one per agent order), eps = 1e-6
    mode = np.zeros((2, 3, 2))
    mode[1, :, 0] = [5.0, 0.5, 5.0]
    rep = mode_repeller_cost(mode, RepellerParams(r=1.0, epsilon=1e-6))
    errs.append(abs(rep - 1.0 / (2 + 1e-6)))
    # listwise loss scalar example: logits (1, 0), beta 2, gamma 5
    loss = pl_nll_from_logits(np.array([1.0, 0.0]), np.array([0, 1]),
                              SimPOConfig(beta=2.0, gamma=5.0))
    errs.append(abs(loss - 3.048587351573743))
    # softmax oracle
    errs.append(abs(softmax(np.array([1.0, 0.0]))[0] - 0.7310585786300049))
    # aggregation / selection oracle: paired means sorted descending
    joint, _ = aggregate_to_joint(
        np.zeros((2, 3, 1, 2)), np.array([[2.0, 0.0, 1.0], [0.5, 1.5, -1.0]]))
    errs.append(float(np.max(np.abs(joint.scene_logits
                                    - np.array([1.75, 0.75, -0.5])))))
    top = select_top_modes(joint, 2)
    expected = softmax(np.array([1.75, 0.75, -0.5]))[:2]
    errs.append(float(np.max(np.abs(top.scene_probs
                                    - expected / expected.sum()))))
    worst = max(errs)
    report(3, worst < 1e-9, f"max fixture error {worst:.2e}")


# ---------------------------------------------------------------------------
# criteria 4-9: the pipeline
# ---------------------------------------------------------------------------

def cli(workdir: Path, command, *extra, sets=()) -> int:
    argv = []
    for key, value in PIPELINE_SETS + [("workdir", str(workdir))] + list(sets):
        argv += ["--set", key, value]
    argv.append(command)
    argv += list(extra)
    return main(argv)


def realism_report(workdir: Path, top_n: int = 6) -> dict:
    """Collapse fraction and speed statistics of the direct-cost model."""
    scenes, _ = read_scenes(workdir / "val.jsonl")
    block = scene_block(scenes)
    params = load_checkpoint(workdir / "finetuned_direct.npz")
    top = select_top_modes(aggregate_to_joint(*forward(params, block))[0],
                           top_n).modes                       # (S, n, A, T, 2)
    # a scene collapses when two agents of one of its top modes come within
    # 0.2 m of each other
    collapsed = int(np.sum(pairwise_distances(top).min(axis=(-3, -2, -1))
                           < 0.2))
    pred_speeds = np.linalg.norm(np.diff(top, axis=-2), axis=-1).mean(
        axis=(-3, -2, -1)) / DT
    gt_speeds = np.linalg.norm(np.diff(block.futures, axis=-2), axis=-1).mean(
        axis=(-2, -1)) / DT
    gt_mean = float(np.mean(gt_speeds))
    gt_std = float(np.std(gt_speeds))
    pred_mean = float(np.mean(pred_speeds))
    return {
        "collapse_fraction": collapsed / len(scenes),
        "pred_speed_mean": pred_mean,
        "gt_speed_mean": gt_mean,
        "gt_speed_std": gt_std,
        "speed_sigma_deviation": abs(pred_mean - gt_mean) / gt_std,
    }


def run_pipeline(workdir: Path) -> dict:
    """Execute every stage the end-to-end criteria need; returns timings."""
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    assert cli(workdir, "gen") == EXIT_OK
    assert cli(workdir, "pretrain") == EXIT_OK
    assert cli(workdir, "extract") == EXIT_OK
    assert cli(workdir, "finetune") == EXIT_OK
    assert cli(workdir, "eval",
               "--before", str(workdir / "pretrained.npz"),
               "--after", str(workdir / "finetuned.npz"),
               "--tag", "final") == EXIT_OK
    core_time = time.time() - t0

    # gamma = 0 reruns finetune on the main run's data, pretrain and subset;
    # K = 12 reruns pretrain onward on its data
    assert cli(workdir, "ablate", "gamma", "0") == EXIT_OK
    assert cli(workdir, "ablate", "k", "12") == EXIT_OK

    # direct-cost baseline at 5x the fine-tuning step budget
    direct_sets = [("finetune_epochs", "25")]
    assert cli(workdir, "finetune", "--objective", "direct-cost",
               sets=direct_sets) == EXIT_OK
    realism = realism_report(workdir)
    (workdir / "direct_realism.json").write_text(
        json.dumps(realism, sort_keys=True) + "\n")
    return {"core_time": core_time}


REPORT_FILES = [
    "report_final.json",
    "finetune_history.json",
    "ablate_gamma_0/report_final.json",
    "ablate_k_12/report_final.json",
    "direct_realism.json",
]


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    run_a = tmp_path_factory.mktemp("pipeline_a")
    run_b = tmp_path_factory.mktemp("pipeline_b")
    info_a = run_pipeline(run_a)
    info_b = run_pipeline(run_b)
    return {"a": run_a, "b": run_b,
            "core_time_a": info_a["core_time"],
            "core_time_b": info_b["core_time"]}


def load_comparison(workdir: Path) -> dict:
    return json.loads((workdir / "report_final.json").read_text())


@pytest.mark.slow
def test_criterion_4_consistency_gain(runs):
    comp = load_comparison(runs["a"])["comparison"]
    scr = comp["scr"]["relative_change_percent"]
    pscr = comp["pscr"]["relative_change_percent"]
    fde = comp["min_joint_fde"]["relative_change_percent"]
    ok = (scr <= -20.0 and pscr <= -30.0 and fde <= 15.0
          and runs["core_time_a"] < 600.0)
    report(4, ok,
           f"SCR {scr:+.1f}% (need <= -20), pSCR {pscr:+.1f}% (need <= -30), "
           f"MinJointFDE {fde:+.1f}% (need <= +15), "
           f"pipeline {runs['core_time_a']:.0f}s (need < 600)")


@pytest.mark.slow
def test_criterion_5_reward_margin_growth(runs):
    history = json.loads((runs["a"] / "finetune_history.json").read_text())
    gaps = history["epoch_reward_gap"]
    ok = len(gaps) >= 5 and gaps[4] > gaps[0]
    report(5, ok, f"reward gap epoch 1 -> 5: {gaps[0]:.3f} -> {gaps[4]:.3f}")


@pytest.mark.slow
def test_criterion_6_gamma_ablation_direction(runs):
    g5 = load_comparison(runs["a"])
    g0 = load_comparison(runs["a"] / "ablate_gamma_0")
    pscr_after_g5 = g5["after"]["pscr"]
    pscr_after_g0 = g0["after"]["pscr"]
    scr_rel_g5 = g5["comparison"]["scr"]["relative_change_percent"]
    scr_rel_g0 = g0["comparison"]["scr"]["relative_change_percent"]
    ok = pscr_after_g0 > pscr_after_g5 and scr_rel_g0 >= scr_rel_g5
    report(6, ok,
           f"after-pSCR gamma=0 {pscr_after_g0:.4f} vs gamma=5 "
           f"{pscr_after_g5:.4f}; SCR change gamma=0 {scr_rel_g0:+.1f}% vs "
           f"gamma=5 {scr_rel_g5:+.1f}%")


@pytest.mark.slow
def test_criterion_7_oversampling_trend(runs):
    k6 = load_comparison(runs["a"])["comparison"]["scr"]
    k12 = load_comparison(runs["a"] / "ablate_k_12")["comparison"]["scr"]
    # larger improvement = more negative relative change
    ok = k12["relative_change_percent"] <= k6["relative_change_percent"]
    report(7, ok,
           f"SCR change K=12 {k12['relative_change_percent']:+.1f}% vs K=6 "
           f"{k6['relative_change_percent']:+.1f}%")


@pytest.mark.slow
def test_criterion_8_degenerate_direct_optimization(runs):
    realism = json.loads((runs["a"] / "direct_realism.json").read_text())
    ok = (realism["collapse_fraction"] >= 0.10
          or realism["speed_sigma_deviation"] > 3.0)
    report(8, ok,
           f"collapse fraction {realism['collapse_fraction']:.3f}, speed "
           f"{realism['pred_speed_mean']:.1f} m/s vs ground truth "
           f"{realism['gt_speed_mean']:.2f} +/- {realism['gt_speed_std']:.2f} "
           f"({realism['speed_sigma_deviation']:.0f} sigma)")


@pytest.mark.slow
def test_criterion_9_determinism(runs):
    mismatched = [name for name in REPORT_FILES
                  if (runs["a"] / name).read_bytes()
                  != (runs["b"] / name).read_bytes()]
    report(9, not mismatched,
           "all reports bit-identical across reruns" if not mismatched
           else f"reports differ: {mismatched}")

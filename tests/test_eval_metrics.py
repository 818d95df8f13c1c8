import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jointpref.eval_metrics import (
    comparison_report,
    evaluate_dataset,
    scene_metrics,
    scene_pscr,
    scene_scr,
)
from jointpref.mode_aggregation import softmax
from jointpref.scene_model import JointModeSet, Scene


def make_joint(modes, logits=None):
    modes = np.asarray(modes, dtype=float)
    if logits is None:
        logits = np.zeros(modes.shape[0])
    logits = np.asarray(logits, dtype=float)
    return JointModeSet(modes=modes, scene_logits=logits,
                        scene_probs=softmax(logits))


def stack(*joints):
    """Single-scene mode sets as one stack of scenes."""
    return JointModeSet(*(np.stack(arrays) for arrays in zip(
        *((j.modes, j.scene_logits, j.scene_probs) for j in joints))))


def chunk(scenes, joints):
    """The (ids, stacked ground truths, joint stack) triple evaluate_dataset
    takes for these scenes."""
    return ([s.scene_id for s in scenes],
            np.array([s.ground_truth_futures for s in scenes]), joints)


def make_scene(scene_id, futures, t_obs=3):
    a = len(futures)
    return Scene(scene_id=scene_id, past_positions=np.zeros((a, t_obs, 2)),
                 past_velocities=np.zeros((a, t_obs, 2)),
                 past_yaws=np.zeros((a, t_obs)), ground_truth_futures=futures)


def separated_gt(a=2, t=4, spacing=100.0):
    gt = np.zeros((a, t, 2))
    for i in range(a):
        gt[i, :, 1] = i * spacing
    return gt


class TestSceneScr:
    def test_no_collisions(self):
        assert scene_scr(np.array([0, 0, 0])) == 0.0

    def test_half_collide(self):
        assert scene_scr(np.array([0, 2, 1, 0])) == pytest.approx(0.5)

    def test_all_collide(self):
        assert scene_scr(np.array([1, 1])) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scene_scr(np.array([]))


class TestScenePscr:
    def test_weights_by_probability(self):
        probs = np.array([0.7, 0.2, 0.1])
        counts = np.array([0, 1, 3])
        assert scene_pscr(probs, counts) == pytest.approx(0.3, abs=1e-12)

    def test_indicator_not_count(self):
        # a mode with 5 collisions contributes the same as one with 1
        probs = np.array([0.5, 0.5])
        assert scene_pscr(probs, np.array([5, 1])) == pytest.approx(1.0)

    def test_unnormalized_probs_rejected(self):
        with pytest.raises(ValueError):
            scene_pscr(np.array([0.5, 0.4]), np.array([0, 1]))

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_pscr_bounded_by_scr_extremes(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 8))
        probs = softmax(rng.normal(size=k))
        counts = rng.integers(0, 3, size=k)
        p = scene_pscr(probs, counts)
        assert 0.0 <= p <= 1.0 + 1e-12
        if np.all(counts > 0):
            assert p == pytest.approx(1.0, abs=1e-9)
        if np.all(counts == 0):
            assert p == 0.0


class TestMinJointFde:
    def test_best_mode_wins(self):
        gt = separated_gt()
        good = gt.copy()
        good[:, -1, 0] += 1.0
        bad = gt.copy()
        bad[:, -1, 0] += 7.0
        joint = make_joint(np.stack([bad, good]))
        assert scene_metrics("s", joint, gt).min_joint_fde == \
            pytest.approx(1.0, abs=1e-12)

    def test_zero_for_perfect_mode(self):
        gt = separated_gt()
        joint = make_joint(np.stack([gt, gt + 50.0]))
        assert scene_metrics("s", joint, gt).min_joint_fde == 0.0


class TestSceneMetrics:
    def test_mixed_scene(self):
        gt = separated_gt()
        clean = gt.copy()
        colliding = gt.copy()
        colliding[1] = colliding[0] + 0.2
        joint = make_joint(np.stack([clean, colliding]),
                           logits=np.array([1.0, 0.0]))
        scene = make_scene("s", gt)
        m = scene_metrics(scene.scene_id, joint, scene.ground_truth_futures)
        assert m.scr == pytest.approx(0.5)
        # only the second (lower-probability) mode collides
        assert m.pscr == pytest.approx(softmax(np.array([1.0, 0.0]))[1])
        assert m.min_joint_fde == 0.0
        assert m.avg_fde_best == 0.0


class TestEvaluateDataset:
    def test_unweighted_mean_over_scenes(self):
        gt = separated_gt()
        colliding = gt.copy()
        colliding[1] = colliding[0] + 0.2
        s1 = make_scene("a", gt)
        s2 = make_scene("b", gt)
        joints = stack(
            make_joint(np.stack([gt, gt])),                # scr 0
            make_joint(np.stack([colliding, colliding])),  # scr 1
        )
        report, rows = evaluate_dataset([chunk([s1, s2], joints)], top_n=6)
        assert report.scr == pytest.approx(0.5)
        assert report.pscr == pytest.approx(0.5)
        assert report.n_scenes == 2
        assert len(rows) == 2

    def test_top_n_selection_applied(self):
        gt = separated_gt()
        colliding = gt.copy()
        colliding[1] = colliding[0] + 0.2
        # 3 modes: the least likely one collides and must be dropped at top-2
        joint = make_joint(np.stack([gt, gt, colliding]),
                           logits=np.array([2.0, 1.0, 0.0]))
        scene = make_scene("s", gt)
        report, _ = evaluate_dataset([chunk([scene], stack(joint))], top_n=2)
        assert report.scr == 0.0
        assert report.n_modes_evaluated == 2

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate_dataset([], top_n=6)

    def test_ids_must_match_scenes(self):
        """Two ids for a 3-scene chunk would drop a row and shift every
        later chunk's ids."""
        gt = separated_gt()
        scenes = [make_scene(name, gt) for name in "abc"]
        joints = stack(*[make_joint(np.stack([gt]))] * 3)
        _, ground_truth, joint = chunk(scenes, joints)
        with pytest.raises(ValueError, match="2 ids"):
            evaluate_dataset([(np.array(["a", "b"]), ground_truth, joint)])
        _, rows = evaluate_dataset([(np.array(["a", "b", "c"]),
                                     ground_truth, joint)])
        assert [row.scene_id for row in rows] == ["a", "b", "c"]

    def test_report_round_trips_to_dict(self):
        gt = separated_gt()
        scene = make_scene("s", gt)
        report, _ = evaluate_dataset(
            [chunk([scene], stack(make_joint(np.stack([gt]))))])
        d = dataclasses.asdict(report)
        assert d["scr"] == 0.0
        assert d["n_scenes"] == 1
        assert isinstance(report.display_lines(), list)


class TestBruteForceRecomputation:
    def test_min_joint_fde_matches_bruteforce(self):
        rng = np.random.default_rng(17)
        gt = rng.normal(size=(3, 5, 2)) * 10
        modes = rng.normal(size=(6, 3, 5, 2)) * 10
        joint = make_joint(modes)
        expected = min(
            np.mean([np.hypot(*(modes[k, i, -1] - gt[i, -1]))
                     for i in range(3)])
            for k in range(6))
        assert scene_metrics("s", joint, gt).min_joint_fde == \
            pytest.approx(expected, abs=1e-12)

    def test_dataset_report_matches_bruteforce(self):
        # independent recomputation of every dataset-level mean from raw
        # coordinates, without going through the per-scene helpers
        rng = np.random.default_rng(23)
        scenes, joints = [], []
        exp_scr, exp_pscr, exp_fde = [], [], []
        for idx in range(25):
            gt = rng.normal(size=(2, 4, 2)) * 20
            modes = gt[None] + rng.normal(size=(3, 2, 4, 2)) * rng.uniform(0.2, 8)
            logits = rng.normal(size=3)
            probs = np.exp(logits - logits.max())
            probs = probs / probs.sum()
            order = np.argsort(-logits, kind="stable")
            sid = f"s{idx}"
            scenes.append(make_scene(sid, gt))
            joints.append(make_joint(modes[order], logits[order]))
            hit = np.array([
                np.min(np.hypot(*(modes[k, 0] - modes[k, 1]).T)) < 1.0
                for k in range(3)])
            exp_scr.append(hit.mean())
            exp_pscr.append(float(probs @ hit))
            exp_fde.append(min(
                0.5 * (np.hypot(*(modes[k, 0, -1] - gt[0, -1]))
                       + np.hypot(*(modes[k, 1, -1] - gt[1, -1])))
                for k in range(3)))
        report, _ = evaluate_dataset([chunk(scenes, stack(*joints))], top_n=3)
        assert report.scr == pytest.approx(np.mean(exp_scr), abs=1e-12)
        assert report.pscr == pytest.approx(np.mean(exp_pscr), abs=1e-9)
        assert report.min_joint_fde == pytest.approx(np.mean(exp_fde), abs=1e-9)


class TestComparisonReport:
    def test_relative_change(self):
        gt = separated_gt()
        scene = make_scene("s", gt)
        colliding = gt.copy()
        colliding[1] = colliding[0] + 0.2
        before, _ = evaluate_dataset(
            [chunk([scene], stack(make_joint(np.stack([colliding] * 2))))])
        after, _ = evaluate_dataset(
            [chunk([scene], stack(make_joint(np.stack([colliding, gt]))))])
        table = comparison_report(before, after)
        assert table["scr"]["before"] == 1.0
        assert table["scr"]["after"] == 0.5
        assert table["scr"]["relative_change_percent"] == pytest.approx(-50.0)

    def test_zero_baseline_gives_null(self):
        # no relative change from 0: JSON null, not a bare NaN token
        gt = separated_gt()
        scene = make_scene("s", gt)
        rep, _ = evaluate_dataset(
            [chunk([scene], stack(make_joint(np.stack([gt]))))])
        table = comparison_report(rep, rep)
        assert table["scr"]["relative_change_percent"] is None
        text = json.dumps(table)
        json.loads(text, parse_constant=pytest.fail)

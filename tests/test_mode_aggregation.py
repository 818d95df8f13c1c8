import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jointpref.mode_aggregation import (
    aggregate_to_joint,
    log_softmax,
    scene_logit_grad_to_agent_logits,
    select_top_modes,
    softmax,
)
from jointpref.scene_model import MarginalPrediction


def make_pred(logits, trajs=None):
    logits = np.asarray(logits, dtype=float)
    a, k = logits.shape
    if trajs is None:
        # distinct values so regrouping mistakes are detectable
        trajs = np.arange(a * k * 3 * 2, dtype=float).reshape(a, k, 3, 2)
    return MarginalPrediction(trajectories=trajs, logits=logits)


class TestSoftmax:
    def test_sums_to_one(self):
        p = softmax(np.array([1.0, 2.0, 3.0]))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_logit_example(self):
        p = softmax(np.array([1.0, 0.0]))
        assert p[0] == pytest.approx(1 / (1 + np.exp(-1)), abs=1e-12)

    def test_overflow_safe(self):
        p = softmax(np.array([1e4, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)

    def test_log_softmax_consistent(self):
        z = np.array([0.5, -2.0, 3.0])
        np.testing.assert_allclose(np.exp(log_softmax(z)), softmax(z),
                                   atol=1e-12)


def source_of(pred):
    """Each agent's marginal mode in each joint mode, (A, K)."""
    return aggregate_to_joint(pred, return_trace=True)[1]


class TestRankMarginalModes:
    # one agent's joint modes are its own modes from most to least likely
    def test_descending_order(self):
        pred = make_pred([[2.0, 0.0, 1.0]])
        np.testing.assert_array_equal(source_of(pred), [[0, 2, 1]])

    def test_ties_keep_lower_index_first(self):
        pred = make_pred([[1.0, 1.0, 0.5]])
        np.testing.assert_array_equal(source_of(pred), [[0, 1, 2]])

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_rows_are_permutations(self, seed):
        rng = np.random.default_rng(seed)
        a, k = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        pred = make_pred(rng.normal(size=(a, k)))
        for row in source_of(pred):
            assert sorted(row) == list(range(k))


class TestAggregateToJoint:
    def test_two_agent_example(self):
        # agent A logits (2, 0, 1), agent B (0.5, 1.5, -1):
        # pairing logits are means of (2,1.5), (1,0.5), (0,-1)
        pred = make_pred([[2.0, 0.0, 1.0], [0.5, 1.5, -1.0]])
        joint = aggregate_to_joint(pred)
        np.testing.assert_allclose(joint.scene_logits, [1.75, 0.75, -0.5])
        np.testing.assert_allclose(joint.scene_probs,
                                   softmax(np.array([1.75, 0.75, -0.5])))

    def test_modes_pair_correct_trajectories(self):
        pred = make_pred([[2.0, 0.0, 1.0], [0.5, 1.5, -1.0]])
        joint = aggregate_to_joint(pred)
        # top mode pairs agent0 mode 0 with agent1 mode 1
        np.testing.assert_array_equal(joint.modes[0, 0], pred.trajectories[0, 0])
        np.testing.assert_array_equal(joint.modes[0, 1], pred.trajectories[1, 1])
        np.testing.assert_array_equal(joint.modes[2, 0], pred.trajectories[0, 1])
        np.testing.assert_array_equal(joint.modes[2, 1], pred.trajectories[1, 2])

    def test_output_descending_by_scene_logit(self):
        rng = np.random.default_rng(4)
        pred = make_pred(rng.normal(size=(3, 6)))
        joint = aggregate_to_joint(pred)
        assert np.all(np.diff(joint.scene_logits) <= 0)
        assert np.all(np.diff(joint.scene_probs) <= 0)

    def test_trajectories_numerically_untouched(self):
        rng = np.random.default_rng(8)
        trajs = rng.normal(size=(2, 4, 5, 2))
        pred = make_pred(rng.normal(size=(2, 4)), trajs)
        joint = aggregate_to_joint(pred)
        flat_in = {tuple(trajs[i, k].ravel()) for i in range(2) for k in range(4)}
        flat_out = {tuple(joint.modes[k, i].ravel())
                    for k in range(4) for i in range(2)}
        assert flat_in == flat_out

    def test_single_agent_single_mode(self):
        pred = make_pred([[0.7]])
        joint = aggregate_to_joint(pred)
        assert joint.scene_logits[0] == pytest.approx(0.7)
        assert joint.scene_probs[0] == pytest.approx(1.0)

    def test_trace_records_permutations(self):
        pred = make_pred([[2.0, 0.0, 1.0], [0.5, 1.5, -1.0]])
        np.testing.assert_array_equal(source_of(pred), [[0, 2, 1], [1, 0, 2]])


class TestGradientRouting:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a, k = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            logits = rng.normal(size=(a, k)) * 2
            # keep logits well separated so permutations are locally constant
            gaps = np.abs(np.diff(np.sort(logits, axis=1), axis=1))
            if np.min(gaps, initial=1.0) < 1e-2:
                continue
            trajs = np.zeros((a, k, 2, 2))
            pred = make_pred(logits, trajs)
            joint, source = aggregate_to_joint(pred, return_trace=True)
            d_scene = rng.normal(size=k)
            d_agent = scene_logit_grad_to_agent_logits(d_scene, source)
            h = 1e-6
            for _ in range(5):
                i, m = int(rng.integers(a)), int(rng.integers(k))
                lp = logits.copy()
                lp[i, m] += h
                jp = aggregate_to_joint(make_pred(lp, trajs))
                lm = logits.copy()
                lm[i, m] -= h
                jm = aggregate_to_joint(make_pred(lm, trajs))
                fd = np.dot(d_scene, (jp.scene_logits - jm.scene_logits)) / (2 * h)
                assert d_agent[i, m] == pytest.approx(fd, abs=1e-6)

    def test_each_agent_gets_equal_share(self):
        pred = make_pred([[1.0, 0.0], [3.0, -1.0], [0.2, 0.1]])
        _, source = aggregate_to_joint(pred, return_trace=True)
        d_agent = scene_logit_grad_to_agent_logits(np.array([1.0, 0.0]), source)
        assert np.count_nonzero(d_agent) == 3
        assert np.allclose(d_agent[d_agent != 0], 1 / 3)


class TestSelectTopModes:
    def test_keeps_most_probable_and_renormalizes(self):
        pred = make_pred(np.arange(12, dtype=float).reshape(2, 6))
        joint = aggregate_to_joint(pred)
        top = select_top_modes(joint, 4)
        assert top.num_modes == 4
        np.testing.assert_array_equal(top.scene_logits, joint.scene_logits[:4])
        assert top.scene_probs.sum() == pytest.approx(1.0, abs=1e-12)
        # relative ordering within the kept set is preserved
        ratio = top.scene_probs / joint.scene_probs[:4]
        assert np.allclose(ratio, ratio[0])

    def test_n_equal_k_is_identity(self):
        pred = make_pred(np.random.default_rng(0).normal(size=(2, 5)))
        joint = aggregate_to_joint(pred)
        same = select_top_modes(joint, 5)
        np.testing.assert_allclose(same.scene_probs, joint.scene_probs,
                                   atol=1e-12)
        np.testing.assert_array_equal(same.modes, joint.modes)

    def test_twelve_modes_top_six_matches_bruteforce(self):
        rng = np.random.default_rng(42)
        pred = make_pred(rng.normal(size=(2, 12)),
                         np.zeros((2, 12, 2, 2)))
        joint = aggregate_to_joint(pred)
        top = select_top_modes(joint, 6)
        assert top.num_modes == 6
        best = sorted(joint.scene_probs, reverse=True)[:6]
        np.testing.assert_allclose(sorted(top.scene_probs, reverse=True),
                                   np.array(best) / sum(best), atol=1e-12)
        np.testing.assert_allclose(sorted(top.scene_logits, reverse=True),
                                   sorted(joint.scene_logits, reverse=True)[:6],
                                   atol=1e-12)

    def test_invalid_n_rejected(self):
        pred = make_pred([[0.0, 1.0]])
        joint = aggregate_to_joint(pred)
        with pytest.raises(ValueError):
            select_top_modes(joint, 0)
        with pytest.raises(ValueError):
            select_top_modes(joint, 3)

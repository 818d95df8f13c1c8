import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jointpref.collision_geometry import RepellerParams
from jointpref.mode_aggregation import softmax
from jointpref.preference_ranking import (
    avg_fde,
    extract_preference_subset,
    preference_cost,
)
from jointpref.scene_model import JointModeSet


def make_joint(modes, logits=None):
    modes = np.asarray(modes, dtype=float)
    if logits is None:
        logits = np.zeros(modes.shape[0])
    logits = np.asarray(logits, dtype=float)
    return JointModeSet(modes=modes, scene_logits=logits,
                        scene_probs=softmax(logits))


def spaced_modes(k, a=2, t=5, spacing=100.0):
    """k modes with agents far apart, no repeller activity anywhere."""
    modes = np.zeros((k, a, t, 2))
    for i in range(a):
        modes[:, i, :, 1] = i * spacing
    return modes


class TestAvgFde:
    def test_exact_prediction_zero(self):
        gt = np.random.default_rng(0).normal(size=(3, 5, 2))
        assert avg_fde(gt, gt) == 0.0

    def test_uses_final_step_only(self):
        gt = np.zeros((2, 4, 2))
        mode = np.zeros((2, 4, 2))
        mode[:, :-1] = 99.0  # garbage everywhere except the endpoint
        assert avg_fde(mode, gt) == 0.0

    def test_mean_over_agents(self):
        gt = np.zeros((2, 3, 2))
        mode = np.zeros((2, 3, 2))
        mode[0, -1] = [3.0, 4.0]   # endpoint error 5
        mode[1, -1] = [0.0, 1.0]   # endpoint error 1
        assert avg_fde(mode, gt) == pytest.approx(3.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            avg_fde(np.zeros((2, 3, 2)), np.zeros((2, 4, 2)))

    @given(st.integers(1, 6), st.integers(2, 5), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_stack_matches_each_mode(self, k, a, t, seed):
        rng = np.random.default_rng(seed)
        modes = rng.normal(size=(k, a, t, 2)) * 3
        gt = rng.normal(size=(a, t, 2)) * 3
        fdes = avg_fde(modes, gt)
        assert fdes.shape == (k,)
        for m in range(k):
            assert fdes[m] == avg_fde(modes[m], gt)


class TestPreferenceCost:
    def test_cost_is_fde_plus_lambda_repeller(self):
        gt = np.zeros((2, 3, 2))
        gt[1, :, 1] = 100.0
        modes = spaced_modes(2)[:, :, :3]
        modes[1, 0, :, 0] = 2.0  # second mode: agent 0 endpoint off by 2
        joint = make_joint(modes)
        rec = preference_cost(joint, gt, lam=1e3)
        assert rec.repeller[0] == 0.0 and rec.repeller[1] == 0.0
        assert rec.cost[0] == pytest.approx(rec.avg_fde[0], abs=1e-12)
        np.testing.assert_array_equal(rec.ranking, [0, 1])

    def test_collision_dominates_with_large_lambda(self):
        gt = spaced_modes(1)[0]
        clean = gt.copy()
        clean[0, -1, 0] += 50.0  # big FDE but no collision
        colliding = gt.copy()
        colliding[1] = colliding[0] + 0.2  # overlapping agents
        joint = make_joint(np.stack([colliding, clean]))
        rec = preference_cost(joint, gt, lam=1e3)
        assert rec.ranking[0] == 1  # the clean mode wins despite its FDE
        assert rec.cost[0] > rec.cost[1]

    def test_costs_nondecreasing_along_ranking(self):
        rng = np.random.default_rng(21)
        gt = rng.normal(size=(2, 5, 2)) * 10
        modes = rng.normal(size=(6, 2, 5, 2)) * 10
        joint = make_joint(modes, np.sort(rng.normal(size=6))[::-1])
        rec = preference_cost(joint, gt)
        ranked = rec.cost[rec.ranking]
        assert np.all(np.diff(ranked) >= 0)

    def test_modes_out_of_likelihood_order_rejected(self):
        # a cost tie goes to the lower index, the likelier mode, only
        # because a joint mode set cannot be stored in another order
        gt = spaced_modes(1)[0]
        with pytest.raises(ValueError, match="increase"):
            make_joint(np.stack([gt, gt, gt]), np.array([0.0, 2.0, 1.0]))

    def test_ties_then_lower_index(self):
        gt = spaced_modes(1)[0]
        modes = np.stack([gt, gt, gt])
        joint = make_joint(modes)  # uniform probabilities too
        rec = preference_cost(joint, gt)
        np.testing.assert_array_equal(rec.ranking, [0, 1, 2])

    def test_half_repeller_fixture_costs_502(self):
        # R = 0.5 and avgFDE = 2.0 with lambda = 1e3 gives cost ~502,
        # ranked below a collision-free mode with a far smaller FDE
        gt = np.array([[[0.0, 0.0]], [[0.5, 0.0]]])
        close = np.array([[[0.0, 2.0]], [[0.5, 2.0]]])    # d = 0.5, FDE 2.0
        clear = np.array([[[0.0, 1.0]], [[0.5, -1.0]]])   # d > 1, FDE 1.0
        joint = make_joint(np.stack([close, clear]))
        rec = preference_cost(joint, gt, lam=1e3)
        assert rec.avg_fde[0] == pytest.approx(2.0, abs=1e-12)
        assert rec.repeller[0] == pytest.approx(0.5, abs=1e-6)
        assert rec.cost[0] == pytest.approx(502.0, abs=1e-3)
        np.testing.assert_array_equal(rec.ranking, [1, 0])

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_ranking_is_permutation(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 8))
        gt = rng.normal(size=(2, 4, 2)) * 5
        modes = rng.normal(size=(k, 2, 4, 2)) * 5
        joint = make_joint(modes, np.sort(rng.normal(size=k))[::-1])
        rec = preference_cost(joint, gt)
        assert sorted(rec.ranking) == list(range(k))


class TestExtraction:
    def setup_method(self):
        self.gt = spaced_modes(1)[0]

    def extract_one(self, modes, **kw):
        """Extraction at delta 2.5 over one chunk of one scene."""
        chunk = (["s"], self.gt[None], make_joint(modes[None], np.zeros((1, 2))))
        kept, summary = extract_preference_subset([chunk], delta=2.5, **kw)
        assert kept == (["s"] if summary.extracted else [])
        return summary

    def test_collision_branch(self):
        colliding = self.gt.copy()
        colliding[1] = colliding[0] + 0.3
        summary = self.extract_one(np.stack([self.gt, colliding]))
        assert summary.extracted == 1
        assert summary.collision_branch_count == 1

    def test_spread_branch(self):
        off = self.gt.copy()
        off[:, -1, 0] += 10.0  # spread of 10 > delta, no collisions
        summary = self.extract_one(np.stack([self.gt, off]))
        assert summary.extracted == 1
        assert (summary.collision_branch_count,
                summary.spread_branch_count) == (0, 1)

    def test_clean_tight_scene_excluded(self):
        near = self.gt.copy()
        near[:, -1, 0] += 1.0  # spread 1 < delta 2.5
        summary = self.extract_one(np.stack([self.gt, near]))
        assert (summary.extracted, summary.collision_branch_count,
                summary.spread_branch_count) == (0, 0, 0)

    def test_spread_threshold_is_strict(self):
        off = self.gt.copy()
        off[:, -1, 0] += 2.5  # spread exactly delta: not included
        modes = np.stack([self.gt, off])
        rec = preference_cost(make_joint(modes), self.gt, lam=0.0)
        assert rec.cost.max() - rec.cost.min() == pytest.approx(2.5, abs=1e-12)
        summary = self.extract_one(modes, lam=0.0)
        assert (summary.extracted, summary.collision_branch_count,
                summary.spread_branch_count) == (0, 0, 0)

    def test_subset_extraction_counts(self):
        gt = self.gt
        colliding = gt.copy()
        colliding[1] = colliding[0] + 0.3
        wide = gt.copy()
        wide[:, -1, 0] += 10.0
        near = gt.copy()
        near[:, -1, 0] += 0.5
        joints = make_joint(np.stack([np.stack([gt, colliding]),
                                      np.stack([gt, wide]),
                                      np.stack([gt, near])]), np.zeros((3, 2)))
        chunk = (["a", "b", "c"], np.stack([gt] * 3), joints)
        kept, summary = extract_preference_subset([chunk], delta=2.5)
        assert kept == ["a", "b"]
        assert summary.total == 3
        assert summary.extracted == 2
        assert summary.spread_branch_count >= 1
        assert summary.fraction == pytest.approx(2 / 3)

    def test_empty_input(self):
        joints = make_joint(np.zeros((0, 2, 2, 5, 2)), np.zeros((0, 2)))
        chunk = ([], np.zeros((0, 2, 5, 2)), joints)
        kept, summary = extract_preference_subset([chunk], delta=2.5)
        assert kept == []
        assert summary.fraction == 0.0
        with pytest.raises(ValueError, match="no scenes"):
            extract_preference_subset([], delta=2.5)

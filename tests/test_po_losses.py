import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jointpref.collision_geometry import RepellerParams
from jointpref.mode_aggregation import log_softmax, softmax
from jointpref.po_losses import (
    SimPOConfig,
    bt_nll,
    direct_cost_loss,
    pl_nll,
    pl_nll_from_logits,
    pl_nll_grad,
)
from jointpref.scene_model import JointModeSet


def pl_nll_loop(rewards, ranking, gamma):
    """Reference listwise loss: one explicit log-sum-exp per stage, O(K^2)."""
    k = len(rewards)
    scores = np.asarray(rewards, dtype=float)[ranking] + gamma * np.arange(1, k + 1)
    loss = 0.0
    for i in range(k):
        tail = scores[i:]
        m = tail.max()
        loss += m + np.log(np.sum(np.exp(tail - m))) - scores[i]
    return float(loss)


def pl_nll_grad_loop(scene_logits, ranking, config):
    """Reference gradient: per-stage softmax weights added tail by tail."""
    z = np.asarray(scene_logits, dtype=float)
    k = z.shape[0]
    tau = np.asarray(ranking)
    scores = config.beta * log_softmax(z)[tau] + config.gamma * np.arange(1, k + 1)
    d_scores = np.zeros(k)
    for i in range(k):
        tail = scores[i:]
        w = np.exp(tail - tail.max())
        d_scores[i:] += w / w.sum()
        d_scores[i] -= 1.0
    d_rewards = np.zeros(k)
    d_rewards[tau] = d_scores
    p = softmax(z)
    return config.beta * (d_rewards - d_rewards.sum() * p)


def make_joint(modes, logits):
    # a JointModeSet holds its modes most likely first
    logits = np.sort(np.asarray(logits, dtype=float))[::-1]
    return JointModeSet(modes=np.asarray(modes, dtype=float),
                        scene_logits=logits, scene_probs=softmax(logits))


class TestBtNll:
    def test_equal_rewards_log2(self):
        assert bt_nll(1.0, 1.0, 0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_large_margin_approaches_zero(self):
        assert bt_nll(1e3, 0.0, 0.0) < 1e-12

    def test_gamma_shifts_argument(self):
        # -log sigmoid(1 - 0 - 5) = -log sigmoid(-4)
        expected = -math.log(1.0 / (1.0 + math.exp(4.0)))
        assert bt_nll(1.0, 0.0, 5.0) == pytest.approx(expected, abs=1e-12)
        assert bt_nll(1.0, 0.0, 5.0) == pytest.approx(4.018149928, abs=1e-6)

    def test_overflow_safe(self):
        assert np.isfinite(bt_nll(-1e3, 1e3, 0.0))
        assert np.isfinite(bt_nll(1e3, -1e3, 0.0))


class TestPlNll:
    def test_single_mode_zero_loss(self):
        assert pl_nll(np.array([3.7]), np.array([0]), gamma=5.0) == 0.0

    def test_eq12_scalar_example(self):
        cfg = SimPOConfig(beta=2.0, gamma=5.0)
        loss = pl_nll_from_logits(np.array([1.0, 0.0]), np.array([0, 1]), cfg)
        assert loss == pytest.approx(3.048587351573743, abs=1e-9)

    @given(st.floats(-50, 50), st.floats(-50, 50),
           st.sampled_from([0.0, 2.0, 5.0]))
    @settings(max_examples=200, deadline=None)
    def test_reduces_to_bt_for_two_modes(self, r1, r2, gamma):
        rewards = np.array([r1, r2])
        assert pl_nll(rewards, np.array([0, 1]), gamma) == pytest.approx(
            bt_nll(r1, r2, gamma), abs=1e-12)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            pl_nll(np.zeros(3), np.array([0, 0, 2]), 0.0)

    def test_top_reward_increase_decreases_loss(self):
        rewards = np.array([1.0, 0.0, -1.0])
        tau = np.array([0, 1, 2])
        base = pl_nll(rewards, tau, gamma=2.0)
        bumped = rewards.copy()
        bumped[0] += 0.5
        assert pl_nll(bumped, tau, gamma=2.0) < base

    def test_gamma_increases_loss_for_tied_rewards(self):
        rewards = np.zeros(4)
        tau = np.arange(4)
        losses = [pl_nll(rewards, tau, g) for g in (0.0, 1.0, 3.0, 5.0)]
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_finite_for_extreme_logits(self):
        cfg = SimPOConfig(beta=2.0, gamma=5.0)
        z = np.array([1e3, -1e3, 500.0])
        assert np.isfinite(pl_nll_from_logits(z, np.arange(3), cfg))
        assert np.all(np.isfinite(pl_nll_grad(z, np.arange(3), cfg)))


class TestMatchesReferenceLoops:
    """The reverse-cumulative PL loss and gradient against the stage loops.

    Summation order differs, so both agree to 1e-12 relative to the size of
    the terms summed (|scores| per stage for the loss, beta per stage for the
    gradient), not relative to the result: a near-zero loss or gradient is a
    difference of O(1) terms in either implementation.
    """

    @given(st.integers(1, 12), st.integers(0, 2**32 - 1),
           st.sampled_from([0.1, 1.0, 3.0, 10.0, 100.0]),
           st.sampled_from([0.5, 2.0, 5.0]), st.sampled_from([0.0, 2.0, 5.0]))
    @settings(max_examples=300, deadline=None)
    def test_loss_and_grad(self, k, seed, scale, beta, gamma):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=k) * scale
        tau = rng.permutation(k)
        cfg = SimPOConfig(beta=beta, gamma=gamma)
        rewards = beta * log_softmax(z)
        scores = rewards[tau] + gamma * np.arange(1, k + 1)
        loss_tol = 1e-12 * k * max(1.0, np.abs(scores).max())
        assert abs(pl_nll(rewards, tau, gamma)
                   - pl_nll_loop(rewards, tau, gamma)) <= loss_tol
        np.testing.assert_allclose(pl_nll_grad(z, tau, cfg),
                                   pl_nll_grad_loop(z, tau, cfg),
                                   rtol=0, atol=1e-12 * beta * k)


class TestPlNllGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        cfg = SimPOConfig(beta=2.0, gamma=5.0)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            z = rng.normal(size=k) * 3
            tau = rng.permutation(k)
            grad = pl_nll_grad(z, tau, cfg)
            h = 1e-5
            fd = np.zeros(k)
            for i in range(k):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                fd[i] = (pl_nll_from_logits(zp, tau, cfg)
                         - pl_nll_from_logits(zm, tau, cfg)) / (2 * h)
            scale = max(1e-8, np.max(np.abs(fd)))
            assert np.max(np.abs(fd - grad)) / scale < 1e-6

    def test_single_mode_zero_gradient(self):
        cfg = SimPOConfig(beta=2.0, gamma=5.0)
        assert np.all(pl_nll_grad(np.array([2.0]), np.array([0]), cfg) == 0)

    def test_descent_step_decreases_loss(self):
        cfg = SimPOConfig(beta=2.0, gamma=5.0)
        z = np.array([1.0, 0.0])
        tau = np.array([0, 1])
        g = pl_nll_grad(z, tau, cfg)
        before = pl_nll_from_logits(z, tau, cfg)
        after = pl_nll_from_logits(z - 1e-3 * g, tau, cfg)
        assert after < before

    def test_gradient_orthogonal_to_ones(self):
        # loss is shift-invariant in the logits, so grad . 1 = 0
        rng = np.random.default_rng(1)
        cfg = SimPOConfig(beta=2.0, gamma=3.0)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            g = pl_nll_grad(rng.normal(size=k) * 5, rng.permutation(k), cfg)
            assert abs(g.sum()) < 1e-8

    def test_shift_invariance_of_loss(self):
        cfg = SimPOConfig(beta=2.0, gamma=5.0)
        z = np.array([0.3, -1.2, 2.0, 0.0])
        tau = np.array([2, 0, 3, 1])
        a = pl_nll_from_logits(z, tau, cfg)
        b = pl_nll_from_logits(z + 17.5, tau, cfg)
        assert a == pytest.approx(b, abs=1e-10)


class TestDirectCostLoss:
    def setup_method(self):
        self.params = RepellerParams()

    def test_perfect_prediction_zero(self):
        gt = np.zeros((2, 4, 2))
        gt[1, :, 1] = 10.0  # agents far apart, no repeller activity
        modes = np.stack([gt, gt])
        joint = make_joint(modes, [0.0, 0.0])
        loss, grad = direct_cost_loss(joint, gt, lam=1e3, repeller_params=self.params)
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_lambda_zero_is_pure_fde(self):
        rng = np.random.default_rng(3)
        gt = rng.normal(size=(2, 4, 2)) * 5
        modes = rng.normal(size=(3, 2, 4, 2)) * 5
        joint = make_joint(modes, [0.0, 0.0, 0.0])
        loss, _ = direct_cost_loss(joint, gt, lam=0.0, repeller_params=self.params)
        expected = np.mean([
            np.mean(np.linalg.norm(modes[k, :, -1] - gt[:, -1], axis=-1))
            for k in range(3)])
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        params = self.params
        for _ in range(10):
            gt = rng.normal(size=(2, 3, 2)) * 2
            modes = rng.normal(size=(2, 2, 3, 2)) * 2
            joint = make_joint(modes, [0.1, -0.1])
            loss, grad = direct_cost_loss(joint, gt, lam=10.0,
                                          repeller_params=params)
            h = 1e-6
            for _ in range(8):
                k, i, t, c = (rng.integers(2), rng.integers(2),
                              rng.integers(3), rng.integers(2))
                mp, mm = modes.copy(), modes.copy()
                mp[k, i, t, c] += h
                mm[k, i, t, c] -= h
                lp, _ = direct_cost_loss(make_joint(mp, [0.1, -0.1]), gt,
                                         10.0, params)
                lm, _ = direct_cost_loss(make_joint(mm, [0.1, -0.1]), gt,
                                         10.0, params)
                fd = (lp - lm) / (2 * h)
                if abs(fd) < 1e-9:
                    continue  # hinge kink or flat region
                assert abs(fd - grad[k, i, t, c]) / max(1e-6, abs(fd)) < 1e-4

    def test_repeller_gradient_pushes_apart(self):
        gt = np.zeros((2, 1, 2))
        gt[1, 0] = [20.0, 0.0]
        modes = np.zeros((1, 2, 1, 2))
        modes[0, 1, 0] = [0.4, 0.0]  # 0.4 m apart, inside r = 1
        joint = make_joint(modes, [0.0])
        _, grad = direct_cost_loss(joint, gt, lam=1e3,
                                   repeller_params=self.params)
        # descending moves agent 1 toward +x, away from agent 0
        assert grad[0, 1, 0, 0] < 0


def test_simpo_config_validation():
    with pytest.raises(ValueError):
        SimPOConfig(beta=0.0)
    with pytest.raises(ValueError):
        SimPOConfig(gamma=-1.0)
    cfg = SimPOConfig()
    assert cfg.beta == 2.0 and cfg.gamma == 5.0

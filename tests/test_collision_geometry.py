import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jointpref.collision_geometry import (
    RepellerParams,
    joint_collision_counts,
    mode_repeller_cost,
    pairwise_distances,
    repeller_cost,
    repeller_cost_grad,
    repeller_matrix,
)


def straight(start, vel, t=5, dt=0.1):
    steps = dt * np.arange(t)
    return np.asarray(start)[None, :] + steps[:, None] * np.asarray(vel)[None, :]


class TestPairwiseDistances:
    def test_three_four_five(self):
        mode = np.stack([np.tile([0.0, 0.0], (4, 1)), np.tile([3.0, 4.0], (4, 1))])
        d = pairwise_distances(mode)
        assert d.shape == (2, 2, 4)
        assert np.allclose(d[0, 1], 5.0)
        assert np.allclose(d[1, 0], 5.0)
        assert np.all(d[0, 0] == 0) and np.all(d[1, 1] == 0)

    def test_single_agent(self):
        d = pairwise_distances(np.zeros((1, 7, 2)))
        assert d.shape == (1, 1, 7)
        assert np.all(d == 0)

    def test_crossing_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        mode = rng.normal(size=(3, 6, 2)) * 4
        d = pairwise_distances(mode)
        for i in range(3):
            for j in range(3):
                for t in range(6):
                    expected = np.hypot(*(mode[i, t] - mode[j, t]))
                    assert d[i, j, t] == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((2, 5)))


class TestRepellerMatrix:
    def test_far_apart_is_zero(self):
        mode = np.stack([straight([0, 0], [1, 0]), straight([0, 10], [1, 0])])
        a = repeller_matrix(pairwise_distances(mode), RepellerParams(r=1.0))
        assert np.all(a == 0)

    def test_half_distance_entry(self):
        # d = 0.5 at one step with r = 1 -> 0.5 in both symmetric slots
        mode = np.zeros((2, 3, 2))
        mode[1, :, 0] = [5.0, 0.5, 5.0]
        a = repeller_matrix(pairwise_distances(mode), RepellerParams(r=1.0))
        assert a[0, 1, 1] == pytest.approx(0.5)
        assert a[1, 0, 1] == pytest.approx(0.5)
        assert np.count_nonzero(a) == 2

    def test_diagonal_zero_for_any_radius(self):
        mode = np.zeros((2, 4, 2))
        for r in (0.5, 1.0, 100.0):
            a = repeller_matrix(pairwise_distances(mode), RepellerParams(r=r))
            assert np.all(a[0, 0] == 0) and np.all(a[1, 1] == 0)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(0)
        mode = rng.normal(size=(4, 8, 2))
        a = repeller_matrix(pairwise_distances(mode), RepellerParams(r=2.0))
        assert np.all(a >= 0) and np.all(a <= 1)


class TestRepellerCost:
    def test_zero_tensor(self):
        assert repeller_cost(np.zeros((2, 2, 5)), 1e-6) == 0.0

    def test_two_half_entries(self):
        a = np.zeros((2, 2, 3))
        a[0, 1, 1] = a[1, 0, 1] = 0.5
        assert repeller_cost(a, 1e-6) == pytest.approx(1.0 / (2 + 1e-6), abs=1e-15)

    def test_all_ones_offdiagonal(self):
        a = np.zeros((2, 2, 1))
        a[0, 1, 0] = a[1, 0, 0] = 1.0
        eps = 1e-6
        assert repeller_cost(a, eps) == pytest.approx(2.0 / (2 + eps), abs=1e-15)

    def test_monotone_in_proximity(self):
        # moving one agent closer (below r) never decreases the cost
        params = RepellerParams(r=1.0)
        base = np.stack([straight([0, 0], [1, 0]), straight([0, 0.9], [1, 0])])
        closer = base.copy()
        closer[1, :, 1] = 0.5
        assert mode_repeller_cost(closer, params) >= mode_repeller_cost(base, params)

    def test_zero_iff_no_pair_below_r(self):
        params = RepellerParams(r=1.0)
        rng = np.random.default_rng(11)
        for _ in range(25):
            mode = rng.normal(size=(3, 5, 2)) * 2
            cost = mode_repeller_cost(mode, params)
            collided = joint_collision_counts(mode, threshold_m=params.r)
            assert (cost == 0) == (collided == 0)


class TestRepellerGrad:
    def test_matches_finite_differences(self):
        params = RepellerParams(r=1.0)
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 10:
            mode = rng.normal(size=(3, 4, 2)) * 0.8
            d = pairwise_distances(mode)
            off = d[np.triu_indices(3, k=1)[0], np.triu_indices(3, k=1)[1]]
            # stay away from the hinge kink and coincident points
            if np.any(np.abs(off - params.r) < 1e-3) or np.any(off < 1e-3):
                continue
            grad = repeller_cost_grad(mode, params)[1]
            h = 1e-6
            for _ in range(6):
                i, t, c = rng.integers(3), rng.integers(4), rng.integers(2)
                mp, mm = mode.copy(), mode.copy()
                mp[i, t, c] += h
                mm[i, t, c] -= h
                fd = (mode_repeller_cost(mp, params)
                      - mode_repeller_cost(mm, params)) / (2 * h)
                denom = max(1e-8, abs(fd))
                assert abs(fd - grad[i, t, c]) / denom < 1e-5
            checked += 1

    def test_pushes_agents_apart(self):
        params = RepellerParams(r=1.0)
        mode = np.zeros((2, 1, 2))
        mode[1, 0, 0] = 0.5
        grad = repeller_cost_grad(mode, params)[1]
        # descending the cost moves agent 1 away from agent 0 (+x direction)
        assert grad[1, 0, 0] < 0
        assert grad[0, 0, 0] > 0


    @given(st.integers(1, 6), st.integers(3, 5), st.integers(1, 6),
           st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 3.0]),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_cost_is_mode_repeller_cost(self, k, a, t, seed, r, grid):
        """At t = 0 agents 0 and 1 coincide and agent 2 is exactly r away;
        on the 0.5 m grid more pairs do either."""
        rng = np.random.default_rng(seed)
        modes = (rng.integers(-3, 4, size=(k, a, t, 2)) * 0.5 if grid
                 else rng.normal(size=(k, a, t, 2)))
        modes[:, :3, 0] = [[0.0, 0.0], [0.0, 0.0], [r, 0.0]]
        delta = pairwise_distances(modes)
        assert np.all(delta[:, 0, 1, 0] == 0) and np.all(delta[:, 0, 2, 0] == r)
        params = RepellerParams(r=r)
        cost, grad = repeller_cost_grad(modes, params)
        assert cost.tobytes() == mode_repeller_cost(modes, params).tobytes()
        assert grad.shape == modes.shape


class TestDetectCollisions:
    def test_parallel_lanes_clear(self):
        mode = np.stack([straight([0, 0], [5, 0], 30), straight([0, 3], [5, 0], 30)])
        assert joint_collision_counts(mode, 1.0) == 0

    def test_crossing_through_same_point(self):
        mode = np.stack([straight([-1, 0], [1, 0], 21),
                         straight([0, -1], [0, 1], 21)])
        summary = joint_collision_counts(mode, 1.0)
        assert summary == 1
        assert summary > 0

    def test_three_agents_converging(self):
        mode = np.zeros((3, 1, 2))
        mode[1, 0] = [0.3, 0.0]
        mode[2, 0] = [0.0, 0.3]
        assert joint_collision_counts(mode, 1.0) == 3

    def test_threshold_is_strict(self):
        mode = np.stack([straight([0, 0], [1, 0]), straight([0, 1.0], [1, 0])])
        assert joint_collision_counts(mode, 1.0) == 0

    @given(st.integers(2, 5), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_pair_count_bounded(self, a, seed):
        mode = np.random.default_rng(seed).normal(size=(a, 6, 2))
        c = joint_collision_counts(mode, 1.0)
        assert 0 <= c <= a * (a - 1) // 2

    def test_joint_counts_shape(self):
        modes = np.zeros((4, 2, 3, 2))
        counts = joint_collision_counts(modes)
        assert counts.shape == (4,)
        assert np.all(counts == 1)  # coincident agents collide


class TestStackMatchesEachMode:
    """Mode k of a (K, A, T, 2) stack gets exactly the result of modes[k]
    alone: counts and denominators are per mode, never over the stack."""

    @given(st.integers(1, 6), st.integers(2, 5), st.integers(1, 6),
           st.integers(0, 2**32 - 1), st.sampled_from([0.3, 1.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_every_batched_function(self, k, a, t, seed, scale):
        params = RepellerParams(r=1.0)
        modes = np.random.default_rng(seed).normal(size=(k, a, t, 2)) * scale
        delta = pairwise_distances(modes)
        rep = repeller_matrix(delta, params)
        batched = {
            "distances": (delta, pairwise_distances),
            "repeller": (rep, lambda m: repeller_matrix(
                pairwise_distances(m), params)),
            "cost_of_matrix": (repeller_cost(rep, params.epsilon),
                               lambda m: repeller_cost(repeller_matrix(
                                   pairwise_distances(m), params),
                                   params.epsilon)),
            "cost": (mode_repeller_cost(modes, params),
                     lambda m: mode_repeller_cost(m, params)),
            "grad": (repeller_cost_grad(modes, params)[1],
                     lambda m: repeller_cost_grad(m, params)[1]),
            "collisions": (joint_collision_counts(modes, 1.0),
                           lambda m: joint_collision_counts(m, 1.0)),
        }
        for name, (stack, single) in batched.items():
            assert stack.shape[0] == k, name
            for m in range(k):
                np.testing.assert_array_equal(stack[m], single(modes[m]),
                                              err_msg=name)

    def test_single_mode_gives_scalars(self):
        mode = np.zeros((2, 3, 2))
        assert np.ndim(joint_collision_counts(mode)) == 0
        assert np.ndim(mode_repeller_cost(mode, RepellerParams())) == 0


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        RepellerParams(r=0.0)
    with pytest.raises(ValueError):
        RepellerParams(epsilon=0.0)
    with pytest.raises(ValueError):
        joint_collision_counts(np.zeros((1, 1, 2)), threshold_m=0.0)

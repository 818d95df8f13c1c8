import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jointpref.collision_geometry import (
    RepellerParams,
    joint_collision_counts,
    mode_repeller_cost,
    pairwise_distances,
    repeller_cost_grad,
)


# ---------------------------------------------------------------------------
# reference: the full A x A pair tensor the library computed before it
# worked on the A(A-1)/2 pairs i < j only
# ---------------------------------------------------------------------------

def pairwise_ref(modes):
    """Position differences (..., A, A, T, 2) and their norms (..., A, A, T)."""
    modes = np.asarray(modes, dtype=np.float64)
    diff = modes[..., :, None, :, :] - modes[..., None, :, :, :]
    return diff, np.sqrt(np.sum(diff * diff, axis=-1))


def repeller_cost_ref(repeller, epsilon):
    """Per-mode sum of an (..., A, A, T) hinge tensor over its positive
    count plus epsilon."""
    total = np.sum(repeller, axis=(-3, -2, -1))
    count = np.count_nonzero(repeller > 0, axis=(-3, -2, -1))
    return total / (count + epsilon)


def pair_entries(full):
    """The (i, j) entries, i < j, of an (..., A, A, T) pair tensor as
    (..., P, T) in triu_indices order."""
    iu, ju = np.triu_indices(full.shape[-2], k=1)
    return full[..., iu, ju, :]


def repeller_matrix_ref(delta, params):
    """Hinge proximity tensor: max(0, 1 - d/r) off-diagonal, 0 on the diagonal."""
    a = np.maximum(1.0 - delta / params.r, 0.0)
    idx = np.arange(delta.shape[-2])
    a[..., idx, idx, :] = 0.0
    return a


def repeller_cost_grad_ref(modes, params):
    diff, delta = pairwise_ref(modes)
    repeller = repeller_matrix_ref(delta, params)
    active = repeller > 0
    denom = np.count_nonzero(active, axis=(-3, -2, -1)) + params.epsilon
    safe = np.where(delta > 0, delta, 1.0)
    unit = np.where(delta[..., None] > 0, diff / safe[..., None], 0.0)
    coeff = np.where(active, -1.0 / (params.r * denom[..., None, None, None]),
                     0.0)
    contrib = coeff[..., None] * unit
    return (repeller_cost_ref(repeller, params.epsilon),
            contrib.sum(axis=-3) - contrib.sum(axis=-4))


def joint_collision_counts_ref(modes, threshold_m):
    delta = pair_entries(pairwise_ref(modes)[1])
    return np.sum(delta.min(axis=-1) < threshold_m, axis=-1)


def straight(start, vel, t=5, dt=0.1):
    steps = dt * np.arange(t)
    return np.asarray(start)[None, :] + steps[:, None] * np.asarray(vel)[None, :]


class TestPairwiseDistances:
    def test_three_four_five(self):
        mode = np.stack([np.tile([0.0, 0.0], (4, 1)), np.tile([3.0, 4.0], (4, 1))])
        d = pairwise_distances(mode)
        assert d.shape == (1, 4)
        assert np.allclose(d[0], 5.0)

    def test_single_agent(self):
        assert pairwise_distances(np.zeros((1, 7, 2))).shape == (0, 7)

    def test_stack_shape(self):
        assert pairwise_distances(np.zeros((2, 5, 4, 7, 2))).shape \
            == (2, 5, 6, 7)

    def test_crossing_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        mode = rng.normal(size=(3, 6, 2)) * 4
        d = pairwise_distances(mode)
        pairs = [(0, 1), (0, 2), (1, 2)]   # triu_indices(3, 1) order
        assert d.shape == (len(pairs), 6)
        for p, (i, j) in enumerate(pairs):
            for t in range(6):
                expected = np.hypot(*(mode[i, t] - mode[j, t]))
                assert d[p, t] == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((2, 5)))


class TestRepellerMatrix:
    """The hinge max(0, 1 - d/r) as mode_repeller_cost sums it over
    ordered agent pairs, never an agent with itself."""

    def test_far_apart_is_zero(self):
        mode = np.stack([straight([0, 0], [1, 0]), straight([0, 10], [1, 0])])
        assert mode_repeller_cost(mode, RepellerParams(r=1.0)) == 0.0

    def test_half_distance_entry(self):
        # d = 0.5 at one step with r = 1 -> 0.5 in both symmetric slots
        mode = np.zeros((2, 3, 2))
        mode[1, :, 0] = [5.0, 0.5, 5.0]
        eps = 1e-6
        assert mode_repeller_cost(mode, RepellerParams(r=1.0)) \
            == (0.5 + 0.5) / (2 + eps)

    def test_diagonal_zero_for_any_radius(self):
        # two coincident agents fill 2 of the 2x2x4 slots per step, never
        # the diagonal; a lone agent fills none
        for r in (0.5, 1.0, 100.0):
            params = RepellerParams(r=r)
            assert mode_repeller_cost(np.zeros((2, 4, 2)), params) \
                == 8.0 / (8 + params.epsilon)
            assert mode_repeller_cost(np.zeros((1, 4, 2)), params) == 0.0

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(0)
        modes = rng.normal(size=(50, 4, 8, 2))
        cost = mode_repeller_cost(modes, RepellerParams(r=2.0))
        assert np.all(cost >= 0) and np.all(cost <= 1)
        assert np.any(cost > 0)


class TestRepellerCost:
    """The cost's sum over count plus epsilon, on modes whose hinge
    entries are known."""

    def test_zero_tensor(self):
        # three agents on lanes 5 m apart: every hinge entry is 0
        mode = np.stack([straight([0, y], [1, 0]) for y in (0, 5, 10)])
        assert mode_repeller_cost(mode, RepellerParams(r=1.0)) == 0.0

    def test_two_half_entries(self):
        # d = 0.5 at one step with r = 1: two 0.5 entries, one per order
        mode = np.zeros((2, 3, 2))
        mode[1, :, 0] = [5.0, 0.5, 5.0]
        cost = mode_repeller_cost(mode, RepellerParams(r=1.0, epsilon=1e-6))
        assert cost == pytest.approx(1.0 / (2 + 1e-6), abs=1e-15)

    def test_all_ones_offdiagonal(self):
        # d = 0 at the one step: two hinge entries of 1
        eps = 1e-6
        cost = mode_repeller_cost(np.zeros((2, 1, 2)),
                                  RepellerParams(r=1.0, epsilon=eps))
        assert cost == pytest.approx(2.0 / (2 + eps), abs=1e-15)

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
            off = pairwise_distances(mode)
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
        delta = pairwise_distances(modes)   # pairs (0, 1), (0, 2) first
        assert np.all(delta[:, 0, 0] == 0) and np.all(delta[:, 1, 0] == r)
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
        batched = {
            "distances": (pairwise_distances(modes), pairwise_distances),
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


def edge_modes(lead, k, a, t, seed, r, grid):
    """(*lead, K, A, T, 2) modes; on the 0.5 m grid many pairs coincide or
    sit exactly r apart. At t = 0 agents 0 and 1 coincide and agent 2 is
    exactly r from them; at t = 1 agent 1 is exactly r from agent 0."""
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (k, a, t, 2)
    modes = (rng.integers(-4, 5, size=shape) * 0.5 if grid
             else rng.normal(size=shape) * 2)
    corner = [[0.0, 0.0], [0.0, 0.0], [r, 0.0]][:a]
    modes[..., :3, 0, :] = corner
    if t > 1 and a > 1:
        modes[..., :2, 1, :] = [[0.0, 0.0], [0.0, r]]
    return modes


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype \
        and x.tobytes() == y.tobytes()


class TestMatchesFullTensorReference:
    """The pair path against the full A x A tensor reference: distances,
    gradient and collision counts keep its bits. The gradient's zero-padded
    sums over the tensor add the same nonzero terms in the same order as
    the incidence contraction; the cost's pair sum runs in another order,
    so it may differ in the last bits, but is zero exactly where the
    reference is."""

    @given(st.lists(st.integers(1, 3), max_size=2), st.integers(1, 12),
           st.integers(1, 6), st.integers(1, 30), st.integers(0, 2**32 - 1),
           st.sampled_from([0.5, 1.0, 3.0]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical(self, lead, k, a, t, seed, r, grid):
        modes = edge_modes(lead, k, a, t, seed, r, grid)
        params = RepellerParams(r=r)
        assert same_bits(pairwise_distances(modes),
                         pair_entries(pairwise_ref(modes)[1]))
        ref_cost, ref_grad = repeller_cost_grad_ref(modes, params)
        cost, grad = repeller_cost_grad(modes, params)
        assert same_bits(cost, mode_repeller_cost(modes, params))
        assert cost.shape == ref_cost.shape
        np.testing.assert_array_equal(cost == 0, ref_cost == 0)
        np.testing.assert_allclose(cost, ref_cost, rtol=8 * np.finfo(float).eps,
                                   atol=0)
        assert same_bits(grad, ref_grad)
        assert same_bits(joint_collision_counts(modes, r),
                         joint_collision_counts_ref(modes, r))

    def test_edge_cases_are_present(self):
        modes = edge_modes([], 2, 3, 2, 0, 1.0, False)
        d = pairwise_distances(modes)   # pairs (0, 1), (0, 2), (1, 2)
        assert np.all(d[:, 0, 0] == 0) and np.all(d[:, 1, 0] == 1.0)
        assert np.all(d[:, 0, 1] == 1.0)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        RepellerParams(r=0.0)
    with pytest.raises(ValueError):
        RepellerParams(epsilon=0.0)
    with pytest.raises(ValueError):
        joint_collision_counts(np.zeros((1, 1, 2)), threshold_m=0.0)

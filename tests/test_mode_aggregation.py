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
from jointpref.preference_ranking import preference_cost


def make_pred(logits, trajs=None):
    """(trajectories, logits) of one scene, as aggregate_to_joint takes."""
    logits = np.asarray(logits, dtype=float)
    a, k = logits.shape
    if trajs is None:
        # distinct values so regrouping mistakes are detectable
        trajs = np.arange(a * k * 3 * 2, dtype=float).reshape(a, k, 3, 2)
    return trajs, logits


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
    return aggregate_to_joint(*pred)[1]


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
        joint, _ = aggregate_to_joint(*pred)
        np.testing.assert_allclose(joint.scene_logits, [1.75, 0.75, -0.5])
        np.testing.assert_allclose(joint.scene_probs,
                                   softmax(np.array([1.75, 0.75, -0.5])))

    def test_modes_pair_correct_trajectories(self):
        pred = make_pred([[2.0, 0.0, 1.0], [0.5, 1.5, -1.0]])
        joint, _ = aggregate_to_joint(*pred)
        # top mode pairs agent0 mode 0 with agent1 mode 1
        trajs = pred[0]
        np.testing.assert_array_equal(joint.modes[0, 0], trajs[0, 0])
        np.testing.assert_array_equal(joint.modes[0, 1], trajs[1, 1])
        np.testing.assert_array_equal(joint.modes[2, 0], trajs[0, 1])
        np.testing.assert_array_equal(joint.modes[2, 1], trajs[1, 2])

    def test_output_descending_by_scene_logit(self):
        rng = np.random.default_rng(4)
        pred = make_pred(rng.normal(size=(3, 6)))
        joint, _ = aggregate_to_joint(*pred)
        assert np.all(np.diff(joint.scene_logits) <= 0)
        assert np.all(np.diff(joint.scene_probs) <= 0)

    def test_trajectories_numerically_untouched(self):
        rng = np.random.default_rng(8)
        trajs = rng.normal(size=(2, 4, 5, 2))
        pred = make_pred(rng.normal(size=(2, 4)), trajs)
        joint, _ = aggregate_to_joint(*pred)
        flat_in = {tuple(trajs[i, k].ravel()) for i in range(2) for k in range(4)}
        flat_out = {tuple(joint.modes[k, i].ravel())
                    for k in range(4) for i in range(2)}
        assert flat_in == flat_out

    def test_single_agent_single_mode(self):
        pred = make_pred([[0.7]])
        joint, _ = aggregate_to_joint(*pred)
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
            joint, source = aggregate_to_joint(*pred)
            d_scene = rng.normal(size=k)
            d_agent = scene_logit_grad_to_agent_logits(d_scene, source)
            h = 1e-6
            for _ in range(5):
                i, m = int(rng.integers(a)), int(rng.integers(k))
                lp = logits.copy()
                lp[i, m] += h
                jp, _ = aggregate_to_joint(*make_pred(lp, trajs))
                lm = logits.copy()
                lm[i, m] -= h
                jm, _ = aggregate_to_joint(*make_pred(lm, trajs))
                fd = np.dot(d_scene, (jp.scene_logits - jm.scene_logits)) / (2 * h)
                assert d_agent[i, m] == pytest.approx(fd, abs=1e-6)

    def test_each_agent_gets_equal_share(self):
        pred = make_pred([[1.0, 0.0], [3.0, -1.0], [0.2, 0.1]])
        _, source = aggregate_to_joint(*pred)
        d_agent = scene_logit_grad_to_agent_logits(np.array([1.0, 0.0]), source)
        assert np.count_nonzero(d_agent) == 3
        assert np.allclose(d_agent[d_agent != 0], 1 / 3)


class TestSelectTopModes:
    def test_keeps_most_probable_and_renormalizes(self):
        pred = make_pred(np.arange(12, dtype=float).reshape(2, 6))
        joint, _ = aggregate_to_joint(*pred)
        top = select_top_modes(joint, 4)
        assert top.num_modes == 4
        np.testing.assert_array_equal(top.scene_logits, joint.scene_logits[:4])
        assert top.scene_probs.sum() == pytest.approx(1.0, abs=1e-12)
        # relative ordering within the kept set is preserved
        ratio = top.scene_probs / joint.scene_probs[:4]
        assert np.allclose(ratio, ratio[0])

    def test_n_equal_k_is_identity(self):
        pred = make_pred(np.random.default_rng(0).normal(size=(2, 5)))
        joint, _ = aggregate_to_joint(*pred)
        same = select_top_modes(joint, 5)
        np.testing.assert_allclose(same.scene_probs, joint.scene_probs,
                                   atol=1e-12)
        np.testing.assert_array_equal(same.modes, joint.modes)

    def test_twelve_modes_top_six_matches_bruteforce(self):
        rng = np.random.default_rng(42)
        pred = make_pred(rng.normal(size=(2, 12)),
                         np.zeros((2, 12, 2, 2)))
        joint, _ = aggregate_to_joint(*pred)
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
        joint, _ = aggregate_to_joint(*pred)
        with pytest.raises(ValueError):
            select_top_modes(joint, 0)
        with pytest.raises(ValueError):
            select_top_modes(joint, 3)


class TestMostLikelyFirst:
    """Joint modes come out most likely first, so their readers can take
    the front of the stack without a sort of their own."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_order_is_built_in(self, seed):
        rng = np.random.default_rng(seed)
        b, a, k = int(rng.integers(1, 4)), int(rng.integers(1, 7)), \
            int(rng.integers(1, 13))
        if rng.integers(2):   # a coarse grid, so sorts meet ties
            logits = 0.5 * rng.integers(-2, 3, size=(b, a, k)).astype(float)
        else:
            logits = rng.normal(size=(b, a, k))
        # endpoints on a coarse grid, so costs tie too
        trajs = rng.integers(-1, 2, size=(b, a, k, 2, 2)).astype(float)
        gt = rng.integers(-1, 2, size=(b, a, 2, 2)).astype(float)
        joint, source = aggregate_to_joint(trajs, logits)

        assert np.all(np.diff(joint.scene_logits, axis=-1) <= 0)
        np.testing.assert_array_equal(
            source, np.argsort(-logits, axis=-1, kind="stable"))

        for n in range(1, k + 1):
            top = select_top_modes(joint, n)
            keep = np.sort(np.argsort(-joint.scene_probs, axis=-1,
                                      kind="stable")[..., :n], axis=-1)
            probs = np.take_along_axis(joint.scene_probs, keep, -1)
            want = (np.take_along_axis(joint.modes,
                                       keep[..., None, None, None], -4),
                    np.take_along_axis(joint.scene_logits, keep, -1),
                    probs / probs.sum(axis=-1, keepdims=True))
            for got, expected in zip((top.modes, top.scene_logits,
                                      top.scene_probs), want):
                assert got.tobytes() == expected.tobytes()

        for lam in (0.0, 1e3):
            rec = preference_cost(joint, gt, lam=lam)
            # cost first, then the likelier mode, then the lower index
            np.testing.assert_array_equal(
                rec.ranking, np.lexsort((-joint.scene_probs, rec.cost)))


def aggregate_loop(trajectories, logits):
    """aggregate_to_joint one scene at a time, with the pairing written as
    loops: (modes, scene_logits, source)."""
    lead, (a, k) = logits.shape[:-2], logits.shape[-2:]
    modes = np.empty(lead + (k, a) + trajectories.shape[-2:])
    scene_logits = np.empty(lead + (k,))
    source = np.empty(lead + (a, k), dtype=np.intp)
    for s in np.ndindex(lead):
        paired = np.empty((a, k))
        for i in range(a):
            source[s + (i,)] = order = sorted(range(k),
                                              key=lambda m: -logits[s][i, m])
            for rank, m in enumerate(order):
                paired[i, rank] = logits[s][i, m]
                modes[s + (rank, i)] = trajectories[s][i, m]
        scene_logits[s] = paired.mean(axis=0)
    return modes, scene_logits, source


def scatter_loop(d_scene_logits, source):
    """scene_logit_grad_to_agent_logits one scene and agent at a time."""
    d_agent = np.zeros(source.shape)
    a = source.shape[-2]
    for s in np.ndindex(source.shape[:-2]):
        for i in range(a):
            for rank, m in enumerate(source[s][i]):
                d_agent[s + (i, m)] = d_scene_logits[s][rank] / a
    return d_agent


class TestIndexPathMatchesLoops:
    """The integer-index gather and scatter give the bits of per-scene
    loops, with or without leading axes, at A = 1 and with tied logits."""

    @given(st.lists(st.integers(1, 3), max_size=2), st.integers(1, 6),
           st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_gather_and_scatter(self, lead, a, k, t, seed, tied):
        rng = np.random.default_rng(seed)
        shape = tuple(lead) + (a, k)
        logits = (0.5 * rng.integers(-2, 3, size=shape) if tied
                  else rng.normal(size=shape))
        trajs = rng.normal(size=shape + (t, 2))
        joint, source = aggregate_to_joint(trajs, logits)
        modes, scene_logits, ref_source = aggregate_loop(trajs, logits)
        assert source.tobytes() == ref_source.tobytes()
        assert joint.modes.shape == modes.shape
        assert joint.modes.tobytes() == modes.tobytes()
        assert joint.scene_logits.tobytes() == scene_logits.tobytes()
        assert joint.scene_probs.tobytes() == softmax(scene_logits).tobytes()
        d_scene = rng.normal(size=tuple(lead) + (k,))
        d_agent = scene_logit_grad_to_agent_logits(d_scene, source)
        assert d_agent.shape == source.shape
        assert d_agent.tobytes() == scatter_loop(d_scene, source).tobytes()

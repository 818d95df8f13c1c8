"""Scoring functions on stacks of scenes against the same calls per scene.

Aggregation, ranking, the listwise loss, the direct cost and the metrics take
arrays with leading scene axes. A stack's b-th result must equal the
function's result on scene b alone, bit for bit, so batching them cannot
move a checkpoint or a report.
"""

import numpy as np
import pytest

from jointpref.collision_geometry import RepellerParams
from jointpref.eval_metrics import (
    scene_metrics,
    scene_pscr,
    scene_scr,
)
from jointpref.mode_aggregation import (
    aggregate_to_joint,
    scene_logit_grad_to_agent_logits,
    select_top_modes,
)
from jointpref.po_losses import (
    SimPOConfig,
    direct_cost_loss,
    pl_nll,
    pl_nll_from_logits,
    pl_nll_grad,
)
from jointpref.preference_ranking import (
    extract_preference_subset,
    preference_cost,
)
from jointpref.scene_model import JointModeSet, NonFiniteError

T_FUT = 8
PARAMS = RepellerParams(r=1.0)
SIMPO = SimPOConfig(beta=2.0, gamma=5.0)
CASES = [(b, k, a) for b in (1, 3, 16) for k in (6, 12) for a in (2, 3, 4)]


def same(stacked, single):
    """Equal shape, dtype and bytes: -0.0 and 0.0 or two NaNs differ."""
    stacked, single = np.asarray(stacked), np.asarray(single)
    assert stacked.shape == single.shape and stacked.dtype == single.dtype
    assert stacked.tobytes() == single.tobytes()


def each_scene(stacked, fn, *per_scene_args):
    """Compare every field of a stack's result with fn on each scene alone."""
    for b in range(len(per_scene_args[0])):
        alone = fn(*(arg[b] for arg in per_scene_args))
        fields = alone if isinstance(alone, tuple) else (alone,)
        whole = stacked if isinstance(stacked, tuple) else (stacked,)
        for got, want in zip(whole, fields):
            same(np.asarray(got)[b], want)


def make_case(b, k, a, seed=0):
    """B scenes of A agents a few meters apart, so repellers and collisions
    fire; logits on a coarse grid, so sorts meet ties."""
    rng = np.random.default_rng([seed, b, k, a])
    start = rng.uniform(-2.0, 2.0, size=(b, a, 1, 1, 2))
    vel = rng.normal(size=(b, a, k, 1, 2))
    t = np.arange(1, T_FUT + 1)[:, None] / T_FUT
    trajs = start + vel * t + 0.1 * rng.normal(size=(b, a, k, T_FUT, 2))
    logits = 0.5 * rng.integers(-2, 3, size=(b, a, k)).astype(float)
    gt = start[:, :, 0] + rng.normal(size=(b, a, 1, 2)) * t
    return trajs, logits, gt, rng


@pytest.fixture(params=CASES, ids=lambda c: "B{}-K{}-A{}".format(*c))
def case(request):
    b, k, a = request.param
    trajs, logits, gt, rng = make_case(b, k, a)
    joint, source = aggregate_to_joint(trajs, logits)
    singles = [aggregate_to_joint(trajs[i], logits[i]) for i in range(b)]
    return {"trajs": trajs, "logits": logits, "gt": gt, "rng": rng,
            "joint": joint, "source": source,
            "joints": [j for j, _ in singles],
            "sources": [s for _, s in singles]}


def fields(joint):
    return joint.modes, joint.scene_logits, joint.scene_probs


def test_aggregation(case):
    joint = case["joint"]
    assert joint.modes.flags.c_contiguous
    each_scene(fields(joint) + (case["source"],),
               lambda j, s: fields(j) + (s,), case["joints"], case["sources"])


def test_source_names_each_joint_modes_origin(case):
    """Joint mode k's agent i is agent i's marginal mode source[..., i, k],
    bit for bit, and each agent's row of source permutes its K modes."""
    modes, source, trajs = case["joint"].modes, case["source"], case["trajs"]
    b, a, k = source.shape
    for scene, i in np.ndindex(b, a):
        assert sorted(source[scene, i]) == list(range(k))
        for m in range(k):
            same(modes[scene, m, i], trajs[scene, i, source[scene, i, m]])


def test_logit_grad_to_agents(case):
    d_scene = case["rng"].normal(size=case["joint"].scene_logits.shape)
    each_scene(scene_logit_grad_to_agent_logits(d_scene, case["source"]),
               scene_logit_grad_to_agent_logits, d_scene, case["sources"])


def test_select_top_modes(case):
    k = case["joint"].num_modes
    for n in (1, k // 2, k):
        each_scene(fields(select_top_modes(case["joint"], n)),
                   lambda j: fields(select_top_modes(j, n)), case["joints"])


def record_fields(rec):
    return rec.avg_fde, rec.repeller, rec.cost, rec.ranking


def test_preference_cost(case):
    for lam in (0.0, 1e3):
        rec = preference_cost(case["joint"], case["gt"], lam=lam,
                              repeller_params=PARAMS)
        each_scene(record_fields(rec),
                   lambda j, g: record_fields(preference_cost(
                       j, g, lam=lam, repeller_params=PARAMS)),
                   case["joints"], case["gt"])


def test_plackett_luce(case):
    z = case["joint"].scene_logits
    tau = preference_cost(case["joint"], case["gt"],
                          repeller_params=PARAMS).ranking
    rewards = case["rng"].normal(size=z.shape) * 3.0
    each_scene(pl_nll(rewards, tau, 5.0), lambda r, t: pl_nll(r, t, 5.0),
               rewards, tau)
    each_scene(pl_nll_from_logits(z, tau, SIMPO),
               lambda zi, t: pl_nll_from_logits(zi, t, SIMPO), z, tau)
    each_scene(pl_nll_grad(z, tau, SIMPO),
               lambda zi, t: pl_nll_grad(zi, t, SIMPO), z, tau)


def test_plackett_luce_checks_every_row(case):
    z = case["joint"].scene_logits
    tau = np.tile(np.arange(z.shape[-1]), (len(z), 1))
    tau[-1, 0] = tau[-1, 1]
    with pytest.raises(ValueError, match="permutation"):
        pl_nll_grad(z, tau, SIMPO)


def test_direct_cost_loss(case):
    each_scene(direct_cost_loss(case["joint"], case["gt"], 10.0, PARAMS),
               lambda j, g: direct_cost_loss(j, g, 10.0, PARAMS),
               case["joints"], case["gt"])


def test_extraction_decision(case):
    """One chunk of the stack keeps what one chunk per scene keeps."""
    ids = [f"s{i}" for i in range(len(case["joints"]))]
    stack = [(ids, case["gt"], case["joint"])]
    scenes = [([i], g[None], JointModeSet(*(f[None] for f in fields(j))))
              for i, g, j in zip(ids, case["gt"], case["joints"])]
    assert (extract_preference_subset(stack, repeller_params=PARAMS, delta=2.5)
            == extract_preference_subset(scenes, repeller_params=PARAMS,
                                         delta=2.5))


def test_metrics(case):
    joint = select_top_modes(case["joint"], 6)
    joints = [select_top_modes(j, 6) for j in case["joints"]]
    ids = np.array([f"s{i}" for i in range(len(joints))])
    counts = case["rng"].integers(0, 2, size=joint.scene_logits.shape)
    each_scene(scene_scr(counts), scene_scr, counts)
    each_scene(scene_pscr(joint.scene_probs, counts), scene_pscr,
               joint.scene_probs, counts)
    def values(m):
        return m.scr, m.pscr, m.min_joint_fde, m.avg_fde_best

    m = scene_metrics(ids, joint, case["gt"])
    each_scene(values(m), lambda i, j, g: values(scene_metrics(i, j, g)),
               ids, joints, case["gt"])
    assert list(m.scene_id) == list(ids)


@pytest.mark.parametrize("b,k,a", [(16, 12, 3), (3, 6, 4)])
def test_non_contiguous_stack(b, k, a):
    """Per-mode sums follow memory order, so a strided view of the modes
    must give the bits of its contiguous copy."""
    trajs, logits, gt, _ = make_case(b, k, a, seed=1)
    modes = aggregate_to_joint(trajs, logits)[0].modes
    view = np.ascontiguousarray(modes.swapaxes(1, 2)).swapaxes(1, 2)
    assert not view.flags.c_contiguous
    probs = np.full((b, k), 1.0 / k)
    strided = JointModeSet(view, np.zeros((b, k)), probs)
    joint = JointModeSet(np.ascontiguousarray(view), np.zeros((b, k)), probs)
    same(record_fields(preference_cost(strided, gt, repeller_params=PARAMS))[1],
         record_fields(preference_cost(joint, gt, repeller_params=PARAMS))[1])
    for got, want in zip(direct_cost_loss(strided, gt, 1e3, PARAMS),
                         direct_cost_loss(joint, gt, 1e3, PARAMS)):
        same(got, want)
    strided_trajs = trajs.swapaxes(1, 2).copy().swapaxes(1, 2)
    assert not strided_trajs.flags.c_contiguous
    for got, want in zip(fields(aggregate_to_joint(strided_trajs, logits)[0]),
                         fields(aggregate_to_joint(trajs.copy(), logits)[0])):
        same(got, want)


def test_validation_applies_to_each_scene():
    trajs, logits, _, _ = make_case(3, 6, 2)
    bad = logits.copy()
    bad[2, 1, 0] = np.nan
    with pytest.raises(NonFiniteError, match="finite"):
        aggregate_to_joint(trajs, bad)
    joint, _ = aggregate_to_joint(trajs, logits)
    probs = joint.scene_probs.copy()
    probs[1] *= 1.01
    with pytest.raises(ValueError, match="distribution"):
        JointModeSet(joint.modes, joint.scene_logits, probs)
    with pytest.raises(ValueError, match="agent/mode"):
        aggregate_to_joint(trajs, logits[:, :, :4])


def test_stack_length_must_match_scene_list():
    trajs, logits, gt, _ = make_case(3, 6, 2)
    joint, _ = aggregate_to_joint(trajs, logits)
    with pytest.raises(ValueError, match="2 ids"):
        extract_preference_subset([(["a", "b"], gt, joint)],
                                  repeller_params=PARAMS, delta=2.5)

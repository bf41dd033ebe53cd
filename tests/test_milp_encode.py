import math

import numpy as np
import pytest

from compactpf.jacobian import LinearPFModel
from compactpf.pwl_learner import CompactPWLModel
from compactpf.milp_encode import (BigMBounds, BoundBox, FREE, FIXED_OFF,
                                   FIXED_ON, bound_box_from_network,
                                   interval_bounds, encode_relu_network,
                                   encode_linear_model, add_box_constraints,
                                   standalone_fragment, tighten_bounds,
                                   prune)
from compactpf import milp_solve
from compactpf.highs import MIPResult
from compactpf.milp_solve import solve_milp, solve_lp
from compactpf.errors import ValidationError
from compactpf.harness import big_m_bounds


def _toy_model(seed=0, d_in=2, d_out=2, rho=2):
    rng = np.random.default_rng(seed)
    lin = LinearPFModel(Jstar=rng.standard_normal((d_out, d_in)),
                        rstar=rng.standard_normal(d_out),
                        x0=np.zeros(d_in))
    return CompactPWLModel(w1=rng.standard_normal((d_in, rho)),
                           w2=rng.standard_normal((d_out, rho)),
                           b=rng.standard_normal(rho) * 0.1,
                           linear=lin)


def _toy_box(d_in=2):
    return BoundBox(x_lo=-np.ones(d_in), x_hi=np.ones(d_in))


def test_interval_bounds_hand_checked():
    lin = LinearPFModel(Jstar=np.zeros((1, 2)), rstar=np.zeros(1),
                        x0=np.zeros(2))
    model = CompactPWLModel(w1=np.array([[2.0], [-1.0]]),
                            w2=np.zeros((1, 1)), b=np.array([0.5]),
                            linear=lin)
    box = BoundBox(x_lo=np.array([0.0, -1.0]), x_hi=np.array([1.0, 2.0]))
    bounds = interval_bounds(model, box)
    # zhat = 2 x0 - x1 + 0.5 over [0,1] x [-1,2]
    assert bounds.m_min[0] == pytest.approx(-2.0 + 0.5)
    assert bounds.m_max[0] == pytest.approx(2.0 + 1.0 + 0.5)
    assert bounds.status == (FREE,)
    assert bounds.provenance == ("interval",)


def test_bigm_bounds_validation():
    with pytest.raises(ValidationError):
        BigMBounds(m_min=np.array([1.0]), m_max=np.array([0.0]),
                   status=(FREE,), provenance=("interval",))
    with pytest.raises(ValidationError):
        BigMBounds(m_min=np.array([-1.0]), m_max=np.array([1.0]),
                   status=(FIXED_OFF,), provenance=("interval",))
    with pytest.raises(ValidationError):
        BigMBounds(m_min=np.array([-1.0]), m_max=np.array([1.0]),
                   status=(FIXED_ON,), provenance=("interval",))


def test_bound_box_two_bus(net2, case2):
    box = bound_box_from_network(net2)
    assert np.array_equal(box.x_lo[:2], net2.vmin)
    assert np.array_equal(box.x_hi[:2], net2.vmax)
    # one line from the ref: angle reach is the line's angle limit
    assert box.x_hi[2] == pytest.approx(math.radians(30.0))
    assert box.x_lo[2] == pytest.approx(-math.radians(30.0))
    assert len(box.angle_pairs) == 1
    # flow outputs capped by the line rating in both directions
    assert box.y_hi[4] == pytest.approx(net2.smax[0])
    assert box.y_hi[5] == pytest.approx(net2.smax[0])


def test_bound_box_with_instance(net14, inst24, box14):
    n = net14.n
    # active injection upper bound covers max generation at each bus
    pmax_at = np.zeros(n)
    for g in inst24.gens:
        pmax_at[g.bus] += g.pmax
    assert np.all(box14.y_hi[:n] >= pmax_at - inst24.pd.min(axis=1) - 1e-12)
    # load buses can absorb at least the peak load (plus envelope)
    assert np.all(box14.y_lo[:n] <= -inst24.pd.max(axis=1) + 1e-12)
    assert len(box14.angle_pairs) == net14.m


def test_encoding_exact_on_box_inputs():
    model = _toy_model()
    box = _toy_box()
    bounds = interval_bounds(model, box)
    milp, frag = standalone_fragment(model, bounds, box)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(box.x_lo, box.x_hi)
        for j, xi in zip(frag.x, x):
            milp.lb[j] = milp.ub[j] = xi
        milp.obj = {frag.y[0]: 1.0}
        sol = solve_milp(milp)
        assert sol.status == "optimal"
        y = sol.x[frag.y]
        assert np.allclose(y, model.predict(x), atol=1e-8)


def test_prune_fixes_relus():
    bounds = BigMBounds(m_min=np.array([-2.0, 0.5, -1.0]),
                        m_max=np.array([-0.5, 2.0, 1.0]),
                        status=(FREE,) * 3, provenance=("interval",) * 3)
    pruned = prune(None, bounds)
    assert pruned.status == (FIXED_OFF, FIXED_ON, FREE)


def test_fixed_relus_encode_without_binaries():
    # shift biases so one ReLU is provably always on and one always off
    model = _toy_model(seed=3)
    norm = np.abs(model.w1).sum(axis=0)
    model.b = np.array([norm[0] + 1.0, -norm[1] - 1.0])
    box = _toy_box()
    pruned = prune(model, interval_bounds(model, box))
    assert pruned.status == (FIXED_ON, FIXED_OFF)
    milp, frag = standalone_fragment(model, pruned, box)
    assert milp.binary_indices() == []
    assert frag.beta == [None, None]
    # the binary-free encoding still reproduces the model exactly
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(box.x_lo, box.x_hi)
        for j, xi in zip(frag.x, x):
            milp.lb[j] = milp.ub[j] = xi
        milp.obj = {frag.y[0]: 1.0}
        sol = solve_lp(milp)
        assert sol.status == "optimal"
        assert np.allclose(sol.x[frag.y], model.predict(x), atol=1e-8)


def test_tighten_lp_never_looser():
    model = _toy_model(seed=4, rho=3)
    box = _toy_box()
    iv = interval_bounds(model, box)
    lp = tighten_bounds(model, box, mode="lp", start=iv)
    assert np.all(lp.m_min >= iv.m_min - 1e-9)
    assert np.all(lp.m_max <= iv.m_max + 1e-9)
    milp = tighten_bounds(model, box, mode="milp", start=lp)
    assert np.all(milp.m_min >= lp.m_min - 1e-9)
    assert np.all(milp.m_max <= lp.m_max + 1e-9)
    with pytest.raises(ValidationError):
        tighten_bounds(model, box, mode="heuristic", start=iv)


def _lp_settles_some():
    """A surrogate and box on which LP tightening from interval bounds
    settles ReLUs 2 and 3 (Mmax < 0), since the output bounds cut the box,
    and leaves ReLUs 0 and 1 free; with those LP bounds."""
    model = _toy_model(seed=20, d_in=3, rho=4)
    box = BoundBox(x_lo=-np.ones(3), x_hi=np.ones(3),
                   y_lo=np.full(2, -0.5), y_hi=np.full(2, 0.5))
    lp = tighten_bounds(model, box, mode="lp",
                        start=interval_bounds(model, box))
    return model, box, lp


def test_milp_tightening_skips_relus_its_start_settles(monkeypatch):
    model, box, lp = _lp_settles_some()
    open_ = prune(model, lp).free_relus()
    assert 0 < len(open_) < model.rho

    # reference: every ReLU's MILP extremes over the unpruned fragment
    ref_milp, ref_frag = standalone_fragment(model, lp, box)
    ref_min, ref_max = lp.m_min.copy(), lp.m_max.copy()
    for i in range(model.rho):
        ref_milp.obj = {ref_frag.zhat[i]: 1.0}
        ref_min[i] = max(ref_min[i],
                         solve_milp(ref_milp, gap_target=0.0).best_bound)
        ref_milp.obj = {ref_frag.zhat[i]: -1.0}
        ref_max[i] = min(ref_max[i],
                         -solve_milp(ref_milp, gap_target=0.0).best_bound)
    settled = [i for i in range(model.rho) if i not in open_]
    # the old loop moved a settled ReLU's bounds, or the test shows nothing
    assert np.any(ref_min[settled] > lp.m_min[settled] + 1e-6)

    calls = []
    real = milp_solve.mip

    def counted(c, A, lo, hi, lb, ub, bins, *args):
        calls.append(len(bins))
        return real(c, A, lo, hi, lb, ub, bins, *args)

    monkeypatch.setattr(milp_solve, "mip", counted)
    mi = tighten_bounds(model, box, mode="milp", start=lp)
    assert calls == [len(open_)] * (2 * len(open_))
    for i in settled:
        assert mi.m_min[i] == lp.m_min[i] and mi.m_max[i] == lp.m_max[i]
        assert mi.provenance[i] == lp.provenance[i]
    assert np.allclose(mi.m_min[open_], ref_min[open_], rtol=0, atol=1e-9)
    assert np.allclose(mi.m_max[open_], ref_max[open_], rtol=0, atol=1e-9)
    assert mi.status == lp.status


@pytest.mark.parametrize("status, dual_bound, proven", [
    (0, 0.0, True),             # the control: a proven bound moves
    (1, 0.0, False),            # a limit stop with a finite bound
    (0, -math.inf, False),      # "optimal" with no finite bound
    (0, math.inf, False),       # or an infinite one
])
def test_milp_tightening_takes_only_a_proven_dual_bound(
        monkeypatch, status, dual_bound, proven):
    model, box, lp = _lp_settles_some()
    open_ = prune(model, lp).free_relus()
    # 0 lies strictly inside every open ReLU's bounds, so a bound of 0
    # on each side would move both
    assert np.all(lp.m_min[open_] < -1e-6) and np.all(lp.m_max[open_] > 1e-6)
    monkeypatch.setattr(milp_solve, "mip", lambda *args: MIPResult(
        status, None, math.nan, 1, dual_bound))
    mi = tighten_bounds(model, box, mode="milp", start=lp)
    if proven:
        assert np.all(mi.m_min[open_] == 0.0)
        assert np.all(mi.m_max[open_] == 0.0)
        assert {mi.provenance[i] for i in open_} == {"milp"}
    else:
        assert np.array_equal(mi.m_min, lp.m_min)
        assert np.array_equal(mi.m_max, lp.m_max)
        assert mi.provenance == lp.provenance
    assert mi.status == lp.status


def test_milp_bound_mode_tightens_the_lp_bounds():
    model, box, lp = _lp_settles_some()
    chained = big_m_bounds(model, box, "milp")
    want = prune(model, tighten_bounds(model, box, mode="milp", start=lp))
    assert np.array_equal(chained.m_min, want.m_min)
    assert np.array_equal(chained.m_max, want.m_max)
    assert chained.status == want.status
    # the settled ReLUs keep their LP bounds and say so
    assert chained.provenance[2:] == ("lp", "lp")
    assert chained.free_count() == 2


def test_tightened_bounds_still_valid():
    model = _toy_model(seed=5, rho=3)
    box = _toy_box()
    tb = tighten_bounds(model, box, mode="milp",
                        start=interval_bounds(model, box))
    rng = np.random.default_rng(2)
    X = rng.uniform(box.x_lo, box.x_hi, (500, 2))
    Z = X @ model.w1 + model.b
    assert np.all(Z >= tb.m_min - 1e-7)
    assert np.all(Z <= tb.m_max + 1e-7)


def test_angle_pair_constraints_enforced():
    model = _toy_model(seed=6)
    box = BoundBox(x_lo=-np.ones(2), x_hi=np.ones(2),
                   angle_pairs=((0, 1, -0.25, 0.25),))
    bounds = interval_bounds(model, box)
    milp, frag = standalone_fragment(model, bounds, box)
    milp.obj = {frag.x[0]: -1.0, frag.x[1]: 1.0}  # maximize x0 - x1
    sol = solve_milp(milp)
    assert sol.status == "optimal"
    assert sol.x[frag.x[0]] - sol.x[frag.x[1]] <= 0.25 + 1e-8


def test_output_bounds_applied():
    model = _toy_model(seed=7)
    lo = np.full(2, -0.5)
    hi = np.full(2, 0.5)
    box = BoundBox(x_lo=-np.ones(2), x_hi=np.ones(2), y_lo=lo, y_hi=hi)
    bounds = interval_bounds(model, box)
    milp, frag = standalone_fragment(model, bounds, box)
    for r in frag.y:
        assert milp.variables[r].lb == pytest.approx(-0.5)
        assert milp.variables[r].ub == pytest.approx(0.5)


def test_encode_linear_model_affine():
    model = _toy_model(seed=8)
    box = _toy_box()
    from compactpf.milp_model import MILPModel
    milp = MILPModel()
    x = [milp.add_var(f"x[{j}]", lb=box.x_lo[j], ub=box.x_hi[j])
         for j in range(2)]
    frag = encode_linear_model(model.linear, milp, x)
    add_box_constraints(milp, frag, box)
    xval = np.array([0.3, -0.7])
    for j, xi in zip(frag.x, xval):
        milp.lb[j] = milp.ub[j] = xi
    milp.obj = {frag.y[0]: 1.0}
    sol = solve_lp(milp)
    assert sol.status == "optimal"
    assert np.allclose(sol.x[frag.y], model.linear.predict(xval), atol=1e-9)


def test_empty_box_rejected():
    with pytest.raises(ValidationError):
        BoundBox(x_lo=np.array([1.0]), x_hi=np.array([0.0]))

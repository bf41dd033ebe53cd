from dataclasses import replace

import numpy as np
import pytest

from compactpf.case_ingest import UCGen, UCInstance
from compactpf.jacobian import LinearPFModel
from compactpf import milp_encode, milp_solve, uc_builder
from compactpf.highs import HighsInstance, linprog
from compactpf.milp_encode import (bound_box_from_network, hourly_bounds,
                                   interval_bounds, prune, tighten_bounds)
from compactpf.milp_model import GE
from compactpf.milp_solve import solve_lp, solve_milp
from compactpf.pwl_learner import CompactPWLModel
from compactpf.uc_builder import (build_core_uc, build_nn_ac_uc,
                                  build_l_ac_uc, build_dc_uc,
                                  extract_schedule, schedule_to_json,
                                  schedule_from_json)
from compactpf.ac_solver import check_schedule_logic
from compactpf.errors import ValidationError
from compactpf.harness import big_m_bounds
from compactpf.tolerances import SMALL_MATRIX_VALUE


def _unit(name, bus, pmin, pmax, slope, **kw):
    base = dict(name=name, bus=bus, pmin=pmin, pmax=pmax,
                qmin=-0.3, qmax=0.3, su=pmax, sd=pmax, ru=pmax, rd=pmax,
                tu=1, td=1, p_init=0.0, init_status=-1,
                cost_segments=((pmax - pmin, slope),), no_load_cost=1.0,
                startup_tiers=((0, 5.0),))
    base.update(kw)
    return UCGen(**base)


def _tiny_inst(T=4, tu=1, td=1):
    gens = (
        _unit("a", 1, 0.1, 1.0, 10.0, tu=tu, td=td),
        _unit("b", 1, 0.1, 0.6, 30.0),
    )
    pd = np.zeros((1, T))
    qd = np.zeros((1, T))
    return UCInstance(horizon=T, gens=gens, condensers=(),
                      pd=pd, qd=qd, reserve=np.zeros(T))


def _add_demand(milp, ucv, inst, demand):
    """Stand-in for the network: total generation covers the demand."""
    G, T = inst.ngen, inst.horizon
    for t in range(T):
        coeffs = {}
        for gi, g in enumerate(inst.gens):
            coeffs[ucv.p_delta[gi][t]] = 1.0
            coeffs[ucv.y[gi][t]] = g.pmin
        milp.add_constr(coeffs, GE, demand[t], name=f"demand[{t}]")


def test_core_uc_economic_dispatch():
    inst = _tiny_inst()
    milp, ucv = build_core_uc(inst)
    _add_demand(milp, ucv, inst, [0.5, 0.5, 0.5, 0.5])
    sol = solve_milp(milp)
    assert sol.status == "optimal"
    sched = extract_schedule(milp, sol, inst, ucv)
    # the cheap unit alone covers the flat demand
    assert np.array_equal(sched.y[0], np.ones(4, dtype=int))
    assert np.array_equal(sched.y[1], np.zeros(4, dtype=int))
    assert np.allclose(sched.p_delta[0], 0.4, atol=1e-8)
    # cost: 4 h production + no-load, one startup
    expect = 4 * (0.4 * 10.0 + 1.0) + 5.0
    assert sched.objective == pytest.approx(expect, abs=1e-8)


def test_core_uc_min_uptime_binding():
    inst = _tiny_inst(T=4, tu=4)
    milp, ucv = build_core_uc(inst)
    # demand spike at t=2 forces the expensive unit on; min-up keeps the
    # cheap one committed throughout
    _add_demand(milp, ucv, inst, [0.5, 1.3, 0.5, 0.5])
    sol = solve_milp(milp)
    assert sol.status == "optimal"
    sched = extract_schedule(milp, sol, inst, ucv)
    assert check_schedule_logic(inst, sched.y, sched.u, sched.w) == []
    assert np.array_equal(sched.y[0], np.ones(4, dtype=int))


def test_core_uc_ramping_binding():
    inst = _tiny_inst()
    gens = (_unit("a", 1, 0.1, 1.0, 10.0, ru=0.3, rd=0.3),)
    inst = UCInstance(horizon=3, gens=gens, condensers=(),
                      pd=np.zeros((1, 3)), qd=np.zeros((1, 3)),
                      reserve=np.zeros(3))
    milp, ucv = build_core_uc(inst)
    _add_demand(milp, ucv, inst, [0.2, 0.2, 0.8])
    sol = solve_milp(milp)
    assert sol.status == "optimal"
    sched = extract_schedule(milp, sol, inst, ucv)
    steps = np.diff(sched.p_delta[0])
    assert np.all(steps <= 0.3 + 1e-8)
    # meeting t=3 demand requires ramping up above demand at t=2
    assert sched.p_delta[0][1] >= 0.4 - 1e-8


def test_core_uc_reserve():
    inst = _tiny_inst()
    inst = UCInstance(horizon=inst.horizon, gens=inst.gens,
                      condensers=(), pd=inst.pd, qd=inst.qd,
                      reserve=np.full(4, 0.5))
    milp, ucv = build_core_uc(inst)
    _add_demand(milp, ucv, inst, [0.9, 0.9, 0.9, 0.9])
    sol = solve_milp(milp)
    assert sol.status == "optimal"
    sched = extract_schedule(milp, sol, inst, ucv)
    assert np.all(sched.r.sum(axis=0) >= 0.5 - 1e-8)
    # reserve must ride on committed capacity
    for gi, g in enumerate(inst.gens):
        span = g.pmax - g.pmin
        assert np.all(sched.p_delta[gi] + sched.r[gi]
                      <= span * sched.y[gi] + 1e-8)


def test_startup_tier_cost_in_objective():
    gens = (_unit("a", 1, 0.1, 1.0, 10.0,
                  startup_tiers=((0, 5.0), (3, 50.0)), init_status=-5),)
    inst = UCInstance(horizon=2, gens=gens, condensers=(),
                      pd=np.zeros((1, 2)), qd=np.zeros((1, 2)),
                      reserve=np.zeros(2))
    milp, ucv = build_core_uc(inst)
    _add_demand(milp, ucv, inst, [0.5, 0.5])
    sol = solve_milp(milp)
    sched = extract_schedule(milp, sol, inst, ucv)
    # unit was down 5 hours: the cold 50.0 tier applies
    expect = 2 * (0.4 * 10.0 + 1.0) + 50.0
    assert sched.objective == pytest.approx(expect, abs=1e-8)


def test_dc_uc_feasible_and_balanced(net14, inst4):
    milp, ucv = build_dc_uc(inst4, net14)
    sol = solve_milp(milp, gap_target=0.01, time_budget=300.0)
    assert sol.status in ("optimal", "gap_reached")
    sched = extract_schedule(milp, sol, inst4, ucv, net=net14)
    assert check_schedule_logic(inst4, sched.y, sched.u, sched.w) == []
    # lossless model: total generation equals total load per period
    for t in range(inst4.horizon):
        gen = sum(sched.p_delta[gi, t] + g.pmin * sched.y[gi, t]
                  for gi, g in enumerate(inst4.gens))
        assert gen == pytest.approx(inst4.pd[:, t].sum(), abs=1e-6)
    assert sched.q is None
    assert sched.theta is not None


def test_l_ac_uc_solves(net14, inst4, lin14, box14):
    milp, ucv = build_l_ac_uc(inst4, net14, lin14, box=box14)
    sol = solve_milp(milp, gap_target=0.01, time_budget=300.0)
    assert sol.status in ("optimal", "gap_reached")
    sched = extract_schedule(milp, sol, inst4, ucv, net=net14)
    assert check_schedule_logic(inst4, sched.y, sched.u, sched.w) == []
    assert sched.v.shape == (inst4.horizon, net14.n)
    # voltages stay inside the engineering box
    assert np.all(sched.v <= net14.vmax + 1e-8)
    assert np.all(sched.v >= net14.vmin - 1e-8)
    # the affine surrogate balances exactly at the solution
    for t in range(inst4.horizon):
        x = np.concatenate([sched.v[t],
                            np.delete(sched.theta[t], net14.ref)])
        y = lin14.predict(x)
        p_bus = -inst4.pd[:, t].copy()
        for gi, g in enumerate(inst4.gens):
            p_bus[g.bus] += sched.p_delta[gi, t] + g.pmin * sched.y[gi, t]
        assert np.allclose(y[:net14.n], p_bus, atol=1e-6)


def test_nn_ac_uc_dimension_check(net14, inst4):
    lin = LinearPFModel(Jstar=np.zeros((3, 2)), rstar=np.zeros(3),
                        x0=np.zeros(2))
    bad = CompactPWLModel(w1=np.zeros((2, 1)), w2=np.zeros((3, 1)),
                          b=np.zeros(1), linear=lin)
    with pytest.raises(ValidationError):
        build_nn_ac_uc(inst4, net14, bad, None)


@pytest.mark.parametrize("build", ["dc", "l", "l_box", "nn_box", "box"])
def test_builders_reject_other_bus_count(net14, inst4, lin14, box14, build):
    """An instance with a load row too few is rejected with the
    dispatch-spec path's message, not a numpy error."""
    bad = replace(inst4, pd=inst4.pd[:-1], qd=inst4.qd[:-1])
    model = CompactPWLModel(w1=np.zeros((net14.d_in, 1)),
                            w2=np.zeros((net14.d_out, 1)), b=np.zeros(1),
                            linear=lin14)
    calls = {
        "dc": lambda: build_dc_uc(bad, net14),
        "l": lambda: build_l_ac_uc(bad, net14, lin14),
        "l_box": lambda: build_l_ac_uc(bad, net14, lin14, box=box14),
        "nn_box": lambda: build_nn_ac_uc(
            bad, net14, model, interval_bounds(model, box14), box=box14),
        "box": lambda: bound_box_from_network(net14, bad),
    }
    with pytest.raises(ValidationError, match="13 load rows, network has 14"):
        calls[build]()


@pytest.fixture(scope="module")
def lp_bounds8(compact8, box14):
    start = interval_bounds(compact8, box14)
    return prune(compact8, tighten_bounds(compact8, box14, mode="lp",
                                          start=start))


@pytest.fixture(scope="module")
def shared_and_hourly(net14, inst4, compact8, box14, lp_bounds8):
    """The NN-UC of uc14_t4 with the shared LP bounds in every period, and
    as built, with each period's bounds tightened over its own hour."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uc_builder, "hourly_bounds",
                   lambda model, bounds, box, inst: [bounds] * inst.horizon)
        shared = build_nn_ac_uc(inst4, net14, compact8, lp_bounds8, box=box14)
    hourly = build_nn_ac_uc(inst4, net14, compact8, lp_bounds8, box=box14)
    return shared, hourly


def test_hourly_bounds_are_valid_and_lose_nothing(inst4, compact8, box14,
                                                  lp_bounds8,
                                                  shared_and_hourly):
    per_hour = hourly_bounds(compact8, lp_bounds8, box14, inst4)
    assert len(per_hour) == inst4.horizon
    for b in per_hour:
        assert np.all(b.m_min >= lp_bounds8.m_min)
        assert np.all(b.m_max <= lp_bounds8.m_max)
    # some hour's load tightens some free ReLU, or the test shows nothing
    assert any(np.any(b.m_min > lp_bounds8.m_min)
               or np.any(b.m_max < lp_bounds8.m_max) for b in per_hour)

    (shared, ucv), (hourly, _) = shared_and_hourly
    s = solve_milp(shared, gap_target=0.0)
    h = solve_milp(hourly, gap_target=0.0)
    assert s.status == h.status == "optimal"
    # the shared model's optimum is a UC-feasible point: each hour's
    # pre-activations there lie within that hour's bounds
    for t, (frag, b) in enumerate(zip(ucv.frags, per_hour)):
        zhat = s.x[frag.x] @ compact8.w1 + compact8.b
        assert np.all(zhat >= b.m_min - 1e-7), t
        assert np.all(zhat <= b.m_max + 1e-7), t
    assert h.objective == pytest.approx(s.objective, rel=1e-6)

    # so does every point of the shared model's LP relaxation: its hour-t
    # slice meets every row of hour t's relaxation, so the LP extremes of
    # each pre-activation lie within that hour's bounds too
    A, lo, hi = shared.constraint_matrices()
    lb, ub = shared.lb, shared.ub
    inst = HighsInstance()
    for t, (frag, b) in enumerate(zip(ucv.frags, per_hour)):
        for i, j in enumerate(frag.zhat):
            c = np.zeros(shared.nvar)
            c[j] = 1.0
            low = linprog(c, A, lo, hi, lb, ub, inst)
            high = linprog(-c, A, lo, hi, lb, ub, inst)
            assert low.status == high.status == 0
            assert low.fun >= b.m_min[i] - 1e-7, (t, i)
            assert -high.fun <= b.m_max[i] + 1e-7, (t, i)


def test_repeated_load_columns_are_solved_once(monkeypatch, inst4, compact8,
                                              box14, lp_bounds8):
    # hours 1 and 3 of uc14_t4 share a load column; hour 2 now takes hour
    # 0's, so two columns are left
    pd, qd = inst4.pd.copy(), inst4.qd.copy()
    pd[:, 2], qd[:, 2] = pd[:, 0], qd[:, 0]
    inst = replace(inst4, pd=pd, qd=qd)
    distinct = np.unique(np.vstack([pd, qd]), axis=1).shape[1]
    assert distinct == 2
    free = lp_bounds8.free_count()
    assert free > 0

    calls = []
    real = milp_solve.linprog

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(milp_solve, "linprog", counted)
    per_hour = hourly_bounds(compact8, lp_bounds8, box14, inst)
    monkeypatch.undo()
    assert len(calls) == 2 * free * distinct

    for a, b in ((0, 2), (1, 3)):
        assert np.array_equal(per_hour[a].m_min, per_hour[b].m_min)
        assert np.array_equal(per_hour[a].m_max, per_hour[b].m_max)
        assert per_hour[a].status == per_hour[b].status
    for t, b in enumerate(per_hour):
        hour = replace(inst, horizon=1, pd=pd[:, t:t + 1], qd=qd[:, t:t + 1],
                       reserve=inst.reserve[t:t + 1])
        (alone,) = hourly_bounds(compact8, lp_bounds8, box14, hour)
        assert np.allclose(b.m_min, alone.m_min, rtol=0, atol=1e-9), t
        assert np.allclose(b.m_max, alone.m_max, rtol=0, atol=1e-9), t
        assert b.status == alone.status, t


def test_hourly_bounds_only_strengthen_the_root(shared_and_hourly):
    (shared, _), (hourly, _) = shared_and_hourly
    rs, rh = solve_lp(shared), solve_lp(hourly)
    assert rs.status == rh.status == "optimal"
    assert rh.objective >= rs.objective - 1e-9 * abs(rs.objective)
    assert len(hourly.binary_indices()) <= len(shared.binary_indices())


def test_dc_requires_reactance(net14, inst4):
    bad = replace(net14, branch_x=np.zeros(net14.m))
    with pytest.raises(ValidationError):
        build_dc_uc(inst4, bad)


def test_schedule_json_round_trip():
    inst = _tiny_inst()
    milp, ucv = build_core_uc(inst)
    _add_demand(milp, ucv, inst, [0.5, 0.5, 0.5, 0.5])
    sol = solve_milp(milp)
    sched = extract_schedule(milp, sol, inst, ucv)
    again = schedule_from_json(schedule_to_json(sched))
    assert np.array_equal(again.y, sched.y)
    assert np.array_equal(again.u, sched.u)
    assert np.array_equal(again.w, sched.w)
    assert np.array_equal(again.p_delta, sched.p_delta)
    assert again.objective == sched.objective
    assert again.v is None and sched.v is None
    with pytest.raises(ValidationError):
        schedule_from_json('{"kind": "other"}')


@pytest.mark.parametrize("formulation", ["nn", "linear"])
def test_noise_coefficients_left_out_keep_the_lp_point(
        monkeypatch, net14, inst4, lin14, compact8, box14, formulation):
    """The NN- and L-UC leave out the Jacobian and weight coefficients
    HiGHS drops, and their LP relaxations give the same point, bit for bit,
    as the models that keep them."""
    bounds = big_m_bounds(compact8, box14, "lp")

    def build():
        if formulation == "nn":
            return build_nn_ac_uc(inst4, net14, compact8, bounds,
                                  box=box14)[0]
        return build_l_ac_uc(inst4, net14, lin14, box=box14)[0]

    model = build()
    monkeypatch.setattr(milp_encode, "SMALL_MATRIX_VALUE", 0.0)
    noisy = build()
    A, B = model.constraint_matrices()[0], noisy.constraint_matrices()[0]
    noise = np.abs(B.data) <= SMALL_MATRIX_VALUE
    assert noise.any() and np.all(np.abs(A.data) > SMALL_MATRIX_VALUE)
    assert A.nnz == B.nnz - noise.sum()
    got, want = solve_lp(model), solve_lp(noisy)
    assert got.status == want.status == "optimal"
    assert got.x.tobytes() == want.x.tobytes()

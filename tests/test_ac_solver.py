from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy import _core

from compactpf import ac_solver, grid_model, jacobian
from compactpf.ac_solver import (HighsInstance, InfeasibleError, linprog,
                                 load_cover, slp_acopf, make_dispatch_spec,
                                 check_schedule_logic, startup_cost_of,
                                 commitment_cost, production_cost,
                                 mtp_acopf_check, specs_from_schedule)
from compactpf.case_ingest import UCGen
from compactpf.errors import ValidationError
from compactpf.harness import FORMULATIONS, big_m_bounds, build_formulation
from compactpf.milp_solve import solve_milp
from compactpf.tolerances import PRIMAL_TOL
from compactpf.uc_builder import extract_schedule


def test_slp_acopf_hour1(net14, inst24):
    spec = make_dispatch_spec(net14, inst24, 0)
    op, dispatch = slp_acopf(net14, spec)
    # solution respects box and thermal limits
    assert np.all(op.v <= net14.vmax + 1e-7)
    assert np.all(op.v >= net14.vmin - 1e-7)
    assert np.all(op.s_ft <= net14.smax + 1e-6)
    assert np.all(op.s_tf <= net14.smax + 1e-6)
    # nonlinear balance: injections equal generation minus load
    p_bus = -inst24.pd[:, 0].copy()
    q_bus = -inst24.qd[:, 0].copy()
    for g, pdel, q in zip(spec.units, dispatch["p_delta"], dispatch["q"]):
        p_bus[g.bus] += g.pmin + pdel
        q_bus[g.bus] += q
    for c, q in zip(spec.condensers, dispatch["q_sc"]):
        q_bus[c.bus] += q
    assert np.max(np.abs(op.p_inj - p_bus)) < 1e-6
    assert np.max(np.abs(op.q_inj - q_bus)) < 1e-6
    # production covers load plus (nonnegative) losses
    total_gen = sum(g.pmin + d for g, d in zip(spec.units,
                                               dispatch["p_delta"]))
    assert total_gen >= inst24.pd[:, 0].sum() - 1e-6
    assert dispatch["cost"] > 0


def test_slp_reserve_honored(net14, inst24):
    spec = make_dispatch_spec(net14, inst24, 0)
    spec.reserve = 0.3
    _, dispatch = slp_acopf(net14, spec)
    assert np.sum(dispatch["r"]) >= 0.3 - 1e-6
    for cap, d, r in zip(spec.cap_a, dispatch["p_delta"], dispatch["r"]):
        assert d + r <= cap + 1e-8


def test_slp_infeasible_when_all_units_off(net14, inst24):
    spec = make_dispatch_spec(net14, inst24, 0,
                              off=tuple(range(inst24.ngen)))
    with pytest.raises(InfeasibleError):
        slp_acopf(net14, spec)


@pytest.mark.parametrize("off", [(), (0,), (1, 3), (0, 2, 3),
                                 (0, 1, 2, 3)])
def test_dispatch_spec_is_schedule_hour(net14, inst24, off):
    """make_dispatch_spec(hour, off) is hour `hour` of specs_from_schedule
    with every unit but `off` committed and no startup or shutdown."""
    G, T = inst24.ngen, inst24.horizon
    y = np.ones((G, T), dtype=int)
    y[list(off)] = 0
    zero = np.zeros((G, T), dtype=int)
    specs = specs_from_schedule(net14, inst24, y, zero, zero)
    for hour in range(T):
        got = make_dispatch_spec(net14, inst24, hour, off=off)
        want = specs[hour]
        assert np.array_equal(got.on, want.on)
        assert np.array_equal(got.cap_a, want.cap_a)
        assert np.array_equal(got.cap_b, want.cap_b)
        assert got.units is want.units
        assert got.condensers is want.condensers
        assert np.array_equal(got.pd, want.pd)
        assert np.array_equal(got.qd, want.qd)
        assert got.reserve == want.reserve


def test_dispatch_specs_reject_other_bus_count(net14, inst4):
    """An instance with a load row too few is rejected before any LP."""
    bad = replace(inst4, pd=inst4.pd[:-1], qd=inst4.qd[:-1])
    assert bad.pd.shape[0] == net14.n - 1
    y = np.ones((bad.ngen, bad.horizon), dtype=int)
    zero = np.zeros_like(y)
    with pytest.raises(ValidationError, match="load rows"):
        make_dispatch_spec(net14, bad, 0)
    with pytest.raises(ValidationError, match="load rows"):
        specs_from_schedule(net14, bad, y, zero, zero)


def test_dispatch_specs_share_the_instance_units(net14, inst4):
    """Every spec holds the instance's own units and condensers; an off
    unit has no capacity."""
    y, u, w = _all_on_schedule(inst4)
    y[2], u[2] = 0, 0
    specs = specs_from_schedule(net14, inst4, y, u, w)
    specs.append(make_dispatch_spec(net14, inst4, 1, off=(2,)))
    for spec in specs:
        assert spec.units is inst4.gens
        assert spec.condensers is inst4.condensers
        assert not spec.on[2]
        assert spec.cap_a[2] == spec.cap_b[2] == 0.0


def _all_on_schedule(inst):
    G, T = inst.ngen, inst.horizon
    y = np.ones((G, T), dtype=int)
    u = np.zeros((G, T), dtype=int)
    w = np.zeros((G, T), dtype=int)
    for gi, g in enumerate(inst.gens):
        if not g.init_on:
            u[gi, 0] = 1
    return y, u, w


def test_schedule_logic_valid(inst4):
    y, u, w = _all_on_schedule(inst4)
    assert check_schedule_logic(inst4, y, u, w) == []


def test_schedule_logic_catches_transition(inst4):
    y, u, w = _all_on_schedule(inst4)
    y[0, 2] = 0  # off for one hour without a shutdown event
    problems = check_schedule_logic(inst4, y, u, w)
    assert any("y transition" in p for p in problems)


def test_schedule_logic_catches_min_uptime():
    g = _tiered_gen(tu=3, td=1, init_status=-3)
    inst = SimpleNamespace(gens=(g,), horizon=4)
    # start at t=1 then shut down inside the 3-hour min-up window
    y = np.array([[1, 0, 0, 0]])
    u = np.array([[1, 0, 0, 0]])
    w = np.array([[0, 1, 0, 0]])
    problems = check_schedule_logic(inst, y, u, w)
    assert any("min-uptime" in p for p in problems)


def test_schedule_logic_catches_min_downtime():
    g = _tiered_gen(tu=1, td=3, init_status=2, p_init=0.3)
    inst = SimpleNamespace(gens=(g,), horizon=4)
    # shut down at t=1 then restart after only one hour down
    y = np.array([[0, 1, 1, 1]])
    u = np.array([[0, 1, 0, 0]])
    w = np.array([[1, 0, 0, 0]])
    problems = check_schedule_logic(inst, y, u, w)
    assert any("min-downtime" in p for p in problems)


def _tiered_gen(**kw):
    base = dict(name="g", bus=1, pmin=0.1, pmax=0.5, qmin=-0.3, qmax=0.3,
                su=0.5, sd=0.5, ru=0.5, rd=0.5, tu=1, td=1,
                p_init=0.0, init_status=-3,
                cost_segments=((0.4, 20.0),), no_load_cost=5.0,
                startup_tiers=((0, 10.0), (2, 25.0), (5, 60.0)))
    base.update(kw)
    return UCGen(**base)


def test_startup_cost_tiers():
    g = _tiered_gen()
    w_hist = {0: 1}  # shut down one hour before the start

    def w1(t):
        return w_hist.get(t, 0)

    assert startup_cost_of(g, 1, w1) == pytest.approx(10.0)  # 1h down
    w_hist = {-1: 1}
    assert startup_cost_of(g, 1, w1) == pytest.approx(25.0)  # 2h down
    w_hist = {-2: 1}
    # pre-horizon shutdown at t = 1 + init_status: 3 hours down at t=1
    assert startup_cost_of(g, 1, w1) == pytest.approx(25.0)
    assert startup_cost_of(g, 3, w1) == pytest.approx(60.0)  # 5h down
    w_hist = {}
    # no shutdown ever observed: coldest tier
    assert startup_cost_of(g, 1, w1) == pytest.approx(60.0)


def test_commitment_cost():
    g = _tiered_gen()
    inst = SimpleNamespace(gens=(g,), horizon=3)
    y = [[0, 1, 1]]
    u = [[0, 1, 0]]
    w = [[0, 0, 0]]
    # unit down 3 (init) + 1 hours when started at t=2 -> 25.0 tier
    assert commitment_cost(inst, y, u, w) == pytest.approx(2 * 5.0 + 25.0)


def test_production_cost_segments():
    g = _tiered_gen(cost_segments=((0.2, 10.0), (0.2, 30.0)))
    inst = SimpleNamespace(gens=(g,), horizon=1)
    # 0.3 above Pmin: fills the cheap segment then 0.1 of the steep one
    pd = np.array([[0.3]])
    assert production_cost(inst, pd) == pytest.approx(0.2 * 10 + 0.1 * 30)


def test_mtp_check_rejects_bad_logic(net14, inst4):
    y, u, w = _all_on_schedule(inst4)
    y[0, 1] = 0
    sched = SimpleNamespace(y=y, u=u, w=w)
    with pytest.raises(ValidationError):
        mtp_acopf_check(net14, inst4, sched)


def _check_shape(net, inst, y, u, w):
    with pytest.raises(ValidationError, match="shape"):
        mtp_acopf_check(net, inst, SimpleNamespace(y=y, u=u, w=w))


def test_mtp_check_rejects_short_horizon(net14, inst4, inst24):
    """A 4-h schedule does not pass as an audit of 24 hours."""
    _check_shape(net14, inst24, *_all_on_schedule(inst4))


def test_mtp_check_rejects_long_horizon(net14, inst4):
    y, u, w = (np.pad(a, ((0, 0), (0, 26))) for a in _all_on_schedule(inst4))
    y[:] = 1
    _check_shape(net14, inst4, y, u, w)


def test_mtp_check_rejects_extra_unit(net14, inst4):
    y, u, w = (np.vstack([a, a[:1]]) for a in _all_on_schedule(inst4))
    _check_shape(net14, inst4, y, u, w)


def test_mtp_check_rejects_missing_unit(net14, inst4):
    y, u, w = (a[:-1] for a in _all_on_schedule(inst4))
    _check_shape(net14, inst4, y, u, w)


def test_mtp_check_all_on_feasible(net14, inst4):
    y, u, w = _all_on_schedule(inst4)
    report = mtp_acopf_check(net14, inst4, SimpleNamespace(y=y, u=u, w=w))
    assert report.verdict == "feasible"
    assert report.max_violation < 1e-6
    assert np.isfinite(report.objective)
    assert len(report.points) == inst4.horizon
    # ramp coupling holds across consecutive periods
    for gi, g in enumerate(inst4.gens):
        for t in range(1, inst4.horizon):
            step = report.p_delta[gi, t] - report.p_delta[gi, t - 1]
            assert step <= g.ru + 1e-6
            assert -step <= g.rd + 1e-6


def test_mtp_objective_counts_no_load_once(net14, inst4):
    y, u, w = _all_on_schedule(inst4)
    report = mtp_acopf_check(net14, inst4, SimpleNamespace(y=y, u=u, w=w))
    expect = production_cost(inst4, report.p_delta) \
        + commitment_cost(inst4, y, u, w)
    assert report.objective == pytest.approx(expect, rel=1e-9)


def _no_lp(*args):
    raise AssertionError("an LP ran")


def test_short_of_load_is_screened_before_any_lp(monkeypatch, net14, inst24):
    """With only unit 4 committed at the peak hour the unit cannot cover
    the load: slp_acopf raises InfeasibleError itself (the class the
    sampler and the benchmark tally), reason "short_of_load", with no LP."""
    monkeypatch.setattr(ac_solver, "linprog", _no_lp)
    peak = int(np.argmax(inst24.pd.sum(axis=0)))
    spec = make_dispatch_spec(net14, inst24, peak, off=(0, 1, 2))
    (most,), (need,), margin = load_cover(net14, [spec])
    # Pmax less the reserve it must hold back
    assert most == pytest.approx(inst24.gens[3].pmax - inst24.reserve[peak])
    assert most < need - margin
    with pytest.raises(InfeasibleError, match="period 0") as info:
        slp_acopf(net14, spec)
    assert type(info.value) is InfeasibleError
    assert info.value.reason == "short_of_load"


def test_oracle_screens_a_short_period(monkeypatch, net14, inst4):
    """A schedule with one period short of load gets "infeasible" with 0
    iterations and a detail naming that period, with no LP."""
    monkeypatch.setattr(ac_solver, "linprog", _no_lp)
    pd, qd = inst4.pd.copy(), inst4.qd.copy()
    pd[:, 2] *= 3.0
    qd[:, 2] *= 3.0
    short = replace(inst4, pd=pd, qd=qd)
    y, u, w = _all_on_schedule(short)
    most, need, margin = load_cover(
        net14, specs_from_schedule(net14, short, y, u, w))
    assert (most < need - margin).tolist() == [False, False, True, False]
    report = mtp_acopf_check(net14, short, SimpleNamespace(y=y, u=u, w=w))
    assert (report.verdict, report.iterations) == ("infeasible", 0)
    assert report.detail.startswith("period 2: ")


def test_screen_margin_is_highs_tolerance():
    """The screen's margin assumes HiGHS's default primal tolerance."""
    assert HighsInstance().highs.getOptionValue(
        "primal_feasibility_tolerance")[1] == PRIMAL_TOL


class _Captured(Exception):
    pass


def _first_lp(monkeypatch, net, specs, ramps):
    """The LP of the SLP's first iterate, as it is handed to HiGHS."""
    seen = {}

    def capture(c, A, lo, hi, lb, ub, *_):
        seen.update(c=c, A=A, lo=lo, hi=hi, lb=lb, ub=ub)
        raise _Captured

    monkeypatch.setattr(ac_solver, "linprog", capture)
    with pytest.raises(_Captured):
        ac_solver._solve_slp(net, specs, ramps=ramps)
    return seen


def _reference_lp(net, specs, ramps, radius):
    """The first iterate's LP at the flat start, built dense one row at a
    time: thermal, angle, capacity and reserve rows per period, then cost
    epigraph and ramp rows, then the balance rows of every period."""
    T, n, m = len(specs), net.n, net.m
    units, conds = specs[0].units, specs[0].condensers
    G, C = len(units), len(conds)
    nonref = [b for b in range(n) if b != net.ref]
    off, per = {}, 0
    for name, size in (("dv", n), ("dth", n - 1), ("pd", G), ("r", G),
                       ("q", G), ("qsc", C), ("spp", n), ("spm", n),
                       ("sqp", n), ("sqm", n), ("sth", 2 * m)):
        off[name] = per
        per += size

    def col(t, name, k):
        return per * t + off[name] + k

    cost_col = {}
    for t, spec in enumerate(specs):
        for gi, g in enumerate(units):
            if spec.on[gi] and g.cost_segments:
                cost_col[t, gi] = per * T + len(cost_col)
    nvar = per * T + len(cost_col)

    v = np.clip(1.0, net.vmin, net.vmax)
    theta = np.zeros(n)
    op = grid_model.eval_power_flow(net, v, theta)
    Jpq = jacobian.injection_jacobian(net, v, theta)
    Jsf = jacobian.apparent_flow_jacobian(net, v, theta, "ft")
    Jst = jacobian.apparent_flow_jacobian(net, v, theta, "tf")

    def jac_row(t, row2n):
        row = {col(t, "dv", b): row2n[b] for b in range(n)}
        row.update({col(t, "dth", k): row2n[n + b]
                    for k, b in enumerate(nonref)})
        return row

    ub_rows, eq_rows = [], []     # (coefficients by column, bound)
    for t, spec in enumerate(specs):
        for k in range(m):
            for Js, s0, side in ((Jsf, op.s_ft, 0), (Jst, op.s_tf, m)):
                row = jac_row(t, Js[k])
                row[col(t, "sth", side + k)] = -1.0
                ub_rows.append((row, net.smax[k] - s0[k]))
        for k in range(m):
            i, j = int(net.f_bus[k]), int(net.t_bus[k])
            row = {}
            if i != net.ref:
                row[col(t, "dth", nonref.index(i))] = 1.0
            if j != net.ref:
                row[col(t, "dth", nonref.index(j))] = -1.0
            ub_rows.append((row, net.theta_max[k]))
            ub_rows.append(({c: -x for c, x in row.items()},
                            -net.theta_min[k]))
        for gi in range(G):
            if spec.on[gi]:
                ub_rows.append(({col(t, "pd", gi): 1.0,
                                 col(t, "r", gi): 1.0}, spec.cap_a[gi]))
        if spec.reserve > 0.0:
            ub_rows.append(({col(t, "r", gi): -1.0 for gi in range(G)},
                            -spec.reserve))
    for (t, gi), cv in cost_col.items():
        acc_w = acc_c = 0.0
        for width, slope in units[gi].cost_segments:
            ub_rows.append(({col(t, "pd", gi): slope, cv: -1.0},
                            slope * acc_w - acc_c))
            acc_c += slope * width
            acc_w += width
    for t in range(T):
        for gi in range(G):
            cur, res = col(t, "pd", gi), col(t, "r", gi)
            if t == 0:
                ub_rows.append(({cur: 1.0, res: 1.0},
                                ramps.up[gi] + ramps.p_delta0[gi]))
                ub_rows.append(({cur: -1.0},
                                ramps.down[gi] - ramps.p_delta0[gi]))
            else:
                prev = col(t - 1, "pd", gi)
                ub_rows.append(({cur: 1.0, res: 1.0, prev: -1.0},
                                ramps.up[gi]))
                ub_rows.append(({cur: -1.0, prev: 1.0}, ramps.down[gi]))
    for t, spec in enumerate(specs):
        for b in range(n):
            row = jac_row(t, Jpq[b])
            rhs = -op.p_inj[b] - spec.pd[b]
            for gi, g in enumerate(units):
                if spec.on[gi] and g.bus == b:
                    row[col(t, "pd", gi)] = -1.0
                    rhs += g.pmin
            row[col(t, "spp", b)] = -1.0
            row[col(t, "spm", b)] = 1.0
            eq_rows.append((row, rhs))
        for b in range(n):
            row = jac_row(t, Jpq[n + b])
            for gi, g in enumerate(units):
                if spec.on[gi] and g.bus == b:
                    row[col(t, "q", gi)] = -1.0
            for ci, cond in enumerate(conds):
                if cond.bus == b:
                    row[col(t, "qsc", ci)] = -1.0
            row[col(t, "sqp", b)] = -1.0
            row[col(t, "sqm", b)] = 1.0
            eq_rows.append((row, -op.q_inj[b] - spec.qd[b]))

    rows = ub_rows + eq_rows
    A = np.zeros((len(rows), nvar))
    for r, (row, _) in enumerate(rows):
        for j, x in row.items():
            A[r, j] = x
    hi = np.array([bound for _, bound in rows])
    lo = np.concatenate([np.full(len(ub_rows), -np.inf),
                         [bound for _, bound in eq_rows]])

    c = np.zeros(nvar)
    lb = np.zeros(nvar)
    ub = np.full(nvar, np.inf)
    for t, spec in enumerate(specs):
        dv = slice(col(t, "dv", 0), col(t, "dv", n))
        lb[dv] = np.maximum(net.vmin - v, -radius)
        ub[dv] = np.minimum(net.vmax - v, radius)
        dth = slice(col(t, "dth", 0), col(t, "dth", n - 1))
        lb[dth], ub[dth] = -radius, radius
        for gi, g in enumerate(units):
            ub[col(t, "pd", gi)] = spec.cap_b[gi] if spec.on[gi] else 0.0
            ub[col(t, "r", gi)] = np.inf if spec.on[gi] else 0.0
            lb[col(t, "q", gi)] = g.qmin if spec.on[gi] else 0.0
            ub[col(t, "q", gi)] = g.qmax if spec.on[gi] else 0.0
        for ci, cond in enumerate(conds):
            lb[col(t, "qsc", ci)] = cond.qmin
            ub[col(t, "qsc", ci)] = cond.qmax
        c[col(t, "spp", 0):col(t, "sth", 2 * m)] = ac_solver.SLACK_PENALTY
    c[per * T:] = 1.0
    return dict(c=c, A=A, lo=lo, hi=hi, lb=lb, ub=ub)


def _inst4_ramps(inst):
    return SimpleNamespace(up=np.array([g.ru for g in inst.gens]),
                           down=np.array([g.rd for g in inst.gens]),
                           p_delta0=np.array([max(g.p_init - g.pmin, 0.0)
                                              for g in inst.gens]))


@pytest.mark.parametrize("hours, off", [((0, 1), (2,)), ((1,), ())])
def test_slp_lp_matches_row_reference(monkeypatch, net14, inst4, hours, off):
    specs = [make_dispatch_spec(net14, inst4, h, off=off) for h in hours]
    assert inst4.condensers and all(s.reserve > 0 for s in specs)
    got = _first_lp(monkeypatch, net14, specs, True)
    ref = _reference_lp(net14, specs, _inst4_ramps(inst4),
                        ac_solver.INITIAL_RADIUS)
    for key in ("c", "lo", "hi", "lb", "ub"):
        assert np.array_equal(got[key], ref[key]), key
    # the flat start (sin 0) leaves exact zeros among the Jacobian entries;
    # HiGHS must get the dense matrix's nonzeros in the same CSC order
    A, dense = got["A"], sparse.csc_array(ref["A"])
    assert A.shape == dense.shape
    assert np.all(A.data != 0.0)
    assert np.array_equal(A.indptr, dense.indptr)
    assert np.array_equal(A.indices, dense.indices)
    assert np.array_equal(A.data, dense.data)


@pytest.mark.parametrize("hours, off", [((0, 1), (2,)), ((1,), ())])
def test_linprog_cold_solve_matches_milp(monkeypatch, net14, inst4, hours,
                                         off):
    specs = [make_dispatch_spec(net14, inst4, h, off=off) for h in hours]
    lp = _first_lp(monkeypatch, net14, specs, True)
    args = [lp[k] for k in ("c", "A", "lo", "hi", "lb", "ub")]
    got = linprog(*args, HighsInstance())
    ref = milp(lp["c"], constraints=LinearConstraint(lp["A"], lp["lo"],
                                                     lp["hi"]),
               bounds=Bounds(lp["lb"], lp["ub"]))
    assert got.status == ref.status == 0
    assert np.array_equal(got.x, ref.x)
    assert got.fun == ref.fun


def test_linprog_warm_resolve_matches_cold_milp(monkeypatch, net14, inst4):
    specs = [make_dispatch_spec(net14, inst4, h) for h in (0, 1)]
    lp = _first_lp(monkeypatch, net14, specs, True)
    c, A, lo, hi, lb, ub = (lp[k] for k in ("c", "A", "lo", "hi", "lb", "ub"))
    inst = HighsInstance()
    assert linprog(c, A, lo, hi, lb, ub, inst).status == 0
    # shrink the trust region and move the balance targets, as a second
    # order correction does: the same matrix, other bounds
    lb2, ub2 = 0.5 * lb, 0.5 * ub
    lo2, hi2 = lo.copy(), hi.copy()
    eq = np.isfinite(lo)
    lo2[eq] += 1e-3
    hi2[eq] += 1e-3
    warm = linprog(c, A, lo2, hi2, lb2, ub2, inst)
    warm_iters = _simplex_iters(inst)
    cold = milp(c, constraints=LinearConstraint(A, lo2, hi2),
                bounds=Bounds(lb2, ub2))
    assert warm.status == cold.status == 0
    assert warm.fun == pytest.approx(cold.fun, rel=1e-9)
    # both the LP with other bounds and a new matrix (the next step LP)
    # start warm from the last basis, not from scratch
    fresh = HighsInstance()
    assert linprog(c, A, lo2, hi2, lb2, ub2, fresh).status == 0
    cold_iters = _simplex_iters(fresh)
    assert warm_iters < cold_iters
    assert linprog(c, A.copy(), lo2, hi2, lb2, ub2, inst).status == 0
    assert _simplex_iters(inst) < cold_iters


def test_linprog_reads_bounds_updated_in_place():
    """An LP whose bounds array the caller changed in place is solved with
    the new bounds, as a fresh instance solves it."""
    c, A = np.array([-1.0, -1.0]), sparse.csc_array(np.array([[1.0, 1.0]]))
    lo, hi = np.array([-np.inf]), np.array([10.0])
    lb, ub = np.zeros(2), np.ones(2)
    inst = HighsInstance()
    first = linprog(c, A, lo, hi, lb, ub, inst)
    assert np.array_equal(first.x, [1.0, 1.0]) and first.fun == -2.0
    ub[:] = 3.0
    again = linprog(c, A, lo, hi, lb, ub, inst)
    fresh = linprog(c, A, lo, hi, lb, ub, HighsInstance())
    assert np.array_equal(again.x, [3.0, 3.0]) and again.fun == -6.0
    assert np.array_equal(fresh.x, again.x) and fresh.fun == again.fun


def _simplex_iters(inst):
    return inst.highs.getInfo().simplex_iteration_count


def _tiny(c, lo, hi, lb, ub, a=((1.0, 1.0),)):
    return linprog(np.array(c, dtype=float), sparse.csc_array(np.array(a)),
                   np.array(lo, dtype=float), np.array(hi, dtype=float),
                   np.array(lb, dtype=float), np.array(ub, dtype=float),
                   HighsInstance())


def test_linprog_statuses():
    inf = np.inf
    assert _tiny([1, 1], [3], [inf], [0, 0], [1, 1]).status == 2
    assert _tiny([-1, -1], [1], [inf], [0, 0], [inf, inf]).status == 3
    ok = _tiny([1, 2], [1], [inf], [0, 0], [1, 1])
    assert ok.status == 0 and ok.fun == pytest.approx(1.0)


@pytest.mark.parametrize("c, a", [
    ([np.nan, 1.0], ((1.0, 1.0),)),     # HiGHS reports "optimal", NaN cost
    ([1.0, 1.0], ((np.inf, 1.0),)),     # HiGHS rejects the model
])
def test_linprog_rejected_model_is_not_infeasible(c, a):
    res = _tiny(c, [1], [np.inf], [0, 0], [1, 1], a)
    assert res.status == 4
    assert res.x is None


class _CountRuns:
    """A HiGHS instance that counts its ``run`` calls."""

    def __init__(self, highs, runs):
        self._highs, self._runs = highs, runs

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def run(self):
        self._runs.append(1)
        return self._highs.run()


def _point_key(v, theta):
    return np.concatenate([v, theta]).tobytes()


def _count_solves(monkeypatch):
    """Record, while the SLP runs: each HiGHS run, whether each LP was
    optimal, and the (v, theta) of each evaluation and each injection
    Jacobian, as bytes."""
    runs, optimal, evals, jacs = [], [], [], []

    class Counting(HighsInstance):
        def __init__(self):
            super().__init__()
            self.highs = _CountRuns(self.highs, runs)

    def counted(c, A, lo, hi, lb, ub, inst):
        res = linprog(c, A, lo, hi, lb, ub, inst)
        optimal.append(res.status == 0)
        return res

    def evaluated(net, v, theta):
        evals.append(_point_key(v, theta))
        return eval_power_flow(net, v, theta)

    def differentiated(net, v, theta):
        jacs.append(_point_key(v, theta))
        return injection_jacobian(net, v, theta)

    eval_power_flow = grid_model.eval_power_flow
    injection_jacobian = jacobian.injection_jacobian
    monkeypatch.setattr(ac_solver, "HighsInstance", Counting)
    monkeypatch.setattr(ac_solver, "linprog", counted)
    monkeypatch.setattr(grid_model, "eval_power_flow", evaluated)
    monkeypatch.setattr(jacobian, "injection_jacobian", differentiated)
    return runs, optimal, evals, jacs


def test_slp_evaluates_each_point_once(monkeypatch, net14, inst24):
    """One slp_acopf call evaluates the flat start and each optimal LP's
    point once, linearizes each point it moves to once, solves warm from
    the last basis at an unmoved point, and runs HiGHS once per LP."""
    runs, optimal, evals, jacs = _count_solves(monkeypatch)
    op, dispatch = slp_acopf(net14, make_dispatch_spec(net14, inst24, 0))
    assert len(evals) == sum(optimal) + 1
    assert len(optimal) == len(runs)
    assert dispatch["iterations"] < len(runs) <= 3 * dispatch["iterations"]
    # the flat start, then only evaluated (accepted) points, none twice
    assert jacs[0] == evals[0]
    assert set(jacs) <= set(evals)
    assert len(set(jacs)) == len(jacs)
    # this hour rejects steps, so some step LPs start warm from the last
    # basis at an unmoved point
    assert len(jacs) < dispatch["iterations"]
    assert _point_key(op.v, op.theta) in evals


def test_mtp_evaluates_each_iterate_once(monkeypatch, net14, inst4):
    """The 4-h oracle's iterate is one (4, n) state: each is evaluated in
    one call, the flat start and each optimal LP's point once, and each
    iterate it moves to is differentiated in one call, once."""
    runs, optimal, evals, jacs = _count_solves(monkeypatch)
    y, u, w = _all_on_schedule(inst4)
    report = mtp_acopf_check(net14, inst4, SimpleNamespace(y=y, u=u, w=w))
    assert report.verdict == "feasible"
    key_size = 2 * inst4.horizon * net14.n * 8
    assert {len(k) for k in evals + jacs} == {key_size}
    assert len(evals) == sum(optimal) + 1
    assert len(optimal) == len(runs)
    assert report.iterations < len(runs) <= 3 * report.iterations
    assert jacs[0] == evals[0]
    assert set(jacs) <= set(evals)
    assert len(set(jacs)) == len(jacs) <= report.iterations
    final = [np.array([getattr(pt, f) for pt in report.points])
             for f in ("v", "theta")]
    assert _point_key(*final) in evals


PRICING = "simplex_dual_edge_weight_strategy"
DEVEX = 1
SCALING = "simplex_scale_strategy"
UNSCALED = 0


def _options(h):
    """A HiGHS object's dual pricing and scaling strategy."""
    return h.getOptionValue(PRICING)[1], h.getOptionValue(SCALING)[1]


def test_slp_instance_prices_with_devex(monkeypatch, net14, inst24):
    """Every LP of an SLP call runs on an instance whose dual simplex
    prices with Devex on the unscaled model; a default instance keeps
    HiGHS's choices."""
    seen = []

    def recorded(c, A, lo, hi, lb, ub, inst):
        seen.append(_options(inst.highs))
        return linprog(c, A, lo, hi, lb, ub, inst)

    monkeypatch.setattr(ac_solver, "linprog", recorded)
    slp_acopf(net14, make_dispatch_spec(net14, inst24, 0))
    assert len(seen) > 1 and set(seen) == {(DEVEX, UNSCALED)}
    default = _options(_core._Highs())
    assert default[0] != DEVEX and default[1] != UNSCALED
    assert _options(HighsInstance().highs) == default


@pytest.fixture(scope="module")
def schedules4(net14, inst4, lin14, compact8, box14):
    """The NN-, L- and DC-UC schedules of uc14_t4, NN with LP bounds."""
    prep = {"net": net14, "lin": lin14, "model": compact8, "box": box14,
            "bounds": big_m_bounds(compact8, box14, "lp")}
    out = {}
    for f in FORMULATIONS:
        milp_, ucv = build_formulation(f, inst4, prep)
        sol = solve_milp(milp_, gap_target=0.01)
        out[f] = extract_schedule(milp_, sol, inst4, ucv, net=net14)
    return out


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_oracle_does_not_depend_on_the_pricing(monkeypatch, net14, inst4,
                                               schedules4, formulation):
    """The 4-h oracle gives the same verdict and iterations with the SLP's
    options (Devex pricing, unscaled model) and with HiGHS's defaults, and
    the same objective to rounding: the options pick the path to an
    optimal vertex, not the optimum."""
    sched = schedules4[formulation]
    slp = mtp_acopf_check(net14, inst4, sched)
    monkeypatch.setattr(HighsInstance, "slp", classmethod(lambda cls: cls()))
    default = mtp_acopf_check(net14, inst4, sched)
    assert slp.verdict == default.verdict == "feasible"
    assert slp.iterations == default.iterations
    assert slp.objective == pytest.approx(default.objective, rel=1e-9)

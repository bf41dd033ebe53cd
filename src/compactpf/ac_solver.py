"""SLP AC-OPF and the multi-period feasibility oracle.

The OPF engine is sequential linear programming: each major iteration
linearizes the AC power flow map at the current point (reusing the
analytic Jacobians), solves an LP with l1-elastic balance/thermal
slacks inside a trust region, and accepts or rejects the step on an
exact-penalty merit function. Each point is evaluated once, and a point
is linearized only when the iteration moves to it: after a rejected step
the next LP keeps the matrix and row bounds. Every LP goes through
``highs.linprog``, warm on the one HiGHS instance each SLP call owns. A
fixed point of the iteration satisfies the nonlinear constraints exactly,
which is re-verified independently before any point is reported feasible.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ValidationError, ConvergenceError, CompactPFError
from . import grid_model, jacobian
from .highs import HighsInstance, linprog
from .tolerances import (AC_FEAS_TOL, MIN_RADIUS, PRED_RTOL, PRIMAL_TOL,
                         SOC_HALO_MIN, STEP_TOL)


class InfeasibleError(CompactPFError):
    """No feasible dispatch was found, for the ``reason`` it carries.

    "short_of_load" is certified: in some period the committed units cannot
    produce the load plus the network's least loss (``load_cover``), so no
    AC operating point exists, and no LP ran. "infeasible" means the
    dispatch-side LP constraints conflict, or the SLP converged with an
    exact residual above ``AC_FEAS_TOL``; the latter is a local stationary
    point of the l1 merit, not a certificate that no feasible dispatch
    exists."""

    def __init__(self, message, reason="infeasible"):
        super().__init__(message)
        self.reason = reason


SLACK_PENALTY = 1e5
# trust region on the SLP step in v (p.u.) and theta (rad)
INITIAL_RADIUS = 0.1
MAX_RADIUS = 0.2
SHRINK = 0.5
EXPAND = 2.0
MAX_MAJOR_ITERS = 60
_log = logging.getLogger(__name__)


@dataclass
class DispatchSpec:
    """One period's continuous dispatch problem: the instance's units and
    condensers, whose bus, limits and costs the SLP reads, and what the
    schedule decides for the period."""
    units: tuple          # UCGen, instance order (the instance's gens)
    condensers: tuple     # Condenser, instance order
    on: np.ndarray        # (G,) bool, committed in the period
    cap_a: np.ndarray     # (G,) p_delta + r <= cap_a; 0 when off
    cap_b: np.ndarray     # (G,) p_delta <= cap_b; 0 when off
    pd: np.ndarray        # (n,)
    qd: np.ndarray        # (n,)
    reserve: float = 0.0


@dataclass
class FeasibilityReport:
    verdict: str                  # feasible | infeasible | no_solution
    max_violation: float
    objective: float
    iterations: int
    points: list = None           # OperatingPoint per period when feasible
    p_delta: np.ndarray = None    # (G, T)
    reserve_r: np.ndarray = None  # (G, T)
    q: np.ndarray = None          # (G, T)
    detail: str = ""              # why the verdict is not "feasible"


def make_dispatch_spec(net, inst, hour, off=()):
    """Single-period DispatchSpec from a UC instance: every unit ON
    except those listed in `off` (instance-order indices)."""
    inst.check_load_rows(net.n)
    G = inst.ngen
    return _period_spec(inst, hour, [gi not in off for gi in range(G)],
                        [0] * G, [0] * G)


def _period_spec(inst, t, on, su, sd_next):
    """DispatchSpec of period t: unit gi is committed when on[gi], starts up
    in t when su[gi] is 1 and shuts down in t + 1 when sd_next[gi] is 1;
    the startup/shutdown ramp caps enter as in the UC's cap rows."""
    on = np.array(on, dtype=bool)
    cap_a, cap_b = np.zeros(inst.ngen), np.zeros(inst.ngen)
    for gi in np.flatnonzero(on):
        g = inst.gens[gi]
        span = g.pmax - g.pmin
        if g.tu >= 2:
            cap = (span - (g.pmax - g.su) * su[gi]
                   - (g.pmax - g.sd) * sd_next[gi])
            cap_a[gi] = cap_b[gi] = max(cap, 0.0)
        else:
            cap_a[gi] = max(span - (g.pmax - g.su) * su[gi], 0.0)
            cap_b[gi] = max(span - (g.pmax - g.sd) * sd_next[gi], 0.0)
    return DispatchSpec(units=inst.gens, condensers=inst.condensers, on=on,
                        cap_a=cap_a, cap_b=cap_b,
                        pd=inst.pd[:, t].copy(), qd=inst.qd[:, t].copy(),
                        reserve=float(inst.reserve[t]))


def load_cover(net, specs):
    """Per period, (most, need, margin): the most active output the
    committed units can give, the least the period needs, and the margin
    below ``need`` at which ``_solve_slp`` screens the period.

    ``most`` is the units' Pmin plus the largest sum(p_delta) that the LP's
    rows p_delta <= cap_b, p_delta + r <= cap_a, r >= 0 and
    sum(r) >= reserve allow: min(sum min(cap_a, cap_b), sum cap_a -
    reserve). ``need`` is the load plus ``grid_model.loss_floor``, below
    which no point in the voltage box meets the load, so most < need proves
    the period AC-infeasible. The SLP accepts a point whose bus balances
    each miss by up to ``AC_FEAS_TOL`` and whose outputs pass each cap,
    reserve and sign bound by up to HiGHS's ``PRIMAL_TOL``; ``margin``
    covers both, so a period the SLP would accept is never screened.
    """
    on = np.array([spec.on for spec in specs])
    cap_a = np.array([spec.cap_a for spec in specs])
    cap_b = np.array([spec.cap_b for spec in specs])
    reserve = np.array([spec.reserve for spec in specs])
    units = specs[0].units
    most = on @ np.array([g.pmin for g in units]) + np.minimum(
        np.minimum(cap_a, cap_b).sum(axis=1), cap_a.sum(axis=1) - reserve)
    need = np.array([spec.pd.sum() for spec in specs]) + \
        grid_model.loss_floor(net)
    margin = net.n * AC_FEAS_TOL + (2 * len(units) + 1) * PRIMAL_TOL
    return most, need, margin


def _screen_load(net, specs):
    """Raise InfeasibleError ("short_of_load") for the first period whose
    committed units cannot cover its load plus least loss."""
    most, need, margin = load_cover(net, specs)
    short = np.flatnonzero(most < need - margin)
    if short.size:
        t = int(short[0])
        raise InfeasibleError(
            f"period {t}: the committed units give at most {most[t]:.4f} "
            f"p.u., load plus least loss needs {need[t]:.4f} p.u. (short by "
            f"{need[t] - most[t]:.4f})", reason="short_of_load")


# ---------------------------------------------------------------------------
# SLP engine
# ---------------------------------------------------------------------------

class _SLPProblem:
    """The SLP subproblem ``lo <= A x <= hi, lb <= x <= ub`` of one SLP call.

    Variables per period: dv(n), dth(n-1), p_delta(G), r(G), q(G),
    q_sc(C) and the elastic slacks sp+(n), sp-(n), sq+(n), sq-(n),
    sth(2m); the cost epigraph variables of committed units follow all
    periods. Rows: per period the thermal rows (ft/tf interleaved per
    branch), the angle-difference rows, the capacity rows of committed
    units and the reserve row; then the cost epigraph rows and, with
    ``ramps``, the ramp rows; last the active and reactive balance rows of
    every period.

    The units' bus, pmin, reactive limits, cost segments, no-load cost and
    ramps are read from the specs' ``units`` and ``condensers`` (one
    instance's, shared by every period); each period's spec adds which
    units are committed and their capacity caps.

    Everything that does not depend on the iterate is laid out once here.
    ``linearize`` refreshes the Jacobian entries (balance and thermal rows)
    and the row bounds; ``trust_bounds`` the column bounds; ``violation``
    and ``cost`` price a trial point from index arrays. The matrix
    carries no exact zeros and its CSC order is that of the same matrix
    stored dense, so HiGHS sees one model whichever way it was built.
    """

    def __init__(self, net, specs, ramps):
        self.net = net
        self.T = T = len(specs)
        n, m = net.n, net.m
        units, conds = specs[0].units, specs[0].condensers
        G, C = len(units), len(conds)
        self.nonref = np.array([b for b in range(n) if b != net.ref])
        per = (2 * n - 1) + 3 * G + C + 4 * n + 2 * m
        base = per * np.arange(T)[:, None]
        self.dv = base + np.arange(n)
        self.dth = base + n + np.arange(n - 1)
        self.pd = base + (2 * n - 1) + np.arange(G)
        self.r = self.pd + G
        self.q = self.r + G
        self.qsc = base + (2 * n - 1) + 3 * G + np.arange(C)
        slack = base + (2 * n - 1) + 3 * G + C + np.arange(4 * n + 2 * m)
        spp, spm, sqp, sqm = (slack[:, k * n:(k + 1) * n] for k in range(4))
        sth = slack[:, 4 * n:]
        dth_of = np.full(n, -1)
        dth_of[self.nonref] = np.arange(n - 1)   # bus -> dth position

        on = np.array([spec.on for spec in specs])     # (T, G)
        self.on_at = np.nonzero(on)                    # (period, unit)
        # (period, unit) of each cost epigraph variable, in column order
        cost_cols = [(t, gi) for t, gi in zip(*self.on_at)
                     if units[gi].cost_segments]
        nvar = per * T + len(cost_cols)
        self.c = np.zeros(nvar)
        self.c[slack.ravel()] = SLACK_PENALTY
        self.c[per * T:] = 1.0
        self.lb = np.zeros(nvar)
        self.ub = np.full(nvar, np.inf)
        # an off unit's p_delta, r and q are fixed at 0
        self.ub[self.pd] = [spec.cap_b for spec in specs]
        self.ub[self.r] = np.where(on, np.inf, 0.0)
        self.lb[self.q] = np.where(on, [g.qmin for g in units], 0.0)
        self.ub[self.q] = np.where(on, [g.qmax for g in units], 0.0)
        self.lb[self.qsc] = [c.qmin for c in conds]
        self.ub[self.qsc] = [c.qmax for c in conds]

        rows, cols, vals, hi = [], [], [], []

        def row(entries, bound=np.nan):
            for col, val in entries:
                rows.append(len(hi))
                cols.append(col)
                vals.append(val)
            hi.append(bound)
            return len(hi) - 1

        self.th_rows = np.zeros((T, 2 * m), dtype=int)
        self.ang_rows = np.zeros((T, 2 * m), dtype=int)
        for t, spec in enumerate(specs):
            for k in range(m):
                self.th_rows[t, 2 * k] = row([(sth[t, k], -1.0)])
                self.th_rows[t, 2 * k + 1] = row([(sth[t, m + k], -1.0)])
            for k, (i, j) in enumerate(zip(net.f_bus, net.t_bus)):
                ends = [(self.dth[t, dth_of[b]], sign)
                        for b, sign in ((i, 1.0), (j, -1.0)) if b != net.ref]
                self.ang_rows[t, 2 * k] = row(ends)
                self.ang_rows[t, 2 * k + 1] = row(
                    [(col, -val) for col, val in ends])
            for gi in np.flatnonzero(spec.on).tolist():
                row([(self.pd[t, gi], 1.0), (self.r[t, gi], 1.0)],
                    spec.cap_a[gi])
            if spec.reserve > 0.0:
                row([(col, -1.0) for col in self.r[t]], -spec.reserve)
        # convex piecewise cost by its epigraph: cost_g >= each segment line
        for cv, (t, gi) in enumerate(cost_cols, start=per * T):
            acc_w, acc_c = 0.0, 0.0
            for width, slope in units[gi].cost_segments:
                row([(self.pd[t, gi], slope), (cv, -1.0)],
                    slope * acc_w - acc_c)
                acc_c += slope * width
                acc_w += width
        if ramps:
            for t in range(T):
                for gi, g in enumerate(units):
                    cur, res = self.pd[t, gi], self.r[t, gi]
                    if t == 0:
                        row([(cur, 1.0), (res, 1.0)], g.ru + g.p_delta_init)
                        row([(cur, -1.0)], g.rd - g.p_delta_init)
                    else:
                        prev = self.pd[t - 1, gi]
                        row([(cur, 1.0), (res, 1.0), (prev, -1.0)], g.ru)
                        row([(cur, -1.0), (prev, 1.0)], g.rd)
        n_ub = len(hi)
        self.p_rows = np.zeros((T, n), dtype=int)
        self.q_rows = np.zeros((T, n), dtype=int)
        for t, spec in enumerate(specs):
            on_t = np.flatnonzero(spec.on).tolist()
            for b in range(n):
                self.p_rows[t, b] = row(
                    [(self.pd[t, gi], -1.0) for gi in on_t
                     if units[gi].bus == b]
                    + [(spp[t, b], -1.0), (spm[t, b], 1.0)])
            for b in range(n):
                self.q_rows[t, b] = row(
                    [(self.q[t, gi], -1.0) for gi in on_t
                     if units[gi].bus == b]
                    + [(self.qsc[t, ci], -1.0)
                       for ci, c in enumerate(conds) if c.bus == b]
                    + [(sqp[t, b], -1.0), (sqm[t, b], 1.0)])
        self._index_units(units, conds)
        self.shape = (len(hi), nvar)
        self.hi = np.array(hi)
        self.lo = np.full(len(hi), -np.inf)
        self.eq_rows = np.arange(n_ub, len(hi))
        self.pd_load = np.array([spec.pd for spec in specs])
        self.qd_load = np.array([spec.qd for spec in specs])
        self.smax = np.stack([net.smax, net.smax])   # (ft, tf) limits

        # Jacobian entries: every (balance or thermal row, dv/dth column)
        self.lin_rows = lin_rows = np.concatenate(
            [self.p_rows, self.q_rows, self.th_rows], axis=1)
        lin_cols = np.concatenate([self.dv, self.dth], axis=1)
        rows = np.concatenate([rows, np.repeat(lin_rows, 2 * n - 1, axis=1)
                               .ravel()]).astype(int)
        cols = np.concatenate([cols, np.repeat(lin_cols, 2 * (n + m), axis=0)
                               .reshape(T, 2 * (n + m), 2 * n - 1)
                               .ravel()]).astype(int)
        order = np.lexsort((rows, cols))
        self.rows = rows[order].astype(np.int32)
        self.cols = cols[order]
        # the entries in CSC order: the constants, and where each Jacobian
        # entry goes, split at the reference angle's column of the
        # Jacobians, which has no variable
        at = np.empty(order.size, dtype=int)
        at[order] = np.arange(order.size)
        self.vals = np.zeros(order.size)
        self.vals[at[:len(vals)]] = vals
        jac_at = at[len(vals):].reshape(T, 2 * (n + m), 2 * n - 1)
        self.ref_col = n + net.ref
        self.jac_at = (jac_at[..., :self.ref_col].copy(),
                       jac_at[..., self.ref_col:].copy())

    def _index_units(self, units, conds):
        """Index arrays of the units of every period, in period-major
        instance order: the committed generators (their bus, pmin and
        padded cost segments), every generator's bus and every condenser's
        bus, for the balance and cost arithmetic."""
        T, G, C = self.T, len(units), len(conds)
        g_on = self.on_at[1]
        bus = np.array([g.bus for g in units], dtype=int)
        self.p_gen_at = (self.on_at[0], bus[g_on])     # (period, bus)
        self.p_gen_min = np.array([g.pmin for g in units])[g_on]
        t_all, g_all = np.indices((T, G)).reshape(2, -1)
        self.q_gen_at = (t_all, bus[g_all])
        self.q_gen_of = (g_all, t_all)
        cbus = np.array([c.bus for c in conds], dtype=int)
        t_c, c_all = np.indices((T, C)).reshape(2, -1)
        self.q_sc_at = (t_c, cbus[c_all])
        self.q_sc_of = (c_all, t_c)
        segs = [units[gi].cost_segments for gi in g_on]
        k = max((len(seg) for seg in segs), default=0)
        self.seg_w = np.zeros((len(segs), k))
        self.seg_slope = np.zeros((len(segs), k))
        for i, seg in enumerate(segs):
            for j, (width, slope) in enumerate(seg):
                self.seg_w[i, j], self.seg_slope[i, j] = width, slope
        self.seg_start = np.cumsum(self.seg_w, axis=1) - self.seg_w
        self.no_load = sum(units[gi].no_load_cost for gi in g_on)

    def violation(self, op, pdel, qg, qsc):
        """Largest and summed exact violation of the balance and thermal
        constraints when the periods' evaluated point is ``op`` (T, ·) and
        the units run at (pdel, qg, qsc)."""
        p_bus = -self.pd_load
        np.add.at(p_bus, self.p_gen_at,
                  self.p_gen_min + pdel[self.on_at[1], self.on_at[0]])
        q_bus = -self.qd_load
        np.add.at(q_bus, self.q_gen_at, qg[self.q_gen_of])
        np.add.at(q_bus, self.q_sc_at, qsc[self.q_sc_of])
        ep = np.abs(op.p_inj - p_bus)
        eq = np.abs(op.q_inj - q_bus)
        eth = np.maximum(np.stack([op.s_ft, op.s_tf], axis=1) - self.smax,
                         0.0)
        viol = max(ep.max(), eq.max(), eth.max(initial=0.0))
        return float(viol), float(ep.sum() + eq.sum() + eth.sum())

    def cost(self, pdel):
        """Production cost on the units' cost segments plus the no-load
        cost of every committed unit-hour."""
        out = pdel[self.on_at[1], self.on_at[0]][:, None]
        take = np.minimum(np.maximum(out - self.seg_start, 0.0), self.seg_w)
        return self.no_load + float(np.sum(self.seg_slope * take))

    def packed(self, op):
        """The evaluated point's values (T, ·) in the order of the
        linearized rows of each period: p, q and the thermal flows (ft/tf
        per branch)."""
        flows = np.stack([op.s_ft, op.s_tf], axis=2).reshape(self.T, -1)
        return np.concatenate([op.p_inj, op.q_inj, flows], axis=1)

    def linearize(self, v, theta, op):
        """Differentiate every period at (v, theta), whose evaluated point
        is ``op``; return (A, lo, hi, lin_ctx) with lin_ctx = (y0, J), the
        values and Jacobians of the linearized rows by period."""
        net, m = self.net, self.net.m
        Jpq = jacobian.injection_jacobian(net, v, theta)
        Jsf = jacobian.apparent_flow_jacobian(net, v, theta, "ft")
        Jst = jacobian.apparent_flow_jacobian(net, v, theta, "tf")
        J = np.concatenate([Jpq, np.stack([Jsf, Jst], axis=2)
                            .reshape(self.T, 2 * m, -1)], axis=1)
        y0 = self.packed(op)
        vals = self.vals.copy()
        vals[self.jac_at[0]] = J[:, :, :self.ref_col]
        vals[self.jac_at[1]] = J[:, :, self.ref_col + 1:]
        keep = vals != 0.0
        indptr = np.zeros(self.shape[1] + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.cols[keep], minlength=self.shape[1]),
                  out=indptr[1:])
        A = sparse.csc_array((vals[keep], self.rows[keep], indptr),
                             shape=self.shape)

        n = net.n
        hi = self.hi.copy()
        hi[self.th_rows] = np.repeat(net.smax, 2) - y0[:, 2 * n:]
        cur = theta[:, net.f_bus] - theta[:, net.t_bus]
        hi[self.ang_rows[:, 0::2]] = net.theta_max - cur
        hi[self.ang_rows[:, 1::2]] = cur - net.theta_min
        p_rhs = -y0[:, :n] - self.pd_load
        np.add.at(p_rhs, self.p_gen_at, self.p_gen_min)
        hi[self.p_rows] = p_rhs
        hi[self.q_rows] = -y0[:, n:2 * n] - self.qd_load
        lo = self.lo.copy()
        lo[self.eq_rows] = hi[self.eq_rows]
        return A, lo, hi, (y0, J)

    def trust_bounds(self, v, radius):
        """Column bounds with dv inside the voltage box and the trust
        radius, and dth inside the trust radius."""
        lb, ub = self.lb.copy(), self.ub.copy()
        lb[self.dv] = np.maximum(self.net.vmin - v, -radius)
        ub[self.dv] = np.minimum(self.net.vmax - v, radius)
        lb[self.dth] = -radius
        ub[self.dth] = radius
        return lb, ub

    def extract(self, x):
        """(dv, dth, p_delta, r, q, q_sc) of an LP solution."""
        dth = np.zeros((self.T, self.net.n))
        dth[:, self.nonref] = x[self.dth]
        return (x[self.dv], dth, x[self.pd].T.copy(), x[self.r].T.copy(),
                x[self.q].T.copy(), x[self.qsc].T.copy())

    def soc_bounds(self, lo, hi, lb, ub, lin_ctx, trial, dv, dth):
        """Bounds of the second-order correction (against the Maratos
        effect) of the trial step (dv, dth), whose evaluated point is
        ``trial``: balance and thermal rows are shifted by the
        linearization error at the trial point, and the corrected step must
        stay in a small box around the trial step (the shift is only valid
        there), so restoration costs O(step^2) in the state while
        cancelling the O(step^2) violation."""
        y0, J = lin_ctx
        d = np.concatenate([dv, dth], axis=1)[:, :, None]
        lo2, hi2 = lo.copy(), hi.copy()
        hi2[self.lin_rows] -= self.packed(trial) - (y0 + (J @ d)[:, :, 0])
        lo2[self.eq_rows] = hi2[self.eq_rows]
        halo = max(10.0 * float(np.max(np.abs(hi2 - hi))), SOC_HALO_MIN)
        lb2, ub2 = lb.copy(), ub.copy()
        lb2[self.dv] = np.maximum(lb[self.dv], dv - halo)
        ub2[self.dv] = np.minimum(ub[self.dv], dv + halo)
        lb2[self.dth] = np.maximum(lb[self.dth], dth[:, self.nonref] - halo)
        ub2[self.dth] = np.minimum(ub[self.dth], dth[:, self.nonref] + halo)
        return lo2, hi2, lb2, ub2


def _solve_slp(net, specs, ramps=False):
    """Shared single/multi-period SLP core, started flat, minimizing cost.

    ``specs`` holds one DispatchSpec per period, all over one instance's
    units, whose limits, costs and buses the LP reads. With ``ramps``, the
    units' ramp rows ``ru``/``rd`` couple the periods, the first to the
    pre-horizon output ``p_delta_init``.

    A period whose committed units cannot cover its load plus the least
    loss raises InfeasibleError ("short_of_load") before the LP is built.

    The iterate is one (T, n) state. Each is evaluated once, all periods
    in one stacked call: the flat start, and the trial point of every
    optimal LP, whose evaluation serves its merit, its second-order
    correction and, once accepted, the next linearization, which
    differentiates all periods in one stacked call too. The call owns
    one HiGHS instance. Each major iteration at a new point passes it the
    step LP, warm from the basis of the last optimal solve (the first LP
    is solved cold). The two second-order-correction LPs keep that matrix
    with other row and column bounds, and are passed whole with the last
    optimal basis too. After a rejected step the point has not moved, so
    the next step LP keeps the matrix and row bounds and only its trust
    bounds change.

    Returns (verdict, points, p_delta, r, q, q_sc, cost, iterations,
    max_violation), with one OperatingPoint per period in ``points``.
    """
    _screen_load(net, specs)
    T = len(specs)
    v = np.tile(np.clip(1.0, net.vmin, net.vmax), (T, 1))
    theta = np.zeros((T, net.n))
    lp = _SLPProblem(net, specs, ramps)
    highs = HighsInstance()

    def trial(dv_, dth_, pdel_, qg_, qsc_):
        """Evaluate the step (dv_, dth_): its point, evaluated point,
        violation, cost and merit."""
        v_, th_ = v + dv_, theta + dth_
        op_ = grid_model.eval_power_flow(net, v_, th_)
        viol_, vsum_ = lp.violation(op_, pdel_, qg_, qsc_)
        cost_ = lp.cost(pdel_)
        return v_, th_, op_, viol_, cost_, cost_ + SLACK_PENALTY * vsum_

    radius = INITIAL_RADIUS
    op = grid_model.eval_power_flow(net, v, theta)
    lin = None          # (A, lo, hi, lin_ctx) at (v, theta)
    state = None        # (pt, pdel, rres, qg, qsc, cost, viol)
    cur_merit = math.inf
    iters = 0
    converged = False
    for it in range(MAX_MAJOR_ITERS):
        iters = it + 1
        if lin is None:
            lin = lp.linearize(v, theta, op)
        A, lo, hi, lin_ctx = lin
        lb, ub = lp.trust_bounds(v, radius)
        res = linprog(lp.c, A, lo, hi, lb, ub, highs)
        if res.status == 2:
            # hard (dispatch-side) constraints conflict
            raise InfeasibleError("dispatch constraints are infeasible")
        if res.status != 0:
            raise ConvergenceError(f"SLP subproblem failed (status {res.status})")
        dv, dth, pdel, rres, qg, qsc = lp.extract(res.x)
        v_new, th_new, pt, viol, cost, cand_merit = trial(dv, dth, pdel,
                                                          qg, qsc)
        # the LP objective omits the no-load constant of committed units
        model_merit = float(res.fun) + lp.no_load

        # second-order correction: re-solve the same LP with shifted bounds
        dv2, dth2, pt2 = dv, dth, pt
        for _ in range(2):
            res2 = linprog(lp.c, A, *lp.soc_bounds(lo, hi, lb, ub, lin_ctx,
                                                   pt2, dv2, dth2),
                           highs)
            if res2.status != 0:
                break
            dv2, dth2, pdel2, rres2, qg2, qsc2 = lp.extract(res2.x)
            v2, th2, pt2, viol2, cost2, cand2 = trial(dv2, dth2, pdel2,
                                                      qg2, qsc2)
            if cand2 < cand_merit:
                dv, dth, pdel, rres, qg, qsc = \
                    dv2, dth2, pdel2, rres2, qg2, qsc2
                v_new, th_new, pt, viol, cost, cand_merit = \
                    v2, th2, pt2, viol2, cost2, cand2
        step = max(np.max(np.abs(dv)), np.max(np.abs(dth)))
        _log.debug("slp it=%d radius=%.2e step=%.2e viol=%.2e cand=%.9g "
                   "model=%.9g cur=%.9g", it, radius, step, viol, cand_merit,
                   model_merit, cur_merit)

        if it == 0:
            # first iterate: take the best the model offers
            take = True
        else:
            # the LP always contains the current point at its exact merit,
            # so the predicted reduction is nonnegative
            pred = cur_merit - model_merit
            actual = cur_merit - cand_merit
            take = actual > 0.0
            if pred <= PRED_RTOL * max(1.0, abs(cur_merit)):
                converged = True
            else:
                ratio = actual / pred
                if ratio < 0.25:
                    radius *= SHRINK
                elif ratio > 0.75 and step >= 0.9 * radius:
                    radius = min(radius * EXPAND, MAX_RADIUS)
                converged = step <= STEP_TOL or radius < MIN_RADIUS
        if take:
            v, theta, op, lin = v_new, th_new, pt, None
            state = (pt, pdel, rres, qg, qsc, cost, viol)
            cur_merit = cand_merit
        if converged:
            break

    # the first iterate is always taken, so state is set
    pt, pdel, rres, qg, qsc, cost, viol = state
    if viol <= AC_FEAS_TOL:
        verdict = "feasible"
    elif converged:
        verdict = "infeasible"
    else:
        verdict = "no_solution"
    return verdict, pt.periods(), pdel, rres, qg, qsc, cost, iters, viol


def slp_acopf(net, spec):
    """Single-period min-cost AC-OPF via SLP.

    Returns (OperatingPoint, dispatch dict). Raises InfeasibleError with
    reason "short_of_load" when the committed units cannot cover the load
    plus the least loss (certified: no AC point exists, and no LP runs),
    with reason "infeasible" when the dispatch constraints conflict or the
    iteration converges with a residual above ``AC_FEAS_TOL`` (a local
    verdict, not a certificate), and ConvergenceError when the iteration
    budget is exhausted.
    """
    verdict, pts, pdel, rres, qg, qsc, cost, iters, viol = _solve_slp(
        net, [spec])
    if verdict == "infeasible":
        raise InfeasibleError(
            f"AC-OPF infeasible (residual {viol:.3e} after convergence)")
    if verdict != "feasible":
        raise ConvergenceError("SLP AC-OPF exhausted its iteration budget")
    dispatch = {
        "p_delta": pdel[:, 0], "r": rres[:, 0], "q": qg[:, 0],
        "q_sc": qsc[:, 0], "cost": cost, "iterations": iters,
    }
    return pts[0], dispatch


# ---------------------------------------------------------------------------
# Schedule logic checking and the MTP AC-OPF oracle
# ---------------------------------------------------------------------------

def _switch_at(g, row, t, start):
    """Unit g's start (``start``) or stop binary at hour t (1-based): the
    schedule's ``row`` inside the horizon, the unit's initial status before
    it (t <= 0). A unit on for h hours started at t = 1 - h; one off for h
    hours stopped then. Kept apart from the UC builder's own reading of the
    initial status, so the checker stays independent of it."""
    if t >= 1:
        return row[t - 1]
    hist = g.init_status if start else -g.init_status
    return 1 if (hist > 0 and t == 1 - hist) else 0


def check_schedule_logic(inst, y, u, w):
    """Verify the binary commitment logic independently of any builder.

    Returns a list of violation strings (empty when the schedule is
    logically valid).
    """
    y, u, w = (np.asarray(a) for a in (y, u, w))
    T = y.shape[1]
    problems = []
    for gi, g in enumerate(inst.gens):
        y_prev = 1 if g.init_on else 0
        for t in range(1, T + 1):
            yt, ut, wt = y[gi, t - 1], u[gi, t - 1], w[gi, t - 1]
            if yt - y_prev != ut - wt:
                problems.append(f"unit {g.name} t={t}: y transition != u - w")
            if ut and wt:
                problems.append(f"unit {g.name} t={t}: simultaneous start/stop")
            if sum(_switch_at(g, u[gi], tp, start=True)
                   for tp in range(t - g.tu + 1, t + 1)) > yt:
                problems.append(f"unit {g.name} t={t}: min-uptime violated")
            if sum(_switch_at(g, w[gi], tp, start=False)
                   for tp in range(t - g.td + 1, t + 1)) > 1 - yt:
                problems.append(f"unit {g.name} t={t}: min-downtime violated")
            y_prev = yt
        if g.p_init > g.sd and w[gi, 0]:
            problems.append(f"unit {g.name}: shutdown at t=1 exceeds SD limit")
    return problems


def startup_cost_of(g, t, w_lookup):
    """Startup cost for a unit starting at hour t (1-based), given a
    callable w_lookup(t') valid for t' <= t (pre-horizon included)."""
    downtime = None
    limit = t - 1 + (abs(g.init_status) if not g.init_on else 0) + 1
    for lag in range(1, max(limit, t) + 2):
        if w_lookup(t - lag):
            downtime = lag
            break
    if downtime is None:
        downtime = 10 ** 6  # never observed: coldest tier
    if not g.startup_tiers:
        return 0.0
    cost = g.startup_tiers[0][1]  # hottest tier is the floor
    for hours, tier_cost in g.startup_tiers:
        if downtime >= hours:
            cost = tier_cost
    return cost


def startup_cost(inst, u, w):
    """Startup cost of a binary schedule (independent of the MILP
    builder's tier encoding)."""
    total = 0.0
    G, T = np.asarray(u).shape
    for gi, g in enumerate(inst.gens):
        for t in range(1, T + 1):
            if u[gi][t - 1]:
                total += startup_cost_of(
                    g, t, lambda tp: _switch_at(g, w[gi], tp, start=False))
    return total


def commitment_cost(inst, y, u, w):
    """No-load plus startup cost of a binary schedule."""
    no_load = sum(g.no_load_cost * int(np.sum(y[gi]))
                  for gi, g in enumerate(inst.gens))
    return no_load + startup_cost(inst, u, w)


def production_cost(inst, p_delta):
    """Cost of the (G, T) output above Pmin on the units' segments."""
    total = 0.0
    for gi, g in enumerate(inst.gens):
        for rem in p_delta[gi]:
            for width, slope in g.cost_segments:
                take = min(max(rem, 0.0), width)
                total += slope * take
                rem -= take
    return total


def specs_from_schedule(net, inst, y, u, w):
    """Per-period DispatchSpecs with the commitment binaries substituted
    into the generation limit constraints."""
    inst.check_load_rows(net.n)
    y, u, w = (np.asarray(a) for a in (y, u, w))
    sd_next = np.pad(w[:, 1:], ((0, 0), (0, 1)))
    return [_period_spec(inst, t, y[:, t], u[:, t], sd_next[:, t])
            for t in range(y.shape[1])]


def mtp_acopf_check(net, inst, sched):
    """Multi-time-period AC-OPF feasibility oracle for a fixed schedule.

    The schedule's shape and binary logic are checked first: a schedule
    that is not (units, horizon) of ``inst`` or violates the commitment
    logic is rejected with a diagnostic (ValidationError), which is
    distinct from an AC infeasibility verdict.

    Verdict "infeasible" with 0 iterations and a ``detail`` naming the
    period is certified when a period's committed units cannot cover its
    load plus the least loss: no AC dispatch exists, and no LP ran. Any
    other "infeasible" is the SLP's local verdict (dispatch constraints in
    conflict, or convergence with a residual above ``AC_FEAS_TOL``), not a
    certificate; ``detail`` says which.
    """
    y, u, w = sched.y, sched.u, sched.w
    want = (inst.ngen, inst.horizon)
    for name, a in (("y", y), ("u", u), ("w", w)):
        if np.shape(a) != want:
            raise ValidationError(f"schedule {name} has shape "
                                  f"{np.shape(a)}, instance needs {want}")
    problems = check_schedule_logic(inst, y, u, w)
    if problems:
        raise ValidationError(
            "schedule violates commitment logic: " + "; ".join(problems[:5]))

    specs = specs_from_schedule(net, inst, y, u, w)
    try:
        verdict, pts, pdel, rres, qg, qsc, cost, iters, viol = _solve_slp(
            net, specs, ramps=True)
    except InfeasibleError as err:
        return FeasibilityReport(verdict="infeasible", max_violation=math.inf,
                                 objective=math.nan, iterations=0,
                                 detail=str(err))
    # the SLP cost already holds production and no-load cost
    objective = math.nan
    detail = ""
    if verdict == "feasible":
        objective = cost + startup_cost(inst, u, w)
    elif verdict == "infeasible":
        detail = f"SLP converged with residual {viol:.3e} (a local verdict)"
    else:
        detail = f"SLP stopped after {iters} iterations, residual {viol:.3e}"
    return FeasibilityReport(
        verdict=verdict, max_violation=viol, objective=objective,
        iterations=iters,
        points=pts if verdict == "feasible" else None,
        p_delta=pdel, reserve_r=rres, q=qg, detail=detail)

"""Unit-commitment MILP builders: NN AC-UC, L AC-UC, and DC-UC.

All three share a core fragment (commitment logic, costs, reserve,
ramping, generation caps) and differ in how network physics enters:
the exact big-M ReLU surrogate, its affine feedthrough alone, or the
lossless DC approximation.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .milp_model import MILPModel, BINARY, LE, GE, EQ, stack_entries
from .milp_encode import (bound_box_from_network, encode_relu_network,
                          encode_linear_model, add_box_constraints,
                          hourly_bounds)
from .ac_solver import check_schedule_logic, commitment_cost, production_cost
from .grid_model import unpack_input
from .tolerances import CMP_TOL, MIP_FEAS_TOL, OBJ_RTOL


@dataclass
class UCVars:
    """Variable-index bookkeeping for a built UC model."""
    y: list          # (G,T) nested lists of var indices
    u: list
    w: list
    p_delta: list
    r: list
    q: list          # empty when the formulation carries no reactive power
    q_sc: list       # (C,T)
    frags: list      # per-period network fragment (or None for DC)
    theta: list      # DC only: per-period angle var indices


@dataclass
class UCSchedule:
    y: np.ndarray         # (G,T) ints
    u: np.ndarray
    w: np.ndarray
    p_delta: np.ndarray   # (G,T)
    r: np.ndarray
    q: np.ndarray         # (G,T) or None
    q_sc: np.ndarray      # (C,T) or None
    objective: float
    v: np.ndarray = None      # (T,n) when the formulation carries voltages
    theta: np.ndarray = None  # (T,n)


def _pre_u(g, tp):
    """Known pre-horizon startup indicator (tp <= 0, 1-based time)."""
    return 1 if (g.init_status > 0 and tp == 1 - g.init_status) else 0


def _pre_w(g, tp):
    return 1 if (g.init_status < 0 and tp == 1 + g.init_status) else 0


def build_core_uc(inst, reactive=True):
    """Commitment logic, costs, reserve, caps, and ramps (no network).

    Returns (MILPModel, UCVars); the network-side builders extend both.
    """
    milp = MILPModel(name="uc")
    T = inst.horizon
    G = inst.ngen

    total_span = sum(g.pmax - g.pmin for g in inst.gens)
    for t in range(T):
        if inst.reserve[t] > total_span + CMP_TOL:
            warnings.warn(
                f"reserve requirement at t={t + 1} exceeds total "
                f"dispatchable range; instance is statically infeasible")

    def columns(stem, **bounds):
        """T columns stem[0] ... stem[T - 1]; their indices."""
        return milp.add_vars([f"{stem}[{t}]" for t in range(T)], **bounds)

    y, u, w = ([columns(f"{s}[{g}]", kind=BINARY) for g in range(G)]
               for s in "yuw")
    p_delta, r, q = [], [], []
    for gi, gen in enumerate(inst.gens):
        span = gen.pmax - gen.pmin
        p_delta.append(columns(f"pd[{gi}]", ub=span))
        r.append(columns(f"r[{gi}]", ub=span))
        if reactive:
            q.append(columns(f"q[{gi}]", lb=min(gen.qmin, 0.0),
                             ub=max(gen.qmax, 0.0)))
    q_sc = [columns(f"qsc[{ci}]", lb=c.qmin, ub=c.qmax)
            for ci, c in enumerate(inst.condensers) if reactive]

    periods = np.arange(T)
    for gi, gen in enumerate(inst.gens):
        span = gen.pmax - gen.pmin
        Y, U, W, PD, R = (np.array(v[gi]) for v in (y, u, w, p_delta, r))

        if gen.p_init > gen.sd:
            milp.ub[w[gi][0]] = 0.0

        def named(kind):
            return [f"{kind}[{gi}][{t}]" for t in range(1, T + 1)]

        # per period t = 1..T: status transition y_t - y_{t-1} = u_t - w_t,
        # minimum up- and downtime windows, generation caps, ramps, and
        # reactive limits tied to commitment
        rows = [
            (named("link"), EQ, np.r_[float(gen.init_on), np.zeros(T - 1)],
             [(periods, Y, 1.0), (periods, U, -1.0), (periods, W, 1.0),
              (periods[1:], Y[:-1], -1.0)]),
            (named("minup"), LE,
             [0.0 - sum(_pre_u(gen, tp) for tp in range(t - gen.tu + 1, 1))
              for t in range(1, T + 1)],
             [(periods, Y, -1.0), (*_lagged(U, range(gen.tu)), 1.0)]),
            (named("mindown"), LE,
             [1.0 - sum(_pre_w(gen, tp) for tp in range(t - gen.td + 1, 1))
              for t in range(1, T + 1)],
             [(periods, Y, 1.0), (*_lagged(W, range(gen.td)), 1.0)]),
        ]
        startup = [(periods, PD, 1.0), (periods, R, 1.0),
                   (periods, Y, -span), (periods, U, gen.pmax - gen.su)]
        shutdown = (periods[:-1], W[1:], gen.pmax - gen.sd)
        if gen.tu >= 2:
            rows.append((named("cap"), LE, 0.0, [*startup, shutdown]))
        else:
            rows += [(named("capsu"), LE, 0.0, startup),
                     (named("capsd"), LE, 0.0, [(periods, PD, 1.0),
                                                (periods, Y, -span),
                                                shutdown])]
        rows += [
            (named("rampup"), LE, np.r_[gen.ru + gen.p_delta_init,
                                        np.full(T - 1, gen.ru)],
             [(periods, PD, 1.0), (periods, R, 1.0),
              (periods[1:], PD[:-1], -1.0)]),
            (named("rampdown"), LE, np.r_[gen.rd - gen.p_delta_init,
                                          np.full(T - 1, gen.rd)],
             [(periods, PD, -1.0), (periods[1:], PD[:-1], 1.0)]),
        ]
        if reactive:
            Q = np.array(q[gi])
            rows += [(named("qhi"), LE, 0.0,
                      [(periods, Q, 1.0), (periods, Y, -gen.qmax)]),
                     (named("qlo"), GE, 0.0,
                      [(periods, Q, 1.0), (periods, Y, -gen.qmin)])]
        _add_by_period(milp, T, rows)

        # production cost: convex PWL via per-segment fill variables
        K = len(gen.cost_segments)
        seg = np.reshape(milp.add_vars(
            [f"pseg[{gi}][{t}][{k}]" for t in range(T) for k in range(K)],
            ub=np.tile([width for width, _ in gen.cost_segments], T)), (T, K))
        for t in range(T):
            for k, (_, slope) in enumerate(gen.cost_segments):
                milp.add_obj(seg[t, k], slope)
            if gen.no_load_cost:
                milp.add_obj(y[gi][t], gen.no_load_cost)
        _add_by_period(milp, T, [
            ([f"pwl[{gi}][{t}]" for t in range(T)], EQ, 0.0,
             [(periods, PD, 1.0), (periods[:, None], seg, -1.0)])])

        # startup cost tiers: continuous selectors over shutdown-lag
        # windows; the coldest recorded tier is unconstrained
        tiers = gen.startup_tiers
        delta = np.reshape(milp.add_vars(
            [f"sut[{gi}][{t}][{k}]" for t in range(T)
             for k in range(len(tiers))], ub=1.0), (T, len(tiers)))
        for t in range(T):
            for k, (_, cost) in enumerate(tiers):
                if cost:
                    milp.add_obj(delta[t, k], cost)
        rows = []
        for k in range(len(tiers) - 1):
            lags = range(1 if k == 0 else tiers[k][0], tiers[k + 1][0])
            rows.append((
                [f"tier[{gi}][{t}][{k}]" for t in range(1, T + 1)], LE,
                [0.0 + sum(_pre_w(gen, t - lag) for lag in lags if t <= lag)
                 for t in range(1, T + 1)],
                [(periods, delta[:, k], 1.0), (*_lagged(W, lags), -1.0)]))
        rows.append((named("tiersum"), EQ, 0.0,
                     [(periods[:, None], delta, 1.0), (periods, U, -1.0)]))
        _add_by_period(milp, T, rows)

    # reserve requirement
    need = np.flatnonzero(inst.reserve > 0.0)
    milp.add_rows(np.arange(need.size)[:, None], np.array(r).T[need], 1.0, GE,
                  inst.reserve[need], [f"reserve[{t}]" for t in need])

    return milp, UCVars(y=y, u=u, w=w, p_delta=p_delta, r=r, q=q,
                        q_sc=q_sc, frags=[], theta=[])


def _lagged(cols, lags):
    """(periods, columns) pairing each period p with cols[p - lag] for
    every lag in ``lags`` that stays inside the horizon."""
    lags = np.asarray(lags, np.intp)
    p, j = np.nonzero(np.arange(len(cols))[:, None] >= lags[None, :])
    return p, np.asarray(cols)[p - lags[j]]


def _add_by_period(milp, T, families):
    """One row of each family per period, period by period and in family
    order within a period: family f's row of period t is row
    t * len(families) + f of the block. A family is (names, sense, rhs,
    terms): T names, one sense, T right-hand sides or one for all, and
    terms (periods, cols, vals) putting vals at cols in those periods'
    rows."""
    F = len(families)
    rhs = np.empty((T, F))
    for f, (_, _, family_rhs, _) in enumerate(families):
        rhs[:, f] = family_rhs
    milp.add_rows(
        *stack_entries(*((np.asarray(t) * F + f, c, v)
                         for f, (_, _, _, terms) in enumerate(families)
                         for t, c, v in terms)),
        [sense for _, sense, _, _ in families] * T, rhs.ravel(),
        [names[t] for t in range(T) for names, _, _, _ in families])


def _generation(inst, ucv, t, row_at):
    """Balance-row terms of the active output pmin y + p_delta of every
    unit in period t, with sign -1: a unit's go to the row ``row_at[b]``
    of its bus position b."""
    rows = row_at[[g.bus for g in inst.gens]]
    return [(rows, [pd[t] for pd in ucv.p_delta], -1.0),
            (rows, [y[t] for y in ucv.y], [-g.pmin for g in inst.gens])]


def _tie_balance(milp, inst, net, ucv, frag, t):
    """Link a period's network fragment outputs to generation and load:
    per bus position the active then the reactive balance row, then per
    branch its two flow limits."""
    n, m = net.n, net.m
    # P and Q of bus b in rows 2b and 2b + 1, the two flows of branch k in
    # rows 2n + 2k and 2n + 2k + 1
    p_row, flow_row = 2 * np.arange(n), 2 * n + 2 * np.arange(m)
    q_row = p_row + 1
    milp.add_rows(
        *stack_entries((np.concatenate([p_row, q_row, flow_row,
                                        flow_row + 1]), frag.y, 1.0),
                       *_generation(inst, ucv, t, p_row),
                       (q_row[[g.bus for g in inst.gens]],
                        [q[t] for q in ucv.q], -1.0),
                       (q_row[[c.bus for c in inst.condensers]],
                        [q[t] for q in ucv.q_sc], -1.0)),
        [EQ, EQ] * n + [LE, LE] * m,
        np.concatenate([-np.column_stack([inst.pd[:, t], inst.qd[:, t]]),
                        np.column_stack([net.smax, net.smax])], axis=None),
        [f"{kind}[{b}][{t}]" for b in range(n) for kind in ("pbal", "qbal")]
        + [f"{kind}[{k}][{t}]" for k in range(m) for kind in ("sft", "stf")])


def build_nn_ac_uc(inst, net, model, bounds, box=None):
    """UC with the exact big-M encoding of the compact PWL surrogate
    standing in for the AC physics, one fragment per period. Each period's
    fragment gets ``bounds`` tightened over that hour's load
    (``hourly_bounds``)."""
    if model.d_in != net.d_in or model.d_out != net.d_out:
        raise ValidationError("surrogate/network dimension mismatch")
    box = _surrogate_box(inst, net, box)
    per_hour = hourly_bounds(model, bounds, box, inst)
    return _build_surrogate_uc(
        inst, net, box, "nn_ac_uc", lambda milp, x, t: encode_relu_network(
            model, per_hour[t], milp, x, prefix=f"nn[{t}]"))


def build_l_ac_uc(inst, net, lin, box=None):
    """UC over the affine power flow model y = Jstar x + rstar."""
    if lin.d_in != net.d_in or lin.d_out != net.d_out:
        raise ValidationError("linear model/network dimension mismatch")
    return _build_surrogate_uc(
        inst, net, _surrogate_box(inst, net, box), "l_ac_uc",
        lambda milp, x, t: encode_linear_model(lin, milp, x,
                                               prefix=f"lin[{t}]"))


def _surrogate_box(inst, net, box):
    """``box``, or the network's box for ``inst``, once the instance is
    checked to have one load row per bus."""
    inst.check_load_rows(net.n)
    return box or bound_box_from_network(net, inst)


def _build_surrogate_uc(inst, net, box, name, encode):
    """The core UC plus, per period t, input variables over the box, the
    fragment ``encode(milp, x, t)`` over them, the box's angle and output
    constraints, and the balance and flow-limit rows."""
    milp, ucv = build_core_uc(inst)
    milp.name = name
    for t in range(inst.horizon):
        x = milp.add_vars([f"x[{t}][{j}]" for j in range(net.d_in)],
                          lb=box.x_lo, ub=box.x_hi)
        frag = encode(milp, x, t)
        add_box_constraints(milp, frag, box, prefix=f"t{t}.")
        _tie_balance(milp, inst, net, ucv, frag, t)
        ucv.frags.append(frag)
    return milp, ucv


def build_dc_uc(inst, net):
    """Lossless DC UC: active power only, flow law p_ft = (th_f - th_t)/x."""
    if np.any(net.branch_x == 0.0):
        raise ValidationError("DC model requires nonzero branch reactance")
    inst.check_load_rows(net.n)
    milp, ucv = build_core_uc(inst, reactive=False)
    milp.name = "dc_uc"
    n, m = net.n, net.m
    flow, bal = 3 * np.arange(m), 3 * m + np.arange(n)
    inv_x = 1.0 / net.branch_x
    # every angle in [-pi, pi] but the reference bus's, which is 0
    th_lo, th_hi = np.full(n, -math.pi), np.full(n, math.pi)
    th_lo[net.ref] = th_hi[net.ref] = 0.0
    for t in range(inst.horizon):
        th = milp.add_vars([f"th[{t}][{b}]" for b in range(n)],
                           lb=th_lo, ub=th_hi)
        ucv.theta.append(th)
        pft = milp.add_vars([f"pft[{t}][{k}]" for k in range(m)],
                            lb=-net.smax, ub=net.smax)
        th_f, th_t = np.asarray(th)[net.f_bus], np.asarray(th)[net.t_bus]
        # per branch k: rows 3k (flow law), 3k + 1 and 3k + 2 (angle
        # difference limits); then per bus position its active balance
        milp.add_rows(
            *stack_entries((flow, pft, 1.0), (flow, th_f, -inv_x),
                           (flow, th_t, inv_x),
                           (flow + 1, th_f, 1.0), (flow + 1, th_t, -1.0),
                           (flow + 2, th_f, 1.0), (flow + 2, th_t, -1.0),
                           (bal[net.f_bus], pft, 1.0),
                           (bal[net.t_bus], pft, -1.0),
                           *_generation(inst, ucv, t, bal)),
            [EQ, LE, GE] * m + [EQ] * n,
            np.concatenate([np.column_stack([np.zeros(m), net.theta_max,
                                             net.theta_min]),
                            -inst.pd[:, t]], axis=None),
            [f"{kind}[{k}][{t}]" for k in range(m)
             for kind in ("dcflow", "anghi", "anglo")]
            + [f"pbal[{b}][{t}]" for b in range(n)])
    return milp, ucv


def extract_schedule(milp, solution, inst, ucv, net=None):
    """Round binaries, re-verify logic with the independent checker, copy
    dispatch, and recompute the objective against the solver's value."""
    x = solution.x
    T = inst.horizon

    def grab(idx_grid):
        return x[np.array(idx_grid)] if idx_grid else None

    ybin, ubin, wbin = map(grab, (ucv.y, ucv.u, ucv.w))
    for name, arr in (("y", ybin), ("u", ubin), ("w", wbin)):
        if np.max(np.abs(arr - np.round(arr))) > MIP_FEAS_TOL:
            raise ValidationError(
                f"{name} binaries not integral within {MIP_FEAS_TOL:g}")
    ybin, ubin, wbin = (np.round(a).astype(int) for a in (ybin, ubin, wbin))

    problems = check_schedule_logic(inst, ybin, ubin, wbin)
    if problems:
        raise ValidationError(
            "extracted schedule fails commitment logic: "
            + "; ".join(problems[:5]))

    p_delta, r, q, q_sc = map(grab, (ucv.p_delta, ucv.r, ucv.q, ucv.q_sc))

    obj = milp.objective_value(x)
    recomputed = (production_cost(inst, p_delta)
                  + commitment_cost(inst, ybin, ubin, wbin))
    if abs(recomputed - obj) > OBJ_RTOL * max(1.0, abs(obj)):
        raise ValidationError(
            f"objective recomputation mismatch: solver {obj!r} vs "
            f"recomputed {recomputed!r}")

    v = theta = None
    if ucv.frags and net is not None:
        n = net.n
        v = np.zeros((T, n))
        theta = np.zeros((T, n))
        for t, frag in enumerate(ucv.frags):
            v[t], theta[t] = unpack_input(x[frag.x], net)
    elif ucv.theta and net is not None:
        theta = grab(ucv.theta)

    return UCSchedule(y=ybin, u=ubin, w=wbin, p_delta=p_delta, r=r,
                      q=q, q_sc=q_sc, objective=obj, v=v, theta=theta)


# ---------------------------------------------------------------------------
# Schedule serialization (JSON)
# ---------------------------------------------------------------------------

def schedule_to_json(sched):
    doc = {"kind": "uc_schedule", "objective": sched.objective}
    for key in ("y", "u", "w", "p_delta", "r", "q", "q_sc", "v", "theta"):
        val = getattr(sched, key)
        doc[key] = None if val is None else np.asarray(val).tolist()
    return json.dumps(doc)


def schedule_from_json(text):
    doc = json.loads(text)
    if doc.get("kind") != "uc_schedule":
        raise ValidationError("not a UC schedule document")

    def arr(key, dtype=float):
        return None if doc[key] is None else np.array(doc[key], dtype=dtype)

    return UCSchedule(
        y=arr("y", int), u=arr("u", int), w=arr("w", int),
        p_delta=arr("p_delta"), r=arr("r"), q=arr("q"), q_sc=arr("q_sc"),
        objective=doc["objective"], v=arr("v"), theta=arr("theta"))

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
from .milp_model import MILPModel, BINARY, LE, GE, EQ
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

    y, u, w = ([[milp.add_var(f"{s}[{g}][{t}]", kind=BINARY)
                 for t in range(T)] for g in range(G)] for s in "yuw")
    p_delta, r, q = [], [], []
    for gi, gen in enumerate(inst.gens):
        span = gen.pmax - gen.pmin
        p_delta.append([milp.add_var(f"pd[{gi}][{t}]", lb=0.0, ub=span)
                        for t in range(T)])
        r.append([milp.add_var(f"r[{gi}][{t}]", lb=0.0, ub=span)
                  for t in range(T)])
        if reactive:
            q.append([milp.add_var(f"q[{gi}][{t}]",
                                   lb=min(gen.qmin, 0.0),
                                   ub=max(gen.qmax, 0.0))
                      for t in range(T)])
    q_sc = []
    if reactive:
        for ci, c in enumerate(inst.condensers):
            q_sc.append([milp.add_var(f"qsc[{ci}][{t}]", lb=c.qmin, ub=c.qmax)
                         for t in range(T)])

    for gi, gen in enumerate(inst.gens):
        span = gen.pmax - gen.pmin
        y_init = 1 if gen.init_on else 0

        if gen.p_init > gen.sd:
            milp.variables[w[gi][0]].ub = 0.0

        for t in range(1, T + 1):
            yt = y[gi][t - 1]
            ut = u[gi][t - 1]
            wt = w[gi][t - 1]
            # status transition y_t - y_{t-1} = u_t - w_t
            coeffs = {yt: 1.0, ut: -1.0, wt: 1.0}
            rhs = y_init
            if t > 1:
                coeffs[y[gi][t - 2]] = -1.0
                rhs = 0.0
            milp.add_constr(coeffs, EQ, rhs, name=f"link[{gi}][{t}]")

            # minimum uptime window
            coeffs = {yt: -1.0}
            rhs = 0.0
            for tp in range(t - gen.tu + 1, t + 1):
                if tp >= 1:
                    coeffs[u[gi][tp - 1]] = coeffs.get(u[gi][tp - 1], 0.0) + 1.0
                else:
                    rhs -= _pre_u(gen, tp)
            milp.add_constr(coeffs, LE, rhs, name=f"minup[{gi}][{t}]")

            # minimum downtime window
            coeffs = {yt: 1.0}
            rhs = 1.0
            for tp in range(t - gen.td + 1, t + 1):
                if tp >= 1:
                    coeffs[w[gi][tp - 1]] = coeffs.get(w[gi][tp - 1], 0.0) + 1.0
                else:
                    rhs -= _pre_w(gen, tp)
            milp.add_constr(coeffs, LE, rhs, name=f"mindown[{gi}][{t}]")

            # startup/shutdown generation caps
            pdv, rv = p_delta[gi][t - 1], r[gi][t - 1]
            wnext = w[gi][t] if t < T else None
            if gen.tu >= 2:
                coeffs = {pdv: 1.0, rv: 1.0, yt: -span,
                          ut: gen.pmax - gen.su}
                if wnext is not None:
                    coeffs[wnext] = gen.pmax - gen.sd
                milp.add_constr(coeffs, LE, 0.0, name=f"cap[{gi}][{t}]")
            else:
                milp.add_constr({pdv: 1.0, rv: 1.0, yt: -span,
                                 ut: gen.pmax - gen.su},
                                LE, 0.0, name=f"capsu[{gi}][{t}]")
                coeffs = {pdv: 1.0, yt: -span}
                if wnext is not None:
                    coeffs[wnext] = gen.pmax - gen.sd
                milp.add_constr(coeffs, LE, 0.0, name=f"capsd[{gi}][{t}]")

            # ramping
            coeffs = {pdv: 1.0, rv: 1.0}
            rhs = gen.ru
            if t > 1:
                coeffs[p_delta[gi][t - 2]] = -1.0
            else:
                rhs += gen.p_delta_init
            milp.add_constr(coeffs, LE, rhs, name=f"rampup[{gi}][{t}]")
            coeffs = {pdv: -1.0}
            rhs = gen.rd
            if t > 1:
                coeffs[p_delta[gi][t - 2]] = 1.0
            else:
                rhs -= gen.p_delta_init
            milp.add_constr(coeffs, LE, rhs, name=f"rampdown[{gi}][{t}]")

            # reactive limits tied to commitment
            if reactive:
                qv = q[gi][t - 1]
                milp.add_constr({qv: 1.0, yt: -gen.qmax}, LE, 0.0,
                                name=f"qhi[{gi}][{t}]")
                milp.add_constr({qv: 1.0, yt: -gen.qmin}, GE, 0.0,
                                name=f"qlo[{gi}][{t}]")

        # production cost: convex PWL via per-segment fill variables
        for t in range(T):
            coeffs = {p_delta[gi][t]: 1.0}
            for k, (width, slope) in enumerate(gen.cost_segments):
                sv = milp.add_var(f"pseg[{gi}][{t}][{k}]", lb=0.0, ub=width)
                coeffs[sv] = -1.0
                milp.add_obj(sv, slope)
            milp.add_constr(coeffs, EQ, 0.0, name=f"pwl[{gi}][{t}]")
            if gen.no_load_cost:
                milp.add_obj(y[gi][t], gen.no_load_cost)

        # startup cost tiers: continuous selectors over shutdown-lag windows
        tiers = gen.startup_tiers
        for t in range(1, T + 1):
            deltas = []
            for k, (hours, cost) in enumerate(tiers):
                dv = milp.add_var(f"sut[{gi}][{t - 1}][{k}]", lb=0.0, ub=1.0)
                deltas.append(dv)
                if cost:
                    milp.add_obj(dv, cost)
                if k == len(tiers) - 1:
                    continue  # coldest recorded tier: unconstrained
                lag_lo = 1 if k == 0 else tiers[k][0]
                lag_hi = tiers[k + 1][0] - 1
                coeffs = {dv: 1.0}
                rhs = 0.0
                for lag in range(lag_lo, lag_hi + 1):
                    tp = t - lag
                    if tp >= 1:
                        coeffs[w[gi][tp - 1]] = coeffs.get(w[gi][tp - 1], 0.0) - 1.0
                    else:
                        rhs += _pre_w(gen, tp)
                milp.add_constr(coeffs, LE, rhs, name=f"tier[{gi}][{t}][{k}]")
            coeffs = {dv: 1.0 for dv in deltas}
            coeffs[u[gi][t - 1]] = -1.0
            milp.add_constr(coeffs, EQ, 0.0, name=f"tiersum[{gi}][{t}]")

        # reserve requirement
    for t in range(T):
        if inst.reserve[t] > 0.0:
            milp.add_constr({r[gi][t]: 1.0 for gi in range(G)}, GE,
                            float(inst.reserve[t]), name=f"reserve[{t}]")

    return milp, UCVars(y=y, u=u, w=w, p_delta=p_delta, r=r, q=q,
                        q_sc=q_sc, frags=[], theta=[])


def _units_at(units, n):
    """Instance-order indices of the units at each of the n bus positions."""
    at = [[] for _ in range(n)]
    for i, unit in enumerate(units):
        at[unit.bus].append(i)
    return at


def _add_generation(coeffs, inst, ucv, gens, t):
    """Write the active output pmin y + p_delta of the units ``gens`` in
    period t into a balance row's coefficients, with sign -1."""
    for gi in gens:
        coeffs[ucv.p_delta[gi][t]] = -1.0
        coeffs[ucv.y[gi][t]] = -inst.gens[gi].pmin


def _tie_balance(milp, inst, net, ucv, frag, t, gens_at, conds_at):
    """Link a period's network fragment outputs to generation and load;
    ``gens_at``/``conds_at`` list the units at each bus position."""
    n = net.n
    for b in range(n):
        coeffs = {frag.y[b]: 1.0}
        _add_generation(coeffs, inst, ucv, gens_at[b], t)
        milp.add_constr(coeffs, EQ, -float(inst.pd[b, t]),
                        name=f"pbal[{b}][{t}]")
        coeffs = {frag.y[n + b]: 1.0}
        for gi in gens_at[b]:
            coeffs[ucv.q[gi][t]] = -1.0
        for ci in conds_at[b]:
            coeffs[ucv.q_sc[ci][t]] = -1.0
        milp.add_constr(coeffs, EQ, -float(inst.qd[b, t]),
                        name=f"qbal[{b}][{t}]")
    for k in range(net.m):
        milp.add_constr({frag.y[2 * n + k]: 1.0}, LE, float(net.smax[k]),
                        name=f"sft[{k}][{t}]")
        milp.add_constr({frag.y[2 * n + net.m + k]: 1.0}, LE,
                        float(net.smax[k]), name=f"stf[{k}][{t}]")


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
    gens_at = _units_at(inst.gens, net.n)
    conds_at = _units_at(inst.condensers, net.n)
    for t in range(inst.horizon):
        x = [milp.add_var(f"x[{t}][{j}]", lb=box.x_lo[j], ub=box.x_hi[j])
             for j in range(net.d_in)]
        frag = encode(milp, x, t)
        add_box_constraints(milp, frag, box, prefix=f"t{t}.")
        _tie_balance(milp, inst, net, ucv, frag, t, gens_at, conds_at)
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
    f_bus, t_bus = net.f_bus.tolist(), net.t_bus.tolist()
    gens_at = _units_at(inst.gens, n)

    for t in range(inst.horizon):
        th = []
        for b in range(n):
            lo, hi = (-math.pi, math.pi) if b != net.ref else (0.0, 0.0)
            th.append(milp.add_var(f"th[{t}][{b}]", lb=lo, ub=hi))
        ucv.theta.append(th)
        pft = [milp.add_var(f"pft[{t}][{k}]",
                            lb=-float(net.smax[k]), ub=float(net.smax[k]))
               for k in range(m)]
        for k, (i, j) in enumerate(zip(f_bus, t_bus)):
            inv_x = 1.0 / float(net.branch_x[k])
            milp.add_constr({pft[k]: 1.0, th[i]: -inv_x, th[j]: inv_x},
                            EQ, 0.0, name=f"dcflow[{k}][{t}]")
            milp.add_constr({th[i]: 1.0, th[j]: -1.0}, LE,
                            float(net.theta_max[k]), name=f"anghi[{k}][{t}]")
            milp.add_constr({th[i]: 1.0, th[j]: -1.0}, GE,
                            float(net.theta_min[k]), name=f"anglo[{k}][{t}]")
        for b in range(n):
            coeffs = {}
            for k, (i, j) in enumerate(zip(f_bus, t_bus)):
                if i == b:
                    coeffs[pft[k]] = coeffs.get(pft[k], 0.0) + 1.0
                if j == b:
                    coeffs[pft[k]] = coeffs.get(pft[k], 0.0) - 1.0
            _add_generation(coeffs, inst, ucv, gens_at[b], t)
            milp.add_constr(coeffs, EQ, -float(inst.pd[b, t]),
                            name=f"pbal[{b}][{t}]")
    return milp, ucv


def extract_schedule(milp, solution, inst, ucv, net=None):
    """Round binaries, re-verify logic with the independent checker, copy
    dispatch, and recompute the objective against the solver's value."""
    x = solution.x
    T = inst.horizon
    G = inst.ngen

    def grab(idx_grid):
        return np.array([[x[idx_grid[a][t]] for t in range(T)]
                         for a in range(len(idx_grid))]) \
            if idx_grid else None

    ybin = grab(ucv.y)
    ubin = grab(ucv.u)
    wbin = grab(ucv.w)
    for name, arr in (("y", ybin), ("u", ubin), ("w", wbin)):
        if np.max(np.abs(arr - np.round(arr))) > MIP_FEAS_TOL:
            raise ValidationError(
                f"{name} binaries not integral within {MIP_FEAS_TOL:g}")
    ybin = np.round(ybin).astype(int)
    ubin = np.round(ubin).astype(int)
    wbin = np.round(wbin).astype(int)

    problems = check_schedule_logic(inst, ybin, ubin, wbin)
    if problems:
        raise ValidationError(
            "extracted schedule fails commitment logic: "
            + "; ".join(problems[:5]))

    p_delta = grab(ucv.p_delta)
    r = grab(ucv.r)
    q = grab(ucv.q)
    q_sc = grab(ucv.q_sc)

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
            xin = np.array([x[j] for j in frag.x])
            v[t], theta[t] = unpack_input(xin, net)
    elif ucv.theta and net is not None:
        theta = np.array([[x[ucv.theta[t][b]] for b in range(net.n)]
                          for t in range(T)])

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

"""Checks of the program's outputs that share no code with it.

Everything here is built from the raw MATPOWER text and the UC JSON
document: a branch-by-branch AC power flow, the hourly loads, the UC
cost of a schedule, a row-by-row MILP checker and a HiGHS reference
optimum from ``scipy.optimize.milp``. None of it imports ``compactpf``.
"""

import cmath
import copy
import math
import re

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

FLOW_TOL = 1e-8      # dataset rows are exact power-flow solutions
LIMIT_TOL = 1e-6     # engineering limits hold to the SLP feasibility tolerance
BALANCE_TOL = 1e-6   # nodal balance residual of an accepted point
ROW_TOL = 1e-6       # MILP rows and bounds of an incumbent
INT_TOL = 1e-6       # integrality of an incumbent's binaries
COST_RTOL = 1e-6     # objective against the independent cost recomputation
HIGHS_TIME_LIMIT = 120.0   # s per reference solve; the largest takes a few s


class CheckFailed(Exception):
    """An output of the program disagrees with an independent check."""


class CheckUnavailable(Exception):
    """A reference computation needed by a check did not succeed; the run
    cannot vouch for its outputs and ends with an error."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# MATPOWER case, read straight from the text
# ---------------------------------------------------------------------------

def _table(text, name):
    match = re.search(r"mpc\." + name + r"\s*=\s*\[(.*?)\]", text, re.S)
    if match is None:
        raise ValueError(f"case has no mpc.{name} table")
    rows = []
    for line in match.group(1).split("\n"):
        line = line.split("%")[0].strip().rstrip(";").strip()
        if line:
            rows.append([float(v) for v in line.split()])
    return rows


class Case:
    """Bus, branch, generator and cost tables of a MATPOWER case in p.u.

    Branch ratings are derated by ``derate`` as the paper's experiments do.
    """

    def __init__(self, text, derate=0.0):
        self.base = float(re.search(r"mpc\.baseMVA\s*=\s*([0-9.eE+-]+)",
                                    text).group(1))
        buses = _table(text, "bus")
        self.bus_ids = [int(r[0]) for r in buses]
        self.pos = {b: i for i, b in enumerate(self.bus_ids)}
        self.ref = next(i for i, r in enumerate(buses) if int(r[1]) == 3)
        self.pd = np.array([r[2] for r in buses]) / self.base
        self.qd = np.array([r[3] for r in buses]) / self.base
        self.ysh = np.array([complex(r[4], r[5]) for r in buses]) / self.base
        self.vmax = np.array([r[11] for r in buses])
        self.vmin = np.array([r[12] for r in buses])
        self.branches = []
        for r in _table(text, "branch"):
            ratio = r[8] if r[8] != 0.0 else 1.0
            tap = ratio * cmath.exp(1j * math.radians(r[9]))
            ang = [r[11], r[12]]
            for k, default in ((0, -90.0), (1, 90.0)):
                if ang[k] == 0.0 or abs(ang[k]) >= 360.0:
                    ang[k] = default
            self.branches.append({
                "f": self.pos[int(r[0])], "t": self.pos[int(r[1])],
                "ys": 1.0 / complex(r[2], r[3]), "bc": r[4], "tap": tap,
                "rate": r[5] / self.base * (1.0 - derate),
                "ang_min": math.radians(ang[0]),
                "ang_max": math.radians(ang[1]),
            })
        self.gens = [{"bus": self.pos[int(r[0])], "qmax": r[3] / self.base,
                      "qmin": r[4] / self.base, "pmax": r[8] / self.base,
                      "pmin": r[9] / self.base}
                     for r in _table(text, "gen")]
        self.gencost = _table(text, "gencost")


def power_flow(case, v, theta):
    """Nodal injections and branch flows of the pi-model network at
    (v, theta), summed branch by branch.

    Returns (p_inj, q_inj, s_from, s_to) where the flows are complex.
    """
    V = np.asarray(v, float) * np.exp(1j * np.asarray(theta, float))
    s_inj = V * np.conj(case.ysh * V)
    s_from = np.zeros(len(case.branches), complex)
    s_to = np.zeros(len(case.branches), complex)
    for k, br in enumerate(case.branches):
        f, t, ys, tap = br["f"], br["t"], br["ys"], br["tap"]
        half = 1j * br["bc"] / 2.0
        i_f = (ys + half) / abs(tap) ** 2 * V[f] - ys / tap.conjugate() * V[t]
        i_t = -ys / tap * V[f] + (ys + half) * V[t]
        s_from[k] = V[f] * i_f.conjugate()
        s_to[k] = V[t] * i_t.conjugate()
        s_inj[f] += s_from[k]
        s_inj[t] += s_to[k]
    return s_inj.real, s_inj.imag, s_from, s_to


def check_limits(case, v, theta, what):
    """Voltage magnitudes, angle differences and apparent flows in limits."""
    _, _, s_from, s_to = power_flow(case, v, theta)
    require(np.all(v >= case.vmin - LIMIT_TOL) and np.all(v <= case.vmax + LIMIT_TOL),
            f"{what}: voltage outside limits")
    for k, br in enumerate(case.branches):
        diff = theta[br["f"]] - theta[br["t"]]
        require(br["ang_min"] - LIMIT_TOL <= diff <= br["ang_max"] + LIMIT_TOL,
                f"{what}: angle difference of branch {k} outside limits")
        require(max(abs(s_from[k]), abs(s_to[k])) <= br["rate"] + LIMIT_TOL,
                f"{what}: apparent flow of branch {k} above its rating")


# ---------------------------------------------------------------------------
# UC instance document: loads, units and costs
# ---------------------------------------------------------------------------

class UCData:
    """Hourly loads and unit data of a UC JSON document over a case.

    Units with pmin = pmax = 0 are condensers, as the document format says.
    """

    def __init__(self, doc, case):
        self.T = int(doc["horizon"])
        profile = np.asarray(doc["load_profile"], float)
        self.pd = case.pd[:, None] * profile[None, :]
        ratio = np.divide(case.qd, case.pd, out=np.zeros_like(case.qd),
                          where=case.pd != 0.0)
        self.qd = self.pd * ratio[:, None]
        self.reserve = np.full(self.T, float(doc["reserve"]) / case.base)
        self.units, self.condensers = [], []
        for i, gen in enumerate(case.gens):
            d = doc["generators"].get(str(i + 1), {})
            mw = lambda key, default: d.get(key, default * case.base) / case.base
            pmin, pmax = mw("pmin", gen["pmin"]), mw("pmax", gen["pmax"])
            qmin, qmax = mw("qmin", gen["qmin"]), mw("qmax", gen["qmax"])
            if pmin == 0.0 and pmax == 0.0:
                self.condensers.append({"bus": gen["bus"], "qmin": qmin,
                                        "qmax": qmax})
                continue
            c2, c1, c0 = _quadratic(case.gencost[i], case.base)
            if "cost_segments" in d:
                segs = [(w / case.base, s * case.base)
                        for w, s in d["cost_segments"]]
            else:
                # three secants of the polynomial cost over the MATPOWER
                # row's [pmin, pmax]: the program's default cost model,
                # taken as given. The cost checks therefore confirm the
                # arithmetic of an objective, not this choice of segments;
                # secants over the document's [pmin, pmax] would price
                # uc14.json schedules about 27% higher.
                lo = gen["pmin"]
                width = (gen["pmax"] - lo) / 3.0
                cost = lambda p: c2 * p * p + c1 * p
                segs = [(width, (cost(lo + (k + 1) * width)
                                 - cost(lo + k * width)) / width)
                        for k in range(3)]
            self.units.append({
                "bus": gen["bus"], "pmin": pmin, "pmax": pmax,
                "qmin": qmin, "qmax": qmax,
                "su": mw("su", pmax), "sd": mw("sd", pmax),
                "ru": mw("ru", pmax), "rd": mw("rd", pmax),
                "tu": int(d.get("min_up", 1)),
                "init_status": int(d.get("init_status", -int(d.get("min_down", 1)))),
                "p_init": d.get("p_init", 0.0) / case.base,
                "segments": segs,
                "no_load": d.get("no_load_cost", c0),
                "tiers": [(int(h), float(c))
                          for h, c in d.get("startup_tiers", [[0, 0.0]])],
            })

    def window(self, start, T, factors):
        """The hours [start, start + T) with loads scaled per bus."""
        out = copy.copy(self)
        out.T = T
        out.pd = self.pd[:, start:start + T] * factors[:, None]
        out.qd = self.qd[:, start:start + T] * factors[:, None]
        out.reserve = self.reserve[start:start + T]
        return out


def _quadratic(row, base):
    """(c2, c1, c0) of a MATPOWER polynomial gencost row, p in p.u."""
    n = int(row[3])
    coeffs = row[4:4 + n]
    c = {n - 1 - k: val for k, val in enumerate(coeffs)}
    return c.get(2, 0.0) * base * base, c.get(1, 0.0) * base, c.get(0, 0.0)


def production_cost(uc, p_delta):
    """Convex piecewise cost of output above pmin, summed over units and
    hours, filling segments in order."""
    total = 0.0
    for g, unit in enumerate(uc.units):
        for t in range(uc.T):
            rest = max(float(p_delta[g][t]), 0.0)
            for width, slope in unit["segments"]:
                take = min(rest, width)
                total += slope * take
                rest -= take
    return total


def commitment_cost(uc, y):
    """No-load cost of every committed hour plus the startup cost of each
    off-to-on transition, priced by how long the unit had been off."""
    total = 0.0
    for g, unit in enumerate(uc.units):
        hist = unit["init_status"]
        on = hist > 0
        off_for = 0 if on else -hist
        for t in range(uc.T):
            now = bool(y[g][t])
            if now:
                total += unit["no_load"]
                if not on:
                    cost = unit["tiers"][0][1]
                    for hours, tier_cost in unit["tiers"]:
                        if off_for >= hours:
                            cost = tier_cost
                    total += cost
                off_for = 0
            else:
                off_for += 1
            on = now
    return total


def transitions(uc, y):
    """Startup and shutdown indicators implied by a commitment matrix."""
    y = np.asarray(y, int)
    prev = np.array([[1 if u["init_status"] > 0 else 0] for u in uc.units])
    full = np.hstack([prev, y])
    diff = np.diff(full, axis=1)
    return (diff > 0).astype(int), (diff < 0).astype(int)


def check_dispatch(uc, y, p_delta, r, q, what):
    """Generation caps, ramps, reserve and reactive limits of a dispatch.

    The caps follow the UC formulation of the startup/shutdown limits
    (SU applies in the startup hour, SD in the hour before a shutdown).
    """
    y = np.asarray(y, int)
    u, w = transitions(uc, y)
    T, tol = uc.T, LIMIT_TOL
    for g, unit in enumerate(uc.units):
        span = unit["pmax"] - unit["pmin"]
        pd0 = max(unit["p_init"] - unit["pmin"], 0.0) if unit["init_status"] > 0 else 0.0
        for t in range(T):
            pdt, rt = p_delta[g][t], r[g][t]
            w_next = w[g][t + 1] if t + 1 < T else 0
            cap_su = span * y[g][t] - (unit["pmax"] - unit["su"]) * u[g][t]
            cap_sd = span * y[g][t] - (unit["pmax"] - unit["sd"]) * w_next
            require(pdt >= -tol and rt >= -tol, f"{what}: negative output")
            if unit["tu"] >= 2:
                require(pdt + rt <= cap_su - (unit["pmax"] - unit["sd"]) * w_next + tol,
                        f"{what}: unit {g} hour {t} above its cap")
            else:
                require(pdt + rt <= cap_su + tol and pdt <= cap_sd + tol,
                        f"{what}: unit {g} hour {t} above its cap")
            before = pd0 if t == 0 else p_delta[g][t - 1]
            require(pdt + rt - before <= unit["ru"] + tol,
                    f"{what}: unit {g} hour {t} ramps up too fast")
            require(before - pdt <= unit["rd"] + tol,
                    f"{what}: unit {g} hour {t} ramps down too fast")
            if q is not None:
                lo, hi = (unit["qmin"], unit["qmax"]) if y[g][t] else (0.0, 0.0)
                require(lo - tol <= q[g][t] <= hi + tol,
                        f"{what}: unit {g} hour {t} reactive output out of range")
    for t in range(T):
        require(sum(r[g][t] for g in range(len(uc.units))) >= uc.reserve[t] - tol,
                f"{what}: reserve short in hour {t}")


def check_balance(case, uc, t, v, theta, y, p_delta, q, what):
    """Exact nodal balance of hour t's point against a dispatch.

    Condenser output is not reported, so at a condenser bus the implied
    output only has to lie within the condenser's range.
    """
    p_inj, q_inj, _, _ = power_flow(case, v, theta)
    p_bus = -uc.pd[:, t].copy()
    q_bus = -uc.qd[:, t].copy()
    for g, unit in enumerate(uc.units):
        if y[g][t]:
            p_bus[unit["bus"]] += unit["pmin"] + p_delta[g][t]
            q_bus[unit["bus"]] += q[g][t]
    require(np.max(np.abs(p_inj - p_bus)) <= BALANCE_TOL,
            f"{what}: active balance off in hour {t}")
    residual = q_inj - q_bus
    cond = {c["bus"] for c in uc.condensers}
    for b in range(len(residual)):
        if b not in cond:
            require(abs(residual[b]) <= BALANCE_TOL,
                    f"{what}: reactive balance off at bus {b} in hour {t}")
    for b in cond:
        lo = sum(c["qmin"] for c in uc.condensers if c["bus"] == b)
        hi = sum(c["qmax"] for c in uc.condensers if c["bus"] == b)
        require(lo - BALANCE_TOL <= residual[b] <= hi + BALANCE_TOL,
                f"{what}: condenser at bus {b} out of range in hour {t}")


def close(a, b):
    return abs(a - b) <= COST_RTOL * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# MILP rows, bounds and integrality; HiGHS reference optimum
# ---------------------------------------------------------------------------

def milp_arrays(model):
    """Objective, bounds, binaries and rows (lo <= A x <= hi) of a model,
    read from its variable and constraint lists."""
    nvar = len(model.variables)
    c = np.zeros(nvar)
    for i, coef in model.obj.items():
        c[i] += coef
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    binary = np.array([v.kind == "binary" for v in model.variables])
    rows, cols, vals, lo, hi = [], [], [], [], []
    for r, con in enumerate(model.constraints):
        for i, coef in con.coeffs.items():
            rows.append(r)
            cols.append(i)
            vals.append(coef)
        lo.append(-np.inf if con.sense == "<=" else con.rhs)
        hi.append(np.inf if con.sense == ">=" else con.rhs)
    A = sparse.csr_matrix((vals, (rows, cols)),
                          shape=(len(model.constraints), nvar))
    return c, lb, ub, binary, A, np.array(lo), np.array(hi)


def check_milp_point(model, x, objective, what):
    """Every row, bound and binary of a model holds at x, and the reported
    objective is c x plus the model's constant."""
    c, lb, ub, binary, A, lo, hi = milp_arrays(model)
    x = np.asarray(x, float)
    require(np.all(x >= lb - ROW_TOL) and np.all(x <= ub + ROW_TOL),
            f"{what}: variable outside its bounds")
    ax = A @ x
    require(np.all(ax >= lo - ROW_TOL) and np.all(ax <= hi + ROW_TOL),
            f"{what}: constraint row violated")
    xb = x[binary]
    require(np.all(np.abs(xb - np.round(xb)) <= INT_TOL),
            f"{what}: binary not integral")
    require(close(float(c @ x) + model.obj_constant, objective),
            f"{what}: objective is not c x")


def highs_reference(model, rel_gap=1e-4):
    """(optimum, proven lower bound) of a minimisation model by HiGHS
    branch-and-cut."""
    c, lb, ub, binary, A, lo, hi = milp_arrays(model)
    res = milp(c, constraints=[LinearConstraint(A, lo, hi)],
               integrality=binary.astype(int), bounds=Bounds(lb, ub),
               options={"mip_rel_gap": rel_gap, "time_limit": HIGHS_TIME_LIMIT})
    if res.status != 0:
        raise CheckUnavailable(f"HiGHS reference failed: {res.message}")
    return (float(res.fun) + model.obj_constant,
            float(res.mip_dual_bound) + model.obj_constant)

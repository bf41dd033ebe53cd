"""LP and MILP solving through HiGHS, plus MPS export/import.

``solve_milp`` solves the LP relaxation at the root and rounds its
binaries into a candidate incumbent. When that closes the gap, the root
answers; otherwise one HiGHS branch-and-cut call (presolve, cuts,
heuristics and the tree search) solves the whole model. Every incumbent
is re-solved as an LP with its binaries fixed and checked against the
model before it is reported. Models can also be exported to MPS, solved
externally and re-imported.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .errors import ValidationError
from .milp_model import MILPModel, BINARY, CONTINUOUS, LE, EQ, GE

INT_TOL = 1e-6
FEAS_TOL = 1e-7


@dataclass
class LPSolution:
    status: str            # optimal | infeasible | unbounded | error
    x: np.ndarray = None
    objective: float = math.nan


@dataclass
class MILPSolution:
    # optimal | infeasible | gap_reached | budget_exhausted | error
    status: str
    x: np.ndarray = None
    objective: float = math.nan
    best_bound: float = -math.inf
    gap: float = math.inf
    nodes: int = 0         # HiGHS branch-and-cut nodes; 0 when the root closes
    wall_time: float = 0.0


class _LPBackend:
    """Caches constraint matrices so LPs on the model only swap bounds."""

    def __init__(self, model):
        self.model = model
        self.c = model.objective_vector()
        self.rows = model.constraint_matrices()
        A_ub, b_ub, A_eq, b_eq = self.rows
        self.A_ub = A_ub if A_ub.shape[0] else None
        self.b_ub = b_ub if b_ub.size else None
        self.A_eq = A_eq if A_eq.shape[0] else None
        self.b_eq = b_eq if b_eq.size else None
        self.lb, self.ub = model.bounds_arrays()

    def solve(self, lb=None, ub=None):
        lo = self.lb if lb is None else lb
        hi = self.ub if ub is None else ub
        if np.any(lo > hi + 1e-12):
            return LPSolution(status="infeasible")
        res = linprog(self.c, A_ub=self.A_ub, b_ub=self.b_ub,
                      A_eq=self.A_eq, b_eq=self.b_eq,
                      bounds=np.column_stack([lo, hi]),
                      method="highs")
        if res.status == 0:
            return LPSolution(status="optimal", x=res.x,
                              objective=res.fun + self.model.obj_constant)
        if res.status == 2:
            return LPSolution(status="infeasible")
        if res.status == 3:
            return LPSolution(status="unbounded")
        # iteration limit or numerical trouble: no verdict on the LP
        return LPSolution(status="error")

    def solve_mip(self, bins, options):
        """One HiGHS branch-and-cut call on the whole model, its rows
        stacked as lo <= A x <= hi. Returns scipy's OptimizeResult."""
        A_ub, b_ub, A_eq, b_eq = self.rows
        integrality = np.zeros(self.c.size)
        integrality[bins] = 1
        return milp(self.c,
                    constraints=LinearConstraint(
                        sparse.vstack([A_ub, A_eq], format="csr"),
                        np.concatenate([np.full(b_ub.size, -np.inf), b_eq]),
                        np.concatenate([b_ub, b_eq])),
                    integrality=integrality,
                    bounds=Bounds(self.lb, self.ub), options=options)


def solve_lp(model):
    """Solve the model with binaries relaxed into their [0, 1] bounds."""
    return _LPBackend(model).solve()


def _is_integral(x, bins):
    return all(abs(x[i] - round(x[i])) <= INT_TOL for i in bins)


def _rounding_heuristic(backend, solve, x, bins):
    """Fix binaries at their rounded values and re-solve the LP."""
    lb = backend.lb.copy()
    ub = backend.ub.copy()
    for i in bins:
        r = round(x[i])
        lb[i] = ub[i] = r
    sol = solve(lb, ub)
    return sol if sol.status == "optimal" else None


def solve_milp(model, gap_target=0.0, time_budget=600.0, node_budget=200000):
    """Minimize the model over its binaries.

    The root LP relaxation is solved first. An integral root point, or
    the root point with its binaries rounded, answers when it meets
    ``gap_target`` against the root bound. Otherwise one HiGHS
    branch-and-cut call gets the whole model, ``gap_target`` as its
    relative gap, the rest of ``time_budget`` and ``node_budget`` nodes.
    Its point is cleaned up like the rounded root: an LP with the
    binaries fixed, then ``max_violation``. The reported bound is the
    larger of the root bound and the HiGHS dual bound. An LP or HiGHS
    call that ends in error gives "error" without an incumbent.
    Deterministic for a fixed model and configuration.
    """
    start = time.monotonic()
    backend = _LPBackend(model)
    bins = model.binary_indices()
    failed = []     # errored LPs

    def solve(lb=None, ub=None):
        sol = backend.solve(lb, ub)
        if sol.status == "error":
            failed.append(sol)
        return sol

    def finish(status, nodes, bound=-math.inf):
        """The solution to report; status None means solved, optimal or
        within the gap by the gap recomputed from the incumbent."""
        wall = time.monotonic() - start
        if incumbent is None or status in ("error", "infeasible"):
            return MILPSolution(status=status, best_bound=bound,
                                nodes=nodes, wall_time=wall)
        bound = min(bound, inc_obj)
        gap = _gap(inc_obj, bound)
        if status is None:
            status = "gap_reached" if gap > 1e-9 else "optimal"
        return MILPSolution(status=status, x=incumbent, objective=inc_obj,
                            best_bound=bound, gap=gap, nodes=nodes,
                            wall_time=wall)

    incumbent = None
    inc_obj = math.inf
    root = solve()
    if root.status == "error":
        return finish("error", 1)
    if root.status == "unbounded":
        return finish("budget_exhausted", 1)
    if root.status != "optimal":
        return finish("infeasible", 1)

    def consider(sol):
        nonlocal incumbent, inc_obj
        if sol is None or sol.status != "optimal" or sol.objective >= inc_obj - 1e-12:
            return
        x = sol.x.copy()
        rounded = np.round(x[bins])
        if bins and np.max(np.abs(x[bins] - rounded)) > 1e-9:
            # clean the continuous part against exactly-integral binaries
            lb = backend.lb.copy()
            ub = backend.ub.copy()
            lb[bins] = ub[bins] = rounded
            clean = solve(lb, ub)
            if clean.status != "optimal":
                return
            x, obj = clean.x.copy(), clean.objective
        else:
            obj = sol.objective
        x[bins] = rounded
        if model.max_violation(x) <= 1e-6 and obj < inc_obj - 1e-12:
            incumbent, inc_obj = x, obj

    if _is_integral(root.x, bins):
        consider(root)
    else:
        consider(_rounding_heuristic(backend, solve, root.x, bins))
    bound = root.objective
    if failed:
        return finish("error", 0)
    if incumbent is not None and _gap(inc_obj, bound) <= gap_target + 1e-12:
        return finish(None, 0, bound)

    res = backend.solve_mip(bins, {
        "mip_rel_gap": gap_target,
        "time_limit": max(time_budget - (time.monotonic() - start), 0.0),
        "node_limit": node_budget})
    nodes = res.mip_node_count or 0
    if res.status == 2 and incumbent is None:
        return finish("infeasible", nodes)
    if res.status not in (0, 1):
        # numerical trouble, or HiGHS rejects a model with a checked point
        return finish("error", nodes)
    if res.x is not None:
        consider(_rounding_heuristic(backend, solve, res.x, bins))
    if failed or (res.status == 0 and incumbent is None):
        return finish("error", nodes)
    if res.mip_dual_bound is not None and math.isfinite(res.mip_dual_bound):
        bound = max(bound, res.mip_dual_bound + model.obj_constant)
    return finish("budget_exhausted" if res.status == 1 else None, nodes,
                  bound)


def _gap(obj, bound):
    if not math.isfinite(obj):
        return math.inf
    return max(0.0, (obj - bound) / max(abs(obj), 1e-9))


def enumerate_binaries(model):
    """Exhaustive oracle: try every binary assignment, solve the LP with
    binaries fixed, return the best solution. Only for tiny models."""
    backend = _LPBackend(model)
    bins = model.binary_indices()
    if len(bins) > 20:
        raise ValidationError("enumeration oracle limited to 20 binaries")
    best = None
    for mask in range(2 ** len(bins)):
        lb = backend.lb.copy()
        ub = backend.ub.copy()
        for k, i in enumerate(bins):
            val = (mask >> k) & 1
            lb[i] = ub[i] = val
        sol = backend.solve(lb, ub)
        if sol.status == "error":
            return MILPSolution(status="error")
        if sol.status == "optimal" and (best is None or sol.objective < best.objective):
            best = sol
    if best is None:
        return MILPSolution(status="infeasible")
    return MILPSolution(status="optimal", x=best.x, objective=best.objective,
                        best_bound=best.objective, gap=0.0)


# ---------------------------------------------------------------------------
# MPS export / import
# ---------------------------------------------------------------------------

def _mps_name(name):
    return name.replace(" ", "_")


def _fmt(v):
    return f"{v:.17g}"


def export_mps(model):
    """Serialize to MPS text (NAME/ROWS/COLUMNS/RHS/BOUNDS/ENDATA).

    Coefficients are written with 17 significant digits so a reparse is
    bit-exact. Binaries are marked with BV bound records.
    """
    names = [_mps_name(v.name) for v in model.variables]
    if len(set(names)) != len(names):
        raise ValidationError("variable name collision after MPS mangling")

    lines = [f"NAME          {_mps_name(model.name)}", "ROWS", " N  OBJ"]
    sense_code = {LE: "L", EQ: "E", GE: "G"}
    rownames = []
    for k, con in enumerate(model.constraints):
        rn = _mps_name(con.name) if con.name else f"R{k}"
        rownames.append(rn)
        lines.append(f" {sense_code[con.sense]}  {rn}")
    if len(set(rownames)) != len(rownames):
        raise ValidationError("constraint name collision in MPS export")

    # column-major coefficient gathering
    cols = [[] for _ in range(model.nvar)]
    for i, coef in model.obj.items():
        cols[i].append(("OBJ", coef))
    for rn, con in zip(rownames, model.constraints):
        for i, coef in con.coeffs.items():
            cols[i].append((rn, coef))

    lines.append("COLUMNS")
    for i, entries in enumerate(cols):
        for rn, coef in entries:
            lines.append(f"    {names[i]}  {rn}  {_fmt(coef)}")

    lines.append("RHS")
    if model.obj_constant != 0.0:
        lines.append(f"    RHS  OBJ  {_fmt(-model.obj_constant)}")
    for rn, con in zip(rownames, model.constraints):
        if con.rhs != 0.0:
            lines.append(f"    RHS  {rn}  {_fmt(con.rhs)}")

    lines.append("BOUNDS")
    for i, v in enumerate(model.variables):
        if v.kind == BINARY:
            lines.append(f" BV BND  {names[i]}")
            continue
        lo_fin = math.isfinite(v.lb)
        hi_fin = math.isfinite(v.ub)
        if not lo_fin and not hi_fin:
            lines.append(f" FR BND  {names[i]}")
            continue
        if not lo_fin:
            lines.append(f" MI BND  {names[i]}")
        elif v.lb != 0.0:
            lines.append(f" LO BND  {names[i]}  {_fmt(v.lb)}")
        if hi_fin:
            lines.append(f" UP BND  {names[i]}  {_fmt(v.ub)}")

    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def parse_mps(text):
    """Reparse MPS text produced by export_mps into a MILPModel."""
    model = None
    section = None
    rows = {}        # name -> ("N"|sense, constraint index or None)
    row_order = []
    col_entries = {}  # varname -> list of (rowname, coef)
    rhs = {}
    bounds = {}      # varname -> dict of bound records
    for raw in text.splitlines():
        if not raw.strip():
            continue
        if not raw.startswith(" "):
            parts = raw.split()
            section = parts[0]
            if section == "NAME":
                model = MILPModel(parts[1] if len(parts) > 1 else "model")
            continue
        parts = raw.split()
        if section == "ROWS":
            code, rn = parts
            rows[rn] = code
            row_order.append(rn)
        elif section == "COLUMNS":
            vn, rn, coef = parts
            col_entries.setdefault(vn, []).append((rn, float(coef)))
        elif section == "RHS":
            _, rn, val = parts
            rhs[rn] = float(val)
        elif section == "RANGES":
            raise ValidationError("RANGES records are not supported")
        elif section == "BOUNDS":
            code = parts[0]
            vn = parts[2]
            val = float(parts[3]) if len(parts) > 3 else None
            bounds.setdefault(vn, []).append((code, val))

    if model is None:
        raise ValidationError("MPS text missing NAME record")

    for vn in col_entries:
        lb, ub, kind = 0.0, math.inf, CONTINUOUS
        for code, val in bounds.get(vn, []):
            if code == "BV":
                kind, lb, ub = BINARY, 0.0, 1.0
            elif code == "LO":
                lb = val
            elif code == "UP":
                ub = val
            elif code == "MI":
                lb = -math.inf
            elif code == "FR":
                lb, ub = -math.inf, math.inf
        model.add_var(vn, kind=kind, lb=lb, ub=ub)

    code_sense = {"L": LE, "E": EQ, "G": GE}
    con_coeffs = {rn: {} for rn in row_order if rows[rn] != "N"}
    for vn, entries in col_entries.items():
        i = model.var_index(vn)
        for rn, coef in entries:
            if rows[rn] == "N":
                model.add_obj(i, coef)
            else:
                con_coeffs[rn][i] = coef
    for rn in row_order:
        if rows[rn] == "N":
            model.obj_constant = -rhs.get(rn, 0.0)
            continue
        model.add_constr(con_coeffs[rn], code_sense[rows[rn]],
                         rhs.get(rn, 0.0), name=rn)
    return model


def import_solution(text, model):
    """Read `name value` lines and validate them against the model."""
    x = np.array([min(max(0.0, v.lb), v.ub) for v in model.variables])
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"solution line {lineno}: expected 'name value'")
        name, val = parts
        try:
            idx = model.var_index(name)
        except KeyError:
            raise ValidationError(f"solution references unknown variable {name!r}")
        x[idx] = float(val)
    viol = model.max_violation(x)
    if viol > FEAS_TOL:
        raise ValidationError(
            f"imported solution infeasible: max violation {viol:.3e}")
    obj = model.objective_value(x)
    return MILPSolution(status="optimal", x=x, objective=obj,
                        best_bound=obj, gap=0.0)

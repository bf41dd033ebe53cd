"""LP and MILP solving through HiGHS, plus MPS export/import.

Every LP and MIP goes through the HiGHS calls in ``highs``. ``solve_milp``
solves the LP relaxation at the root and rounds its binaries into a
candidate incumbent. When that closes the gap, the root answers;
otherwise one HiGHS branch-and-cut call (presolve, cuts, heuristics and
the tree search) solves the whole model. Every incumbent is re-solved as
an LP with its binaries fixed and checked against the model before it is
reported. The LPs on one model share one HiGHS instance until the MIP
call, so each starts warm from the last optimal basis. Models can also be
exported to MPS, solved externally and re-imported.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .highs import HighsInstance, linprog, mip
from .milp_model import MILPModel, BINARY, CONTINUOUS, LE, EQ, GE
from .tolerances import (CMP_TOL, GAP_FLOOR, INT_TOL, MIP_FEAS_TOL,
                         OPTIMAL_GAP)

# a limit, a rejected model or numerical trouble give "error": no verdict
_LP_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}
NODE_BUDGET = 200000    # branch-and-cut nodes one HiGHS MIP call may take


@dataclass
class LPSolution:
    status: str            # optimal | infeasible | unbounded | error
    x: np.ndarray = None
    objective: float = math.nan


@dataclass
class MILPSolution:
    # optimal | infeasible | unbounded | gap_reached | budget_exhausted |
    # error, from solve_milp; feasible, an imported point with no bound
    status: str
    x: np.ndarray = None
    objective: float = math.nan
    best_bound: float = -math.inf
    gap: float = math.inf
    nodes: int = 0         # HiGHS branch-and-cut nodes; 0 when the root closes


class LPBackend:
    """One model's arrays, its binary columns and the HiGHS instance its
    LPs run on: after the first LP, each starts warm from the last optimal
    basis. ``solve`` (the LP relaxation, with the column bounds ``lb``/
    ``ub`` in place of the model's when given) and ``mip`` price the
    model's objective, or the cost ``c`` in its place when given."""

    def __init__(self, model):
        self.model = model
        self.c = model.objective_vector()
        self.A, self.lo, self.hi = model.constraint_matrices()
        self.lb, self.ub = model.lb, model.ub
        self.bins = model.binary_indices()
        self.inst = HighsInstance()

    def solve(self, lb=None, ub=None, c=None):
        lb = self.lb if lb is None else lb
        ub = self.ub if ub is None else ub
        if np.any(lb > ub + CMP_TOL):
            return LPSolution(status="infeasible")
        res = linprog(self.c if c is None else c, self.A, self.lo, self.hi,
                      lb, ub, self.inst)
        status = _LP_STATUS.get(res.status, "error")
        if status != "optimal":
            return LPSolution(status=status)
        return LPSolution(status=status, x=res.x,
                          objective=res.fun + self.model.obj_constant)

    def mip(self, gap, time_limit, node_limit, c=None):
        """One HiGHS branch-and-cut call on the model, as ``highs.mip``
        returns it (objective constant not added)."""
        return mip(self.c if c is None else c, self.A, self.lo, self.hi,
                   self.lb, self.ub, self.bins, gap, time_limit, node_limit)

    def fixed(self, idx, vals):
        """The model's bounds with the columns ``idx`` fixed at ``vals``."""
        lb, ub = self.lb.copy(), self.ub.copy()
        lb[idx] = ub[idx] = vals
        return lb, ub


def solve_lp(model):
    """Solve the model with binaries relaxed into their [0, 1] bounds."""
    return LPBackend(model).solve()


def solve_milp(model, gap_target=0.0, time_budget=600.0,
               node_budget=NODE_BUDGET):
    """Minimize the model over its binaries.

    The root LP relaxation is solved first. The root point with its
    binaries rounded (and, unless they are integral already, the LP with
    them fixed) answers when it meets ``gap_target`` against the root
    bound. Otherwise one HiGHS branch-and-cut call gets the whole model,
    ``gap_target`` as its relative gap, the rest of ``time_budget`` and
    ``node_budget`` nodes. Its point is cleaned up like the rounded root:
    an LP with the binaries fixed, then ``max_violation``. A node-budget
    stop keeps that point. The reported bound is the larger of the root
    bound and the HiGHS dual bound. An unbounded root relaxation gives
    "unbounded", and an LP or HiGHS call that ends in error gives "error",
    both without an incumbent. Deterministic for a fixed
    model and configuration.
    """
    start = time.monotonic()
    backend = LPBackend(model)
    bins = backend.bins
    failed = []     # errored LPs

    def solve(lb=None, ub=None):
        sol = backend.solve(lb, ub)
        if sol.status == "error":
            failed.append(sol)
        return sol

    def finish(status, nodes, bound=-math.inf):
        """The solution to report; status None means solved, optimal or
        within the gap by the gap recomputed from the incumbent."""
        if incumbent is None or status in ("error", "infeasible"):
            return MILPSolution(status=status, best_bound=bound, nodes=nodes)
        bound = min(bound, inc_obj)
        gap = _gap(inc_obj, bound)
        if status is None:
            status = "gap_reached" if gap > OPTIMAL_GAP else "optimal"
        return MILPSolution(status=status, x=incumbent, objective=inc_obj,
                            best_bound=bound, gap=gap, nodes=nodes)

    incumbent = None
    inc_obj = math.inf
    root = solve()
    if root.status == "error":
        return finish("error", 1)
    if root.status == "unbounded":
        return finish("unbounded", 1)
    if root.status != "optimal":
        return finish("infeasible", 1)

    def consider(x, obj=None):
        """Offer x, its binaries rounded, as the incumbent. The LP with
        the binaries fixed supplies the continuous part and objective,
        unless ``obj`` comes with binaries integral already."""
        nonlocal incumbent, inc_obj
        rounded = np.round(x[bins])
        if obj is None or (bins and np.max(np.abs(x[bins] - rounded))
                           > INT_TOL):
            fixed = solve(*backend.fixed(bins, rounded))
            if fixed.status != "optimal":
                return
            x, obj = fixed.x, fixed.objective
        x = x.copy()
        x[bins] = rounded
        if (obj < inc_obj - CMP_TOL
                and model.max_violation(x) <= MIP_FEAS_TOL):
            incumbent, inc_obj = x, obj

    consider(root.x, root.objective)
    bound = root.objective
    if failed:
        return finish("error", 0)
    if incumbent is not None and _gap(inc_obj, bound) <= gap_target + CMP_TOL:
        return finish(None, 0, bound)

    backend.inst = HighsInstance()   # free the root LP's memory first
    res = backend.mip(gap_target,
                      max(time_budget - (time.monotonic() - start), 0.0),
                      node_budget)
    if res.status == 2 and incumbent is None:
        return finish("infeasible", res.nodes)
    if res.status not in (0, 1):
        # numerical trouble, or HiGHS rejects a model with a checked point
        return finish("error", res.nodes)
    if res.x is not None:
        consider(res.x)
    if failed or (res.status == 0 and incumbent is None):
        return finish("error", res.nodes)
    if math.isfinite(res.dual_bound):
        bound = max(bound, res.dual_bound + model.obj_constant)
    return finish("budget_exhausted" if res.status == 1 else None,
                  res.nodes, bound)


def _gap(obj, bound):
    if not math.isfinite(obj):
        return math.inf
    return max(0.0, (obj - bound) / max(abs(obj), GAP_FLOOR))


def enumerate_binaries(model):
    """Exhaustive oracle: try every binary assignment, solve the LP with
    binaries fixed, return the best solution. Only for tiny models."""
    backend = LPBackend(model)
    bins = backend.bins
    if len(bins) > 20:
        raise ValidationError("enumeration oracle limited to 20 binaries")
    best = None
    for mask in range(2 ** len(bins)):
        bits = [(mask >> k) & 1 for k in range(len(bins))]
        sol = backend.solve(*backend.fixed(bins, bits))
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
    bit-exact. Binaries are marked with BV bound records, followed by the
    bound that fixes one when its bounds are not [0, 1]. A column with no
    objective or row coefficient is declared with a zero objective entry,
    so that every variable has a COLUMNS record.
    """
    names = [_mps_name(name) for name in model.names]
    if len(set(names)) != len(names):
        raise ValidationError("variable name collision after MPS mangling")

    lines = [f"NAME          {_mps_name(model.name)}", "ROWS", " N  OBJ"]
    sense_code = {LE: "L", EQ: "E", GE: "G"}
    rows = model.constraints
    rownames = []
    for k, con in enumerate(rows):
        rn = _mps_name(con.name) if con.name else f"R{k}"
        rownames.append(rn)
        lines.append(f" {sense_code[con.sense]}  {rn}")
    if len(set(rownames)) != len(rownames):
        raise ValidationError("constraint name collision in MPS export")

    # column-major coefficient gathering
    cols = [[] for _ in range(model.nvar)]
    for i, coef in model.obj.items():
        cols[i].append(("OBJ", coef))
    for rn, con in zip(rownames, rows):
        for i, coef in con.coeffs.items():
            cols[i].append((rn, coef))

    lines.append("COLUMNS")
    for i, entries in enumerate(cols):
        for rn, coef in entries or [("OBJ", 0.0)]:
            lines.append(f"    {names[i]}  {rn}  {_fmt(coef)}")

    lines.append("RHS")
    if model.obj_constant != 0.0:
        lines.append(f"    RHS  OBJ  {_fmt(-model.obj_constant)}")
    for rn, con in zip(rownames, rows):
        if con.rhs != 0.0:
            lines.append(f"    RHS  {rn}  {_fmt(con.rhs)}")

    lines.append("BOUNDS")
    for name, binary, lb, ub in zip(names, model.binary.tolist(),
                                    model.lb.tolist(), model.ub.tolist()):
        # BV reads as [0, 1] and a column with no record as [0, inf)
        if binary:
            lines.append(f" BV BND  {name}")
        elif lb == -math.inf:
            lines.append(f" {'FR' if ub == math.inf else 'MI'} BND  {name}")
        if -math.inf < lb != 0.0:
            lines.append(f" LO BND  {name}  {_fmt(lb)}")
        if ub != (1.0 if binary else math.inf):
            lines.append(f" UP BND  {name}  {_fmt(ub)}")

    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


_ROW_SENSE = {"N": None, "L": LE, "E": EQ, "G": GE}
_BOUND_FIELDS = {"BV": 3, "MI": 3, "FR": 3, "LO": 4, "UP": 4}
_SECTIONS = ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA")


def _fields(parts, count, lineno, section):
    if len(parts) != count:
        raise ParseError(f"{section} record has {len(parts)} fields, "
                         f"expected {count}", line=lineno)
    return parts


def _number(text, lineno):
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{text!r} is not a number", line=lineno) from None


def parse_mps(text):
    """Reparse MPS text produced by export_mps into a MILPModel. An
    unknown section, a record with the wrong field count, a non-number, an
    unknown row or bound type, a duplicate row or a reference to an
    undeclared row raises ``ParseError``."""
    model = None
    section = None
    rows = {}        # name -> ["N" or a sense code, rhs], in ROWS order
    cols = {}        # varname -> [kind, lb, ub, [(rowname, coef), ...]]
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip():
            continue
        if not raw.startswith(" "):
            parts = raw.split()
            section = parts[0]
            if section not in _SECTIONS:
                raise ParseError(f"unknown section {section!r}", line=lineno)
            if section == "NAME":
                model = MILPModel(parts[1] if len(parts) > 1 else "model")
            continue
        parts = raw.split()
        if section == "ROWS":
            code, rn = _fields(parts, 2, lineno, section)
            if code not in _ROW_SENSE:
                raise ParseError(f"unknown row type {code!r}", line=lineno)
            if rn in rows:
                raise ParseError(f"duplicate row {rn!r}", line=lineno)
            rows[rn] = [code, 0.0]
        elif section in ("COLUMNS", "RHS"):
            name, rn, val = _fields(parts, 3, lineno, section)
            if rn not in rows:
                raise ParseError(f"undeclared row {rn!r}", line=lineno)
            if section == "RHS":
                rows[rn][1] = _number(val, lineno)
            else:
                col = cols.setdefault(name, [CONTINUOUS, 0.0, math.inf, []])
                col[3].append((rn, _number(val, lineno)))
        elif section == "RANGES":
            raise ValidationError("RANGES records are not supported")
        elif section == "BOUNDS":
            count = _BOUND_FIELDS.get(parts[0])
            if count is None:
                raise ParseError(f"unknown bound type {parts[0]!r}",
                                 line=lineno)
            code, _, vn, *val = _fields(parts, count, lineno, section)
            if vn not in cols:
                raise ValidationError(
                    f"BOUNDS record for undeclared column {vn!r}")
            col = cols[vn]
            if code == "BV":
                col[:3] = BINARY, 0.0, 1.0
            elif code == "MI":
                col[1] = -math.inf
            elif code == "FR":
                col[1:3] = -math.inf, math.inf
            else:
                col[1 if code == "LO" else 2] = _number(val[0], lineno)

    if model is None:
        raise ValidationError("MPS text missing NAME record")
    model.add_vars(list(cols), *([col[f] for col in cols.values()]
                                 for f in range(3)))
    con_coeffs = {rn: {} for rn, (code, _) in rows.items() if code != "N"}
    for i, (*_, entries) in enumerate(cols.values()):
        for rn, coef in entries:
            if rows[rn][0] == "N":
                if coef != 0.0:     # zero only declares an empty column
                    model.add_obj(i, coef)
            else:
                con_coeffs[rn][i] = coef
    for rn, (code, rhs) in rows.items():
        if code == "N":
            if not math.isfinite(rhs):
                raise ValidationError(f"non-finite objective constant {rhs!r}")
            model.obj_constant = -rhs
            continue
        model.add_constr(con_coeffs[rn], _ROW_SENSE[code], rhs, name=rn)
    return model


def import_solution(text, model):
    """Read `name value` lines and validate them against the model.

    The point must pass every row and bound, and hold each binary within
    0 or 1, by ``MIP_FEAS_TOL``: the bar a ``solve_milp`` incumbent meets. It comes with no bound, so it
    is reported "feasible", with bound -inf and gap inf.
    """
    x = np.minimum(np.maximum(0.0, model.lb), model.ub)
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
        try:
            x[idx] = float(val)
        except ValueError:
            raise ValidationError(
                f"solution line {lineno}: {val!r} is not a number") from None
    viol = model.max_violation(x)
    if viol > MIP_FEAS_TOL:
        raise ValidationError(
            f"imported solution infeasible: max violation {viol:.3e}")
    bins = model.binary_indices()
    frac = np.abs(x[bins] - np.round(x[bins]))
    if frac.size and frac.max() > MIP_FEAS_TOL:
        k = bins[int(np.argmax(frac))]
        raise ValidationError(
            f"imported solution not integral: binary "
            f"{model.names[k]!r} = {x[k]!r}")
    return MILPSolution(status="feasible", x=x,
                        objective=model.objective_value(x))

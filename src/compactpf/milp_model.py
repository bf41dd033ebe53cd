"""Solver-agnostic MILP model container.

Holds variables (continuous/binary with bounds), sparse linear
constraints, and a linear objective (minimization). Consumers are the
LP/MILP solve path, the MPS writer, and the UC/NN model builders.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ValidationError

LE, EQ, GE = "<=", "==", ">="

CONTINUOUS = "continuous"
BINARY = "binary"


@dataclass
class Variable:
    name: str
    kind: str
    lb: float
    ub: float


@dataclass
class Constraint:
    coeffs: dict  # var index -> coefficient
    sense: str
    rhs: float
    name: str = ""


class MILPModel:
    def __init__(self, name="model"):
        self.name = name
        self.variables = []
        self.constraints = []
        self.obj = {}          # var index -> coefficient
        self.obj_constant = 0.0
        self._names = {}

    # -- construction -------------------------------------------------

    def add_var(self, name, kind=CONTINUOUS, lb=0.0, ub=math.inf):
        if name in self._names:
            raise ValidationError(f"duplicate variable name {name!r}")
        if kind == BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if not (math.isfinite(lb) or lb == -math.inf):
            raise ValidationError(f"bad lower bound for {name}")
        if not (math.isfinite(ub) or ub == math.inf):
            raise ValidationError(f"bad upper bound for {name}")
        idx = len(self.variables)
        self.variables.append(Variable(name, kind, lb, ub))
        self._names[name] = idx
        return idx

    def add_vars(self, prefix, count, **kw):
        return [self.add_var(f"{prefix}[{i}]", **kw) for i in range(count)]

    def add_constr(self, coeffs, sense, rhs, name=""):
        coeffs = {int(i): float(c) for i, c in coeffs.items() if c != 0.0}
        for i in coeffs:
            if not 0 <= i < len(self.variables):
                raise ValidationError(f"constraint references unknown var {i}")
        if not all(math.isfinite(c) for c in coeffs.values()):
            raise ValidationError(f"non-finite coefficient in constraint {name}")
        self.constraints.append(Constraint(coeffs, sense, float(rhs), name))

    def add_obj(self, var, coef):
        self.obj[var] = self.obj.get(var, 0.0) + coef

    def var_index(self, name):
        return self._names[name]

    # -- queries ------------------------------------------------------

    @property
    def nvar(self):
        return len(self.variables)

    def binary_indices(self):
        return [i for i, v in enumerate(self.variables) if v.kind == BINARY]

    def bounds_arrays(self):
        lb = np.array([v.lb for v in self.variables])
        ub = np.array([v.ub for v in self.variables])
        return lb, ub

    def objective_vector(self):
        c = np.zeros(self.nvar)
        for i, coef in self.obj.items():
            c[i] = coef
        return c

    def constraint_matrices(self):
        """(A, lo, hi): the rows as lo <= A x <= hi in the model's order,
        A a CSC matrix. An == row has lo == hi; a <= row has lo = -inf
        and a >= row hi = +inf."""
        m = len(self.constraints)
        lo, hi = np.full(m, -np.inf), np.full(m, np.inf)
        ri, ci, data = [], [], []
        for r, con in enumerate(self.constraints):
            if con.sense not in (LE, EQ, GE):
                raise ValidationError(f"unknown sense {con.sense!r}")
            if con.sense != LE:
                lo[r] = con.rhs
            if con.sense != GE:
                hi[r] = con.rhs
            ri.extend([r] * len(con.coeffs))
            ci.extend(con.coeffs)
            data.extend(con.coeffs.values())
        A = sparse.csc_array((data, (ri, ci)), shape=(m, self.nvar))
        return A, lo, hi

    def objective_value(self, x):
        return float(self.objective_vector() @ x) + self.obj_constant

    def max_violation(self, x):
        """Largest constraint/bound violation of a point (checker used to
        validate solver output; shares nothing with the solve path). A
        point with a non-finite entry violates by ``inf``."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            return math.inf
        worst = 0.0
        for v, xi in zip(self.variables, x):
            worst = max(worst, v.lb - xi, xi - v.ub)
        for con in self.constraints:
            lhs = sum(c * x[i] for i, c in con.coeffs.items())
            if con.sense == EQ:
                worst = max(worst, abs(lhs - con.rhs))
            elif con.sense == LE:
                worst = max(worst, lhs - con.rhs)
            else:
                worst = max(worst, con.rhs - lhs)
        return worst

    def stats(self):
        nbin = len(self.binary_indices())
        return {
            "variables": self.nvar,
            "binaries": nbin,
            "constraints": len(self.constraints),
        }

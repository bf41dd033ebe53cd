"""Solver-agnostic MILP model container.

Holds columns (continuous/binary with bounds), sparse linear
constraints, and a linear objective (minimization). Consumers are the
LP/MILP solve path, the MPS writer, and the UC/NN model builders.

Columns and rows are each stored once, as arrays: a column's bounds
(``lb``, ``ub``, edited in place), binary flag (``binary``) and name
(``names``); a row's COO triplets, sense, right-hand side and name
(``row_names``). Builders add them a block at a time (``add_vars``,
``add_rows``) or one at a time (``add_var``, ``add_constr``) under the
same rules. ``constraint_matrices`` and ``max_violation`` build their
sparse matrices from the triplets; ``variables`` and ``constraints`` are
read-only views built on each read.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ValidationError

LE, EQ, GE = "<=", "==", ">="
SENSES = (LE, EQ, GE)
_LE, _EQ, _GE = range(3)   # a row's stored sense: its index in SENSES

CONTINUOUS = "continuous"
BINARY = "binary"


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    lb: float
    ub: float


@dataclass(frozen=True)
class Constraint:
    coeffs: dict  # var index -> coefficient
    sense: str
    rhs: float
    name: str = ""


def stack_entries(*terms):
    """``add_rows``' (rows, cols, vals) from terms (rows, cols, vals), each
    three arrays that broadcast against each other, in term order."""
    shapes = [np.broadcast(*term).shape for term in terms]
    sizes = [math.prod(shape) for shape in shapes]
    out = (np.empty(sum(sizes), np.intp), np.empty(sum(sizes), np.intp),
           np.empty(sum(sizes)))
    start = 0
    for term, shape, size in zip(terms, shapes, sizes):
        for dst, src in zip(out, term):
            dst[start:start + size].reshape(shape)[...] = src
        start += size
    return out


class MILPModel:
    def __init__(self, name="model"):
        self.name = name
        self.lb, self.ub = np.empty(0), np.empty(0)
        self.binary = np.empty(0, bool)
        self.names = []
        self.row_names = []
        self.obj = {}          # var index -> coefficient
        self.obj_constant = 0.0
        self._index = {}       # column name -> index
        # blocks of (row, col, val) triplets and per-row (sense, rhs)
        # arrays, merged into one block when read
        self._blocks = [(np.empty(0, np.intp), np.empty(0, np.intp),
                         np.empty(0), np.empty(0, np.int8), np.empty(0))]

    # -- construction -------------------------------------------------

    def add_vars(self, names, kind=CONTINUOUS, lb=0.0, ub=math.inf):
        """Append columns named ``names``, of kind ``kind`` (one for all or
        one per column) and with bounds ``lb`` and ``ub`` (scalars or one per
        column); their indices. A binary's bounds are clamped into [0, 1].
        A name in the model or twice in ``names``, an unknown kind, kinds or
        bounds that do not fit ``names``, a NaN or +inf lower bound or a NaN
        or -inf upper bound raises ``ValidationError`` and adds nothing."""
        start, k = self.nvar, len(names)
        index = dict(zip(names, range(start, start + k)))
        if len(index) < k or not self._index.keys().isdisjoint(index):
            dup = next(n for i, n in enumerate(names, start)
                       if self._index.get(n, index[n]) != i)
            raise ValidationError(f"duplicate variable name {dup!r}")
        lo, hi, kinds = np.empty(k), np.empty(k), np.empty(k, object)
        try:
            lo[...], hi[...], kinds[...] = lb, ub, kind
        except ValueError:
            raise ValidationError(f"kind or bound count is not {k}") from None
        binary = kinds == BINARY
        np.maximum(lo, 0.0, out=lo, where=binary)
        np.minimum(hi, 1.0, out=hi, where=binary)
        # NaN compares false, so these hold for every bad bound
        for what, bad in (("kind", ~binary & (kinds != CONTINUOUS)),
                          ("lower bound", ~(lo < math.inf)),
                          ("upper bound", ~(hi > -math.inf))):
            if bad.any():
                raise ValidationError(
                    f"bad {what} for {names[int(np.argmax(bad))]}")
        self.lb, self.ub, self.binary = map(np.concatenate, zip(
            (self.lb, self.ub, self.binary), (lo, hi, binary)))
        self.names += names
        self._index.update(index)
        return list(range(start, start + k))

    def add_var(self, name, kind=CONTINUOUS, lb=0.0, ub=math.inf):
        """``add_vars`` with a block of one column; its index."""
        return self.add_vars([name], kind, lb, ub)[0]

    def add_rows(self, rows, cols, vals, sense, rhs, names):
        """Append a block of ``len(names)`` rows: block row k reads
        sum of vals[e] x[cols[e]] over the entries e with rows[e] == k,
        then ``sense`` (one for the block, or one per row), then rhs[k]
        (a scalar serves every row), and is named names[k].

        ``rows``, ``cols`` and ``vals`` broadcast against each other.
        Entries with a zero value are dropped; the entries of one row and
        column add up, as in a COO matrix. An entry outside the block's
        rows, a kept entry on an unknown column, a non-finite value or
        right-hand side, or an unknown sense raises ``ValidationError``
        and adds nothing.
        """
        k = len(names)
        rows, cols, vals = stack_entries((rows, cols, vals))
        if rows.size and (rows.min() < 0 or rows.max() >= k):
            raise ValidationError(f"row entry outside a block of {k} rows")
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        unknown = (cols < 0) | (cols >= self.nvar)
        if unknown.any():
            raise ValidationError(
                f"constraint references unknown var {cols[unknown][0]}")
        bad = ~np.isfinite(vals)
        if bad.any():
            raise ValidationError("non-finite coefficient in constraint "
                                  f"{names[rows[bad][0]]}")
        senses = [sense] if isinstance(sense, str) else sense
        try:
            code = [SENSES.index(s) for s in senses]
        except ValueError:
            bad = next(s for s in senses if s not in SENSES)
            raise ValidationError(f"unknown sense {bad!r}") from None
        row_sense, row_rhs = np.empty(k, np.int8), np.empty(k)
        row_sense[...], row_rhs[...] = code, rhs
        bad = ~np.isfinite(row_rhs)
        if bad.any():
            raise ValidationError("non-finite right-hand side in constraint "
                                  f"{names[int(np.argmax(bad))]}")
        self._blocks.append((rows + self.nrows, cols, vals, row_sense,
                             row_rhs))
        self.row_names.extend(names)

    def add_constr(self, coeffs, sense, rhs, name=""):
        """Append one row, sum of c x[i] over ``coeffs``' (i, c) items,
        ``sense``, ``rhs``: ``add_rows`` with a block of one row."""
        self.add_rows(0, [int(i) for i in coeffs],
                      [float(c) for c in coeffs.values()], sense, rhs,
                      [name])

    def add_obj(self, var, coef):
        """Add ``coef`` to column ``var``'s objective coefficient; a
        non-finite ``coef`` raises ``ValidationError``."""
        if not math.isfinite(coef):
            raise ValidationError(f"non-finite objective coefficient {coef!r}")
        self.obj[var] = self.obj.get(var, 0.0) + coef

    def var_index(self, name):
        return self._index[name]

    # -- queries ------------------------------------------------------

    @property
    def nvar(self):
        return len(self.names)

    @property
    def nrows(self):
        return len(self.row_names)

    def _rows(self):
        """(row, col, val, sense, rhs) arrays of every row, the blocks
        merged into one."""
        if len(self._blocks) > 1:
            self._blocks = [tuple(map(np.concatenate, zip(*self._blocks)))]
        return self._blocks[0]

    @property
    def variables(self):
        """The columns as a tuple of frozen ``Variable`` objects, in column
        order; a view built from the column arrays, which it cannot edit."""
        kinds = np.where(self.binary, BINARY, CONTINUOUS).tolist()
        return tuple(map(Variable, self.names, kinds, self.lb.tolist(),
                         self.ub.tolist()))

    @property
    def constraints(self):
        """The rows as a tuple of ``Constraint`` objects, in row order; a
        view built from the row arrays, so editing it changes nothing."""
        row, col, val, sense, rhs = self._rows()
        coeffs = [{} for _ in range(self.nrows)]
        for r, c, v in zip(row.tolist(), col.tolist(), val.tolist()):
            coeffs[r][c] = coeffs[r].get(c, 0.0) + v
        return tuple(
            Constraint(d, SENSES[s], b, name) for d, s, b, name in zip(
                coeffs, sense.tolist(), rhs.tolist(), self.row_names))

    def binary_indices(self):
        return np.flatnonzero(self.binary).tolist()

    def objective_vector(self):
        c = np.zeros(self.nvar)
        c[list(self.obj)] = list(self.obj.values())
        return c

    def constraint_matrices(self):
        """(A, lo, hi): the rows as lo <= A x <= hi in the model's order,
        A a CSC matrix. An == row has lo == hi; a <= row has lo = -inf
        and a >= row hi = +inf."""
        row, col, val, sense, rhs = self._rows()
        A = sparse.csc_array((val, (row, col)), shape=(self.nrows, self.nvar))
        lo = np.where(sense != _LE, rhs, -np.inf)
        hi = np.where(sense != _GE, rhs, np.inf)
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
        row, col, val, sense, rhs = self._rows()
        lhs = sparse.csr_array((val, (row, col)),
                               shape=(self.nrows, self.nvar)) @ x
        over = np.select([sense == _EQ, sense == _LE],
                         [np.abs(lhs - rhs), lhs - rhs], rhs - lhs)
        return float(max(np.max(self.lb - x, initial=0.0),
                         np.max(x - self.ub, initial=0.0),
                         np.max(over, initial=0.0)))

    def stats(self):
        return {"variables": self.nvar, "binaries": int(self.binary.sum()),
                "constraints": self.nrows}

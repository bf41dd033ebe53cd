"""Every HiGHS call of the package, and the one map of its outcomes.

HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018) is driven through
``scipy.optimize._highspy._core``, the binding scipy ships (>= 1.17.1),
not through scipy's ``milp`` and ``linprog``, which rebuild an instance
per call, keep no basis, and report a node limit as an error and a
rejected model as infeasible. ``linprog`` solves LPs on an instance the
caller keeps, warm across re-solves; ``mip`` makes one branch-and-cut
call. Both map HiGHS's model status to 0 optimal; 1 time, iteration or
node limit; 2 infeasible; 3 unbounded; 4 anything else, including a
rejected model, a failed ``run()`` and a non-finite "optimal".
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy import _core as _highs

_ERROR = _highs.HighsStatus.kError


class LPResult(NamedTuple):
    status: int     # 0 optimal, 1 time/iteration limit, 2 infeasible,
                    # 3 unbounded, 4 any other outcome
    x: np.ndarray   # None unless status is 0
    fun: float


class MIPResult(NamedTuple):
    status: int       # as LPResult's; a node limit is 1
    x: np.ndarray     # HiGHS's primal point, None when it has none
    fun: float
    nodes: int        # branch-and-cut nodes
    dual_bound: float


_STATUS = {
    _highs.HighsModelStatus.kOptimal: 0,
    _highs.HighsModelStatus.kTimeLimit: 1,
    _highs.HighsModelStatus.kIterationLimit: 1,
    _highs.HighsModelStatus.kSolutionLimit: 1,
    _highs.HighsModelStatus.kInfeasible: 2,
    _highs.HighsModelStatus.kUnbounded: 3,
}


class HighsInstance:
    """One HiGHS instance kept across a sequence of LPs: the model it
    holds, that model's bounds, and the basis of its last optimal
    solve."""

    def __init__(self):
        self.highs = _highs._Highs()
        self.highs.setOptionValue("log_to_console", False)
        self.c = self.A = None
        self.lo = self.hi = self.lb = self.ub = None
        self.basis = None


def _lp(c, A, lo, hi, lb, ub):
    """min c.x s.t. lo <= A x <= hi, lb <= x <= ub as a HighsLp (A CSC)."""
    model = _highs.HighsLp()
    model.num_col_, model.num_row_ = A.shape[1], A.shape[0]
    model.col_cost_, model.col_lower_, model.col_upper_ = c, lb, ub
    model.row_lower_, model.row_upper_ = lo, hi
    mat = model.a_matrix_
    mat.format_ = _highs.MatrixFormat.kColwise
    mat.num_col_, mat.num_row_ = A.shape[1], A.shape[0]
    mat.start_, mat.index_, mat.value_ = A.indptr, A.indices, A.data
    return model


def linprog(c, A, lo, hi, lb, ub, inst):
    """Solve min c.x s.t. lo <= A x <= hi, lb <= x <= ub on ``inst``'s HiGHS.

    A call with a new matrix ``A`` (CSC) passes the whole model and starts
    from the basis of the instance's last optimal solve; the instance's
    first LP has none and is solved cold, with scipy ``milp``'s options,
    so it gives the result ``milp`` gives. A call with the matrix and cost
    vector the instance holds (the same objects) is a re-solve: only the
    column and row bounds that differ are changed, and HiGHS continues
    from the basis it has.
    """
    h = inst.highs
    if A is inst.A and c is inst.c:
        cols = np.flatnonzero((lb != inst.lb) | (ub != inst.ub))
        ok = h.changeColsBounds(cols.size, cols.astype(np.int32), lb[cols],
                                ub[cols]) != _ERROR
        for i in np.flatnonzero((lo != inst.lo) | (hi != inst.hi)):
            ok &= h.changeRowBounds(int(i), lo[i], hi[i]) != _ERROR
    else:
        ok = h.passModel(_lp(c, A, lo, hi, lb, ub)) != _ERROR
        inst.c, inst.A = (c, A) if ok else (None, None)
        if ok and inst.basis is not None:
            h.setBasis(inst.basis)
    inst.lo, inst.hi, inst.lb, inst.ub = lo, hi, lb, ub
    if not ok or h.run() == _ERROR:
        return LPResult(4, None, math.nan)
    status = _STATUS.get(h.getModelStatus(), 4)
    fun = h.getInfo().objective_function_value
    if status == 0 and not math.isfinite(fun):
        status = 4
    if status != 0:
        return LPResult(status, None, math.nan)
    basis = h.getBasis()
    if basis.valid:
        inst.basis = basis
    return LPResult(0, np.array(h.getSolution().col_value), fun)


def mip(c, A, lo, hi, lb, ub, bins, gap, time_limit, node_limit):
    """One HiGHS branch-and-cut call: min c.x s.t. lo <= A x <= hi,
    lb <= x <= ub, x integral on ``bins``.

    The call gets a fresh instance with scipy ``milp``'s options: log off,
    ``mip_rel_gap`` ``gap``, ``time_limit`` and ``mip_max_nodes``
    ``node_limit``. The point, objective, node count and dual bound are
    read from HiGHS; the point only when HiGHS holds a feasible one.
    """
    h = HighsInstance().highs
    h.setOptionValue("mip_rel_gap", float(gap))
    h.setOptionValue("time_limit", float(time_limit))
    h.setOptionValue("mip_max_nodes", int(node_limit))
    idx = np.asarray(bins, dtype=np.int32)
    kind = np.full(idx.size, int(_highs.HighsVarType.kInteger), np.uint8)
    if (h.passModel(_lp(c, A, lo, hi, lb, ub)) == _ERROR
            or h.changeColsIntegrality(idx.size, idx, kind) == _ERROR
            or h.run() == _ERROR):
        return MIPResult(4, None, math.nan, 0, -math.inf)
    info = h.getInfo()
    feasible = info.primal_solution_status == _highs.kSolutionStatusFeasible
    x = np.array(h.getSolution().col_value) if feasible else None
    status = _STATUS.get(h.getModelStatus(), 4)
    fun = info.objective_function_value
    if status == 0 and (x is None or not math.isfinite(fun)):
        status = 4
    return MIPResult(status, x, fun, info.mip_node_count, info.mip_dual_bound)

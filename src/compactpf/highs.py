"""Every HiGHS call of the package, and the one map of its outcomes.

HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018) is driven through
``scipy.optimize._highspy._core``, the binding scipy ships (>= 1.17.1),
not through scipy's ``milp`` and ``linprog``, which rebuild an instance
per call, keep no basis, and report a node limit as an error and a
rejected model as infeasible. Models are passed as CSC arrays through
the binding's array ``passModel``. ``linprog`` solves LPs on an instance
the caller keeps, each warm from the last optimal basis; ``mip`` makes one
branch-and-cut call. Both map HiGHS's model status to 0 optimal; 1 time,
iteration or node limit; 2 infeasible; 3 unbounded; 4 anything else,
including a rejected model, a failed ``run()`` and a non-finite
"optimal".

Every instance keeps HiGHS's default simplex options but the SLP's
(``HighsInstance.slp``), whose dual simplex prices with Devex and leaves
the model unscaled.
"""

import math
import os
import sys
import threading
from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy import _core as _highs

_ERROR = _highs.HighsStatus.kError
_COLWISE = int(_highs.MatrixFormat.kColwise)
_MINIMIZE = int(_highs.ObjSense.kMinimize)
# ``simplex_dual_edge_weight_strategy``: HiGHS's default (-1) chooses dual
# steepest edge; 1 is Devex
_DEVEX = 1
# ``simplex_scale_strategy``: HiGHS's default (2) scales the model before
# the simplex runs; 0 leaves it as passed
_UNSCALED = 0


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
    """One HiGHS instance kept across a sequence of LPs, and the basis of
    its last optimal solve."""

    def __init__(self):
        self.highs = _highs._Highs()
        self.highs.setOptionValue("log_to_console", False)
        self.basis = None

    @classmethod
    def slp(cls):
        """The SLP's instance: its dual simplex prices with Devex (Forrest
        & Goldfarb, Math. Prog. 1992) instead of the default dual steepest
        edge, and runs on the model as passed, without HiGHS's scaling.
        An SLP solves a sequence of warm LPs that each take a few
        iterations on one large matrix. There a Devex iteration costs less
        than steepest edge saves, and HiGHS's scaling of the whole matrix
        costs more than it helps. Replayed by ``tools/lp_replay.py``
        (2-core x86-64 Linux, medians of 9 replays), the 24-hour oracle's
        111 LPs take 0.41 s inside HiGHS with the defaults, 0.33 s with
        Devex alone and 0.25 s with both options, for 2797, 3119 and 3219
        simplex iterations; every LP ends in the status the defaults give
        it, and its objective agrees to 7e-15 relative."""
        inst = cls()
        inst.highs.setOptionValue("simplex_dual_edge_weight_strategy",
                                  _DEVEX)
        inst.highs.setOptionValue("simplex_scale_strategy", _UNSCALED)
        return inst


def _pass_model(h, c, A, lo, hi, lb, ub, integrality=None):
    """Pass min c.x s.t. lo <= A x <= hi, lb <= x <= ub (A CSC) to ``h`` as
    arrays. The overload reads one integrality entry per column, so an LP
    gets a full-length all-continuous (zero) array, never an empty one."""
    if integrality is None:
        integrality = np.zeros(A.shape[1], np.int32)
    return h.passModel(
        A.shape[1], A.shape[0], A.nnz, _COLWISE, _MINIMIZE, 0.0, c, lb, ub,
        lo, hi, A.indptr.astype(np.int32, copy=False),
        A.indices.astype(np.int32, copy=False), A.data, integrality)


def _solution(h, n):
    """The primal point of ``h``'s n columns. The binding hands it over as
    a list; ``np.fromiter`` reads it without ``np.array``'s type probe."""
    return np.fromiter(h.getSolution().col_value, float, n)


def linprog(c, A, lo, hi, lb, ub, inst):
    """Solve min c.x s.t. lo <= A x <= hi, lb <= x <= ub on ``inst``'s HiGHS.

    Every call passes the whole model as arrays and starts from the basis
    of the instance's last optimal solve. The instance's first LP has none
    and is solved cold. On an instance with HiGHS's default options, that
    is with scipy ``milp``'s options, so it gives the result ``milp``
    gives. A ``HighsInstance.slp`` instance prices with Devex on the
    unscaled model, so its LPs may end at another optimal vertex of equal
    objective.
    """
    h = inst.highs
    ok = _pass_model(h, c, A, lo, hi, lb, ub) != _ERROR
    if ok and inst.basis is not None:
        h.setBasis(inst.basis)
    if not ok or h.run() == _ERROR:
        return LPResult(4, None, math.nan)
    status = _STATUS.get(h.getModelStatus(), 4)
    fun = h.getObjectiveValue()
    if status == 0 and not math.isfinite(fun):
        status = 4
    if status != 0:
        return LPResult(status, None, math.nan)
    basis = h.getBasis()
    if basis.valid:
        inst.basis = basis
    return LPResult(0, _solution(h, A.shape[1]), fun)


class _NullStdout:
    """While any caller is inside, file descriptor 1 points at the null
    device. A process has one fd 1, so concurrent callers share one
    redirect: the first to enter makes it and the last to leave undoes
    it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._users = 0
        self._saved = None      # the real fd 1, while redirected

    def __enter__(self):
        with self._lock:
            if self._users == 0:
                sys.stdout.flush()
                null = os.open(os.devnull, os.O_WRONLY)
                try:
                    saved = os.dup(1)
                    os.dup2(null, 1)
                finally:
                    os.close(null)
                self._saved = saved
            self._users += 1

    def __exit__(self, *exc):
        with self._lock:
            self._users -= 1
            if self._users == 0:
                os.dup2(self._saved, 1)
                os.close(self._saved)
                self._saved = None


_NULL_STDOUT = _NullStdout()


def _run_off_stdout(h):
    """``h.run()`` with file descriptor 1 on the null device. HiGHS 1.12's
    MIP prints ``transformNewIntegerFeasibleSolution`` lines straight to
    stdout whatever its log options say, and a caller's stdout may be data
    (a JSON result, a schedule). Safe to call from several threads at
    once."""
    with _NULL_STDOUT:
        return h.run()


def mip(c, A, lo, hi, lb, ub, bins, gap, time_limit, node_limit):
    """One HiGHS branch-and-cut call: min c.x s.t. lo <= A x <= hi,
    lb <= x <= ub, x integral on ``bins``.

    The call gets a fresh instance with scipy ``milp``'s options: log off,
    ``mip_rel_gap`` ``gap``, ``time_limit`` and ``mip_max_nodes``
    ``node_limit``. The point, objective, node count and dual bound are
    read from HiGHS; the point only when HiGHS holds a feasible one.
    HiGHS runs with stdout pointed at the null device.
    """
    h = HighsInstance().highs
    h.setOptionValue("mip_rel_gap", float(gap))
    h.setOptionValue("time_limit", float(time_limit))
    h.setOptionValue("mip_max_nodes", int(node_limit))
    kind = np.zeros(A.shape[1], np.int32)
    kind[np.asarray(bins, dtype=int)] = int(_highs.HighsVarType.kInteger)
    if (_pass_model(h, c, A, lo, hi, lb, ub, kind) == _ERROR
            or _run_off_stdout(h) == _ERROR):
        return MIPResult(4, None, math.nan, 0, -math.inf)
    info = h.getInfo()
    feasible = info.primal_solution_status == _highs.kSolutionStatusFeasible
    x = _solution(h, A.shape[1]) if feasible else None
    status = _STATUS.get(h.getModelStatus(), 4)
    fun = info.objective_function_value
    if status == 0 and (x is None or not math.isfinite(fun)):
        status = 4
    return MIPResult(status, x, fun, info.mip_node_count, info.mip_dual_bound)

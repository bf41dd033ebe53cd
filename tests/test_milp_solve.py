import math
import os
import sys
import threading

import numpy as np
import pytest
from scipy.optimize._highspy import _core

from compactpf import data_factory, highs, milp_solve
from compactpf.highs import LPResult, MIPResult
from compactpf.milp_encode import (FIXED_OFF, FREE, BigMBounds,
                                   interval_bounds, standalone_fragment,
                                   tighten_bounds)
from compactpf.milp_model import MILPModel, BINARY, LE, EQ, GE
from compactpf.pwl_learner import CompactPWLModel
from compactpf.uc_builder import build_dc_uc
from compactpf.milp_solve import (solve_lp, solve_milp, enumerate_binaries,
                                  export_mps, import_solution)
from compactpf.errors import ValidationError
from compactpf.tolerances import MIP_FEAS_TOL, PRIMAL_TOL

from conftest import read_mps, reads_back_as


def _knapsack(values, weights, cap):
    """Maximize value under a weight cap (as minimization)."""
    m = MILPModel("knapsack")
    xs = [m.add_var(f"x[{i}]", kind=BINARY) for i in range(len(values))]
    m.add_constr({x: w for x, w in zip(xs, weights)}, LE, cap)
    for x, v in zip(xs, values):
        m.add_obj(x, -v)
    return m, xs


def test_lp_simple():
    m = MILPModel()
    x = m.add_var("x", lb=0.0, ub=4.0)
    y = m.add_var("y", lb=0.0, ub=4.0)
    m.add_constr({x: 1.0, y: 1.0}, LE, 5.0)
    m.add_obj(x, -1.0)
    m.add_obj(y, -2.0)
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-9.0)  # y=4, x=1
    assert sol.x[y] == pytest.approx(4.0)


def test_lp_infeasible():
    m = MILPModel()
    x = m.add_var("x", lb=0.0, ub=1.0)
    m.add_constr({x: 1.0}, GE, 2.0)
    assert solve_lp(m).status == "infeasible"


def test_milp_knapsack_optimal():
    values = [10, 13, 7, 8, 4]
    weights = [3, 4, 2, 3, 1]
    m, xs = _knapsack(values, weights, 7)
    sol = solve_milp(m)
    assert sol.status == "optimal"
    # optimum: items 1, 2, 4 (weight 7, value 24)
    assert sol.objective == pytest.approx(-24.0)
    assert sol.gap <= 1e-9
    assert np.all(np.isin(sol.x[: len(xs)], (0.0, 1.0)))


def test_milp_matches_enumeration():
    rng = np.random.default_rng(17)
    for trial in range(5):
        nv = 8
        values = rng.integers(1, 20, nv)
        weights = rng.integers(1, 10, nv)
        cap = int(weights.sum() // 2)
        m, _ = _knapsack(list(values), list(weights), cap)
        bb = solve_milp(m)
        ref = enumerate_binaries(m)
        assert bb.status == "optimal"
        assert bb.objective == pytest.approx(ref.objective, abs=1e-6)


def test_milp_infeasible():
    m = MILPModel()
    x = m.add_var("x", kind=BINARY)
    y = m.add_var("y", kind=BINARY)
    m.add_constr({x: 1.0, y: 1.0}, GE, 3.0)
    assert solve_milp(m).status == "infeasible"


def test_milp_unbounded_root_is_unbounded():
    """min -x with x >= b, x >= 0 and b binary: the root LP is unbounded,
    so the MILP is reported unbounded, not as a spent budget."""
    m = MILPModel()
    x = m.add_var("x", lb=0.0, ub=math.inf)
    b = m.add_var("b", kind=BINARY)
    m.add_constr({x: 1.0, b: -1.0}, GE, 0.0)
    m.add_obj(x, -1.0)
    assert solve_lp(m).status == "unbounded"
    sol = solve_milp(m)
    assert sol.status == "unbounded"
    assert sol.x is None and math.isnan(sol.objective)


def test_milp_respects_equality_logic():
    # y = x1 + x2, y <= 1, maximize x1 + x2: optimum 1
    m = MILPModel()
    x1 = m.add_var("x1", kind=BINARY)
    x2 = m.add_var("x2", kind=BINARY)
    y = m.add_var("y", lb=0.0, ub=1.0)
    m.add_constr({y: 1.0, x1: -1.0, x2: -1.0}, EQ, 0.0)
    m.add_obj(x1, -1.0)
    m.add_obj(x2, -1.0)
    sol = solve_milp(m)
    assert sol.objective == pytest.approx(-1.0)


def test_enumeration_limit():
    m = MILPModel()
    for i in range(21):
        m.add_var(f"b[{i}]", kind=BINARY)
    with pytest.raises(ValidationError):
        enumerate_binaries(m)


def test_mps_round_trip_coefficients(tmp_path):
    m, xs = _knapsack([10, 13, 7], [3, 4, 2], 6)
    c = m.add_var("slack", lb=-1.5, ub=math.inf)
    m.add_constr({xs[0]: 1.0, c: -2.5}, GE, -0.75, name="link")
    m.obj_constant = 4.25
    path = tmp_path / "m.mps"
    path.write_text(export_mps(m))
    lp, status = read_mps(path)
    assert status == _core.HighsStatus.kOk
    assert reads_back_as(lp, m)


def test_mps_round_trip_declares_an_empty_column(net14, lin14, box14,
                                                 inst4, tmp_path):
    # a ReLU that never activates keeps a zero w2 column, so its fixed-off
    # z has no objective or row coefficient and only a BOUNDS record
    rng = np.random.default_rng(3)
    w2 = rng.standard_normal((net14.d_out, 4)) * 0.1
    w2[:, 0] = 0.0
    model = CompactPWLModel(
        w1=rng.standard_normal((net14.d_in, 4)) / np.sqrt(net14.d_in),
        w2=w2, b=rng.standard_normal(4) * 0.01, linear=lin14)
    bounds = BigMBounds(m_min=np.full(4, -1.0),
                        m_max=np.array([-0.5, 1.0, 1.0, 1.0]),
                        status=(FIXED_OFF, FREE, FREE, FREE),
                        provenance=("interval",) * 4)
    fragment, _ = standalone_fragment(model, bounds, box14)
    z0 = fragment.names.index("nn.z[0]")
    assert z0 not in fragment.obj
    assert fragment.constraint_matrices()[0][:, [z0]].nnz == 0
    path = tmp_path / "fragment.mps"
    path.write_text(export_mps(fragment))
    lp, status = read_mps(path)
    assert status == _core.HighsStatus.kOk
    assert reads_back_as(lp, fragment)


def test_mps_of_a_fixed_binary_reads_back_fixed(net14, inst4, tmp_path):
    # uc14_t4's unit 1 starts above its shutdown ramp, so the DC-UC fixes
    # its binary w[0][0] at 0: HiGHS ignores a bound after BV, so the file
    # must give it as an integer column with its bounds
    dc_uc, _ = build_dc_uc(inst4, net14)
    w00 = dc_uc.var_index("w[0][0]")
    assert (dc_uc.binary[w00], dc_uc.lb[w00], dc_uc.ub[w00]) == (True, 0, 0)
    path = tmp_path / "dc.mps"
    path.write_text(export_mps(dc_uc))
    lp, status = read_mps(path)
    assert status == _core.HighsStatus.kOk
    assert lp.integrality_[w00] == _core.HighsVarType.kInteger
    assert (lp.col_lower_[w00], lp.col_upper_[w00]) == (0.0, 0.0)
    assert reads_back_as(lp, dc_uc)


def test_mps_rejects_duplicate_rows():
    m = MILPModel()
    x = m.add_var("x", lb=0.0, ub=1.0)
    m.add_constr({x: 1.0}, LE, 1.0, name="same")
    m.add_constr({x: 1.0}, LE, 0.5, name="same")
    with pytest.raises(ValidationError):
        export_mps(m)


def test_import_solution():
    m, xs = _knapsack([10, 13], [3, 4], 7)
    sol = import_solution("x[0] 1\nx[1] 1\n", m)
    assert sol.objective == pytest.approx(-23.0)
    with pytest.raises(ValidationError):
        import_solution("x[0] 1\nbogus 1\n", m)
    # weight 3+4 <= 6 fails: infeasible point rejected
    m2, _ = _knapsack([10, 13], [3, 4], 6)
    with pytest.raises(ValidationError):
        import_solution("x[0] 1\nx[1] 1\n", m2)


def test_import_solution_rejects_nan():
    m, _ = _knapsack([10, 13], [3, 4], 7)
    with pytest.raises(ValidationError, match="infeasible"):
        import_solution("x[0] nan\n", m)


def test_import_solution_claims_no_bound():
    # the optimum is -13; the all-zero point passes the model and is only
    # feasible
    m, _ = _knapsack([10, 13], [3, 4], 6)
    sol = import_solution("x[0] 0\nx[1] 0\n", m)
    assert (sol.status, sol.objective) == ("feasible", 0.0)
    assert sol.best_bound == -math.inf and sol.gap == math.inf


def test_import_solution_rejects_a_fractional_binary():
    m, _ = _knapsack([10, 13], [3, 4], 6)
    with pytest.raises(ValidationError, match="not integral"):
        import_solution("x[0] 0.5\nx[1] 0\n", m)
    near = import_solution(f"x[0] {MIP_FEAS_TOL / 2!r}\nx[1] 1\n", m)
    assert near.status == "feasible"


def _row_model():
    """x + b <= 1 over a continuous x in [0, 2] and a binary b."""
    m = MILPModel()
    x = m.add_var("x", lb=0.0, ub=2.0)
    b = m.add_var("b", kind=BINARY)
    m.add_constr({x: 1.0, b: 1.0}, LE, 1.0, name="row")
    m.add_obj(x, -1.0)
    return m


def test_import_solution_holds_rows_to_the_incumbent_bar():
    """A point between the LP bar and the MIP bar is one HiGHS's
    branch-and-cut may return; it is accepted, as an incumbent would be."""
    m = _row_model()
    sol = import_solution(f"x {1.0 + 5e-7!r}\nb 0\n", m)
    assert PRIMAL_TOL < m.max_violation(sol.x) <= MIP_FEAS_TOL
    assert sol.status == "feasible"


def test_import_solution_rejects_a_point_past_the_incumbent_bar():
    m = _row_model()
    with pytest.raises(ValidationError, match="infeasible"):
        import_solution(f"x {1.0 + 2e-6!r}\nb 0\n", m)


def test_import_solution_rejects_unparsable_value():
    m, _ = _knapsack([10, 13], [3, 4], 7)
    with pytest.raises(ValidationError, match="line 2"):
        import_solution("x[0] 1\nx[1] abc\n", m)


def test_model_checker():
    m = MILPModel()
    x = m.add_var("x", lb=0.0, ub=2.0)
    m.add_constr({x: 1.0}, LE, 1.0)
    assert m.max_violation(np.array([0.5])) == pytest.approx(0.0, abs=1e-12)
    assert m.max_violation(np.array([1.5])) == pytest.approx(0.5)
    assert m.max_violation(np.array([math.nan])) == math.inf
    with pytest.raises(ValidationError):
        m.add_var("x")  # duplicate name
    with pytest.raises(ValidationError):
        m.add_constr({x: math.inf}, LE, 1.0)


def test_constraint_matrices_are_two_sided_in_row_order():
    m = MILPModel()
    x = m.add_var("x", lb=0.0, ub=2.0)
    y = m.add_var("y", lb=0.0, ub=2.0)
    m.add_constr({x: 1.0, y: 2.0}, GE, 1.0)
    m.add_constr({y: -1.0}, LE, 0.5)
    m.add_constr({x: 3.0, y: 1.0}, EQ, 2.0)
    A, lo, hi = m.constraint_matrices()
    assert A.format == "csc"
    assert np.array_equal(A.toarray(), [[1.0, 2.0], [0.0, -1.0], [3.0, 1.0]])
    assert np.array_equal(lo, [1.0, -np.inf, 2.0])
    assert np.array_equal(hi, [np.inf, 0.5, 2.0])


def test_milp_deterministic():
    values = [5, 9, 3, 7, 6, 2]
    weights = [2, 4, 1, 3, 3, 1]
    m, _ = _knapsack(values, weights, 8)
    a = solve_milp(m)
    b = solve_milp(m)
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x)
    assert a.nodes == b.nodes


def _failing_linprog(monkeypatch, fails):
    """Patch the LP call to report status 4 (numerical trouble) whenever
    ``fails(lb, ub)`` holds; return the calls that failed."""
    real = milp_solve.linprog
    failed = []

    def fake(c, A, lo, hi, lb, ub, inst):
        if fails(lb, ub):
            failed.append((lb, ub))
            return LPResult(4, None, math.nan)
        return real(c, A, lo, hi, lb, ub, inst)

    monkeypatch.setattr(milp_solve, "linprog", fake)
    return failed


def test_lp_error_at_root_is_not_infeasible(monkeypatch):
    m, _ = _knapsack([10, 13, 7, 8, 4], [3, 4, 2, 3, 1], 7)
    failed = _failing_linprog(monkeypatch, lambda lb, ub: True)
    assert solve_lp(m).status == "error"
    sol = solve_milp(m)
    assert sol.status == "error"
    assert sol.x is None
    assert len(failed) == 2


def _rounding_fails():
    """A knapsack whose root LP is fractional and whose rounded root
    overflows the cap, so the root yields no incumbent. Optimum -20 at
    x = (0, 1, 1); root bound -20.5."""
    return _knapsack([10, 13, 7], [4, 4, 3], 7)


def _fake_mip(monkeypatch, status, x=None, fun=math.nan, dual=-math.inf):
    """Patch the HiGHS branch-and-cut call to return a fixed result;
    return the options of the calls made."""
    calls = []

    def fake(c, A, lo, hi, lb, ub, bins, gap, time_limit, node_limit):
        calls.append({"mip_rel_gap": gap, "time_limit": time_limit,
                      "node_limit": node_limit})
        return MIPResult(status, x, fun, 7, dual)

    monkeypatch.setattr(milp_solve, "mip", fake)
    return calls


def test_highs_error_is_reported_without_incumbent(monkeypatch):
    m, _ = _rounding_fails()
    calls = _fake_mip(monkeypatch, 4, x=np.array([0.0, 1.0, 1.0]), fun=-20.0)
    sol = solve_milp(m)
    assert len(calls) == 1
    assert sol.status == "error"
    assert sol.x is None


def test_highs_limit_with_point_is_budget_exhausted(monkeypatch):
    m, _ = _rounding_fails()
    _fake_mip(monkeypatch, 1, x=np.array([0.0, 1.0, 1.0]), fun=-20.0,
               dual=-21.0)
    sol = solve_milp(m, time_budget=5.0, node_budget=3)
    assert sol.status == "budget_exhausted"
    assert sol.objective == pytest.approx(-20.0)
    assert math.isfinite(sol.best_bound)
    # the root bound -20.5 is tighter than the HiGHS bound -21
    assert sol.best_bound == pytest.approx(-20.5)
    assert sol.best_bound <= sol.objective
    assert sol.nodes == 7


def test_highs_limit_without_point_is_budget_exhausted(monkeypatch):
    m, _ = _rounding_fails()
    calls = _fake_mip(monkeypatch, 1)
    sol = solve_milp(m, gap_target=0.01, time_budget=5.0, node_budget=3)
    assert sol.status == "budget_exhausted"
    assert sol.x is None
    (options,) = calls
    assert options["mip_rel_gap"] == 0.01
    assert 0.0 < options["time_limit"] <= 5.0
    assert options["node_limit"] == 3


def _no_highs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("HiGHS branch-and-cut was called")
    monkeypatch.setattr(milp_solve, "mip", refuse)


def test_root_within_gap_makes_no_highs_call(monkeypatch):
    _no_highs(monkeypatch)
    # root -24.25 with item 1 at 0.25; rounding it down gives -21.0,
    # a gap of 15.5%
    m, _ = _knapsack([10, 13, 7, 8, 4], [3, 4, 2, 3, 1], 7)
    sol = solve_milp(m, gap_target=0.2)
    assert sol.status == "gap_reached"
    assert sol.objective == pytest.approx(-21.0)
    assert sol.best_bound == pytest.approx(-24.25)
    assert sol.nodes == 0
    # an integral root is optimal as it stands
    m, _ = _knapsack([10, 13], [3, 4], 7)
    sol = solve_milp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-23.0)


def test_dc_uc_closes_at_root(monkeypatch, net14, inst24):
    _no_highs(monkeypatch)
    milp, _ = build_dc_uc(inst24, net14)
    sol = solve_milp(milp, gap_target=0.01)
    assert sol.status in ("optimal", "gap_reached")
    assert sol.nodes == 0


def test_open_root_goes_to_highs_and_matches_enumeration(monkeypatch):
    calls = []
    real = milp_solve.mip

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(milp_solve, "mip", spy)
    rng = np.random.default_rng(5)
    for trial in range(2):
        values = rng.integers(1, 30, 8)
        weights = rng.integers(1, 15, 8)
        m, _ = _knapsack(list(values), list(weights), int(weights.sum() // 3))
        before = len(calls)
        sol = solve_milp(m)
        ref = enumerate_binaries(m)
        assert len(calls) == before + 1
        assert sol.status == "optimal"
        assert sol.best_bound <= ref.objective + 1e-9
        assert ref.objective <= sol.objective + 1e-9
        assert sol.objective == pytest.approx(ref.objective, abs=1e-6)
        assert m.max_violation(sol.x) <= PRIMAL_TOL


def test_node_budget_stop_keeps_highs_incumbent():
    # HiGHS stops at the node limit with a feasible point in hand
    # (kSolutionLimit); that is a budget stop, not an error
    rng = np.random.default_rng(1)
    A = rng.integers(1, 30, (15, 40))
    v = rng.integers(1, 100, 40)
    m = MILPModel("knapsack15")
    xs = [m.add_var(f"x[{i}]", kind=BINARY) for i in range(40)]
    for row in A:
        m.add_constr({x: float(w) for x, w in zip(xs, row)}, LE,
                     row.sum() / 3)
    for x, val in zip(xs, v):
        m.add_obj(x, -float(val))
    sol = solve_milp(m, node_budget=3)
    assert sol.status == "budget_exhausted"
    assert sol.x is not None
    assert m.max_violation(sol.x) <= PRIMAL_TOL
    assert sol.best_bound <= sol.objective


def test_rejected_model_is_error_not_infeasible():
    m = MILPModel()
    x = m.add_var("x", lb=0.0, ub=1.0)
    b = m.add_var("b", kind=BINARY)
    m.add_constr({x: 1e16, b: 1.0}, LE, 5.0)   # HiGHS refuses |a| >= 1e15
    assert solve_lp(m).status == "error"
    sol = solve_milp(m)
    assert sol.status == "error"
    assert sol.x is None
    assert enumerate_binaries(m).status == "error"


def _printing_model(net14, lin14):
    """A surrogate one of whose MILP-mode tightening MIPs makes HiGHS 1.12
    print "transformNewIntegerFeasibleSolution tmpSolver.run();" to
    stdout, whatever its log options say."""
    rng = np.random.default_rng(9)
    return CompactPWLModel(
        w1=rng.standard_normal((net14.d_in, 4)) / np.sqrt(net14.d_in),
        w2=rng.standard_normal((net14.d_out, 4)) * 0.1,
        b=rng.standard_normal(4) * 0.01, linear=lin14)


def test_highs_mip_prints_nothing_to_stdout(capfd, net14, lin14, box14):
    model = _printing_model(net14, lin14)
    tighten_bounds(model, box14, mode="milp",
                   start=interval_bounds(model, box14))
    assert capfd.readouterr().out == ""


def _file(fd):
    st = os.fstat(fd)
    return st.st_dev, st.st_ino


def test_milp_tightening_on_threads_matches_one_thread(monkeypatch, net14,
                                                       lin14, box14):
    """MILP-mode bounds do not depend on how many workers run the MIPs,
    and fd 1 is the same file after the concurrent MIPs as before."""
    model = _printing_model(net14, lin14)
    start = interval_bounds(model, box14)
    stdout = _file(1)
    got = []
    for threads in (1, 2):
        monkeypatch.setattr(data_factory, "THREADS", threads)
        got.append(tighten_bounds(model, box14, mode="milp", start=start))
        assert _file(1) == stdout
    one, two = got
    assert one.m_min.tobytes() == two.m_min.tobytes()
    assert one.m_max.tobytes() == two.m_max.tobytes()
    assert one.provenance == two.provenance and one.status == two.status
    assert "milp" in one.provenance


def test_stdout_redirect_is_shared_by_concurrent_runs():
    """Eight threads each running 200 calls off stdout at once, switching
    often: every call runs with fd 1 on the null device, and fd 1 is the
    original file once all are done."""
    null, stdout = os.stat(os.devnull), _file(1)
    seen = []

    class Probe:
        def run(self):
            seen.append(_file(1) == (null.st_dev, null.st_ino))
            return 0

    def work():
        for _ in range(200):
            highs._run_off_stdout(Probe())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(seen) == 8 * 200 and all(seen)
    assert _file(1) == stdout


PRICING = "simplex_dual_edge_weight_strategy"
SCALING = "simplex_scale_strategy"
DEFAULT_SCALING = 2


def _options(h):
    """A HiGHS object's dual pricing and scaling strategy."""
    return h.getOptionValue(PRICING)[1], h.getOptionValue(SCALING)[1]


def test_milp_instances_keep_highs_default_pricing(monkeypatch):
    """Only the SLP prices with Devex on the unscaled model: a model's LP
    instance and its MIP call read HiGHS's default dual pricing and its
    default scaling."""
    default = _options(_core._Highs())
    assert default[1] == DEFAULT_SCALING
    m, _ = _knapsack([10, 13, 7, 8, 4], [3, 4, 2, 3, 1], 7)
    backend = milp_solve.LPBackend(m)
    assert _options(backend.inst.highs) == default
    seen = []
    run = highs._run_off_stdout

    def recorded(h):
        seen.append(_options(h))
        return run(h)

    monkeypatch.setattr(highs, "_run_off_stdout", recorded)
    assert backend.mip(0.0, 60.0, 1000).status == 0
    assert seen == [default]

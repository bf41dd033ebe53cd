import math
from types import SimpleNamespace

import numpy as np
import pytest

from compactpf import milp_solve
from compactpf.milp_model import MILPModel, BINARY, LE, EQ, GE
from compactpf.milp_solve import (solve_lp, solve_milp, enumerate_binaries,
                                  export_mps, parse_mps, import_solution)
from compactpf.errors import ValidationError


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


def test_mps_round_trip_coefficients():
    m, xs = _knapsack([10, 13, 7], [3, 4, 2], 6)
    c = m.add_var("slack", lb=-1.5, ub=math.inf)
    m.add_constr({xs[0]: 1.0, c: -2.5}, GE, -0.75, name="link")
    m.obj_constant = 4.25
    text = export_mps(m)
    again = parse_mps(text)
    assert again.nvar == m.nvar
    assert [v.name for v in again.variables] == [v.name for v in m.variables]
    assert [v.kind for v in again.variables] == [v.kind for v in m.variables]
    lb0, ub0 = m.bounds_arrays()
    lb1, ub1 = again.bounds_arrays()
    assert np.array_equal(lb0, lb1)
    assert np.array_equal(ub0, ub1)
    assert len(again.constraints) == len(m.constraints)
    for c0, c1 in zip(m.constraints, again.constraints):
        assert c0.sense == c1.sense
        assert c0.rhs == c1.rhs
        named0 = {m.variables[i].name: v for i, v in c0.coeffs.items()}
        named1 = {again.variables[i].name: v for i, v in c1.coeffs.items()}
        assert named0 == named1
    obj0 = {m.variables[i].name: v for i, v in m.obj.items()}
    obj1 = {again.variables[i].name: v for i, v in again.obj.items()}
    assert obj0 == obj1
    assert again.obj_constant == m.obj_constant
    # both models solve to the same optimum
    assert solve_milp(again).objective == pytest.approx(
        solve_milp(m).objective, abs=1e-9)


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


def test_model_checker():
    m = MILPModel()
    x = m.add_var("x", lb=0.0, ub=2.0)
    m.add_constr({x: 1.0}, LE, 1.0)
    assert m.max_violation(np.array([0.5])) == pytest.approx(0.0, abs=1e-12)
    assert m.max_violation(np.array([1.5])) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        m.add_var("x")  # duplicate name
    with pytest.raises(ValidationError):
        m.add_constr({x: math.inf}, LE, 1.0)


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
    """Patch the B&B's LP call to report HiGHS status 4 (numerical
    trouble) whenever ``fails(lb, ub)`` holds; return the calls that
    failed."""
    from scipy.optimize import linprog as real
    failed = []

    def fake(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None,
             method=None):
        if fails(bounds[:, 0], bounds[:, 1]):
            failed.append(bounds)
            return SimpleNamespace(status=4, x=None, fun=None)
        return real(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                    bounds=bounds, method=method)

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


def test_lp_error_at_child_stops_the_search(monkeypatch):
    m, xs = _knapsack([10, 13, 7, 8, 4], [3, 4, 2, 3, 1], 7)
    # a first-level child fixes exactly one binary; the root fixes none
    # and the rounding heuristic fixes all of them
    failed = _failing_linprog(
        monkeypatch, lambda lb, ub: int(np.sum(lb[xs] == ub[xs])) == 1)
    sol = solve_milp(m)
    assert failed, "the search never reached a child"
    assert sol.status == "error"
    assert sol.x is None

"""The column and row arrays of MILPModel: the solver's CSC matrix, the
independent checker and the block builders agree with row-by-row and
column-by-column references."""

import math

import numpy as np
import pytest
from scipy import sparse

from compactpf.errors import ValidationError
from compactpf.harness import big_m_bounds
from compactpf.milp_encode import (FIXED_OFF, FIXED_ON, FREE,
                                   standalone_fragment)
from compactpf.milp_model import (MILPModel, Variable, BINARY, CONTINUOUS,
                                  LE, EQ, GE)
from compactpf.uc_builder import build_dc_uc, build_l_ac_uc, build_nn_ac_uc


def _csc_row_by_row(model):
    """(A, lo, hi) assembled one row at a time from the ``constraints``
    view."""
    ri, ci, data, lo, hi = [], [], [], [], []
    for r, con in enumerate(model.constraints):
        ri += [r] * len(con.coeffs)
        ci += list(con.coeffs)
        data += list(con.coeffs.values())
        lo.append(-math.inf if con.sense == LE else con.rhs)
        hi.append(math.inf if con.sense == GE else con.rhs)
    A = sparse.csc_array((data, (ri, ci)), shape=(len(lo), model.nvar))
    return A, np.array(lo), np.array(hi)


def _violation_row_by_row(model, x):
    """``max_violation`` as a loop over variables and rows, and the largest
    sum of |term| of any row (the scale of its rounding error)."""
    worst, scale = 0.0, 1.0
    for v, xi in zip(model.variables, x):
        worst = max(worst, v.lb - xi, xi - v.ub)
    for con in model.constraints:
        terms = [c * x[i] for i, c in con.coeffs.items()]
        lhs = sum(terms)
        scale = max(scale, sum(map(abs, terms)) + abs(con.rhs))
        if con.sense == EQ:
            worst = max(worst, abs(lhs - con.rhs))
        elif con.sense == LE:
            worst = max(worst, lhs - con.rhs)
        else:
            worst = max(worst, con.rhs - lhs)
    return worst, scale


@pytest.fixture(scope="module")
def models(net14, inst4, lin14, compact8, box14):
    """NN-, L- and DC-UC of uc14_t4 and a standalone NN fragment, with LP
    bounds that leave ReLUs free, on and off."""
    bounds = big_m_bounds(compact8, box14, "lp")
    assert set(bounds.status) == {FREE, FIXED_ON, FIXED_OFF}
    return {
        "nn": build_nn_ac_uc(inst4, net14, compact8, bounds, box=box14)[0],
        "linear": build_l_ac_uc(inst4, net14, lin14, box=box14)[0],
        "dc": build_dc_uc(inst4, net14)[0],
        "fragment": standalone_fragment(compact8, bounds, box14)[0],
    }


@pytest.mark.parametrize("name", ["nn", "linear", "dc", "fragment"])
def test_constraint_matrices_equal_the_row_by_row_csc(models, name):
    model = models[name]
    A, lo, hi = model.constraint_matrices()
    B, lo_ref, hi_ref = _csc_row_by_row(model)
    assert A.format == "csc" and A.shape == B.shape
    for got, want in ((A.indptr, B.indptr), (A.indices, B.indices),
                      (A.data, B.data), (lo, lo_ref), (hi, hi_ref)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert {con.sense for con in model.constraints} >= {EQ, LE}


@pytest.mark.parametrize("name", ["nn", "linear", "dc", "fragment"])
def test_max_violation_matches_the_row_by_row_checker(models, name):
    model = models[name]
    lb, ub = model.lb, model.ub
    rng = np.random.default_rng(5)
    # points inside the finite bounds, and points past them by up to 1
    inside = np.clip(rng.uniform(-2.0, 2.0, (3, model.nvar)),
                     np.maximum(lb, -2.0), np.minimum(ub, 2.0))
    for x in (*inside, *(inside + rng.uniform(-1.0, 1.0, inside.shape))):
        want, scale = _violation_row_by_row(model, x)
        tol = 64 * np.finfo(float).eps * scale
        assert model.max_violation(x) == pytest.approx(want, rel=0, abs=tol)


def _three_senses():
    """One row of each sense, each on its own two variables, and a
    variable in no row."""
    m = MILPModel()
    a, b, c, d, e, f = (m.add_var(v, lb=-1.0, ub=1.0) for v in "abcdef")
    m.add_var("g", lb=0.0, ub=1.0)
    m.add_rows([0, 0, 1, 1, 2, 2], [a, b, c, d, e, f],
               [1.0, 2.0, 1.0, -1.0, 1.0, 1.0], [EQ, LE, GE],
               [1.0, 0.5, -0.25], ["eq", "le", "ge"])
    return m


@pytest.mark.parametrize("change, worst", [
    ({}, 0.0),
    ({"b": 0.5}, 1.0),                  # == row over
    ({"a": 0.25}, 0.75),                # == row short
    ({"c": 0.5, "d": -0.5}, 0.5),       # <= row over
    ({"c": -1.0}, 0.0),                 # <= row slack
    ({"e": -0.5, "f": -0.5}, 0.75),     # >= row short
    ({"e": 1.0}, 0.0),                  # >= row slack
    ({"g": -0.5}, 0.5),                 # below a lower bound
    ({"g": 1.25}, 0.25),                # above an upper bound
    ({"b": 0.5, "e": -1.0, "f": -1.0}, 1.75),   # the worst of two rows
])
def test_max_violation_of_each_sense_and_bound(change, worst):
    m = _three_senses()
    point = {"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0, "e": 0.0, "f": 0.0,
             "g": 0.5, **change}
    x = np.array([point[v.name] for v in m.variables])
    assert m.max_violation(x) == pytest.approx(worst, rel=0, abs=1e-15)
    assert m.max_violation(x) == _violation_row_by_row(m, x)[0]


def _two_vars():
    m = MILPModel()
    m.add_var("a", lb=-1.0, ub=1.0)
    m.add_var("b", lb=-1.0, ub=1.0)
    return m


@pytest.mark.parametrize("rows, cols, vals, sense, match", [
    ([0], [2], [1.0], LE, "unknown var 2"),
    ([0], [-1], [1.0], LE, "unknown var -1"),
    ([0, 0], [0, 1], [1.0, math.inf], LE, "non-finite .* constraint r0"),
    ([0], [0], [math.nan], LE, "non-finite .* constraint r0"),
    ([0], [0], [1.0], "<", "unknown sense '<'"),
    ([0], [0], [1.0], [LE, "=>"], "unknown sense '=>'"),
    ([2], [0], [1.0], LE, "outside a block of 2 rows"),
])
def test_add_rows_refuses_a_bad_block_and_adds_nothing(rows, cols, vals,
                                                       sense, match):
    m = _two_vars()
    with pytest.raises(ValidationError, match=match):
        m.add_rows(rows, cols, vals, sense, [1.0, 2.0], ["r0", "r1"])
    assert m.nrows == 0 and m.constraints == ()
    assert m.constraint_matrices()[0].shape == (0, 2)


@pytest.mark.parametrize("names, kind, lb, ub, match", [
    (["a"], CONTINUOUS, 0.0, 1.0, "duplicate variable name 'a'"),
    (["c", "d", "c"], CONTINUOUS, 0.0, 1.0, "duplicate variable name 'c'"),
    (["c", "d"], [CONTINUOUS, "integer"], 0.0, 1.0, "bad kind for d"),
    (["c", "d"], [BINARY] * 3, 0.0, 1.0, "kind or bound count is not 2"),
    (["c", "d"], CONTINUOUS, [0.0, 0.5, 1.0], 1.0,
     "kind or bound count is not 2"),
    (["c", "d"], CONTINUOUS, [0.0, math.nan], 1.0, "bad lower bound for d"),
    (["c"], CONTINUOUS, math.inf, math.inf, "bad lower bound for c"),
    (["c"], BINARY, math.inf, 1.0, "bad lower bound for c"),
    (["c"], CONTINUOUS, 0.0, math.nan, "bad upper bound for c"),
    (["c", "d"], CONTINUOUS, 0.0, [1.0, -math.inf], "bad upper bound for d"),
])
def test_add_vars_refuses_a_bad_block_and_adds_nothing(names, kind, lb, ub,
                                                       match):
    m = _two_vars()
    before = m.variables
    with pytest.raises(ValidationError, match=match):
        m.add_vars(names, kind, lb, ub)
    assert m.nvar == 2 and m.variables == before
    assert m.lb.size == m.ub.size == m.binary.size == 2
    m.add_var("c")      # no name of the refused block was kept


def test_add_var_is_add_vars_of_one_column():
    one_by_one, block = MILPModel(), MILPModel()
    cols = [("x", CONTINUOUS, -math.inf, 2.5), ("b", BINARY, -1.0, 3.0),
            ("f", BINARY, 0.0, 0.0), ("y", CONTINUOUS, 0.0, math.inf)]
    for name, kind, lb, ub in cols:
        one_by_one.add_var(name, kind, lb, ub)
    idx = block.add_vars(*(list(field) for field in zip(*cols)))
    assert idx == [0, 1, 2, 3]
    assert one_by_one.variables == block.variables
    # a binary's bounds are clamped into [0, 1]
    assert block.variables[1] == Variable("b", BINARY, 0.0, 1.0)
    assert block.binary_indices() == [1, 2]
    assert block.var_index("y") == 3 and block.names == ["x", "b", "f", "y"]
    assert block.stats() == {"variables": 4, "binaries": 2, "constraints": 0}


def test_add_rows_drops_zeros_as_add_constr_does():
    by_row, block = _two_vars(), _two_vars()
    rows = [{0: 1.0, 1: 0.0}, {0: -0.0, 1: 0.0}, {1: -2.5}]
    for coeffs, sense, rhs in zip(rows, (LE, EQ, GE), (1.0, 0.0, -3.0)):
        by_row.add_constr(coeffs, sense, rhs)
    # a zero on an unknown column is dropped before columns are checked,
    # as add_constr drops it
    block.add_rows([0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 1, 7],
                   [1.0, 0.0, -0.0, 0.0, -2.5, 0.0], [LE, EQ, GE],
                   [1.0, 0.0, -3.0], ["", "", ""])
    assert by_row.constraints == block.constraints
    assert [con.coeffs for con in block.constraints] == [{0: 1.0}, {},
                                                         {1: -2.5}]
    A, B = by_row.constraint_matrices()[0], block.constraint_matrices()[0]
    assert A.nnz == B.nnz == 2
    assert (A != B).nnz == 0


def test_entries_of_one_row_and_column_add_up():
    m = _two_vars()
    m.add_rows([0, 0, 0, 1, 1], [0, 1, 0, 1, 1], [1.0, 4.0, 2.0, 1.0, -1.0],
               [EQ, LE], [3.0, 0.0], ["sum", "cancel"])
    assert [con.coeffs for con in m.constraints] == [{0: 3.0, 1: 4.0},
                                                     {1: 0.0}]
    A, _, _ = m.constraint_matrices()
    assert np.array_equal(A.toarray(), [[3.0, 4.0], [0.0, 0.0]])
    assert m.max_violation(np.array([1.0, -0.5])) == pytest.approx(2.0)


def test_variables_is_a_view():
    m = _three_senses()
    view = m.variables
    assert isinstance(view, tuple) and len(view) == m.nvar == 7
    with pytest.raises(AttributeError):
        view[0].ub = 5.0
    assert m.ub[0] == 1.0
    # a bound is edited through the arrays, and the next view shows it
    m.lb[6] = m.ub[6] = 0.25
    assert m.variables[6] == Variable("g", CONTINUOUS, 0.25, 0.25)
    assert view[6].lb == 0.0
    assert [v.name for v in m.variables] == list("abcdefg")


def test_constraints_is_a_view():
    m = _three_senses()
    view = m.constraints
    assert isinstance(view, tuple)
    with pytest.raises(AttributeError):
        view[0].rhs = 5.0
    view[0].coeffs[0] = 9.0
    assert m.constraints[0].coeffs == {0: 1.0, 1: 2.0}
    assert len(m.constraints) == m.stats()["constraints"] == 3
    assert [c.name for c in m.constraints] == ["eq", "le", "ge"]

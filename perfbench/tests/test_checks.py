"""Self-tests of the benchmark's independent checks.

    python3 -m pytest perfbench/tests
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import checks

TWO_BUS = """\
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0  0  0 0 1 1.0 0 0 1 1.1 0.9;
    2 1 50 10 0 0 1 1.0 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 100 -100 1.0 100 1 150 0 0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
    1 2 0 0.1 0 100 0 0 {ratio} 0 1 -30 30;
];
mpc.gencost = [
    2 0 0 3 0.0 10 0;
];
"""


@pytest.mark.parametrize("ratio", [0.0, 0.95])
def test_two_bus_lossless_flow_matches_closed_form(ratio):
    case = checks.Case(TWO_BUS.format(ratio=ratio))
    v = np.array([1.02, 0.97])
    theta = np.array([0.0, -0.2])
    p, q, s_from, s_to = checks.power_flow(case, v, theta)
    a = ratio or 1.0
    x = 0.1
    p_closed = v[0] * v[1] * math.sin(theta[0] - theta[1]) / (a * x)
    q_closed = (v[0] ** 2 / a ** 2 - v[0] * v[1] * math.cos(theta[0] - theta[1]) / a) / x
    assert s_from[0].real == pytest.approx(p_closed, abs=1e-12)
    assert s_from[0].imag == pytest.approx(q_closed, abs=1e-12)
    assert s_to[0].real == pytest.approx(-p_closed, abs=1e-12)   # lossless
    assert p[0] == pytest.approx(p_closed, abs=1e-12)
    assert p[1] == pytest.approx(-p_closed, abs=1e-12)


def test_limits_catch_an_overloaded_line():
    case = checks.Case(TWO_BUS.format(ratio=0.0), derate=0.5)   # 0.5 p.u. rating
    checks.check_limits(case, np.ones(2), np.array([0.0, -0.04]), "light")
    with pytest.raises(checks.CheckFailed):
        checks.check_limits(case, np.ones(2), np.array([0.0, -0.1]), "heavy")


UC_DOC = {
    "horizon": 4,
    "load_profile": [1.0, 1.0, 1.0, 1.0],
    "reserve": 0.0,
    "generators": {"1": {
        "pmin": 20.0, "pmax": 120.0, "init_status": -3, "min_down": 1,
        "cost_segments": [[50.0, 10.0], [50.0, 30.0]],
        "no_load_cost": 5.0, "startup_tiers": [[1, 100.0], [3, 250.0]],
    }},
}


def test_uc_cost_by_hand():
    uc = checks.UCData(UC_DOC, checks.Case(TWO_BUS.format(ratio=0.0)))
    y = [[1, 0, 1, 1]]
    p_delta = [[0.7, 0.0, 0.2, 0.0]]
    # 0.7 p.u. fills 0.5 at 1000/p.u. then 0.2 at 3000/p.u.; 0.2 at 1000
    assert checks.production_cost(uc, p_delta) == pytest.approx(500 + 600 + 200)
    # cold start after 3 h off (250), hot restart after 1 h off (100), 3 h no-load
    assert checks.commitment_cost(uc, y) == pytest.approx(250 + 100 + 3 * 5)
    u, w = checks.transitions(uc, y)
    assert u.tolist() == [[1, 0, 1, 0]] and w.tolist() == [[0, 1, 0, 0]]


def test_default_segments_are_secants_of_the_case_polynomial():
    doc = {**UC_DOC, "generators": {"1": {"pmin": 0.0, "pmax": 150.0}}}
    uc = checks.UCData(doc, checks.Case(TWO_BUS.format(ratio=0.0)))
    # gencost 10 $/MWh linear: every secant slope is 1000 per p.u.
    assert [s for _, s in uc.units[0]["segments"]] == pytest.approx([1000.0] * 3)
    assert sum(w for w, _ in uc.units[0]["segments"]) == pytest.approx(1.5)


def _model():
    """min -x0 - 2 x1 + 3 s.t. x0 + x1 <= 1.5, x1 binary, 0 <= x0 <= 1."""
    var = lambda kind, ub: SimpleNamespace(kind=kind, lb=0.0, ub=ub)
    return SimpleNamespace(
        variables=[var("continuous", 1.0), var("binary", 1.0)],
        constraints=[SimpleNamespace(coeffs={0: 1.0, 1: 1.0}, sense="<=", rhs=1.5)],
        obj={0: -1.0, 1: -2.0}, obj_constant=3.0)


def test_milp_checker_accepts_and_rejects():
    model = _model()
    checks.check_milp_point(model, [0.5, 1.0], 0.5, "optimum")
    for x, obj, why in (([0.6, 1.0], 0.4, "row"), ([0.5, 0.5], 1.5, "integrality"),
                        ([1.2, 0.0], 1.8, "bound"), ([0.5, 1.0], 0.4, "objective")):
        with pytest.raises(checks.CheckFailed):
            checks.check_milp_point(model, x, obj, why)


def test_highs_reference_optimum():
    best, bound = checks.highs_reference(_model())
    assert best == pytest.approx(0.5) and bound <= best + 1e-9

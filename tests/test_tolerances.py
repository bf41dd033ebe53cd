"""Every numeric bar the program judges a result by lives in
``compactpf.tolerances``."""

import ast
from pathlib import Path

from compactpf.highs import HighsInstance
from compactpf.tolerances import MIP_FEAS_TOL, SMALL_MATRIX_VALUE

SRC = Path(__file__).resolve().parent.parent / "src" / "compactpf"
# small constants that are algorithm parameters, not bars on a result
NOT_TOLERANCES = {
    "pwl_learner.EPS",            # ADAM's damping
    "pwl_learner.TrainConfig.lr",  # ADAM's step size
    "jacobian.S_EPS",             # regularizes the flow Jacobian at zero flow
    "jacobian.FD_STEP",           # finite-difference test oracle's step
}


def _named_literals(tree, module):
    """{id(literal node): qualified name} of every constant assigned to a
    name at module or class level."""
    named = {}

    def visit(body, prefix):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                visit(stmt.body, f"{prefix}{stmt.name}.")
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                named[id(stmt.value)] = prefix + stmt.target.id
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        named[id(stmt.value)] = prefix + target.id
                    elif (isinstance(target, ast.Tuple)
                          and isinstance(stmt.value, ast.Tuple)):
                        for t, v in zip(target.elts, stmt.value.elts):
                            named[id(v)] = prefix + t.id

    visit(tree.body, f"{module}.")
    return named


def test_small_float_literals_live_in_tolerances():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        tree = ast.parse(path.read_text())
        named = _named_literals(tree, path.stem)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, float)
                    and 0 < abs(node.value) < 1e-3
                    and named.get(id(node)) not in NOT_TOLERANCES):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert found == []


def test_mip_bar_is_highs_default():
    """Incumbents and read-in binaries are judged at the tolerance HiGHS's
    branch-and-cut keeps by default."""
    assert HighsInstance().highs.getOptionValue(
        "mip_feasibility_tolerance")[1] == MIP_FEAS_TOL


def test_small_matrix_value_is_highs_default():
    """The encoders leave out exactly the coefficients HiGHS drops from a
    model it is passed."""
    assert HighsInstance().highs.getOptionValue(
        "small_matrix_value")[1] == SMALL_MATRIX_VALUE

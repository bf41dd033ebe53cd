"""Shared fixtures: the bundled 14-bus system, UC instances, the sampled
power-flow dataset, and trained surrogates. Everything heavy is session
scoped so the acceptance suite and unit tests share one pipeline run.
Also HiGHS's reading of an MPS file, the one check of ``export_mps``."""

import importlib.resources as ir

import numpy as np
import pytest
from scipy.optimize._highspy import _core

from compactpf.case_ingest import (parse_matpower, validate_case,
                                   derate_thermal_limits, load_uc_instance)
from compactpf.grid_model import build_network
from compactpf.ac_solver import make_dispatch_spec, slp_acopf
from compactpf.data_factory import SamplerConfig, collect_dataset
from compactpf.pwl_learner import (TrainConfig, train_compact, train_direct)
from compactpf.milp_encode import bound_box_from_network
from compactpf import jacobian

DATA = ir.files("compactpf.data")

TWO_BUS_CASE = """\
function mpc = case2
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
    1 3 0  0  0 0 1 1.0 0 0 1 1.1 0.9;
    2 1 50 10 0 0 1 1.0 0 0 1 1.1 0.9;
];
mpc.gen = [
    1 0 0 100 -100 1.0 100 1 150 0 0 0 0 0 0 0 0 0 0 0 0;
];
mpc.branch = [
    1 2 0 0.1 0 100 0 0 0 0 1 -30 30;
];
mpc.gencost = [
    2 0 0 3 0.0 10 0;
];
"""


@pytest.fixture(scope="session")
def case2():
    case = parse_matpower(TWO_BUS_CASE)
    validate_case(case)
    return case


@pytest.fixture(scope="session")
def net2(case2):
    return build_network(case2)


@pytest.fixture(scope="session")
def case14_raw():
    case = parse_matpower((DATA / "case14.m").read_text())
    validate_case(case)
    return case


@pytest.fixture(scope="session")
def case14(case14_raw):
    return derate_thermal_limits(case14_raw, 0.30)


@pytest.fixture(scope="session")
def net14(case14):
    return build_network(case14)


@pytest.fixture(scope="session")
def inst24(case14, net14):
    return load_uc_instance((DATA / "uc14.json").read_text(), case14)


@pytest.fixture(scope="session")
def inst4(case14, net14):
    return load_uc_instance((DATA / "uc14_t4.json").read_text(), case14)


@pytest.fixture(scope="session")
def lin14(net14, inst24):
    """Linearization at the hour-1 base point with every unit committed."""
    spec0 = make_dispatch_spec(net14, inst24, 0)
    op0, _ = slp_acopf(net14, spec0)
    return jacobian.linearize(net14, op0)


@pytest.fixture(scope="session")
def dataset14(net14, inst24):
    return collect_dataset(net14, inst24, SamplerConfig(combos_per_gen=3),
                           seed=0)


@pytest.fixture(scope="session")
def train_cfg():
    return TrainConfig(lr=2.5e-4, batch=75, steps=50000, seed=0)


@pytest.fixture(scope="session")
def compact8(dataset14, lin14, train_cfg):
    X, Y = dataset14.train
    return train_compact(X, Y, lin14, 8, train_cfg)


@pytest.fixture(scope="session")
def direct8(dataset14, train_cfg):
    X, Y = dataset14.train
    return train_direct(X, Y, 8, train_cfg)


@pytest.fixture(scope="session")
def box14(net14, inst24):
    return bound_box_from_network(net14, inst24)


def small_model(dataset14, lin14, rho, steps=5000, seed=0):
    X, Y = dataset14.train
    cfg = TrainConfig(lr=2.5e-4, batch=75, steps=steps, seed=seed)
    return train_compact(X, Y, lin14, rho, cfg)


@pytest.fixture(scope="session")
def compact3(dataset14, lin14):
    return small_model(dataset14, lin14, 3)


@pytest.fixture(scope="session")
def compact2(dataset14, lin14):
    return small_model(dataset14, lin14, 2)


@pytest.fixture(scope="session")
def compact4(dataset14, lin14):
    return small_model(dataset14, lin14, 4)


def end_selectors(net):
    """Dense (m, n) 0/1 selectors of each branch's from and to bus, built
    from ``f_bus``/``t_bus`` as reference forms for the tests."""
    rows = np.arange(net.m)
    E1 = np.zeros((net.m, net.n))
    E2 = np.zeros((net.m, net.n))
    E1[rows, net.f_bus] = 1.0
    E2[rows, net.t_bus] = 1.0
    return E1, E2


def sample_box_inputs(box, count, rng, theta_cap=0.10):
    """Random packed inputs inside the box's constraint sets.

    Angles are drawn in a narrow band so the per-line angle-difference
    pairs hold by construction; draws violating any set are discarded.
    """
    d = box.x_lo.size
    lo = box.x_lo.copy()
    hi = box.x_hi.copy()
    n_v = np.sum(np.isfinite(lo) & (lo > 0))  # voltage block is positive
    lo[n_v:] = np.maximum(lo[n_v:], -theta_cap)
    hi[n_v:] = np.minimum(hi[n_v:], theta_cap)
    X = rng.uniform(lo, hi, size=(count, d))
    keep = np.ones(count, dtype=bool)
    for i, j, plo, phi in box.angle_pairs:
        ti = X[:, i] if i is not None else 0.0
        tj = X[:, j] if j is not None else 0.0
        diff = ti - tj
        keep &= (diff >= plo) & (diff <= phi)
    return X[keep]


def read_mps(path):
    """HiGHS's reading of the MPS file at ``path``: the ``HighsLp`` of
    ``getLp()`` and the ``readModel`` status."""
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    status = highs.readModel(str(path))
    return highs.getLp(), status


def reads_back_as(lp, model):
    """Whether HiGHS's reading ``lp`` of ``export_mps(model)`` is the model,
    coefficient-identical: costs, objective constant, column bounds,
    integrality, row bounds, the CSC matrix and the names (an unnamed row
    ``k`` as the writer names it, ``R{k}``)."""
    A, lo, hi = model.constraint_matrices()
    integer = [v == _core.HighsVarType.kInteger for v in lp.integrality_]
    return (np.array_equal(lp.col_cost_, model.objective_vector())
            and lp.offset_ == model.obj_constant
            and np.array_equal(lp.col_lower_, model.lb)
            and np.array_equal(lp.col_upper_, model.ub)
            and np.array_equal(integer or np.zeros(model.nvar, bool),
                               model.binary)
            and np.array_equal(lp.row_lower_, lo)
            and np.array_equal(lp.row_upper_, hi)
            and np.array_equal(lp.a_matrix_.start_, A.indptr)
            and np.array_equal(lp.a_matrix_.index_, A.indices)
            and np.array_equal(lp.a_matrix_.value_, A.data)
            and list(lp.col_names_) == model.names
            and list(lp.row_names_) == [name or f"R{k}" for k, name
                                        in enumerate(model.row_names)])

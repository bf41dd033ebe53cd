import math
from dataclasses import fields, replace

import numpy as np
import pytest

from compactpf.case_ingest import parse_matpower
from compactpf.grid_model import (build_network, eval_power_flow,
                                  loss_floor, pack_input, pack_output,
                                  unpack_input, eval_at_input)
from compactpf.errors import ValidationError

from conftest import TWO_BUS_CASE, end_selectors


def test_two_bus_admittance(net2):
    y = 1.0 / 0.1j  # pure series reactance, no charging or shunts
    expect = np.array([[y, -y], [-y, y]])
    assert np.allclose(net2.Yb, expect)
    assert np.allclose(net2.Yft, np.array([[y, -y]]))
    assert np.allclose(net2.Ytf, np.array([[-y, y]]))
    assert net2.f_bus.tolist() == [0] and net2.t_bus.tolist() == [1]


def test_flat_start_zero(net2):
    op = eval_power_flow(net2, np.ones(2), np.zeros(2))
    assert np.allclose(op.p_inj, 0.0)
    assert np.allclose(op.q_inj, 0.0)
    assert np.allclose(op.s_ft, 0.0)
    assert np.allclose(op.s_tf, 0.0)


def test_two_bus_dc_limit(net2):
    # lossless line, unit voltages: p_ft = b*sin(dtheta) = 10 sin(0.1)
    theta = np.array([0.1, 0.0])
    op = eval_power_flow(net2, np.ones(2), theta)
    assert op.p_ft[0] == pytest.approx(10.0 * math.sin(0.1), rel=1e-12)
    assert op.p_tf[0] == pytest.approx(-10.0 * math.sin(0.1), rel=1e-12)
    # lossless network: active injections sum to zero
    assert op.p_inj.sum() == pytest.approx(0.0, abs=1e-12)


def test_losses_nonnegative(net14):
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.uniform(0.95, 1.05, net14.n)
        theta = rng.uniform(-0.2, 0.2, net14.n)
        theta[net14.ref] = 0.0
        op = eval_power_flow(net14, v, theta)
        # total injection = series + shunt-conductance losses >= 0
        assert op.p_inj.sum() >= -1e-12
        # branch-wise: sending plus receiving active power is the line loss
        assert np.all(op.p_ft + op.p_tf >= -1e-12)


def test_flow_matrix_consistency(net14):
    """Injections decompose into line flows plus bus shunt consumption."""
    rng = np.random.default_rng(4)
    v = rng.uniform(0.95, 1.05, net14.n)
    theta = rng.uniform(-0.2, 0.2, net14.n)
    op = eval_power_flow(net14, v, theta)
    sh = (net14.gsh - 1j * net14.bsh) * v ** 2
    E1, E2 = end_selectors(net14)
    s_bus = E1.T @ (op.p_ft + 1j * op.q_ft) \
        + E2.T @ (op.p_tf + 1j * op.q_tf) + sh
    assert np.allclose(s_bus.real, op.p_inj, atol=1e-12)
    assert np.allclose(s_bus.imag, op.q_inj, atol=1e-12)


def test_pack_unpack_inverse(net14):
    rng = np.random.default_rng(5)
    v = rng.uniform(0.95, 1.05, net14.n)
    theta = rng.uniform(-0.2, 0.2, net14.n)
    theta[net14.ref] = 0.0
    op = eval_power_flow(net14, v, theta)
    x = pack_input(op, net14)
    assert x.shape == (net14.d_in,)
    v2, theta2 = unpack_input(x, net14)
    assert np.array_equal(v2, v)
    assert np.array_equal(theta2, theta)
    y = eval_at_input(net14, x)
    assert np.array_equal(y, pack_output(op))
    assert y.shape == (net14.d_out,)


@pytest.mark.parametrize("T", [1, 3, 24])
def test_stacked_eval_matches_per_point(net14, T):
    """A (T, n) stack gives each point the bits of its own evaluation,
    ``periods`` splits it back into those points, and the packed map works
    on the last axis."""
    rng = np.random.default_rng(30 + T)
    v = rng.uniform(0.9, 1.1, (T, net14.n))
    theta = rng.uniform(-0.4, 0.4, (T, net14.n))
    theta[:, net14.ref] = 0.0
    op = eval_power_flow(net14, v, theta)
    x = pack_input(op, net14)
    y = eval_at_input(net14, x)
    assert x.shape == (T, net14.d_in) and y.shape == (T, net14.d_out)
    assert np.array_equal(y, pack_output(op))
    for t, pt in enumerate(op.periods()):
        one = eval_power_flow(net14, v[t], theta[t])
        for f in fields(one):
            assert np.array_equal(getattr(pt, f.name), getattr(one, f.name))
        assert np.array_equal(x[t], pack_input(one, net14))
        assert np.array_equal(y[t], eval_at_input(net14, x[t]))


def test_eval_rejects_bad_input(net2):
    with pytest.raises(ValidationError):
        eval_power_flow(net2, np.ones(3), np.zeros(3))
    with pytest.raises(ValidationError):
        eval_power_flow(net2, np.array([1.0, 0.0]), np.zeros(2))
    with pytest.raises(ValidationError):
        unpack_input(np.zeros(net2.d_in + 1), net2)


def test_disconnected_rejected():
    text = TWO_BUS_CASE.replace(
        "2 1 50 10 0 0 1 1.0 0 0 1 1.1 0.9;",
        "2 1 50 10 0 0 1 1.0 0 0 1 1.1 0.9;\n"
        "    3 1 10 2 0 0 1 1.0 0 0 1 1.1 0.9;\n"
        "    4 1 10 2 0 0 1 1.0 0 0 1 1.1 0.9;",
    ).replace(
        "1 2 0 0.1 0 100 0 0 0 0 1 -30 30;",
        "1 2 0 0.1 0 100 0 0 0 0 1 -30 30;\n"
        "    3 4 0 0.1 0 100 0 0 0 0 1 -30 30;",
    )
    case = parse_matpower(text)
    with pytest.raises(ValidationError):
        build_network(case)


def test_case14_network_shapes(net14, case14):
    n, m = net14.n, net14.m
    assert net14.Yb.shape == (n, n)
    assert net14.Yft.shape == (m, n)
    assert np.allclose(net14.Yb, net14.Yb.T)  # no phase shifters in case
    assert net14.ref == [b.btype for b in case14.buses].index(3)
    assert net14.smax.shape == (m,)
    assert np.all(net14.smax > 0)


def test_branch_end_buses(net14, case14):
    idx = case14.bus_index()
    assert net14.f_bus.tolist() == [idx[br.f] for br in case14.branches]
    assert net14.t_bus.tolist() == [idx[br.t] for br in case14.branches]
    assert np.all(net14.f_bus != net14.t_bus)
    # a branch's flow rows reach only its two end buses
    E1, E2 = end_selectors(net14)
    ends = E1 + E2
    assert np.all(net14.Yft[ends == 0] == 0)
    assert np.all(net14.Ytf[ends == 0] == 0)


@pytest.mark.parametrize("name", ["net14", "net2"])
def test_admittance_equals_selector_products(name, request):
    """Yb is the selector-product form E1'Yft + E2'Ytf + diag(shunts),
    to the last bit, with the selectors rebuilt from f_bus/t_bus."""
    net = request.getfixturevalue(name)
    E1, E2 = end_selectors(net)
    expect = E1.T @ net.Yft + E2.T @ net.Ytf \
        + np.diag(net.gsh + 1j * net.bsh)
    assert np.array_equal(net.Yb, expect)


@pytest.mark.parametrize("name", ["net14", "net2"])
def test_branch_flows_equal_selector_products(name, request):
    net = request.getfixturevalue(name)
    E1, E2 = end_selectors(net)
    rng = np.random.default_rng(6)
    for _ in range(5):
        v = rng.uniform(0.95, 1.05, net.n)
        theta = rng.uniform(-0.2, 0.2, net.n)
        op = eval_power_flow(net, v, theta)
        V = v * np.exp(1j * theta)
        sf = (E1 @ V) * np.conj(net.Yft @ V)
        st = (E2 @ V) * np.conj(net.Ytf @ V)
        assert np.array_equal(op.p_ft, sf.real)
        assert np.array_equal(op.q_ft, sf.imag)
        assert np.array_equal(op.p_tf, st.real)
        assert np.array_equal(op.q_tf, st.imag)
        assert np.array_equal(op.s_ft, np.abs(sf))
        assert np.array_equal(op.s_tf, np.abs(st))


@pytest.mark.parametrize("tapped", [False, True])
def test_loss_floor_bounds_total_injection(case14, tapped):
    """sum(p_inj) >= loss_floor at points inside the voltage box, on case14
    and on a copy whose first (resistive) line has an off-nominal tap and a
    phase shift, which makes the Gershgorin bound negative."""
    if tapped:
        first, *rest = case14.branches
        case14 = replace(case14, branches=(
            replace(first, ratio=1.05, shift=0.1), *rest))
    net = build_network(case14)
    floor = loss_floor(net)
    # below the eigenvalue bound at either end of the box; on case14 both
    # are 0 up to rounding (H is a weighted Laplacian)
    vals, vecs = np.linalg.eigh(0.5 * (net.Yb + net.Yb.conj().T))
    assert floor <= min(vals[0] * net.vmin @ net.vmin,
                        vals[0] * net.vmax @ net.vmax) + 1e-12
    assert (floor < -0.1) == tapped
    # random points, and box corners at the angles of the least eigenvector
    rng = np.random.default_rng(0)
    mag, ang = np.abs(vecs[:, 0]), np.angle(vecs[:, 0])
    points = [(rng.uniform(net.vmin, net.vmax),
               rng.uniform(-0.6, 0.6, net.n)) for _ in range(2000)]
    points.append((np.where(mag > np.median(mag), net.vmax, net.vmin), ang))
    for v, theta in points:
        assert eval_power_flow(net, v, theta).p_inj.sum() >= floor


@pytest.mark.parametrize("gs", [-50.0, 50.0])
def test_loss_floor_is_tight_for_shunt_conductance(gs):
    """With the same shunt conductance g at both ends of a lossless line,
    sum(p_inj) = g * sum(v^2) at equal angles, so the floor is its least
    value over the box: at vmin when g > 0 and at vmax when g < 0."""
    text = TWO_BUS_CASE.replace("1 3 0  0  0 0 1", f"1 3 0  0  {gs} 0 1") \
        .replace("2 1 50 10 0 0 1", f"2 1 50 10 {gs} 0 1")
    net = build_network(parse_matpower(text))
    assert np.all(net.gsh == gs / 100.0)
    corners = [eval_power_flow(net, v, np.zeros(2)).p_inj.sum()
               for v in (net.vmin, net.vmax)]
    assert loss_floor(net) == pytest.approx(min(corners), rel=1e-12)

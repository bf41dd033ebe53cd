import numpy as np
import pytest

from compactpf import grid_model, jacobian
from compactpf.errors import ValidationError

from conftest import end_selectors


def _point(net, rng, T=None):
    """A random point, or a (T, n) stack of them, with theta[ref] = 0."""
    shape = (net.n,) if T is None else (T, net.n)
    v = rng.uniform(0.95, 1.05, shape)
    theta = rng.uniform(-0.3, 0.3, shape)
    theta[..., net.ref] = 0.0
    return v, theta


def _fd_check(net, J, v, theta, out):
    """Each point's Jacobian in the stack J against central differences of
    out(op) at that point."""
    n = net.n
    for t in range(v.shape[0]):
        def f(z):
            return out(grid_model.eval_power_flow(net, z[:n], z[n:]))

        Jfd = jacobian.finite_difference_jacobian(
            f, np.concatenate([v[t], theta[t]]))
        assert np.max(np.abs(J[t] - Jfd)) < 1e-6 * (1 + np.max(np.abs(J[t])))


def test_injection_jacobian_fd(net14):
    v, theta = _point(net14, np.random.default_rng(10), T=3)
    J = jacobian.injection_jacobian(net14, v, theta)
    _fd_check(net14, J, v, theta,
              lambda op: np.concatenate([op.p_inj, op.q_inj]))


@pytest.mark.parametrize("direction", ["ft", "tf"])
def test_line_flow_jacobian_fd(net14, direction):
    v, theta = _point(net14, np.random.default_rng(11), T=3)
    J = jacobian.line_flow_jacobian(net14, v, theta, direction)
    _fd_check(net14, J, v, theta,
              lambda op: np.concatenate([getattr(op, f"p_{direction}"),
                                         getattr(op, f"q_{direction}")]))


@pytest.mark.parametrize("direction", ["ft", "tf"])
def test_apparent_flow_jacobian_fd(net14, direction):
    v, theta = _point(net14, np.random.default_rng(12), T=3)
    J = jacobian.apparent_flow_jacobian(net14, v, theta, direction)
    _fd_check(net14, J, v, theta, lambda op: getattr(op, f"s_{direction}"))


@pytest.mark.parametrize("T", [1, 3, 24])
def test_stacked_jacobians_match_per_point(net14, T):
    """A (T, n) stack gives each point the bits of its own call."""
    v, theta = _point(net14, np.random.default_rng(20 + T), T=T)
    calls = [lambda v_, th_: jacobian.injection_jacobian(net14, v_, th_),
             lambda v_, th_: jacobian.full_jacobian(net14, v_, th_)]
    for d in ("ft", "tf"):
        calls += [
            lambda v_, th_, d=d: jacobian.apparent_flow_jacobian(
                net14, v_, th_, d),
            lambda v_, th_, d=d: jacobian.line_flow_jacobian(
                net14, v_, th_, d)]
    for call in calls:
        stacked = call(v, theta)
        for t in range(T):
            assert np.array_equal(stacked[t], call(v[t], theta[t]))


def test_stacked_shape_mismatch_rejected(net14):
    v, _ = _point(net14, np.random.default_rng(16), T=3)
    _, theta = _point(net14, np.random.default_rng(17), T=4)
    for call in (grid_model.eval_power_flow, jacobian.injection_jacobian,
                 lambda *a: jacobian.apparent_flow_jacobian(*a, "ft"),
                 lambda *a: jacobian.line_flow_jacobian(*a, "tf")):
        with pytest.raises(ValidationError):
            call(net14, v, theta)
        with pytest.raises(ValidationError):
            call(net14, v[:, :-1], theta[:3, :-1])


def test_injection_jacobian_rejects_nonpositive_v(net14):
    v, theta = _point(net14, np.random.default_rng(18), T=3)
    v[1, 4] = 0.0
    with pytest.raises(ValidationError):
        jacobian.injection_jacobian(net14, v, theta)


def _diag_injection(net, v, theta):
    """The injection Jacobian as products with np.diag matrices."""
    vnorm = np.exp(1j * theta)
    V = v * vnorm
    I = net.Yb @ V
    dV = np.diag(V)
    dS_dVa = 1j * dV @ np.conj(np.diag(I) - net.Yb @ dV)
    dS_dVm = (dV @ np.conj(net.Yb @ np.diag(vnorm))
              + np.conj(np.diag(I)) @ np.diag(vnorm))
    return np.block([[dS_dVm.real, dS_dVa.real],
                     [dS_dVm.imag, dS_dVa.imag]])


def _diag_line_flow(net, v, theta, direction):
    """The line-flow Jacobian as products with np.diag matrices and the
    dense end selectors."""
    E1, E2 = end_selectors(net)
    Y, sel = (net.Yft, E1) if direction == "ft" else (net.Ytf, E2)
    vnorm = np.exp(1j * theta)
    V = v * vnorm
    I = Y @ V
    dS_dVa = 1j * (np.conj(np.diag(I)) @ sel @ np.diag(V)
                   - np.diag(sel @ V) @ np.conj(Y @ np.diag(V)))
    dS_dVm = (np.diag(sel @ V) @ np.conj(Y @ np.diag(vnorm))
              + np.conj(np.diag(I)) @ sel @ np.diag(vnorm))
    return np.block([[dS_dVm.real, dS_dVa.real],
                     [dS_dVm.imag, dS_dVa.imag]])


def test_broadcast_jacobians_match_diag_products(net14):
    rng = np.random.default_rng(15)
    v, theta = _point(net14, rng)
    assert np.max(np.abs(jacobian.injection_jacobian(net14, v, theta)
                         - _diag_injection(net14, v, theta))) < 1e-12
    for direction in ("ft", "tf"):
        got = jacobian.line_flow_jacobian(net14, v, theta, direction)
        ref = _diag_line_flow(net14, v, theta, direction)
        assert np.max(np.abs(got - ref)) < 1e-12, direction


def test_full_jacobian_stacks(net14):
    rng = np.random.default_rng(13)
    v, theta = _point(net14, rng)
    J = jacobian.full_jacobian(net14, v, theta)
    assert J.shape == (2 * net14.n + 2 * net14.m, 2 * net14.n)
    top = jacobian.injection_jacobian(net14, v, theta)
    assert np.array_equal(J[:2 * net14.n], top)


def test_linearize_exact_at_point(net14, lin14):
    # exact at x0 by construction
    y0 = grid_model.eval_at_input(net14, lin14.x0)
    assert np.allclose(lin14.predict(lin14.x0), y0, atol=1e-12)
    assert lin14.d_in == net14.d_in
    assert lin14.d_out == net14.d_out


def test_linearize_first_order(net14, lin14):
    rng = np.random.default_rng(14)
    dx = rng.standard_normal(net14.d_in)
    dx /= np.linalg.norm(dx)

    def err(h):
        x1 = lin14.x0 + h * dx
        return np.max(np.abs(lin14.predict(x1)
                             - grid_model.eval_at_input(net14, x1)))

    # remainder must vanish quadratically in the step size
    assert err(1e-5) < 0.03 * err(1e-4)
    assert err(1e-4) < 0.03 * err(1e-3)


def test_linearize_requires_zero_ref_angle(net14):
    v = np.ones(net14.n)
    theta = np.full(net14.n, 0.05)
    op = grid_model.eval_power_flow(net14, v, theta)
    with pytest.raises(ValidationError):
        jacobian.linearize(net14, op)


def test_apparent_jacobian_finite_at_zero_flow(net2):
    # flat start has exactly zero flow; rows must still be finite
    J = jacobian.apparent_flow_jacobian(net2, np.ones(2), np.zeros(2), "ft")
    assert np.all(np.isfinite(J))


def test_dump_jacobian_text():
    J = np.array([[1.0, 2.0], [3.0, 4.0]])
    text = jacobian.dump_jacobian(J, header="demo")
    lines = text.strip().split("\n")
    assert lines[0].startswith("# demo shape=2x2")
    assert len(lines) == 3

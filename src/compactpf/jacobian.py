"""Analytic Jacobians of the AC power flow map and the affine model.

Derivatives are formed in polar coordinates with complex matrix algebra;
correctness is pinned by finite-difference agreement with
grid_model.eval_power_flow (see tests). Input ordering is (v, theta),
output ordering follows the packed map (p, q) or s per direction.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from . import grid_model

# Apparent flow rows divide by s; regularize the denominator so lines at
# exactly zero flow still produce finite (if arbitrary-direction) rows.
S_EPS = 1e-8

FD_STEP = 1e-5


@dataclass(frozen=True)
class LinearPFModel:
    """Affine power flow model y ~= Jstar x + rstar about x0."""
    Jstar: np.ndarray  # (2n+2m, 2n-1)
    rstar: np.ndarray  # (2n+2m,)
    x0: np.ndarray     # (2n-1,)

    @property
    def d_in(self):
        return self.Jstar.shape[1]

    @property
    def d_out(self):
        return self.Jstar.shape[0]

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.Jstar.T + self.rstar


def _dS_dV(Y, V, vnorm):
    """d(diag(V) conj(Y V)) by (|V|, angle V), MATPOWER's ``dSbus_dV``
    with the diagonal matrices applied by broadcasting."""
    I = Y @ V
    idx = np.arange(V.size)
    dS_dVa = -Y * V
    dS_dVa[idx, idx] += I
    dS_dVa = 1j * V[:, None] * np.conj(dS_dVa)
    dS_dVm = V[:, None] * np.conj(Y * vnorm)
    dS_dVm[idx, idx] += np.conj(I) * vnorm
    return dS_dVm, dS_dVa


def _real_block(dS_dVm, dS_dVa):
    """[[Re dS/d|V|, Re dS/dangle], [Im dS/d|V|, Im dS/dangle]]."""
    return np.concatenate([np.hstack([dS_dVm.real, dS_dVa.real]),
                           np.hstack([dS_dVm.imag, dS_dVa.imag])])


def injection_jacobian(net, v, theta):
    """d(p_inj, q_inj)/d(v, theta): (2n, 2n)."""
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(v <= 0):
        raise ValidationError("voltage magnitudes must be positive")
    vnorm = np.exp(1j * theta)
    V = v * vnorm
    dS_dVm, dS_dVa = _dS_dV(net.Yb, V, vnorm)
    return _real_block(dS_dVm, dS_dVa)


def _flow_derivatives(net, v, theta, direction):
    """Flows S = V[bus] conj(Y V) of one direction and their derivatives
    by (|V|, angle V), MATPOWER's ``dSbr_dV`` by broadcasting: ``bus`` is
    each branch's end on that side."""
    vnorm = np.exp(1j * theta)
    V = v * vnorm
    if direction == "ft":
        Y, bus = net.Yft, net.f_bus
    elif direction == "tf":
        Y, bus = net.Ytf, net.t_bus
    else:
        raise ValidationError(f"direction must be 'ft' or 'tf', got {direction!r}")
    I = Y @ V
    Vsel = V[bus]
    br = np.arange(bus.size)
    dS_dVa = -Vsel[:, None] * np.conj(Y * V)
    dS_dVa[br, bus] += np.conj(I) * V[bus]
    dS_dVa *= 1j
    dS_dVm = Vsel[:, None] * np.conj(Y * vnorm)
    dS_dVm[br, bus] += np.conj(I) * vnorm[bus]
    S = Vsel * np.conj(I)
    return S, dS_dVm, dS_dVa


def line_flow_jacobian(net, v, theta, direction):
    """d(p^dir, q^dir)/d(v, theta): (2m, 2n)."""
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta, dtype=float)
    _, dS_dVm, dS_dVa = _flow_derivatives(net, v, theta, direction)
    return _real_block(dS_dVm, dS_dVa)


def apparent_flow_jacobian(net, v, theta, direction):
    """d(s^dir)/d(v, theta): (m, 2n), chain rule s = sqrt(p^2 + q^2)."""
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta, dtype=float)
    S, dS_dVm, dS_dVa = _flow_derivatives(net, v, theta, direction)
    p, q = S.real, S.imag
    s = np.abs(S)
    denom = np.maximum(s, S_EPS)
    Jv = (p[:, None] * dS_dVm.real + q[:, None] * dS_dVm.imag) / denom[:, None]
    Ja = (p[:, None] * dS_dVa.real + q[:, None] * dS_dVa.imag) / denom[:, None]
    return np.hstack([Jv, Ja])


def full_jacobian(net, v, theta):
    """Stacked (2n+2m, 2n) Jacobian of the packed output y_pf."""
    return np.vstack([
        injection_jacobian(net, v, theta),
        apparent_flow_jacobian(net, v, theta, "ft"),
        apparent_flow_jacobian(net, v, theta, "tf"),
    ])


def linearize(net, op):
    """Affine model (Jstar, rstar) about an operating point.

    The reference-angle column is removed so the model acts on packed
    inputs of length 2n-1; rstar makes the model exact at x0.
    """
    if abs(op.theta[net.ref]) > 1e-12:
        raise ValidationError("linearization point must have theta[ref] = 0")
    J = full_jacobian(net, op.v, op.theta)
    if not np.all(np.isfinite(J)):
        raise ValidationError("NaN/inf in Jacobian at linearization point")
    Jstar = np.delete(J, net.n + net.ref, axis=1)
    x0 = grid_model.pack_input(op, net)
    f0 = grid_model.pack_output(op)
    rstar = f0 - Jstar @ x0
    return LinearPFModel(Jstar=Jstar, rstar=rstar, x0=x0)


def finite_difference_jacobian(fun, x, h=FD_STEP):
    """Central finite differences of a vector function; test oracle."""
    x = np.asarray(x, dtype=float)
    f0 = fun(x)
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (fun(xp) - fun(xm)) / (2 * h)
    return J


def dump_jacobian(J, header=""):
    """Render a matrix as plain text rows (debug aid for --dump-jacobian)."""
    lines = []
    if header:
        lines.append(f"# {header} shape={J.shape[0]}x{J.shape[1]}")
    for row in np.atleast_2d(J):
        lines.append(" ".join(f"{v:.12e}" for v in row))
    return "\n".join(lines) + "\n"

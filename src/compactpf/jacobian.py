"""Analytic Jacobians of the AC power flow map and the affine model.

Derivatives are formed in polar coordinates with complex matrix algebra;
correctness is pinned by finite-difference agreement with
grid_model.eval_power_flow (see tests). Input ordering is (v, theta),
output ordering follows the packed map (p, q) or s per direction.

Like the evaluation, the Jacobians take a leading axis: (v, theta) of
shape (..., n) give one Jacobian per point, (..., rows, 2n), each with
the bits of that point's Jacobian taken alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from . import grid_model
from .tolerances import CMP_TOL

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


def _points(net, v, theta, positive=False):
    """The points of (v, theta) (..., n) as rows: their leading shape, V
    and V/|V|, complex (P, n). The shapes are checked, and with
    ``positive`` also that every magnitude is positive."""
    v, theta = grid_model.check_state(net, v, theta, positive)
    vnorm = np.exp(1j * theta.reshape(-1, net.n))
    return v.shape[:-1], v.reshape(-1, net.n) * vnorm, vnorm


def _dS_dV(Y, V, vnorm):
    """d(diag(V) conj(Y V)) by (|V|, angle V), MATPOWER's ``dSbus_dV``
    with the diagonal matrices applied by broadcasting, for each point of
    V (P, n): one (P, n, 2n) array [dS/d|V|, dS/dangle]."""
    P, n = V.shape
    dS = np.empty((P, n, 2 * n), dtype=complex)
    # in each point's flat row, the diagonal of dS/d|V| is every
    # (2n + 1)-th entry from 0, and that of dS/dangle from n
    flat = dS.reshape(P, -1)
    I = grid_model.products(Y, V)
    dS_dVa = dS[:, :, n:]
    np.multiply(-Y, V[:, None, :], out=dS_dVa)
    flat[:, n::2 * n + 1] += I
    np.multiply(1j * V[:, :, None], np.conj(dS_dVa), out=dS_dVa)
    np.multiply(V[:, :, None], np.conj(Y * vnorm[:, None, :]),
                out=dS[:, :, :n])
    flat[:, ::2 * n + 1] += np.conj(I) * vnorm
    return dS


def _real_block(lead, dS):
    """[[Re dS/d|V|, Re dS/dangle], [Im dS/d|V|, Im dS/dangle]] of each
    point, with the points' leading shape."""
    J = np.concatenate([dS.real, dS.imag], axis=1)
    return J.reshape(lead + J.shape[1:])


def injection_jacobian(net, v, theta):
    """d(p_inj, q_inj)/d(v, theta) at (v, theta) of shape (..., n):
    (..., 2n, 2n)."""
    lead, V, vnorm = _points(net, v, theta, positive=True)
    return _real_block(lead, _dS_dV(net.Yb, V, vnorm))


def _flow_derivatives(net, V, vnorm, direction):
    """Flows S = V[bus] conj(Y V) of one direction and their derivatives
    by (|V|, angle V), MATPOWER's ``dSbr_dV`` by broadcasting: ``bus`` is
    each branch's end on that side. Each point of V (P, n) gets one
    (m, 2n) array [dS/d|V|, dS/dangle]."""
    if direction == "ft":
        Y, bus = net.Yft, net.f_bus
    elif direction == "tf":
        Y, bus = net.Ytf, net.t_bus
    else:
        raise ValidationError(f"direction must be 'ft' or 'tf', got {direction!r}")
    Ic = np.conj(grid_model.products(Y, V))
    Vsel = V.take(bus, axis=1)
    br = np.arange(net.m)
    dS_dVa = -Vsel[:, :, None] * np.conj(Y * V[:, None, :])
    dS_dVa[:, br, bus] += Ic * Vsel
    dS_dVa *= 1j
    dS_dVm = Vsel[:, :, None] * np.conj(Y * vnorm[:, None, :])
    dS_dVm[:, br, bus] += Ic * vnorm.take(bus, axis=1)
    return Vsel * Ic, np.concatenate([dS_dVm, dS_dVa], axis=2)


def line_flow_jacobian(net, v, theta, direction):
    """d(p^dir, q^dir)/d(v, theta) at (v, theta) of shape (..., n):
    (..., 2m, 2n)."""
    lead, V, vnorm = _points(net, v, theta)
    return _real_block(lead, _flow_derivatives(net, V, vnorm, direction)[1])


def apparent_flow_jacobian(net, v, theta, direction):
    """d(s^dir)/d(v, theta) at (v, theta) of shape (..., n): (..., m, 2n),
    chain rule s = sqrt(p^2 + q^2)."""
    lead, V, vnorm = _points(net, v, theta)
    S, dS = _flow_derivatives(net, V, vnorm, direction)
    denom = np.maximum(np.abs(S), S_EPS)[:, :, None]
    J = (S.real[:, :, None] * dS.real + S.imag[:, :, None] * dS.imag) / denom
    return J.reshape(lead + J.shape[1:])


def full_jacobian(net, v, theta):
    """(..., 2n+2m, 2n) Jacobian of the packed output y_pf."""
    return np.concatenate([
        injection_jacobian(net, v, theta),
        apparent_flow_jacobian(net, v, theta, "ft"),
        apparent_flow_jacobian(net, v, theta, "tf"),
    ], axis=-2)


def linearize(net, op):
    """Affine model (Jstar, rstar) about an operating point.

    The reference-angle column is removed so the model acts on packed
    inputs of length 2n-1; rstar makes the model exact at x0.
    """
    if abs(op.theta[net.ref]) > CMP_TOL:
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

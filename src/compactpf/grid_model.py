"""Network matrices and exact evaluation of the AC power flow map.

The map of interest is f(v, theta) -> (p_inj, q_inj, s_ft, s_tf):
nodal injections from the bus admittance matrix and bidirectional
apparent line flows from the branch flow matrices. Branches use the
standard pi-model with off-nominal tap ratio and phase shift folded
into the flow matrices.

The evaluation takes a leading axis: ``v`` and ``theta`` of shape
``(..., n)`` give every field of the OperatingPoint a shape ``(..., ·)``,
one point per leading index (a multi-period SLP passes ``(T, n)``). Each
point's matrix products are ``np.matmul(Y, V[..., None])``, which gives
every point the same bits as evaluating it alone.
"""

from dataclasses import dataclass, fields

import numpy as np

from .case_ingest import REF
from .errors import ValidationError


@dataclass(frozen=True)
class Network:
    n: int
    m: int
    Yb: np.ndarray     # (n, n) complex nodal admittance
    Yft: np.ndarray    # (m, n) complex from-side flow matrix
    Ytf: np.ndarray    # (m, n) complex to-side flow matrix
    f_bus: np.ndarray  # (m,) sending-end bus position of each branch
    t_bus: np.ndarray  # (m,) receiving-end bus position of each branch
    gsh: np.ndarray    # (n,) shunt conductance p.u.
    bsh: np.ndarray    # (n,) shunt susceptance p.u.
    smax: np.ndarray   # (m,) apparent flow limits p.u.
    vmin: np.ndarray   # (n,)
    vmax: np.ndarray   # (n,)
    theta_min: np.ndarray  # (m,) angle-difference bounds, rad
    theta_max: np.ndarray
    branch_x: np.ndarray   # (m,) series reactance
    ref: int           # reference bus position

    @property
    def d_in(self):
        """Surrogate input dimension: v plus theta without the ref angle."""
        return 2 * self.n - 1

    @property
    def d_out(self):
        return 2 * self.n + 2 * self.m


@dataclass(frozen=True)
class OperatingPoint:
    """The AC state and power flow of one point, or of a stack of points:
    every field then carries the same leading axes."""
    v: np.ndarray
    theta: np.ndarray
    p_inj: np.ndarray
    q_inj: np.ndarray
    p_ft: np.ndarray
    q_ft: np.ndarray
    p_tf: np.ndarray
    q_tf: np.ndarray
    s_ft: np.ndarray
    s_tf: np.ndarray

    def periods(self):
        """The points of a (T, ·) stack, one per period, as views."""
        cols = [getattr(self, f.name) for f in fields(self)]
        return [OperatingPoint(*(a[t] for a in cols))
                for t in range(self.v.shape[0])]


def build_network(case):
    """Assemble the admittance and branch flow matrices from a RawCase."""
    n, m = case.n, case.m
    idx = case.bus_index()

    f_bus = np.array([idx[br.f] for br in case.branches], dtype=int)
    t_bus = np.array([idx[br.t] for br in case.branches], dtype=int)
    # each entry is added onto a zero, so a -0.0 part is stored as +0.0
    Yft = np.zeros((m, n), dtype=complex)
    Ytf = np.zeros((m, n), dtype=complex)
    for k, br in enumerate(case.branches):
        ys = 1.0 / complex(br.r, br.x)
        bc = 1j * br.b / 2.0
        tap = br.ratio * np.exp(1j * br.shift)
        f, t = f_bus[k], t_bus[k]
        Yft[k, f] += (ys + bc) / (br.ratio ** 2)
        Yft[k, t] += -ys / np.conj(tap)
        Ytf[k, f] += -ys / tap
        Ytf[k, t] += ys + bc
    gsh = np.array([b.gs for b in case.buses])
    bsh = np.array([b.bs for b in case.buses])
    # from-side rows enter Yb at their from bus, to-side rows at their to
    # bus; as two sums added in this order, Yb equals the dense
    # end-selector product form to the last bit
    Yb_f = np.zeros((n, n), dtype=complex)
    Yb_t = np.zeros((n, n), dtype=complex)
    np.add.at(Yb_f, f_bus, Yft)
    np.add.at(Yb_t, t_bus, Ytf)
    Yb = Yb_f + Yb_t + np.diag(gsh + 1j * bsh)

    _check_connected(f_bus, t_bus, n)

    ref = next(i for i, b in enumerate(case.buses) if b.btype == REF)
    return Network(
        n=n, m=m, Yb=Yb, Yft=Yft, Ytf=Ytf,
        f_bus=f_bus, t_bus=t_bus,
        gsh=gsh, bsh=bsh,
        smax=np.array([br.rate_a for br in case.branches]),
        vmin=np.array([b.vmin for b in case.buses]),
        vmax=np.array([b.vmax for b in case.buses]),
        theta_min=np.array([br.ang_min for br in case.branches]),
        theta_max=np.array([br.ang_max for br in case.branches]),
        branch_x=np.array([br.x for br in case.branches]),
        ref=ref,
    )


def _check_connected(f_bus, t_bus, n):
    adj = [[] for _ in range(n)]
    for i, j in zip(f_bus.tolist(), t_bus.tolist()):
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != n:
        island = sorted(set(range(n)) - seen)
        raise ValidationError(f"network is disconnected; island buses {island}")


def check_state(net, v, theta, positive=True):
    """(v, theta) as float arrays of one shape (..., n); with ``positive``,
    every v must be positive."""
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if v.shape[-1:] != (net.n,) or theta.shape != v.shape:
        raise ValidationError("v/theta dimension mismatch")
    if positive and v.min(initial=np.inf) <= 0:
        raise ValidationError("voltage magnitudes must be positive")
    return v, theta


def products(Y, V):
    """Y @ V for each point of V (..., n), with the bits of the product
    taken one point at a time."""
    return np.matmul(Y, V[..., None])[..., 0]


def eval_power_flow(net, v, theta):
    """Exact AC power flow evaluation at (v, theta) of shape (..., n)."""
    v, theta = check_state(net, v, theta)
    V = v * np.exp(1j * theta)
    s_inj = V * np.conj(products(net.Yb, V))
    sf = V.take(net.f_bus, axis=-1) * np.conj(products(net.Yft, V))
    st = V.take(net.t_bus, axis=-1) * np.conj(products(net.Ytf, V))
    return OperatingPoint(
        v=v, theta=theta,
        p_inj=s_inj.real, q_inj=s_inj.imag,
        p_ft=sf.real, q_ft=sf.imag,
        p_tf=st.real, q_tf=st.imag,
        s_ft=np.abs(sf), s_tf=np.abs(st),
    )


def loss_floor(net):
    """A lower bound on the total active injection sum(p_inj), the network's
    active loss, at every (v, theta) with v inside [vmin, vmax].

    sum(p_inj) = Re(V^H Yb V) = V^H H V with H = (Yb + Yb^H) / 2 Hermitian,
    so it is at least lam * sum(v^2) for any lam below H's eigenvalues. lam
    is the Gershgorin bound min_i (H_ii - sum_{j != i} |H_ij|); sum(v^2) is
    taken at vmin when lam >= 0 and at vmax when lam < 0. Elementwise, so no
    eigensolver runs.
    """
    H = 0.5 * (net.Yb + net.Yb.conj().T)
    mag = np.abs(H)
    lam = float(np.min(H.diagonal().real - (mag.sum(axis=1) - mag.diagonal())))
    v = net.vmin if lam >= 0.0 else net.vmax
    return lam * float(v @ v)


def pack_input(op, net):
    """Stack (v, theta) dropping the reference-bus angle: length 2n-1 on
    the last axis."""
    theta = np.delete(op.theta, net.ref, axis=-1)
    return np.concatenate([op.v, theta], axis=-1)


def pack_output(op):
    """Stack (p_inj, q_inj, s_ft, s_tf): length 2n+2m on the last axis."""
    return np.concatenate([op.p_inj, op.q_inj, op.s_ft, op.s_tf], axis=-1)


def unpack_input(x, net):
    """Inverse of pack_input on the last axis of x (..., 2n-1); the
    reference angle is restored as 0."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (net.d_in,):
        raise ValidationError(f"expected input of length {net.d_in}")
    v = x[..., :net.n]
    theta = np.insert(x[..., net.n:], net.ref, 0.0, axis=-1)
    return v, theta


def eval_at_input(net, x):
    """Evaluate the packed map x -> y_pf, on the last axis of x."""
    v, theta = unpack_input(x, net)
    return pack_output(eval_power_flow(net, v, theta))

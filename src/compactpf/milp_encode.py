"""Exact big-M MILP encoding of the compact model, plus bound tightening
and ReLU pruning.

The encoding introduces, per ReLU i, pre-activation zhat_i, output z_i,
and (unless the ReLU has been fixed by pruning) a binary beta_i with the
four standard big-M inequalities. Valid [Mmin, Mmax] pre-activation
bounds come from interval arithmetic over the input box, and can be
tightened by optimizing zhat_i over the encoded fragment with the LP
relaxation or the exact MILP. A UC model can then tighten them once more
per hour, over the fragment with that hour's load balance.

Every pass runs the same loop over one fragment, its arrays built once,
and solves each bound with one HiGHS call on them: an LP, warm from the
last optimal basis, or one branch-and-cut call whose proven dual bound is
the bound.

Every tightening pass follows one rule: it optimizes only the ReLUs that
its starting bounds leave free by ``prune``'s rule, over the fragment
those bounds prune. This is exact, not a relaxation. With Mmax <= 0 the
big-M rows force z = 0, and with Mmin > 0 they force z = zhat, in the MILP
and in its LP relaxation alike; so the pruned fragment has the same
feasible (x, zhat, z) set, and each open ReLU the same optimum, with fewer
binaries. A settled ReLU already has its sign, so it is not bounded again.
"""

import heapq
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .data_factory import MAX_ALTERATION
from .errors import ValidationError
from .milp_model import MILPModel, BINARY, LE, EQ, GE
from . import milp_solve
from .tolerances import CMP_TOL, PATH_TOL

FREE, FIXED_OFF, FIXED_ON = "free", "fixed_off", "fixed_on"
TIGHTEN_BUDGET_S = 120.0   # wall-clock budget of one tighten_bounds or
                           # hourly_bounds call


@dataclass
class BigMBounds:
    m_min: np.ndarray
    m_max: np.ndarray
    status: tuple          # per-ReLU FREE / FIXED_OFF / FIXED_ON
    provenance: tuple      # per-ReLU "interval" / "lp" / "milp"

    def __post_init__(self):
        if np.any(self.m_min > self.m_max + CMP_TOL):
            raise ValidationError("Mmin > Mmax")
        for st, lo, hi in zip(self.status, self.m_min, self.m_max):
            if st == FIXED_OFF and hi > 0:
                raise ValidationError("fixed_off requires Mmax <= 0")
            if st == FIXED_ON and lo <= 0:
                raise ValidationError("fixed_on requires Mmin > 0")

    @property
    def rho(self):
        return self.m_min.size

    def free_relus(self):
        """Indices of the ReLUs these bounds leave free."""
        return [i for i, s in enumerate(self.status) if s == FREE]

    def free_count(self):
        return len(self.free_relus())


@dataclass
class BoundBox:
    """Engineering constraint sets for the surrogate's inputs and outputs.

    x_lo/x_hi box the packed input (voltages then non-ref angles);
    angle_pairs carry the per-line angle-difference constraints as
    (i, j, lo, hi) over x indices, j = None meaning the reference bus;
    y_lo/y_hi bound the packed output (+-inf where unconstrained).
    """
    x_lo: np.ndarray
    x_hi: np.ndarray
    angle_pairs: tuple = ()
    y_lo: np.ndarray = None
    y_hi: np.ndarray = None

    def __post_init__(self):
        if np.any(self.x_lo > self.x_hi):
            raise ValidationError("empty input box")


def _theta_index(bus, net):
    """Index of a bus angle inside the packed input, None for the ref."""
    if bus == net.ref:
        return None
    return net.n + (bus if bus < net.ref else bus - 1)


def bound_box_from_network(net, inst=None):
    """Input box from voltage limits and angle-difference reachability;
    output bounds from UC engineering limits when an instance is given."""
    n, m = net.n, net.m
    if inst is not None:
        inst.check_load_rows(n)
    d_in, d_out = net.d_in, net.d_out

    # per-bus angle reach: cheapest sum of line angle-limit magnitudes
    # from the reference bus (Dijkstra)
    w = np.maximum(np.abs(net.theta_min), np.abs(net.theta_max))
    adj = [[] for _ in range(n)]
    for k, (i, j) in enumerate(zip(net.f_bus.tolist(), net.t_bus.tolist())):
        adj[i].append((j, w[k]))
        adj[j].append((i, w[k]))
    reach = np.full(n, np.inf)
    reach[net.ref] = 0.0
    heap = [(0.0, net.ref)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > reach[u]:
            continue
        for vtx, wt in adj[u]:
            nd = d + wt
            if nd < reach[vtx] - PATH_TOL:
                reach[vtx] = nd
                heapq.heappush(heap, (nd, vtx))

    x_lo = np.empty(d_in)
    x_hi = np.empty(d_in)
    x_lo[:n], x_hi[:n] = net.vmin, net.vmax
    for bus in range(n):
        k = _theta_index(bus, net)
        if k is None:
            continue
        x_lo[k], x_hi[k] = -reach[bus], reach[bus]

    pairs = []
    for k, (i, j) in enumerate(zip(net.f_bus.tolist(), net.t_bus.tolist())):
        pairs.append((_theta_index(i, net), _theta_index(j, net),
                      net.theta_min[k], net.theta_max[k]))

    y_lo = np.full(d_out, -np.inf)
    y_hi = np.full(d_out, np.inf)
    # apparent flows bounded above by line ratings in both directions
    y_hi[2 * n:2 * n + m] = net.smax
    y_hi[2 * n + m:] = net.smax
    if inst is not None:
        pmax_at, qmin_at, qmax_at = _bus_output_ranges(inst, n)
        # widen the load range by the load-alteration envelope so one box
        # stays valid across every load scheme scenario
        pd_max = inst.pd.max(axis=1)
        pd_min = inst.pd.min(axis=1)
        qd_max = inst.qd.max(axis=1)
        qd_min = inst.qd.min(axis=1)
        pd_hi = pd_max + MAX_ALTERATION * np.abs(pd_max)
        pd_lo = pd_min - MAX_ALTERATION * np.abs(pd_min)
        qd_hi = qd_max + MAX_ALTERATION * np.abs(qd_max)
        qd_lo = qd_min - MAX_ALTERATION * np.abs(qd_min)
        y_lo[:n] = -pd_hi
        y_hi[:n] = pmax_at - pd_lo
        y_lo[n:2 * n] = qmin_at - qd_hi
        y_hi[n:2 * n] = qmax_at - qd_lo
    return BoundBox(x_lo=x_lo, x_hi=x_hi, angle_pairs=tuple(pairs),
                    y_lo=y_lo, y_hi=y_hi)


def _bus_output_ranges(inst, n):
    """Per bus position, the most active power its units can inject and
    the least and most reactive power, each unit within its bounds in the
    UC model: a unit, which may be off, in [0, pmax] and
    [min(qmin, 0), max(qmax, 0)], a condenser in [qmin, qmax]."""
    pmax_at = np.zeros(n)
    qmin_at = np.zeros(n)
    qmax_at = np.zeros(n)
    for g in inst.gens:
        pmax_at[g.bus] += g.pmax
        qmin_at[g.bus] += min(g.qmin, 0.0)
        qmax_at[g.bus] += max(g.qmax, 0.0)
    for c in inst.condensers:
        qmin_at[c.bus] += c.qmin
        qmax_at[c.bus] += c.qmax
    return pmax_at, qmin_at, qmax_at


def interval_bounds(model, box):
    """Valid pre-activation bounds from interval arithmetic over the box."""
    lo_term = np.minimum(model.w1 * box.x_lo[:, None],
                         model.w1 * box.x_hi[:, None])
    hi_term = np.maximum(model.w1 * box.x_lo[:, None],
                         model.w1 * box.x_hi[:, None])
    m_min = lo_term.sum(axis=0) + model.b
    m_max = hi_term.sum(axis=0) + model.b
    rho = model.rho
    return BigMBounds(m_min=m_min, m_max=m_max,
                      status=(FREE,) * rho,
                      provenance=("interval",) * rho)


@dataclass
class ReluFragment:
    """Variable indices of one encoded network inside a MILPModel."""
    x: list
    y: list
    z: list
    zhat: list
    beta: list  # None where the ReLU is fixed


def encode_relu_network(model, bounds, milp, x_vars, prefix="nn"):
    """Add the exact MILP encoding of `model` to `milp` over given x vars.

    y = Jstar x + rstar + w2 z,  zhat = w1' x + b, and per free ReLU the
    four big-M rows; fixed_off contributes z=0 and fixed_on z=zhat, both
    without a binary.
    """
    rho = model.rho
    if bounds.rho != rho:
        raise ValidationError("bounds/model ReLU count mismatch")
    if len(x_vars) != model.d_in:
        raise ValidationError("x variable count != model input dimension")

    y = milp.add_vars(f"{prefix}.y", model.d_out, lb=-math.inf, ub=math.inf)
    zhat = [milp.add_var(f"{prefix}.zh[{i}]",
                         lb=bounds.m_min[i], ub=bounds.m_max[i])
            for i in range(rho)]
    z = []
    beta = []
    for i in range(rho):
        st = bounds.status[i]
        if st == FIXED_OFF:
            z.append(milp.add_var(f"{prefix}.z[{i}]", lb=0.0, ub=0.0))
            beta.append(None)
        elif st == FIXED_ON:
            zi = milp.add_var(f"{prefix}.z[{i}]",
                              lb=bounds.m_min[i], ub=bounds.m_max[i])
            z.append(zi)
            beta.append(None)
            milp.add_constr({zi: 1.0, zhat[i]: -1.0}, EQ, 0.0,
                            name=f"{prefix}.on[{i}]")
        elif st == FREE:
            zi = milp.add_var(f"{prefix}.z[{i}]",
                              lb=0.0, ub=max(bounds.m_max[i], 0.0))
            bi = milp.add_var(f"{prefix}.beta[{i}]", kind=BINARY)
            z.append(zi)
            beta.append(bi)
            mmin, mmax = bounds.m_min[i], bounds.m_max[i]
            # z <= zhat - Mmin (1 - beta)
            milp.add_constr({zi: 1.0, zhat[i]: -1.0, bi: -mmin}, LE, -mmin,
                            name=f"{prefix}.bm1[{i}]")
            # z >= zhat
            milp.add_constr({zi: 1.0, zhat[i]: -1.0}, GE, 0.0,
                            name=f"{prefix}.bm2[{i}]")
            # z <= Mmax beta
            milp.add_constr({zi: 1.0, bi: -mmax}, LE, 0.0,
                            name=f"{prefix}.bm3[{i}]")
        else:
            raise ValidationError(f"unknown ReLU status {st!r}")

    # zhat = w1' x + b
    for i in range(rho):
        coeffs = {x_vars[j]: -model.w1[j, i] for j in range(model.d_in)}
        coeffs[zhat[i]] = 1.0
        milp.add_constr(coeffs, EQ, model.b[i], name=f"{prefix}.pre[{i}]")

    _add_output_rows(milp, model.linear, x_vars, y, prefix, z, model.w2)
    return ReluFragment(x=list(x_vars), y=y, z=z, zhat=zhat, beta=beta)


def encode_linear_model(lin, milp, x_vars, prefix="lin"):
    """Affine-only counterpart: y = Jstar x + rstar (no ReLU variables)."""
    y = milp.add_vars(f"{prefix}.y", lin.d_out, lb=-math.inf, ub=math.inf)
    _add_output_rows(milp, lin, x_vars, y, prefix)
    return ReluFragment(x=list(x_vars), y=y, z=[], zhat=[], beta=[])


def _add_output_rows(milp, lin, x_vars, y, prefix, z=(), w2=None):
    """The rows y = Jstar x + rstar (+ w2 z), one per output."""
    J = lin.Jstar
    for r in range(lin.d_out):
        coeffs = {y[r]: 1.0}
        for j in range(lin.d_in):
            if J[r, j] != 0.0:
                coeffs[x_vars[j]] = coeffs.get(x_vars[j], 0.0) - J[r, j]
        for i, zi in enumerate(z):
            if w2[r, i] != 0.0:
                coeffs[zi] = -w2[r, i]
        milp.add_constr(coeffs, EQ, lin.rstar[r], name=f"{prefix}.out[{r}]")


def add_box_constraints(milp, frag, box, prefix=""):
    """Apply angle-pair and output constraints of a BoundBox to a fragment
    (x bounds are assumed to be set on the variables already)."""
    for k, (i, j, lo, hi) in enumerate(box.angle_pairs):
        if i is None and j is None:
            continue
        coeffs = {}
        if i is not None:
            coeffs[frag.x[i]] = 1.0
        if j is not None:
            coeffs[frag.x[j]] = coeffs.get(frag.x[j], 0.0) - 1.0
        milp.add_constr(coeffs, LE, hi, name=f"{prefix}ang_hi[{k}]")
        milp.add_constr(coeffs, GE, lo, name=f"{prefix}ang_lo[{k}]")
    if box.y_lo is not None:
        for r, (lo, hi) in enumerate(zip(box.y_lo, box.y_hi)):
            v = milp.variables[frag.y[r]]
            v.lb = max(v.lb, lo)
            v.ub = min(v.ub, hi)


def standalone_fragment(model, bounds, box):
    """Fresh MILPModel holding just the encoded network over the box."""
    milp = MILPModel(name="nn_fragment")
    x = [milp.add_var(f"x[{j}]", lb=box.x_lo[j], ub=box.x_hi[j])
         for j in range(model.d_in)]
    frag = encode_relu_network(model, bounds, milp, x)
    add_box_constraints(milp, frag, box)
    return milp, frag


def _zhat_cost(backend, frag, i, direction):
    """The cost vector of min direction * zhat_i over the fragment."""
    c = np.zeros(backend.lb.size)
    c[frag.zhat[i]] = direction
    return c


def _lp_min(backend, frag, i, direction, lb=None, ub=None):
    """min direction * zhat_i over the fragment's LP relaxation, with the
    column bounds ``lb``/``ub`` in place of its own when given; None
    unless the LP is optimal."""
    sol = backend.solve(lb, ub, _zhat_cost(backend, frag, i, direction))
    return sol.objective if sol.status == "optimal" else None


def _tighten(start, extreme, source, t0):
    """``start`` with each ReLU it leaves free by ``prune``'s rule
    tightened: Mmin raised to ``extreme(i, +1)`` and Mmax lowered to
    ``-extreme(i, -1)`` where that is tighter, its provenance then
    ``source``. ``extreme`` gives a valid lower bound on min direction *
    zhat_i, or None, which leaves that side as it is, as does running past
    ``TIGHTEN_BUDGET_S`` from ``t0``. The status is ``start``'s."""
    m_min, m_max = start.m_min.copy(), start.m_max.copy()
    prov = list(start.provenance)
    for i, (lo, hi) in enumerate(zip(start.m_min, start.m_max)):
        if _relu_status(lo, hi) != FREE:
            continue
        if time.monotonic() - t0 > TIGHTEN_BUDGET_S:
            break
        low, neg_high = extreme(i, +1.0), extreme(i, -1.0)
        if low is not None and low > lo + CMP_TOL:
            m_min[i], prov[i] = low, source
        if neg_high is not None and -neg_high < hi - CMP_TOL:
            m_max[i], prov[i] = -neg_high, source
    return BigMBounds(m_min=np.minimum(m_min, m_max),  # fp jitter on pins
                      m_max=m_max, status=start.status,
                      provenance=tuple(prov))


def tighten_bounds(model, box, mode, start):
    """Tighten the pre-activation bounds ``start`` by optimizing zhat_i
    over the encoded fragment restricted to the box's constraint sets.

    mode "lp" takes the LP relaxation's optimum (valid, looser); mode
    "milp" takes HiGHS's dual bound from one branch-and-cut call on the
    exact fragment to a zero gap, and leaves a side as it is unless that
    call proves it optimal. Only the ReLUs that ``start`` leaves free by
    ``prune``'s rule are optimized, over the fragment
    ``prune(model, start)`` encodes, in which a settled ReLU has no
    binary; that fragment has the same feasible set, so each open ReLU
    gets the same optimum. Resulting bounds are never looser than the
    starting bounds; settled ReLUs, and entries not improved (or skipped
    once ``TIGHTEN_BUDGET_S`` is spent), keep their starting value and
    provenance. The status is ``start``'s.
    """
    if mode not in ("lp", "milp"):
        raise ValidationError(f"mode must be 'lp' or 'milp', got {mode!r}")
    t0 = time.monotonic()
    milp, frag = standalone_fragment(model, prune(model, start), box)
    backend = milp_solve.LPBackend(milp)

    def extreme(i, direction):
        if mode == "lp":
            return _lp_min(backend, frag, i, direction)
        # HiGHS's dual bound from one branch-and-cut call to a zero gap with
        # what is left of TIGHTEN_BUDGET_S (at least 1 s), taken only when
        # that call proves it optimal with a finite bound
        remaining = max(TIGHTEN_BUDGET_S - (time.monotonic() - t0), 1.0)
        res = backend.mip(0.0, remaining, milp_solve.NODE_BUDGET,
                          c=_zhat_cost(backend, frag, i, direction))
        ok = res.status == 0 and math.isfinite(res.dual_bound)
        return res.dual_bound if ok else None
    return _tighten(start, extreme, mode, t0)


def hourly_bounds(model, bounds, box, inst):
    """One ``BigMBounds`` per hour of the UC instance ``inst``: ``bounds``
    tightened, for every ReLU that ``bounds`` leave free by ``prune``'s
    rule, over that hour alone.

    Hour t's relaxation is the fragment ``prune(model, bounds)`` encodes
    over ``box`` (beta relaxed) with hour t's active and reactive balance
    rows, each unit's output within its bounds in the UC model
    (``_bus_output_ranges``). Those rows say exactly that output y[b] lies
    in [least injection - load, most injection - load] at bus b, so the
    relaxation is the fragment with these bounds on its outputs. It drops
    only the UC's inter-temporal, reserve and commitment rows, so the
    hour-t slice of every UC-feasible point lies in it, and its LP optima
    bound the pre-activations there as ``tighten_bounds(mode="lp")``'s do.
    Each side is never looser than in ``bounds`` and stays as given when
    its LP is not optimal; a ReLU whose sign the hour settles is fixed by
    ``prune``'s rule. Every LP runs through ``milp_solve.linprog`` on one
    warm instance; per hour only the output bounds change, per LP only
    the cost. An hour whose load column (``pd[:, t]`` and ``qd[:, t]``)
    repeats an earlier hour's has the same relaxation, so it gets that
    hour's bounds without solving again.
    """
    bounds = prune(model, bounds)
    if not bounds.free_relus():
        return [bounds] * inst.horizon
    milp, frag = standalone_fragment(model, bounds, box)
    lp = milp_solve.LPBackend(milp)
    n = inst.pd.shape[0]
    pmax_at, qmin_at, qmax_at = _bus_output_ranges(inst, n)
    p, q = frag.y[:n], frag.y[n:2 * n]
    keys = [(inst.pd[:, t].tobytes(), inst.qd[:, t].tobytes())
            for t in range(inst.horizon)]
    seen = {}       # load column -> the bounds of its first hour
    t0 = time.monotonic()
    for t, key in enumerate(keys):
        if key in seen:
            continue
        lb, ub = lp.lb.copy(), lp.ub.copy()
        lb[p] = np.maximum(lb[p], -inst.pd[:, t])
        ub[p] = np.minimum(ub[p], pmax_at - inst.pd[:, t])
        lb[q] = np.maximum(lb[q], qmin_at - inst.qd[:, t])
        ub[q] = np.minimum(ub[q], qmax_at - inst.qd[:, t])
        tight = _tighten(bounds, lambda i, direction: _lp_min(
            lp, frag, i, direction, lb, ub), "lp", t0)
        seen[key] = replace(tight, status=tuple(
            map(_relu_status, tight.m_min, tight.m_max)))
    return [seen[key] for key in keys]


def _relu_status(lo, hi):
    """``prune``'s rule: a ReLU is off when its pre-activation cannot be
    positive, on when it is always positive, and free otherwise."""
    if hi <= 0.0:
        return FIXED_OFF
    if lo > 0.0:
        return FIXED_ON
    return FREE


def prune(model, bounds):
    """Fix ReLUs whose bounds prove them always or never active."""
    status = tuple(_relu_status(lo, hi)
                   for lo, hi in zip(bounds.m_min, bounds.m_max))
    return BigMBounds(m_min=bounds.m_min.copy(), m_max=bounds.m_max.copy(),
                      status=status, provenance=bounds.provenance)

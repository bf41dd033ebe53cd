"""Train a compact PWL surrogate and encode it exactly as a MILP.
==================================================================

A compact model adds a tiny ReLU correction on top of the affine base:

    y = J* x + r* + w2 . relu(w1^T x + b)

Because the correction is piecewise linear, it embeds *exactly* in a
mixed-integer program via big-M constraints — no approximation beyond
the surrogate itself. This demo trains a rho=3 model, tightens its
big-M bounds, prunes ReLUs the bounds prove inactive, and verifies the
encoding reproduces the network's predictions bit-for-bit.

Run with:  python3 demos/03_train_and_encode.py   (about a minute)
"""

import importlib.resources as ir

import numpy as np

from compactpf import case_ingest, grid_model, jacobian
from compactpf.ac_solver import make_dispatch_spec, slp_acopf
from compactpf.data_factory import SamplerConfig, collect_dataset
from compactpf.pwl_learner import (TrainConfig, train_compact,
                                   evaluate_model,
                                   enumerate_activation_patterns)
from compactpf.milp_encode import (BoundBox, bound_box_from_network,
                                   interval_bounds, tighten_bounds, prune,
                                   standalone_fragment)
from compactpf.milp_solve import solve_milp

DATA = ir.files("compactpf.data")

case = case_ingest.parse_matpower((DATA / "case14.m").read_text())
case = case_ingest.derate_thermal_limits(case, 0.30)
net = grid_model.build_network(case)
inst = case_ingest.load_uc_instance((DATA / "uc14.json").read_text(), case)

op0, _ = slp_acopf(net, make_dispatch_spec(net, inst, hour=0))
lin = jacobian.linearize(net, op0)
ds = collect_dataset(net, inst, SamplerConfig(combos_per_gen=1), seed=0)

# --- train -------------------------------------------------------------------
rho = 3
cfg = TrainConfig(lr=2.5e-4, batch=75, steps=5000, seed=0)
Xtr, Ytr = ds.train
model = train_compact(Xtr, Ytr, lin, rho, cfg)

Xte, Yte = ds.test
stats = evaluate_model(model, Xte, Yte)
print(f"rho={rho} compact model: test L1 {stats.mean_compact:.4f} "
      f"vs affine {stats.mean_linear:.4f} "
      f"({stats.mean_compact / stats.mean_linear:.0%} of the linear error)")

# With rho ReLUs the surrogate has at most 2^rho affine regions; on real
# data usually far fewer are ever visited.
pats = enumerate_activation_patterns(model, ds.X)
print(f"activation patterns seen on the dataset: {len(pats)} of "
      f"{2 ** rho} possible")

# --- bounds and pruning -------------------------------------------------------
# The big-M encoding needs valid pre-activation bounds over the operating
# box (voltage limits + angle-difference reachability). Interval arithmetic
# gives a cheap valid starting point; LP tightening shrinks it.
box_full = bound_box_from_network(net, inst)
box = BoundBox(x_lo=box_full.x_lo, x_hi=box_full.x_hi,
               angle_pairs=box_full.angle_pairs)

iv = interval_bounds(model, box)
lp = tighten_bounds(model, box, mode="lp", start=iv)
for i in range(rho):
    print(f"ReLU {i}: interval [{iv.m_min[i]:+.3f}, {iv.m_max[i]:+.3f}]"
          f"  ->  lp [{lp.m_min[i]:+.3f}, {lp.m_max[i]:+.3f}]")

# A ReLU whose tightened range excludes zero is provably always-on or
# always-off; prune() replaces its binary with a fixed linear relation.
bounds = prune(model, lp)
print(f"pruning: {bounds.free_count()}/{rho} ReLUs keep a binary "
      f"({[s for s in bounds.status]})")

# --- exactness of the encoding ------------------------------------------------
# Pin the MILP's inputs to random points in the box and solve: the encoded
# y must equal model.predict(x) exactly (the encoding adds no slack).
milp, frag = standalone_fragment(model, bounds, box)
rng = np.random.default_rng(7)


def _sample_in_box(rng):
    """Random input honoring the box and the angle-pair constraints."""
    while True:
        x = rng.uniform(box.x_lo, box.x_hi)
        x[net.n:] = np.clip(x[net.n:], -0.1, 0.1)  # keep angles modest
        ok = True
        for i, j, lo, hi in box.angle_pairs:
            d = (x[i] if i is not None else 0.0) - \
                (x[j] if j is not None else 0.0)
            if not lo <= d <= hi:
                ok = False
                break
        if ok:
            return x


worst = 0.0
for _ in range(5):
    x = _sample_in_box(rng)
    milp.lb[frag.x] = milp.ub[frag.x] = x
    sol = solve_milp(milp)
    y_milp = np.array([sol.x[r] for r in frag.y])
    worst = max(worst, np.abs(y_milp - model.predict(x)).max())
print(f"\nmax |MILP output - network output| over 5 pinned inputs: "
      f"{worst:.2e}")

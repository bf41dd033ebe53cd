"""Parse a MATPOWER case, build the network, and solve an AC-OPF.
=================================================================

The first stage of the pipeline: raw case text in, a consistent
per-unit network out, and a feasible AC operating point for hour 0 of
the bundled unit-commitment instance.

Run with:  python3 demos/01_parse_and_power_flow.py
"""

import importlib.resources as ir

import numpy as np

from compactpf import case_ingest, grid_model
from compactpf.ac_solver import make_dispatch_spec, slp_acopf

DATA = ir.files("compactpf.data")

# --- ingest ----------------------------------------------------------------
# parse_matpower reads the bus/gen/branch tables and converts everything to
# per unit on the system base; validate_case checks for a reference bus,
# sane limits, and convex costs.
case = case_ingest.parse_matpower((DATA / "case14.m").read_text())
case_ingest.validate_case(case)
print(f"case: {len(case.buses)} buses, {len(case.branches)} branches, "
      f"{len(case.gens)} generators, base {case.base_mva} MVA")

# Derating thermal limits makes congestion bite, which is what makes the
# difference between power-flow formulations visible later on.
case = case_ingest.derate_thermal_limits(case, 0.30)

# --- network matrices ------------------------------------------------------
# build_network assembles the nodal admittance matrix Yb and the from/to flow
# matrices, keeps each branch's end buses as f_bus/t_bus, and rejects
# disconnected grids.
net = grid_model.build_network(case)
print(f"network: Yb is {net.Yb.shape}, reference bus position {net.ref}")
print(f"surrogate input dim  d_in  = {net.d_in}  (v, theta without ref)")
print(f"surrogate output dim d_out = {net.d_out} (p_inj, q_inj, s_ft, s_tf)")

# --- AC-OPF for one hour ----------------------------------------------------
# The UC instance supplies loads, reserve, and unit limits per hour.
inst = case_ingest.load_uc_instance((DATA / "uc14.json").read_text(), case)
spec = make_dispatch_spec(net, inst, hour=0)

# slp_acopf solves a single-period AC-OPF by sequential linear programming;
# the returned OperatingPoint satisfies the nonlinear equations.
op, dispatch = slp_acopf(net, spec)
print(f"\nAC-OPF converged in {dispatch['iterations']} SLP iterations, "
      f"cost {dispatch['cost']:.4f}")
print(f"voltages:   {op.v.min():.4f} .. {op.v.max():.4f} p.u.")
print(f"max angle:  {np.degrees(np.abs(op.theta).max()):.2f} deg")

# The operating point is an exact power-flow solution: re-evaluating the
# equations at (v, theta) reproduces the stored injections and flows.
check = grid_model.eval_power_flow(net, op.v, op.theta)
resid = max(np.abs(check.p_inj - op.p_inj).max(),
            np.abs(check.q_inj - op.q_inj).max())
print(f"power-flow residual at the solution: {resid:.2e}")

# Line loading against the derated ratings — some lines run close to
# their limits, which is the regime where surrogate accuracy matters.
loading = np.maximum(op.s_ft, op.s_tf) / net.smax
print(f"max line loading: {loading.max():.1%} "
      f"({int((loading > 0.9).sum())} lines above 90%)")

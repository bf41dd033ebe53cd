"""Build, solve, and audit unit-commitment MILPs.
==================================================

Three formulations share the same commitment core (min-up/down, ramps,
startup tiers, reserve) and differ only in how they model the network:

  dc      lossless active-power flow on angles,
  linear  the affine surrogate y = J* x + r* (voltages, reactive power,
          and apparent-flow limits included),
  nn      the compact PWL surrogate, big-M encoded (see demo 03).

This demo solves the dc and linear variants on a 4-hour, 14-bus
instance with derated lines, then audits each schedule against the
multi-period AC-OPF feasibility oracle — the ground truth the
surrogates are trying to anticipate.

Run with:  python3 demos/04_unit_commitment.py   (a few minutes)
"""

import importlib.resources as ir

from compactpf import case_ingest, grid_model, jacobian
from compactpf.ac_solver import make_dispatch_spec, slp_acopf, mtp_acopf_check
from compactpf.uc_builder import build_dc_uc, build_l_ac_uc, extract_schedule
from compactpf.milp_solve import solve_milp

DATA = ir.files("compactpf.data")

case = case_ingest.parse_matpower((DATA / "case14.m").read_text())
case = case_ingest.derate_thermal_limits(case, 0.30)
net = grid_model.build_network(case)
inst = case_ingest.load_uc_instance((DATA / "uc14_t4.json").read_text(), case)
print(f"instance: {inst.ngen} units, {len(inst.condensers)} condenser(s), "
      f"T={inst.horizon}")

# The linear formulation needs a base-point linearization.
op0, _ = slp_acopf(net, make_dispatch_spec(net, inst, hour=0))
lin = jacobian.linearize(net, op0)

for name, (milp, ucv) in (
        ("dc", build_dc_uc(inst, net)),
        ("linear", build_l_ac_uc(inst, net, lin))):
    nbin = len(milp.binary_indices())
    print(f"\n--- {name} UC: {milp.nvar} vars ({nbin} binary), "
          f"{milp.nrows} constraints")

    sol = solve_milp(milp, gap_target=0.01, time_budget=300.0)
    print(f"solve: {sol.status}, objective {sol.objective:.4f}, "
          f"gap {sol.gap:.2%}, {sol.nodes} nodes")

    sched = extract_schedule(milp, sol, inst, ucv, net=net)
    on = " ".join("".join(str(v) for v in sched.y[:, t])
                  for t in range(inst.horizon))
    print(f"commitment (units x hours): {on}")

    # The oracle re-dispatches the committed units against the full
    # nonlinear AC equations with ramp coupling across hours. A schedule
    # can look cheap under a surrogate yet fail here.
    report = mtp_acopf_check(net, inst, sched)
    print(f"oracle verdict: {report.verdict} "
          f"(max violation {report.max_violation:.2e})")
    if report.verdict == "feasible":
        print(f"true AC dispatch cost: {report.objective:.4f} "
              f"(surrogate promised {sol.objective:.4f})")

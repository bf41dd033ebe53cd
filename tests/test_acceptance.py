"""Acceptance gate: nine numbered criteria, each printing one PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -s` to see the lines
live; they are also captured in the standard report on failure.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from compactpf import grid_model, jacobian
from compactpf.pwl_learner import (CompactPWLModel, train_compact,
                                   train_direct, evaluate_model,
                                   enumerate_activation_patterns)
from compactpf.milp_model import MILPModel, BINARY, LE, GE
from compactpf.milp_encode import (BigMBounds, FREE, interval_bounds,
                                   tighten_bounds, prune,
                                   standalone_fragment)
from compactpf.milp_solve import (solve_milp, solve_lp, enumerate_binaries,
                                  export_mps, parse_mps, LPBackend)
from compactpf.uc_builder import (build_nn_ac_uc, build_l_ac_uc,
                                  build_core_uc, extract_schedule)
from compactpf.ac_solver import mtp_acopf_check
from compactpf.data_factory import LoadScheme
from compactpf.harness import ExperimentConfig, run_experiment, emit_reports

from conftest import sample_box_inputs


def _verdict(num, label, ok, detail):
    line = f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Jacobian correctness against central finite differences
# ---------------------------------------------------------------------------

def test_acceptance_1_jacobians(net14):
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    n = net14.n
    worst = 0.0
    for _ in range(20):
        v = rng.uniform(0.95, 1.05, n)
        theta = rng.uniform(-0.3, 0.3, n)
        theta[net14.ref] = 0.0
        z0 = np.concatenate([v, theta])

        def against(J, fun):
            nonlocal worst
            Jfd = jacobian.finite_difference_jacobian(fun, z0, h=1e-6)
            rel = np.abs(J - Jfd) / (1.0 + np.abs(J))
            worst = max(worst, float(rel.max()))

        def op_of(z):
            return grid_model.eval_power_flow(net14, z[:n], z[n:])

        against(jacobian.injection_jacobian(net14, v, theta),
                lambda z: np.concatenate([op_of(z).p_inj, op_of(z).q_inj]))
        for d in ("ft", "tf"):
            against(jacobian.line_flow_jacobian(net14, v, theta, d),
                    lambda z, d=d: np.concatenate(
                        [getattr(op_of(z), f"p_{d}"),
                         getattr(op_of(z), f"q_{d}")]))
            against(jacobian.apparent_flow_jacobian(net14, v, theta, d),
                    lambda z, d=d: getattr(op_of(z), f"s_{d}"))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 10.0
    _verdict(1, "Jacobians vs finite differences",
             ok, f"20 points, worst scaled error {worst:.2e} "
                 f"(limit 1e-05), {dt:.1f}s (limit 10s)")


# ---------------------------------------------------------------------------
# 2. Exact MILP reformulation of the rho=3 model
# ---------------------------------------------------------------------------

def test_acceptance_2_exact_encoding(compact3, box14):
    from compactpf.milp_encode import BoundBox
    t0 = time.perf_counter()
    model = compact3
    # inputs range over the full box; output engineering limits are not
    # part of the reformulation claim, so they are left off
    box = BoundBox(x_lo=box14.x_lo, x_hi=box14.x_hi,
                   angle_pairs=box14.angle_pairs)
    bounds = interval_bounds(model, box)
    milp, frag = standalone_fragment(model, bounds, box)
    milp.obj = {frag.y[0]: 1.0}
    backend = LPBackend(milp)
    rng = np.random.default_rng(200)
    X = sample_box_inputs(box14, 1400, rng)[:1000]
    assert X.shape[0] == 1000
    yidx = np.array(frag.y)
    bidx = np.array(frag.beta)
    worst = 0.0
    for x in X:
        expect = model.predict(x)
        feasible = 0
        for pattern in range(2 ** model.rho):
            lb = backend.lb.copy()
            ub = backend.ub.copy()
            lb[frag.x] = ub[frag.x] = x
            bits = [(pattern >> i) & 1 for i in range(model.rho)]
            lb[bidx] = ub[bidx] = bits
            sol = backend.solve(lb, ub)
            if sol.status != "optimal":
                continue
            feasible += 1
            worst = max(worst, float(np.max(np.abs(sol.x[yidx] - expect))))
        assert feasible >= 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 60.0
    _verdict(2, "exact big-M reformulation",
             ok, f"1000 inputs x 8 patterns, max |y - predict| "
                 f"{worst:.2e} (limit 1e-09), {dt:.1f}s (limit 60s)")


# ---------------------------------------------------------------------------
# 3. Distinct piecewise-linearization regions (rho in {2, 4})
# ---------------------------------------------------------------------------

def test_acceptance_3_linearization_regions(compact2, compact4, box14):
    rng = np.random.default_rng(300)
    details = []
    ok = True
    for model in (compact2, compact4):
        X = rng.uniform(box14.x_lo, box14.x_hi, (100000, model.d_in))
        Z = X @ model.w1 + model.b
        act = Z > 0
        patterns = enumerate_activation_patterns(model, X)
        ok &= len(patterns) <= 2 ** model.rho
        worst = 0.0
        for key in patterns:
            sel = np.all(act == np.array(key, dtype=bool), axis=1)
            margin = np.min(np.abs(Z[sel]), axis=1)
            x0 = X[sel][np.argmax(margin)]
            # within one region the model is affine, so central
            # differences recover the local Jacobian exactly
            h = min(1e-4, 0.25 * margin.max() / max(
                np.abs(model.w1).sum(), 1.0))
            Jfd = jacobian.finite_difference_jacobian(model.predict, x0, h=h)
            Jloc = model.linear.Jstar \
                + model.w2 @ np.diag(np.array(key, float)) @ model.w1.T
            worst = max(worst, float(np.max(np.abs(Jfd - Jloc))))
        ok &= worst <= 1e-8
        details.append(f"rho={model.rho}: {len(patterns)} patterns "
                       f"(max {2 ** model.rho}), local-J err {worst:.1e}")
    _verdict(3, "piecewise linearization regions", ok,
             "; ".join(details) + " (limit 1e-08)")


# ---------------------------------------------------------------------------
# 4. Bound-tightening chain interval >= lp >= milp
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def box_nn(box14):
    """Input-side constraint sets only (x box + angle pairs).

    Output engineering bounds include zero-width equalities at
    zero-injection buses, so the set restricted by them has measure zero
    in x-space and cannot be sampled; bounds tightened over this larger
    set remain valid for every downstream use.
    """
    from compactpf.milp_encode import BoundBox
    return BoundBox(x_lo=box14.x_lo, x_hi=box14.x_hi,
                    angle_pairs=box14.angle_pairs)


@pytest.fixture(scope="module")
def bounds_chain(compact8, box_nn):
    iv = interval_bounds(compact8, box_nn)
    lp = tighten_bounds(compact8, box_nn, mode="lp", start=iv)
    mi = tighten_bounds(compact8, box_nn, mode="milp", start=lp)
    return iv, lp, mi


def test_acceptance_4_bound_chain(compact8, box_nn, bounds_chain):
    iv, lp, mi = bounds_chain
    nested = (np.all(lp.m_min >= iv.m_min - 1e-9)
              and np.all(lp.m_max <= iv.m_max + 1e-9)
              and np.all(mi.m_min >= lp.m_min - 1e-9)
              and np.all(mi.m_max <= lp.m_max + 1e-9))
    strict = bool(np.any((lp.m_min > iv.m_min + 1e-9)
                         | (lp.m_max < iv.m_max - 1e-9)))

    # 1e4 inputs inside the box's constraint sets
    rng = np.random.default_rng(400)
    chunks = []
    total = 0
    for _ in range(50):
        Xc = sample_box_inputs(box_nn, 12000, rng)
        chunks.append(Xc)
        total += Xc.shape[0]
        if total >= 10000:
            break
    X = np.vstack(chunks)[:10000]
    Z = X @ compact8.w1 + compact8.b
    inside = all(
        np.all(Z >= b.m_min - 1e-7) and np.all(Z <= b.m_max + 1e-7)
        for b in (iv, lp, mi))
    ok = nested and strict and inside and X.shape[0] == 10000
    _verdict(4, "bound tightening chain", ok,
             f"nested={nested}, lp strictly tighter on "
             f"{int(np.sum((lp.m_min > iv.m_min + 1e-9) | (lp.m_max < iv.m_max - 1e-9)))}"
             f"/{compact8.rho} ReLUs, {X.shape[0]} samples inside all levels")


# ---------------------------------------------------------------------------
# 5. Pruning soundness
# ---------------------------------------------------------------------------

def test_acceptance_5_pruning(compact8, box_nn, bounds_chain):
    _, _, mi = bounds_chain
    pruned = prune(compact8, mi)
    unpruned = BigMBounds(m_min=mi.m_min.copy(), m_max=mi.m_max.copy(),
                          status=(FREE,) * compact8.rho,
                          provenance=mi.provenance)
    m_p, f_p = standalone_fragment(compact8, pruned, box_nn)
    m_u, f_u = standalone_fragment(compact8, unpruned, box_nn)
    rng = np.random.default_rng(500)
    worst = 0.0
    for _ in range(20):
        cx = rng.uniform(-1, 1, compact8.d_in)
        cy = rng.uniform(-1, 1, compact8.d_out)
        for m, f in ((m_p, f_p), (m_u, f_u)):
            m.obj = {j: c for j, c in zip(f.x, cx)}
            for j, c in zip(f.y, cy):
                m.obj[j] = c
        a = solve_milp(m_p)
        b = solve_milp(m_u)
        assert a.status == "optimal" and b.status == "optimal"
        worst = max(worst, abs(a.objective - b.objective))
    ok = worst <= 1e-7
    _verdict(5, "pruning soundness", ok,
             f"{pruned.free_count()}/{compact8.rho} ReLUs left free; "
             f"20 objectives, max optimum gap {worst:.2e} (limit 1e-07)")


# ---------------------------------------------------------------------------
# 6. Surrogate accuracy on held-out data
# ---------------------------------------------------------------------------

def test_acceptance_6_surrogate_accuracy(dataset14, lin14, train_cfg):
    t0 = time.perf_counter()
    Xtr, Ytr = dataset14.train
    compact = train_compact(Xtr, Ytr, lin14, 8, train_cfg)
    direct = train_direct(Xtr, Ytr, 8, train_cfg)
    dt = time.perf_counter() - t0
    Xte, Yte = dataset14.test
    stats = evaluate_model(compact, Xte, Yte, direct=direct)
    ratio = stats.mean_compact / stats.mean_linear
    ok = (ratio <= 0.5 and stats.mean_compact <= stats.mean_direct
          and dt <= 900.0)
    _verdict(6, "surrogate accuracy", ok,
             f"held-out L1: compact {stats.mean_compact:.4f}, linear "
             f"{stats.mean_linear:.4f} (ratio {ratio:.3f}, limit 0.5), "
             f"direct {stats.mean_direct:.4f}; training {dt:.0f}s "
             f"(limit 900s)")


# ---------------------------------------------------------------------------
# 7. Internal solver vs enumeration oracle; MPS round trip
# ---------------------------------------------------------------------------

def _bundled_small_milps(compact3, box14):
    out = []
    rng = np.random.default_rng(700)
    for trial in range(4):
        m = MILPModel(f"knap{trial}")
        nv = 10
        xs = [m.add_var(f"x[{i}]", kind=BINARY) for i in range(nv)]
        wts = rng.integers(1, 9, nv)
        m.add_constr({x: float(w) for x, w in zip(xs, wts)},
                     LE, float(wts.sum() // 2))
        for x in xs:
            m.add_obj(x, -float(rng.integers(1, 25)))
        out.append(m)
    # covering problem with a continuous coupling variable
    m = MILPModel("cover")
    xs = [m.add_var(f"x[{i}]", kind=BINARY) for i in range(8)]
    s = m.add_var("s", lb=0.0, ub=4.0)
    m.add_constr({**{x: 1.0 for x in xs[:5]}, s: 1.0}, GE, 3.0)
    m.add_constr({**{x: 1.0 for x in xs[3:]}, s: -1.0}, GE, 1.0)
    for k, x in enumerate(xs):
        m.add_obj(x, 1.0 + 0.1 * k)
    m.add_obj(s, 0.35)
    out.append(m)
    # the encoded rho=3 network fragment (3 binaries)
    milp, frag = standalone_fragment(compact3,
                                     interval_bounds(compact3, box14),
                                     box14)
    milp.obj = {frag.y[0]: 1.0, frag.y[1]: -0.5, frag.x[0]: 0.25}
    out.append(milp)
    return out


def test_acceptance_7_solver_vs_oracle(compact3, box14):
    models = _bundled_small_milps(compact3, box14)
    worst = 0.0
    for m in models:
        assert len(m.binary_indices()) <= 12
        bb = solve_milp(m)
        ref = enumerate_binaries(m)
        assert bb.status == "optimal" and ref.status == "optimal"
        worst = max(worst, abs(bb.objective - ref.objective))

    # MPS round trip on every instance: coefficient-identical
    identical = True
    for m in models:
        again = parse_mps(export_mps(m))
        lb0, ub0 = m.bounds_arrays()
        lb1, ub1 = again.bounds_arrays()
        identical &= (
            [v.name for v in again.variables]
            == [v.name for v in m.variables]
            and np.array_equal(lb0, lb1) and np.array_equal(ub0, ub1)
            and again.obj_constant == m.obj_constant
            and {m.variables[i].name: c for i, c in m.obj.items()}
            == {again.variables[i].name: c for i, c in again.obj.items()}
            and len(again.constraints) == len(m.constraints)
            and all(
                c0.sense == c1.sense and c0.rhs == c1.rhs
                and {m.variables[i].name: v for i, v in c0.coeffs.items()}
                == {again.variables[i].name: v
                    for i, v in c1.coeffs.items()}
                for c0, c1 in zip(m.constraints, again.constraints)))
    ok = worst <= 1e-6 and identical
    _verdict(7, "MILP solve vs oracle + MPS round trip", ok,
             f"{len(models)} instances (<=12 binaries), max objective "
             f"deviation {worst:.2e} (limit 1e-06); "
             f"round trip identical: {identical}")


# ---------------------------------------------------------------------------
# 8. End-to-end desk pipeline
# ---------------------------------------------------------------------------

def test_acceptance_8_end_to_end(net14, inst4, compact8, lin14, box14,
                                 bounds_chain):
    _, lp, _ = bounds_chain
    bounds = prune(compact8, lp)

    t0 = time.perf_counter()
    milp, ucv = build_nn_ac_uc(inst4, net14, compact8, bounds, box=box14)
    sol = solve_milp(milp, gap_target=0.01, time_budget=600.0)
    dt = time.perf_counter() - t0
    solved = sol.status in ("optimal", "gap_reached") and sol.gap <= 0.0101
    sched = extract_schedule(milp, sol, inst4, ucv, net=net14)
    report = mtp_acopf_check(net14, inst4, sched)
    feasible = report.verdict == "feasible"

    # w2 = 0 run collapses to the affine surrogate: must match L AC-UC
    zero = CompactPWLModel(w1=compact8.w1.copy(),
                           w2=np.zeros_like(compact8.w2),
                           b=compact8.b.copy(), linear=lin14)
    zb = prune(zero, interval_bounds(zero, box14))
    m0, _ = build_nn_ac_uc(inst4, net14, zero, zb, box=box14)
    ml, _ = build_l_ac_uc(inst4, net14, lin14, box=box14)
    s0 = solve_milp(m0, gap_target=0.0, time_budget=600.0)
    sl = solve_milp(ml, gap_target=0.0, time_budget=600.0)
    match = (s0.status == "optimal" and sl.status == "optimal"
             and abs(s0.objective - sl.objective)
             <= 1e-6 * max(1.0, abs(sl.objective)))

    ok = solved and dt < 600.0 and feasible and match
    _verdict(8, "end-to-end NN AC-UC pipeline", ok,
             f"solve {sol.status} gap {sol.gap:.3%} in {dt:.0f}s "
             f"(limit 600s), {sol.nodes} nodes; oracle verdict "
             f"{report.verdict} (viol {report.max_violation:.1e}); "
             f"w2=0 vs L AC-UC objective gap "
             f"{abs(s0.objective - sl.objective):.2e}")


# ---------------------------------------------------------------------------
# 9. Experiment harness shape and flow-error comparison
# ---------------------------------------------------------------------------

def test_acceptance_9_harness(net14, inst4, lin14, compact8, box14,
                              bounds_chain, dataset14, tmp_path):
    _, lp, _ = bounds_chain
    prep = {"net": net14, "inst": inst4, "lin": lin14, "model": compact8,
            "box": box14, "bounds": prune(compact8, lp),
            "dataset": dataset14}
    rng = np.random.default_rng(900)
    schemes = []
    for _ in range(2):
        schemes.append(LoadScheme("uniform",
                                  scale=float(rng.uniform(0.85, 1.15))))
        schemes.append(LoadScheme("per-bus-random", spread=0.15,
                                  seed=int(rng.integers(0, 2 ** 31))))
        schemes.append(LoadScheme("sinusoidal",
                                  amplitude=float(rng.uniform(0.0, 0.15))))
    cfg = ExperimentConfig(case_path="", uc_path="", schemes=tuple(schemes),
                           gap_target=0.01, time_budget=600.0)
    report = run_experiment(cfg, prep=prep)
    report.check_conservation()
    files = emit_reports(report, tmp_path / "out")
    tally_ok = all((tmp_path / "out" / f).exists()
                   for f in ("tally.txt", "scenarios.csv",
                             "flow_errors.csv"))
    del files

    pairs = {}
    for c in report.cells:
        if c.formulation in ("nn", "linear") and c.verdict == "feasible":
            pairs.setdefault(c.scenario, {})[c.formulation] = c
    both = [p for p in pairs.values() if len(p) == 2]
    wins = sum(1 for p in both
               if p["nn"].err_ft + p["nn"].err_tf
               <= p["linear"].err_ft + p["linear"].err_tf)
    frac = wins / len(both) if both else 0.0
    ok = tally_ok and len(both) >= 1 and frac >= 0.8
    _verdict(9, "experiment harness + flow errors", ok,
             f"6 scenarios x 3 formulations, tallies conserve; NN flow "
             f"error <= linear on {wins}/{len(both)} mutually feasible "
             f"scenarios ({frac:.0%}, limit 80%)")

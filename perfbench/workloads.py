"""The three workloads: their seeded inputs, set-up, rounds and checks.

Each workload has a ``setup()`` that builds what its first timed operation
needs, a ``round(state, k)`` that runs round k of its timed operations
(round k has the same inputs in every run with the same seed), and a
``check_round(state, rec)`` that verifies every operation's output with
``checks`` and returns (attempted, failed). Only set-up and rounds are
timed; each round is checked after it, and ``finish(state)`` makes the
checks that need every round first.
"""

import json
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
import layers
from checks import CheckFailed, require

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = SRC / "compactpf" / "data"
DERATE = 0.30
LOAD_SPREAD = 0.02   # seeded per-bus load factors lie in 1 +- LOAD_SPREAD


def import_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import compactpf
    from compactpf import (case_ingest, grid_model, jacobian, ac_solver,
                           data_factory, pwl_learner, milp_model,
                           milp_encode, milp_solve, uc_builder)
    if Path(compactpf.__file__).resolve().parent != SRC / "compactpf":
        raise ImportError(f"compactpf imported from {compactpf.__file__}, "
                          f"not from {SRC}")
    return {m.__name__.split(".")[-1]: m for m in (
        case_ingest, grid_model, jacobian, ac_solver, data_factory,
        pwl_learner, milp_model, milp_encode, milp_solve, uc_builder)}


def _report(failures, what, exc):
    failures.append(f"{what}: {type(exc).__name__}: {exc}")


class Workload:
    setup_repeats: int   # set-ups timed per run; their median is setup_s

    def __init__(self, mods, seed):
        self.m = mods
        self.failures = []   # messages of failed operations, for stderr
        self.tracer = layers.Tracer()   # the traced run installs into it
        self.case = checks.Case((DATA / "case14.m").read_text(), derate=DERATE)
        self.uc = checks.UCData(json.loads((DATA / "uc14.json").read_text()),
                                self.case)

    def load(self):
        """The program's network and 24-hour instance, from the files."""
        ci, gm = self.m["case_ingest"], self.m["grid_model"]
        case = ci.parse_matpower((DATA / "case14.m").read_text())
        ci.validate_case(case)
        case = ci.derate_thermal_limits(case, DERATE)
        net = gm.build_network(case)
        inst = ci.load_uc_instance((DATA / "uc14.json").read_text(), case)
        return net, inst

    def finish(self, state):
        """Checks deferred until every round is done; returns how many
        more operations failed."""
        return 0

    def result_s(self, walls):
        """Wall seconds per result; here a result is one round."""
        return statistics.median(walls)

    def base_point(self, net, inst):
        """Hour-1 all-committed AC-OPF point and its linearization."""
        acs = self.m["ac_solver"]
        op0, _ = acs.slp_acopf(net, acs.make_dispatch_spec(net, inst, 0))
        return self.m["jacobian"].linearize(net, op0)


def load_factors(seed, n):
    """Per-bus load factors drawn from the workload seed."""
    return 1.0 + np.random.default_rng(seed).uniform(-LOAD_SPREAD, LOAD_SPREAD,
                                                     size=n)


def _hours(inst, hours, factors=None):
    """The instance restricted to the given hours, loads scaled per bus."""
    fac = np.ones(inst.pd.shape[0]) if factors is None else factors
    return replace(inst, horizon=len(hours),
                   pd=inst.pd[:, hours] * fac[:, None],
                   qd=inst.qd[:, hours] * fac[:, None],
                   reserve=inst.reserve[hours])


# ---------------------------------------------------------------------------
# sample: thousands of small single-period SLP AC-OPFs
# ---------------------------------------------------------------------------

class Sample(Workload):
    """``collect_dataset`` on the 24 hours of uc14.json, ``combos_per_gen=1``.

    A round is one such call: 24 hours x (1 base + 4 outage draws) = 120
    candidate AC-OPFs, each accepted as a dataset row or rejected. The
    workload seed draws per-bus load factors for all hours. Round k uses
    sampler seed k, which draws the outage sets and the voltage-bound
    pushes: with seeded sampler seeds the accepted count ranged from 47 to
    61 of 120, too wide for a metric per accepted sample. Set-up is the
    pipeline prefix before sampling: load the case and the instance, solve
    the hour-1 base point and linearize it.
    """

    setup_repeats = 16
    COMBOS_PER_GEN = 1

    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        self.accepted_rows = 0
        self.factors = load_factors(seed, len(self.case.bus_ids))
        self.uc = self.uc.window(0, self.uc.T, self.factors)
        layers.watch_candidates(self.tracer, mods["data_factory"])

    def setup(self):
        net, inst = self.load()
        inst = _hours(inst, list(range(inst.horizon)), self.factors)
        self.base_point(net, inst)
        self.candidates = inst.horizon * (1 + self.COMBOS_PER_GEN * inst.ngen)
        return {"net": net, "inst": inst}

    def round(self, state, k):
        df = self.m["data_factory"]
        first = len(self.tracer.spans)
        cfg = df.SamplerConfig(combos_per_gen=self.COMBOS_PER_GEN)
        try:
            ds = df.collect_dataset(state["net"], state["inst"], cfg,
                                    seed=k)
        except Exception as exc:  # checked below as a failed round
            ds = exc
        outcomes = [layers.outcome(span) for span in self.tracer.spans[first:]
                    if span.name == "data_factory.candidate"]
        return {"round": k, "dataset": ds, "outcomes": outcomes}

    def result_s(self, walls):
        """Wall seconds per accepted sample, over the whole timed phase."""
        if self.accepted_rows == 0:
            raise RuntimeError("no sampling candidate was accepted")
        return sum(walls) / self.accepted_rows

    def check_round(self, state, rec):
        """One operation per candidate. A rejected candidate is a designed
        outcome; a candidate fails when its round raised, when the
        outcome tally does not add up, or when its accepted row is wrong."""
        case, uc, total = self.case, self.uc, self.candidates
        n = len(case.bus_ids)
        no_unit = sorted(set(range(n)) - {g["bus"] for g in case.gens})
        ds, out = rec["dataset"], rec["outcomes"]
        if isinstance(ds, Exception):
            _report(self.failures, f"round {rec['round']}", ds)
            return total, total
        rejected = sum(1 for o in out if o in ("InfeasibleError", "ConvergenceError"))
        if not (len(out) == total and out.count("accepted") == ds.size
                and ds.size + rejected == total):
            self.failures.append(f"round {rec['round']}: outcome tally {out}")
            return total, total
        self.accepted_rows += ds.size
        failed = 0
        for i in range(ds.size):
            try:
                x, y = ds.X[i], ds.Y[i]
                v = x[:n]
                theta = np.insert(x[n:], case.ref, 0.0)
                p, q, sf, st = checks.power_flow(case, v, theta)
                y2 = np.concatenate([p, q, np.abs(sf), np.abs(st)])
                require(np.max(np.abs(y2 - y)) <= checks.FLOW_TOL,
                        "row is not the power flow of its input")
                checks.check_limits(case, v, theta, "row")
                hour = ds.meta[i]["hour"]
                require(np.max(np.abs(p[no_unit] + uc.pd[no_unit, hour]))
                        <= checks.BALANCE_TOL
                        and np.max(np.abs(q[no_unit] + uc.qd[no_unit, hour]))
                        <= checks.BALANCE_TOL,
                        "injection at a bus without units is not the load")
            except CheckFailed as exc:
                _report(self.failures, f"round {rec['round']} row {i}", exc)
                failed += 1
        return total, failed


# ---------------------------------------------------------------------------
# audit24: the 24-hour multi-period oracle, few huge LPs
# ---------------------------------------------------------------------------

class Audit24(Workload):
    """``mtp_acopf_check`` on the 24-hour all-committed schedule at base load.

    Set-up solves DC-UC on uc14.json, which returns that schedule (NN- and
    L-UC return it too). A round is one oracle call; it yields two checked
    outputs: the dispatch with its 24 points, and the objective. The inputs
    do not depend on the seed: seeded load schemes move the SLP from 35 to
    60 major iterations, too wide for one call per run.
    """

    setup_repeats = 40

    def setup(self):
        net, inst = self.load()
        ucb, slv = self.m["uc_builder"], self.m["milp_solve"]
        milp, ucv = ucb.build_dc_uc(inst, net)
        sol = slv.solve_milp(milp, gap_target=0.01)
        sched = ucb.extract_schedule(milp, sol, inst, ucv, net=net)
        if not np.all(sched.y == 1):
            raise RuntimeError("DC-UC at base load did not commit every unit")
        return {"net": net, "inst": inst, "sched": sched}

    def round(self, state, k):
        try:
            return self.m["ac_solver"].mtp_acopf_check(
                state["net"], state["inst"], state["sched"])
        except Exception as exc:  # checked below as a failed call
            return exc

    def check_round(self, state, rep):
        case, uc = self.case, self.uc
        y = state["sched"].y
        if isinstance(rep, Exception):
            _report(self.failures, "oracle call", rep)
            return 2, 2
        try:
            require(rep.verdict == "feasible", f"verdict {rep.verdict}")
            checks.check_dispatch(uc, y, rep.p_delta, rep.reserve_r, rep.q,
                                  "oracle dispatch")
            for t, pt in enumerate(rep.points):
                checks.check_balance(case, uc, t, pt.v, pt.theta, y,
                                     rep.p_delta, rep.q, "oracle point")
                checks.check_limits(case, pt.v, pt.theta, f"oracle hour {t}")
        except CheckFailed as exc:
            _report(self.failures, "oracle dispatch", exc)
            return 2, 2
        cost = checks.production_cost(uc, rep.p_delta) + checks.commitment_cost(uc, y)
        if not checks.close(rep.objective, cost):
            self.failures.append(f"oracle objective {rep.objective!r} but the "
                                 f"schedule costs {cost!r}")
            return 2, 1
        return 2, 0


# ---------------------------------------------------------------------------
# uc_milp: branch-and-bound on the three UC formulations
# ---------------------------------------------------------------------------

class UCMilp(Workload):
    """MILP-mode bound tightening, then NN-, L- and DC-UC on three horizon
    slices of uc14.json under a seeded per-bus load scheme.

    Set-up trains the surrogate: a dataset from four fixed hours, the
    base-point linearization, ``train_compact`` (rho=8), interval and LP
    bounds and ``prune``. The surrogate does not depend on the seed: with a
    seeded training set it kept 1 to 5 free ReLUs and one NN-UC solve took
    from 0.1 s to 60 s, between seeds. A round is the whole timed phase:
    ``tighten_bounds(mode="milp")`` and, for each slice and formulation,
    build, ``solve_milp`` to a 1% gap and ``extract_schedule``.
    """

    setup_repeats = 2
    TRAIN_HOURS = [0, 6, 12, 18]
    TRAIN_SEED = 1
    TRAIN_STEPS = 10000
    RHO = 8
    SLICES = [(8, 8), (12, 4), (16, 6)]     # (hours, first hour)
    GAP = 0.01
    FORMULATIONS = ("nn", "linear", "dc")

    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        self.factors = load_factors(seed, len(self.case.bus_ids))
        self.ref_models = {}     # (slice, formulation) -> model of round 0
        self.pending = []        # outputs awaiting the HiGHS comparisons

    def setup(self):
        m = self.m
        net, inst = self.load()
        lin = self.base_point(net, inst)
        df, pwl, enc = m["data_factory"], m["pwl_learner"], m["milp_encode"]
        ds = df.collect_dataset(net, _hours(inst, self.TRAIN_HOURS),
                                df.SamplerConfig(combos_per_gen=1),
                                seed=self.TRAIN_SEED)
        X, Y = ds.train
        model = pwl.train_compact(X, Y, lin, self.RHO,
                                  pwl.TrainConfig(steps=self.TRAIN_STEPS,
                                                  seed=self.TRAIN_SEED))
        box = enc.bound_box_from_network(net, inst)
        start = enc.tighten_bounds(model, box, mode="lp",
                                   start=enc.interval_bounds(model, box))
        return {"net": net, "inst": inst, "lin": lin, "model": model,
                "box": box, "lp_bounds": start,
                "bounds": enc.prune(model, start),
                "slices": [_hours(inst, list(range(s, s + T)), self.factors)
                           for T, s in self.SLICES]}

    def round(self, state, k):
        m = self.m
        enc, ucb, slv = m["milp_encode"], m["uc_builder"], m["milp_solve"]
        model, net, box = state["model"], state["net"], state["box"]
        try:
            tight = enc.tighten_bounds(model, box, mode="milp",
                                       start=state["lp_bounds"])
            bounds = enc.prune(model, tight)
        except Exception as exc:  # checked below as a failed operation
            return {"tight": exc, "solves": []}
        solves = []
        for i, sub in enumerate(state["slices"]):
            for f in self.FORMULATIONS:
                try:
                    if f == "nn":
                        milp, ucv = ucb.build_nn_ac_uc(sub, net, model, bounds, box=box)
                    elif f == "linear":
                        milp, ucv = ucb.build_l_ac_uc(sub, net, state["lin"], box=box)
                    else:
                        milp, ucv = ucb.build_dc_uc(sub, net)
                    sol = slv.solve_milp(milp, gap_target=self.GAP)
                    sched = ucb.extract_schedule(milp, sol, sub, ucv, net=net)
                    solves.append((i, f, milp, sol, sched))
                except Exception as exc:  # checked below
                    solves.append((i, f, None, None, exc))
        return {"tight": tight, "free": bounds.free_count(), "solves": solves}

    def _fragment_extremes(self, state):
        """HiGHS min and max of every pre-activation over the fragment the
        tightening optimizes over."""
        frag_milp, frag = self.m["milp_encode"].standalone_fragment(
            state["model"], state["lp_bounds"], state["box"])
        lo, hi = [], []
        for i in frag.zhat:
            out = []
            for sign in (1.0, -1.0):
                frag_milp.obj = {i: sign}
                frag_milp.obj_constant = 0.0
                best, _ = checks.highs_reference(frag_milp, rel_gap=0.0)
                out.append(sign * best)
            lo.append(out[0])
            hi.append(out[1])
        return np.array(lo), np.array(hi)

    def _check_solve(self, i, milp, sol, sched):
        require(sol.status in ("optimal", "gap_reached"), f"status {sol.status}")
        checks.check_milp_point(milp, sol.x, sol.objective, "incumbent")
        T, s = self.SLICES[i]
        uc = self.uc.window(s, T, self.factors)
        cost = checks.production_cost(uc, sched.p_delta) + checks.commitment_cost(uc, sched.y)
        require(checks.close(sched.objective, cost),
                f"objective {sched.objective!r} but the schedule costs {cost!r}")
        u, w = checks.transitions(uc, sched.y)
        require(np.array_equal(u, sched.u) and np.array_equal(w, sched.w),
                "startups and shutdowns do not follow the commitments")

    def check_round(self, state, rec):
        """One operation for the tightening and one per (slice,
        formulation) solve. Comparisons with HiGHS wait for ``finish``,
        so that HiGHS does not count in the peak memory."""
        per_round = 1 + len(self.SLICES) * len(self.FORMULATIONS)
        tight = rec["tight"]
        if isinstance(tight, Exception):
            _report(self.failures, "tightening", tight)
            return per_round, per_round
        failed = 0
        start, tol = state["lp_bounds"], checks.ROW_TOL
        if np.all(tight.m_min >= start.m_min - tol) and np.all(tight.m_max <= start.m_max + tol):
            self.pending.append(("bounds", tight))
        else:
            self.failures.append("MILP-mode bounds are not nested in their LP-mode start")
            failed += 1
        for i, f, milp, sol, sched in rec["solves"]:
            try:
                if isinstance(sched, Exception):
                    raise CheckFailed(f"{type(sched).__name__}: {sched}")
                self._check_solve(i, milp, sol, sched)
            except CheckFailed as exc:
                _report(self.failures, f"slice {i} {f}", exc)
                failed += 1
                continue
            self.ref_models.setdefault((i, f), milp)
            self.pending.append(((i, f), sol.objective))
        return per_round, failed

    def finish(self, state):
        """MILP-mode bounds are no tighter than the HiGHS extremes of each
        pre-activation; incumbents are within the gap of the HiGHS optimum
        of their model, which is the same in every round."""
        lo, hi = self._fragment_extremes(state)
        refs = {key: checks.highs_reference(milp)
                for key, milp in self.ref_models.items()}
        tol = checks.ROW_TOL
        failed = 0
        for key, out in self.pending:
            if key == "bounds":
                ok = np.all(out.m_min <= lo + tol) and np.all(out.m_max >= hi - tol)
                why = "a MILP-mode bound is tighter than the HiGHS optimum"
            else:
                best, bound = refs[key]
                ok = (out >= bound - checks.COST_RTOL * abs(bound)
                      and out - best <= self.GAP * abs(out) + checks.COST_RTOL * abs(best))
                why = (f"{key}: objective {out!r} not within the gap of the "
                       f"HiGHS optimum {best!r} (lower bound {bound!r})")
            if not ok:
                self.failures.append(why)
                failed += 1
        return failed


WORKLOADS = {"sample": Sample, "audit24": Audit24, "uc_milp": UCMilp}

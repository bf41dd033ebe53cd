"""Identity fingerprint of the compactpf pipeline.

    python3 tools/fingerprint.py [--src DIR]

Runs a fixed, seeded slice of the pipeline on case14 (thermal limits
derated to 30%) and prints one JSON object of SHA-256 digests (their first
16 hex digits) and counts:

- ``collect_dataset`` on the 4-hour instance and ``verify_dataset``;
- ``train_compact`` on that dataset (the model's JSON);
- ``big_m_bounds`` in every bound mode;
- ``export_mps`` of NN-, L- and DC-UC on the 4-hour instance;
- the 4-hour oracle on each formulation's schedule, with the surrogate
  flow errors, and the 24-hour oracle on the DC-UC schedule: verdict,
  iterations, the objective as a float hex, dispatch and points;
- per stage, the LPs and MIPs of each layer: their number, and one digest
  of every call's inputs and solution, in call order per HiGHS instance
  (a 4-hour UC stage holds the model's build, whose NN-UC per-hour bound
  LPs run there, and its solve).

The object also holds ``figures``: the values behind the digests, as
plain numbers, so that a change which moves them can be read off without
re-running either side. These are the dataset's size and rejections by
reason, the test L1 error of the NN and of the linear model, the free
ReLUs per bound mode, each 4-hour formulation's UC status, objective and
commitment ``y`` (units by hours, as integers), the 4-hour NN-UC's binary
ReLU columns (its free ReLU-hours after the per-hour bound pass), each
oracle's verdict, iterations and objective, and the NN and linear UCs'
``err_ft``/``err_tf``.

Equal objects from two checkouts mean these outputs, and the LPs behind
them, are the same bit for bit; the same checkout run twice must print the
same object. ``--src`` is the ``src`` directory of the checkout to
fingerprint (default: this one's), so one script fingerprints both sides
of a change.
"""

import argparse
import hashlib
import importlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

DERATE = 0.30
SEED = 1
RHO = 6
TRAIN_STEPS = 3000
GAP = 0.01


def _bytes(item):
    if isinstance(item, np.ndarray):
        item = np.ascontiguousarray(item)
        return f"{item.dtype}{item.shape}".encode() + item.tobytes()
    if isinstance(item, float):
        return float.hex(item).encode()
    if isinstance(item, (list, tuple)):
        return b"[" + b",".join(_bytes(i) for i in item) + b"]"
    return repr(item).encode()


def digest(*items):
    h = hashlib.sha256()
    for item in items:
        h.update(_bytes(item))
    return h.hexdigest()[:16]


class LPLog:
    """Counts and digests every LP and MIP call, by stage and layer: the
    ``linprog`` of ``ac_solver`` (the SLP) and of ``milp_solve``, and
    ``milp_solve.mip``. A MIP's time limit depends on the clock, so it is
    left out of the digest.

    The LPs of one HiGHS instance (``linprog``'s last argument) are hashed
    in call order, and each MIP is a sequence of its own. A layer's digest
    is the digest of its sorted sequence digests, so it does not depend on
    how the sampler's threads interleave their instances. Each instance is
    kept until its stage ends, so that no id is reused within a stage."""

    def __init__(self, ac_solver, milp_solve):
        self.stages = {}
        self._stage = None
        self._wrap(ac_solver, "linprog", "ac_solver.lp")
        self._wrap(milp_solve, "linprog", "milp_solve.lp")
        self._wrap(milp_solve, "mip", "milp_solve.mip")

    def _wrap(self, module, attr, layer):
        original = getattr(module, attr)
        log = self

        def recorded(c, A, lo, hi, lb, ub, *rest):
            res = original(c, A, lo, hi, lb, ub, *rest)
            if layer == "milp_solve.mip":
                # the binaries as HiGHS reads them, whatever their Python
                # form (a list of ints or of numpy ints, or an array)
                owner = object()
                key = (np.asarray(rest[0], np.int64), rest[1])
            else:
                owner, key = rest[-1], ()
            call = digest(c, A.data, A.indices, A.indptr, A.shape, lo, hi,
                          lb, ub, key, tuple(res))
            per = log.stages[log._stage].setdefault(layer, {})
            per.setdefault(id(owner), (owner, []))[1].append(call)
            return res

        setattr(module, attr, recorded)

    @contextmanager
    def stage(self, name):
        self.stages[name] = {}
        self._stage = name
        try:
            yield
        finally:
            self._stage = None
            self.stages[name] = {
                layer: {"calls": sum(len(calls) for _, calls in per.values()),
                        "digest": digest(sorted(digest(calls) for _, calls
                                                in per.values()))}
                for layer, per in self.stages[name].items()}


def _report(rep):
    """The fields of an oracle FeasibilityReport."""
    points = [] if rep.points is None else rep.points
    return {
        "verdict": rep.verdict,
        "iterations": rep.iterations,
        "objective": float.hex(float(rep.objective)),
        "max_violation": float.hex(float(rep.max_violation)),
        "dispatch": digest(rep.p_delta, rep.reserve_r, rep.q),
        "points": digest([[getattr(pt, f) for f in (
            "v", "theta", "p_inj", "q_inj", "p_ft", "q_ft", "p_tf", "q_tf",
            "s_ft", "s_tf")] for pt in points]),
        "periods": len(points),
    }


def _oracle_figures(rep):
    """An oracle FeasibilityReport's verdict, iterations and objective."""
    return {"verdict": rep.verdict, "iterations": rep.iterations,
            "objective": float(rep.objective)}


def fingerprint(src):
    sys.path.insert(0, str(src))
    m = {name: importlib.import_module(f"compactpf.{name}") for name in (
        "case_ingest", "grid_model", "ac_solver", "data_factory",
        "pwl_learner", "milp_encode", "milp_solve", "uc_builder", "harness")}
    ci, hv = m["case_ingest"], m["harness"]
    df, pwl, slv, ucb = (m["data_factory"], m["pwl_learner"],
                         m["milp_solve"], m["uc_builder"])
    data = Path(src) / "compactpf" / "data"
    lps = LPLog(m["ac_solver"], slv)
    out = {}
    figures = out["figures"] = {}

    case, net, inst4 = hv.load_system(data / "case14.m",
                                      data / "uc14_t4.json", DERATE)
    inst24 = ci.load_uc_instance((data / "uc14.json").read_text(), case)

    with lps.stage("base_linearization"):
        lin = hv.base_linearization(net, inst4)
    out["base_linearization"] = digest(lin.Jstar, lin.rstar, lin.x0)

    with lps.stage("collect_dataset"):
        ds = df.collect_dataset(net, inst4, df.SamplerConfig(combos_per_gen=1),
                                seed=SEED)
    out["collect_dataset"] = {
        "samples": ds.size,
        "rejected": ds.rejected,
        "digest": digest(ds.X, ds.Y, list(ds.split), repr(ds.meta)),
        "verify_dataset": float.hex(df.verify_dataset(net, ds)),
    }
    figures["dataset"] = {"samples": ds.size, "rejected": ds.rejected}

    with lps.stage("train_compact"):
        cfg = pwl.TrainConfig(steps=TRAIN_STEPS, seed=SEED)
        model = pwl.train_compact(*ds.train, lin, RHO, cfg)
    out["train_compact"] = digest(pwl.model_to_json(model))
    l1 = pwl.evaluate_model(model, *ds.test)
    figures["test_l1"] = {"nn": l1.mean_compact, "linear": l1.mean_linear}

    box = m["milp_encode"].bound_box_from_network(net, inst4)
    out["big_m_bounds"] = {}
    figures["free_relus"] = {}
    bounds = {}
    for mode in hv.BOUND_MODES:
        with lps.stage(f"big_m_bounds.{mode}"):
            b = bounds[mode] = hv.big_m_bounds(model, box, mode)
        out["big_m_bounds"][mode] = {
            "free": b.free_count(),
            "digest": digest(b.m_min, b.m_max, b.status, b.provenance)}
        figures["free_relus"][mode] = b.free_count()

    prep = {"net": net, "lin": lin, "model": model, "box": box,
            "bounds": bounds["lp"]}
    out["export_mps"], out["oracle_4h"] = {}, {}
    figures["uc_4h"], figures["oracle_4h"] = {}, {}
    for f in hv.FORMULATIONS:
        with lps.stage(f"uc_4h.{f}"):
            milp, ucv = hv.build_formulation(f, inst4, prep)
            sol = slv.solve_milp(milp, gap_target=GAP)
            sched = ucb.extract_schedule(milp, sol, inst4, ucv, net=net)
        text = slv.export_mps(milp)
        out["export_mps"][f] = {"lines": text.count("\n"),
                                "digest": digest(text)}
        with lps.stage(f"oracle_4h.{f}"):
            rep = m["ac_solver"].mtp_acopf_check(net, inst4, sched)
        out["oracle_4h"][f] = {"uc_objective": float.hex(sched.objective),
                               "commitment": digest(sched.y),
                               **_report(rep)}
        figures["uc_4h"][f] = {"status": sol.status,
                               "objective": sched.objective,
                               "commitment": sched.y.tolist()}
        if f == "nn":
            # one binary per free ReLU-hour left by the per-hour pass
            figures["uc_4h"][f]["relu_binaries"] = sum(
                binary and ".beta[" in name for name, binary
                in zip(milp.names, milp.binary.tolist()))
        figures["oracle_4h"][f] = _oracle_figures(rep)
        if f != "dc" and rep.verdict == "feasible":
            err = hv._flow_errors(f, prep, sched)
            out["oracle_4h"][f]["flow_errors"] = [float.hex(e) for e in err]
            figures["oracle_4h"][f].update(zip(("err_ft", "err_tf"), err))

    with lps.stage("uc_24h.dc"):
        milp, ucv = ucb.build_dc_uc(inst24, net)
        sol = slv.solve_milp(milp, gap_target=GAP)
        sched = ucb.extract_schedule(milp, sol, inst24, ucv, net=net)
    with lps.stage("oracle_24h.dc"):
        rep = m["ac_solver"].mtp_acopf_check(net, inst24, sched)
    out["oracle_24h"] = {"commitment": digest(sched.y), **_report(rep)}
    figures["oracle_24h"] = _oracle_figures(rep)

    out["lps"] = lps.stages
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parent.parent / "src",
                    help="the src directory of the checkout to fingerprint")
    args = ap.parse_args(argv)
    print(json.dumps(fingerprint(args.src.resolve()), indent=1,
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

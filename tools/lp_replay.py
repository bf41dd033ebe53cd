"""Replay the AC oracle's LPs under HiGHS's default options and the SLP's.

    python3 tools/lp_replay.py [--hours H] [--repeats N]

Solves DC-UC on the first H hours (default 24) of uc14.json over case14
(thermal limits derated to 30%), which commits every unit, and records
the LPs of one ``mtp_acopf_check`` call on that schedule by wrapping
``ac_solver.linprog``. Each SLP instance's LPs are then replayed in call
order on a fresh instance under three option sets:

- ``default``: HiGHS's defaults (``HighsInstance()``: dual steepest edge,
  scaled model);
- ``devex``: Devex pricing alone, on the scaled model;
- ``slp``: the SLP's own options (``HighsInstance.slp()``: Devex pricing,
  unscaled model).

Each set starts every LP from the basis its own last solve left, as the
SLP does.

It prints one JSON object with a part for the cold LPs (each instance's
first) and one for the warm LPs (the rest). Each part gives the number of
LPs and, per option set, the seconds spent inside HiGHS's ``run`` (the
median over ``--repeats`` replays), the simplex iterations, the number of
LPs whose status differs from the defaults' and the largest objective
difference from the defaults', relative to max(|objective|, 1). The exit
code is 1 when any status differs or an objective difference exceeds
``OBJ_RTOL``, else 0.
"""

import argparse
import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from compactpf import (ac_solver, harness, highs,  # noqa: E402
                       milp_solve, uc_builder)
from compactpf.highs import HighsInstance  # noqa: E402

DERATE = 0.30
GAP = 0.01
# every option set solves the same LP to the same optimum; the objectives
# may differ only by rounding in the last digits of the basis solves
OBJ_RTOL = 1e-9


class _TimedHighs:
    """A HiGHS object whose ``run`` calls are timed; every other attribute
    is the wrapped object's."""

    def __init__(self, h):
        self._highs = h
        self.run_s = 0.0

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def run(self):
        t0 = time.perf_counter()
        try:
            return self._highs.run()
        finally:
            self.run_s += time.perf_counter() - t0


def record_oracle_lps(hours):
    """The LPs of one oracle call on the DC-UC schedule of the first
    ``hours`` hours of uc14.json: a list of per-instance LP lists, each LP
    the (c, A, lo, hi, lb, ub) passed to ``ac_solver.linprog``."""
    data = SRC / "compactpf" / "data"
    _, net, inst = harness.load_system(data / "case14.m", data / "uc14.json",
                                       DERATE)
    if not 1 <= hours <= inst.horizon:
        raise SystemExit(f"--hours must lie in 1..{inst.horizon}")
    inst = replace(inst, horizon=hours, pd=inst.pd[:, :hours],
                   qd=inst.qd[:, :hours], reserve=inst.reserve[:hours])
    milp, ucv = uc_builder.build_dc_uc(inst, net)
    sol = milp_solve.solve_milp(milp, gap_target=GAP)
    sched = uc_builder.extract_schedule(milp, sol, inst, ucv, net=net)

    per_instance = {}
    original = ac_solver.linprog

    def recorded(c, A, lo, hi, lb, ub, inst):
        per_instance.setdefault(id(inst), (inst, []))[1].append(
            (c, A, lo, hi, lb, ub))
        return original(c, A, lo, hi, lb, ub, inst)

    ac_solver.linprog = recorded
    try:
        rep = ac_solver.mtp_acopf_check(net, inst, sched)
    finally:
        ac_solver.linprog = original
    return [lps for _, lps in per_instance.values()], rep


def _devex():
    """A default instance but for Devex pricing: the SLP's options less
    the unscaled model."""
    inst = HighsInstance()
    inst.highs.setOptionValue("simplex_dual_edge_weight_strategy",
                              highs._DEVEX)
    return inst


def replay(sequences, make_instance):
    """Solve every sequence on a fresh instance from ``make_instance``.
    Returns one (cold, status, objective, iterations, run seconds) per LP."""
    out = []
    for lps in sequences:
        inst = make_instance()
        timed = inst.highs = _TimedHighs(inst.highs)
        for k, lp in enumerate(lps):
            before = timed.run_s
            res = highs.linprog(*lp, inst)
            out.append((k == 0, res.status, res.fun,
                        timed.getInfo().simplex_iteration_count,
                        timed.run_s - before))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--hours", type=int, default=24,
                    help="hours of uc14.json the oracle audits")
    ap.add_argument("--repeats", type=int, default=5,
                    help="replays per option set; seconds are their median")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    sequences, rep = record_oracle_lps(args.hours)
    option_sets = {"default": HighsInstance, "devex": _devex,
                   "slp": HighsInstance.slp}
    runs = {name: [] for name in option_sets}
    for r in range(args.repeats):
        # rotate which set goes first, against drift in the machine
        names = list(option_sets)
        names = names[r % len(names):] + names[:r % len(names)]
        for name in names:
            runs[name].append(replay(sequences, option_sets[name]))

    first = {name: rr[0] for name, rr in runs.items()}
    base = first["default"]
    doc = {"hours": args.hours, "oracle_verdict": rep.verdict,
           "oracle_iterations": rep.iterations, "repeats": args.repeats}
    failed = False
    for part, cold in (("cold", True), ("warm", False)):
        idx = [i for i, lp in enumerate(base) if lp[0] == cold]
        entry = {"lps": len(idx)}
        for name, rr in runs.items():
            b = first[name]
            differs = sum(1 for i in idx if base[i][1] != b[i][1])
            diff = max((abs(base[i][2] - b[i][2])
                        / max(abs(base[i][2]), abs(b[i][2]), 1.0)
                        for i in idx if base[i][1] == b[i][1] == 0),
                       default=0.0)
            entry[name] = {
                "highs_s": round(statistics.median(
                    sum(run[i][4] for i in idx) for run in rr), 4),
                "iterations": sum(b[i][3] for i in idx),
                "status_differs": differs,
                "max_obj_rel_diff": diff,
            }
            failed |= differs > 0 or diff > OBJ_RTOL
        doc[part] = entry
    print(json.dumps(doc, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

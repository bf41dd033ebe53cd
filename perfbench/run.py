"""Benchmark of the compactpf pipeline: one workload per run.

    python3 perfbench/run.py --workload sample --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times half its set-up repetitions, runs whole
rounds of the workload's operations while the next round should end within
``--seconds``, times the other half of the set-ups, checks every output
and prints the end-to-end metrics. With ``--trace 1`` it runs
set-up and one round untraced, then again with every layer wrapped, and
prints the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object; failed checks are listed on stderr.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from workloads import WORKLOADS, import_program  # noqa: E402


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def untraced_run(wl, seconds):
    # half the set-ups run before the timed phase and half after it, so
    # that their median spans the machine's speed swings over the run
    before = (wl.setup_repeats + 1) // 2
    setups = []
    for _ in range(before):
        state, dt = timed(wl.setup)
        setups.append(dt)
    walls = []
    attempted = failed = 0
    # whole rounds only: start another while it should end within the run
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        rec, dt = timed(wl.round, state, len(walls))
        walls.append(dt)
        a, f = wl.check_round(state, rec)
        attempted, failed = attempted + a, failed + f
        del rec
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(wl.setup_repeats - before):
        setups.append(timed(wl.setup)[1])
    failed += wl.finish(state)
    metrics = {
        "result_s": (wl.result_s(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return attempted, failed, metrics, {"rounds": walls, "setups": setups}


def traced_run(wl, mods):
    wl.setup()                       # warm lazy imports before comparing
    state, su = timed(wl.setup)
    rec, ru = timed(wl.round, state, 0)
    attempted, failed = wl.check_round(state, rec)
    del rec
    tracer = wl.tracer
    tracer.spans.clear()             # keep only the traced set-up and round
    layers.install(tracer, mods)
    try:
        state_t, st = timed(wl.setup)
        rec, rt = timed(wl.round, state_t, 0)
    finally:
        tracer.remove()
    a, f = wl.check_round(state_t, rec)
    failed += f + wl.finish(state_t)
    metrics = layers.layer_metrics(tracer)
    metrics["trace.overhead_s"] = ((st + rt) - (su + ru), "s")
    return attempted + a, failed, metrics, {"untraced_s": su + ru,
                                            "traced_s": st + rt}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = import_program()
    wl = WORKLOADS[args.workload](mods, args.seed)
    if args.trace:
        attempted, failed, metrics, detail = traced_run(wl, mods)
    else:
        attempted, failed, metrics, detail = untraced_run(wl, args.seconds)
    for line in wl.failures[:20]:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}),
          file=sys.stderr)
    # a wrong output fails its operation and counts in "failed"; a check
    # that cannot be made (no HiGHS reference) ends the run with an error
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

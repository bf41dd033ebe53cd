"""Paired benchmark runs of a parent and a change, written as BENCH_<n>.json.

    python3 tools/pairs.py --parent DIR --change DIR --out BENCH_16.json \\
        --change-text "what the change does"

``--parent`` and ``--change`` are two git checkouts (worktrees or clones);
the parent's commit is read from its checkout. The command, run length and
workloads are read from the change checkout's ``BENCHMARK.json``; each run
executes in its own checkout.

Pair i of ``PAIRS`` runs every workload on seed ``FIRST_SEED + i``, once
on each side, back to back: the parent first on even pairs, the change
first on odd ones, and the workloads interleaved pair by pair. Each run's
last stdout line is its JSON result. For every end-to-end metric the file records both
sides' runs, medians and quartiles (numpy linear-interpolation percentiles
25/75), the pairs in which the change read lower, and the median change
(change median / parent median - 1); for every workload the operations
attempted and failed on each side. Then one traced round of each workload
on seed 1 records every per-layer metric of both sides, and last
``tools/fingerprint.py`` records each side's identity fingerprint and
whether the two are equal. The file is rewritten after every pair, so an
interrupted run keeps what it measured.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

SIDES = ("parent", "change")
PAIRS = 10
FIRST_SEED = 2


def run(checkout, command, workload, seed, seconds, trace=0):
    """One benchmark run in ``checkout``; its JSON result."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(runs):
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4)}


def summary(runs, metrics):
    """The per-metric comparison of the runs made so far."""
    out = {"pairs": len(runs["seeds"]), "seeds": runs["seeds"]}
    for name in metrics:
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        out[name] = {
            "parent": quartiles(p),
            "change": quartiles(c),
            "change_lower_in": sum(1 for a, b in zip(p, c) if b < a),
            "median_change": round(float(np.median(c) / np.median(p) - 1), 4),
            "parent_runs": [round(x, 4) for x in p],
            "change_runs": [round(x, 4) for x in c],
        }
    for side in SIDES:
        out[f"attempted_{side}"] = sum(r["attempted"] for r in runs[side])
        out[f"failed_{side}"] = sum(r["failed"] for r in runs[side])
    return out


def fingerprints(checkouts):
    """Each side's ``tools/fingerprint.py`` object, and whether they are
    equal."""
    script = Path(__file__).resolve().parent / "fingerprint.py"
    out = {}
    for side in SIDES:
        proc = subprocess.run(
            [sys.executable, str(script), "--src",
             str(checkouts[side] / "src")],
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"fingerprint of {checkouts[side]} exited "
                               f"{proc.returncode}: {proc.stderr[-2000:]}")
        out[side] = json.loads(proc.stdout)
    out["equal"] = out["parent"] == out["change"]
    return out


def commit_of(checkout):
    return subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--change-text", required=True,
                    help="one line saying what the change does")
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [e["name"] for e in bench["end_to_end"]]
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    # the CPUs this process may use; the sampler's thread count follows them
    usable = len(os.sched_getaffinity(0))
    doc = {
        "change": args.change_text,
        "parent_commit": commit_of(args.parent),
        "machine": (f"{os.cpu_count()}-core ({usable} usable) "
                    f"{platform.machine()} {platform.system()}, Python "
                    f"{platform.python_version()}, scipy {scipy.__version__}"),
        "command": " ".join(command) + " --workload W --seed N --seconds "
                   f"{seconds}",
        "method": (
            f"{PAIRS} pairs per workload on seeds {FIRST_SEED}-"
            f"{FIRST_SEED + PAIRS - 1}; each pair runs the parent "
            "and the change back to back, parent first on even pairs and "
            "change first on odd ones; the workloads are interleaved pair by "
            "pair. Quartiles are numpy linear-interpolation percentiles "
            "25/75 over the runs of a side. change_lower_in counts the pairs "
            "in which the change read lower; median_change is change median "
            "/ parent median - 1."),
        "workloads": {},
    }
    runs = {w: {"seeds": [], "parent": [], "change": []} for w in workloads}

    def write():
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for i in range(PAIRS):
        seed = FIRST_SEED + i
        for w in workloads:
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[w][side].append(
                    run(checkouts[side], command, w, seed, seconds))
            runs[w]["seeds"].append(seed)
            doc["workloads"][w] = summary(runs[w], metrics)
            r = doc["workloads"][w]["result_s"]
            print(f"pair {i} {w}: parent {r['parent_runs'][-1]} change "
                  f"{r['change_runs'][-1]}", file=sys.stderr, flush=True)
        write()

    doc["traced_seed1"] = {
        "command": " ".join(command) + " --workload W --seed 1 --seconds 1 "
                   "--trace 1"}
    for w in workloads:
        doc["traced_seed1"][w] = {
            side: {k: round(v["value"], 4) for k, v in
                   run(checkouts[side], command, w, 1, 1, trace=1)
                   ["metrics"].items()}
            for side in SIDES}
    write()
    doc["fingerprint"] = fingerprints(checkouts)
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())

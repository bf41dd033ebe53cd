"""Steadiness of the benchmark: run each workload on ten seeds, print
each end-to-end metric's median and quartiles, and say whether the spread
stays within the metric's bound and whether two sets of runs agree.

    python3 perfbench/steady.py             # seeds 1-10, every workload
    python3 perfbench/steady.py --sets 2    # two sets: seeds 1-10, 11-20

Every run lasts ``run_seconds`` of BENCHMARK.json. A metric's spread is
(Q3 - Q1) / median over the set's runs, with
``statistics.quantiles(values, n=4)``. Two sets agree when, for every
metric, the medians differ by at most the bound, as a share of the first,
and the share of failed operations is the same. Raw results go to
perfbench/.runs/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = wall
    return out


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def summarize(bench, runs):
    """Per-metric (median, q1, q3, spread, bound, ok) of one workload's runs."""
    rows = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
        ok = rel <= metric["bound"]
        rows[name] = (med, q1, q3, rel, metric["bound"], ok)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    results = {}
    for s in range(args.sets):
        for name in names:
            for seed in range(1 + s * SEEDS, 1 + (s + 1) * SEEDS):
                out = run_once(name, seed, seconds)
                results.setdefault(name, [[] for _ in range(args.sets)])[s].append(out)
                print(f"set {s + 1} {name} seed {seed}: wall {out['wall_s']:.1f} s "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in out["metrics"].items())
                      + f" failed {out['failed']}/{out['attempted']}"
                      + ("" if out["correct"] else " INCORRECT"), flush=True)

    runs_dir = HERE / ".runs"
    runs_dir.mkdir(exist_ok=True)
    (runs_dir / f"steady-{int(time.time())}.json").write_text(json.dumps(results))

    all_ok = True
    for name in names:
        sets = results[name]
        summaries = [summarize(bench, runs) for runs in sets]
        for s, rows in enumerate(summaries):
            print(f"\n{name} set {s + 1} ({len(sets[s])} runs)")
            for metric, (med, q1, q3, rel, bound, ok) in rows.items():
                all_ok &= ok
                print(f"  {metric:12s} median {med:11.5g}  Q1 {q1:11.5g}  Q3 {q3:11.5g}"
                      f"  spread {rel:6.3f}  bound {bound:5.2f}  "
                      f"{'ok' if ok else 'TOO WIDE'}"
                      + ("" if rel <= bound / 3 else "  (above a third of the bound)"))
            shares = {r["failed"] / r["attempted"] for r in sets[s]}
            print(f"  failed share {sorted(shares)}"
                  + ("" if all(r["correct"] for r in sets[s]) else "  INCORRECT RUNS"))
        if len(summaries) == 2:
            shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
            same = len(shares[0] | shares[1]) == 1
            all_ok &= same
            print(f"  two sets: failed share {'same' if same else 'DIFFERS'}")
            for metric, bound in ((m["name"], m["bound"]) for m in bench["end_to_end"]):
                first, second = summaries[0][metric][0], summaries[1][metric][0]
                moved = (second - first) / first
                ok = abs(moved) <= bound
                all_ok &= ok
                print(f"  two sets: {metric:12s} second median moved by {moved:+.3f}"
                      f" (bound {bound:.2f}) {'ok' if ok else 'DISAGREE'}")
    print("\nsteady" if all_ok else "\nNOT steady")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

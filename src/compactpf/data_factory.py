"""Feasible power-flow dataset generation and load-alteration schemes.

Samples come from solved AC-OPF problems (SLP engine) across the UC
instance's hours, generator-outage combinations, and randomly tightened
generator voltage bounds. Infeasible candidates are rejected, so every
emitted row is an exact power-flow solution that also satisfies the
engineering limits used while sampling.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace, field

import numpy as np

from .errors import ValidationError, ConvergenceError
from . import grid_model
from .ac_solver import InfeasibleError, make_dispatch_spec, slp_acopf
from .tolerances import DATASET_TOL

MAX_EXTRA_OFF = 3      # additional units turned off per outage draw
V_PUSH_MAX = 0.03      # p.u. tightening of generator voltage bounds
TEST_FRACTION = 0.2    # share of the samples held out as the test split
MAX_ALTERATION = 0.15  # load schemes scale loads within 1 +/- this
# candidates solved at once: HiGHS's run releases the GIL, the rest of a
# candidate holds it, so threads beyond two gain nothing
THREADS = min(2, len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


@dataclass
class SamplerConfig:
    combos_per_gen: int = 2      # outage draws per (hour, generator)
    min_samples: int = 1


@dataclass
class PFDataset:
    X: np.ndarray          # (samples, 2n-1)
    Y: np.ndarray          # (samples, 2n+2m)
    meta: list             # dicts: hour, off (tuple)
    split: np.ndarray      # array of "train"/"test"
    n: int
    m: int
    ref: int
    rejected: dict = field(default_factory=dict)  # candidates by reason

    @property
    def size(self):
        return self.X.shape[0]

    def subset(self, tag):
        sel = self.split == tag
        return self.X[sel], self.Y[sel]

    @property
    def train(self):
        return self.subset("train")

    @property
    def test(self):
        return self.subset("test")


@dataclass
class LoadScheme:
    kind: str               # uniform | per-bus-random | sinusoidal
    scale: float = 1.0      # uniform: multiplicative factor
    amplitude: float = 0.0  # sinusoidal
    spread: float = MAX_ALTERATION  # per-bus-random: factors in 1 +/- spread
    seed: int = 0

    def __post_init__(self):
        env = MAX_ALTERATION
        if self.kind not in ("uniform", "per-bus-random", "sinusoidal"):
            raise ValidationError(f"unknown load scheme {self.kind!r}")
        if self.kind == "uniform" and not 1.0 - env <= self.scale <= 1.0 + env:
            raise ValidationError(f"uniform scale outside 1 +/- {env}")
        if self.kind == "sinusoidal" and not 0.0 <= self.amplitude <= env:
            raise ValidationError(f"sinusoidal amplitude outside [0, {env}]")
        if self.kind == "per-bus-random" and not 0.0 <= self.spread <= env:
            raise ValidationError(f"per-bus spread outside [0, {env}]")


def apply_load_scheme(inst, scheme):
    """Scale the instance's loads; power factor at each bus is preserved
    exactly because PD and QD share the same factor."""
    n, T = inst.pd.shape
    if scheme.kind == "uniform":
        fac = np.full((n, T), scheme.scale)
    elif scheme.kind == "per-bus-random":
        rng = np.random.default_rng(scheme.seed)
        per_bus = 1.0 + rng.uniform(-scheme.spread, scheme.spread, size=n)
        fac = np.tile(per_bus[:, None], (1, T))
    else:  # sinusoidal daily cycle: hour t (1-based) -> 1 + a sin(2 pi t / 24)
        t = np.arange(1, T + 1)
        fac = np.tile(1.0 + scheme.amplitude * np.sin(2.0 * np.pi * t / 24.0),
                      (n, 1))
    return replace(inst, pd=inst.pd * fac, qd=inst.qd * fac)


def _pushed_network(net, inst, rng):
    """Tighten generator-bus voltage bounds by independent U[0, V_PUSH_MAX]
    draws, never crossing (keeps the box nonempty)."""
    vmin = net.vmin.copy()
    vmax = net.vmax.copy()
    buses = sorted({g.bus for g in inst.gens}
                   | {c.bus for c in inst.condensers})
    for b in buses:
        lo = rng.uniform(0.0, V_PUSH_MAX)
        hi = rng.uniform(0.0, V_PUSH_MAX)
        width = vmax[b] - vmin[b]
        lo = min(lo, 0.45 * width)
        hi = min(hi, 0.45 * width)
        vmin[b] += lo
        vmax[b] -= hi
    return replace(net, vmin=vmin, vmax=vmax)


def collect_dataset(net, inst, cfg, seed=0):
    """Generate feasible power-flow samples across hours and outage sets.

    Per hour: one all-on base solve, then for each generator a number of
    draws with that generator off plus up to ``MAX_EXTRA_OFF`` random
    additional units off, each with generator voltage bounds tightened by
    up to ``V_PUSH_MAX``. A ``TEST_FRACTION`` share of the samples forms
    the test split. Candidates
    whose AC-OPF is infeasible are rejected; the dataset keeps their count
    by reason in ``rejected``: "short_of_load" (the committed units cannot
    cover the load plus the least loss; screened before any LP),
    "infeasible" (the SLP's local verdict) and "no_solution" (the SLP's
    iteration budget ran out).

    Candidates are solved ``THREADS`` at a time (two, when the process may
    use two CPUs) on a thread pool: one candidate's HiGHS ``run``, which
    releases the GIL, overlaps the other's Python. Every random draw (the
    outage sets, then the voltage pushes) is made up front in task order,
    and outcomes are tallied in task order, so the dataset does not depend
    on scheduling, and the first candidate in task order that raises raises
    here (those not yet started are cancelled).
    """
    rng = np.random.default_rng(seed)
    G = inst.ngen
    rows_x, rows_y, meta = [], [], []
    rejected = {"infeasible": 0, "short_of_load": 0, "no_solution": 0}

    tasks = []
    for t in range(inst.horizon):
        tasks.append((t, (), False))
        for gi in range(G):
            for _ in range(cfg.combos_per_gen):
                others = [g for g in range(G) if g != gi]
                k = int(rng.integers(0, min(MAX_EXTRA_OFF, len(others)) + 1))
                extra = rng.choice(others, size=k, replace=False) if k else []
                off = tuple(sorted({gi, *map(int, extra)}))
                tasks.append((t, off, True))
    # the voltage pushes, drawn in task order after every outage set
    jobs = [(t, off, _pushed_network(net, inst, rng) if perturb else net)
            for t, off, perturb in tasks]

    def candidate(job):
        """The candidate's operating point, or why it was rejected."""
        t, off, net_s = job
        spec = make_dispatch_spec(net_s, inst, t, off=off)
        try:
            return slp_acopf(net_s, spec)[0]
        except InfeasibleError as err:
            return err.reason
        except ConvergenceError:
            return "no_solution"

    with ThreadPoolExecutor(THREADS) as pool:
        for (t, off, _), op in zip(jobs, pool.map(candidate, jobs)):
            if isinstance(op, str):
                rejected[op] += 1
                continue
            rows_x.append(grid_model.pack_input(op, net))
            rows_y.append(grid_model.pack_output(op))
            meta.append({"hour": t, "off": off})

    if len(rows_x) < cfg.min_samples:
        raise ValidationError(
            f"collected only {len(rows_x)} samples "
            f"(minimum {cfg.min_samples}); rejections: {rejected}")

    X = np.array(rows_x)
    Y = np.array(rows_y)
    order = np.random.default_rng(seed + 1).permutation(len(rows_x))
    n_test = int(round(TEST_FRACTION * len(rows_x)))
    split = np.array(["train"] * len(rows_x), dtype=object)
    split[order[:n_test]] = "test"
    return PFDataset(X=X, Y=Y, meta=meta, split=split,
                     n=net.n, m=net.m, ref=net.ref, rejected=rejected)


def verify_dataset(net, ds):
    """Re-evaluate every row through the exact power flow map, all rows in
    one stacked call, and return the worst packed-output mismatch; one
    above ``DATASET_TOL``, or a NaN, fails."""
    if ds.size == 0:
        return 0.0
    worst = float(np.max(np.abs(grid_model.eval_at_input(net, ds.X) - ds.Y)))
    if not worst <= DATASET_TOL:
        raise ValidationError(f"dataset inconsistent with power flow "
                              f"(worst mismatch {worst:.3e})")
    return worst


# ---------------------------------------------------------------------------
# Columnar text serialization
# ---------------------------------------------------------------------------

def dump_dataset(ds, path):
    with open(path, "w") as fh:
        fh.write("# pfdataset v1\n")
        fh.write(f"# n={ds.n} m={ds.m} ref={ds.ref} samples={ds.size} "
                 f"d_in={ds.X.shape[1]} d_out={ds.Y.shape[1]}\n")
        fh.write("# columns: split hour off x... y...\n")
        for i in range(ds.size):
            off = ",".join(str(g) for g in ds.meta[i]["off"]) or "-"
            vals = " ".join("%.17g" % v
                            for v in np.concatenate([ds.X[i], ds.Y[i]]))
            fh.write(f"{ds.split[i]} {ds.meta[i]['hour']} {off} {vals}\n")


def load_dataset(path):
    with open(path) as fh:
        lines = fh.readlines()
    if not lines or not lines[0].startswith("# pfdataset"):
        raise ValidationError(f"{path}: not a pfdataset file")
    hdr = dict(kv.split("=") for kv in lines[1].lstrip("# ").split())
    n, m, ref = int(hdr["n"]), int(hdr["m"]), int(hdr["ref"])
    d_in, d_out = int(hdr["d_in"]), int(hdr["d_out"])
    X, Y, meta, split = [], [], [], []
    for line in lines:
        if line.startswith("#") or not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3 + d_in + d_out:
            raise ValidationError(f"{path}: malformed dataset row")
        split.append(parts[0])
        off = () if parts[2] == "-" else tuple(int(g) for g in parts[2].split(","))
        meta.append({"hour": int(parts[1]), "off": off})
        vals = np.array([float(v) for v in parts[3:]])
        X.append(vals[:d_in])
        Y.append(vals[d_in:])
    ds = PFDataset(X=np.array(X), Y=np.array(Y), meta=meta,
                   split=np.array(split, dtype=object), n=n, m=m, ref=ref)
    if ds.size != int(hdr["samples"]):
        raise ValidationError(f"{path}: sample count mismatch")
    return ds

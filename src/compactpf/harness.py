"""End-to-end experiment harness: sample -> train -> bound -> build ->
solve -> verify, swept over load-alteration scenarios and formulations.

The pipeline stages are written here once: ``load_system``,
``base_linearization``, ``big_m_bounds`` and ``build_formulation``. Both
``prepare_models`` and the command-line interface run them.

Produces the feasibility tally (one row per formulation) and per-scenario
apparent-flow 1-norm error data comparing each UC model's predicted flows
against the flows realized by the MTP AC-OPF feasibility oracle.
"""

import csv
import io
import json
import logging
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import CompactPFError, ValidationError
from . import case_ingest, grid_model, jacobian
from .ac_solver import slp_acopf, mtp_acopf_check, make_dispatch_spec
from .data_factory import SamplerConfig, collect_dataset, apply_load_scheme
from .pwl_learner import TrainConfig, train_compact
from .milp_encode import bound_box_from_network, interval_bounds, \
    tighten_bounds, prune
from .milp_solve import solve_milp
from .uc_builder import build_nn_ac_uc, build_l_ac_uc, build_dc_uc, \
    extract_schedule

FORMULATIONS = ("nn", "linear", "dc")
# in chain order: each mode tightens the bounds of the one before it
BOUND_MODES = ("interval", "lp", "milp")
# "error": the cell raised something other than a CompactPFError, i.e. a
# fault in the program rather than an outcome of the model
VERDICTS = ("feasible", "infeasible", "no_solution", "error")
_log = logging.getLogger(__name__)


@dataclass
class ExperimentConfig:
    case_path: str
    uc_path: str
    sample_uc_path: str = None       # richer instance for sampling/training
    derate: float = 0.30
    rho: int = 8
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    schemes: tuple = ()              # LoadScheme per scenario; empty = base
    formulations: tuple = FORMULATIONS
    bound_mode: str = "lp"           # one of BOUND_MODES
    gap_target: float = 0.01
    time_budget: float = 600.0
    seed: int = 0

    def __post_init__(self):
        for f in self.formulations:
            if f not in FORMULATIONS:
                raise ValidationError(f"unknown formulation {f!r}")
        if self.bound_mode not in BOUND_MODES:
            raise ValidationError(f"unknown bound mode {self.bound_mode!r}")


@dataclass
class Cell:
    scenario: int
    scheme: str
    formulation: str
    uc_status: str
    verdict: str
    objective: float = float("nan")
    mtp_objective: float = float("nan")
    err_ft: float = float("nan")     # mean over periods of 1-norm over lines
    err_tf: float = float("nan")
    detail: str = ""


@dataclass
class ExperimentReport:
    cells: list
    tallies: dict          # formulation -> {verdict: count}
    scenario_count: int
    prep: dict             # pipeline metadata (sample counts, bounds, ...)

    def check_conservation(self):
        for f, tally in self.tallies.items():
            if sum(tally.values()) != self.scenario_count:
                raise ValidationError(f"tally for {f} does not conserve")


def load_system(case_path, uc_path, derate):
    """Parse a MATPOWER case, derate its thermal limits, and read a UC
    instance against it. Returns (case, net, inst)."""
    with open(case_path) as fh:
        case = case_ingest.parse_matpower(fh.read())
    case = case_ingest.derate_thermal_limits(case, derate)
    with open(uc_path) as fh:
        inst = case_ingest.load_uc_instance(fh.read(), case)
    return case, grid_model.build_network(case), inst


def base_linearization(net, inst):
    """Linear model at the min-cost AC-OPF point of hour 1 with every unit
    committed."""
    op0, _ = slp_acopf(net, make_dispatch_spec(net, inst, 0))
    return jacobian.linearize(net, op0)


def big_m_bounds(model, box, mode):
    """Interval bounds over the box, tightened along the chain of
    ``BOUND_MODES`` up to ``mode`` (interval, then LP, then MILP), then
    pruned. Each step optimizes only the ReLUs its start leaves free, so
    the MILP step solves MILPs only for what LP leaves open."""
    bounds = interval_bounds(model, box)
    for step in BOUND_MODES[1:BOUND_MODES.index(mode) + 1]:
        bounds = tighten_bounds(model, box, mode=step, start=bounds)
    return prune(model, bounds)


def prepare_models(cfg):
    """Shared pipeline prefix: parse, derate, sample, train, bound, prune.

    Returns a dict with the network, instance, linear model, compact model,
    and pruned bounds (reused across scenarios).
    """
    case, net, inst = load_system(cfg.case_path, cfg.uc_path, cfg.derate)

    # an optional richer instance (e.g. the full 24-hour profile) drives
    # sampling and training while scenarios run on the main instance
    inst_s = inst
    if cfg.sample_uc_path:
        with open(cfg.sample_uc_path) as fh:
            inst_s = case_ingest.load_uc_instance(fh.read(), case)

    lin = base_linearization(net, inst_s)
    ds = collect_dataset(net, inst_s, cfg.sampler, seed=cfg.seed)
    model = train_compact(*ds.train, lin, cfg.rho, cfg.train)

    box = bound_box_from_network(net, inst)
    return {"net": net, "inst": inst, "lin": lin, "model": model, "box": box,
            "bounds": big_m_bounds(model, box, cfg.bound_mode),
            "dataset": ds}


def build_formulation(formulation, inst, prep):
    """The UC MILP of one formulation over ``inst``: "nn" reads the net,
    model, bounds and box of ``prep``, "linear" its net, lin and box, and
    "dc" its net alone. Returns (MILPModel, UCVars)."""
    if formulation == "nn":
        return build_nn_ac_uc(inst, prep["net"], prep["model"],
                              prep["bounds"], box=prep["box"])
    if formulation == "linear":
        return build_l_ac_uc(inst, prep["net"], prep["lin"], box=prep["box"])
    return build_dc_uc(inst, prep["net"])


def _flow_errors(formulation, prep, sched):
    """Apparent-flow 1-norm error of the UC model at its own solution.

    Predicted flows come from the formulation's surrogate at the solved
    (v, theta); actual flows are the exact AC evaluation at that same
    point, so the metric isolates surrogate fidelity from re-dispatch.
    """
    net = prep["net"]
    n, m = net.n, net.m
    predictor = prep["model"].predict if formulation == "nn" \
        else prep["lin"].predict
    op = grid_model.eval_power_flow(net, sched.v, sched.theta)
    eft, etf = [], []
    for t in range(sched.v.shape[0]):
        x = np.concatenate([sched.v[t], np.delete(sched.theta[t], net.ref)])
        y = predictor(x)
        eft.append(float(np.sum(np.abs(y[2 * n:2 * n + m] - op.s_ft[t]))))
        etf.append(float(np.sum(np.abs(y[2 * n + m:] - op.s_tf[t]))))
    return float(np.mean(eft)), float(np.mean(etf))


def run_scenario_cell(cfg, prep, inst_s, formulation):
    """One (scenario, formulation) solve + verification; never raises."""
    try:
        milp, ucv = build_formulation(formulation, inst_s, prep)
        sol = solve_milp(milp, gap_target=cfg.gap_target,
                         time_budget=cfg.time_budget)
        if sol.status == "infeasible":
            return "infeasible", "no_solution", {}, ""
        if sol.x is None:
            return sol.status, "no_solution", {}, "no incumbent"
        sched = extract_schedule(milp, sol, inst_s, ucv, net=prep["net"])
        report = mtp_acopf_check(prep["net"], inst_s, sched)
        extra = {"objective": sched.objective,
                 "mtp_objective": report.objective}
        if report.verdict == "feasible" and formulation in ("nn", "linear") \
                and sched.v is not None:
            extra["err_ft"], extra["err_tf"] = _flow_errors(
                formulation, prep, sched)
        return sol.status, report.verdict, extra, report.detail
    except CompactPFError as exc:
        return "error", "no_solution", {}, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # sweep must never abort
        _log.exception("%s cell failed", formulation)
        return "error", "error", {}, f"{type(exc).__name__}: {exc}"


def run_experiment(cfg, prep=None):
    prep = prep or prepare_models(cfg)
    inst = prep["inst"]
    scenarios = [("base", None)] if not cfg.schemes else [
        (f"{s.kind}", s) for s in cfg.schemes]

    cells = []
    tallies = {f: {v: 0 for v in VERDICTS} for f in cfg.formulations}
    for idx, (label, scheme) in enumerate(scenarios):
        inst_s = inst if scheme is None else apply_load_scheme(inst, scheme)
        for f in cfg.formulations:
            status, verdict, extra, detail = run_scenario_cell(
                cfg, prep, inst_s, f)
            cells.append(Cell(
                scenario=idx, scheme=label, formulation=f,
                uc_status=status, verdict=verdict,
                objective=extra.get("objective", float("nan")),
                mtp_objective=extra.get("mtp_objective", float("nan")),
                err_ft=extra.get("err_ft", float("nan")),
                err_tf=extra.get("err_tf", float("nan")),
                detail=detail))
            tallies[f][verdict] += 1

    report = ExperimentReport(
        cells=cells, tallies=tallies, scenario_count=len(scenarios),
        prep={"samples": prep["dataset"].size,
              "rho": prep["model"].rho,
              "free_relus": prep["bounds"].free_count()})
    report.check_conservation()
    return report


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def format_tally(report):
    lines = ["MTP AC-OPF verdicts per formulation",
             f"scenarios: {report.scenario_count}",
             ""]
    header = f"{'formulation':<14}" + "".join(f"{v:>14}" for v in VERDICTS)
    lines.append(header)
    lines.append("-" * len(header))
    for f, tally in report.tallies.items():
        # reports written before the "error" verdict existed lack its key
        lines.append(f"{f:<14}"
                     + "".join(f"{tally.get(v, 0):>14}" for v in VERDICTS))
    return "\n".join(lines) + "\n"


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def emit_reports(report, out_dir):
    """Write tally.txt, scenarios.csv, and flow_errors.csv (plot data).

    Deterministic for a fixed report; re-emission is byte-identical.
    """
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "tally.txt"), "w") as fh:
        fh.write(format_tally(report))

    rows = [(c.scenario, c.scheme, c.formulation, c.uc_status, c.verdict,
             "%.10g" % c.objective, "%.10g" % c.mtp_objective,
             "%.10g" % c.err_ft, "%.10g" % c.err_tf, c.detail)
            for c in report.cells]
    _write_csv(os.path.join(out_dir, "scenarios.csv"),
               ["scenario", "scheme", "formulation", "uc_status", "verdict",
                "uc_objective", "mtp_objective", "err_ft_l1", "err_tf_l1",
                "detail"], rows)

    # plot data: scenarios where nn and linear are both feasible
    by_scen = {}
    for c in report.cells:
        if c.formulation in ("nn", "linear") and c.verdict == "feasible":
            by_scen.setdefault(c.scenario, {})[c.formulation] = c
    rows = []
    for idx in sorted(by_scen):
        pair = by_scen[idx]
        if "nn" in pair and "linear" in pair:
            nn, li = pair["nn"], pair["linear"]
            rows.append((idx, nn.scheme,
                         "%.10g" % (nn.err_ft + nn.err_tf),
                         "%.10g" % (li.err_ft + li.err_tf)))
    _write_csv(os.path.join(out_dir, "flow_errors.csv"),
               ["scenario", "scheme", "nn_flow_err_l1", "linear_flow_err_l1"],
               rows)
    return [os.path.join(out_dir, f)
            for f in ("tally.txt", "scenarios.csv", "flow_errors.csv")]


def report_to_json(report):
    return json.dumps({
        "kind": "experiment_report",
        "cells": [asdict(c) for c in report.cells],
        "tallies": report.tallies,
        "scenario_count": report.scenario_count,
        "prep": report.prep,
    })


def report_from_json(text):
    doc = json.loads(text)
    if doc.get("kind") != "experiment_report":
        raise ValidationError("not an experiment report document")
    return ExperimentReport(
        cells=[Cell(**c) for c in doc["cells"]],
        tallies=doc["tallies"],
        scenario_count=doc["scenario_count"],
        prep=doc.get("prep", {}))

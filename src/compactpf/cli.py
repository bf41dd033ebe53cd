"""Command-line interface.

Subcommands mirror the pipeline stages: sample, train, compress, build,
solve, verify-schedule, experiment, report. This file only parses
arguments and moves files; every stage it runs is a function of
``harness`` or of the library modules. An input the package refuses (a
``CompactPFError``) ends the command with ``error: <message>`` on stderr
and exit code 4.
"""

import argparse
import os
import sys

import numpy as np

from . import harness, jacobian
from .harness import ExperimentConfig
from .ac_solver import mtp_acopf_check
from .errors import CompactPFError
from .data_factory import (MAX_ALTERATION, SamplerConfig, LoadScheme,
                           collect_dataset, dump_dataset, load_dataset)
from .pwl_learner import (TrainConfig, train_compact, sparsify_retrain,
                          model_to_json, model_from_json)
from .milp_encode import bound_box_from_network
from .milp_solve import NODE_BUDGET, solve_milp, export_mps
from .uc_builder import extract_schedule, schedule_to_json, schedule_from_json


def _add_system_args(p):
    p.add_argument("--case", required=True, help="MATPOWER case file")
    p.add_argument("--uc", required=True, help="UC instance JSON")
    p.add_argument("--derate", type=float, default=0.0,
                   help="thermal limit derate factor in [0, 1)")


def _train_config(args):
    return TrainConfig(lr=args.lr, batch=args.batch, steps=args.steps,
                       seed=args.seed)


def cmd_sample(args):
    _, net, inst = harness.load_system(args.case, args.uc, args.derate)
    cfg = SamplerConfig(combos_per_gen=args.combos_per_gen,
                        min_samples=args.min_samples)
    ds = collect_dataset(net, inst, cfg, seed=args.seed)
    dump_dataset(ds, args.out)
    print(f"wrote {ds.size} samples to {args.out}")
    return 0


def cmd_train(args):
    _, net, inst = harness.load_system(args.case, args.uc, args.derate)
    ds = load_dataset(args.dataset)
    lin = harness.base_linearization(net, inst)
    if args.dump_jacobian:
        with open(args.dump_jacobian, "w") as fh:
            fh.write(jacobian.dump_jacobian(lin.Jstar, header="Jstar"))
    Xtr, Ytr = ds.train
    model = train_compact(Xtr, Ytr, lin, args.rho, _train_config(args))
    with open(args.out, "w") as fh:
        fh.write(model_to_json(model))
    print(f"trained rho={args.rho} model -> {args.out}")
    return 0


def cmd_compress(args):
    with open(args.model) as fh:
        model = model_from_json(fh.read())
    Xtr, Ytr = load_dataset(args.dataset).train
    cfg = _train_config(args)
    for target in args.target:
        model = sparsify_retrain(model, Xtr, Ytr, target, cfg)
    kept = int(model.mask1.sum() + model.mask2.sum())
    total = model.mask1.size + model.mask2.size
    with open(args.out, "w") as fh:
        fh.write(model_to_json(model))
    print(f"compressed model ({kept}/{total} weights kept) -> {args.out}")
    return 0


def _build(args):
    """(net, inst, MILPModel, UCVars) of the formulation the arguments
    name; an nn model is bounded by --bound-mode over this system's box."""
    _, net, inst = harness.load_system(args.case, args.uc, args.derate)
    prep = {"net": net, "box": bound_box_from_network(net, inst)}
    if args.formulation == "nn":
        if not args.model:
            raise SystemExit("--model is required for the nn formulation")
        with open(args.model) as fh:
            prep["model"] = model_from_json(fh.read())
        prep["bounds"] = harness.big_m_bounds(prep["model"], prep["box"],
                                              args.bound_mode)
    elif args.formulation == "linear":
        prep["lin"] = harness.base_linearization(net, inst)
    milp, ucv = harness.build_formulation(args.formulation, inst, prep)
    return net, inst, milp, ucv


def cmd_build(args):
    _, _, milp, _ = _build(args)
    if args.stats:
        for key, val in milp.stats().items():
            print(f"{key}: {val}")
    with open(args.out, "w") as fh:
        fh.write(export_mps(milp))
    print(f"wrote MPS model to {args.out}")
    return 0


def cmd_solve(args):
    net, inst, milp, ucv = _build(args)
    sol = solve_milp(milp, gap_target=args.gap, time_budget=args.time_budget,
                     node_budget=args.node_budget)
    print(f"status: {sol.status}  objective: {sol.objective}  "
          f"gap: {sol.gap:.4%}  nodes: {sol.nodes}")
    if sol.x is None:
        return 1
    sched = extract_schedule(milp, sol, inst, ucv, net=net)
    with open(args.out, "w") as fh:
        fh.write(schedule_to_json(sched))
    print(f"wrote schedule to {args.out}")
    return 0


def cmd_verify_schedule(args):
    _, net, inst = harness.load_system(args.case, args.uc, args.derate)
    with open(args.schedule) as fh:
        sched = schedule_from_json(fh.read())
    report = mtp_acopf_check(net, inst, sched)
    print(f"verdict: {report.verdict}")
    print(f"max violation: {report.max_violation:.3e}")
    if report.detail:
        print(f"detail: {report.detail}")
    if report.verdict == "feasible":
        print(f"dispatch cost: {report.objective:.6g}")
        return 0
    return 2 if report.verdict == "infeasible" else 3


def _generate_schemes(per_kind, seed):
    rng = np.random.default_rng(seed)
    schemes = []
    for i in range(per_kind):
        scale = rng.uniform(1.0 - MAX_ALTERATION, 1.0 + MAX_ALTERATION)
        schemes.append(LoadScheme("uniform", scale=float(scale)))
        schemes.append(LoadScheme("per-bus-random", spread=MAX_ALTERATION,
                                  seed=int(rng.integers(0, 2 ** 31))))
        amplitude = rng.uniform(0.0, MAX_ALTERATION)
        schemes.append(LoadScheme("sinusoidal", amplitude=float(amplitude)))
    return tuple(schemes)


def cmd_experiment(args):
    cfg = ExperimentConfig(
        case_path=args.case, uc_path=args.uc,
        sample_uc_path=args.sample_uc, derate=args.derate,
        rho=args.rho,
        sampler=SamplerConfig(combos_per_gen=args.combos_per_gen),
        train=TrainConfig(steps=args.steps, seed=args.seed),
        schemes=_generate_schemes(args.scenarios_per_scheme, args.seed),
        formulations=tuple(args.formulations.split(",")),
        bound_mode=args.bound_mode, gap_target=args.gap,
        time_budget=args.time_budget, seed=args.seed)
    report = harness.run_experiment(cfg)
    files = harness.emit_reports(report, args.out)
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        fh.write(harness.report_to_json(report))
    print(harness.format_tally(report))
    for f in files:
        print(f"wrote {f}")
    return 0


def cmd_report(args):
    with open(args.report) as fh:
        report = harness.report_from_json(fh.read())
    files = harness.emit_reports(report, args.out)
    print(harness.format_tally(report))
    for f in files:
        print(f"wrote {f}")
    return 0


def _add_train_flags(p):
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--batch", type=int, default=TrainConfig.batch)
    p.add_argument("--steps", type=int, default=TrainConfig.steps)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="compactpf",
        description="Compact piecewise-linear power flow surrogates for "
                    "unit commitment")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="generate a feasible power-flow dataset")
    _add_system_args(p)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--combos-per-gen", type=int,
                   default=SamplerConfig.combos_per_gen)
    p.add_argument("--min-samples", type=int,
                   default=SamplerConfig.min_samples)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train", help="train the compact PWL surrogate")
    _add_system_args(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--rho", type=int, default=ExperimentConfig.rho)
    _add_train_flags(p)
    p.add_argument("--dump-jacobian", metavar="FILE",
                   help="write the linearization Jacobian as text")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compress", help="sparsify-retrain a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--target", type=float, action="append", required=True,
                   help="sparsity fraction; repeat for a schedule")
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compress)

    for name, fn in (("build", cmd_build), ("solve", cmd_solve)):
        p = sub.add_parser(name, help=f"{name} a UC formulation")
        _add_system_args(p)
        p.add_argument("--formulation", choices=harness.FORMULATIONS,
                       required=True)
        p.add_argument("--model", help="trained model JSON (nn formulation)")
        p.add_argument("--bound-mode", choices=harness.BOUND_MODES,
                       default=ExperimentConfig.bound_mode)
        p.add_argument("--out", required=True)
        if name == "build":
            p.add_argument("--stats", action="store_true",
                           help="print model size statistics")
        else:
            p.add_argument("--gap", type=float,
                           default=ExperimentConfig.gap_target)
            p.add_argument("--time-budget", type=float,
                           default=ExperimentConfig.time_budget)
            p.add_argument("--node-budget", type=int, default=NODE_BUDGET)
        p.set_defaults(func=fn)

    p = sub.add_parser("verify-schedule",
                       help="run the MTP AC-OPF feasibility oracle")
    _add_system_args(p)
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=cmd_verify_schedule)

    p = sub.add_parser("experiment", help="run the full scenario sweep")
    _add_system_args(p)
    p.add_argument("--sample-uc", default=None,
                   help="richer UC instance used only for sampling/training")
    p.add_argument("--rho", type=int, default=ExperimentConfig.rho)
    p.add_argument("--steps", type=int, default=TrainConfig.steps)
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--combos-per-gen", type=int,
                   default=SamplerConfig.combos_per_gen)
    p.add_argument("--scenarios-per-scheme", type=int, default=1)
    p.add_argument("--formulations", default=",".join(harness.FORMULATIONS))
    p.add_argument("--bound-mode", choices=harness.BOUND_MODES,
                   default=ExperimentConfig.bound_mode)
    p.add_argument("--gap", type=float, default=ExperimentConfig.gap_target)
    p.add_argument("--time-budget", type=float,
                   default=ExperimentConfig.time_budget)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("report", help="re-emit reports from a saved sweep")
    p.add_argument("--report", required=True, help="report.json path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CompactPFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counts recorded around the program's layer boundaries.

The tracer wraps module attributes from outside the program: each wrapped
call records a span (name, start, end, parent) and may attach counts to it.
Spans stay in memory; ``layer_metrics`` turns them into the per-layer
figures once the run ends. Self time is a span's duration minus the time
covered by its child spans.
"""

import statistics
import time
from functools import wraps


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.child_s = 0.0
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def wrap(self, owner, attr, name, on_result=None, on_error=None):
        """Replace ``owner.attr`` by a function that records a span.

        ``on_result(span, args, kwargs, result)`` and
        ``on_error(span, args, kwargs, exc)`` attach counts to the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @wraps(original)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent)
            tracer._stack.append(span)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer._close(span)
                if on_error is not None:
                    on_error(span, args, kwargs, exc)
                raise
            tracer._close(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def wraps(self, owner, attr):
        return any(o is owner and a == attr for o, a, _ in self._undo)

    def remove(self):
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def named(self, name):
        return [span for span in self.spans if span.name == name]


def _total(spans):
    return sum(s.duration for s in spans)


def _p50_ms(spans):
    return 1e3 * statistics.median(s.duration for s in spans) if spans else 0.0


def _count(spans, key):
    return sum(s.counts.get(key, 0) for s in spans)


def _major_iters(tracer):
    """SLP major iterations: each one linearizes every period once, so an
    SLP call's injection Jacobians divided by its periods count them."""
    per_call = {}
    for span in tracer.named("jacobian.injection"):
        p = span.parent
        while p is not None and p.name != "ac_solver":
            p = p.parent
        if p is not None:
            per_call[id(p)] = per_call.get(id(p), 0) + 1
    return sum(per_call.get(id(s), 0) // s.counts["periods"]
               for s in tracer.named("ac_solver"))


def watch_candidates(tracer, data_factory):
    """Record one span per sampling candidate, counted by its outcome:
    ``accepted`` or the name of the exception that rejected it. The
    sampler drops its own rejection tally."""

    def accepted(span, args, kwargs, result):
        span.counts["accepted"] = 1

    def rejected(span, args, kwargs, exc):
        span.counts[type(exc).__name__] = 1

    tracer.wrap(data_factory, "slp_acopf", "data_factory.candidate",
                on_result=accepted, on_error=rejected)


def outcome(span):
    """``accepted`` or the exception name of a candidate span."""
    (name,) = span.counts
    return name


def install(tracer, modules):
    """Wrap the public entry points of every timed layer.

    ``modules`` maps layer names to the imported modules. Functions are
    wrapped where their callers look them up, so that calls between layers
    are seen: ``data_factory.slp_acopf`` is the name the sampler calls,
    ``ac_solver._solve_slp`` is the SLP core behind both ``slp_acopf`` and
    ``mtp_acopf_check``, and each module's ``linprog`` is the one it calls.
    The sampler's candidates are watched once per tracer, whether or not
    a workload watched them already.
    """
    m = modules
    gm, jac, acs, dfa = m["grid_model"], m["jacobian"], m["ac_solver"], m["data_factory"]
    pwl, enc, mdl, slv, ucb = (m["pwl_learner"], m["milp_encode"],
                               m["milp_model"], m["milp_solve"], m["uc_builder"])

    def slp_periods(span, args, kwargs, result_or_exc):
        span.counts["periods"] = len(args[1])

    def train_steps(span, args, kwargs, result):
        cfg = args[4] if len(args) > 4 else kwargs["cfg"]
        span.counts["steps"] = cfg.steps

    def free_relus(span, args, kwargs, result):
        span.counts["free"] = result.free_count()

    def bnb_nodes(span, args, kwargs, result):
        span.counts["nodes"] = result.nodes

    tracer.wrap(gm, "eval_power_flow", "grid_model.eval")
    tracer.wrap(jac, "injection_jacobian", "jacobian.injection")
    tracer.wrap(jac, "apparent_flow_jacobian", "jacobian.flow")
    tracer.wrap(acs, "linprog", "ac_solver.linprog")
    tracer.wrap(acs, "_solve_slp", "ac_solver", on_result=slp_periods,
                on_error=slp_periods)
    if not tracer.wraps(dfa, "slp_acopf"):
        watch_candidates(tracer, dfa)
    tracer.wrap(pwl, "train_compact", "pwl_learner.train", on_result=train_steps)
    tracer.wrap(enc, "tighten_bounds", "milp_encode.tighten")
    tracer.wrap(enc, "prune", "milp_encode.prune", on_result=free_relus)
    tracer.wrap(mdl.MILPModel, "constraint_matrices", "milp_model.constraint_matrices")
    tracer.wrap(mdl.MILPModel, "max_violation", "milp_model.max_violation")
    tracer.wrap(slv, "linprog", "milp_solve.linprog")
    tracer.wrap(slv, "solve_milp", "milp_solve", on_result=bnb_nodes)
    tracer.wrap(slv, "solve_lp", "milp_solve")
    for fn in ("build_nn_ac_uc", "build_l_ac_uc", "build_dc_uc"):
        tracer.wrap(ucb, fn, "uc_builder.build")
    tracer.wrap(ucb, "extract_schedule", "uc_builder.extract")


def layer_metrics(tracer):
    """Per-layer figures of everything the tracer recorded."""
    t = tracer
    cand = t.named("data_factory.candidate")
    rejected = [s for s in cand if "accepted" not in s.counts]
    slp = t.named("ac_solver")
    slp_lp = t.named("ac_solver.linprog")
    train = t.named("pwl_learner.train")
    steps = _count(train, "steps")
    prunes = t.named("milp_encode.prune")
    bnb = t.named("milp_solve")
    bnb_lp = t.named("milp_solve.linprog")
    bnb_nodes = _count(bnb, "nodes")
    bnb_s = _total(bnb)
    evals = t.named("grid_model.eval")
    jac = t.named("jacobian.injection") + t.named("jacobian.flow")
    return {
        "data_factory.accept_ratio": (
            (len(cand) - len(rejected)) / len(cand) if cand else 0.0, "ratio"),
        "data_factory.budget_exhausted": (
            _count(cand, "ConvergenceError"), "count"),
        "data_factory.rejected_s": (_total(rejected), "s"),
        "data_factory.candidate_ms_p50": (_p50_ms(cand), "ms"),
        "ac_solver.major_iters": (_major_iters(t), "count"),
        "ac_solver.lp_solves": (len(slp_lp), "count"),
        "ac_solver.lp_s": (_total(slp_lp), "s"),
        "ac_solver.lp_ms_p50": (_p50_ms(slp_lp), "ms"),
        "ac_solver.self_s": (sum(s.self_s for s in slp), "s"),
        "grid_model.eval_calls": (len(evals), "count"),
        "grid_model.eval_s": (_total(evals), "s"),
        "jacobian.calls": (len(jac), "count"),
        "jacobian.s": (_total(jac), "s"),
        "pwl_learner.adam_steps_per_s": (
            steps / _total(train) if train else 0.0, "1/s"),
        "pwl_learner.train_s": (_total(train), "s"),
        "milp_encode.tighten_s": (_total(t.named("milp_encode.tighten")), "s"),
        "milp_encode.free_relus": (
            prunes[-1].counts["free"] if prunes else 0, "count"),
        "uc_builder.build_s": (_total(t.named("uc_builder.build")), "s"),
        "uc_builder.extract_s": (_total(t.named("uc_builder.extract")), "s"),
        "milp_model.constraint_matrices_s": (
            _total(t.named("milp_model.constraint_matrices")), "s"),
        "milp_model.max_violation_s": (
            _total(t.named("milp_model.max_violation")), "s"),
        "milp_solve.nodes": (bnb_nodes, "count"),
        "milp_solve.lp_solves": (len(bnb_lp), "count"),
        "milp_solve.lp_s": (_total(bnb_lp), "s"),
        "milp_solve.self_s": (sum(s.self_s for s in bnb), "s"),
        "milp_solve.nodes_per_s": (bnb_nodes / bnb_s if bnb_s else 0.0, "1/s"),
    }

import json
import math
import os

import numpy as np
import pytest

from compactpf import harness
from compactpf.ac_solver import FeasibilityReport
from compactpf.data_factory import LoadScheme
from compactpf.milp_encode import interval_bounds, prune
from compactpf.harness import (ExperimentConfig, ExperimentReport, Cell,
                               run_experiment, emit_reports, format_tally,
                               report_to_json, report_from_json)
from compactpf.errors import ValidationError


@pytest.fixture(scope="module")
def prep14(net14, inst4, lin14, compact8, box14, dataset14):
    bounds = prune(compact8, interval_bounds(compact8, box14))
    return {"net": net14, "inst": inst4, "lin": lin14, "model": compact8,
            "box": box14, "bounds": bounds, "dataset": dataset14}


@pytest.fixture(scope="module")
def small_report(prep14):
    cfg = ExperimentConfig(
        case_path="", uc_path="",
        formulations=("linear", "dc"),
        schemes=(LoadScheme("uniform", scale=1.0),
                 LoadScheme("sinusoidal", amplitude=0.05)),
        gap_target=0.01, time_budget=300.0)
    return run_experiment(cfg, prep=prep14)


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(case_path="", uc_path="", formulations=("ac",))
    with pytest.raises(ValidationError):
        ExperimentConfig(case_path="", uc_path="", bound_mode="none")


def test_experiment_tally_conserves(small_report):
    small_report.check_conservation()
    assert small_report.scenario_count == 2
    assert len(small_report.cells) == 4
    for f in ("linear", "dc"):
        assert sum(small_report.tallies[f].values()) == 2


def test_experiment_cells_populated(small_report):
    for c in small_report.cells:
        assert c.formulation in ("linear", "dc")
        assert c.verdict in ("feasible", "infeasible", "no_solution")
        if c.uc_status in ("optimal", "gap_reached"):
            assert np.isfinite(c.objective)
    # flow errors recorded for feasible linear cells only
    for c in small_report.cells:
        if c.formulation == "linear" and c.verdict == "feasible":
            assert np.isfinite(c.err_ft) and np.isfinite(c.err_tf)
        if c.formulation == "dc":
            assert np.isnan(c.err_ft)


def test_format_tally(small_report):
    text = format_tally(small_report)
    assert "linear" in text and "dc" in text
    assert "feasible" in text and "scenarios: 2" in text


def test_emit_reports_deterministic(small_report, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    files1 = emit_reports(small_report, out1)
    files2 = emit_reports(small_report, out2)
    for f1, f2 in zip(files1, files2):
        assert os.path.basename(f1) == os.path.basename(f2)
        assert open(f1).read() == open(f2).read()
    assert {os.path.basename(f) for f in files1} == \
        {"tally.txt", "scenarios.csv", "flow_errors.csv"}


def test_report_json_round_trip(small_report):
    text = report_to_json(small_report)
    again = report_from_json(text)
    assert again.tallies == small_report.tallies
    assert again.scenario_count == small_report.scenario_count
    assert len(again.cells) == len(small_report.cells)
    from dataclasses import asdict
    for a, b in zip(again.cells, small_report.cells):
        da, db = asdict(a), asdict(b)
        for key in da:
            va, vb = da[key], db[key]
            if isinstance(va, float) and np.isnan(va):
                assert np.isnan(vb)
            else:
                assert va == vb
    # re-serialization is byte-identical
    assert report_to_json(again) == text
    with pytest.raises(ValidationError):
        report_from_json('{"kind": "other"}')


@pytest.mark.parametrize("exc, verdict", [
    (RuntimeError("builder bug"), "error"),
    (ValidationError("bad input"), "no_solution"),
])
def test_cell_exception_verdict(monkeypatch, prep14, exc, verdict):
    """A fault in the program is tallied as "error"; a CompactPFError keeps
    its "no_solution" verdict."""
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(harness, "build_dc_uc", broken)
    cfg = ExperimentConfig(case_path="", uc_path="", formulations=("dc",))
    report = run_experiment(cfg, prep=prep14)
    (cell,) = report.cells
    assert (cell.uc_status, cell.verdict) == ("error", verdict)
    assert cell.detail == f"{type(exc).__name__}: {exc}"
    assert report.tallies["dc"][verdict] == 1
    report.check_conservation()
    assert json.loads(report_to_json(report))["tallies"]["dc"][verdict] == 1
    header, row = format_tally(report).splitlines()[-3::2]
    assert header.split()[-1] == "error"
    assert row.split()[1 + harness.VERDICTS.index(verdict)] == "1"


def test_cell_keeps_the_oracle_detail(monkeypatch, prep14):
    """Why the oracle gave its verdict reaches the cell."""
    def screened(net, inst, sched):
        return FeasibilityReport(verdict="infeasible", max_violation=math.inf,
                                 objective=math.nan, iterations=0,
                                 detail="period 2: short by 1 p.u.")

    monkeypatch.setattr(harness, "mtp_acopf_check", screened)
    cfg = ExperimentConfig(case_path="", uc_path="", formulations=("dc",))
    (cell,) = run_experiment(cfg, prep=prep14).cells
    assert (cell.verdict, cell.detail) == ("infeasible",
                                           "period 2: short by 1 p.u.")


def test_conservation_check_detects_mismatch():
    report = ExperimentReport(
        cells=[Cell(scenario=0, scheme="base", formulation="dc",
                    uc_status="optimal", verdict="feasible")],
        tallies={"dc": {"feasible": 1, "infeasible": 1, "no_solution": 0}},
        scenario_count=1, prep={})
    with pytest.raises(ValidationError):
        report.check_conservation()

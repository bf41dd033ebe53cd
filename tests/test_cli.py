import importlib.resources as ir
import json

import pytest
from scipy.optimize._highspy import _core

from compactpf import harness
from compactpf.cli import main, _generate_schemes
from compactpf.harness import (ExperimentConfig, ExperimentReport, Cell,
                               report_to_json)
from compactpf.data_factory import dump_dataset
from compactpf.pwl_learner import TrainConfig, model_to_json

from conftest import read_mps

DATA = ir.files("compactpf.data")
CASE = str(DATA / "case14.m")
UC4 = str(DATA / "uc14_t4.json")
UC24 = str(DATA / "uc14.json")

SYSTEM = ["--case", CASE, "--uc", UC4, "--derate", "0.30"]


def test_generate_schemes_deterministic():
    a = _generate_schemes(2, 0)
    b = _generate_schemes(2, 0)
    assert a == b
    assert len(a) == 6
    assert {s.kind for s in a} == {"uniform", "per-bus-random", "sinusoidal"}


def test_cli_build_dc(tmp_path, capsys):
    out = tmp_path / "dc.mps"
    rc = main(["build", *SYSTEM, "--formulation", "dc", "--stats",
               "--out", str(out)])
    assert rc == 0
    lp, status = read_mps(out)      # HiGHS reads it without a warning
    assert status == _core.HighsStatus.kOk
    assert _core.HighsVarType.kInteger in lp.integrality_
    assert "binaries" in capsys.readouterr().out


def test_cli_solve_and_verify_dc(tmp_path, capsys):
    sched_path = tmp_path / "dc_sched.json"
    rc = main(["solve", *SYSTEM, "--formulation", "dc",
               "--gap", "0.01", "--out", str(sched_path)])
    assert rc == 0
    doc = json.loads(sched_path.read_text())
    assert doc["kind"] == "uc_schedule"
    rc = main(["verify-schedule", *SYSTEM, "--schedule", str(sched_path)])
    # oracle ran: feasible (0) or a clean infeasible/no-solution verdict
    assert rc in (0, 2, 3)
    out = capsys.readouterr().out
    assert "verdict:" in out


def test_cli_verify_names_a_short_hour(tmp_path, capsys):
    """A schedule audited against loads its units cannot cover in hour 2
    is infeasible (exit 2), and the output names that hour."""
    sched_path = tmp_path / "dc_sched.json"
    assert main(["solve", *SYSTEM, "--formulation", "dc",
                 "--out", str(sched_path)]) == 0
    doc = json.loads((DATA / "uc14_t4.json").read_text())
    doc["load_profile"][2] = 3.0
    uc_path = tmp_path / "uc_short.json"
    uc_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify-schedule", "--case", CASE, "--uc", str(uc_path),
                 "--derate", "0.30", "--schedule", str(sched_path)]) == 2
    assert "detail: period 2: " in capsys.readouterr().out


def test_cli_verify_rejects_schedule_of_other_horizon(tmp_path, capsys):
    """A 4-h schedule audited against the 24-h instance is refused (exit
    4), not reported feasible after 4 of 24 hours."""
    sched_path = tmp_path / "dc_sched.json"
    assert main(["solve", *SYSTEM, "--formulation", "dc",
                 "--out", str(sched_path)]) == 0
    capsys.readouterr()
    assert main(["verify-schedule", "--case", CASE, "--uc", UC24,
                 "--schedule", str(sched_path)]) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "shape" in line


def test_cli_refused_input_is_one_error_line_and_exit_4(tmp_path, capsys):
    """An instance the package refuses ends the command with exit code 4
    (not 1, which means "no schedule") and one line on stderr, not a
    traceback."""
    doc = json.loads((DATA / "uc14_t4.json").read_text())
    doc["horizon"] = 0
    uc_path = tmp_path / "uc_h0.json"
    uc_path.write_text(json.dumps(doc))
    assert main(["build", "--case", CASE, "--uc", str(uc_path),
                 "--formulation", "dc", "--out",
                 str(tmp_path / "dc.mps")]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: horizon must be >= 1\n"
    assert captured.out == ""


def test_cli_experiment_defaults_are_the_config_defaults(tmp_path,
                                                         monkeypatch):
    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise SystemExit(0)

    monkeypatch.setattr(harness, "run_experiment", capture)
    with pytest.raises(SystemExit):
        main(["experiment", "--case", CASE, "--uc", UC4,
              "--out", str(tmp_path)])
    (cfg,) = seen
    assert cfg.train == TrainConfig(steps=TrainConfig.steps, seed=0)
    for name in ("rho", "bound_mode", "gap_target", "time_budget"):
        assert getattr(cfg, name) == getattr(ExperimentConfig, name), name


def test_cli_sample_train_compress(tmp_path, capsys):
    ds_path = tmp_path / "ds.txt"
    rc = main(["sample", *SYSTEM, "--combos-per-gen", "1",
               "--seed", "0", "--out", str(ds_path)])
    assert rc == 0
    assert ds_path.read_text().startswith("# pfdataset")

    model_path = tmp_path / "model.json"
    jac_path = tmp_path / "jstar.txt"
    rc = main(["train", *SYSTEM, "--dataset", str(ds_path),
               "--rho", "3", "--steps", "300", "--out", str(model_path),
               "--dump-jacobian", str(jac_path)])
    assert rc == 0
    doc = json.loads(model_path.read_text())
    assert doc["kind"] == "compact_pwl" and doc["rho"] == 3
    assert "bounds" not in doc
    assert jac_path.read_text().startswith("# Jstar")

    comp_path = tmp_path / "compressed.json"
    rc = main(["compress", "--model", str(model_path),
               "--dataset", str(ds_path), "--target", "0.5",
               "--steps", "200", "--out", str(comp_path)])
    assert rc == 0
    doc = json.loads(comp_path.read_text())
    assert "bounds" not in doc
    kept = sum(sum(row) for row in doc["mask1"]) \
        + sum(sum(row) for row in doc["mask2"])
    total = len(doc["mask1"]) * len(doc["mask1"][0]) \
        + len(doc["mask2"]) * len(doc["mask2"][0])
    assert kept <= total // 2 + 1

    # both surrogate formulations build through the shared stages
    for extra, frag in ((["nn", "--model", str(comp_path)], "nn[0]"),
                        (["linear"], "lin[0]")):
        mps_path = tmp_path / f"{extra[0]}.mps"
        rc = main(["build", *SYSTEM, "--formulation", *extra,
                   "--out", str(mps_path)])
        assert rc == 0
        lp, status = read_mps(mps_path)
        assert status == _core.HighsStatus.kOk
        assert any(name.startswith(frag) for name in lp.col_names_)
        assert _core.HighsVarType.kInteger in lp.integrality_


def test_cli_build_bounds_a_compressed_model_by_its_bound_mode(
        tmp_path, capsys, compact8, dataset14):
    model_path, ds_path = tmp_path / "model.json", tmp_path / "ds.txt"
    model_path.write_text(model_to_json(compact8))
    dump_dataset(dataset14, ds_path)
    comp_path = tmp_path / "compressed.json"
    assert main(["compress", "--model", str(model_path),
                 "--dataset", str(ds_path), "--target", "0.5",
                 "--steps", "50", "--out", str(comp_path)]) == 0
    texts = {}
    for mode in ("interval", "lp"):
        mps_path = tmp_path / f"{mode}.mps"
        assert main(["build", *SYSTEM, "--formulation", "nn",
                     "--model", str(comp_path), "--bound-mode", mode,
                     "--out", str(mps_path)]) == 0
        texts[mode] = mps_path.read_text()
    assert texts["interval"] != texts["lp"]


def test_cli_report_round_trip(tmp_path, capsys):
    report = ExperimentReport(
        cells=[Cell(scenario=0, scheme="base", formulation="dc",
                    uc_status="optimal", verdict="feasible",
                    objective=1.0, mtp_objective=1.1,
                    err_ft=0.0, err_tf=0.0)],
        tallies={"dc": {"feasible": 1, "infeasible": 0, "no_solution": 0}},
        scenario_count=1, prep={})
    rp = tmp_path / "report.json"
    rp.write_text(report_to_json(report))
    out_dir = tmp_path / "out"
    rc = main(["report", "--report", str(rp), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "tally.txt").exists()
    assert (out_dir / "scenarios.csv").exists()
    assert (out_dir / "flow_errors.csv").exists()
    assert "feasible" in capsys.readouterr().out


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])

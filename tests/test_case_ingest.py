import json
import math
from pathlib import Path

import numpy as np
import pytest

from compactpf.case_ingest import (parse_matpower, validate_case,
                                   derate_thermal_limits, write_matpower,
                                   load_uc_instance)
from compactpf.errors import ParseError, ValidationError

from conftest import TWO_BUS_CASE


def test_two_bus_per_unit(case2):
    assert case2.n == 2
    assert case2.m == 1
    # rateA 100 MVA on baseMVA 100 -> 1.0 p.u.
    assert case2.branches[0].rate_a == pytest.approx(1.0)
    assert case2.buses[1].pd == pytest.approx(0.5)
    assert case2.buses[1].qd == pytest.approx(0.1)
    assert case2.ref_bus == 1


def test_case14_counts(case14_raw):
    assert case14_raw.n == 14
    assert case14_raw.m == 20
    assert len(case14_raw.gens) == 5


def test_missing_ref_bus_rejected():
    text = TWO_BUS_CASE.replace("1 3 0  0", "1 1 0  0")
    with pytest.raises(ValidationError):
        validate_case(parse_matpower(text))


def test_malformed_row_reports_line():
    text = TWO_BUS_CASE.replace("1 2 0 0.1", "1 2 zero 0.1")
    with pytest.raises(ParseError) as err:
        parse_matpower(text)
    assert err.value.line is not None


def test_nonpositive_base_mva():
    text = TWO_BUS_CASE.replace("mpc.baseMVA = 100", "mpc.baseMVA = 0")
    with pytest.raises(ValidationError):
        validate_case(parse_matpower(text))


def test_derate():
    case = parse_matpower(TWO_BUS_CASE)
    d = derate_thermal_limits(case, 0.30)
    assert d.branches[0].rate_a == pytest.approx(0.70)
    same = derate_thermal_limits(case, 0.0)
    assert same.branches[0].rate_a == case.branches[0].rate_a
    with pytest.raises(ValidationError):
        derate_thermal_limits(case, 1.0)


def test_write_parse_round_trip(case14_raw):
    text = write_matpower(case14_raw)
    again = parse_matpower(text)
    assert again.base_mva == case14_raw.base_mva
    assert again.n == case14_raw.n and again.m == case14_raw.m
    for a, b in zip(again.buses, case14_raw.buses):
        assert (a.id, a.btype) == (b.id, b.btype)
        for fld in ("pd", "qd", "gs", "bs", "vmin", "vmax"):
            assert getattr(a, fld) == pytest.approx(getattr(b, fld), abs=1e-14)
    for a, b in zip(again.branches, case14_raw.branches):
        assert (a.f, a.t) == (b.f, b.t)
        for fld in ("r", "x", "b", "ratio", "shift", "rate_a",
                    "ang_min", "ang_max"):
            assert getattr(a, fld) == pytest.approx(getattr(b, fld), abs=1e-12)
    for a, b in zip(again.gens, case14_raw.gens):
        assert a.bus == b.bus
        for fld in ("pmin", "pmax", "qmin", "qmax", "vg", "c2", "c1", "c0"):
            assert getattr(a, fld) == pytest.approx(getattr(b, fld),
                                                    rel=1e-12, abs=1e-12)


def test_uc_instance_shape(inst24, net14):
    assert inst24.horizon == 24
    # four committable units plus one condenser at the zero-span unit
    assert inst24.ngen == 4
    assert len(inst24.condensers) == 1
    assert inst24.pd.shape == (net14.n, 24)
    assert inst24.qd.shape == (net14.n, 24)


def test_constant_power_factor(inst24, case14):
    pd0 = np.array([b.pd for b in case14.buses])
    qd0 = np.array([b.qd for b in case14.buses])
    for b in range(len(case14.buses)):
        if pd0[b] == 0.0:
            # zero-base-load buses hold QD = 0
            assert np.all(inst24.qd[b] == 0.0)
            continue
        ratios = inst24.qd[b] / inst24.pd[b]
        assert np.allclose(ratios, qd0[b] / pd0[b], atol=1e-12)


def test_nonconvex_cost_rejected(case14):
    doc = """{
      "horizon": 1, "load_profile": [1.0], "reserve": 0.0,
      "generators": {
        "1": {"pmin": 10, "pmax": 50,
              "cost_segments": [[20, 30.0], [20, 10.0]]}
      }
    }"""
    with pytest.raises(ValidationError):
        load_uc_instance(doc, case14)


def test_defaults_least_restrictive(case14):
    doc = """{
      "horizon": 2, "load_profile": [0.5, 0.5], "reserve": 0.0,
      "generators": {"1": {"pmin": 10, "pmax": 50}}
    }"""
    inst = load_uc_instance(doc, case14)
    g = inst.gens[0]
    assert g.tu == 1 and g.td == 1
    assert g.su == pytest.approx(g.pmax)
    assert g.ru == pytest.approx(g.pmax)
    assert not g.init_on  # OFF long enough to allow startup at t=1
    assert g.init_status <= -g.td


@pytest.mark.parametrize("inst", ["inst24", "inst4"])
def test_unit_bus_is_case_position(request, case14, inst):
    inst = request.getfixturevalue(inst)
    pos = case14.bus_index()
    rows = [case14.gens[int(g.name) - 1] for g in inst.gens]
    assert [g.bus for g in inst.gens] == [pos[row.bus] for row in rows]
    # the condensers are the case rows of no committable unit, in order
    names = {g.name for g in inst.gens}
    cond_rows = [row for i, row in enumerate(case14.gens)
                 if str(i + 1) not in names]
    assert inst.condensers
    assert [c.bus for c in inst.condensers] == [pos[row.bus]
                                                for row in cond_rows]


def test_p_delta_init(case14):
    doc = """{
      "horizon": 1, "load_profile": [1.0],
      "generators": {
        "1": {"pmin": 10, "pmax": 50, "p_init": 40, "init_status": 3},
        "2": {"pmin": 20, "pmax": 60, "p_init": 20, "init_status": 2},
        "3": {"pmin": 10, "pmax": 50, "p_init": 30, "init_status": -2}
      }
    }"""
    on_above, on_at_pmin, off = load_uc_instance(doc, case14).gens[:3]
    assert on_above.p_delta_init == pytest.approx(0.3)
    assert on_at_pmin.p_delta_init == 0.0
    assert not off.init_on and off.p_init > 0
    assert off.p_delta_init == 0.0


@pytest.mark.parametrize("doc", [
    # "generator" for "generators": every unit would get the case defaults
    '{"horizon": 1, "load_profile": [1.0], "generator": {"1": {"pmin": 10}}}',
    # "tu" for "min_up": the unit would load with a one-hour minimum
    '{"horizon": 1, "load_profile": [1.0], "generators": {"1": {"tu": 4}}}',
], ids=["generator", "tu"])
def test_unknown_keys_rejected(case14, doc):
    with pytest.raises(ValidationError, match="unknown keys"):
        load_uc_instance(doc, case14)


@pytest.mark.parametrize("doc, message", [
    ('[]', "UC instance: expected a JSON object, not list"),
    ('{"generators": {"1": 5}}', "unit 1: expected a JSON object, not int"),
    ('{"generators": {"1": {"pmin": "a"}}}',
     "unit 1: pmin: expected a number, got 'a'"),
    ('{"reserve": NaN}', "reserve: expected a finite number, got nan"),
    ('{"reserve": Infinity}', "reserve: expected a finite number, got inf"),
    ('{"horizon": 2, "reserve": [30.0, NaN]}',
     "reserve: expected a finite number, got nan"),
    ('{"horizon": 2, "reserve": [30.0, Infinity]}',
     "reserve: expected a finite number, got inf"),
    ('{"generators": {"1": {"qmax": NaN}}}',
     "unit 1: qmax: expected a finite number, got nan"),
    ('{"generators": {"1": {"qmax": Infinity}}}',
     "unit 1: qmax: expected a finite number, got inf"),
    ('{"generators": {"1": {"cost_segments": [[100.0, NaN]]}}}',
     "unit 1: cost_segments: expected a finite number, got nan"),
    ('{"generators": {"1": {"cost_segments": [[Infinity, 20.0]]}}}',
     "unit 1: cost_segments: expected a finite number, got inf"),
], ids=["top_level_list", "unit_not_object", "pmin_string",
        "reserve_nan", "reserve_inf", "reserve_entry_nan",
        "reserve_entry_inf", "qmax_nan", "qmax_inf", "cost_segment_nan",
        "cost_segment_inf"])
def test_malformed_values_rejected(case14, doc, message):
    with pytest.raises(ValidationError) as e:
        load_uc_instance(doc, case14)
    assert str(e.value) == message


def test_readme_instance_loads(case14):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## UC instance JSON", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    inst = load_uc_instance(block, case14)
    assert inst.horizon == 4
    assert len(inst.gens) == 4 and len(inst.condensers) == 1


def _unit_doc(horizon=2, **unit):
    return json.dumps({"horizon": horizon, "load_profile": [1.0] * 2,
                       "generators": {"1": unit}})


@pytest.mark.parametrize("doc, label", [
    (_unit_doc(horizon=2.5), "horizon"),
    (_unit_doc(min_up=2.7), "unit 1: min_up"),
    (_unit_doc(min_down=1.5), "unit 1: min_down"),
    (_unit_doc(init_status=1.5), "unit 1: init_status"),
    (_unit_doc(startup_tiers=[[0, 10.0], [2.5, 20.0]]),
     "unit 1: startup_tiers"),
], ids=["horizon", "min_up", "min_down", "init_status", "tier_hours"])
def test_non_integral_integer_keys_rejected(case14, doc, label):
    """Integer keys are not truncated: 2.7 hours is not 2 hours."""
    with pytest.raises(ValidationError) as e:
        load_uc_instance(doc, case14)
    assert str(e.value).startswith(f"{label}: expected an integer")


def test_integral_floats_load_as_integers(case14):
    doc = _unit_doc(horizon=2.0, min_up=2.0, min_down=3.0, init_status=-3.0,
                    startup_tiers=[[0, 10.0], [2.0, 20.0]])
    inst = load_uc_instance(doc, case14)
    g = inst.gens[0]
    assert inst.horizon == 2 and inst.pd.shape[1] == 2
    assert (g.tu, g.td, g.init_status) == (2, 3, -3)
    assert g.startup_tiers == ((0, 10.0), (2, 20.0))
    assert all(type(x) is int for x in (inst.horizon, g.tu, g.td,
                                        g.init_status, g.startup_tiers[1][0]))

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from compactpf import data_factory
from compactpf.ac_solver import load_cover, make_dispatch_spec
from compactpf.data_factory import (SamplerConfig, LoadScheme,
                                    apply_load_scheme, collect_dataset,
                                    verify_dataset, dump_dataset,
                                    load_dataset)
from compactpf.errors import ConvergenceError, ValidationError
from compactpf.highs import HighsInstance
from compactpf.tolerances import DATASET_TOL


def test_dataset_rows_are_exact_pf_solutions(net14, dataset14):
    assert dataset14.size >= 1
    assert dataset14.X.shape == (dataset14.size, net14.d_in)
    assert dataset14.Y.shape == (dataset14.size, net14.d_out)
    # every row re-evaluates through the exact power flow map
    assert verify_dataset(net14, dataset14) < DATASET_TOL


def test_verify_dataset_rejects_a_wrong_or_nan_row(net14, dataset14):
    for bad in (1e-6, np.nan):
        Y = dataset14.Y.copy()
        Y[-1, 0] += bad
        with pytest.raises(ValidationError):
            verify_dataset(net14, replace(dataset14, Y=Y))


def test_dataset_split_fractions(dataset14):
    Xtr, _ = dataset14.train
    Xte, _ = dataset14.test
    assert Xtr.shape[0] + Xte.shape[0] == dataset14.size
    assert Xte.shape[0] == int(round(0.2 * dataset14.size))


def test_dataset_deterministic(net14, inst24, dataset14):
    again = collect_dataset(net14, inst24, SamplerConfig(combos_per_gen=3),
                            seed=0)
    assert np.array_equal(again.X, dataset14.X)
    assert np.array_equal(again.Y, dataset14.Y)
    assert np.array_equal(again.split, dataset14.split)


@pytest.mark.parametrize("seed", [1, 2])
def test_threaded_dataset_equals_serial(net14, inst24, monkeypatch, seed):
    """Candidates run on two threads give the dataset of one thread: the
    random draws are made up front and outcomes tallied in task order."""
    cfg = SamplerConfig(combos_per_gen=1)
    runs = []
    for threads in (2, 1):
        monkeypatch.setattr(data_factory, "THREADS", threads)
        runs.append(collect_dataset(net14, inst24, cfg, seed=seed))
    threaded, serial = runs
    assert np.array_equal(threaded.X, serial.X)
    assert np.array_equal(threaded.Y, serial.Y)
    assert threaded.meta == serial.meta
    assert np.array_equal(threaded.split, serial.split)
    assert threaded.rejected == serial.rejected


def test_sampling_outcome_does_not_depend_on_the_slp_options(
        net14, inst4, monkeypatch):
    """On the 4-h instance, sampling keeps the same candidates and rejects
    the same ones for the same reasons whether the SLP prices with Devex
    on the unscaled model or with HiGHS's defaults: the options pick the
    path to an optimal vertex, not which candidates are feasible. The
    accepted points may differ in their last digits; every row of both
    datasets re-evaluates through the exact power flow map."""
    cfg = SamplerConfig(combos_per_gen=1)
    slp = collect_dataset(net14, inst4, cfg, seed=1)
    monkeypatch.setattr(HighsInstance, "slp", classmethod(lambda cls: cls()))
    default = collect_dataset(net14, inst4, cfg, seed=1)
    assert slp.size == default.size > 0
    assert slp.rejected == default.rejected
    assert slp.meta == default.meta
    assert np.array_equal(slp.split, default.split)
    for ds in (slp, default):
        assert verify_dataset(net14, ds) < DATASET_TOL


def test_failing_candidate_raises_and_stops_the_pool(net14, inst24,
                                                     monkeypatch):
    """The 5th candidate's error propagates, the candidates not yet started
    are cancelled, and the pool's threads are gone when the call returns.
    Every other candidate takes the same 20 ms, so besides the 5th and its
    predecessors at most one candidate per thread starts."""
    monkeypatch.setattr(data_factory, "THREADS", 2)
    push = data_factory._pushed_network
    pushed, calls = [], []

    def record_push(net, inst, rng):
        pushed.append(push(net, inst, rng))
        return pushed[-1]

    def fifth_fails(net, spec):
        calls.append(spec)
        if net is pushed[3]:   # candidate 0 is the hour's unpushed base
            raise ValidationError("fifth candidate")
        time.sleep(0.02)
        raise ConvergenceError("budget")

    monkeypatch.setattr(data_factory, "_pushed_network", record_push)
    monkeypatch.setattr(data_factory, "slp_acopf", fifth_fails)
    before = threading.active_count()
    with pytest.raises(ValidationError, match="fifth candidate"):
        collect_dataset(net14, inst24, SamplerConfig(combos_per_gen=1),
                        seed=1)
    assert 5 <= len(calls) <= 5 + data_factory.THREADS
    assert threading.active_count() == before


def test_dataset_tallies_rejections(inst24, dataset14):
    # one all-on base plus combos_per_gen=3 draws per unit, every hour
    candidates = inst24.horizon * (1 + 3 * inst24.ngen)
    assert candidates == 24 * (1 + 3 * 4)
    assert dataset14.size + sum(dataset14.rejected.values()) == candidates
    assert set(dataset14.rejected) == {"infeasible", "short_of_load",
                                       "no_solution"}
    assert dataset14.rejected["short_of_load"] > 0


def test_accepted_rows_clear_the_load_screen(net14, inst24, dataset14):
    """Every accepted row's period has more headroom over its load plus
    least loss than the screen's margin. The floor is taken at the row's
    own voltages, which lie inside the box its candidate was screened on,
    so the screen saw at least this headroom."""
    for x, meta in zip(dataset14.X, dataset14.meta):
        v = x[:net14.n]
        net_v = replace(net14, vmin=v, vmax=v)
        spec = make_dispatch_spec(net_v, inst24, meta["hour"],
                                  off=meta["off"])
        (most,), (need,), margin = load_cover(net_v, [spec])
        assert most - need > margin


def test_dataset_covers_outages(dataset14):
    offs = {m["off"] for m in dataset14.meta}
    assert () in offs            # all-on base per hour
    assert any(len(o) >= 2 for o in offs)  # multi-unit outages drawn


def test_dump_load_round_trip(dataset14, tmp_path):
    path = tmp_path / "ds.txt"
    dump_dataset(dataset14, path)
    again = load_dataset(path)
    assert again.rejected == {}
    assert np.array_equal(again.X, dataset14.X)
    assert np.array_equal(again.Y, dataset14.Y)
    assert np.array_equal(again.split, dataset14.split)
    assert [m["hour"] for m in again.meta] == \
        [m["hour"] for m in dataset14.meta]
    assert [m["off"] for m in again.meta] == \
        [m["off"] for m in dataset14.meta]


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello\n")
    with pytest.raises(ValidationError):
        load_dataset(path)


def test_uniform_scheme(inst24):
    s = apply_load_scheme(inst24, LoadScheme(kind="uniform", scale=1.1))
    assert np.allclose(s.pd, inst24.pd * 1.1)
    assert np.allclose(s.qd, inst24.qd * 1.1)


def test_per_bus_scheme_preserves_power_factor(inst24):
    s = apply_load_scheme(inst24, LoadScheme(kind="per-bus-random",
                                             spread=0.15, seed=7))
    mask = inst24.pd != 0.0
    assert np.allclose(s.qd[mask] / s.pd[mask],
                       inst24.qd[mask] / inst24.pd[mask])
    fac = s.pd[mask] / inst24.pd[mask]
    assert np.all(fac >= 0.85 - 1e-12) and np.all(fac <= 1.15 + 1e-12)
    # the factor is constant over time per bus
    fac2d = np.divide(s.pd, inst24.pd, out=np.ones_like(s.pd),
                      where=inst24.pd != 0)
    assert np.allclose(fac2d, fac2d[:, :1])


def test_sinusoidal_scheme(inst24):
    s = apply_load_scheme(inst24, LoadScheme(kind="sinusoidal",
                                             amplitude=0.1))
    t = np.arange(1, inst24.horizon + 1)
    expect = 1.0 + 0.1 * np.sin(2 * np.pi * t / 24.0)
    mask = inst24.pd[:, 0] != 0
    assert np.allclose(s.pd[mask] / inst24.pd[mask], expect)


def test_scheme_validation():
    with pytest.raises(ValidationError):
        LoadScheme(kind="step")
    with pytest.raises(ValidationError):
        LoadScheme(kind="uniform", scale=1.5)
    with pytest.raises(ValidationError):
        LoadScheme(kind="sinusoidal", amplitude=0.5)
    with pytest.raises(ValidationError):
        LoadScheme(kind="per-bus-random", spread=0.5)


@pytest.mark.parametrize("field, kind, bound, outward", [
    ("scale", "uniform", 0.85, 0.0),
    ("scale", "uniform", 1.15, 2.0),
    ("amplitude", "sinusoidal", 0.0, -1.0),
    ("amplitude", "sinusoidal", 0.15, 1.0),
    ("spread", "per-bus-random", 0.0, -1.0),
    ("spread", "per-bus-random", 0.15, 1.0),
])
def test_scheme_envelope_bounds(field, kind, bound, outward):
    LoadScheme(kind=kind, **{field: bound})
    with pytest.raises(ValidationError):
        LoadScheme(kind=kind, **{field: float(np.nextafter(bound, outward))})

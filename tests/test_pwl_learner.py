import json
from dataclasses import fields

import numpy as np
import pytest

from compactpf.jacobian import LinearPFModel
from compactpf.pwl_learner import (TrainConfig, CompactPWLModel, DirectNNModel,
                                   train_compact, train_direct,
                                   sparsify_retrain, evaluate_model,
                                   enumerate_activation_patterns,
                                   model_to_json, model_from_json)
from compactpf.errors import ValidationError


def _toy_problem(seed=0, nsamp=200, d_in=3, d_out=2, rho=2):
    """Synthetic target: affine part plus a known ReLU correction."""
    rng = np.random.default_rng(seed)
    J = rng.standard_normal((d_out, d_in))
    r = rng.standard_normal(d_out)
    lin = LinearPFModel(Jstar=J, rstar=r, x0=np.zeros(d_in))
    w1 = rng.standard_normal((d_in, rho))
    w2 = rng.standard_normal((d_out, rho))
    b = rng.standard_normal(rho) * 0.1
    X = rng.uniform(-1, 1, (nsamp, d_in))
    Y = lin.predict(X) + np.maximum(X @ w1 + b, 0.0) @ w2.T
    return lin, X, Y


def test_train_compact_learns_relu_correction():
    lin, X, Y = _toy_problem()
    cfg = TrainConfig(lr=5e-3, batch=50, steps=8000, seed=1)
    model = train_compact(X, Y, lin, 4, cfg)
    stats = evaluate_model(model, X, Y)
    # realizable target: the correction must beat the affine part clearly
    assert stats.mean_compact < 0.2 * stats.mean_linear


def test_train_compact_never_worse_than_linear():
    lin, X, Y = _toy_problem(seed=2)
    # absurd lr aborts into the w2 = 0 fallback rather than diverging
    cfg = TrainConfig(lr=1e-6, batch=50, steps=5, seed=1)
    model = train_compact(X, Y, lin, 4, cfg)
    stats = evaluate_model(model, X, Y)
    assert stats.mean_compact <= stats.mean_linear + 1e-12


def test_batch_clamped_to_dataset():
    lin, X, Y = _toy_problem(nsamp=10)
    cfg = TrainConfig(lr=1e-3, batch=75, steps=50, seed=0)
    model = train_compact(X, Y, lin, 2, cfg)  # must not raise
    assert model.rho == 2
    with pytest.raises(ValidationError):
        train_compact(X[:0], Y[:0], lin, 2, cfg)


def test_training_deterministic():
    lin, X, Y = _toy_problem()
    cfg = TrainConfig(lr=1e-3, batch=50, steps=500, seed=3)
    a = train_compact(X, Y, lin, 3, cfg)
    b = train_compact(X, Y, lin, 3, cfg)
    assert np.array_equal(a.w1, b.w1)
    assert np.array_equal(a.w2, b.w2)
    assert np.array_equal(a.b, b.b)


def test_train_direct():
    lin, X, Y = _toy_problem()
    cfg = TrainConfig(lr=5e-3, batch=50, steps=4000, seed=1)
    direct = train_direct(X, Y, 8, cfg)
    assert direct.rho == 8
    err = np.abs(Y - direct.predict(X)).sum(axis=1).mean()
    assert np.isfinite(err)


def test_training_curve_is_a_field():
    """Each model class declares its loss curve: empty when built by hand,
    the (step, loss) record of the run when trained."""
    lin, X, Y = _toy_problem()
    cfg = TrainConfig(lr=1e-3, batch=50, steps=1000, seed=0)
    trained = (train_compact(X, Y, lin, 2, cfg), train_direct(X, Y, 2, cfg))
    for model in trained:
        assert "training_curve" in {f.name for f in fields(model)}
        steps = [step for step, _ in model.training_curve]
        assert steps[0] == 0 and steps[-1] == cfg.steps
        assert all(np.isfinite(loss) for _, loss in model.training_curve)
    w = np.zeros((3, 1))
    a = CompactPWLModel(w1=w, w2=np.zeros((2, 1)), b=np.zeros(1), linear=lin)
    b = DirectNNModel(w1=w, w2=np.zeros((2, 1)), b=np.zeros(1))
    assert a.training_curve == [] and b.training_curve == []
    assert a.training_curve is not b.training_curve


def test_sparsify_freezes_weights():
    lin, X, Y = _toy_problem()
    cfg = TrainConfig(lr=5e-3, batch=50, steps=2000, seed=1)
    model = train_compact(X, Y, lin, 4, cfg)
    sparse = sparsify_retrain(model, X, Y, 0.5, cfg)
    nz = np.count_nonzero(sparse.mask1) + np.count_nonzero(sparse.mask2)
    total = sparse.mask1.size + sparse.mask2.size
    assert nz <= total - int(0.5 * total) + 1
    # frozen entries stay exactly zero after retraining
    assert np.all(sparse.w1[~sparse.mask1] == 0.0)
    assert np.all(sparse.w2[~sparse.mask2] == 0.0)
    with pytest.raises(ValidationError):
        sparsify_retrain(model, X, Y, 1.0, cfg)


def test_activation_pattern_enumeration():
    lin, X, Y = _toy_problem(rho=2)
    cfg = TrainConfig(lr=5e-3, batch=50, steps=2000, seed=1)
    model = train_compact(X, Y, lin, 2, cfg)
    patterns = enumerate_activation_patterns(model, X)
    assert 1 <= len(patterns) <= 4
    for key, Jloc in patterns.items():
        pi = np.diag(np.array(key, dtype=float))
        expect = lin.Jstar + model.w2 @ pi @ model.w1.T
        assert np.allclose(Jloc, expect)


def test_model_predict_definition():
    lin, X, _ = _toy_problem()
    rng = np.random.default_rng(9)
    model = CompactPWLModel(w1=rng.standard_normal((3, 2)),
                            w2=rng.standard_normal((2, 2)),
                            b=rng.standard_normal(2), linear=lin)
    x = X[0]
    manual = lin.predict(x) + model.w2 @ np.maximum(model.w1.T @ x + model.b,
                                                    0.0)
    assert np.allclose(model.predict(x), manual)
    # batch and single-row predictions agree
    assert np.allclose(model.predict(X)[0], model.predict(X[0]))


def test_json_round_trip(compact8):
    text = model_to_json(compact8)
    again = model_from_json(text)
    assert np.array_equal(again.w1, compact8.w1)
    assert np.array_equal(again.w2, compact8.w2)
    assert np.array_equal(again.b, compact8.b)
    assert np.array_equal(again.linear.Jstar, compact8.linear.Jstar)
    assert np.array_equal(again.linear.rstar, compact8.linear.rstar)
    # big-M bounds hold over one system's box only: a model file that
    # carries them is refused, naming the key
    doc = json.loads(text)
    doc["bounds"] = {"m_min": [0.0] * compact8.rho}
    with pytest.raises(ValidationError, match="'bounds'"):
        model_from_json(json.dumps(doc))
    doc = json.loads(text)
    del doc["x0"]
    with pytest.raises(ValidationError, match="'x0'"):
        model_from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["rho"] += 1
    with pytest.raises(ValidationError, match="do not match"):
        model_from_json(json.dumps(doc))
    with pytest.raises(ValidationError):
        model_from_json('{"kind": "other"}')


def test_evaluate_model_requires_data(compact3):
    with pytest.raises(ValidationError):
        evaluate_model(compact3, np.empty((0, compact3.d_in)),
                       np.empty((0, compact3.d_out)))

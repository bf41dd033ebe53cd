"""The flat-vector trainer against the per-array reference loop.

``_reference_train_core`` and ``_ReferenceAdam`` are the earlier trainer,
one array at a time, kept here as the oracle: the trained weights, masks
and training curves must be the same bytes.
"""

import numpy as np
import pytest

from compactpf import pwl_learner
from compactpf.errors import ValidationError
from compactpf.jacobian import LinearPFModel
from compactpf.pwl_learner import (BETA1, BETA2, EPS, LOG_EVERY, TrainConfig,
                                   sparsify_retrain, train_compact,
                                   train_direct)


class _ReferenceAdam:
    def __init__(self, shapes, lr):
        self.lr = lr
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, grads):
        self.t += 1
        out = []
        for k, g in enumerate(grads):
            self.m[k] = BETA1 * self.m[k] + (1 - BETA1) * g
            self.v[k] = BETA2 * self.v[k] + (1 - BETA2) * g * g
            mh = self.m[k] / (1 - BETA1 ** self.t)
            vh = self.v[k] / (1 - BETA2 ** self.t)
            out.append(self.lr * mh / (np.sqrt(vh) + EPS))
        return out


def _reference_train_core(X, R, w1, w2, b, mask1, mask2, cfg):
    """Minimize ||R - relu(X w1 + b) w2'||^2 over mini-batches.

    R is the residual target (Y for the direct model, Y - linear(X) for
    the compact model). Returns trained parameters and the loss curve.
    """
    nsamp = X.shape[0]
    if nsamp == 0:
        raise ValidationError("empty training set")
    batch = min(cfg.batch, nsamp)
    rng = np.random.default_rng(cfg.seed)
    opt = _ReferenceAdam([w1.shape, w2.shape, b.shape], cfg.lr)
    curve = []
    order = rng.permutation(nsamp)
    pos = 0
    for step in range(cfg.steps):
        if pos + batch > nsamp:
            order = rng.permutation(nsamp)
            pos = 0
        sel = order[pos:pos + batch]
        pos += batch
        Xb, Rb = X[sel], R[sel]

        zhat = Xb @ w1 + b
        act = zhat > 0
        z = np.where(act, zhat, 0.0)
        err = z @ w2.T - Rb
        loss = float(np.mean(err ** 2))
        if not np.isfinite(loss):
            raise ValidationError(f"training diverged (NaN loss at step {step})")
        if step % LOG_EVERY == 0:
            curve.append((step, loss))

        g = (2.0 / err.size) * err
        gw2 = g.T @ z
        dz = (g @ w2) * act
        gw1 = Xb.T @ dz
        gb = dz.sum(axis=0)
        gw1 *= mask1
        gw2 *= mask2
        dw1, dw2, db = opt.step([gw1, gw2, gb])
        w1 -= dw1
        w2 -= dw2
        b -= db
        w1 *= mask1
        w2 *= mask2
    # final full-data loss
    z = np.maximum(X @ w1 + b, 0.0)
    curve.append((cfg.steps, float(np.mean((z @ w2.T - R) ** 2))))
    return w1, w2, b, curve


def _problem(nsamp, d_in=6, d_out=5, rho=4, seed=0):
    """A ReLU-plus-affine target with noise, so training keeps moving."""
    rng = np.random.default_rng(seed)
    lin = LinearPFModel(Jstar=rng.standard_normal((d_out, d_in)),
                        rstar=rng.standard_normal(d_out), x0=np.zeros(d_in))
    X = rng.uniform(-1, 1, (nsamp, d_in))
    Y = (lin.predict(X)
         + np.maximum(X @ rng.standard_normal((d_in, rho)), 0.0)
         @ rng.standard_normal((d_out, rho)).T
         + 0.01 * rng.standard_normal((nsamp, d_out)))
    return lin, X, Y


def _reference_on_copies(X, R, w1, w2, b, mask1, mask2, cfg):
    """The reference loop updates its arguments in place; the trainer
    leaves them as they are, and its callers pass their own arrays."""
    return _reference_train_core(X, R, w1.copy(), w2.copy(), b.copy(),
                                 mask1, mask2, cfg)


def _both(monkeypatch, train):
    """``train()`` under the reference loop, then under the trainer."""
    with monkeypatch.context() as m:
        m.setattr(pwl_learner, "_train_core", _reference_on_copies)
        want = train()
    return want, train()


def _assert_same(want, got):
    for name in ("w1", "w2", "b", "mask1", "mask2"):
        if hasattr(want, name):
            a, b = getattr(want, name), getattr(got, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
    assert repr(want.training_curve) == repr(got.training_curve)


@pytest.mark.parametrize("nsamp, batch", [(40, 15), (12, 75)],
                         ids=["reshuffle", "batch_clamped"])
def test_train_compact_matches_reference(monkeypatch, nsamp, batch):
    lin, X, Y = _problem(nsamp)
    cfg = TrainConfig(lr=5e-3, batch=batch, steps=1200, seed=3)
    _assert_same(*_both(monkeypatch, lambda: train_compact(X, Y, lin, 4, cfg)))


def test_sparsify_retrain_matches_reference(monkeypatch):
    lin, X, Y = _problem(40)
    cfg = TrainConfig(lr=5e-3, batch=15, steps=800, seed=1)
    dense = train_compact(X, Y, lin, 4, cfg)
    before = [a.tobytes() for a in (dense.w1, dense.w2, dense.b)]
    want, got = _both(monkeypatch,
                      lambda: sparsify_retrain(dense, X, Y, 0.5, cfg))
    assert not got.mask1.all() and not got.mask2.all()
    assert [a.tobytes() for a in (dense.w1, dense.w2, dense.b)] == before
    _assert_same(want, got)


def test_train_direct_matches_reference(monkeypatch):
    _, X, Y = _problem(40)
    cfg = TrainConfig(lr=5e-3, batch=15, steps=1200, seed=2)
    _assert_same(*_both(monkeypatch, lambda: train_direct(X, Y, 4, cfg)))


def test_divergence_matches_reference(monkeypatch):
    _, X, Y = _problem(40)
    cfg = TrainConfig(lr=1e300, batch=15, steps=200, seed=0)
    messages = []
    for core in (_reference_on_copies, pwl_learner._train_core):
        monkeypatch.setattr(pwl_learner, "_train_core", core)
        with (pytest.raises(ValidationError, match="training diverged") as e,
              np.errstate(over="ignore", invalid="ignore")):
            train_direct(X, Y, 4, cfg)
        messages.append(str(e.value))
    assert messages[0] == messages[1]

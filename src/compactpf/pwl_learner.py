"""Training of the compact piecewise-linear power flow surrogate.

The compact model is y = Jstar x + rstar + w2 relu(w1' x + b): a fixed
physics-based affine feedthrough plus a learned single-hidden-layer
correction. A "direct" variant (no feedthrough) is kept as a baseline.
Training uses in-repo mini-batched ADAM with manual backpropagation;
the model is small enough that a learning framework buys nothing.

With arrays of a few hundred entries, a training step costs numpy calls,
not arithmetic. The trainer therefore holds the parameters, their
gradient and their mask as one flat vector each, with w1, w2 and b as
reshaped views, and ADAM's two moments as the rows of one (2, N) array:
the backward pass writes into the gradient's views, and each elementwise
step of the update is one call for all three arrays. Every operation
keeps the rounding order of a per-array update, so the weights and
curves are the same bytes as the textbook loop gives.
"""

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .jacobian import LinearPFModel

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # ADAM moment decays and damping
LOG_EVERY = 500                        # training-curve record interval


@dataclass
class TrainConfig:
    lr: float = 2.5e-4
    batch: int = 75
    steps: int = 75000
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValidationError("learning rate must be positive")


@dataclass
class CompactPWLModel:
    w1: np.ndarray          # (d_in, rho)
    w2: np.ndarray          # (d_out, rho)
    b: np.ndarray           # (rho,)
    linear: LinearPFModel   # Jstar, rstar feedthrough
    mask1: np.ndarray = None  # boolean, False = frozen at zero
    mask2: np.ndarray = None
    training_curve: list = field(default_factory=list)  # (step, loss)

    def __post_init__(self):
        if self.mask1 is None:
            self.mask1 = np.ones_like(self.w1, dtype=bool)
        if self.mask2 is None:
            self.mask2 = np.ones_like(self.w2, dtype=bool)
        if self.rho < 1:
            raise ValidationError("model needs at least one ReLU")

    @property
    def rho(self):
        return self.w1.shape[1]

    @property
    def d_in(self):
        return self.w1.shape[0]

    @property
    def d_out(self):
        return self.w2.shape[0]

    def preactivation(self, x):
        return np.asarray(x, dtype=float) @ self.w1 + self.b

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        z = np.maximum(self.preactivation(x), 0.0)
        return self.linear.predict(x) + z @ self.w2.T


@dataclass
class DirectNNModel:
    w1: np.ndarray
    w2: np.ndarray
    b: np.ndarray
    training_curve: list = field(default_factory=list)  # (step, loss)

    @property
    def rho(self):
        return self.w1.shape[1]

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        z = np.maximum(x @ self.w1 + self.b, 0.0)
        return z @ self.w2.T


@dataclass
class ErrorStats:
    """Per-sample and mean 1-norm prediction errors."""
    linear_l1: np.ndarray
    compact_l1: np.ndarray
    direct_l1: np.ndarray = None

    @property
    def mean_linear(self):
        return float(np.mean(self.linear_l1))

    @property
    def mean_compact(self):
        return float(np.mean(self.compact_l1))

    @property
    def mean_direct(self):
        return float(np.mean(self.direct_l1)) if self.direct_l1 is not None else None


def _train_core(X, R, w1, w2, b, mask1, mask2, cfg):
    """Minimize ||R - relu(X w1 + b) w2'||^2 over mini-batches by ADAM.

    R is the residual target (Y for the direct model, Y - linear(X) for
    the compact model). The arguments are left as they are. Returns the
    trained parameters, views of one flat vector (see the module
    docstring), and the loss curve.
    """
    nsamp = X.shape[0]
    if nsamp == 0:
        raise ValidationError("empty training set")
    batch = min(cfg.batch, nsamp)
    rng = np.random.default_rng(cfg.seed)

    cut1, cut2 = w1.size, w1.size + w2.size

    def views(flat):
        return (flat[:cut1].reshape(w1.shape),
                flat[cut1:cut2].reshape(w2.shape), flat[cut2:])

    theta = np.concatenate([w1.ravel(), w2.ravel(), b])
    mask = np.concatenate([mask1.ravel(), mask2.ravel(),
                           np.ones(b.size, dtype=bool)])
    grad = np.empty_like(theta)
    w1, w2, b = views(theta)
    gw1, gw2, gb = views(grad)
    dz = np.empty((batch, b.size))
    scale = 2.0 / (batch * R.shape[1])   # d(mean squared error)/d(err)
    # ADAM's moments m and v are the rows of one array. Each elementwise
    # operation keeps the order of the per-array update m = B1 m + (1-B1) g,
    # v = B2 v + ((1-B2) g) g, update = (lr (m/c1)) / (sqrt(v/c2) + EPS),
    # so the result is the same bit for bit.
    moments = np.zeros((2, theta.size))
    incr = np.empty_like(moments)
    unbiased = np.empty_like(moments)
    update, denom = unbiased             # rows: m/c1 and v/c2, in place
    incr_v = incr[1]
    decay = np.array([[BETA1], [BETA2]])
    gain = np.array([[1 - BETA1], [1 - BETA2]])
    correction = np.empty((2, 1))
    c1c2 = correction.ravel()

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

        zhat = Xb @ w1
        zhat += b
        act = zhat > 0
        z = np.where(act, zhat, 0.0)
        err = z @ w2.T
        err -= Rb
        loss = np.add.reduce(err * err, axis=None) / err.size
        if not math.isfinite(loss):
            raise ValidationError(f"training diverged (NaN loss at step {step})")
        if step % LOG_EVERY == 0:
            curve.append((step, float(loss)))

        err *= scale
        np.matmul(err.T, z, out=gw2)
        np.matmul(err, w2, out=dz)
        dz *= act
        np.matmul(Xb.T, dz, out=gw1)
        np.add.reduce(dz, axis=0, out=gb)
        grad *= mask

        c1c2[0] = 1 - BETA1 ** (step + 1)
        c1c2[1] = 1 - BETA2 ** (step + 1)
        np.multiply(gain, grad, out=incr)
        incr_v *= grad
        moments *= decay
        moments += incr
        np.divide(moments, correction, out=unbiased)
        update *= cfg.lr
        np.sqrt(denom, out=denom)
        denom += EPS
        update /= denom
        theta -= update
        theta *= mask
    # final full-data loss
    z = np.maximum(X @ w1 + b, 0.0)
    curve.append((cfg.steps, float(np.mean((z @ w2.T - R) ** 2))))
    return w1, w2, b, curve


def train_compact(X, Y, lin, rho, cfg, warm=None):
    """Train the compact model on dataset (X, Y) around linear model lin.

    w2 starts at zero so the initial model is exactly the linear model;
    training can only improve on it (in training loss). A ``warm`` model
    supplies the starting weights and the masks of the trainable ones.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    d_in, d_out = lin.d_in, lin.d_out
    if X.shape[0] == 0:
        raise ValidationError("empty training set")
    if X.shape[1] != d_in or Y.shape[1] != d_out:
        raise ValidationError("dataset/linear-model dimension mismatch")
    rng = np.random.default_rng(cfg.seed)
    if warm is not None:
        w1, w2, b = warm.w1, warm.w2, warm.b
        m1, m2 = warm.mask1, warm.mask2
    else:
        w1 = rng.standard_normal((d_in, rho)) / np.sqrt(d_in)
        w2 = np.zeros((d_out, rho))
        b = np.zeros(rho)
        m1 = np.ones_like(w1, dtype=bool)
        m2 = np.ones_like(w2, dtype=bool)
    R = Y - lin.predict(X)
    base_loss = float(np.mean(R ** 2))
    w1, w2, b, curve = _train_core(X, R, w1 * m1, w2 * m2, b, m1, m2, cfg)
    if curve[-1][1] > base_loss:
        # never return a model worse than the plain linear feedthrough
        w2 = np.zeros_like(w2)
        curve.append((cfg.steps, base_loss))
    return CompactPWLModel(w1=w1, w2=w2, b=b, linear=lin, mask1=m1, mask2=m2,
                           training_curve=curve)


def train_direct(X, Y, rho, cfg):
    """Train the direct mapping y = w2 relu(w1' x + b) (no feedthrough)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    d_in, d_out = X.shape[1], Y.shape[1]
    w1 = rng.standard_normal((d_in, rho)) / np.sqrt(d_in)
    w2 = rng.standard_normal((d_out, rho)) / np.sqrt(rho)
    b = np.zeros(rho)
    ones1 = np.ones_like(w1, dtype=bool)
    ones2 = np.ones_like(w2, dtype=bool)
    w1, w2, b, curve = _train_core(X, Y, w1, w2, b, ones1, ones2, cfg)
    return DirectNNModel(w1=w1, w2=w2, b=b, training_curve=curve)


def sparsify_retrain(model, X, Y, target, cfg):
    """Zero the smallest-magnitude fraction `target` of (w1, w2) entries,
    freeze them, and retrain the surviving weights."""
    if not 0.0 <= target < 1.0:
        raise ValidationError("sparsity target must be in [0, 1)")
    mags = np.concatenate([np.abs(model.w1).ravel(), np.abs(model.w2).ravel()])
    k = int(np.floor(target * mags.size))
    if k == 0:
        mask1 = model.mask1.copy()
        mask2 = model.mask2.copy()
    else:
        cutoff = np.partition(mags, k - 1)[k - 1]
        mask1 = model.mask1 & (np.abs(model.w1) > cutoff)
        mask2 = model.mask2 & (np.abs(model.w2) > cutoff)
    warm = replace(model, w1=model.w1 * mask1, w2=model.w2 * mask2,
                   mask1=mask1, mask2=mask2)
    return train_compact(X, Y, model.linear, model.rho, cfg, warm=warm)


def evaluate_model(compact, X, Y, direct=None):
    """Per-sample L1 errors of the linear, compact, and direct models."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[0] == 0:
        raise ValidationError("empty dataset")
    lin_err = np.abs(Y - compact.linear.predict(X)).sum(axis=1)
    pw_err = np.abs(Y - compact.predict(X)).sum(axis=1)
    nn_err = None
    if direct is not None:
        nn_err = np.abs(Y - direct.predict(X)).sum(axis=1)
    return ErrorStats(linear_l1=lin_err, compact_l1=pw_err, direct_l1=nn_err)


def enumerate_activation_patterns(model, sample_inputs):
    """Observed ReLU on/off patterns and their local Jacobians.

    Returns {pattern tuple -> local Jacobian Jstar + w2 diag(pi) w1'}.
    """
    X = np.atleast_2d(np.asarray(sample_inputs, dtype=float))
    act = (X @ model.w1 + model.b) > 0
    out = {}
    for row in act:
        key = tuple(int(v) for v in row)
        if key not in out:
            pi = np.array(key, dtype=float)
            out[key] = model.linear.Jstar + model.w2 @ np.diag(pi) @ model.w1.T
    return out


# ---------------------------------------------------------------------------
# Serialization (JSON round-trips float64 exactly via repr)
# ---------------------------------------------------------------------------

_MODEL_KEYS = frozenset({"kind", "rho", "d_in", "d_out", "w1", "w2", "b",
                         "mask1", "mask2", "Jstar", "rstar", "x0"})


def model_to_json(model):
    """The model's weights, masks and linearization as JSON. It carries
    no big-M bounds: those hold only over one system's box, so whoever
    encodes the model computes them for the system it encodes."""
    return json.dumps({
        "kind": "compact_pwl",
        "rho": model.rho,
        "d_in": model.d_in,
        "d_out": model.d_out,
        "w1": model.w1.tolist(),
        "w2": model.w2.tolist(),
        "b": model.b.tolist(),
        "mask1": model.mask1.astype(int).tolist(),
        "mask2": model.mask2.astype(int).tolist(),
        "Jstar": model.linear.Jstar.tolist(),
        "rstar": model.linear.rstar.tolist(),
        "x0": model.linear.x0.tolist(),
    })


def model_from_json(text):
    """Inverse of ``model_to_json``, refusing unknown or missing keys."""
    doc = json.loads(text)
    if doc.get("kind") != "compact_pwl":
        raise ValidationError("not a compact PWL model document")
    odd = sorted(set(doc) ^ _MODEL_KEYS)
    if odd:
        raise ValidationError(f"model document: unknown or missing keys {odd}")
    lin = LinearPFModel(
        Jstar=np.array(doc["Jstar"]), rstar=np.array(doc["rstar"]),
        x0=np.array(doc["x0"]))
    model = CompactPWLModel(
        w1=np.array(doc["w1"]), w2=np.array(doc["w2"]), b=np.array(doc["b"]),
        linear=lin,
        mask1=np.array(doc["mask1"], dtype=bool),
        mask2=np.array(doc["mask2"], dtype=bool))
    if [doc["rho"], doc["d_in"], doc["d_out"]] != [model.rho, model.d_in,
                                                   model.d_out]:
        raise ValidationError("model document: rho/d_in/d_out do not match "
                              "its weights")
    return model

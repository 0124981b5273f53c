"""Dense layers with hand-derived gradients, plus a finite-difference checker.

Everything runs in float64: the gradient verification tolerances used
throughout the test suite are not reachable in float32. A "matrix" here is
simply a 2-D float64 ndarray (row-major); layers keep their own gradient
buffers which the backward functions accumulate into and the caller zeroes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BN_MOMENTUM = 0.1  # running = (1 - BN_MOMENTUM) * running + BN_MOMENTUM * batch
BN_EPSILON = 1e-5  # added to the variance before its square root


def _as_batch(x, cols, what="input"):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{what} must be 2-D, got shape {x.shape}")
    if x.shape[1] != cols:
        raise ValueError(f"{what} has {x.shape[1]} columns, expected {cols}")
    return x


@dataclass
class AffineLayer:
    """y = x @ weight.T + bias, with gradient buffers shape-matched to params."""

    weight: np.ndarray  # (out, in)
    bias: np.ndarray    # (out,)
    grad_weight: np.ndarray = field(init=False)
    grad_bias: np.ndarray = field(init=False)

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError(
                f"inconsistent affine shapes: weight {self.weight.shape}, bias {self.bias.shape}"
            )
        # np.zeros, unlike zeros_like, leaves a large buffer's pages
        # untouched, so a layer built only to be bound into a model costs
        # no memory for gradients it never uses
        self.grad_weight = np.zeros(self.weight.shape)
        self.grad_bias = np.zeros(self.bias.shape)

    @property
    def out_dim(self):
        return self.weight.shape[0]

    @property
    def in_dim(self):
        return self.weight.shape[1]


def affine_forward(x, layer):
    """x: (batch, in) -> (batch, out)."""
    x = _as_batch(x, layer.in_dim)
    return x @ layer.weight.T + layer.bias


def affine_backward(grad_out, cached_x, layer):
    """Accumulate dW = grad_out.T @ x and db = sum(grad_out); return dx = grad_out @ W."""
    grad_out = _as_batch(grad_out, layer.out_dim, "grad_out")
    cached_x = _as_batch(cached_x, layer.in_dim, "cached x")
    if grad_out.shape[0] != cached_x.shape[0]:
        raise ValueError(
            f"batch mismatch: grad_out {grad_out.shape[0]} vs cached x {cached_x.shape[0]}"
        )
    layer.grad_weight += grad_out.T @ cached_x
    layer.grad_bias += grad_out.sum(axis=0)
    return grad_out @ layer.weight


@dataclass
class BatchNormLayer:
    """Batch normalization over the batch axis of (batch, width) inputs."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    grad_gamma: np.ndarray = field(init=False)
    grad_beta: np.ndarray = field(init=False)

    def __post_init__(self):
        names = ("gamma", "beta", "running_mean", "running_var")
        for name in names:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        shapes = [getattr(self, name).shape for name in names]
        if len(shapes[0]) != 1 or shapes.count(shapes[0]) != 4:
            raise ValueError("batch-norm vectors must be 1-D of one width: " + ", ".join(
                f"{name} {shape}" for name, shape in zip(names, shapes)))
        if np.any(self.running_var < 0.0):
            raise ValueError("running_var must be >= 0 elementwise")
        self.grad_gamma = np.zeros(self.gamma.shape)
        self.grad_beta = np.zeros(self.beta.shape)

    @property
    def width(self):
        return self.gamma.shape[0]


def mlp_layout(in_dim, hidden_dim, out_dim, output_bias):
    """Blocks of affine -> batch norm -> affine as (attribute path, shape,
    trained, init rule), in file order.

    The hidden bias never trains: batch norm cancels it. ``output_bias``
    says whether the output bias trains.
    """
    h = hidden_dim
    return (("hidden.weight", (h, in_dim), True, "glorot"),
            ("hidden.bias", (h,), False, "zeros"),
            ("bn.gamma", (h,), True, "ones"), ("bn.beta", (h,), True, "zeros"),
            ("bn.running_mean", (h,), False, "zeros"),
            ("bn.running_var", (h,), False, "ones"),
            ("output.weight", (out_dim, h), True, "glorot"),
            ("output.bias", (out_dim,), output_bias, "zeros"))


@dataclass
class BatchNormCache:
    x_hat: np.ndarray
    inv_std: np.ndarray


def batchnorm_forward(x, layer, mode):
    """Returns (y, cache). cache is None in eval mode.

    Train mode normalizes with batch statistics (biased variance) and folds
    them into the running estimates with
    ``running = (1-BN_MOMENTUM)*running + BN_MOMENTUM*batch``; its output never
    reads the running statistics. Eval mode uses the running statistics and
    never mutates the layer. ``mode`` is "train" or "eval".
    """
    x = _as_batch(x, layer.width)
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval":
        inv_std = 1.0 / np.sqrt(layer.running_var + BN_EPSILON)
        x_hat = (x - layer.running_mean) * inv_std
        return layer.gamma * x_hat + layer.beta, None
    if x.shape[0] < 2:
        raise ValueError("train-mode batch normalization needs batch >= 2")
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    m = BN_MOMENTUM
    layer.running_mean[:] = (1.0 - m) * layer.running_mean + m * mean
    layer.running_var[:] = (1.0 - m) * layer.running_var + m * var
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    x_hat = (x - mean) * inv_std
    return layer.gamma * x_hat + layer.beta, BatchNormCache(x_hat=x_hat, inv_std=inv_std)


def batchnorm_backward(grad_out, cache, layer):
    """Exact gradient of the train-mode normalization; accumulates gamma/beta grads."""
    if cache is None:
        raise ValueError("batchnorm_backward needs the cache from a train-mode forward")
    grad_out = _as_batch(grad_out, layer.width, "grad_out")
    x_hat = cache.x_hat
    if grad_out.shape != x_hat.shape:
        raise ValueError(f"grad_out shape {grad_out.shape} != cached {x_hat.shape}")
    n = grad_out.shape[0]
    layer.grad_gamma += (grad_out * x_hat).sum(axis=0)
    layer.grad_beta += grad_out.sum(axis=0)
    g = grad_out * layer.gamma
    return (cache.inv_std / n) * (n * g - g.sum(axis=0) - x_hat * (g * x_hat).sum(axis=0))


def relu_forward(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_backward(grad_out, cached_x):
    """Gradient passes where x > 0; the subgradient at exactly 0 is 0."""
    grad_out = np.asarray(grad_out, dtype=np.float64)
    cached_x = np.asarray(cached_x, dtype=np.float64)
    if grad_out.shape != cached_x.shape:
        raise ValueError(f"grad_out shape {grad_out.shape} != cached x {cached_x.shape}")
    return np.where(cached_x > 0.0, grad_out, 0.0)


def softmax(scores):
    """Max-subtracted softmax along the last axis; rejects NaN input."""
    scores = np.asarray(scores, dtype=np.float64)
    if np.isnan(scores).any():
        raise ValueError("softmax input contains NaN")
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class GradCheckReport:
    max_rel_err: float
    failing_param: str | None
    failing_index: tuple | None
    passed: bool
    per_param: dict

    def __str__(self):
        where = f"{self.failing_param}{list(self.failing_index or ())}"
        verdict = "pass" if self.passed else "FAIL"
        return f"grad check {verdict}: max rel err {self.max_rel_err:.3e} at {where}"


GRAD_CHECK_STEP = 1e-5  # central-difference step, in parameter units


def grad_check(loss_fn, params, analytic, tolerance=1e-4):
    """Compare analytic gradients against central finite differences.

    loss_fn takes no arguments, reads the current contents of the arrays in
    ``params`` (dict name -> float64 array) and returns a scalar loss. It must
    be deterministic; this is verified by evaluating it twice up front.
    ``analytic`` maps the same names to gradient arrays. Entries of ``params``
    are perturbed in place by +-GRAD_CHECK_STEP and restored afterwards.
    Relative error per coordinate is |a-n| / max(|a|, |n|, 1e-8).
    """
    first = float(loss_fn())
    second = float(loss_fn())
    if first != second:
        raise ValueError(
            f"loss closure is not deterministic: {first!r} != {second!r} on repeated eval"
        )
    max_rel = 0.0
    worst_param = None
    worst_index = None
    per_param = {}
    for name, arr in params.items():
        arr = np.asarray(arr)
        grad = np.asarray(analytic[name])
        if grad.shape != arr.shape:
            raise ValueError(f"gradient for {name!r} has shape {grad.shape}, param {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"parameter {name!r} contains non-finite entries")
        param_max = 0.0
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRAD_CHECK_STEP
            loss_plus = float(loss_fn())
            flat[i] = orig - GRAD_CHECK_STEP
            loss_minus = float(loss_fn())
            flat[i] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * GRAD_CHECK_STEP)
            a = gflat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > param_max:
                param_max = rel
            if rel > max_rel:
                max_rel = rel
                worst_param = name
                worst_index = tuple(int(v) for v in np.unravel_index(i, arr.shape))
        per_param[name] = param_max
    return GradCheckReport(
        max_rel_err=max_rel,
        failing_param=worst_param,
        failing_index=worst_index,
        passed=max_rel <= tolerance,
        per_param=per_param,
    )

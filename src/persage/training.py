"""End-to-end optimization of the weight generator and its two baselines.

Three model kinds train under one loop, one loss, and one optimizer:

* ``"metaage"``: per-sample classifier weights from the residual generator,
  scored against that sample's age features.
* ``"global"``: a single shared class-weight table; identity features are
  ignored, so this is exactly the generator with its residual removed.
* ``"concat"``: a two-layer MLP (hidden width H, batch norm + ReLU) on the
  concatenation of age and identity features.

An optional age-feature adapter, a trainable D x D affine map initialized to
the identity, stands in for fine-tuning an age backbone. It applies uniformly
to every kind so the comparison stays fair. Identity features are never
transformed by anything trainable; they enter only as constant inputs.
"""

from dataclasses import dataclass, field, replace
import math
from operator import attrgetter
import os
import struct
from typing import Callable

import numpy as np

from .data import batches, split
from .estimator import expected_ages
from .losses import LossConfig, batch_loss
from .mathcore import (
    AffineLayer,
    BatchNormLayer,
    affine_backward,
    affine_forward,
    batchnorm_backward,
    batchnorm_forward,
    init_affine,
    relu_backward,
    relu_forward,
    softmax,
)
from .metalearner import (
    Dims,
    MetaLearnerParams,
    init_params,
    personal_scores,
    personal_scores_backward,
)
from .metrics import eval_result


@dataclass
class TrainConfig:
    """Everything a run needs besides the data."""

    dims: Dims
    lam: float = 0.2
    delta: float = 2.0
    lr: float = 1e-4
    betas: tuple = (0.9, 0.999)
    adam_epsilon: float = 1e-8
    batch_size: int = 64
    epochs: int = 60
    seed: int = 0
    target_mode: str = "hard_onehot"
    model_kind: str = "metaage"
    use_adapter: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        b1, b2 = self.betas
        if not (0.0 < b1 < 1.0 and 0.0 < b2 < 1.0):
            raise ValueError(f"betas must lie in (0, 1), got {self.betas}")
        if self.adam_epsilon <= 0.0:
            raise ValueError(f"adam_epsilon must be > 0, got {self.adam_epsilon}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {MODEL_KINDS}, "
                             f"got {self.model_kind!r}")
        self.loss_config()  # validates lam, delta, target_mode

    def loss_config(self):
        return LossConfig(lam=self.lam, delta=self.delta,
                          target_mode=self.target_mode)


# ------------------------------------------------------------------ optimizer

@dataclass
class AdamState:
    """First/second moment buffers, parallel to the parameter list."""

    m: list
    v: list
    t: int = 0


def init_adam(params):
    return AdamState(m=[np.zeros_like(p) for p in params],
                     v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state, lr, betas, eps):
    """One bias-corrected Adam update, applied to the parameters in place.

    params, grads, and the state buffers are parallel lists of arrays.
    """
    if not (len(params) == len(grads) == len(state.m) == len(state.v)):
        raise ValueError(f"parameter list lengths disagree: {len(params)} params, "
                         f"{len(grads)} grads, {len(state.m)} moment buffers")
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape or p.shape != state.m[i].shape:
            raise ValueError(f"parameter {i}: shapes {p.shape} / {g.shape} / "
                             f"{state.m[i].shape} disagree")
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"non-finite gradient in parameter {i} (shape {g.shape})")
    state.t += 1
    b1, b2 = betas
    correct1 = 1.0 - b1 ** state.t
    correct2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / correct1) / (np.sqrt(v / correct2) + eps)


# --------------------------------------------------------------------- models

@dataclass
class ConcatParams:
    """Two-layer MLP over [age features, identity features].

    The hidden bias stays zero (batch norm subtracts any constant shift);
    the output bias is live, unlike the generator's, because a per-class
    offset here is not absorbed by any other parameter.
    """

    hidden: AffineLayer
    bn: BatchNormLayer
    output: AffineLayer
    dims: Dims

    def zero_grad(self):
        self.hidden.zero_grad()
        self.bn.zero_grad()
        self.output.zero_grad()

    def trainable(self):
        return {
            "hidden.weight": (self.hidden.weight, self.hidden.grad_weight),
            "bn.gamma": (self.bn.gamma, self.bn.grad_gamma),
            "bn.beta": (self.bn.beta, self.bn.grad_beta),
            "output.weight": (self.output.weight, self.output.grad_weight),
            "output.bias": (self.output.bias, self.output.grad_bias),
        }


def init_concat(dims, seed):
    rng = np.random.default_rng(seed)
    return ConcatParams(
        hidden=init_affine(dims.hidden_dim, dims.age_dim + dims.id_dim, rng),
        bn=BatchNormLayer(gamma=np.ones(dims.hidden_dim),
                          beta=np.zeros(dims.hidden_dim),
                          running_mean=np.zeros(dims.hidden_dim),
                          running_var=np.ones(dims.hidden_dim)),
        output=init_affine(dims.n_classes, dims.hidden_dim, rng),
        dims=dims)


def _concat_forward(mlp, g, id_feats, mode):
    x = np.concatenate([g, id_feats], axis=1)
    pre = affine_forward(x, mlp.hidden)
    normed, bn_cache = batchnorm_forward(pre, mlp.bn, mode=mode)
    hidden = relu_forward(normed)
    return affine_forward(hidden, mlp.output), (x, normed, bn_cache, hidden)


def _concat_backward(mlp, grad_scores, cache):
    x, normed, bn_cache, hidden = cache
    grad_hidden = affine_backward(grad_scores, hidden, mlp.output)
    grad_normed = relu_backward(grad_hidden, normed)
    grad_pre = batchnorm_backward(grad_normed, bn_cache, mlp.bn)
    return affine_backward(grad_pre, x, mlp.hidden)[:, :mlp.dims.age_dim]


def _mlp_layout(in_dim, hidden_dim, out_dim):
    """Checkpoint blocks of affine -> batch norm -> affine, in file order."""
    h = hidden_dim
    return (("hidden.weight", (h, in_dim)), ("hidden.bias", (h,)),
            ("bn.gamma", (h,)), ("bn.beta", (h,)),
            ("bn.running_mean", (h,)), ("bn.running_var", (h,)),
            ("output.weight", (out_dim, h)), ("output.bias", (out_dim,)))


@dataclass(frozen=True)
class _Kind:
    """Everything that differs by model kind; ``_KINDS`` holds one per kind."""

    code: int            # the kind byte of a version-2 checkpoint
    slot: str            # the TrainedModel attribute holding the parameters
    init: Callable       # (dims, seed) -> parameters
    trainable: Callable  # parameters -> {name: (param, grad)}
    forward: Callable    # (parameters, g, id_feats, mode) -> (scores, cache)
    backward: Callable   # (parameters, grad_scores, cache) -> d(loss)/d(g)
    layout: Callable     # dims -> checkpoint blocks as (attribute path, shape)


_KINDS = {
    "metaage": _Kind(
        code=0, slot="meta", init=init_params,
        trainable=MetaLearnerParams.trainable,
        forward=lambda meta, g, id_feats, mode: personal_scores(
            meta, id_feats, g, mode),
        backward=personal_scores_backward,
        layout=lambda d: (("w_common", (d.n_classes, d.age_dim)),)
        + _mlp_layout(d.residual_in, d.hidden_dim, d.age_dim)),
    # bias-free by design: this keeps the baseline exactly equal to the
    # generator with its residual zeroed, which has no bias either
    "global": _Kind(
        code=1, slot="table",
        init=lambda d, seed: init_affine(d.n_classes, d.age_dim,
                                         np.random.default_rng(seed)),
        trainable=lambda table: {"table": (table.weight, table.grad_weight)},
        forward=lambda table, g, id_feats, mode: (affine_forward(g, table), g),
        backward=lambda table, grad_scores, g: affine_backward(grad_scores, g,
                                                               table),
        layout=lambda d: (("weight", (d.n_classes, d.age_dim)),)),
    "concat": _Kind(
        code=2, slot="mlp", init=init_concat, trainable=ConcatParams.trainable,
        forward=_concat_forward, backward=_concat_backward,
        layout=lambda d: _mlp_layout(d.age_dim + d.id_dim, d.hidden_dim,
                                     d.n_classes)),
}
MODEL_KINDS = tuple(_KINDS)


def init_adapter(dims):
    # identity map at the start, so untouched age features pass through
    return AffineLayer(weight=np.eye(dims.age_dim), bias=np.zeros(dims.age_dim))


@dataclass
class TrainedModel:
    """Parameters for one model kind plus its per-epoch (loss, MAE) history."""

    kind: str
    dims: Dims
    meta: MetaLearnerParams = None
    table: AffineLayer = None
    mlp: ConcatParams = None
    adapter: AffineLayer = None
    history: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        filled = [spec.slot for spec in _KINDS.values()
                  if getattr(self, spec.slot) is not None]
        if filled != [_KINDS[self.kind].slot]:
            raise ValueError(f"kind {self.kind!r} requires exactly its own "
                             f"parameter slot to be set")

    @property
    def params(self):
        """The parameters of the model's own kind, without the adapter."""
        return getattr(self, _KINDS[self.kind].slot)

    def zero_grad(self):
        self.params.zero_grad()
        if self.adapter is not None:
            self.adapter.zero_grad()

    def trainable(self):
        """name -> (param, grad), everything the optimizer touches."""
        items = dict(_KINDS[self.kind].trainable(self.params))
        if self.adapter is not None:
            items["adapter.weight"] = (self.adapter.weight,
                                       self.adapter.grad_weight)
            items["adapter.bias"] = (self.adapter.bias, self.adapter.grad_bias)
        return items


def init_model(config):
    d = config.dims
    spec = _KINDS[config.model_kind]
    return TrainedModel(kind=config.model_kind, dims=d,
                        adapter=init_adapter(d) if config.use_adapter else None,
                        **{spec.slot: spec.init(d, config.seed)})


# ----------------------------------------------------------- forward/backward

def model_forward(model, age_feats, id_feats, mode):
    """Class scores (B, K) plus the cache the backward pass needs."""
    age_feats = np.asarray(age_feats, dtype=np.float64)
    id_feats = np.asarray(id_feats, dtype=np.float64)
    if model.adapter is not None:
        g = affine_forward(age_feats, model.adapter)
    else:
        g = age_feats
    scores, cache = _KINDS[model.kind].forward(model.params, g, id_feats, mode)
    return scores, (model.kind, age_feats, cache)


def model_backward(model, grad_scores, cache):
    """Accumulate parameter gradients for the cached forward pass."""
    kind, raw, kind_cache = cache
    if kind != model.kind:
        raise ValueError(f"cache from kind {kind!r} fed to {model.kind!r}")
    grad_g = _KINDS[kind].backward(model.params, grad_scores, kind_cache)
    if model.adapter is not None:
        affine_backward(grad_g, raw, model.adapter)


_PREDICT_CHUNK = 512  # samples per eval-mode model_forward call


def model_predict(model, age_feats, id_feats):
    """Expected ages in eval mode, _PREDICT_CHUNK samples at a time.

    Eval mode makes each sample independent of the rest of its chunk, so the
    chunking bounds memory and moves a prediction by rounding at most.
    """
    age_feats = np.asarray(age_feats, dtype=np.float64)
    id_feats = np.asarray(id_feats, dtype=np.float64)
    out = []
    for start in range(0, age_feats.shape[0], _PREDICT_CHUNK):
        stop = start + _PREDICT_CHUNK
        scores, _ = model_forward(model, age_feats[start:stop],
                                  id_feats[start:stop], mode="eval")
        out.append(expected_ages(softmax(scores)))
    if not out:
        return np.zeros(0)
    return np.concatenate(out)


# ------------------------------------------------------------------- training

def _check_dims(dataset, dims):
    if dataset.age_feats.shape[1] != dims.age_dim:
        raise ValueError(f"age feature width {dataset.age_feats.shape[1]} "
                         f"does not match configured age_dim {dims.age_dim}")
    if dataset.id_feats.shape[1] != dims.id_dim:
        raise ValueError(f"identity feature width {dataset.id_feats.shape[1]} "
                         f"does not match configured id_dim {dims.id_dim}")
    if dataset.n_classes != dims.n_classes:
        raise ValueError(f"dataset has {dataset.n_classes} classes, "
                         f"config expects {dims.n_classes}")


def train(dataset, config, model=None):
    """Full optimization loop; returns the trained model.

    Pass ``model`` to keep training existing parameters (it is mutated and
    returned); otherwise parameters are freshly seeded from the config.
    History gains one (mean loss, train MAE) pair per epoch, computed from
    the training-mode forward passes. Dataset buffers are never written.
    """
    _check_dims(dataset, config.dims)
    if len(dataset) < 2:
        raise ValueError(f"training needs at least 2 samples, got {len(dataset)}")
    if model is None:
        model = init_model(config)
    else:
        if model.kind != config.model_kind:
            raise ValueError(f"model kind {model.kind!r} does not match config "
                             f"model_kind {config.model_kind!r}")
        if model.dims != config.dims:
            raise ValueError(f"model dims {model.dims} != config dims {config.dims}")
    loss_cfg = config.loss_config()
    named = model.trainable()
    params = [p for p, _ in named.values()]
    grads = [g for _, g in named.values()]
    state = init_adam(params)
    n = len(dataset)
    for epoch in range(config.epochs):
        loss_sum = 0.0
        abs_err_sum = 0.0
        seen = 0
        for batch_index, idx in enumerate(batches(n, config.batch_size,
                                                  config.seed, epoch)):
            model.zero_grad()
            scores, cache = model_forward(model, dataset.age_feats[idx],
                                          dataset.id_feats[idx], mode="train")
            # non-finite scores have no loss; they stop the run here too
            loss, grad_scores = (batch_loss(scores, dataset.labels[idx],
                                            dataset.sigmas[idx], loss_cfg)
                                 if np.isfinite(scores).all() else (np.nan, None))
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"loss became non-finite at epoch {epoch + 1}, "
                    f"batch {batch_index} ({model.kind} model)")
            model_backward(model, grad_scores, cache)
            adam_step(params, grads, state, config.lr, config.betas,
                      config.adam_epsilon)
            preds = expected_ages(softmax(scores))
            loss_sum += loss * idx.size
            abs_err_sum += float(np.abs(preds - dataset.labels[idx]).sum())
            seen += idx.size
        model.history.append((loss_sum / seen, abs_err_sum / seen))
    return model


def evaluate(model, dataset):
    """Metric bundle over eval-mode predictions. Repeated calls are identical.

    The sigma-weighted error is included only when every record carries a
    sigma.
    """
    _check_dims(dataset, model.dims)
    preds = model_predict(model, dataset.age_feats, dataset.id_feats)
    sigmas = dataset.sigmas if dataset.has_all_sigmas() else None
    return eval_result(preds, dataset.labels, sigmas=sigmas)


def lambda_delta_sweep(dataset, config, lambda_grid, delta_grid, holdout=None):
    """Test MAE over a (lambda, delta) grid, one full run per point.

    Every point trains from the same seed. Without an explicit ``holdout``
    set the dataset is split 80/20 first, identity-disjoint when identity
    tags are present. Returns (lambda, delta, mae) rows in grid order.
    """
    lambda_grid = [float(v) for v in lambda_grid]
    delta_grid = [float(v) for v in delta_grid]
    if not lambda_grid or not delta_grid:
        raise ValueError("sweep grids must be non-empty")
    if holdout is None:
        by_id = len(dataset) > 0 and dataset.identity_ids.min() >= 0
        train_set, test_set = split(dataset, (0.8, 0.2), config.seed,
                                    by_identity=by_id)
    else:
        train_set, test_set = dataset, holdout
    rows = []
    for lam in lambda_grid:
        for delta in delta_grid:
            cfg = replace(config, lam=lam, delta=delta)
            result = evaluate(train(train_set, cfg), test_set)
            rows.append((lam, delta, result.mae))
    return rows


def sweep_csv(rows):
    lines = ["lambda,delta,mae"]
    for lam, delta, mae_value in rows:
        lines.append(f"{lam!r},{delta!r},{mae_value!r}")
    return "\n".join(lines) + "\n"


def history_csv(model):
    """Per-epoch training curve as CSV text, epochs numbered from 1."""
    lines = ["epoch,loss,train_mae"]
    for epoch, (loss, mae_value) in enumerate(model.history, 1):
        lines.append(f"{epoch},{loss!r},{mae_value!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- checkpoints

# The MAPC container. Version 1 holds a bare generator: "MAPC", the version
# byte, the u32 dims K, D, F, H and the generator's blocks. Version 2 holds a
# TrainedModel: a model-kind byte and an adapter flag follow the version
# byte, and the adapter's blocks follow the kind's when flagged. Blocks are
# little-endian float64 in the kind's layout order. History is a CSV side
# artifact, not part of the checkpoint.
_HEADERS = {1: struct.Struct("<4sB4I"), 2: struct.Struct("<4sBBB4I")}


class CheckpointError(Exception):
    """Raised with a byte offset when a checkpoint file cannot be decoded."""


def _layout(kind, dims, adapter):
    """The model's checkpoint blocks as (attribute path, shape), file order."""
    spec = _KINDS[kind]
    blocks = tuple((f"{spec.slot}.{name}", shape)
                   for name, shape in spec.layout(dims))
    if adapter:
        d = dims.age_dim
        blocks += (("adapter.weight", (d, d)), ("adapter.bias", (d,)))
    return blocks


def _save(path, version, fields, model):
    d = model.dims
    with open(path, "wb") as fh:
        fh.write(_HEADERS[version].pack(b"MAPC", version, *fields, d.n_classes,
                                        d.age_dim, d.id_dim, d.hidden_dim))
        for name, _ in _layout(model.kind, d, model.adapter is not None):
            fh.write(np.ascontiguousarray(attrgetter(name)(model),
                                          dtype="<f8").tobytes())


def save_params(path, params):
    """Version-1 checkpoint of a bare generator, without kind or adapter."""
    _save(path, 1, (), TrainedModel(kind="metaage", dims=params.dims,
                                    meta=params))


def save_model(path, model):
    """Version-2 checkpoint of a model of any kind."""
    _save(path, 2, (_KINDS[model.kind].code, model.adapter is not None), model)


def _read_exact(fh, n, offset, what):
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(
            f"truncated checkpoint at byte offset {offset}: "
            f"needed {n} bytes for {what}, got {len(data)}")
    return data


def _load(path, version):
    """Read a checkpoint of the given version into a TrainedModel.

    The payload size follows from the header dims in Python ints, so a
    forged header can neither overflow it nor make the reader allocate it:
    the file must hold exactly that many bytes before a block is read.
    """
    header = _HEADERS[version]
    with open(path, "rb") as fh:
        magic, got, *fields, k, dd, ff, hh = header.unpack(
            _read_exact(fh, header.size, 0, "the header"))
        if magic != b"MAPC":
            raise CheckpointError(f"bad magic {magic!r} at byte offset 0")
        if got != version:
            raise CheckpointError(f"unsupported version {got} at byte offset 4")
        code, adapter = fields or (0, 0)  # version 1 holds a bare generator
        kinds = {spec.code: kind for kind, spec in _KINDS.items()}
        if code not in kinds:
            raise CheckpointError(f"unknown model kind {code} at byte offset 5")
        if adapter not in (0, 1):
            raise CheckpointError(
                f"adapter flag must be 0 or 1, got {adapter} at byte offset 6")
        try:
            dims = Dims(n_classes=k, age_dim=dd, id_dim=ff, hidden_dim=hh)
        except ValueError as exc:
            raise CheckpointError(f"invalid dims at byte offset "
                                  f"{header.size - 16}: {exc}") from exc
        kind = kinds[code]
        layout = _layout(kind, dims, adapter)
        offset = header.size
        payload = 8 * sum(math.prod(shape) for _, shape in layout)
        size = os.fstat(fh.fileno()).st_size
        if size < offset + payload:
            raise CheckpointError(
                f"truncated checkpoint at byte offset {size}: the header declares "
                f"{payload} payload bytes from byte offset {offset}, the file "
                f"holds {size - offset}")
        if size > offset + payload:
            raise CheckpointError(f"trailing data at byte offset {offset + payload}")
        data = _read_exact(fh, payload, offset, "the blocks")
    spec = _KINDS[kind]
    model = TrainedModel(kind=kind, dims=dims,
                         adapter=init_adapter(dims) if adapter else None,
                         **{spec.slot: spec.init(dims, 0)})
    for name, shape in layout:
        block = np.frombuffer(data, dtype="<f8", count=math.prod(shape),
                              offset=offset - header.size).reshape(shape)
        if not np.isfinite(block).all():
            raise CheckpointError(
                f"non-finite values in {name} block at byte offset {offset}")
        if name.endswith("running_var") and (block < 0.0).any():
            raise CheckpointError(f"invalid batch-norm state at byte offset "
                                  f"{offset}: negative running variance")
        attrgetter(name)(model)[...] = block
        offset += block.nbytes
    return model


def load_params(path):
    """Rebuild MetaLearnerParams from a version-1 checkpoint."""
    return _load(path, 1).meta


def load_model(path):
    """Rebuild a TrainedModel from a version-2 checkpoint. History starts empty."""
    return _load(path, 2)

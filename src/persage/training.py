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

import copy
from dataclasses import dataclass, field, replace
import math
from operator import attrgetter
import os
import struct
from typing import Callable

import numpy as np

from .data import batches
from .estimator import expected_ages
from .losses import LossConfig, batch_loss
from .mathcore import (
    AffineLayer,
    BatchNormLayer,
    affine_backward,
    affine_forward,
    batchnorm_backward,
    batchnorm_forward,
    mlp_layout,
    relu_backward,
    relu_forward,
    softmax,
)
from .metalearner import (
    Dims,
    MetaLearnerParams,
    layout as metalearner_layout,
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
    batch_size: int = 64
    epochs: int = 60
    seed: int = 0
    target_mode: str = "hard_onehot"
    model_kind: str = "metaage"
    use_adapter: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
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

ADAM_BETAS = (0.9, 0.999)  # decay rates of the first and second moments
ADAM_EPSILON = 1e-8        # added to the root of the second moment


@dataclass
class AdamState:
    """Adam's state for one parameter array: moments ``m`` and ``v``, shaped
    like it, two scratch arrays of the same shape that every step writes its
    temporaries into, and the step count ``t``.
    """

    m: np.ndarray
    v: np.ndarray
    scratch: tuple
    t: int = 0


def init_adam(param):
    return AdamState(m=np.zeros_like(param), v=np.zeros_like(param),
                     scratch=(np.empty_like(param), np.empty_like(param)))


def adam_step(param, grad, state, lr):
    """One bias-corrected Adam update, applied to ``param`` in place.

    ``train`` passes a model's whole ``values`` and ``grads`` buffers. Every
    temporary lands in ``state.scratch``, so a step allocates no array of the
    parameter's size. An element whose gradient and moments are all zero,
    such as one of a frozen block, is left unchanged bit for bit.
    """
    if not param.shape == grad.shape == state.m.shape:
        raise ValueError(f"shapes disagree: param {param.shape}, grad {grad.shape}, "
                         f"moments {state.m.shape}")
    if not np.isfinite(grad).all():
        raise FloatingPointError(f"non-finite gradient (shape {grad.shape})")
    state.t += 1
    b1, b2 = ADAM_BETAS
    a, b = state.scratch
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g²
    np.multiply(grad, 1.0 - b1, out=a)
    state.m *= b1
    state.m += a
    np.multiply(grad, grad, out=a)
    a *= 1.0 - b2
    state.v *= b2
    state.v += a
    # param -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    np.divide(state.v, 1.0 - b2 ** state.t, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPSILON
    np.divide(state.m, 1.0 - b1 ** state.t, out=b)
    b *= lr
    b /= a
    param -= b


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
    return _weight_backward(mlp.hidden, grad_pre, x)[:, :mlp.dims.age_dim]


def _mlp_layers(arrays):
    """The hidden, bn and output layers over the eight arrays of an
    ``mlp_layout``, in its order.
    """
    return dict(hidden=AffineLayer(*arrays[0:2]), bn=BatchNormLayer(*arrays[2:6]),
                output=AffineLayer(*arrays[6:8]))


def _weight_backward(layer, grad_out, x):
    """``affine_backward`` for a layer whose bias is frozen: the bias
    gradient stays untouched, so it remains exactly zero.
    """
    layer.grad_weight += grad_out.T @ x
    return grad_out @ layer.weight


@dataclass(frozen=True)
class _Kind:
    """Everything that differs by model kind; ``_KINDS`` holds one per kind."""

    code: int            # the kind byte of a version-2 checkpoint
    slot: str            # the TrainedModel attribute holding the parameters
    make: Callable       # (dims, arrays in layout order) -> parameters
    forward: Callable    # (parameters, g, id_feats, mode) -> (scores, cache)
    backward: Callable   # (parameters, grad_scores, cache) -> d(loss)/d(g)
    # dims -> blocks as (attribute path, shape, trained, init rule), in file
    # order; the rule is a key of _INIT_RULES
    layout: Callable


_KINDS = {
    "metaage": _Kind(
        code=0, slot="meta",
        make=lambda d, a: MetaLearnerParams(w_common=a[0], dims=d,
                                            **_mlp_layers(a[1:])),
        forward=lambda meta, g, id_feats, mode: personal_scores(
            meta, id_feats, g, mode),
        backward=personal_scores_backward,
        layout=metalearner_layout),
    # only the weight: this keeps the baseline exactly equal to the
    # generator with its residual zeroed, which has no bias either
    "global": _Kind(
        code=1, slot="table",
        make=lambda d, a: AffineLayer(weight=a[0], bias=np.zeros(d.n_classes)),
        forward=lambda table, g, id_feats, mode: (g @ table.weight.T, g),
        backward=_weight_backward,
        layout=lambda d: (("weight", (d.n_classes, d.age_dim), True, "glorot"),)),
    "concat": _Kind(
        code=2, slot="mlp", make=lambda d, a: ConcatParams(dims=d, **_mlp_layers(a)),
        forward=_concat_forward, backward=_concat_backward,
        layout=lambda d: mlp_layout(d.age_dim + d.id_dim, d.hidden_dim,
                                    d.n_classes, True)),
}
MODEL_KINDS = tuple(_KINDS)


def _glorot(block, rng):
    # Glorot and Bengio (AISTATS 2010): uniform on +-sqrt(6 / (in + out)),
    # drawn in place as rng.uniform(-bound, bound) computes it, bit for bit
    bound = np.sqrt(6.0 / sum(block.shape))
    rng.random(out=block)
    block *= 2.0 * bound
    block -= bound


# how each block of a new model starts; a rule that draws takes its numbers
# from the model's one generator, so the blocks draw in file order
_INIT_RULES = {
    "glorot": _glorot,
    "zeros": lambda block, rng: None,  # the buffer starts zero
    "ones": lambda block, rng: block.fill(1.0),
    "identity": lambda block, rng: np.fill_diagonal(block, 1.0),
}


@dataclass
class TrainedModel:
    """Parameters for one model kind plus its per-epoch (loss, MAE) history.

    Construction takes ownership of the layers passed in. Every block of
    the checkpoint layout is copied into ``values``, one float64 buffer in
    file order, and its attribute is rebound to a view of it; the block's
    gradient buffer, where its layer has one, is copied and rebound the
    same way into the parallel buffer ``grads``. An array held from before
    construction is then detached from the model. Each layout block also
    declares its init rule: ``init_model`` fills a new model's ``values``
    block by block from one generator in file order. A loaded, pickled,
    copied or deep-copied model draws nothing: it is rebuilt around a zero
    buffer of its own that the source ``values`` are read into, with
    ``history`` copied and ``grads`` zero.
    """

    kind: str
    dims: Dims
    meta: MetaLearnerParams = None
    table: AffineLayer = None
    mlp: ConcatParams = None
    adapter: AffineLayer = None
    history: list = field(default_factory=list)
    values: np.ndarray = field(init=False, repr=False)
    grads: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        filled = [spec.slot for spec in _KINDS.values()
                  if getattr(self, spec.slot) is not None]
        if filled != [_KINDS[self.kind].slot]:
            raise ValueError(f"kind {self.kind!r} requires exactly its own "
                             f"parameter slot to be set")
        spans = _spans(self.layout())
        # little-endian, as the checkpoint stores it
        self.values = np.zeros(spans[-1][-1], dtype="<f8")
        self.grads = np.zeros_like(self.values)
        for path, shape, _, _, start, stop in spans:
            owner, _, leaf = path.rpartition(".")
            owner = attrgetter(owner)(self)
            for buffer, name in ((self.values, leaf), (self.grads, "grad_" + leaf)):
                if not hasattr(owner, name):
                    continue  # running statistics have no gradient
                array = getattr(owner, name)
                if np.shape(array) != shape:
                    raise ValueError(f"{path} needs shape {shape}, "
                                     f"{name} has {np.shape(array)}")
                view = buffer[start:stop].reshape(shape)
                view[...] = array
                setattr(owner, name, view)

    def __reduce__(self):
        # copied field by field, every view would become an array detached
        # from the copied buffers
        return _restore, (self.kind, self.dims, self.adapter is not None,
                          self.values, self.history)

    @property
    def params(self):
        """The parameters of the model's own kind, without the adapter."""
        return getattr(self, _KINDS[self.kind].slot)

    def layout(self):
        """The checkpoint blocks as (attribute path, shape, trained, init rule)."""
        return _layout(self.kind, self.dims, self.adapter is not None)

    def zero_grad(self):
        self.grads.fill(0.0)

    def trainable(self):
        """name -> (param, grad) views of every trained block, file order.

        Names are the layout paths without the kind's slot, so the adapter's
        keep their ``adapter.`` prefix.
        """
        slot = _KINDS[self.kind].slot + "."
        return {path.removeprefix(slot): (self.values[start:stop].reshape(shape),
                                          self.grads[start:stop].reshape(shape))
                for path, shape, trained, _, start, stop in _spans(self.layout())
                if trained}


def _build(kind, dims, adapter, seed=None):
    """A new model of the kind, with an adapter if asked.

    Given a seed, each block is filled by its init rule from one
    ``default_rng(seed)``, in file order; without one, ``values`` stays
    zero and nothing is drawn.
    """
    blocks = _layout(kind, dims, adapter)
    arrays = [np.zeros(shape) for _, shape, _, _ in blocks]
    spec = _KINDS[kind]
    model = TrainedModel(kind=kind, dims=dims,
                         adapter=AffineLayer(*arrays[-2:]) if adapter else None,
                         **{spec.slot: spec.make(dims, arrays)})
    if seed is not None:
        rng = np.random.default_rng(seed)
        for _, shape, _, rule, start, stop in _spans(blocks):
            _INIT_RULES[rule](model.values[start:stop].reshape(shape), rng)
    return model


def _restore(kind, dims, adapter, values, history):
    """The model ``TrainedModel.__reduce__`` describes, owning its buffers."""
    model = _build(kind, dims, adapter)
    model.values[...] = values
    model.history = list(history)
    return model


def init_model(config):
    return _build(config.model_kind, config.dims, config.use_adapter, config.seed)


def init_params(dims, seed):
    """A seeded generator: the parameters of a new metaage model."""
    return _build("metaage", dims, False, seed).meta


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


# samples per eval-mode model_forward call; it bounds the (chunk, K + D + H)
# rows a call holds (0.9 MB at the acceptance size), while metaage's hidden
# rows come in tiles of metalearner._TILE_BYTES whatever the chunk
_PREDICT_CHUNK = 512


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
        if (model.adapter is not None) != config.use_adapter:
            raise ValueError(f"model {'has no' if model.adapter is None else 'has an'}"
                             f" adapter, config use_adapter={config.use_adapter}")
    loss_cfg = config.loss_config()
    state = init_adam(model.values)
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
            adam_step(model.values, model.grads, state, config.lr)
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


def lambda_delta_sweep(dataset, config, lambda_grid, delta_grid, holdout):
    """Test MAE over a (lambda, delta) grid, one full run per point.

    Every point trains on ``dataset`` from the same seed and is scored on
    ``holdout``. Returns (lambda, delta, mae) rows in grid order. Every grid
    value and the holdout's widths are checked before the first point trains.
    """
    deltas = [float(v) for v in delta_grid]
    configs = [replace(config, lam=float(lam), delta=delta)
               for lam in lambda_grid for delta in deltas]
    if not configs:
        raise ValueError("sweep grids must be non-empty")
    _check_dims(holdout, config.dims)
    return [(cfg.lam, cfg.delta, evaluate(train(dataset, cfg), holdout).mae)
            for cfg in configs]


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
# byte, and the adapter's blocks follow the kind's when flagged. The blocks
# are a TrainedModel's ``values`` buffer: little-endian float64 in layout
# order. History is a CSV side artifact, not part of the checkpoint.
_HEADERS = {1: struct.Struct("<4sB4I"), 2: struct.Struct("<4sBBB4I")}


class CheckpointError(Exception):
    """Raised with a byte offset when a checkpoint file cannot be decoded."""


def _layout(kind, dims, adapter):
    """A model's blocks as (attribute path, shape, trained, init rule), file order.

    The adapter starts as the identity map, so untouched age features pass
    through.
    """
    spec = _KINDS[kind]
    blocks = tuple((f"{spec.slot}.{name}", *rest)
                   for name, *rest in spec.layout(dims))
    if adapter:
        d = dims.age_dim
        blocks += (("adapter.weight", (d, d), True, "identity"),
                   ("adapter.bias", (d,), True, "zeros"))
    return blocks


def _spans(blocks):
    """Each block with its [start, stop) in a flat buffer, as a list."""
    spans, start = [], 0
    for block in blocks:
        spans.append((*block, start, start + math.prod(block[1])))
        start += math.prod(block[1])
    return spans


def _save(path, version, fields, model):
    d = model.dims
    with open(path, "wb") as fh:
        fh.write(_HEADERS[version].pack(b"MAPC", version, *fields, d.n_classes,
                                        d.age_dim, d.id_dim, d.hidden_dim))
        fh.write(model.values)


def save_params(path, params):
    """Version-1 checkpoint of a bare generator, without kind or adapter.

    ``params`` is copied first, so the caller's arrays stay its own.
    """
    _save(path, 1, (), TrainedModel(kind="metaage", dims=params.dims,
                                    meta=copy.deepcopy(params)))


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
    the file must hold exactly that many bytes before the model is built
    and the payload read into its ``values``.
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
        spans = _spans(_layout(kind, dims, adapter))
        offset = header.size
        payload = 8 * spans[-1][-1]
        size = os.fstat(fh.fileno()).st_size
        if size < offset + payload:
            raise CheckpointError(
                f"truncated checkpoint at byte offset {size}: the header declares "
                f"{payload} payload bytes from byte offset {offset}, the file "
                f"holds {size - offset}")
        if size > offset + payload:
            raise CheckpointError(f"trailing data at byte offset {offset + payload}")
        model = _build(kind, dims, adapter)
        got = fh.readinto(model.values)
        if got != payload:
            raise CheckpointError(
                f"truncated checkpoint at byte offset {offset + got}: "
                f"needed {payload} bytes for the blocks, got {got}")
    for name, _, _, _, start, stop in spans:
        block = model.values[start:stop]
        if not np.isfinite(block).all():
            raise CheckpointError(f"non-finite values in {name} block at "
                                  f"byte offset {offset + 8 * start}")
        if name.endswith("running_var") and (block < 0.0).any():
            raise CheckpointError(f"invalid batch-norm state at byte offset "
                                  f"{offset + 8 * start}: negative running variance")
    return model


def load_params(path):
    """Rebuild MetaLearnerParams from a version-1 checkpoint."""
    return _load(path, 1).meta


def load_model(path):
    """Rebuild a TrainedModel from a version-2 checkpoint. History starts empty."""
    return _load(path, 2)

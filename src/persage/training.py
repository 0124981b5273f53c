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
import struct

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
    CheckpointError,
    Dims,
    MetaLearnerParams,
    _check_payload,
    _generator_floats,
    _read_exact,
    init_params,
    personal_scores,
    personal_scores_backward,
)
from .metrics import eval_result

MODEL_KINDS = ("metaage", "global", "concat")


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
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        slots = {"metaage": self.meta, "global": self.table, "concat": self.mlp}
        for kind, value in slots.items():
            if (value is None) == (kind == self.kind):
                raise ValueError(f"kind {self.kind!r} requires exactly its own "
                                 f"parameter slot to be set")

    def zero_grad(self):
        if self.kind == "metaage":
            self.meta.zero_grad()
        elif self.kind == "global":
            self.table.zero_grad()
        else:
            self.mlp.zero_grad()
        if self.adapter is not None:
            self.adapter.zero_grad()

    def trainable(self):
        """name -> (param, grad), everything the optimizer touches."""
        if self.kind == "metaage":
            items = dict(self.meta.trainable())
        elif self.kind == "global":
            items = {"table": (self.table.weight, self.table.grad_weight)}
        else:
            items = dict(self.mlp.trainable())
        if self.adapter is not None:
            items["adapter.weight"] = (self.adapter.weight,
                                       self.adapter.grad_weight)
            items["adapter.bias"] = (self.adapter.bias, self.adapter.grad_bias)
        return items


def init_model(config):
    d = config.dims
    adapter = init_adapter(d) if config.use_adapter else None
    if config.model_kind == "metaage":
        return TrainedModel(kind="metaage", dims=d,
                            meta=init_params(d, config.seed), adapter=adapter)
    if config.model_kind == "global":
        rng = np.random.default_rng(config.seed)
        # bias-free by design: this keeps the baseline exactly equal to the
        # generator with its residual zeroed, which has no bias either
        return TrainedModel(kind="global", dims=d,
                            table=init_affine(d.n_classes, d.age_dim, rng),
                            adapter=adapter)
    return TrainedModel(kind="concat", dims=d,
                        mlp=init_concat(d, config.seed), adapter=adapter)


# ----------------------------------------------------------- forward/backward

def model_forward(model, age_feats, id_feats, mode):
    """Class scores (B, K) plus the cache the backward pass needs."""
    age_feats = np.asarray(age_feats, dtype=np.float64)
    id_feats = np.asarray(id_feats, dtype=np.float64)
    if model.adapter is not None:
        g = affine_forward(age_feats, model.adapter)
    else:
        g = age_feats
    if model.kind == "metaage":
        scores, pcache = personal_scores(model.meta, id_feats, g, mode)
        return scores, ("metaage", age_feats, pcache)
    if model.kind == "global":
        scores = affine_forward(g, model.table)
        return scores, ("global", age_feats, g)
    x = np.concatenate([g, id_feats], axis=1)
    pre = affine_forward(x, model.mlp.hidden)
    normed, bn_cache = batchnorm_forward(pre, model.mlp.bn, mode=mode)
    hidden = relu_forward(normed)
    scores = affine_forward(hidden, model.mlp.output)
    return scores, ("concat", age_feats, g, x, normed, bn_cache, hidden)


def model_backward(model, grad_scores, cache):
    """Accumulate parameter gradients for the cached forward pass."""
    kind = cache[0]
    if kind != model.kind:
        raise ValueError(f"cache from kind {kind!r} fed to {model.kind!r}")
    if kind == "metaage":
        _, raw, pcache = cache
        grad_g = personal_scores_backward(model.meta, grad_scores, pcache)
    elif kind == "global":
        _, raw, g = cache
        grad_g = affine_backward(grad_scores, g, model.table)
    else:
        _, raw, g, x, normed, bn_cache, hidden = cache
        grad_hidden = affine_backward(grad_scores, hidden, model.mlp.output)
        grad_normed = relu_backward(grad_hidden, normed)
        grad_pre = batchnorm_backward(grad_normed, bn_cache, model.mlp.bn)
        grad_x = affine_backward(grad_pre, x, model.mlp.hidden)
        grad_g = grad_x[:, :model.dims.age_dim]
    if model.adapter is not None:
        affine_backward(grad_g, raw, model.adapter)


def model_predict(model, age_feats, id_feats, chunk=512):
    """Expected ages in eval mode, computed in bounded-memory chunks."""
    age_feats = np.asarray(age_feats, dtype=np.float64)
    id_feats = np.asarray(id_feats, dtype=np.float64)
    out = []
    for start in range(0, age_feats.shape[0], chunk):
        stop = start + chunk
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
            loss, grad_scores = batch_loss(scores, dataset.labels[idx],
                                           dataset.sigmas[idx], loss_cfg)
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


def train_baseline_concat(dataset, config):
    """Train the feature-concatenation baseline whatever config.model_kind says."""
    if config.model_kind != "concat":
        config = replace(config, model_kind="concat")
    return train(dataset, config)


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

# Version 2 of the MAPC container: after the magic and version byte come a
# model-kind byte and an adapter flag, then the u32 dims K, D, F, H, then the
# kind's float64 blocks and, if flagged, the adapter blocks. History is a CSV
# side artifact, not part of the checkpoint.
_KIND_CODES = {"metaage": 0, "global": 1, "concat": 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_V2_HEADER = struct.Struct("<4sBBB4I")


def _model_blocks(model):
    if model.kind == "metaage":
        p = model.meta
        blocks = [p.w_common, p.hidden.weight, p.hidden.bias, p.bn.gamma,
                  p.bn.beta, p.bn.running_mean, p.bn.running_var,
                  p.output.weight, p.output.bias]
    elif model.kind == "global":
        blocks = [model.table.weight]
    else:
        p = model.mlp
        blocks = [p.hidden.weight, p.hidden.bias, p.bn.gamma, p.bn.beta,
                  p.bn.running_mean, p.bn.running_var, p.output.weight,
                  p.output.bias]
    if model.adapter is not None:
        blocks.extend([model.adapter.weight, model.adapter.bias])
    return blocks


def _payload_bytes(kind, dims, adapter):
    """Bytes of the kind's float64 blocks plus the adapter's, if flagged."""
    k, dd, ff, hh = dims.n_classes, dims.age_dim, dims.id_dim, dims.hidden_dim
    floats = {"metaage": _generator_floats(dims),
              "global": k * dd,
              "concat": hh * (dd + ff) + 5 * hh + k * hh + k}[kind]
    if adapter:
        floats += dd * dd + dd
    return 8 * floats


def save_model(path, model):
    d = model.dims
    with open(path, "wb") as fh:
        fh.write(_V2_HEADER.pack(b"MAPC", 2, _KIND_CODES[model.kind],
                                 0 if model.adapter is None else 1,
                                 d.n_classes, d.age_dim, d.id_dim, d.hidden_dim))
        for arr in _model_blocks(model):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path):
    """Rebuild a TrainedModel from a version-2 checkpoint. History starts empty."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, 0, "magic")
        if magic != b"MAPC":
            raise CheckpointError(f"bad magic {magic!r} at byte offset 0")
        version = _read_exact(fh, 1, 4, "version")[0]
        if version != 2:
            raise CheckpointError(f"unsupported version {version} at byte offset 4")
        kind_code = _read_exact(fh, 1, 5, "model kind")[0]
        if kind_code not in _KIND_NAMES:
            raise CheckpointError(f"unknown model kind {kind_code} at byte offset 5")
        kind = _KIND_NAMES[kind_code]
        adapter_flag = _read_exact(fh, 1, 6, "adapter flag")[0]
        if adapter_flag not in (0, 1):
            raise CheckpointError(
                f"adapter flag must be 0 or 1, got {adapter_flag} at byte offset 6")
        k, dd, ff, hh = struct.unpack("<4I", _read_exact(fh, 16, 7, "dims"))
        try:
            dims = Dims(n_classes=k, age_dim=dd, id_dim=ff, hidden_dim=hh)
        except ValueError as exc:
            raise CheckpointError(f"invalid dims at byte offset 7: {exc}") from exc
        offset = _V2_HEADER.size
        _check_payload(fh, offset, _payload_bytes(kind, dims, adapter_flag))

        def block(shape, what):
            nonlocal offset
            start = offset
            n = int(np.prod(shape)) * 8
            data = _read_exact(fh, n, offset, what)
            offset += n
            arr = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)
            if not np.isfinite(arr).all():
                raise CheckpointError(
                    f"non-finite values in {what} block at byte offset {start}")
            return arr

        def read_bn():
            start = offset
            try:
                return BatchNormLayer(gamma=block((hh,), "bn gamma"),
                                      beta=block((hh,), "bn beta"),
                                      running_mean=block((hh,), "bn running mean"),
                                      running_var=block((hh,), "bn running var"))
            except ValueError as exc:
                raise CheckpointError(f"invalid batch-norm state at byte offset "
                                      f"{start}: {exc}") from exc

        meta = table = mlp = None
        if kind == "metaage":
            w_common = block((k, dd), "common weight table")
            hidden = AffineLayer(weight=block((hh, dims.residual_in), "hidden weight"),
                                 bias=block((hh,), "hidden bias"))
            bn = read_bn()
            output = AffineLayer(weight=block((dd, hh), "output weight"),
                                 bias=block((dd,), "output bias"))
            meta = MetaLearnerParams(w_common=w_common, hidden=hidden, bn=bn,
                                     output=output, dims=dims)
        elif kind == "global":
            table = AffineLayer(weight=block((k, dd), "class weight table"),
                                bias=np.zeros(k))
        else:
            hidden = AffineLayer(weight=block((hh, dd + ff), "hidden weight"),
                                 bias=block((hh,), "hidden bias"))
            bn = read_bn()
            output = AffineLayer(weight=block((k, hh), "output weight"),
                                 bias=block((k,), "output bias"))
            mlp = ConcatParams(hidden=hidden, bn=bn, output=output, dims=dims)
        adapter = None
        if adapter_flag:
            adapter = AffineLayer(weight=block((dd, dd), "adapter weight"),
                                  bias=block((dd,), "adapter bias"))
        trailing = fh.read(1)
        if trailing:
            raise CheckpointError(f"trailing data at byte offset {offset}")
    return TrainedModel(kind=kind, dims=dims, meta=meta, table=table, mlp=mlp,
                        adapter=adapter)

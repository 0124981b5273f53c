"""Optimizer, training-loop, and checkpoint-v2 behavior."""

import copy
import struct
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from operator import attrgetter

import numpy as np
import pytest

from persage import training
from persage.data import Dataset, SynthConfig, synth_generate
from persage.losses import batch_loss
from persage.mathcore import AffineLayer, affine_forward, grad_check, init_affine
from persage.metalearner import Dims, init_params
from persage.training import (
    MODEL_KINDS,
    AdamState,
    CheckpointError,
    TrainConfig,
    TrainedModel,
    adam_step,
    evaluate,
    history_csv,
    init_adam,
    init_model,
    lambda_delta_sweep,
    load_model,
    load_params,
    model_backward,
    model_forward,
    model_predict,
    save_model,
    sweep_csv,
    train,
)


def small_dims(**kw):
    base = dict(n_classes=12, age_dim=10, id_dim=6, hidden_dim=8)
    base.update(kw)
    return Dims(**base)


def small_dataset(seed=1, n_identities=6, per=4, k=12, d=10, f=6):
    config = SynthConfig(n_identities=n_identities, samples_per_identity=per,
                         n_classes=k, age_dim=d, id_dim=f, latent_dim=2,
                         offset_max=2.0, feature_noise=0.01, rbf_width=2.0,
                         seed=seed)
    return synth_generate(config)[0]


def quick_config(**kw):
    base = dict(dims=small_dims(), epochs=2, batch_size=8, lr=3e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# --------------------------------------------------------------------- config

def test_config_defaults_and_validation():
    cfg = TrainConfig(dims=small_dims())
    assert cfg.lr == 1e-4
    assert cfg.betas == (0.9, 0.999)
    assert cfg.batch_size == 64 and cfg.epochs == 60
    assert cfg.lam == 0.2 and cfg.delta == 2.0
    assert cfg.model_kind == "metaage" and cfg.use_adapter
    for bad in (dict(lr=0.0), dict(lr=-1.0), dict(betas=(1.0, 0.999)),
                dict(betas=(0.9, 0.0)), dict(adam_epsilon=0.0),
                dict(batch_size=1), dict(epochs=0), dict(model_kind="mlp"),
                dict(lam=-0.1), dict(target_mode="nonsense")):
        with pytest.raises(ValueError):
            TrainConfig(dims=small_dims(), **bad)
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(dims=small_dims(), seed=-1)


def test_trained_model_slot_validation():
    dims = small_dims()
    with pytest.raises(ValueError):
        TrainedModel(kind="metaage", dims=dims)  # missing params
    with pytest.raises(ValueError):
        TrainedModel(kind="global", dims=dims, meta=init_params(dims, 0))
    with pytest.raises(ValueError):
        TrainedModel(kind="sideways", dims=dims)
    wrong = init_affine(dims.n_classes + 1, dims.age_dim, np.random.default_rng(0))
    with pytest.raises(ValueError, match="shape"):
        TrainedModel(kind="global", dims=dims, table=wrong)


# ------------------------------------------------------------ parameter store

ALL_LAYOUTS = [(kind, adapter) for kind in MODEL_KINDS for adapter in (False, True)]
FROZEN = {"metaage": {"meta.hidden.bias", "meta.output.bias",
                      "meta.bn.running_mean", "meta.bn.running_var"},
          "global": set(),
          "concat": {"mlp.hidden.bias", "mlp.bn.running_mean",
                     "mlp.bn.running_var"}}


def _offset(view, buffer):
    """Index of view's first element in the flat buffer it shares memory with."""
    assert np.shares_memory(view, buffer)
    start = view.__array_interface__["data"][0] - buffer.__array_interface__["data"][0]
    return start // buffer.itemsize


def _grad_arrays(obj, path):
    """(path, array) of every grad_* array reachable from a layer tree."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name.startswith("grad_"):
            yield f"{path}.{f.name}", value
        elif is_dataclass(value) and not isinstance(value, Dims):
            yield from _grad_arrays(value, f"{path}.{f.name}")


@pytest.mark.parametrize("kind, adapter", ALL_LAYOUTS)
def test_every_block_is_a_view_of_the_store(kind, adapter):
    model = init_model(quick_config(model_kind=kind, use_adapter=adapter))
    start = 0
    for path, shape, trained in model.layout():
        owner, _, leaf = path.rpartition(".")
        array = attrgetter(path)(model)
        assert array.shape == shape and array.flags.c_contiguous
        assert _offset(array, model.values) == start
        grad = getattr(attrgetter(owner)(model), "grad_" + leaf, None)
        if grad is not None:
            assert grad.shape == shape and _offset(grad, model.grads) == start
        if trained:
            # trainable() names drop the kind's slot, not the adapter's
            name = path if owner.startswith("adapter") else path.split(".", 1)[1]
            param, pgrad = model.trainable()[name]
            assert _offset(param, model.values) == start
            assert _offset(pgrad, model.grads) == start
        start += int(np.prod(shape))
    assert start == model.values.size == model.grads.size
    assert model.values.dtype == np.float64 and not np.shares_memory(
        model.values, model.grads)
    assert {path for path, _, trained in model.layout() if not trained} == (
        FROZEN[kind])


def test_deep_copy_owns_its_own_store():
    ds = small_dataset()
    model = train(ds, quick_config(epochs=1))
    twin = copy.deepcopy(model)
    before = model.values.copy()
    assert np.array_equal(twin.values, before) and twin.history == model.history
    for path, _, _ in twin.layout():
        assert np.shares_memory(attrgetter(path)(twin), twin.values), path
    train(ds, quick_config(epochs=1), model=twin)
    assert np.array_equal(model.values, before)
    assert not np.array_equal(twin.values, before)


@pytest.mark.parametrize("kind, adapter", ALL_LAYOUTS)
def test_zero_grad_clears_every_gradient(kind, adapter):
    model = init_model(quick_config(model_kind=kind, use_adapter=adapter))
    ds = small_dataset()
    scores, cache = model_forward(model, ds.age_feats[:8], ds.id_feats[:8], "train")
    model_backward(model, batch_loss(scores, ds.labels[:8], None,
                                     quick_config().loss_config())[1], cache)
    assert model.grads.any()
    model.zero_grad()
    reachable = list(_grad_arrays(model, "model"))
    assert len(reachable) >= 2
    for path, grad in reachable:
        assert not grad.any(), path


@pytest.mark.parametrize("kind, adapter", ALL_LAYOUTS)
def test_frozen_biases_stay_zero_after_training(kind, adapter):
    model = train(small_dataset(), quick_config(model_kind=kind,
                                                use_adapter=adapter))
    for path in FROZEN[kind]:
        if path.endswith("bias"):
            assert not attrgetter(path)(model).any(), path


# ------------------------------------------------------------------ optimizer

def test_adam_zero_grads_leave_params_unchanged():
    rng = np.random.default_rng(0)
    p = rng.normal(size=(3, 4))
    before = p.copy()
    state = init_adam([p])
    adam_step([p], [np.zeros_like(p)], state, 1e-2, (0.9, 0.999), 1e-8)
    assert np.array_equal(p, before)
    assert state.t == 1
    # nonzero moments decay by exactly beta under a zero gradient
    state.m[0][:] = 1.0
    state.v[0][:] = 1.0
    adam_step([p], [np.zeros_like(p)], state, 1e-2, (0.9, 0.999), 1e-8)
    assert np.allclose(state.m[0], 0.9)
    assert np.allclose(state.v[0], 0.999)


def test_adam_first_step_magnitude():
    # bias correction makes the first update ~ lr regardless of beta values
    p = np.array([5.0])
    state = init_adam([p])
    adam_step([p], [np.array([1.0])], state, 1e-3, (0.9, 0.999), 1e-8)
    assert abs((5.0 - p[0]) - 1e-3) < 1e-10


def test_adam_deterministic_and_second_moments_nonnegative():
    rng = np.random.default_rng(3)
    trajectories = []
    for _ in range(2):
        p = np.linspace(-1, 1, 6).reshape(2, 3)
        state = init_adam([p])
        rng_local = np.random.default_rng(7)
        for _ in range(20):
            g = rng_local.normal(size=p.shape)
            adam_step([p], [g], state, 1e-2, (0.9, 0.999), 1e-8)
            assert np.all(state.v[0] >= 0.0)
        trajectories.append(p.copy())
    assert np.array_equal(trajectories[0], trajectories[1])


def test_adam_rejects_bad_input():
    p = np.zeros(3)
    state = init_adam([p])
    with pytest.raises(ValueError):
        adam_step([p], [np.zeros(4)], state, 1e-3, (0.9, 0.999), 1e-8)
    with pytest.raises(ValueError):
        adam_step([p], [np.zeros(3)], AdamState(m=[], v=[]), 1e-3, (0.9, 0.999), 1e-8)
    with pytest.raises(FloatingPointError):
        adam_step([p], [np.array([1.0, np.nan, 0.0])], state, 1e-3, (0.9, 0.999), 1e-8)


# ------------------------------------------------------------------- training

def test_train_smoke_all_kinds():
    ds = small_dataset()
    for kind in ("metaage", "global", "concat"):
        model = train(ds, quick_config(model_kind=kind, epochs=1))
        assert model.kind == kind
        assert len(model.history) == 1
        loss, train_mae = model.history[0]
        assert np.isfinite(loss) and np.isfinite(train_mae)
        preds = model_predict(model, ds.age_feats, ds.id_feats)
        assert preds.shape == (len(ds),)
        assert np.all((preds >= 0) & (preds <= ds.n_classes - 1))


def test_train_loss_decreases():
    ds = small_dataset()
    model = train(ds, quick_config(epochs=8))
    losses = [l for l, _ in model.history]
    assert losses[-1] < losses[0]


def test_train_rejects_dim_mismatch():
    ds = small_dataset()
    with pytest.raises(ValueError, match="age feature width"):
        train(ds, quick_config(dims=small_dims(age_dim=5)))
    with pytest.raises(ValueError, match="identity feature width"):
        train(ds, quick_config(dims=small_dims(id_dim=3)))
    with pytest.raises(ValueError, match="classes"):
        train(ds, quick_config(dims=small_dims(n_classes=7)))


def test_warm_start_validation():
    ds = small_dataset()
    model = train(ds, quick_config(epochs=1))
    with pytest.raises(ValueError, match="kind"):
        train(ds, quick_config(model_kind="global", epochs=1), model=model)
    with pytest.raises(ValueError, match="dims"):
        train(ds, quick_config(dims=small_dims(hidden_dim=9), epochs=1),
              model=model)
    with pytest.raises(ValueError, match="use_adapter"):
        train(ds, quick_config(epochs=1, use_adapter=False), model=model)
    bare = train(ds, quick_config(epochs=1, use_adapter=False))
    with pytest.raises(ValueError, match="use_adapter"):
        train(ds, quick_config(epochs=1), model=bare)
    # refused before a step: the model did not move
    before = model.values.copy()
    with pytest.raises(ValueError, match="use_adapter"):
        train(ds, quick_config(epochs=1, use_adapter=False), model=model)
    assert np.array_equal(model.values, before)
    assert len(model.history) == len(bare.history) == 1
    grown = train(ds, quick_config(epochs=1), model=model)
    assert grown is model
    assert len(model.history) == 2


def test_train_never_mutates_dataset():
    ds = small_dataset()
    snapshots = {name: getattr(ds, name).copy()
                 for name in ("labels", "sigmas", "age_feats", "id_feats")}
    train(ds, quick_config(epochs=2))
    for name, before in snapshots.items():
        after = getattr(ds, name)
        assert not after.flags.writeable
        assert np.array_equal(before, after, equal_nan=True)


def test_seed_determinism_bitwise():
    ds = small_dataset()
    results = []
    for _ in range(2):
        model = train(ds, quick_config(epochs=3, model_kind="metaage"))
        results.append(evaluate(model, ds))
    assert results[0].to_json() == results[1].to_json()
    assert results[0].mae == results[1].mae


def test_global_equals_zero_residual_metaage_after_one_step():
    # one full-batch step: with the residual output frozen at zero the
    # generated weights are exactly the common table, so both models see the
    # same scores, the same gradients, and the same Adam update
    ds = small_dataset(seed=3)
    dims = small_dims()
    meta = init_params(dims, 4)
    meta.output.weight[:] = 0.0
    table = AffineLayer(weight=meta.w_common.copy(),
                        bias=np.zeros(dims.n_classes))
    m_model = TrainedModel(kind="metaage", dims=dims, meta=meta)
    g_model = TrainedModel(kind="global", dims=dims, table=table)
    cfg = quick_config(epochs=1, batch_size=len(ds), use_adapter=False)
    train(ds, replace(cfg, model_kind="metaage"), model=m_model)
    train(ds, replace(cfg, model_kind="global"), model=g_model)
    assert np.allclose(m_model.meta.w_common, g_model.table.weight,
                       rtol=0.0, atol=1e-10)
    assert abs(m_model.history[0][0] - g_model.history[0][0]) < 1e-10


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_nan_loss_aborts_with_context(kind):
    # the first step at a divergent learning rate moves every weight by
    # about 1e200, so the second batch's scores overflow; that must stop
    # with the error naming epoch and batch, not deep inside the loss
    cfg = quick_config(model_kind=kind, lr=1e200)
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError,
                           match=rf"epoch 1, batch 1 \({kind} model\)"):
            train(small_dataset(), cfg)


def test_overfit_one_batch():
    # 500 steps on a single batch of 8 memorizes it
    config = SynthConfig(n_identities=4, samples_per_identity=2, n_classes=30,
                         age_dim=16, id_dim=8, latent_dim=2, offset_max=3.0,
                         feature_noise=0.01, rbf_width=2.0, seed=2)
    ds, _ = synth_generate(config)
    dims = Dims(n_classes=30, age_dim=16, id_dim=8, hidden_dim=24)
    cfg = TrainConfig(dims=dims, model_kind="metaage", epochs=500, batch_size=8,
                      lr=5e-3, seed=0)
    model = train(ds, cfg)
    assert model.history[-1][1] < 0.5


# ----------------------------------------------------------------- evaluation

def test_evaluate_uniform_scores_predict_midpoint():
    dims = small_dims()
    k = dims.n_classes
    table = AffineLayer(weight=np.zeros((k, dims.age_dim)), bias=np.zeros(k))
    model = TrainedModel(kind="global", dims=dims, table=table)
    ds = small_dataset()
    preds = model_predict(model, ds.age_feats, ds.id_feats)
    assert np.allclose(preds, (k - 1) / 2.0, atol=1e-12)


def test_evaluate_is_side_effect_free():
    ds = small_dataset()
    model = train(ds, quick_config(model_kind="concat", epochs=1))
    running = model.mlp.bn.running_mean.copy()
    first = evaluate(model, ds)
    second = evaluate(model, ds)
    assert first.to_json() == second.to_json()
    assert np.array_equal(model.mlp.bn.running_mean, running)


def test_eval_predictions_ignore_batch_makeup_and_chunk(monkeypatch):
    # eval mode normalizes with running statistics only, so a sample's
    # prediction is the same alone, in any batch and in any chunking
    ds = small_dataset()
    gallery = small_dataset(seed=2, n_identities=100, per=6)
    age, ids = gallery.age_feats, gallery.id_feats
    n = len(gallery)  # 600: every chunk size below splits it
    perm = np.random.default_rng(4).permutation(n)
    for kind in MODEL_KINDS:
        model = train(ds, quick_config(model_kind=kind, epochs=2))
        monkeypatch.setattr(training, "_PREDICT_CHUNK", n)
        ref = model_predict(model, age, ids)

        def check(got, want, what):
            err = np.abs(got - want).max()
            assert err <= 1e-12, f"{kind}, {what}: max abs error {err:.3e}"

        for chunk in (1, 7, 512):
            monkeypatch.setattr(training, "_PREDICT_CHUNK", chunk)
            check(model_predict(model, age, ids), ref, f"chunk {chunk}")
        monkeypatch.setattr(training, "_PREDICT_CHUNK", 7)
        check(model_predict(model, age[perm], ids[perm]), ref[perm],
              "permuted batch")
        monkeypatch.undo()
        for lo, hi in ((0, 1), (5, 17), (n - 3, n)):
            check(model_predict(model, age[lo:hi], ids[lo:hi]), ref[lo:hi],
                  f"rows {lo}:{hi}")


def test_running_variance_finite_and_nonnegative_after_training():
    ds = small_dataset()
    for kind in ("metaage", "concat"):
        model = train(ds, quick_config(model_kind=kind, epochs=4))
        bn = model.meta.bn if kind == "metaage" else model.mlp.bn
        assert np.isfinite(bn.running_var).all(), kind
        assert (bn.running_var >= 0.0).all(), kind
        assert np.isfinite(bn.running_mean).all(), kind
        # training moved the statistics away from their initial (0, 1)
        assert not np.array_equal(bn.running_var, np.ones_like(bn.running_var))


def test_evaluate_eps_error_needs_all_sigmas():
    ds = small_dataset()
    model = train(ds, quick_config(epochs=1))
    assert evaluate(model, ds).eps_error is not None
    stripped = Dataset(labels=ds.labels.copy(), sigmas=np.full(len(ds), np.nan),
                       identity_ids=ds.identity_ids.copy(),
                       age_feats=ds.age_feats.copy(),
                       id_feats=ds.id_feats.copy(), n_classes=ds.n_classes)
    assert evaluate(model, stripped).eps_error is None


# ------------------------------------------------------------------ gradients

def _screened_seeds(build, n_wanted, seed_range=60):
    """Yield (seed, loss_fn, names, grads) for well-conditioned seeds only.

    Screens out hinge kinks within 1e-3 of the evaluation point, analytic
    gradients that are exact zeros (relative comparison is meaningless), and
    batch-norm batches with tiny pre-normalization variance (finite
    differences lose too many digits there).
    """
    found = 0
    for seed in range(seed_range):
        if found >= n_wanted:
            return
        out = build(seed)
        if out is None:
            continue
        found += 1
        yield out
    assert found >= n_wanted, f"only {found} well-conditioned seeds"


def _metaage_case(seed, delta=2.0):
    dims = Dims(n_classes=5, age_dim=8, id_dim=6, hidden_dim=16)
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(dims=dims, model_kind="metaage", lam=0.2, delta=delta,
                      use_adapter=True, seed=seed)
    model = init_model(cfg)
    # shake the adapter off the exact identity so its gradients are generic
    model.adapter.weight += rng.normal(scale=0.05, size=model.adapter.weight.shape)
    model.adapter.bias += rng.normal(scale=0.05, size=model.adapter.bias.shape)
    ids = rng.normal(scale=0.5, size=(3, dims.id_dim))
    age = rng.normal(size=(3, dims.age_dim))
    labels = rng.integers(0, dims.n_classes, size=3).astype(np.float64)
    loss_cfg = cfg.loss_config()

    def loss_fn():
        scores, _ = model_forward(model, age, ids, mode="train")
        return batch_loss(scores, labels, None, loss_cfg)[0]

    model.zero_grad()
    scores, cache = model_forward(model, age, ids, mode="train")
    _, grad_scores = batch_loss(scores, labels, None, loss_cfg)
    model_backward(model, grad_scores, cache)
    named = model.trainable()
    names = {n: pg[0] for n, pg in named.items()}
    grads = {n: pg[1] for n, pg in named.items()}
    gaps = scores[:, 1:] - scores[:, :-1]
    margin = np.minimum(np.abs(delta - gaps), np.abs(delta + gaps)).min()
    if margin < 1e-3 or min(np.abs(g).min() for g in grads.values()) < 1e-7:
        return None
    return seed, loss_fn, names, grads


def test_metaage_full_gradient_with_adapter():
    for seed, loss_fn, names, grads in _screened_seeds(_metaage_case, 5):
        report = grad_check(loss_fn, names, grads)
        assert report.passed, f"seed {seed}: {report}"


def _concat_case(seed, delta=2.0):
    dims = Dims(n_classes=5, age_dim=8, id_dim=6, hidden_dim=16)
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(dims=dims, model_kind="concat", lam=0.2, delta=delta,
                      use_adapter=True, seed=seed)
    model = init_model(cfg)
    model.adapter.weight += rng.normal(scale=0.05, size=model.adapter.weight.shape)
    model.adapter.bias += rng.normal(scale=0.05, size=model.adapter.bias.shape)
    ids = rng.normal(scale=3.0, size=(4, dims.id_dim))
    age = rng.normal(scale=3.0, size=(4, dims.age_dim))
    labels = rng.integers(0, dims.n_classes, size=4).astype(np.float64)
    x = np.concatenate([affine_forward(age, model.adapter), ids], axis=1)
    pre = affine_forward(x, model.mlp.hidden)
    if pre.var(axis=0).min() < 0.25:
        return None
    normed = (pre - pre.mean(axis=0)) / np.sqrt(pre.var(axis=0) + 1e-5)
    if np.abs(normed).min() < 1e-3:  # ReLU kink within reach of the FD step
        return None
    loss_cfg = cfg.loss_config()

    def loss_fn():
        scores, _ = model_forward(model, age, ids, mode="train")
        return batch_loss(scores, labels, None, loss_cfg)[0]

    model.zero_grad()
    scores, cache = model_forward(model, age, ids, mode="train")
    _, grad_scores = batch_loss(scores, labels, None, loss_cfg)
    model_backward(model, grad_scores, cache)
    named = model.trainable()
    names = {n: pg[0] for n, pg in named.items()}
    grads = {n: pg[1] for n, pg in named.items()}
    # here the adapter bias feeds straight into batch norm (it shifts every
    # hidden pre-activation by a constant that the mean subtraction removes),
    # so its gradient is an exact zero; assert that instead of comparing a
    # zero against finite-difference noise
    assert np.abs(grads["adapter.bias"]).max() < 1e-12
    del names["adapter.bias"], grads["adapter.bias"]
    gaps = scores[:, 1:] - scores[:, :-1]
    margin = np.minimum(np.abs(delta - gaps), np.abs(delta + gaps)).min()
    if margin < 1e-3 or min(np.abs(g).min() for g in grads.values()) < 1e-7:
        return None
    return seed, loss_fn, names, grads


def test_concat_full_gradient_with_adapter():
    for seed, loss_fn, names, grads in _screened_seeds(_concat_case, 5):
        report = grad_check(loss_fn, names, grads)
        assert report.passed, f"seed {seed}: {report}"


# ----------------------------------------------------------------------- sweep

def test_sweep_single_point_equals_direct_run():
    ds = small_dataset(n_identities=8, per=4)
    cfg = quick_config(epochs=2)
    rows = lambda_delta_sweep(ds, cfg, [0.0], [2.0])
    assert len(rows) == 1
    assert rows[0][:2] == (0.0, 2.0)
    # identical split + seed + config reproduces the same number exactly
    again = lambda_delta_sweep(ds, cfg, [0.0], [2.0])
    assert rows == again


def test_sweep_grid_order_and_csv():
    ds = small_dataset(n_identities=8, per=4)
    cfg = quick_config(epochs=1)
    rows = lambda_delta_sweep(ds, cfg, [0.0, 0.5], [1.0, 2.0])
    assert [(r[0], r[1]) for r in rows] == [(0.0, 1.0), (0.0, 2.0),
                                            (0.5, 1.0), (0.5, 2.0)]
    text = sweep_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "lambda,delta,mae"
    assert len(lines) == 5
    assert lines[1].startswith("0.0,1.0,")


def test_sweep_rejects_empty_grid():
    ds = small_dataset()
    with pytest.raises(ValueError):
        lambda_delta_sweep(ds, quick_config(), [], [2.0])
    with pytest.raises(ValueError):
        lambda_delta_sweep(ds, quick_config(), [0.2], [])


def test_history_csv_format():
    ds = small_dataset()
    model = train(ds, quick_config(epochs=2))
    lines = history_csv(model).strip().splitlines()
    assert lines[0] == "epoch,loss,train_mae"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"
    assert float(lines[2].split(",")[1]) == model.history[1][0]


# ----------------------------------------------------------------- checkpoints

def _assert_same_predictions(a, b, ds):
    pa = model_predict(a, ds.age_feats, ds.id_feats)
    pb = model_predict(b, ds.age_feats, ds.id_feats)
    assert np.array_equal(pa, pb)


@pytest.mark.parametrize("kind", ["metaage", "global", "concat"])
@pytest.mark.parametrize("use_adapter", [True, False])
def test_checkpoint_round_trip(tmp_path, kind, use_adapter):
    ds = small_dataset()
    model = train(ds, quick_config(model_kind=kind, epochs=1,
                                   use_adapter=use_adapter))
    path = tmp_path / "model.mapc"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.kind == kind
    assert (loaded.adapter is not None) == use_adapter
    _assert_same_predictions(model, loaded, ds)
    save_model(tmp_path / "again.mapc", loaded)
    assert path.read_bytes() == (tmp_path / "again.mapc").read_bytes()


def test_checkpoint_corruption_offsets(tmp_path):
    ds = small_dataset()
    model = train(ds, quick_config(epochs=1))
    path = tmp_path / "model.mapc"
    save_model(path, model)
    raw = bytearray(path.read_bytes())

    def write_variant(name, mutate):
        data = bytearray(raw)
        mutate(data)
        p = tmp_path / name
        p.write_bytes(bytes(data))
        return p

    with pytest.raises(CheckpointError, match="offset 0"):
        load_model(write_variant("magic", lambda d: d.__setitem__(slice(0, 4), b"XXXX")))
    with pytest.raises(CheckpointError, match="offset 4"):
        load_model(write_variant("version", lambda d: d.__setitem__(4, 9)))
    with pytest.raises(CheckpointError, match="offset 5"):
        load_model(write_variant("kind", lambda d: d.__setitem__(5, 7)))
    with pytest.raises(CheckpointError, match="offset 6"):
        load_model(write_variant("flag", lambda d: d.__setitem__(6, 3)))
    with pytest.raises(CheckpointError, match="offset 7"):
        load_model(write_variant("dims", lambda d: d.__setitem__(slice(7, 11),
                                                                 struct.pack("<I", 0))))
    with pytest.raises(CheckpointError, match="truncated"):
        load_model(write_variant("trunc", lambda d: d.__delitem__(slice(60, len(d)))))
    with pytest.raises(CheckpointError, match="trailing"):
        load_model(write_variant("trail", lambda d: d.extend(b"\x00")))
    with pytest.raises(CheckpointError, match="non-finite"):
        load_model(write_variant("nan", lambda d: d.__setitem__(
            slice(23, 31), struct.pack("<d", np.nan))))

    # a file one byte short fails before any block is read
    with pytest.raises(CheckpointError, match="truncated checkpoint at byte offset"):
        load_model(write_variant("short", lambda d: d.__delitem__(-1)))

    # negative running variance in the metaage block region
    dims = model.dims
    var_offset = 23 + 8 * (dims.n_classes * dims.age_dim
                           + dims.hidden_dim * dims.residual_in
                           + 4 * dims.hidden_dim)
    with pytest.raises(CheckpointError, match="batch-norm"):
        load_model(write_variant("var", lambda d: d.__setitem__(
            slice(var_offset, var_offset + 8), struct.pack("<d", -1.0))))


@pytest.mark.parametrize("reader, header", [
    (load_params, b"MAPC\x01"),
    (load_model, b"MAPC\x02\x00\x01"),
])
@pytest.mark.parametrize("k, d, f, h", [(1, 1, 1, 2**26), (2**31, 2**31, 2, 2)])
def test_forged_dims_fail_before_allocating(tmp_path, reader, header, k, d, f, h):
    # a header declaring gigabytes of blocks, followed by 64 bytes, must be
    # refused from the file size alone; at H=2**26 the 64 bytes hold the
    # whole first block, so only the size check stops a 1.5 GB read
    path = tmp_path / "forged.mapc"
    path.write_bytes(header + struct.pack("<4I", k, d, f, h) + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated checkpoint at byte offset"):
            reader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20

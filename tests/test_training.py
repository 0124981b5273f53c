"""Optimizer, training-loop, and checkpoint-v2 behavior."""

import copy
import pickle
import struct
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from operator import attrgetter

import numpy as np
import pytest

from persage import metalearner, training
from persage.data import Dataset, SynthConfig, split, subset, synth_generate
from persage.losses import batch_loss
from persage.mathcore import (
    GRAD_CHECK_STEP,
    AffineLayer,
    affine_forward,
    grad_check,
)
from persage.metalearner import Dims, MetaLearnerParams
from persage.training import (
    MODEL_KINDS,
    CheckpointError,
    TrainConfig,
    TrainedModel,
    adam_step,
    evaluate,
    history_csv,
    init_adam,
    init_model,
    init_params,
    lambda_delta_sweep,
    load_model,
    load_params,
    model_backward,
    model_forward,
    model_predict,
    save_model,
    save_params,
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
    assert cfg.batch_size == 64 and cfg.epochs == 60
    assert cfg.lam == 0.2 and cfg.delta == 2.0
    assert cfg.model_kind == "metaage" and cfg.use_adapter
    for bad in (dict(lr=0.0), dict(lr=-1.0), dict(batch_size=1), dict(epochs=0),
                dict(model_kind="mlp"), dict(lam=-0.1), dict(target_mode="nonsense")):
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
    wrong = AffineLayer(weight=np.zeros((dims.n_classes + 1, dims.age_dim)),
                        bias=np.zeros(dims.n_classes + 1))
    with pytest.raises(ValueError, match="shape"):
        TrainedModel(kind="global", dims=dims, table=wrong)
    # a generator checks its own blocks before any model binds it
    good = init_params(dims, 0)
    with pytest.raises(ValueError, match="shape"):
        MetaLearnerParams(
            w_common=good.w_common, hidden=good.hidden, bn=good.bn,
            output=AffineLayer(weight=np.zeros((dims.age_dim, dims.hidden_dim + 1)),
                               bias=np.zeros(dims.age_dim)), dims=dims)
    # a block swapped after construction is still refused by the binder
    good.output = AffineLayer(weight=np.zeros((dims.age_dim, dims.hidden_dim + 1)),
                              bias=np.zeros(dims.age_dim))
    with pytest.raises(ValueError, match="shape"):
        TrainedModel(kind="metaage", dims=dims, meta=good)


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
    for path, shape, trained, _ in model.layout():
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
    assert {path for path, _, trained, _ in model.layout() if not trained} == (
        FROZEN[kind])


def _reference_values(kind, dims, adapter, seed):
    """The reference for a new model's ``values``: a Glorot-uniform draw
    ``rng.uniform(-b, b)`` with b = sqrt(6 / (in + out)) from one generator
    for each weight, in the order below, zero biases, batch norm at gamma 1,
    beta 0 and running (0, 1), then the identity adapter.
    """
    rng = np.random.default_rng(seed)
    k, d, h = dims.n_classes, dims.age_dim, dims.hidden_dim
    bn = [np.ones(h), np.zeros(h), np.zeros(h), np.ones(h)]

    def glorot(out_dim, in_dim):
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        return rng.uniform(-bound, bound, size=(out_dim, in_dim))

    def mlp(in_dim, out_dim):
        return [glorot(h, in_dim), np.zeros(h), *bn, glorot(out_dim, h),
                np.zeros(out_dim)]

    if kind == "metaage":
        blocks = [glorot(k, d)] + mlp(dims.residual_in, d)
    elif kind == "global":
        blocks = [glorot(k, d)]
    else:
        blocks = mlp(d + dims.id_dim, k)
    if adapter:
        blocks += [np.eye(d), np.zeros(d)]
    return np.concatenate([block.ravel() for block in blocks])


@pytest.mark.parametrize("dims", [
    Dims(n_classes=9, age_dim=6, id_dim=4, hidden_dim=5),
    Dims(n_classes=101, age_dim=64, id_dim=32, hidden_dim=64)],
    ids=["K9", "acceptance"])
@pytest.mark.parametrize("kind, adapter", ALL_LAYOUTS)
def test_init_model_draws_as_reference(kind, adapter, dims):
    # a reordered layout or a changed init rule would silently change every
    # seeded model, and with it every checkpoint and trained result
    for seed in (0, 3, 9):
        model = init_model(TrainConfig(dims=dims, model_kind=kind,
                                       use_adapter=adapter, seed=seed))
        want = _reference_values(kind, dims, adapter, seed)
        assert model.values.tobytes() == want.tobytes(), seed


@pytest.mark.parametrize("kind, adapter", ALL_LAYOUTS)
def test_loading_and_copying_draw_nothing(tmp_path, monkeypatch, kind, adapter):
    model = train(small_dataset(), quick_config(model_kind=kind, epochs=1,
                                                use_adapter=adapter))

    def no_draw(block, rng):
        raise AssertionError("a Glorot draw")

    monkeypatch.setitem(training._INIT_RULES, "glorot", no_draw)
    with pytest.raises(AssertionError, match="Glorot"):
        init_model(quick_config(model_kind=kind, use_adapter=adapter))
    path = tmp_path / "model.mapc"
    save_model(path, model)
    for twin in (load_model(path), pickle.loads(pickle.dumps(model)),
                 copy.deepcopy(model), copy.copy(model)):
        assert twin.values.tobytes() == model.values.tobytes()
    if kind == "metaage":
        save_params(path, model.meta)
        meta = load_params(path)
        for name, *_ in model.layout():
            if name.startswith("meta."):
                got = attrgetter(name.removeprefix("meta."))(meta)
                assert got.tobytes() == attrgetter(name)(model).tobytes(), name


@pytest.mark.parametrize("duplicate", [
    copy.deepcopy, copy.copy, lambda model: pickle.loads(pickle.dumps(model))],
    ids=["deepcopy", "copy", "pickle"])
def test_deep_copy_owns_its_own_store(duplicate):
    ds = small_dataset()
    model = train(ds, quick_config(epochs=1))
    twin = duplicate(model)
    before = model.values.copy()
    history = list(model.history)
    assert np.array_equal(twin.values, before) and twin.history == history
    assert not np.shares_memory(twin.values, model.values)
    for path, _, _, _ in twin.layout():
        owner, _, leaf = path.rpartition(".")
        assert np.shares_memory(attrgetter(path)(twin), twin.values), path
        grad = getattr(attrgetter(owner)(twin), "grad_" + leaf, None)
        if grad is not None:
            assert np.shares_memory(grad, twin.grads), path
    train(ds, quick_config(epochs=1), model=twin)
    assert np.array_equal(model.values, before) and model.history == history
    assert not np.array_equal(twin.values, before)
    assert len(twin.history) == 2


@pytest.mark.parametrize("kind, adapter", ALL_LAYOUTS)
def test_model_entries_check_shapes(kind, adapter):
    # every kind, with or without an adapter, takes (B, D) age features,
    # (B, F) identity features and a (B, K) score gradient
    model = init_model(quick_config(model_kind=kind, use_adapter=adapter))
    ds = small_dataset()
    age, ids = ds.age_feats[:4], ds.id_feats[:4]
    for bad_age, bad_ids in ((age[0], ids[:1]), (age[:, :-1], ids), (age, ids[:3]),
                             (age, ids[:, :-1]), (age, ids[0]),
                             (age[:0, :-1], ids[:0]), (age[:0], ids[:0, :-1])):
        with pytest.raises(ValueError, match="features must be"):
            model_forward(model, bad_age, bad_ids, "train")
        with pytest.raises(ValueError, match="features must be"):
            model_predict(model, bad_age, bad_ids)
    scores, cache = model_forward(model, age, ids, "train")
    for bad in (scores[:3], scores[:, :-1], scores[0]):
        with pytest.raises(ValueError, match="grad_scores must be"):
            model_backward(model, bad, cache)
    assert not model.grads.any()
    other = next(k for k in MODEL_KINDS if k != kind)
    with pytest.raises(ValueError, match="cache from kind"):
        model_backward(init_model(quick_config(model_kind=other)), scores, cache)


@pytest.mark.parametrize("kind, adapter", ALL_LAYOUTS)
def test_zero_grad_clears_every_gradient(kind, adapter):
    model = init_model(quick_config(model_kind=kind, use_adapter=adapter))
    ds = small_dataset()
    scores, cache = model_forward(model, ds.age_feats[:8], ds.id_feats[:8], "train")
    model_backward(model, batch_loss(scores, ds.labels[:8], None,
                                     quick_config().loss_config())[1], cache)
    assert model.grads.any()
    # no backward writes the gradient of a frozen block, so a whole-buffer
    # Adam step (zero gradient, zero moments) leaves it unchanged bit for bit
    for path, _, trained, _, start, stop in training._spans(model.layout()):
        if not trained:
            assert not model.grads[start:stop].any(), path
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
    state = init_adam(p)
    adam_step(p, np.zeros_like(p), state, 1e-2)
    assert np.array_equal(p, before)
    assert state.t == 1
    # nonzero moments decay by exactly beta under a zero gradient
    state.m[:] = 1.0
    state.v[:] = 1.0
    adam_step(p, np.zeros_like(p), state, 1e-2)
    assert np.allclose(state.m, 0.9)
    assert np.allclose(state.v, 0.999)


def test_adam_first_step_magnitude():
    # bias correction makes the first update ~ lr regardless of beta values
    p = np.array([5.0])
    state = init_adam(p)
    adam_step(p, np.array([1.0]), state, 1e-3)
    assert abs((5.0 - p[0]) - 1e-3) < 1e-10


def test_adam_deterministic_and_second_moments_nonnegative():
    trajectories = []
    for _ in range(2):
        p = np.linspace(-1, 1, 6).reshape(2, 3)
        state = init_adam(p)
        rng_local = np.random.default_rng(7)
        for _ in range(20):
            g = rng_local.normal(size=p.shape)
            adam_step(p, g, state, 1e-2)
            assert np.all(state.v >= 0.0)
        trajectories.append(p.copy())
    assert np.array_equal(trajectories[0], trajectories[1])


def test_adam_rejects_bad_input():
    p = np.zeros(3)
    state = init_adam(p)
    with pytest.raises(ValueError, match="shapes"):
        adam_step(p, np.zeros(4), state, 1e-3)
    with pytest.raises(ValueError, match="shapes"):
        adam_step(p, np.zeros(3), init_adam(np.zeros(4)), 1e-3)
    with pytest.raises(FloatingPointError):
        adam_step(p, np.array([1.0, np.nan, 0.0]), state, 1e-3)
    assert state.t == 0 and not p.any()


def test_adam_scratch_form_matches_textbook_update_bitwise():
    # the reference: Kingma & Ba's update, written with fresh temporaries
    b1, b2 = training.ADAM_BETAS
    eps, lr = training.ADAM_EPSILON, 1e-2
    rng = np.random.default_rng(11)
    p = rng.normal(size=40)
    ref = p.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    state = init_adam(p)
    frozen = slice(10, 25)  # a span whose gradient is always exactly zero
    for t in range(1, 21):
        g = rng.normal(size=p.shape)
        g[frozen] = 0.0
        adam_step(p, g, state, lr)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        ref -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        assert p.tobytes() == ref.tobytes(), t
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
    assert state.t == 20
    assert p[frozen].tobytes() == np.random.default_rng(11).normal(
        size=40)[frozen].tobytes()


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
        # no rows, no predictions
        assert model_predict(model, ds.age_feats[:0], ds.id_feats[:0]).shape == (0,)


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
    with pytest.raises(ValueError, match="at least 2 samples, got 1"):
        train(subset(ds, [0]), quick_config())


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
    # prediction is the same alone, in any batch, in any chunking and in any
    # tiling of the generator's hidden rows
    ds = small_dataset()
    gallery = small_dataset(seed=2, n_identities=100, per=6)
    age, ids = gallery.age_feats, gallery.id_feats
    n = len(gallery)  # 600: every chunk and tile size below splits it
    perm = np.random.default_rng(4).permutation(n)
    d = small_dims()
    row_bytes = 8 * d.n_classes * d.hidden_dim  # one sample's hidden rows
    for kind in MODEL_KINDS:
        model = train(ds, quick_config(model_kind=kind, epochs=2))
        monkeypatch.setattr(training, "_PREDICT_CHUNK", n)
        monkeypatch.setattr(metalearner, "TILE_BYTES", n * row_bytes)
        ref = model_predict(model, age, ids)

        def check(got, want, what):
            err = np.abs(got - want).max()
            assert err <= 1e-12, f"{kind}, {what}: max abs error {err:.3e}"

        for tile in (1, 7, n):
            monkeypatch.setattr(metalearner, "TILE_BYTES", tile * row_bytes)
            for chunk in (1, 7, 512):
                monkeypatch.setattr(training, "_PREDICT_CHUNK", chunk)
                check(model_predict(model, age, ids), ref,
                      f"chunk {chunk}, tile {tile}")
        monkeypatch.setattr(training, "_PREDICT_CHUNK", 7)
        check(model_predict(model, age[perm], ids[perm]), ref[perm],
              "permuted batch")
        monkeypatch.undo()
        for lo, hi in ((0, 1), (5, 17), (n - 3, n)):
            check(model_predict(model, age[lo:hi], ids[lo:hi]), ref[lo:hi],
                  f"rows {lo}:{hi}")


def test_eval_memory_stays_within_a_chunk():
    # _PREDICT_CHUNK bounds the rows a model_forward call holds and
    # metalearner.TILE_BYTES the generator's (tile, K, H) hidden rows: at
    # the acceptance size a 512-sample chunk of untiled hidden rows would
    # take 26 MB
    dims = Dims(n_classes=101, age_dim=64, id_dim=32, hidden_dim=64)
    model = init_model(TrainConfig(dims=dims, model_kind="metaage", seed=0))
    rng = np.random.default_rng(5)
    age = rng.normal(size=(2000, 64))
    ids = rng.normal(size=(2000, 32))
    tracemalloc.start()
    try:
        preds = model_predict(model, age, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert preds.shape == (2000,) and np.isfinite(preds).all()
    assert peak < 16 * 2**20


def test_eval_memory_stays_within_a_tile():
    # eval-mode metaage holds one tile of (tile, K, H) hidden rows, never a
    # chunk's, next to a few (chunk, K + D + H)-wide sets of rows: the adapted
    # features, the two generator terms and projection, the scores and their
    # softmax temporaries. Three such sets bound it; untiled 512-sample
    # chunks would hold 26 MB of hidden rows, 64-sample ones 3.3 MB
    k, d, f, h = 101, 64, 32, 64
    dims = Dims(n_classes=k, age_dim=d, id_dim=f, hidden_dim=h)
    model = init_model(TrainConfig(dims=dims, model_kind="metaage", seed=0))
    rng = np.random.default_rng(5)
    age = rng.normal(size=(2000, d))
    ids = rng.normal(size=(2000, f))
    tile = min(2000, metalearner.TILE_BYTES // (8 * k * h))
    chunk = min(2000, training._PREDICT_CHUNK)
    bound = 8 * tile * k * h + 3 * 8 * chunk * (k + d + h)
    tracemalloc.start()
    try:
        preds = model_predict(model, age, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert preds.shape == (2000,) and np.isfinite(preds).all()
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


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


TINY = Dims(n_classes=5, age_dim=4, id_dim=3, hidden_dim=6)
ALL_CONFIGS = [(kind, adapter, target) for kind, adapter in ALL_LAYOUTS
               for target in ("hard_onehot", "label_distribution")]


def _zero_gradient(kind, path, trained):
    """Whether a block's true gradient is zero: every frozen block, and
    concat's adapter bias, which feeds straight into batch norm (it shifts
    every hidden pre-activation by a constant that the mean removes).
    """
    return not trained or (kind == "concat" and path == "adapter.bias")


def _whole_buffer_case(kind, adapter, target, seed, delta=2.0):
    """(seed, loss_fn, model) with fresh gradients in ``model.grads``.

    None when the point is badly conditioned: a hinge kink within 1e-3, an
    exact zero in the gradient of a block whose true gradient is not zero,
    or, for concat, a batch-norm input of small variance or a ReLU kink
    within 1e-3.
    """
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(dims=TINY, model_kind=kind, use_adapter=adapter,
                      target_mode=target, lam=0.2, delta=delta, seed=seed)
    model = init_model(cfg)
    # move every trained block off its init value, the adapter off the
    # identity and batch norm off gamma 1, beta 0, so no gradient is special
    spans = training._spans(model.layout())
    for _, _, trained, _, start, stop in spans:
        if trained:
            model.values[start:stop] += rng.normal(scale=0.05, size=stop - start)
    ids = rng.normal(size=(4, TINY.id_dim))
    age = rng.normal(scale=2.0, size=(4, TINY.age_dim))
    labels = rng.integers(0, TINY.n_classes, size=4).astype(np.float64)
    sigmas = rng.uniform(1.0, 3.0, size=4)
    loss_cfg = cfg.loss_config()

    def loss_fn():
        scores, _ = model_forward(model, age, ids, mode="train")
        return batch_loss(scores, labels, sigmas, loss_cfg)[0]

    model.zero_grad()
    scores, cache = model_forward(model, age, ids, mode="train")
    model_backward(model, batch_loss(scores, labels, sigmas, loss_cfg)[1], cache)
    gaps = scores[:, 1:] - scores[:, :-1]
    if np.minimum(np.abs(delta - gaps), np.abs(delta + gaps)).min() < 1e-3:
        return None
    if kind == "concat":
        x, normed, _, _ = cache[2]
        if (affine_forward(x, model.mlp.hidden).var(axis=0).min() < 0.25
                or np.abs(normed).min() < 1e-3):
            return None
    if min(np.abs(model.grads[start:stop]).min()
           for path, _, trained, _, start, stop in spans
           if not _zero_gradient(kind, path, trained)) < 1e-7:
        return None
    return seed, loss_fn, model


def _central_differences(loss_fn, block):
    numeric = np.empty_like(block)
    for i, orig in enumerate(block.copy()):
        block[i] = orig + GRAD_CHECK_STEP
        plus = loss_fn()
        block[i] = orig - GRAD_CHECK_STEP
        minus = loss_fn()
        block[i] = orig
        numeric[i] = (plus - minus) / (2.0 * GRAD_CHECK_STEP)
    return numeric


@pytest.mark.parametrize("kind, adapter, target", ALL_CONFIGS)
def test_whole_buffer_gradient(kind, adapter, target):
    # every span of model.values: trained spans against finite differences,
    # and spans whose true gradient is zero held to zero on both sides
    def build(seed):
        return _whole_buffer_case(kind, adapter, target, seed)

    for seed, loss_fn, model in _screened_seeds(build, 3):
        live, zero = {}, {}
        for path, _, trained, _, start, stop in training._spans(model.layout()):
            blocks = zero if _zero_gradient(kind, path, trained) else live
            blocks[path] = (model.values[start:stop], model.grads[start:stop])
        report = grad_check(loss_fn, {p: v for p, (v, _) in live.items()},
                            {p: g for p, (_, g) in live.items()})
        assert report.passed, f"seed {seed}: {report}"
        for path, (block, grad) in zero.items():
            if path == "adapter.bias":  # concat's, zero up to rounding
                assert np.abs(grad).max() < 1e-12, (seed, path)
            else:  # no backward writes a frozen block's gradient
                assert not grad.any(), (seed, path)
            numeric = _central_differences(loss_fn, block)
            assert np.abs(numeric).max() <= 1e-8, (seed, path)


# ----------------------------------------------------------------------- sweep

def test_sweep_single_point_equals_direct_run():
    ds, holdout = split(small_dataset(n_identities=8, per=4), (0.8, 0.2), 0,
                        by_identity=True)
    cfg = quick_config(epochs=2)
    rows = lambda_delta_sweep(ds, cfg, [0.0], [2.0], holdout)
    assert len(rows) == 1
    assert rows[0][:2] == (0.0, 2.0)
    # identical split + seed + config reproduces the same number exactly
    again = lambda_delta_sweep(ds, cfg, [0.0], [2.0], holdout)
    assert rows == again


def test_sweep_grid_order_and_csv():
    ds, holdout = split(small_dataset(n_identities=8, per=4), (0.8, 0.2), 0,
                        by_identity=True)
    cfg = quick_config(epochs=1)
    rows = lambda_delta_sweep(ds, cfg, [0.0, 0.5], [1.0, 2.0], holdout)
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
        lambda_delta_sweep(ds, quick_config(), [], [2.0], ds)
    with pytest.raises(ValueError):
        lambda_delta_sweep(ds, quick_config(), [0.2], [], ds)


def test_sweep_checks_grid_and_holdout_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a sweep point trained before the checks")

    monkeypatch.setattr(training, "train", no_training)
    ds = small_dataset()
    for lambdas, deltas in (([0.1, np.inf], [2.0]), ([0.1], [2.0, -1.0]),
                            ([np.nan], [2.0])):
        with pytest.raises(ValueError, match="must be finite"):
            lambda_delta_sweep(ds, quick_config(), lambdas, deltas, ds)
    narrow = small_dataset(d=7)
    with pytest.raises(ValueError, match="age feature width 7"):
        lambda_delta_sweep(ds, quick_config(), [0.1], [2.0], narrow)


def test_history_csv_format():
    ds = small_dataset()
    model = train(ds, quick_config(epochs=2))
    lines = history_csv(model).strip().splitlines()
    assert lines[0] == "epoch,loss,train_mae"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"
    assert float(lines[2].split(",")[1]) == model.history[1][0]


def test_history_train_mae_is_the_epochs_mean_error():
    # with one batch holding every sample, an epoch's train MAE is the mean
    # |expected age - label| under the fresh model's train-mode scores
    ds = small_dataset()
    config = quick_config(epochs=1, batch_size=len(ds))
    model = train(ds, config)
    scores, _ = model_forward(init_model(config), ds.age_feats, ds.id_feats, "train")
    probs = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    want = np.abs(probs @ np.arange(ds.n_classes) - ds.labels).mean()
    got = float(history_csv(model).splitlines()[1].split(",")[2])
    assert got == pytest.approx(want, rel=1e-12)


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

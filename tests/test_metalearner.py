"""Weight-generation checks: conditioning layout, degeneracy, gradients, io."""

import copy

import numpy as np
import pytest

from persage import metalearner
from persage.estimator import class_scores_batch
from persage.losses import LossConfig, batch_loss
from persage.mathcore import (
    AffineLayer,
    BatchNormLayer,
    affine_backward,
    affine_forward,
    batchnorm_backward,
    batchnorm_forward,
    grad_check,
    relu_backward,
    relu_forward,
)
from persage.metalearner import (
    Dims,
    MetaLearnerParams,
    generate_weights,
    generate_weights_backward,
    generate_weights_batch,
    personal_scores,
    personal_scores_backward,
)
from persage.training import (
    CheckpointError,
    TrainedModel,
    init_params,
    load_params,
    save_params,
)


def small_dims():
    return Dims(n_classes=5, age_dim=8, id_dim=6, hidden_dim=16)


# ------------------------------------- explicit one-row reference generator

def one_hot(i, k):
    i = int(i)
    if not 0 <= i < k:
        raise ValueError(f"class index {i} out of range for K={k}")
    v = np.zeros(k)
    v[i] = 1.0
    return v


def build_residual_input(id_feat, w_common_row, i, k):
    """Concatenate [identity features, common row, one-hot class] in that order."""
    id_feat = np.asarray(id_feat, dtype=np.float64)
    w_common_row = np.asarray(w_common_row, dtype=np.float64)
    if id_feat.ndim != 1 or w_common_row.ndim != 1:
        raise ValueError("identity features and weight row must be vectors")
    return np.concatenate([id_feat, w_common_row, one_hot(i, k)])


def generate_class_weight(params, id_feat, i, mode="eval"):
    """Single personalized row, from the explicit [h | common row | one-hot] input."""
    d = params.dims
    x = build_residual_input(np.asarray(id_feat, dtype=np.float64),
                             params.w_common[int(i)], i, d.n_classes)
    pre = affine_forward(x[None, :], params.hidden)
    hidden = relu_forward(batchnorm_forward(pre, params.bn, mode=mode)[0])
    return params.w_common[int(i)] + affine_forward(hidden, params.output)[0]


def test_one_hot_hand_cases():
    assert np.array_equal(one_hot(0, 3), [1.0, 0.0, 0.0])
    assert np.array_equal(one_hot(2, 3), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        one_hot(5, 3)
    with pytest.raises(ValueError):
        one_hot(-1, 3)


def test_build_residual_input_hand_case():
    out = build_residual_input(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 1, 2)
    assert np.array_equal(out, [1.0, 2.0, 3.0, 4.0, 0.0, 1.0])


def test_build_residual_input_length_at_reference_dims():
    # 2048 identity + 4096 weight + 101 classes = 6245 conditioning inputs
    out = build_residual_input(np.zeros(2048), np.zeros(4096), 7, 101)
    assert out.shape == (6245,)
    assert out[2048 + 4096 + 7] == 1.0


def test_init_params_seeded():
    dims = small_dims()
    a = init_params(dims, 42)
    b = init_params(dims, 42)
    c = init_params(dims, 43)
    assert np.array_equal(a.w_common, b.w_common)
    assert np.array_equal(a.output.weight, b.output.weight)
    assert not np.array_equal(a.w_common, c.w_common)
    assert np.array_equal(a.hidden.bias, np.zeros(dims.hidden_dim))
    with pytest.raises(ValueError):
        Dims(n_classes=0, age_dim=1, id_dim=1, hidden_dim=1)


def test_init_params_accepts_reference_scale():
    # large-model dims must construct; memory ~1.4 GB, touch nothing heavy after
    dims = Dims(n_classes=101, age_dim=4096, id_dim=2048, hidden_dim=8192)
    params = init_params(dims, 0)
    assert params.hidden.weight.shape == (8192, 6245)
    del params


def test_zero_residual_degenerates_to_common_table():
    dims = small_dims()
    params = init_params(dims, 7)
    params.output.weight[:] = 0.0
    params.output.bias[:] = 0.0
    rng = np.random.default_rng(0)
    for _ in range(10):
        h = rng.normal(size=dims.id_dim)
        w = generate_weights(params, h)
        assert np.array_equal(w, params.w_common)


def test_distinct_identities_yield_distinct_weights():
    dims = small_dims()
    params = init_params(dims, 7)
    rng = np.random.default_rng(1)
    for _ in range(10):
        h1 = rng.normal(size=dims.id_dim)
        h2 = rng.normal(size=dims.id_dim)
        w1 = generate_weights(params, h1)
        w2 = generate_weights(params, h2)
        assert not np.allclose(w1, w2)
        # identical input is bitwise reproducible
        assert np.array_equal(w1, generate_weights(params, h1))


def test_residual_depends_only_on_conditioning():
    # the per-row residual never sees age features, so rows match across ops
    dims = small_dims()
    params = init_params(dims, 3)
    rng = np.random.default_rng(2)
    h = rng.normal(size=dims.id_dim)
    full = generate_weights(params, h)
    for i in range(dims.n_classes):
        row = generate_class_weight(params, h, i, mode="eval")
        assert np.abs(row - full[i]).max() < 1e-12


def test_batch_matches_per_sample_eval():
    dims = small_dims()
    params = init_params(dims, 11)
    rng = np.random.default_rng(4)
    ids = rng.normal(size=(6, dims.id_dim))
    batch, _ = generate_weights_batch(params, ids, mode="eval")
    for b in range(6):
        single = generate_weights(params, ids[b])
        assert np.abs(batch[b] - single).max() < 1e-12
    # B=1 is bitwise the per-sample op
    one, _ = generate_weights_batch(params, ids[:1], mode="eval")
    assert np.array_equal(one[0], generate_weights(params, ids[0]))


def test_eval_batch_permutation_equivariant():
    dims = small_dims()
    params = init_params(dims, 11)
    rng = np.random.default_rng(5)
    ids = rng.normal(size=(5, dims.id_dim))
    perm = rng.permutation(5)
    full, _ = generate_weights_batch(params, ids, mode="eval")
    permuted, _ = generate_weights_batch(params, ids[perm], mode="eval")
    assert np.array_equal(full[perm], permuted)


def test_train_mode_updates_running_stats():
    dims = small_dims()
    params = init_params(dims, 11)
    rng = np.random.default_rng(6)
    ids = rng.normal(size=(3, dims.id_dim))
    before = params.bn.running_mean.copy()
    generate_weights_batch(params, ids, mode="train")
    assert not np.array_equal(params.bn.running_mean, before)


def test_full_pipeline_gradients():
    # Through weight generation, scores, and the joint loss, in train mode.
    # Two degeneracies make a finite-difference check meaningless and are
    # screened out per seed before any comparison:
    #   - a hinge sitting within 1e-3 of its kink (two-sided step straddles it)
    #   - a coordinate whose analytic gradient is an exact zero (a hidden unit
    #     ReLU-active across all of a sample's class rows shifts that sample's
    #     scores uniformly, which both loss terms ignore); relative comparison
    #     of an exact zero only measures difference noise.
    dims = small_dims()
    config = LossConfig(lam=0.2, delta=2.0)
    checked = 0
    for seed in range(40):
        if checked >= 10:
            break
        rng = np.random.default_rng(seed)
        params = init_params(dims, seed)
        model = TrainedModel(kind="metaage", dims=dims, meta=params)
        ids = rng.normal(scale=0.5, size=(3, dims.id_dim))
        age = rng.normal(size=(3, dims.age_dim))
        labels = rng.integers(0, dims.n_classes, size=3).astype(np.float64)

        def loss_fn():
            w, _ = generate_weights_batch(params, ids, mode="train")
            scores = class_scores_batch(w, age)
            return batch_loss(scores, labels, None, config)[0]

        w, cache = generate_weights_batch(params, ids, mode="train")
        scores = class_scores_batch(w, age)
        _, grad_scores = batch_loss(scores, labels, None, config)
        model.zero_grad()
        grad_w = np.einsum("bk,bd->bkd", grad_scores, age)
        generate_weights_backward(params, grad_w, cache)
        names = {name: pg[0] for name, pg in model.trainable().items()}
        grads = {name: pg[1] for name, pg in model.trainable().items()}
        gaps = scores[:, 1:] - scores[:, :-1]
        margin_dist = np.minimum(np.abs(config.delta - gaps),
                                 np.abs(config.delta + gaps)).min()
        if margin_dist < 1e-3 or min(np.abs(g).min() for g in grads.values()) < 1e-7:
            continue
        report = grad_check(loss_fn, names, grads)
        assert report.passed, f"seed {seed}: {report}"
        checked += 1
    assert checked >= 10, f"only {checked} well-conditioned seeds in range"


# ------------------------------------------- factored path vs explicit rows

def _conditioning_matrix(params, id_feats):
    """(B, F) identity features -> (B*K, F+D+K) explicit conditioning rows.

    Row b*K + i is [h_b | w_common[i] | one-hot(i)]: the input the factored
    generator never builds, kept here as its reference.
    """
    d = params.dims
    b = id_feats.shape[0]
    x = np.empty((b * d.n_classes, d.residual_in))
    x[:, :d.id_dim] = np.repeat(id_feats, d.n_classes, axis=0)
    x[:, d.id_dim:d.id_dim + d.age_dim] = np.tile(params.w_common, (b, 1))
    x[:, d.id_dim + d.age_dim:] = np.tile(np.eye(d.n_classes), (b, 1))
    assert np.array_equal(x[d.n_classes - 1],
                          build_residual_input(id_feats[0], params.w_common[-1],
                                               d.n_classes - 1, d.n_classes))
    return x


def _explicit_reference(params, ids, age, mode, grad_scores):
    """Weights, scores, gradients and d(age) through the explicit rows.

    Runs on a copy of ``params``; returns a model owning the copy (its
    batch-norm running statistics and gradient buffers hold the reference
    state) as well.
    """
    d = params.dims
    b = ids.shape[0]
    model = _owned_copy(params)
    model.zero_grad()
    p = model.meta
    x = _conditioning_matrix(p, ids)
    normed, bn_cache = batchnorm_forward(affine_forward(x, p.hidden), p.bn,
                                         mode=mode)
    hidden = relu_forward(normed)
    res = affine_forward(hidden, p.output)
    weights = p.w_common + res.reshape(b, d.n_classes, d.age_dim)
    scores = class_scores_batch(weights, age)
    grad_age = np.einsum("bk,bkd->bd", grad_scores, weights)
    if mode == "train":
        grad_w = np.einsum("bk,bd->bkd", grad_scores, age)
        p.grad_w_common += grad_w.sum(axis=0)
        g = affine_backward(grad_w.reshape(-1, d.age_dim), hidden, p.output)
        g = batchnorm_backward(relu_backward(g, normed), bn_cache, p.bn)
        grad_x = affine_backward(g, x, p.hidden)
        rows = grad_x[:, d.id_dim:d.id_dim + d.age_dim]
        p.grad_w_common += rows.reshape(b, d.n_classes, d.age_dim).sum(axis=0)
    return model, weights, scores, grad_age


def _owned_copy(params):
    """A metaage model owning a deep copy of ``params``."""
    return TrainedModel(kind="metaage", dims=params.dims,
                        meta=copy.deepcopy(params))


def _assert_close(got, ref, what):
    err = np.abs(got - ref).max()
    assert err <= 1e-10 * np.abs(ref).max(), f"{what}: max abs error {err:.3e}"


def _factored_cases():
    rng = np.random.default_rng(2024)
    # B=1 is legal in train mode only because the class grid gives K rows
    cases = [(1, 1, 1, 1, 2), (7, 3, 4, 5, 1)]
    for _ in range(6):
        cases.append((int(rng.integers(1, 13)), int(rng.integers(1, 11)),
                      int(rng.integers(1, 9)), int(rng.integers(1, 11)),
                      int(rng.integers(2, 7))))
    cases.append((101, 64, 32, 64, 32))  # the acceptance size
    return cases


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("k, d, f, h, b", _factored_cases())
def test_factored_path_matches_explicit_rows(k, d, f, h, b, mode, monkeypatch):
    dims = Dims(n_classes=k, age_dim=d, id_dim=f, hidden_dim=h)
    params = init_params(dims, k + d + f + h + b)
    rng = np.random.default_rng(b)
    # a nonzero hidden bias checks that it lands in the per-class table
    params.hidden.bias[:] = rng.normal(scale=0.3, size=h)
    params.bn.gamma[:] = rng.uniform(0.5, 1.5, size=h)
    params.bn.beta[:] = rng.normal(scale=0.3, size=h)
    params.bn.running_mean[:] = rng.normal(size=h)
    params.bn.running_var[:] = rng.uniform(0.5, 2.0, size=h)
    ids = rng.normal(size=(b, f))
    age = rng.normal(size=(b, d))
    grad_scores = rng.normal(size=(b, k))
    ref, ref_weights, ref_scores, ref_grad_age = _explicit_reference(
        params, ids, age, mode, grad_scores)

    # eval mode builds the hidden rows a tile of samples at a time: one
    # sample, 7 (which splits the larger batches unevenly) and the whole batch
    for tile in (1, 7, b) if mode == "eval" else (None,):
        if tile is not None:
            monkeypatch.setattr(metalearner, "_TILE_BYTES", tile * 8 * k * h)
        by_weights = _owned_copy(params)
        weights, wcache = generate_weights_batch(by_weights.meta, ids, mode)
        _assert_close(weights, ref_weights, f"weights, tile {tile}")
        by_scores = _owned_copy(params)
        scores, scache = personal_scores(by_scores.meta, ids, age, mode)
        _assert_close(scores, ref_scores, f"scores, tile {tile}")
        for model in (by_weights, by_scores):
            for stat in ("running_mean", "running_var"):
                got = getattr(model.meta.bn, stat)
                if mode == "eval":
                    assert np.array_equal(got, getattr(params.bn, stat))
                else:
                    _assert_close(got, getattr(ref.meta.bn, stat), stat)
    if mode == "eval":
        return
    generate_weights_backward(by_weights.meta,
                              np.einsum("bk,bd->bkd", grad_scores, age), wcache)
    grad_age = personal_scores_backward(by_scores.meta, grad_scores, scache)
    _assert_close(grad_age, ref_grad_age, "age-feature gradient")
    for model in (by_weights, by_scores):
        for name, (_, grad) in ref.trainable().items():
            _assert_close(model.trainable()[name][1], grad, name)
        # the frozen biases get no gradient at all
        meta = model.meta
        assert not meta.hidden.grad_bias.any() and not meta.output.grad_bias.any()


def _hand_built(w_common=None, hidden=None, bn=None, output=None):
    """A generator at K=5, D=4, F=3, H=6 from its arrays, any of them swapped."""
    dims = Dims(n_classes=5, age_dim=4, id_dim=3, hidden_dim=6)
    good = init_params(dims, 0)
    return MetaLearnerParams(
        w_common=good.w_common if w_common is None else w_common,
        hidden=hidden or good.hidden, bn=bn or good.bn,
        output=output or good.output, dims=dims)


@pytest.mark.parametrize("build, block", [
    # a batch-norm layer needs four 1-D vectors of one width
    (lambda: BatchNormLayer(np.ones(1), np.zeros(6), np.zeros(6), np.ones(6)),
     "batch-norm vectors"),
    # unchecked, each of the rest broadcasts into right-shaped results or
    # fails inside numpy with a message that names no block
    (lambda: _hand_built(bn=BatchNormLayer(np.ones(1), np.zeros(1), np.zeros(1),
                                           np.ones(1))), "bn.gamma"),
    (lambda: _hand_built(w_common=np.zeros((1, 4))), "w_common"),
    (lambda: _hand_built(output=AffineLayer(np.zeros((5, 6)), np.zeros(5))),
     "output.weight"),
    (lambda: _hand_built(hidden=AffineLayer(np.zeros((6, 13)), np.zeros(6))),
     "hidden.weight"),
], ids=["bn-widths", "bn-width", "w_common", "output", "hidden"])
def test_hand_built_generator_refuses_misshaped_blocks(build, block):
    _hand_built()  # the unswapped arrays build
    with pytest.raises(ValueError, match=block):
        build()


def test_train_mode_needs_two_rows_and_backward_needs_train_cache():
    dims = Dims(n_classes=1, age_dim=3, id_dim=2, hidden_dim=4)
    params = init_params(dims, 5)
    ids, age = np.ones((1, 2)), np.ones((1, 3))
    before = copy.deepcopy(params.bn)
    with pytest.raises(ValueError, match="batch >= 2"):
        generate_weights_batch(params, ids, "train")
    with pytest.raises(ValueError, match="batch >= 2"):
        personal_scores(params, ids, age, "train")
    assert np.array_equal(params.bn.running_mean, before.running_mean)
    assert np.array_equal(params.bn.running_var, before.running_var)
    # the mode is required: a misspelt one and None are both refused
    for mode in ("Train", None):
        with pytest.raises(ValueError, match="mode"):
            generate_weights_batch(params, ids, mode)
        with pytest.raises(ValueError, match="mode"):
            personal_scores(params, ids, age, mode)
    # a single sample in eval mode, or two in train mode, is fine
    generate_weights_batch(params, ids, "eval")
    generate_weights_batch(params, np.ones((2, 2)), "train")

    dims = small_dims()
    params = init_params(dims, 5)
    model = TrainedModel(kind="metaage", dims=dims, meta=params)
    rng = np.random.default_rng(3)
    ids = rng.normal(size=(2, dims.id_dim))
    age = rng.normal(size=(2, dims.age_dim))
    _, wcache = generate_weights_batch(params, ids, "eval")
    _, scache = personal_scores(params, ids, age, "eval")
    with pytest.raises(ValueError, match="train-mode"):
        generate_weights_backward(
            params, np.ones((2, dims.n_classes, dims.age_dim)), wcache)
    with pytest.raises(ValueError, match="train-mode"):
        personal_scores_backward(params, np.ones((2, dims.n_classes)), scache)
    # refused before any gradient is accumulated
    assert not model.grads.any()


def test_checkpoint_round_trip(tmp_path):
    dims = small_dims()
    params = init_params(dims, 99)
    params.bn.running_mean[:] = np.random.default_rng(1).normal(size=dims.hidden_dim)
    params.bn.running_var[:] = np.random.default_rng(2).uniform(0.5, 2.0,
                                                                size=dims.hidden_dim)
    path = tmp_path / "params.mapc"
    save_params(path, params)
    loaded = load_params(path)
    for name in ("w_common",):
        assert np.array_equal(getattr(loaded, name), getattr(params, name))
    assert np.array_equal(loaded.hidden.weight, params.hidden.weight)
    assert np.array_equal(loaded.bn.running_var, params.bn.running_var)
    assert np.array_equal(loaded.output.bias, params.output.bias)
    # byte-identical when re-saved
    save_params(tmp_path / "again.mapc", loaded)
    assert (tmp_path / "params.mapc").read_bytes() == (tmp_path / "again.mapc").read_bytes()


def test_save_params_leaves_the_callers_arrays_alone(tmp_path):
    params = init_params(small_dims(), 4)
    owned = [(params, "w_common"), (params, "grad_w_common"),
             (params.hidden, "weight"), (params.hidden, "bias"),
             (params.bn, "gamma"), (params.bn, "running_var"),
             (params.output, "weight"), (params.output, "grad_weight")]
    before = [getattr(owner, name) for owner, name in owned]
    save_params(tmp_path / "p.mapc", params)
    for (owner, name), array in zip(owned, before):
        assert getattr(owner, name) is array, name
    # an edit after the save still reaches the parameters
    params.w_common[0, 0] = 7.0
    save_params(tmp_path / "q.mapc", params)
    assert load_params(tmp_path / "q.mapc").w_common[0, 0] == 7.0
    assert load_params(tmp_path / "p.mapc").w_common[0, 0] != 7.0


def test_checkpoint_corruption_reports_offsets(tmp_path):
    dims = small_dims()
    params = init_params(dims, 99)
    path = tmp_path / "params.mapc"
    save_params(path, params)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.mapc"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(CheckpointError, match="offset 0"):
        load_params(bad_magic)

    bad_version = tmp_path / "version.mapc"
    bad_version.write_bytes(bytes(raw[:4]) + b"\x09" + bytes(raw[5:]))
    with pytest.raises(CheckpointError, match="offset 4"):
        load_params(bad_version)

    truncated = tmp_path / "trunc.mapc"
    truncated.write_bytes(bytes(raw[:100]))
    with pytest.raises(CheckpointError, match="offset"):
        load_params(truncated)

    trailing = tmp_path / "trail.mapc"
    trailing.write_bytes(bytes(raw) + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_params(trailing)

    nan_block = tmp_path / "nan.mapc"
    corrupt = bytearray(raw)
    corrupt[21:29] = np.float64(np.nan).tobytes()
    nan_block.write_bytes(bytes(corrupt))
    with pytest.raises(CheckpointError, match="offset 21"):
        load_params(nan_block)

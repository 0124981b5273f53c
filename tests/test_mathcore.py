"""Layer forward/backward checks against hand-computed values and finite differences."""

import numpy as np
import pytest

from persage.mathcore import (
    BN_EPSILON,
    AffineLayer,
    affine_backward,
    affine_forward,
    batchnorm_backward,
    batchnorm_forward,
    grad_check,
    init_affine,
    init_batchnorm,
    relu_backward,
    relu_forward,
    softmax,
)


# ---------------------------------------------------------------- affine

def test_affine_forward_hand_case():
    # x=[1,2], rows of W are output units: y0 = 1+2+1 = 4, y1 = 0+2+0 = 2
    layer = AffineLayer(weight=np.array([[1.0, 1.0], [0.0, 1.0]]), bias=np.array([1.0, 0.0]))
    y = affine_forward(np.array([[1.0, 2.0]]), layer)
    assert np.array_equal(y, np.array([[4.0, 2.0]]))


def test_affine_backward_scalar_hand_case():
    # y = 2x at x=3 with upstream grad 1: dW = x = 3, dx = W = 2, db = 1
    layer = AffineLayer(weight=np.array([[2.0]]), bias=np.array([0.0]))
    x = np.array([[3.0]])
    grad_x = affine_backward(np.array([[1.0]]), x, layer)
    assert np.array_equal(layer.grad_weight, np.array([[3.0]]))
    assert np.array_equal(layer.grad_bias, np.array([1.0]))
    assert np.array_equal(grad_x, np.array([[2.0]]))


def test_affine_backward_accumulates():
    layer = AffineLayer(weight=np.array([[2.0]]), bias=np.array([0.0]))
    x = np.array([[3.0]])
    affine_backward(np.array([[1.0]]), x, layer)
    affine_backward(np.array([[1.0]]), x, layer)
    assert np.array_equal(layer.grad_weight, np.array([[6.0]]))
    # zeroed by its owner, the buffer accumulates afresh
    layer.grad_weight[:] = 0.0
    affine_backward(np.array([[1.0]]), x, layer)
    assert np.array_equal(layer.grad_weight, np.array([[3.0]]))


def test_affine_shape_validation():
    layer = AffineLayer(weight=np.zeros((2, 3)), bias=np.zeros(2))
    with pytest.raises(ValueError):
        affine_forward(np.zeros((1, 4)), layer)
    with pytest.raises(ValueError):
        affine_backward(np.zeros((1, 3)), np.zeros((1, 3)), layer)
    with pytest.raises(ValueError):
        AffineLayer(weight=np.zeros((2, 3)), bias=np.zeros(3))


def test_init_affine_bounds_and_determinism():
    for seed in range(20):
        a = init_affine(7, 5, np.random.default_rng(seed))
        b = init_affine(7, 5, np.random.default_rng(seed))
        bound = np.sqrt(6.0 / 12.0)
        assert np.abs(a.weight).max() <= bound
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, np.zeros(7))


def test_affine_gradients_match_finite_differences():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        batch, din, dout = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 5)
        layer = init_affine(dout, din, rng)
        layer.bias[:] = rng.normal(size=dout)
        x = rng.normal(size=(batch, din))
        target = rng.normal(size=(batch, dout))

        def loss_fn():
            y = affine_forward(x, layer)
            return 0.5 * np.sum((y - target) ** 2)

        y = affine_forward(x, layer)
        grad_x = affine_backward(y - target, x, layer)
        report = grad_check(
            loss_fn,
            {"weight": layer.weight, "bias": layer.bias, "x": x},
            {"weight": layer.grad_weight, "bias": layer.grad_bias, "x": grad_x},
        )
        assert report.passed, str(report)


# ---------------------------------------------------------------- batch norm

def test_batchnorm_eval_hand_case():
    # (x - mean) / sqrt(var + epsilon) scaled by gamma, shifted by beta
    layer = init_batchnorm(1)
    layer.gamma[:] = 2.0
    layer.beta[:] = 1.0
    layer.running_mean[:] = 1.0
    layer.running_var[:] = 4.0
    y, cache = batchnorm_forward(np.array([[3.0]]), layer, mode="eval")
    assert cache is None
    assert abs(y[0, 0] - (2.0 * 2.0 / np.sqrt(4.0 + BN_EPSILON) + 1.0)) < 1e-10


def test_batchnorm_running_stats_update():
    layer = init_batchnorm(2)
    x = np.array([[1.0, 10.0], [3.0, 30.0]])  # means (2, 20), biased vars (1, 100)
    batchnorm_forward(x, layer, mode="train")
    assert np.array_equal(layer.running_mean, np.array([0.2, 2.0]))
    assert np.array_equal(layer.running_var, 0.9 * np.ones(2) + 0.1 * np.array([1.0, 100.0]))


def test_batchnorm_eval_does_not_mutate():
    layer = init_batchnorm(3)
    layer.running_mean[:] = [1.0, 2.0, 3.0]
    layer.running_var[:] = [1.0, 4.0, 9.0]
    mean_before = layer.running_mean.copy()
    var_before = layer.running_var.copy()
    batchnorm_forward(np.random.default_rng(0).normal(size=(5, 3)), layer, mode="eval")
    assert np.array_equal(layer.running_mean, mean_before)
    assert np.array_equal(layer.running_var, var_before)


def test_batchnorm_train_needs_batch_of_two():
    layer = init_batchnorm(2)
    with pytest.raises(ValueError):
        batchnorm_forward(np.ones((1, 2)), layer, mode="train")


def test_batchnorm_mode_is_required():
    layer = init_batchnorm(2)
    for mode in ("Train", None):
        with pytest.raises(ValueError, match="mode"):
            batchnorm_forward(np.ones((3, 2)), layer, mode=mode)
    assert np.array_equal(layer.running_mean, np.zeros(2))


def test_batchnorm_normalizes_train_batches():
    # Columns with variance around 1e4 so the epsilon bias (~1e-9) is negligible.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 6))
        batch = int(rng.integers(2, 40))
        layer = init_batchnorm(width)
        x = rng.normal(scale=100.0, size=(batch, width)) + rng.normal(scale=50.0, size=width)
        y, _ = batchnorm_forward(x, layer, mode="train")
        assert np.abs(y.mean(axis=0)).max() < 1e-9
        if batch >= 2 and np.all(x.var(axis=0) > 1.0):
            assert np.abs(y.var(axis=0) - 1.0).max() < 1e-6


def _sample_with_spread(rng, batch, width, min_var=0.25):
    # Near-coincident batch points make 1/sqrt(var) so sharp that central
    # differences lose accuracy; keep column variance away from zero.
    for _ in range(100):
        x = rng.normal(size=(batch, width))
        if x.var(axis=0).min() >= min_var:
            return x
    raise RuntimeError("could not sample a well-spread batch")


def test_batchnorm_gradients_match_finite_differences():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 5))
        batch = int(rng.integers(2, 6))
        layer = init_batchnorm(width)
        layer.gamma[:] = rng.uniform(0.5, 2.0, size=width)
        layer.beta[:] = rng.normal(size=width)
        x = _sample_with_spread(rng, batch, width)
        target = rng.normal(size=(batch, width))

        def loss_fn():
            y, _ = batchnorm_forward(x, layer, mode="train")
            return 0.5 * np.sum((y - target) ** 2)

        y, cache = batchnorm_forward(x, layer, mode="train")
        grad_x = batchnorm_backward(y - target, cache, layer)
        report = grad_check(
            loss_fn,
            {"gamma": layer.gamma, "beta": layer.beta, "x": x},
            {"gamma": layer.grad_gamma, "beta": layer.grad_beta, "x": grad_x},
        )
        assert report.passed, str(report)


def test_batchnorm_backward_requires_cache():
    layer = init_batchnorm(2)
    with pytest.raises(ValueError):
        batchnorm_backward(np.ones((2, 2)), None, layer)


# ---------------------------------------------------------------- relu / softmax

def test_relu_hand_case():
    x = np.array([[-1.0, 0.0, 2.0]])
    assert np.array_equal(relu_forward(x), np.array([[0.0, 0.0, 2.0]]))
    # subgradient at exactly 0 is 0
    g = relu_backward(np.array([[5.0, 5.0, 5.0]]), x)
    assert np.array_equal(g, np.array([[0.0, 0.0, 5.0]]))


def test_softmax_hand_case():
    # exp(0)=1, exp(ln 3)=3 -> [1/4, 3/4]
    p = softmax(np.array([[0.0, np.log(3.0)]]))
    assert np.allclose(p, [[0.25, 0.75]], atol=1e-15)


def test_softmax_large_inputs_stable():
    p = softmax(np.array([[1000.0, 1000.0]]))
    assert np.allclose(p, [[0.5, 0.5]], atol=1e-15)
    p = softmax(np.array([[-1000.0, 1000.0]]))
    assert np.all(np.isfinite(p)) and abs(p.sum() - 1.0) < 1e-12


def test_softmax_rows_sum_to_one():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        scores = rng.normal(scale=rng.uniform(0.1, 50.0), size=(int(rng.integers(1, 5)),
                                                                int(rng.integers(2, 9))))
        p = softmax(scores)
        assert np.all(p >= 0.0)
        assert np.abs(p.sum(axis=-1) - 1.0).max() < 1e-12


def test_softmax_rejects_nan():
    with pytest.raises(ValueError):
        softmax(np.array([[0.0, np.nan]]))


# ---------------------------------------------------------------- grad_check harness

def test_grad_check_exact_on_quadratic():
    # loss = (2w)^2 is quadratic, so the central difference is exact to roundoff
    w = np.array([[3.0]])

    def loss_fn():
        return float((2.0 * w[0, 0]) ** 2)

    report = grad_check(loss_fn, {"w": w}, {"w": np.array([[8.0 * w[0, 0]]])})
    assert report.passed
    assert report.max_rel_err < 1e-10


def test_grad_check_flags_corrupted_gradient():
    rng = np.random.default_rng(7)
    layer = init_affine(3, 4, rng)
    x = rng.normal(size=(2, 4))
    target = rng.normal(size=(2, 3))

    def loss_fn():
        return 0.5 * np.sum((affine_forward(x, layer) - target) ** 2)

    affine_backward(affine_forward(x, layer) - target, x, layer)
    report = grad_check(loss_fn, {"weight": layer.weight},
                        {"weight": layer.grad_weight * 1.01})
    assert not report.passed
    assert report.max_rel_err > 5e-3
    assert report.failing_param == "weight"


def test_grad_check_rejects_nondeterministic_loss():
    state = {"n": 0}

    def loss_fn():
        state["n"] += 1
        return float(state["n"])

    with pytest.raises(ValueError):
        grad_check(loss_fn, {"w": np.ones(1)}, {"w": np.zeros(1)})


def test_composite_chain_gradients():
    # affine -> batchnorm -> relu -> affine -> softmax cross-entropy
    for seed in range(20):
        rng = np.random.default_rng(seed)
        batch, din, hidden, dout = 3, 4, 5, 3
        first = init_affine(hidden, din, rng)
        bn = init_batchnorm(hidden)
        bn.gamma[:] = rng.uniform(0.5, 1.5, size=hidden)
        second = init_affine(dout, hidden, rng)
        for _ in range(100):
            x = rng.normal(scale=3.0, size=(batch, din))
            if affine_forward(x, first).var(axis=0).min() >= 0.25:
                break
        labels = rng.integers(0, dout, size=batch)

        def loss_fn():
            h = affine_forward(x, first)
            hb, _ = batchnorm_forward(h, bn, mode="train")
            hr = relu_forward(hb)
            p = softmax(affine_forward(hr, second))
            return -np.log(p[np.arange(batch), labels]).sum() / batch

        h = affine_forward(x, first)
        hb, cache = batchnorm_forward(h, bn, mode="train")
        hr = relu_forward(hb)
        p = softmax(affine_forward(hr, second))
        grad_scores = p.copy()
        grad_scores[np.arange(batch), labels] -= 1.0
        grad_scores /= batch
        g = affine_backward(grad_scores, hr, second)
        g = relu_backward(g, hb)
        g = batchnorm_backward(g, cache, bn)
        grad_x = affine_backward(g, x, first)
        # b1 is excluded: train-mode batch norm subtracts the batch mean, so a
        # constant column shift (exactly what a pre-BN bias produces) cannot
        # change the loss. Its true gradient is zero; assert that instead.
        assert np.abs(first.grad_bias).max() < 1e-12
        report = grad_check(
            loss_fn,
            {"w1": first.weight, "gamma": bn.gamma, "beta": bn.beta,
             "w2": second.weight, "b2": second.bias, "x": x},
            {"w1": first.grad_weight, "gamma": bn.grad_gamma,
             "beta": bn.grad_beta, "w2": second.grad_weight, "b2": second.grad_bias,
             "x": grad_x},
        )
        assert report.passed, f"seed {seed}: {report}"

"""Loss values against hand evaluations, gradient checks away from hinge kinks."""

import numpy as np
import pytest

from persage.losses import (
    LossConfig,
    batch_loss,
    cls_loss,
    encode_label_distribution,
    hard_label,
    hard_labels,
    hinge,
    ord_loss,
    total_loss,
)
from persage.mathcore import grad_check, softmax


# ---------------------------------------------------------------- cls_loss

def test_cls_loss_uniform_hand_case():
    loss, grad = cls_loss(np.zeros(4), 2)
    assert abs(loss - np.log(4.0)) < 1e-12
    expected = np.full(4, 0.25)
    expected[2] -= 1.0
    assert np.allclose(grad, expected, atol=1e-12)


def test_cls_loss_saturated_correct_class():
    scores = np.zeros(5)
    scores[1] = 40.0
    loss, _ = cls_loss(scores, 1)
    assert 0.0 <= loss <= 1e-15


def test_cls_loss_soft_fixed_point():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=6)
    _, grad = cls_loss(scores, softmax(scores))
    assert np.abs(grad).max() < 1e-12


def test_cls_loss_grad_sums_to_zero():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 10))
        scores = rng.normal(scale=3.0, size=k)
        _, grad = cls_loss(scores, int(rng.integers(0, k)))
        assert abs(grad.sum()) < 1e-12


def test_cls_loss_validation():
    with pytest.raises(ValueError):
        cls_loss(np.zeros(3), 3)
    with pytest.raises(ValueError):
        cls_loss(np.zeros(3), np.array([0.5, 0.2, 0.2]))  # sums to 0.9
    with pytest.raises(ValueError):
        cls_loss(np.zeros(3), np.array([1.5, -0.5, 0.0]))


def test_cls_loss_gradient_matches_finite_differences():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 8))
        scores = rng.normal(scale=2.0, size=k)
        y = int(rng.integers(0, k))

        def loss_fn():
            return cls_loss(scores, y)[0]

        report = grad_check(loss_fn, {"s": scores}, {"s": cls_loss(scores, y)[1]})
        assert report.passed, str(report)


# ---------------------------------------------------------------- hinge / ord

def test_hinge_hand_cases():
    assert hinge(5.0, 3.0, 2.0) == 0.0
    assert hinge(3.0, 3.0, 2.0) == 2.0
    for z in (-4.0, 0.0, 7.5):
        assert hinge(z, z, 0.0) == 0.0


def test_ord_loss_hand_cases():
    # slack on both sides
    loss, grad = ord_loss(np.array([0.0, 5.0, 1.0]), 1, 2.0)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros(3))
    # flat scores: both neighbor hinges active at margin 2
    loss, grad = ord_loss(np.array([0.0, 0.0, 0.0]), 1, 2.0)
    assert loss == 4.0
    assert np.array_equal(grad, np.array([1.0, -2.0, 1.0]))
    # single class: empty sums
    loss, grad = ord_loss(np.array([3.0]), 0, 2.0)
    assert loss == 0.0 and np.array_equal(grad, np.zeros(1))


def test_ord_loss_validation():
    with pytest.raises(ValueError):
        ord_loss(np.zeros(3), 3, 2.0)
    with pytest.raises(ValueError):
        ord_loss(np.zeros(3), -1, 2.0)


def _unimodal_scores(rng, k, y, delta):
    # build scores rising by > delta up to y, falling by > delta after it
    gaps = delta + rng.uniform(0.01, 3.0, size=k - 1) if k > 1 else np.zeros(0)
    scores = np.zeros(k)
    for i in range(y, 0, -1):
        scores[i - 1] = scores[i] - gaps[i - 1]
    for i in range(y, k - 1):
        scores[i + 1] = scores[i] - gaps[i]
    return scores


def test_ord_loss_zero_iff_unimodal_with_margin():
    count_sat = count_violate = 0
    seed = 0
    while count_sat < 100 or count_violate < 100:
        rng = np.random.default_rng(seed)
        seed += 1
        k = int(rng.integers(2, 10))
        y = int(rng.integers(0, k))
        delta = float(rng.uniform(0.1, 3.0))
        scores = _unimodal_scores(rng, k, y, delta)
        if count_sat < 100:
            loss, _ = ord_loss(scores, y, delta)
            assert loss == 0.0, f"satisfying case seed {seed - 1} gave {loss}"
            count_sat += 1
        if count_violate < 100:
            # break one margin by shrinking a single gap below delta
            j = int(rng.integers(0, k - 1))
            broken = scores.copy()
            shrink = float(rng.uniform(0.5, 1.0)) * delta if delta > 0 else 0.5
            if j < y:
                broken[j] = broken[j + 1] - (delta - shrink)
            else:
                broken[j + 1] = broken[j] - (delta - shrink)
            loss, _ = ord_loss(broken, y, delta)
            assert loss > 0.0, f"violating case seed {seed - 1} gave 0"
            count_violate += 1


def test_ord_loss_gradient_matches_finite_differences_away_from_kinks():
    # Away from kinks the loss is locally linear and every gradient entry is an
    # integer (sum of active-hinge signs), so the central difference must agree
    # in absolute terms; relative comparison would drown exact zeros in noise.
    checked = 0
    seed = 0
    step = 1e-5
    while checked < 50:
        rng = np.random.default_rng(1000 + seed)
        seed += 1
        k = int(rng.integers(2, 8))
        y = int(rng.integers(0, k))
        delta = 2.0
        scores = rng.normal(scale=4.0, size=k)
        gaps = scores[1:] - scores[:-1]
        # skip configurations near a kink, where the subgradient convention
        # and the two-sided difference disagree
        if np.min(np.abs(np.concatenate([delta - gaps, delta + gaps]))) < 1e-3:
            continue
        _, grad = ord_loss(scores, y, delta)
        for j in range(k):
            orig = scores[j]
            scores[j] = orig + step
            plus = ord_loss(scores, y, delta)[0]
            scores[j] = orig - step
            minus = ord_loss(scores, y, delta)[0]
            scores[j] = orig
            numeric = (plus - minus) / (2.0 * step)
            assert abs(grad[j] - numeric) < 1e-8, (seed - 1, j, grad[j], numeric)
        checked += 1


# ---------------------------------------------------------------- total / encoding

def test_total_loss_linearity():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=6)
    y = 2
    config = LossConfig(lam=0.7, delta=2.0)
    closs, cgrad = cls_loss(scores, y)
    oloss, ograd = ord_loss(scores, y, 2.0)
    tloss, tgrad = total_loss(scores, y, y, config)
    assert tloss == closs + 0.7 * oloss
    assert np.array_equal(tgrad, cgrad + 0.7 * ograd)
    # lam=0 recovers pure classification
    tloss0, tgrad0 = total_loss(scores, y, y, LossConfig(lam=0.0))
    assert tloss0 == closs and np.array_equal(tgrad0, cgrad)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(lam=-0.1)
    with pytest.raises(ValueError):
        LossConfig(delta=np.inf)
    with pytest.raises(ValueError):
        LossConfig(target_mode="gaussian")


def test_encode_label_distribution_properties():
    # near-zero sigma approaches one-hot
    t = encode_label_distribution(7, 1e-3, 20)
    onehot = np.zeros(20)
    onehot[7] = 1.0
    assert np.abs(t - onehot).max() < 1e-9
    # symmetric around an integer center
    t = encode_label_distribution(50, 3.0, 101)
    for j in range(1, 10):
        assert abs(t[50 - j] - t[50 + j]) < 1e-15
    # midpoint label splits equally between neighbors
    t = encode_label_distribution(2.5, 1.0, 6)
    assert abs(t[2] - t[3]) < 1e-15
    assert abs(t.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        encode_label_distribution(3.0, 0.0, 10)


def test_hard_label_rounds_and_clamps():
    assert hard_label(3.4, 10) == 3
    assert hard_label(3.6, 10) == 4
    assert hard_label(-2.0, 10) == 0
    assert hard_label(12.7, 10) == 9


def test_hard_labels_match_hard_label_elementwise():
    k = 10
    halves = np.arange(-3.5, k + 3.0, 0.5)
    labels = np.concatenate([
        halves, -halves, [-0.5, -1e-300, -7.2, -1e300],          # negatives
        [k - 1.0, k - 0.5, k + 0.49, 1e300],                       # above K-1
        np.random.default_rng(0).uniform(-2.0, k + 2.0, size=200)])  # fractions
    # Python's round also rounds halves to even
    expected = np.array([min(max(round(v), 0), k - 1) for v in labels])
    got = hard_labels(labels, k)
    assert got.dtype.kind == "i"
    assert np.array_equal(got, expected)
    assert [hard_label(v, k) for v in labels] == expected.tolist()
    assert hard_labels(np.array([0.5, 1.5, 2.5]), k).tolist() == [0, 2, 2]
    config = LossConfig(lam=0.3, delta=1.5)
    scores = np.random.default_rng(1).normal(scale=3.0, size=(labels.size, k))
    loss, grad = batch_loss(scores, labels, None, config)
    per = [total_loss(scores[i], e, e, config) for i, e in enumerate(expected)]
    assert abs(loss - np.mean([p[0] for p in per])) < 1e-12
    assert np.allclose(grad, np.stack([p[1] for p in per]) / labels.size,
                       atol=1e-12)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            hard_labels(np.array([1.0, bad]), k)
        with pytest.raises(ValueError):
            batch_loss(np.zeros((2, k)), np.array([1.0, bad]), None, config)


# ---------------------------------------------------------------- batch helper

def test_batch_loss_matches_per_sample_ops():
    # integer labels, then fractional ones: halves, values that clamp to
    # class 0 or K-1, and uniform draws; with and without the ordinal term
    for lam in (0.3, 0.0):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            b, k = int(rng.integers(1, 6)), int(rng.integers(2, 9))
            scores = rng.normal(scale=3.0, size=(b, k))
            integer = rng.integers(0, k, size=b).astype(np.float64)
            halves = rng.integers(0, 2 * k - 1, size=b) / 2.0
            clamped = rng.choice([-1.7, -0.5, k - 0.5, k + 2.2], size=b)
            uniform = rng.uniform(-1.0, k, size=b)
            config = LossConfig(lam=lam, delta=1.5)
            for labels in (integer, halves, clamped, uniform):
                loss, grad = batch_loss(scores, labels, None, config)
                # Python's round sends halves to even, as np.rint does
                hard = [min(max(round(y), 0), k - 1) for y in labels]
                per = [total_loss(scores[i], hard[i], hard[i], config)
                       for i in range(b)]
                assert abs(loss - np.mean([p[0] for p in per])) < 1e-12
                assert np.allclose(grad, np.stack([p[1] for p in per]) / b,
                                   atol=1e-12)


def test_batch_loss_soft_mode_matches_per_sample_ops():
    rng = np.random.default_rng(9)
    b, k = 4, 7
    scores = rng.normal(scale=2.0, size=(b, k))
    labels = rng.uniform(0, k - 1, size=b)
    sigmas = rng.uniform(0.5, 3.0, size=b)
    config = LossConfig(lam=0.2, delta=2.0, target_mode="label_distribution")
    loss, grad = batch_loss(scores, labels, sigmas, config)
    per = []
    for i in range(b):
        t = encode_label_distribution(labels[i], sigmas[i], k)
        per.append(total_loss(scores[i], t, hard_label(labels[i], k), config))
    assert abs(loss - np.mean([p[0] for p in per])) < 1e-12
    assert np.allclose(grad, np.stack([p[1] for p in per]) / b, atol=1e-12)


def test_batch_loss_soft_mode_requires_sigmas():
    config = LossConfig(target_mode="label_distribution")
    with pytest.raises(ValueError):
        batch_loss(np.zeros((2, 5)), np.array([1.0, 2.0]), None, config)
    with pytest.raises(ValueError):
        batch_loss(np.zeros((2, 5)), np.array([1.0, 2.0]),
                   np.array([1.0, np.nan]), config)

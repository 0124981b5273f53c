"""Loss values against hand evaluations, gradient checks away from hinge kinks."""

import numpy as np
import pytest

from persage.losses import (
    LossConfig,
    batch_loss,
    encode_label_distribution,
    hard_labels,
    ord_loss,
)
from persage.mathcore import grad_check, softmax


# ------------------------------------------------- per-sample reference loss

def cls_loss(scores, target):
    """Cross-entropy of softmax(scores) against a class index or a distribution.

    Returns (loss, grad_scores) with grad = softmax(scores) - target. One row
    at a time, the reference ``batch_loss`` is tested against.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be a vector, got shape {scores.shape}")
    k = scores.shape[0]
    probs = softmax(scores)
    m = scores.max()
    lse = float(m + np.log(np.exp(scores - m).sum()))
    if np.isscalar(target) or np.ndim(target) == 0:
        y = int(target)
        if not 0 <= y < k:
            raise ValueError(f"class index {y} out of range for K={k}")
        loss = lse - float(scores[y])
        grad = probs.copy()
        grad[y] -= 1.0
        return loss, grad
    t = np.asarray(target, dtype=np.float64)
    if t.shape != scores.shape:
        raise ValueError(f"target shape {t.shape} != scores shape {scores.shape}")
    if np.any(t < 0.0) or abs(t.sum() - 1.0) > 1e-6:
        raise ValueError("soft target must be non-negative and sum to 1")
    loss = lse - float(t @ scores)
    return loss, probs - t


def ord_loss_ref(scores, y, delta):
    """The ordinal hinge of one score vector at class y, gap by gap.

    Returns (loss, grad_scores): the reference ``ord_loss`` and the ordinal
    term of ``batch_loss`` are tested against.
    """
    k = scores.shape[0]
    if k == 1:
        return 0.0, np.zeros(1)
    d = scores[1:] - scores[:-1]                   # neighbor gaps, length K-1
    left = np.arange(k - 1) < y                    # gaps below the label
    margins = np.where(left, delta - d, delta + d)
    active = margins > 0.0
    loss = float(margins[active].sum())
    # d(loss)/d(gap): -1 on active left hinges, +1 on active right hinges
    grad_d = np.where(active, np.where(left, -1.0, 1.0), 0.0)
    grad = np.zeros(k)
    grad[1:] += grad_d
    grad[:-1] -= grad_d
    return loss, grad


def label_distribution_ref(y_mean, sigma, k):
    """One sample's discretized Gaussian target over classes 0..K-1."""
    sigma = float(sigma)
    idx = np.arange(k, dtype=np.float64)
    expo = -((idx - float(y_mean)) ** 2) / (2.0 * sigma * sigma)
    expo -= expo.max()  # keep at least one term at exp(0)=1
    t = np.exp(expo)
    return t / t.sum()


def total_loss(scores, target, y_hard, config):
    """cls_loss + lam * ord_loss_ref, gradients combined linearly."""
    closs, cgrad = cls_loss(scores, target)
    if config.lam == 0.0:
        return closs, cgrad
    oloss, ograd = ord_loss_ref(scores, y_hard, config.delta)
    return closs + config.lam * oloss, cgrad + config.lam * ograd


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


# ---------------------------------------------------------------- ord_loss

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
    with pytest.raises(ValueError, match="vector"):
        ord_loss(np.zeros((2, 3)), 0, 2.0)


def test_ord_loss_matches_reference():
    # the hinge sums every gap, zeros included, where the reference sums
    # only the active ones, so the loss may differ in the last bits
    for seed in range(200):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 121))
        scores = rng.normal(scale=rng.uniform(0.1, 5.0), size=k)
        y = int(rng.integers(0, k))
        delta = float(rng.choice([0.0, rng.uniform(0.1, 3.0)]))
        loss, grad = ord_loss(scores, y, delta)
        want_loss, want_grad = ord_loss_ref(scores, y, delta)
        assert grad.tobytes() == want_grad.tobytes(), seed
        assert abs(loss - want_loss) <= 1e-15 * abs(want_loss), seed


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


def test_gaps_exactly_on_the_margin_cost_nothing():
    # the subgradient at a kink is 0: scores that rise by exactly delta up
    # to the class and fall by exactly delta after it (integers, so exact)
    # give zero loss and zero gradient
    rng = np.random.default_rng(4)
    for _ in range(50):
        k = int(rng.integers(2, 12))
        delta = float(rng.integers(0, 4))
        ys = rng.integers(0, k, size=5)
        scores = -delta * np.abs(np.arange(k)[None, :] - ys[:, None])
        for row, y in zip(scores, ys):
            loss, grad = ord_loss(row, y, delta)
            assert loss == 0.0 and not grad.any()
        labels = ys.astype(np.float64)
        loss, grad = batch_loss(scores, labels, None, LossConfig(lam=0.5, delta=delta))
        ce_loss, ce_grad = batch_loss(scores, labels, None,
                                      LossConfig(lam=0.0, delta=delta))
        assert loss == ce_loss and np.array_equal(grad, ce_grad)


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
    oloss, ograd = ord_loss_ref(scores, y, 2.0)
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


def test_encode_label_distribution_rows_match_reference():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        b, k = int(rng.integers(1, 40)), int(rng.integers(1, 121))
        labels = rng.uniform(-2.0, k + 1.0, size=b)
        sigmas = rng.uniform(1e-3, 10.0, size=b)
        got = encode_label_distribution(labels, sigmas, k)
        assert got.shape == (b, k)
        for i in range(b):
            want = label_distribution_ref(labels[i], sigmas[i], k)
            assert got[i].tobytes() == want.tobytes(), (seed, i)
        # one scalar sample gives the same bytes as its row
        one = encode_label_distribution(labels[0], sigmas[0], k)
        assert one.shape == (k,) and one.tobytes() == got[0].tobytes()
    with pytest.raises(ValueError):
        encode_label_distribution(np.array([1.0, 2.0]), np.array([1.0, 0.0]), 5)


def test_hard_label_rounds_and_clamps():
    assert hard_labels([3.4, 3.6, -2.0, 12.7], 10).tolist() == [3, 4, 0, 9]


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
    # one label at a time gives the same classes
    assert [int(hard_labels([v], k)[0]) for v in labels] == expected.tolist()
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
    hard = hard_labels(labels, k)
    per = []
    for i in range(b):
        t = label_distribution_ref(labels[i], sigmas[i], k)
        per.append(total_loss(scores[i], t, hard[i], config))
    assert abs(loss - np.mean([p[0] for p in per])) < 1e-12
    assert np.allclose(grad, np.stack([p[1] for p in per]) / b, atol=1e-12)


def test_batch_loss_needs_one_label_per_score_row():
    config = LossConfig()
    for scores, labels in ((np.zeros(5), np.zeros(1)), (np.zeros((2, 5)), np.zeros(3)),
                           (np.zeros((2, 5)), np.zeros((2, 1)))):
        with pytest.raises(ValueError, match="shape mismatch"):
            batch_loss(scores, labels, None, config)


def test_batch_loss_soft_mode_requires_sigmas():
    config = LossConfig(target_mode="label_distribution")
    with pytest.raises(ValueError):
        batch_loss(np.zeros((2, 5)), np.array([1.0, 2.0]), None, config)
    with pytest.raises(ValueError):
        batch_loss(np.zeros((2, 5)), np.array([1.0, 2.0]),
                   np.array([1.0, np.nan]), config)

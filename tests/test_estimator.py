"""Head checks: score products, softmax decoding, expectation invariances."""

import numpy as np
import pytest

from persage.estimator import class_scores_batch, expected_ages
from persage.mathcore import softmax


def test_class_scores_hand_cases():
    # basis rows pick coordinates
    w = np.eye(3)
    assert np.array_equal(class_scores_batch(w[None], np.array([[0.0, 0.0, 1.0]])),
                          np.array([[0.0, 0.0, 1.0]]))
    # constant rows give constant scores
    assert np.array_equal(class_scores_batch(np.ones((1, 4, 3)),
                                             np.array([[1.0, 2.0, 3.0]])),
                          np.full((1, 4), 6.0))
    # 2x2 dot products by hand
    scores = class_scores_batch(np.array([[[1.0, 0.0], [0.0, 2.0]]]),
                                np.array([[3.0, 4.0]]))
    assert np.array_equal(scores, np.array([[3.0, 8.0]]))


def test_class_scores_scale_covariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.normal(size=(1, 5, 3))
        g = rng.normal(size=(1, 3))
        c = rng.normal()
        assert np.allclose(class_scores_batch(c * w, g),
                           c * class_scores_batch(w, g), atol=1e-12)


def test_class_scores_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        class_scores_batch(np.ones((1, 3, 2)), np.ones((1, 3)))
    with pytest.raises(ValueError):
        class_scores_batch(np.ones((3, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError):
        class_scores_batch(np.ones((2, 3, 2)), np.ones((1, 2)))


def test_class_scores_batch_matches_loop():
    rng = np.random.default_rng(1)
    wb = rng.normal(size=(4, 6, 3))
    gb = rng.normal(size=(4, 3))
    out = class_scores_batch(wb, gb)
    for b in range(4):
        # batched einsum may order the reduction differently than gemv
        assert np.allclose(out[b], wb[b] @ gb[b], rtol=1e-12, atol=1e-12)


def test_age_distribution_hand_cases():
    # uniform scores, K=101 -> expectation at the middle class
    assert abs(expected_ages(softmax(np.zeros(101))) - 50.0) < 1e-12
    # dominant score saturates to its class
    scores = np.zeros(5)
    scores[3] = 40.0
    assert abs(expected_ages(softmax(scores)) - 3.0) < 1e-9
    # probs [0.2, 0.3, 0.5] -> 0*0.2 + 1*0.3 + 2*0.5 = 1.3
    p = np.array([0.2, 0.3, 0.5])
    probs = softmax(np.log(p))
    assert abs(expected_ages(probs) - 1.3) < 1e-12
    assert np.allclose(probs, p, atol=1e-12)


def test_age_distribution_invariants():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 12))
        scores = rng.normal(scale=5.0, size=k)
        probs = softmax(scores)
        age = expected_ages(probs)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert 0.0 <= age <= k - 1
        # shifting every score leaves the expectation unchanged
        shifted = expected_ages(softmax(scores + rng.normal()))
        assert abs(shifted - age) < 1e-9


def test_expected_ages_batch():
    probs = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    assert np.allclose(expected_ages(probs), [1.3, 0.0], atol=1e-15)

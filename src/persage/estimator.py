"""Age prediction head: bias-free class scores and expectation decoding.

The head is deliberately bias-free: each class score is a plain inner product
between that class's weight row and the age-feature vector, so a weight matrix
is the entire head. Ages are decoded as the expectation of the softmax class
distribution, ``expected_ages(softmax(scores))``, never by rounding.
"""

from __future__ import annotations

import numpy as np


def class_scores_batch(weights_batch, age_feats):
    """Per-sample scores: weights_batch (B, K, D) x age_feats (B, D) -> (B, K)."""
    weights_batch = np.asarray(weights_batch, dtype=np.float64)
    age_feats = np.asarray(age_feats, dtype=np.float64)
    if weights_batch.ndim != 3 or age_feats.ndim != 2:
        raise ValueError(
            f"expected (B,K,D) weights and (B,D) features, got "
            f"{weights_batch.shape} and {age_feats.shape}"
        )
    if weights_batch.shape[0] != age_feats.shape[0] or weights_batch.shape[2] != age_feats.shape[1]:
        raise ValueError(
            f"batch/feature dims disagree: {weights_batch.shape} vs {age_feats.shape}"
        )
    return np.einsum("bkd,bd->bk", weights_batch, age_feats)


def expected_ages(probs):
    """Expectation over class indices for each row of a (B, K) probability array."""
    probs = np.asarray(probs, dtype=np.float64)
    k = np.arange(probs.shape[-1], dtype=np.float64)
    return probs @ k

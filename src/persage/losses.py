"""Training objective: cross-entropy plus a margin hinge on neighboring scores.

The hinge term pushes each sample's score vector toward a unimodal shape: strictly
rising (by at least the margin) up to the labeled class and strictly falling after
it. Both terms come with analytic gradients w.r.t. the scores so the model behind
them only ever needs a plain backward pass from grad_scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mathcore import softmax


@dataclass
class LossConfig:
    lam: float = 0.2           # weight of the ordinal term in the total loss
    delta: float = 2.0         # hinge margin between neighboring class scores
    target_mode: str = "hard_onehot"  # or "label_distribution"

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not (np.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if self.target_mode not in ("hard_onehot", "label_distribution"):
            raise ValueError(f"unknown target_mode {self.target_mode!r}")


def _logsumexp(scores):
    """log(sum(exp(scores))) of each row of (B, K) scores, max-shifted: (B,)."""
    m = scores.max(axis=-1)
    return m + np.log(np.exp(scores - m[:, None]).sum(axis=-1))


def _hinge(scores, y_hard, delta, grad, scale):
    """Ordinal hinge of each row of (B, K) scores at its class ``y_hard``.

    A row's loss is zero iff its scores rise by >= delta up to the class and
    fall by >= delta afterwards. Adds ``scale`` times the gradient into
    ``grad`` (B, K) in place and returns the (B,) row losses. The
    subgradient at a hinge kink is 0.
    """
    d = scores[:, 1:] - scores[:, :-1]             # neighbor gaps, (B, K-1)
    left = np.arange(d.shape[1])[None, :] < y_hard[:, None]  # gaps below the class
    margins = np.where(left, delta - d, delta + d)
    active = margins > 0.0
    # d(loss)/d(gap): -1 on active left hinges, +1 on active right hinges
    grad_d = np.where(active, np.where(left, -1.0, 1.0), 0.0) * scale
    grad[:, 1:] += grad_d
    grad[:, :-1] -= grad_d
    return np.where(active, margins, 0.0).sum(axis=1)


def ord_loss(scores, y, delta):
    """``batch_loss``'s ordinal term on one score vector at class y.

    Returns (loss, grad_scores).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be a vector, got shape {scores.shape}")
    k = scores.shape[0]
    y = int(y)
    if not 0 <= y < k:
        raise ValueError(f"class index {y} out of range for K={k}")
    grad = np.zeros(k)
    loss = _hinge(scores[None], np.array([y]), delta, grad[None], 1.0)
    return float(loss[0]), grad


def encode_label_distribution(y_mean, sigma, k):
    """Discretized Gaussian over classes 0..K-1, normalized to sum 1.

    Scalar ``y_mean`` and ``sigma`` give a (K,) target; (B,) arrays give
    one row per sample, (B, K).
    """
    y_mean = np.asarray(y_mean, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if not np.all(np.isfinite(sigma) & (sigma > 0.0)):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    idx = np.arange(k, dtype=np.float64)
    expo = -((idx - y_mean[..., None]) ** 2) / (2.0 * sigma * sigma)[..., None]
    expo -= expo.max(axis=-1, keepdims=True)  # keep at least one term at exp(0)=1
    t = np.exp(expo)
    return t / t.sum(axis=-1, keepdims=True)


def hard_labels(labels, k):
    """Nearest class index of every entry of a label vector, as an int array.

    Halves round to even (``np.rint``), and indices clamp to 0..k-1.
    Non-finite labels have no nearest class and raise ValueError.
    """
    labels = np.asarray(labels, dtype=np.float64)
    if not np.isfinite(labels).all():
        raise ValueError("labels must be finite")
    return np.clip(np.rint(labels), 0, k - 1).astype(np.int64)


def batch_loss(scores, labels, sigmas, config):
    """Mean total loss over a batch plus grad_scores, vectorized.

    scores: (B, K); labels: (B,) possibly fractional; sigmas: (B,) or None,
    required (finite, > 0) when target_mode is label_distribution. The loss is
    the mean over rows of cross-entropy plus lam times the ordinal hinge at
    the row's ``hard_labels`` class; the gradient rows are scaled by 1/B.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 2 or labels.shape != (scores.shape[0],):
        raise ValueError(f"shape mismatch: scores {scores.shape}, labels {labels.shape}")
    b, k = scores.shape
    y_hard = hard_labels(labels, k)
    if config.target_mode == "label_distribution":
        if sigmas is None or np.shape(sigmas) != (b,):
            raise ValueError("label_distribution targets need one sigma per sample")
        targets = encode_label_distribution(labels, sigmas, k)
    else:
        # fractional labels fall back to the nearest class
        targets = np.zeros((b, k))
        targets[np.arange(b), y_hard] = 1.0

    probs = softmax(scores)
    lse = _logsumexp(scores)
    closs = float((lse - (targets * scores).sum(axis=1)).mean())
    grad = (probs - targets) / b
    if config.lam == 0.0:
        return closs, grad

    oloss = float(_hinge(scores, y_hard, config.delta, grad, config.lam / b).mean())
    return closs + config.lam * oloss, grad

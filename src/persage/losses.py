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


def ord_loss(scores, y, delta):
    """Margin penalty for non-unimodal score vectors; zero iff scores rise by
    >= delta up to class y and fall by >= delta afterwards.

    Returns (loss, grad_scores). The subgradient at a hinge kink is 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"scores must be a vector, got shape {scores.shape}")
    k = scores.shape[0]
    y = int(y)
    if not 0 <= y < k:
        raise ValueError(f"class index {y} out of range for K={k}")
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


def encode_label_distribution(y_mean, sigma, k):
    """Discretized Gaussian over classes 0..K-1, normalized to sum 1."""
    sigma = float(sigma)
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    idx = np.arange(k, dtype=np.float64)
    expo = -((idx - float(y_mean)) ** 2) / (2.0 * sigma * sigma)
    expo -= expo.max()  # keep at least one term at exp(0)=1
    t = np.exp(expo)
    return t / t.sum()


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
    the mean over rows of cross-entropy plus lam times ``ord_loss`` at the
    row's ``hard_labels`` class; the gradient rows are scaled by 1/B.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.ndim != 2 or labels.shape != (scores.shape[0],):
        raise ValueError(f"shape mismatch: scores {scores.shape}, labels {labels.shape}")
    b, k = scores.shape
    y_hard = hard_labels(labels, k)
    if config.target_mode == "label_distribution":
        if sigmas is None:
            raise ValueError("label_distribution targets need per-sample sigmas")
        sigmas = np.asarray(sigmas, dtype=np.float64)
        if sigmas.shape != (b,) or not np.all(np.isfinite(sigmas) & (sigmas > 0.0)):
            raise ValueError("label_distribution targets need finite sigma > 0 per sample")
        targets = np.stack([encode_label_distribution(labels[i], sigmas[i], k)
                            for i in range(b)])
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

    d = scores[:, 1:] - scores[:, :-1]
    left = np.arange(k - 1)[None, :] < y_hard[:, None]
    margins = np.where(left, config.delta - d, config.delta + d)
    active = margins > 0.0
    oloss = float(np.where(active, margins, 0.0).sum(axis=1).mean())
    grad_d = np.where(active, np.where(left, -1.0, 1.0), 0.0) * (config.lam / b)
    grad[:, 1:] += grad_d
    grad[:, :-1] -= grad_d
    return closs + config.lam * oloss, grad

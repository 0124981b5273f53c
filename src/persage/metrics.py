"""Evaluation metrics and weight-space retrieval.

MAE and the cumulative-score curve work on raw (unrounded) predictions. The
annotation-weighted error needs a positive per-sample spread and refuses to
guess one: a missing or non-positive spread is a data bug, not a zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .metalearner import generate_weights, generate_weights_batch


def _pair(preds, labels):
    preds = np.asarray(preds, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if preds.size == 0:
        raise ValueError("metrics need at least one sample")
    if preds.shape != labels.shape:
        raise ValueError(f"length mismatch: {preds.shape[0]} predictions, "
                         f"{labels.shape[0]} labels")
    return preds, labels


def mae(preds, labels):
    preds, labels = _pair(preds, labels)
    return float(np.abs(preds - labels).mean())


def cs(preds, labels, theta):
    """Percentage of samples with |error| <= theta (boundary counts)."""
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    preds, labels = _pair(preds, labels)
    return float(100.0 * (np.abs(preds - labels) <= theta).mean())


def cs_curve(preds, labels, theta_max):
    """[(theta, cs)] at integer thresholds 0..theta_max."""
    return [(theta, cs(preds, labels, theta)) for theta in range(int(theta_max) + 1)]


def eps_error(preds, labels, sigmas):
    """1 - mean of exp(-err^2 / (2 sigma^2)); 0 for exact predictions."""
    preds, labels = _pair(preds, labels)
    sigmas = np.asarray(sigmas, dtype=np.float64).reshape(-1)
    if sigmas.shape != preds.shape:
        raise ValueError(f"length mismatch: {preds.shape[0]} predictions, "
                         f"{sigmas.shape[0]} sigmas")
    if not np.all(np.isfinite(sigmas) & (sigmas > 0.0)):
        raise ValueError("every sigma must be finite and > 0")
    return float(1.0 - np.exp(-((preds - labels) ** 2)
                              / (2.0 * sigmas ** 2)).mean())


@dataclass
class EvalResult:
    mae: float
    cs_curve: list            # [(theta, cs)] at integer thresholds
    eps_error: float | None   # None when any sigma is unknown
    n_samples: int

    def to_json(self):
        return json.dumps(
            {"mae": self.mae,
             "cs_curve": [[t, v] for t, v in self.cs_curve],
             "eps_error": self.eps_error,
             "n_samples": self.n_samples},
            sort_keys=True, indent=2) + "\n"

    def cs_csv(self):
        lines = ["theta,cs"] + [f"{t},{v!r}" for t, v in self.cs_curve]
        return "\n".join(lines) + "\n"


_THETA_MAX = 10  # eval_result's cumulative-score thresholds are 0.._THETA_MAX


def eval_result(preds, labels, sigmas=None):
    """Bundle the three metrics; the sigma-weighted one only if all sigmas known."""
    preds, labels = _pair(preds, labels)
    eps = None
    if sigmas is not None:
        sigmas = np.asarray(sigmas, dtype=np.float64).reshape(-1)
        if not np.isnan(sigmas).any():
            eps = eps_error(preds, labels, sigmas)
    return EvalResult(mae=mae(preds, labels),
                      cs_curve=cs_curve(preds, labels, _THETA_MAX),
                      eps_error=eps, n_samples=int(preds.shape[0]))


# ---------------------------------------------------------------- retrieval

@dataclass
class RetrievalResult:
    query_index: int | None   # gallery position of the query, if it has one
    ranked_indices: np.ndarray
    distances: np.ndarray     # ascending, aligned with ranked_indices


def weight_embedding(params, id_feat):
    """Flattened personalized weight matrix (eval mode), length K*D."""
    return generate_weights(params, id_feat).reshape(-1)


_EMBED_CHUNK = 256  # identity rows per generate_weights_batch call


def weight_embeddings(params, id_feats):
    """weight_embedding of each row of (N, F) identity features: (N, K*D).

    Rows go through eval-mode generate_weights_batch _EMBED_CHUNK at a time.
    Eval mode makes each row independent of the rest of its chunk, so the
    result equals the per-sample embeddings up to rounding.
    """
    id_feats = np.asarray(id_feats, dtype=np.float64)
    d = params.dims
    out = np.empty((id_feats.shape[0], d.n_classes * d.age_dim))
    for start in range(0, id_feats.shape[0], _EMBED_CHUNK):
        weights, _ = generate_weights_batch(
            params, id_feats[start:start + _EMBED_CHUNK], mode="eval")
        out[start:start + _EMBED_CHUNK] = weights.reshape(weights.shape[0], -1)
    return out


def retrieve(query_embedding, gallery_embeddings, query_index=None):
    """Gallery ranked by Euclidean distance to the query, ties by index."""
    query = np.asarray(query_embedding, dtype=np.float64).reshape(-1)
    gallery = np.asarray(gallery_embeddings, dtype=np.float64)
    if gallery.ndim != 2 or gallery.shape[0] == 0:
        raise ValueError("gallery must be a non-empty (N, dim) array")
    if gallery.shape[1] != query.shape[0]:
        raise ValueError(f"embedding dim mismatch: query {query.shape[0]}, "
                         f"gallery {gallery.shape[1]}")
    # about 1 MiB of differences at a time; each row's norm is computed alone,
    # so the blocking leaves every distance bitwise unchanged
    rows = max(1, 2**17 // query.shape[0])
    distances = np.empty(gallery.shape[0])
    for start in range(0, gallery.shape[0], rows):
        block = gallery[start:start + rows]
        distances[start:start + rows] = np.linalg.norm(block - query, axis=1)
    order = np.argsort(distances, kind="stable")
    return RetrievalResult(query_index=query_index,
                           ranked_indices=order,
                           distances=distances[order])


def slice_agreement(result, flags, fraction=0.10):
    """Fraction of the nearest and farthest slices whose flag is set.

    flags: boolean per gallery entry (e.g. "shares the query's offset sign").
    The query's own gallery entry, if any, is excluded before slicing. Slice
    size is max(1, floor(fraction * n)). Returns (top_rate, bottom_rate).
    """
    ranked = result.ranked_indices
    if result.query_index is not None:
        ranked = ranked[ranked != result.query_index]
    flags = np.asarray(flags, dtype=bool)
    n = ranked.shape[0]
    if n == 0:
        raise ValueError("gallery holds only the query")
    size = max(1, int(fraction * n))
    top = flags[ranked[:size]]
    bottom = flags[ranked[-size:]]
    return float(top.mean()), float(bottom.mean())

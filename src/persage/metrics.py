"""Evaluation metrics and weight-space retrieval.

MAE and the cumulative-score curve work on raw (unrounded) predictions. The
annotation-weighted error needs a positive per-sample spread and refuses to
guess one: a missing or non-positive spread is a data bug, not a zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import csv_text, json_text
from .metalearner import TILE_BYTES, generate_weights, generate_weights_batch


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
        return json_text({"mae": self.mae,
                          "cs_curve": [[t, v] for t, v in self.cs_curve],
                          "eps_error": self.eps_error,
                          "n_samples": self.n_samples})

    def cs_csv(self):
        return csv_text("theta,cs", self.cs_curve)


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


def weight_embeddings(params, id_feats):
    """weight_embedding of each row of (N, F) identity features: (N, K*D).

    One eval-mode generate_weights_batch call writes every row's weights
    into the result, building the generator's hidden rows a tile at a time.
    Eval mode makes each row independent of the rest of its tile, so the
    result equals the per-sample embeddings up to rounding.
    """
    id_feats = np.asarray(id_feats, dtype=np.float64)
    if id_feats.shape[0] == 0:
        return np.empty((0, params.dims.n_classes * params.dims.age_dim))
    weights, _ = generate_weights_batch(params, id_feats, mode="eval")
    return weights.reshape(weights.shape[0], -1)


def retrieve(query_embedding, gallery_embeddings, query_index=None):
    """Gallery ranked by Euclidean distance to the query, ties by index.

    Distances do not depend on the gallery's memory layout: a C-ordered,
    Fortran-ordered or strided gallery of the same values gives bitwise
    equal distances and the same ranking.
    """
    query = np.asarray(query_embedding, dtype=np.float64).reshape(-1)
    gallery = np.asarray(gallery_embeddings, dtype=np.float64)
    if gallery.ndim != 2 or gallery.shape[0] == 0:
        raise ValueError("gallery must be a non-empty (N, dim) array")
    if gallery.shape[1] != query.shape[0]:
        raise ValueError(f"embedding dim mismatch: query {query.shape[0]}, "
                         f"gallery {gallery.shape[1]}")
    # squared differences of TILE_BYTES of rows at a time, in one reused
    # C-ordered buffer: np.linalg.norm's sqrt(add.reduce(x * x)) for real x,
    # without its temporaries, each row summed alone in the same order
    n = gallery.shape[0]
    rows = min(max(1, TILE_BYTES // (8 * query.shape[0])), n)
    buf = np.empty((rows, query.shape[0]))
    distances = np.empty(n)
    for start in range(0, n, rows):
        block = gallery[start:start + rows]
        part = buf[:block.shape[0]]
        np.subtract(block, query, out=part)
        np.multiply(part, part, out=part)
        np.add.reduce(part, axis=1, out=distances[start:start + rows])
    np.sqrt(distances, out=distances)
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
    if flags.shape != result.ranked_indices.shape:
        raise ValueError(f"length mismatch: {flags.size} flags, "
                         f"{result.ranked_indices.shape[0]} gallery entries")
    n = ranked.shape[0]
    if n == 0:
        raise ValueError("gallery holds only the query")
    size = max(1, int(fraction * n))
    top = flags[ranked[:size]]
    bottom = flags[ranked[-size:]]
    return float(top.mean()), float(bottom.mean())

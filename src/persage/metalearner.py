"""Per-person weight generation: a shared weight table plus a learned residual.

Each person gets their own K x D classifier weight matrix. Row i starts from a
common (population-level) row and is corrected by a small conditioning network
that sees the person's identity features, the common row itself, and a one-hot
encoding of the class index. Querying the network once per class, with the
class in the input instead of the output, keeps the output dimension at D
rather than K*D.

Structure of the conditioning network: affine (H x (F+D+K)) -> batch norm ->
ReLU -> affine (D x H). Neither affine layer trains a bias. The hidden bias
would be canceled by the batch-norm mean subtraction; the output bias would
add the same constant to every class's weight row, which the directly-trained
common table already expresses, and which scores, losses, and weight-space
distances are all invariant to. Both stay frozen at zero (their checkpoint
blocks are written as zeros) and no backward pass computes their gradients.

The network is evaluated factored, never on stacked [h | w_common[i] | e_i]
rows. Splitting the hidden weight into its column blocks [W_id | W_w | W_oh]
makes the pre-activation of (person b, class i) the sum of a per-person term
P[b] = (h W_id^T)[b] and a per-class table T[i] = (w_common W_w^T + W_oh^T)[i].
Batch norm is factored the same way. Each (b, i) pair occurs exactly once
among the B*K rows, so over the rows the mean is mean(P) + mean(T) and the
biased variance is var(P) + var(T): the cross term sums to zero. The
normalized row is a[b] + c[i], with inv = 1 / sqrt(var + epsilon),
a = (P - mean P) inv and c = (T - mean T) inv. Batch norm therefore outputs
(gamma a)[b] + (gamma c + beta)[i], and its backward needs only the
per-person and per-class sums of the incoming gradient. Eval mode takes
mean P = 0, mean T = running mean and the running variance, which folds the
running statistics into the two terms. The post-ReLU hidden rows and their
gradient are the only (B, K, H) arrays, and eval mode never builds them
whole: it runs the broadcast sum, ReLU and what consumes the rows over tiles
of samples whose rows fit in ``_TILE_BYTES``, one core's cache share.

Scores need no weight matrix either: with hid[b, i] the hidden row and g_b
the age features, score[b, i] = g_b . w_common[i] + hid[b, i] . (g_b W_out).
Training and evaluation go through ``personal_scores``, so they never build
the (B, K, D) personalized weights; ``generate_weights_batch`` builds them
only for callers that want the matrices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .mathcore import (
    BN_EPSILON,
    BN_MOMENTUM,
    AffineLayer,
    BatchNormLayer,
    affine_forward,
    mlp_layout,
)


@dataclass
class Dims:
    n_classes: int   # K
    age_dim: int     # D, age-feature length = per-class weight length
    id_dim: int      # F, identity-feature length
    hidden_dim: int  # H

    def __post_init__(self):
        for name in ("n_classes", "age_dim", "id_dim", "hidden_dim"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
            setattr(self, name, int(v))

    @property
    def residual_in(self):
        return self.id_dim + self.age_dim + self.n_classes


def layout(dims):
    """The generator's blocks as (attribute path, shape, trained, init rule),
    in checkpoint order: the common table, then the conditioning network.
    """
    return ((("w_common", (dims.n_classes, dims.age_dim), True, "glorot"),)
            + mlp_layout(dims.residual_in, dims.hidden_dim, dims.age_dim, False))


@dataclass
class MetaLearnerParams:
    """A generator's arrays; each must have its block's shape in ``layout``."""

    w_common: np.ndarray        # (K, D) shared weight table
    hidden: AffineLayer         # (H, F+D+K), bias frozen at zero
    bn: BatchNormLayer          # width H
    output: AffineLayer         # (D, H)
    dims: Dims
    grad_w_common: np.ndarray = None

    def __post_init__(self):
        self.w_common = np.asarray(self.w_common, dtype=np.float64)
        for path, shape, _, _ in layout(self.dims):
            got = np.shape(attrgetter(path)(self))
            if got != shape:
                raise ValueError(f"{path} needs shape {shape}, got {got}")
        if self.grad_w_common is None:
            self.grad_w_common = np.zeros_like(self.w_common)


def _check_ids(params, id_feats):
    d = params.dims
    id_feats = np.asarray(id_feats, dtype=np.float64)
    if id_feats.ndim != 2 or id_feats.shape[1] != d.id_dim:
        raise ValueError(f"identity features must be (B, {d.id_dim}), "
                         f"got {id_feats.shape}")
    if id_feats.shape[0] < 1:
        raise ValueError("need at least one sample")
    return id_feats


# bytes of (rows, K, H) hidden rows per eval tile, as retrieve's 1 MiB block
# buffer: 20 rows at the acceptance size, which stay in one core's 2 MiB L2
# through their add, ReLU and matvec
_TILE_BYTES = 2**20


def _hidden_tiles(params, id_feats, mode):
    """(B, F) identity features -> post-ReLU hidden rows by tiles, and a cache.

    Row [b, i] is the hidden layer's output for sample b conditioned on class
    i. Its pre-activation, hidden.weight @ [h_b | w_common[i] | e_i] + bias,
    is P[b] + T[i] with P = h W_id^T (B, H) and the per-class table
    T = w_common W_w^T + W_oh^T + bias (K, H), so no conditioning row is
    built. Batch norm runs on the two terms, never on the B*K summed rows:
    train mode takes mean = mean(P) + mean(T) and biased variance
    var(P) + var(T), the statistics of the summed rows, and updates the
    running statistics with them; eval mode takes mean P = 0,
    mean T = running mean and the running variance. With
    inv = 1 / sqrt(var + epsilon), the output is
    (gamma inv (P - mean P))[b] + (gamma inv (T - mean T) + beta)[i], and
    ReLU runs in place on that broadcast sum.

    Returns an iterator of (rows, hidden), a slice of the batch and the
    (n, K, H) hidden rows of its samples, and the cache. Every tile is
    written into one buffer. Train mode makes the whole batch one tile, and
    its cache keeps that buffer, the centred terms and inv for the backward
    functions once the tile has been taken. Eval mode reuses a buffer of at
    most ``_TILE_BYTES`` (or one sample's rows), so a tile must be consumed
    before the next is taken; its cache holds None for the rows and the
    terms, which the backward functions refuse.
    """
    d = params.dims
    f, dd = d.id_dim, d.age_dim
    bn = params.bn
    w = params.hidden.weight
    person = id_feats @ w[:, :f].T                                      # (B, H)
    table = params.w_common @ w[:, f:f + dd].T + w[:, f + dd:].T + params.hidden.bias
    b = id_feats.shape[0]
    if mode == "train":
        if b * d.n_classes < 2:
            raise ValueError("train-mode batch normalization needs batch >= 2")
        mean_person, mean_table = person.mean(axis=0), table.mean(axis=0)
        mean = mean_person + mean_table
        var = person.var(axis=0) + table.var(axis=0)
        m = BN_MOMENTUM
        bn.running_mean[:] = (1.0 - m) * bn.running_mean + m * mean
        bn.running_var[:] = (1.0 - m) * bn.running_var + m * var
        rows = b
    elif mode == "eval":
        mean_person, mean_table, var = 0.0, bn.running_mean, bn.running_var
        rows = min(b, max(1, _TILE_BYTES // table.nbytes))
    else:
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    inv = 1.0 / np.sqrt(var + BN_EPSILON)
    scale = bn.gamma * inv
    person = person - mean_person
    person_term = person * scale
    # the table's mean folds into its shift, one (K, H) pass fewer
    class_term = table * scale + (bn.beta - mean_table * scale)
    buf = np.empty((rows,) + table.shape)

    def tiles():
        for start in range(0, b, rows):
            tile = buf[:min(rows, b - start)]
            np.add(person_term[start:start + rows, None, :], class_term, out=tile)
            np.maximum(tile, 0.0, out=tile)
            yield slice(start, start + tile.shape[0]), tile

    if mode == "eval":
        return tiles(), (id_feats, None, None)
    return tiles(), (id_feats, buf, (person, table - mean_table, inv))


def _check_train_cache(cache):
    if cache[2] is None:
        raise ValueError("the generator backward needs the cache from a "
                         "train-mode forward")


def _hidden_backward(params, grad_hidden, cache):
    """Accumulate hidden-layer, batch-norm and common-table gradients.

    grad_hidden: (B, K, H) d(loss)/d(post-ReLU rows); it is overwritten with
    the ReLU-masked gradient g. With a = (P - mean P) inv and
    c = (T - mean T) inv the normalized rows are a[b] + c[i], so the
    row-wise batch-norm backward reduces to sums over the two terms. Let
    Gb = sum_i g (B, H), Gk = sum_b g (K, H), S = sum_b a Gb + sum_i c Gk
    and n = B*K. Then grad gamma = S, grad beta = sum Gb,
    grad P = gamma inv / n (n Gb - K sum Gb - (K a + sum c) S), and grad T
    is the same with B and K swapped. grad P reaches W_id; grad T reaches
    W_w, W_oh and the common table's copy inside the conditioning.
    """
    d = params.dims
    f, dd = d.id_dim, d.age_dim
    id_feats, hidden, (person, table, inv) = cache
    b, k = hidden.shape[:2]
    n = b * k
    a, c = person * inv, table * inv
    g = np.multiply(grad_hidden, hidden > 0.0, out=grad_hidden)
    grad_b = g.sum(axis=1)                                              # (B, H)
    grad_k = g.sum(axis=0)                                              # (K, H)
    total = grad_b.sum(axis=0)
    s = (a * grad_b).sum(axis=0) + (c * grad_k).sum(axis=0)
    params.bn.grad_gamma += s
    params.bn.grad_beta += total
    scale = params.bn.gamma * inv / n
    grad_person = scale * (n * grad_b - k * total - (k * a + c.sum(axis=0)) * s)
    grad_table = scale * (n * grad_k - b * total - (b * c + a.sum(axis=0)) * s)
    grad_w = params.hidden.grad_weight
    grad_w[:, :f] += grad_person.T @ id_feats
    grad_w[:, f:f + dd] += grad_table.T @ params.w_common
    grad_w[:, f + dd:] += grad_table.T
    params.grad_w_common += grad_table @ params.hidden.weight[:, f:f + dd]


def generate_weights_batch(params, id_feats, mode):
    """Personalized weight matrices for a batch: (B, F) -> (B, K, D).

    In train mode all B*K class rows form one batch-norm batch; eval mode uses
    running statistics, so results are independent of batch makeup, and
    fills the weights a tile of samples at a time. Returns (weights, cache);
    pass a train-mode cache to generate_weights_backward. Training scores
    through personal_scores instead, which never builds the weights.
    """
    d = params.dims
    id_feats = _check_ids(params, id_feats)
    tiles, cache = _hidden_tiles(params, id_feats, mode)
    weights = np.empty((id_feats.shape[0], d.n_classes, d.age_dim))
    for rows, hidden in tiles:
        res = affine_forward(hidden.reshape(-1, d.hidden_dim), params.output)
        np.add(params.w_common, res.reshape(hidden.shape[0], d.n_classes, d.age_dim),
               out=weights[rows])
    return weights, cache


def generate_weights_backward(params, grad_weights, cache):
    """Accumulate parameter gradients from d(loss)/d(personalized weights).

    grad_weights: (B, K, D). The common table receives gradient through two
    paths: the additive skip connection and its copy inside the conditioning.
    The frozen biases get none. Returns nothing; gradients land in the
    parameters' buffers.
    """
    d = params.dims
    _check_train_cache(cache)
    b = grad_weights.shape[0]
    if grad_weights.shape != (b, d.n_classes, d.age_dim):
        raise ValueError(f"grad_weights shape {grad_weights.shape} unexpected")
    params.grad_w_common += grad_weights.sum(axis=0)
    grad_res = grad_weights.reshape(b * d.n_classes, d.age_dim)
    params.output.grad_weight += grad_res.T @ cache[1].reshape(-1, d.hidden_dim)
    _hidden_backward(params, grad_weights @ params.output.weight, cache)


def personal_scores(params, id_feats, age_feats, mode):
    """Class scores (B, K) of each sample under its own generated weights.

    Equals class_scores_batch(generate_weights_batch(...)) without building
    the (B, K, D) weights: scores = g w_common^T + hid[b] (g W_out)[b]^T. The
    frozen output bias is left out; it would add g . b_out to every class
    score of a sample, which softmax and the ordinal gaps ignore. Returns
    (scores, cache) for personal_scores_backward.
    """
    d = params.dims
    id_feats = _check_ids(params, id_feats)
    age_feats = np.asarray(age_feats, dtype=np.float64)
    if age_feats.shape != (id_feats.shape[0], d.age_dim):
        raise ValueError(f"age features must be ({id_feats.shape[0]}, "
                         f"{d.age_dim}), got {age_feats.shape}")
    tiles, cache = _hidden_tiles(params, id_feats, mode)
    proj = age_feats @ params.output.weight                             # (B, H)
    scores = age_feats @ params.w_common.T
    for rows, hidden in tiles:
        scores[rows] += np.matmul(hidden, proj[rows, :, None])[:, :, 0]
    return scores, (age_feats, proj, cache)


def personal_scores_backward(params, grad_scores, cache):
    """Accumulate parameter gradients from d(loss)/d(scores); return d/d(age).

    The frozen biases get none.
    """
    d = params.dims
    age_feats, proj, hcache = cache
    _check_train_cache(hcache)
    b = age_feats.shape[0]
    grad_scores = np.asarray(grad_scores, dtype=np.float64)
    if grad_scores.shape != (b, d.n_classes):
        raise ValueError(f"grad_scores shape {grad_scores.shape}, "
                         f"expected ({b}, {d.n_classes})")
    mixed = np.matmul(grad_scores[:, None, :], hcache[1])[:, 0, :]      # (B, H)
    params.grad_w_common += grad_scores.T @ age_feats
    params.output.grad_weight += age_feats.T @ mixed
    _hidden_backward(params, grad_scores[:, :, None] * proj[:, None, :], hcache)
    return grad_scores @ params.w_common + mixed @ params.output.weight.T


def generate_weights(params, id_feat):
    """Personalized K x D weights (eval mode) for one person's identity features."""
    id_feat = np.asarray(id_feat, dtype=np.float64)
    if id_feat.ndim != 1:
        raise ValueError(f"identity features must be a vector, got {id_feat.shape}")
    weights, _ = generate_weights_batch(params, id_feat[None, :], "eval")
    return weights[0]


"""What the joint training loss rewards and punishes.

The classification term is cross-entropy against either a hard one-hot
target or a discretized normal centered on the label. The ordinal term
walks the score vector's neighbor gaps: scores must climb by at least
delta up to the true class and drop by at least delta after it, and every
gap that misses its margin pays the shortfall. The demo also runs the
finite-difference gradient check used throughout the test suite.

Run: python3 demos/loss_anatomy.py
"""

import numpy as np

from persage.losses import (LossConfig, batch_loss, encode_label_distribution,
                            hard_labels, ord_loss)
from persage.mathcore import grad_check
from persage.metalearner import Dims
from persage.training import (TrainConfig, init_model, model_backward,
                              model_forward)


def show_gaps(scores, y, delta):
    d = np.diff(scores)
    for i, gap in enumerate(d):
        need = f">= +{delta:g}" if i < y else f"<= -{delta:g}"
        shortfall = (delta - gap) if i < y else (delta + gap)
        state = "ok" if shortfall <= 0 else f"pays {shortfall:.2f}"
        print(f"  gap {i}->{i + 1}: {gap:+.2f}  (need {need})  {state}")


def main():
    k, y, delta = 7, 3, 1.0
    print(f"K={k} classes, true class y={y}, margin delta={delta}")
    print()

    scores = np.array([0.0, 1.2, 2.5, 3.8, 2.6, 1.4, 0.1])
    print("a well-shaped score vector (rises to y, falls after):")
    print(" ", np.array2string(scores, precision=2))
    show_gaps(scores, y, delta)
    loss, _ = ord_loss(scores, y, delta)
    print(f"  ordinal loss = {loss:.4f}")
    print()

    broken = scores.copy()
    broken[5] = 2.9  # gap 4->5 now rises where it must fall
    print("break one gap on the falling side:")
    print(" ", np.array2string(broken, precision=2))
    show_gaps(broken, y, delta)
    loss, _ = ord_loss(broken, y, delta)
    print(f"  ordinal loss = {loss:.4f}")
    print()

    hard = hard_labels([y], k)[0]
    soft = encode_label_distribution(y, sigma=1.0, k=k)
    print("classification targets for the same label:")
    print(f"  hard class index:    {hard}")
    print("  discretized normal:  ", np.array2string(soft, precision=3))
    # the batch loss on one row at lam=0 is that row's cross-entropy
    ce = {mode: batch_loss(scores[None, :], [y], [1.0],
                           LossConfig(lam=0.0, target_mode=mode))[0]
          for mode in ("hard_onehot", "label_distribution")}
    print(f"  cross-entropy on the well-shaped scores: hard "
          f"{ce['hard_onehot']:.4f}, soft {ce['label_distribution']:.4f}")
    print()

    config = LossConfig(lam=0.5, delta=delta, target_mode="hard_onehot")
    batch_scores = np.stack([scores, broken])
    labels = np.array([float(y), float(y)])
    joint, _ = batch_loss(batch_scores, labels, None, config)
    print(f"joint loss (cls + {config.lam} * ord, averaged over a batch of "
          f"2): {joint:.4f}")
    print()

    # the same loss drives the full model; verify its analytic gradients
    # against central finite differences on a small instance
    dims = Dims(n_classes=5, age_dim=8, id_dim=6, hidden_dim=16)
    cfg = TrainConfig(dims=dims, model_kind="metaage", lam=0.2, delta=2.0,
                      seed=1)
    model = init_model(cfg)
    rng = np.random.default_rng(1)
    model.adapter.weight += rng.normal(scale=0.05,
                                       size=model.adapter.weight.shape)
    ids = rng.normal(scale=0.5, size=(3, dims.id_dim))
    age = rng.normal(size=(3, dims.age_dim))
    batch_labels = rng.integers(0, dims.n_classes, size=3).astype(np.float64)
    loss_cfg = cfg.loss_config()

    def loss_fn():
        out, _ = model_forward(model, age, ids, mode="train")
        return batch_loss(out, batch_labels, None, loss_cfg)[0]

    model.zero_grad()
    out, cache = model_forward(model, age, ids, mode="train")
    _, grad_scores = batch_loss(out, batch_labels, None, loss_cfg)
    model_backward(model, grad_scores, cache)
    named = model.trainable()
    report = grad_check(loss_fn,
                        {n: pg[0] for n, pg in named.items()},
                        {n: pg[1] for n, pg in named.items()})
    n_params = sum(pg[0].size for pg in named.values())
    print(f"gradient check over all {n_params} trainable parameters of a "
          f"small generator: {report}")


if __name__ == "__main__":
    main()

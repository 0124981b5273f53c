"""Generating per-person classifier weights from an identity vector.

The generator keeps one shared (K, D) weight table and adds a learned
residual on top, one row at a time, conditioned on the identity vector,
the shared row itself, and a one-hot of the row index. Two people with
similar identity vectors therefore get similar classifiers; zeroing the
residual output layer collapses everyone onto the shared table exactly.

Run: python3 demos/weight_generation.py
"""

import numpy as np

from persage.estimator import expected_ages
from persage.mathcore import softmax
from persage.metalearner import Dims, generate_weights
from persage.training import init_params


def row_norms(a):
    return np.linalg.norm(a, axis=1)


def main():
    dims = Dims(n_classes=21, age_dim=16, id_dim=8, hidden_dim=32)
    params = init_params(dims, seed=0)
    rng = np.random.default_rng(42)

    print(f"dims: K={dims.n_classes} classes, D={dims.age_dim} age features, "
          f"F={dims.id_dim} identity features, H={dims.hidden_dim} hidden")
    print(f"shared table w_common: {params.w_common.shape}, "
          f"|w_common| = {np.linalg.norm(params.w_common):.3f}")
    print()

    # two near-identical identities and one unrelated identity
    h_a = rng.normal(size=dims.id_dim)
    h_b = h_a + rng.normal(scale=0.01, size=dims.id_dim)
    h_c = rng.normal(size=dims.id_dim)

    w_a = generate_weights(params, h_a)
    w_b = generate_weights(params, h_b)
    w_c = generate_weights(params, h_c)

    print("residual magnitude per person (how far each personalized table")
    print("sits from the shared one):")
    for name, w in (("a", w_a), ("b = a + noise", w_b), ("c", w_c)):
        print(f"  person {name:<14} |W^p - W^c| = "
              f"{np.linalg.norm(w - params.w_common):.4f}")
    print()
    print("weight-space distances track identity-space distances:")
    print(f"  |h_a - h_b| = {np.linalg.norm(h_a - h_b):.4f}   "
          f"|W_a - W_b| = {np.linalg.norm(w_a - w_b):.4f}")
    print(f"  |h_a - h_c| = {np.linalg.norm(h_a - h_c):.4f}   "
          f"|W_a - W_c| = {np.linalg.norm(w_a - w_c):.4f}")
    print()

    # the class index is part of the conditioning, so rows get distinct
    # residuals even for one person
    res = w_a - params.w_common
    print("per-class residual norms for person a (first 6 classes):",
          np.array2string(row_norms(res)[:6], precision=3))
    print()

    # person a's own weights score a random age feature; the softmax
    # expectation of those scores is the predicted age
    age_feat = rng.normal(size=dims.age_dim)
    probs = softmax(w_a @ age_feat)
    print(f"person a's weights on a random age feature: expected age "
          f"{expected_ages(probs):.2f}, argmax class {int(probs.argmax())}")
    print("(untrained parameters, so the distribution is near uniform:",
          f"max prob {probs.max():.3f})")
    print()

    # freeze the residual output at zero: the generator degenerates into
    # the shared table, identically for every identity
    params.output.weight[:] = 0.0
    gaps = [np.abs(generate_weights(params, h) - params.w_common).max()
            for h in (h_a, h_b, h_c)]
    print("with the residual output layer zeroed, every person gets the")
    print(f"shared table back exactly: max |W^p - W^c| = {max(gaps):.1e}")


if __name__ == "__main__":
    main()

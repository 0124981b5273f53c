"""Synthetic benchmark: does personalization actually help?

The generator gives every identity a hidden age offset (systematic over-
or under-appearance of age) and emits features in which that offset is
recoverable only from the identity vector. An identity-blind model
cannot do better than the offset-blurred Bayes floor; a personalized one
can. Three models run head to head on an identity-disjoint split:

  metaage  per-person weights from the residual generator
  concat   one MLP on [age features, identity features]
  global   one shared weight table, identity ignored

Takes roughly 15 seconds on one core.

Run: python3 demos/benchmark.py
"""

import time

from persage.data import SynthConfig, compute_oracle, split, synth_generate
from persage.metalearner import Dims
from persage.training import (TrainConfig, evaluate, lambda_delta_sweep,
                              train)

CONFIG = SynthConfig(n_identities=100, samples_per_identity=8, n_classes=61,
                     age_dim=48, id_dim=24, latent_dim=4, offset_max=4.0,
                     feature_noise=0.01, rbf_width=4.0, seed=11)


def train_config(**kw):
    base = dict(dims=Dims(n_classes=61, age_dim=48, id_dim=24, hidden_dim=64),
                epochs=15, batch_size=32, lr=5e-3, seed=3,
                target_mode="hard_onehot")
    base.update(kw)
    return TrainConfig(**base)


def main():
    dataset, _ = synth_generate(CONFIG)
    train_set, test_set = split(dataset, (0.8, 0.2), seed=CONFIG.seed,
                                by_identity=True)
    oracle = compute_oracle(test_set)
    print(f"{len(train_set)} train / {len(test_set)} test samples, "
          f"identity-disjoint, K={CONFIG.n_classes}, "
          f"offsets up to +/-{CONFIG.offset_max:g} classes")
    print(f"Bayes floor on the test split: {oracle.bayes_mae_global:.3f} MAE "
          f"identity-blind, {oracle.bayes_mae_personal:.3f} identity-aware")
    print()

    print(f"{'model':<8} {'test MAE':>9} {'CS(5)':>7} {'seconds':>8}")
    for kind in ("metaage", "concat", "global"):
        start = time.monotonic()
        model = train(train_set, train_config(model_kind=kind))
        seconds = time.monotonic() - start
        result = evaluate(model, test_set)
        cs5 = dict(result.cs_curve)[5]
        print(f"{kind:<8} {result.mae:>9.3f} {cs5:>6.1f}% {seconds:>8.1f}")
    print()
    print("the generated-weights model lands between the two floors; the")
    print("identity-blind table cannot, no matter how long it trains.")
    print()

    print("ordinal-term sweep (lambda weighs the margin loss; at lambda=0")
    print("the margin delta is inert):")
    rows = lambda_delta_sweep(train_set, train_config(),
                              [0.0, 0.2, 0.5], [1.0, 2.0], holdout=test_set)
    print(f"{'lambda':>7} {'delta':>6} {'test MAE':>9}")
    for lam, delta, test_mae in rows:
        print(f"{lam:>7g} {delta:>6g} {test_mae:>9.3f}")


if __name__ == "__main__":
    main()

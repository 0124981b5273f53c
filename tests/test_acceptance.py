"""End-to-end acceptance gate.

Nine criteria cover the package's headline behaviors: analytic gradients,
the zero-residual degeneracy, metric and ordinal-loss semantics, the
synthetic personalization benchmark, the ordinal-weight sweep direction,
weight-space retrieval, artifact determinism, and raw fitting capacity.
Each test prints one "[criterion N] PASS/FAIL: ..." line; pytest's -rP
(set in pyproject.toml) replays them as a scorecard at the end of a run.

The benchmark fixtures are session-scoped because three of the criteria
share one dataset and one set of trained models; the whole module runs in
about two minutes on one CPU core.
"""

import json
import math
import time

import numpy as np
import pytest

from persage.data import (
    FormatError,
    SynthConfig,
    compute_oracle,
    read_features,
    split,
    synth_generate,
    write_features,
)
from persage.losses import batch_loss, ord_loss
from persage.mathcore import AffineLayer, grad_check
from persage.metalearner import Dims
from persage.metrics import (
    cs,
    cs_curve,
    eps_error,
    mae,
    retrieve,
    slice_agreement,
    weight_embedding,
)
from persage.training import (
    CheckpointError,
    TrainConfig,
    TrainedModel,
    evaluate,
    init_model,
    init_params,
    lambda_delta_sweep,
    load_model,
    load_params,
    model_backward,
    model_forward,
    model_predict,
    save_model,
    save_params,
    train,
)


def verdict(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# ------------------------------------------------------- shared benchmark

BENCH = SynthConfig(n_identities=200, samples_per_identity=10, n_classes=101,
                    age_dim=64, id_dim=32, latent_dim=4, offset_max=5.0,
                    feature_noise=0.01, rbf_width=4.0, seed=7)


def bench_train_config(**kw):
    base = dict(dims=Dims(n_classes=101, age_dim=64, id_dim=32, hidden_dim=64),
                epochs=20, batch_size=32, lr=5e-3, seed=3,
                target_mode="hard_onehot", lam=0.2, delta=2.0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="session")
def benchmark_data():
    dataset, _ = synth_generate(BENCH)
    train_set, test_set = split(dataset, (0.8, 0.2), seed=7, by_identity=True)
    oracle = compute_oracle(test_set)
    return train_set, test_set, oracle


@pytest.fixture(scope="session")
def benchmark_models(benchmark_data):
    """kind -> (model, test MAE, train seconds) for all three model kinds."""
    train_set, test_set, _ = benchmark_data
    out = {}
    for kind in ("metaage", "global", "concat"):
        start = time.monotonic()
        model = train(train_set, bench_train_config(model_kind=kind))
        seconds = time.monotonic() - start
        out[kind] = (model, evaluate(model, test_set).mae, seconds)
    return out


@pytest.fixture(scope="session")
def benchmark_sweep(benchmark_data):
    """lambda -> test MAE at delta=2, same seed and data as the benchmark."""
    train_set, test_set, _ = benchmark_data
    rows = lambda_delta_sweep(train_set, bench_train_config(),
                              [0.0, 0.1, 0.5], [2.0], holdout=test_set)
    return {lam: test_mae for lam, _, test_mae in rows}


# --------------------------------------------- criterion 1: gradient check

def _fd_case(seed, delta=2.0):
    """A well-conditioned full-pipeline gradient-check instance, or None.

    Screens out seeds where finite differences are unreliable: a hinge kink
    within 1e-3 of the evaluation point, or an analytic gradient entry so
    close to zero that the relative-error test compares rounding noise.
    """
    dims = Dims(n_classes=5, age_dim=8, id_dim=6, hidden_dim=16)
    rng = np.random.default_rng(seed)
    cfg = TrainConfig(dims=dims, model_kind="metaage", lam=0.2, delta=delta,
                      use_adapter=True, seed=seed)
    model = init_model(cfg)
    # move the adapter off its exact-identity init so its gradients are generic
    model.adapter.weight += rng.normal(scale=0.05, size=model.adapter.weight.shape)
    model.adapter.bias += rng.normal(scale=0.05, size=model.adapter.bias.shape)
    ids = rng.normal(scale=0.5, size=(3, dims.id_dim))
    age = rng.normal(size=(3, dims.age_dim))
    labels = rng.integers(0, dims.n_classes, size=3).astype(np.float64)
    loss_cfg = cfg.loss_config()

    def loss_fn():
        scores, _ = model_forward(model, age, ids, mode="train")
        return batch_loss(scores, labels, None, loss_cfg)[0]

    model.zero_grad()
    scores, cache = model_forward(model, age, ids, mode="train")
    _, grad_scores = batch_loss(scores, labels, None, loss_cfg)
    model_backward(model, grad_scores, cache)
    named = model.trainable()
    names = {n: pg[0] for n, pg in named.items()}
    grads = {n: pg[1] for n, pg in named.items()}
    gaps = scores[:, 1:] - scores[:, :-1]
    margin = np.minimum(np.abs(delta - gaps), np.abs(delta + gaps)).min()
    if margin < 1e-3 or min(np.abs(g).min() for g in grads.values()) < 1e-7:
        return None
    return loss_fn, names, grads


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    checked = 0
    worst = 0.0
    failures = []
    for seed in range(300):
        if checked >= 20:
            break
        case = _fd_case(seed)
        if case is None:
            continue
        loss_fn, names, grads = case
        report = grad_check(loss_fn, names, grads, tolerance=1e-4)
        worst = max(worst, report.max_rel_err)
        if not report.passed:
            failures.append(f"seed {seed}: {report}")
        checked += 1
    seconds = time.monotonic() - start
    ok = checked >= 20 and not failures and worst <= 1e-4 and seconds < 30.0
    verdict(1, ok, f"full-pipeline gradients at K=5 D=8 F=6 H=16, batch 3: "
                   f"{checked} seeds, max rel err {worst:.2e}, {seconds:.1f}s"
                   + ("; " + "; ".join(failures) if failures else ""))


# ------------------------------------------------- criterion 2: degeneracy

def test_criterion_2_zero_residual_degeneracy():
    dims = Dims(n_classes=7, age_dim=9, id_dim=5, hidden_dim=12)
    params = init_params(dims, seed=11)
    params.output.weight[:] = 0.0
    generated = TrainedModel(kind="metaage", dims=dims, meta=params)
    table = AffineLayer(weight=params.w_common.copy(),
                        bias=np.zeros(dims.n_classes))
    baseline = TrainedModel(kind="global", dims=dims, table=table)
    rng = np.random.default_rng(23)
    age = rng.normal(size=(1000, dims.age_dim))
    ids = rng.normal(size=(1000, dims.id_dim))
    gap = float(np.abs(model_predict(generated, age, ids)
                       - model_predict(baseline, age, ids)).max())
    verdict(2, gap <= 1e-12,
            f"zero residual output vs shared-table baseline: max prediction "
            f"gap {gap:.2e} over 1000 random inputs (bound 1e-12)")


# --------------------------------------------- criterion 3: metric oracles

def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 40))
        labels = rng.uniform(0, 80, size=n)
        preds = labels + rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
        sigmas = rng.uniform(0.3, 4.0, size=n)
        theta = float(rng.uniform(0, 8))
        hand_mae = sum(abs(float(p) - float(t))
                       for p, t in zip(preds, labels)) / n
        hand_cs = 100.0 * sum(abs(float(p) - float(t)) <= theta
                              for p, t in zip(preds, labels)) / n
        hand_eps = 1.0 - sum(math.exp(-(float(p) - float(t)) ** 2
                                      / (2.0 * float(s) ** 2))
                             for p, t, s in zip(preds, labels, sigmas)) / n
        worst = max(worst,
                    abs(mae(preds, labels) - hand_mae),
                    abs(cs(preds, labels, theta) - hand_cs),
                    abs(eps_error(preds, labels, sigmas) - hand_eps))
    monotone = True
    for _ in range(20):
        n = int(rng.integers(1, 30))
        labels = rng.uniform(0, 60, size=n)
        preds = labels + rng.normal(scale=3.0, size=n)
        values = [v for _, v in cs_curve(preds, labels, theta_max=15)]
        monotone = monotone and all(b >= a for a, b in zip(values, values[1:]))
    labels = rng.uniform(0, 60, size=25)
    exact_eps = eps_error(labels.copy(), labels, rng.uniform(0.3, 4.0, size=25))
    ok = worst <= 1e-12 and monotone and exact_eps == 0.0
    verdict(3, ok, f"mae/cs/eps vs per-sample transcription over 100 draws: "
                   f"worst gap {worst:.2e} (bound 1e-12); CS curves monotone: "
                   f"{monotone}; exact-prediction eps {exact_eps!r}")


# -------------------------------------- criterion 4: ordinal loss behavior

def _margin_gaps(rng, k, y, delta):
    """Neighbor gaps that satisfy the margin, a few of them exactly."""
    slack = rng.uniform(0.0, 2.0, size=k - 1)
    slack[rng.integers(0, k - 1)] = 0.0
    return np.where(np.arange(k - 1) < y, delta + slack, -(delta + slack))


def test_criterion_4_ordinal_loss_characterization():
    rng = np.random.default_rng(17)
    zero_cases = violation_cases = 0
    all_zero = True
    worst_gap = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 40))
        y = int(rng.integers(0, k))
        scores = np.concatenate(
            [[rng.normal()], _margin_gaps(rng, k, y, rng.uniform(0.5, 3.0))]
        ).cumsum()
        # cumsum rounding moves the realized gaps by ~1e-14, so take delta
        # from the scores actually fed to the loss: the largest margin they
        # satisfy exactly
        d = scores[1:] - scores[:-1]
        left = np.arange(k - 1) < y
        delta = float(np.minimum(np.where(left, d, np.inf),
                                 np.where(left, np.inf, -d)).min())
        loss, _ = ord_loss(scores, y, delta)
        all_zero = all_zero and loss == 0.0
        zero_cases += 1
    all_positive = True
    for _ in range(100):
        k = int(rng.integers(2, 40))
        y = int(rng.integers(0, k))
        scores = np.concatenate(
            [[rng.normal()], _margin_gaps(rng, k, y, rng.uniform(0.5, 3.0))]
        ).cumsum()
        d = scores[1:] - scores[:-1]
        left = np.arange(k - 1) < y
        # back off from the tightest satisfied margin, then break exactly one
        # gap by eps: the loss must be eps alone
        delta = float(np.minimum(np.where(left, d, np.inf),
                                 np.where(left, np.inf, -d)).min()) - 0.05
        j = int(rng.integers(0, k - 1))
        eps = float(rng.uniform(1e-4, 0.04))
        target = (delta - eps) if j < y else -(delta - eps)
        scores[j + 1:] += target - d[j]
        loss, _ = ord_loss(scores, y, delta)
        all_positive = all_positive and loss > 0.0
        worst_gap = max(worst_gap, abs(loss - eps))
        violation_cases += 1
    ok = all_zero and all_positive and worst_gap < 1e-9
    verdict(4, ok, f"ordinal loss exactly 0 on {zero_cases}/100 margin-"
                   f"satisfying score vectors: {all_zero}; positive on "
                   f"{violation_cases}/100 single violations: {all_positive} "
                   f"(worst |loss - violation| {worst_gap:.2e})")


# ------------------------------- criterion 5: personalization benchmark

def test_criterion_5_personalization_benefit(benchmark_data, benchmark_models):
    _, _, oracle = benchmark_data
    meta_mae = benchmark_models["metaage"][1]
    concat_mae = benchmark_models["concat"][1]
    global_mae = benchmark_models["global"][1]
    slowest = max(seconds for _, _, seconds in benchmark_models.values())
    ordering = meta_mae < concat_mae < global_mae
    ceiling = meta_mae <= oracle.bayes_mae_personal + 1.0
    floor = global_mae >= oracle.bayes_mae_global - 0.5
    ok = ordering and ceiling and floor and slowest < 300.0
    verdict(5, ok, f"test MAE generated {meta_mae:.3f} < concat "
                   f"{concat_mae:.3f} < global {global_mae:.3f}: {ordering}; "
                   f"generated within 1.0 of personal oracle "
                   f"{oracle.bayes_mae_personal:.3f}: {ceiling}; global above "
                   f"global oracle {oracle.bayes_mae_global:.3f} - 0.5: "
                   f"{floor}; slowest model {slowest:.0f}s (cap 300s)")


# ------------------------------------- criterion 6: ordinal-weight sweep

def test_criterion_6_sweep_direction(benchmark_sweep, benchmark_models):
    maes = dict(benchmark_sweep)
    # identical config/seed/data as a sweep point at 0.2, so reuse the model
    maes[0.2] = benchmark_models["metaage"][1]
    best_lam = min((0.1, 0.2, 0.5), key=lambda lam: maes[lam])
    ok = maes[best_lam] < maes[0.0]
    listing = ", ".join(f"{lam:g}: {maes[lam]:.3f}" for lam in sorted(maes))
    verdict(6, ok, f"test MAE by ordinal weight {{{listing}}}; best nonzero "
                   f"weight {best_lam:g} beats 0: {ok}")


# ------------------------------------------ criterion 7: weight retrieval

def test_criterion_7_retrieval_direction(benchmark_data, benchmark_models):
    _, test_set, _ = benchmark_data
    model = benchmark_models["metaage"][0]
    emb = np.stack([weight_embedding(model.meta, h) for h in test_set.id_feats])
    signs = test_set.latent_offsets > 0
    top_rates, bottom_rates = [], []
    for q in range(len(test_set)):
        result = retrieve(emb[q], emb, query_index=q)
        top, bottom = slice_agreement(result, signs == signs[q], fraction=0.10)
        top_rates.append(top)
        bottom_rates.append(bottom)
    top_mean = float(np.mean(top_rates))
    bottom_mean = float(np.mean(bottom_rates))
    gap = top_mean - bottom_mean
    verdict(7, gap >= 0.10,
            f"offset-sign agreement of retrieved weights: top-10% "
            f"{top_mean:.3f} vs bottom-10% {bottom_mean:.3f}, gap "
            f"{100 * gap:.1f}pp (need >= 10pp)")


# -------------------------------- criterion 8: determinism and formats

def test_criterion_8_determinism_and_formats(tmp_path):
    config = SynthConfig(n_identities=8, samples_per_identity=5, n_classes=15,
                         age_dim=12, id_dim=6, latent_dim=2, offset_max=3.0,
                         feature_noise=0.01, rbf_width=2.0, seed=4)
    dataset, _ = synth_generate(config)
    dims = Dims(n_classes=15, age_dim=12, id_dim=6, hidden_dim=10)

    def run():
        cfg = TrainConfig(dims=dims, epochs=3, batch_size=8, lr=3e-3, seed=5)
        return train(dataset, cfg)

    model_a, model_b = run(), run()
    save_model(tmp_path / "a.mapc", model_a)
    save_model(tmp_path / "b.mapc", model_b)
    ckpt = (tmp_path / "a.mapc").read_bytes()
    same_ckpt = ckpt == (tmp_path / "b.mapc").read_bytes()
    report = json.dumps(evaluate(model_a, dataset).to_json(), sort_keys=True)
    same_report = report == json.dumps(evaluate(model_b, dataset).to_json(),
                                       sort_keys=True)

    write_features(tmp_path / "a.mafv1", dataset)
    features = (tmp_path / "a.mafv1").read_bytes()
    write_features(tmp_path / "b.mafv1", read_features(tmp_path / "a.mafv1"))
    features_roundtrip = features == (tmp_path / "b.mafv1").read_bytes()

    save_model(tmp_path / "c.mapc", load_model(tmp_path / "a.mapc"))
    model_roundtrip = ckpt == (tmp_path / "c.mapc").read_bytes()
    save_params(tmp_path / "p.mapc", init_params(dims, seed=9))
    raw_params = (tmp_path / "p.mapc").read_bytes()
    save_params(tmp_path / "q.mapc", load_params(tmp_path / "p.mapc"))
    params_roundtrip = raw_params == (tmp_path / "q.mapc").read_bytes()

    (tmp_path / "bad.mafv1").write_bytes(b"XXXX" + features[4:])
    with pytest.raises(FormatError) as feat_err:
        read_features(tmp_path / "bad.mafv1")
    (tmp_path / "bad.mapc").write_bytes(ckpt[:10])
    with pytest.raises(CheckpointError) as ckpt_err:
        load_model(tmp_path / "bad.mapc")
    offsets_named = ("byte offset" in str(feat_err.value)
                     and "byte offset" in str(ckpt_err.value))

    ok = (same_ckpt and same_report and features_roundtrip
          and model_roundtrip and params_roundtrip and offsets_named)
    verdict(8, ok, f"same-seed checkpoints identical: {same_ckpt}; reports "
                   f"identical: {same_report}; feature round-trip byte-"
                   f"identical: {features_roundtrip}; checkpoint round-trips "
                   f"byte-identical: {model_roundtrip and params_roundtrip}; "
                   f"corrupt files name byte offsets: {offsets_named}")


# ------------------------------------------ criterion 9: overfit capacity

def test_criterion_9_overfit_capacity():
    config = SynthConfig(n_identities=4, samples_per_identity=2, n_classes=30,
                         age_dim=16, id_dim=8, latent_dim=2, offset_max=3.0,
                         feature_noise=0.01, rbf_width=2.0, seed=2)
    dataset, _ = synth_generate(config)
    assert len(dataset) == 8
    cfg = TrainConfig(dims=Dims(n_classes=30, age_dim=16, id_dim=8,
                                hidden_dim=24),
                      epochs=500, batch_size=8, lr=5e-3, seed=0)
    model = train(dataset, cfg)
    final_mae = model.history[-1][1]
    verdict(9, final_mae < 0.5,
            f"train MAE {final_mae:.4f} after 500 steps on one batch of 8 "
            f"samples (need < 0.5)")

"""Command-line interface: data generation, training, evaluation, sweeps,
and weight-space retrieval.

Every command writes its artifacts plus one ``manifest.json`` recording the
command name, the fully resolved configuration, the seed, start/end
timestamps, and the paths written. Outputs other than the manifest are
byte-reproducible from the same inputs and flags.

A ``--config FILE`` flag (flat ``key=value`` lines, ``#`` comments) may stand
in for command flags; explicit flags override file values. Exit codes:
0 success, 1 runtime or IO failure, 2 usage.
"""

import argparse
import dataclasses
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .data import (
    FormatError,
    SynthConfig,
    compute_oracle,
    read_features,
    split,
    synth_generate,
    write_features,
)
from .metalearner import Dims
from .metrics import retrieve, slice_agreement, weight_embeddings
from .training import (
    CheckpointError,
    TrainConfig,
    evaluate,
    history_csv,
    lambda_delta_sweep,
    load_model,
    save_model,
    sweep_csv,
    train,
)


class UsageError(Exception):
    """Bad flag values; maps to exit code 2."""


def _fmt(value):
    """Human-facing float formatting, 6 significant digits."""
    return format(float(value), ".6g")


def _now():
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(out_dir, command, config, seed, started, outputs):
    path = os.path.join(out_dir, "manifest.json")
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "started": started,
        "finished": _now(),
        "outputs": [str(p) for p in outputs] + [path],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _expand_config_flag(argv):
    """Replace ``--config FILE`` with the file's key=value pairs as flags.

    The expansion lands where the flag stood, but explicit flags win because
    file-derived flags are inserted at the front of the flag list."""
    if "--config" not in argv and not any(a.startswith("--config=") for a in argv):
        return list(argv)
    out = list(argv)
    for i, token in enumerate(out):
        if token == "--config":
            if i + 1 >= len(out):
                raise UsageError("--config needs a file path")
            path, span = out[i + 1], slice(i, i + 2)
            break
        if token.startswith("--config="):
            path, span = token.split("=", 1)[1], slice(i, i + 1)
            break
    else:
        return out
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    expanded = []
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        expanded.extend([f"--{key}", value])
    del out[span]
    # insert right after the subcommand so every explicit flag overrides
    return out[:1] + expanded + out[1:]


def _dims_for(dataset, hidden):
    return Dims(n_classes=dataset.n_classes, age_dim=dataset.age_dim,
                id_dim=dataset.id_dim, hidden_dim=hidden)


def _train_config(args, dims):
    try:
        return TrainConfig(
            dims=dims, lam=args.lam, delta=args.delta, lr=args.lr,
            betas=(args.beta1, args.beta2), adam_epsilon=args.adam_epsilon,
            batch_size=args.batch, epochs=args.epochs, seed=args.seed,
            target_mode=args.target_mode, model_kind=args.model,
            use_adapter=args.adapter == "on")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _config_dict(config):
    doc = dataclasses.asdict(config)
    for key, value in doc.items():
        if isinstance(value, tuple):
            doc[key] = list(value)
    return doc


# ------------------------------------------------------------------- commands

def cmd_synth(args):
    try:
        config = SynthConfig(
            n_identities=args.identities, samples_per_identity=args.per_identity,
            n_classes=args.k, age_dim=args.age_dim, id_dim=args.id_dim,
            latent_dim=args.latent_dim, offset_max=args.offset_max,
            feature_noise=args.noise, rbf_width=args.rbf_width, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not 0.0 < args.train_frac < 1.0:
        raise UsageError(f"train-frac must be in (0, 1), got {args.train_frac}")
    started = _now()
    os.makedirs(args.out, exist_ok=True)
    dataset, oracle = synth_generate(config)
    train_set, test_set = split(dataset, (args.train_frac, 1.0 - args.train_frac),
                                seed=config.seed, by_identity=True)
    test_oracle = compute_oracle(test_set, config)
    outputs = []
    for name, part in (("train.mafv1", train_set), ("test.mafv1", test_set)):
        path = os.path.join(args.out, name)
        write_features(path, part)
        outputs.append(path)
    oracle_doc = {
        "bayes_mae_global": test_oracle.bayes_mae_global,
        "bayes_mae_personal": test_oracle.bayes_mae_personal,
        "full_bayes_mae_global": oracle.bayes_mae_global,
        "full_bayes_mae_personal": oracle.bayes_mae_personal,
        "n_train": len(train_set),
        "n_test": len(test_set),
    }
    oracle_path = os.path.join(args.out, "oracle.json")
    _write_text(oracle_path, json.dumps(oracle_doc, indent=2, sort_keys=True) + "\n")
    outputs.append(oracle_path)
    conf = _config_dict(config)
    conf["train_frac"] = args.train_frac
    outputs.append(_write_manifest(args.out, "synth", conf, config.seed,
                                   started, outputs))
    print(f"wrote {len(train_set)} train / {len(test_set)} test samples; "
          f"test-split oracle mae global {_fmt(test_oracle.bayes_mae_global)}, "
          f"personal {_fmt(test_oracle.bayes_mae_personal)}")
    return 0


def cmd_train(args):
    started = _now()
    dataset = read_features(args.data)
    dims = _dims_for(dataset, args.hidden)
    config = _train_config(args, dims)
    os.makedirs(args.out, exist_ok=True)
    model = train(dataset, config)
    model_path = os.path.join(args.out, "model.mapc")
    save_model(model_path, model)
    history_path = _write_text(os.path.join(args.out, "history.csv"),
                               history_csv(model))
    outputs = [model_path, history_path]
    conf = _config_dict(config)
    conf["data"] = args.data
    outputs.append(_write_manifest(args.out, "train", conf, config.seed,
                                   started, outputs))
    loss, train_mae = model.history[-1]
    print(f"{config.model_kind}: {config.epochs} epochs, final loss "
          f"{_fmt(loss)}, train mae {_fmt(train_mae)}")
    return 0


def cmd_eval(args):
    started = _now()
    model = load_model(args.model)
    dataset = read_features(args.data)
    result = evaluate(model, dataset)
    os.makedirs(args.out, exist_ok=True)
    json_path = _write_text(os.path.join(args.out, "eval.json"), result.to_json())
    csv_path = _write_text(os.path.join(args.out, "cs_curve.csv"), result.cs_csv())
    outputs = [json_path, csv_path]
    conf = {"model": args.model, "data": args.data, "theta_max": args.theta_max}
    outputs.append(_write_manifest(args.out, "eval", conf, None, started, outputs))
    eps = "n/a" if result.eps_error is None else _fmt(result.eps_error)
    print(f"mae {_fmt(result.mae)}, cs(5) {_fmt(dict(result.cs_curve).get(5, 0.0))}, "
          f"eps-error {eps}, n {result.n_samples}")
    return 0


def _parse_grid(text, what):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"{what} must be comma-separated reals, got {text!r}") from exc
    if not values:
        raise UsageError(f"{what} grid is empty")
    return values


def cmd_sweep(args):
    lambdas = _parse_grid(args.lambdas, "--lambdas")
    deltas = _parse_grid(args.deltas, "--deltas")
    started = _now()
    dataset = read_features(args.data)
    holdout = read_features(args.test) if args.test else None
    dims = _dims_for(dataset, args.hidden)
    config = _train_config(args, dims)
    rows = lambda_delta_sweep(dataset, config, lambdas, deltas, holdout=holdout)
    os.makedirs(args.out, exist_ok=True)
    csv_path = _write_text(os.path.join(args.out, "sweep.csv"), sweep_csv(rows))
    outputs = [csv_path]
    conf = _config_dict(config)
    conf.update({"data": args.data, "test": args.test,
                 "lambdas": lambdas, "deltas": deltas})
    outputs.append(_write_manifest(args.out, "sweep", conf, config.seed,
                                   started, outputs))
    for lam, delta, mae_value in rows:
        print(f"lambda {_fmt(lam)} delta {_fmt(delta)}: test mae {_fmt(mae_value)}")
    return 0


def cmd_retrieve(args):
    started = _now()
    model = load_model(args.model)
    if model.kind != "metaage":
        raise ValueError(f"retrieval needs per-sample generated weights; "
                         f"a {model.kind!r} checkpoint has none")
    dataset = read_features(args.data)
    if dataset.age_feats.shape[1] != model.dims.age_dim \
            or dataset.id_feats.shape[1] != model.dims.id_dim:
        raise ValueError("gallery feature widths do not match the checkpoint dims")
    if not 0.0 < args.fraction <= 0.5:
        raise UsageError(f"fraction must be in (0, 0.5], got {args.fraction}")
    embeddings = weight_embeddings(model.meta, dataset.id_feats)
    spread = float(np.ptp(embeddings, axis=0).max()) if len(dataset) else 0.0
    degenerate = spread == 0.0
    has_ids = len(dataset) > 0 and dataset.identity_ids.min() >= 0
    queries = []
    top_rates = []
    bottom_rates = []
    for q in range(len(dataset)):
        result = retrieve(embeddings[q], embeddings, query_index=q)
        entry = {
            "query_index": q,
            "ranked_indices": result.ranked_indices.tolist(),
            "distances": result.distances.tolist(),
        }
        if has_ids:
            flags = dataset.identity_ids == dataset.identity_ids[q]
            top, bottom = slice_agreement(result, flags, fraction=args.fraction)
            entry["top_same_identity_rate"] = top
            entry["bottom_same_identity_rate"] = bottom
            top_rates.append(top)
            bottom_rates.append(bottom)
        queries.append(entry)
    report = {
        "n": len(dataset),
        "embedding_dim": model.dims.n_classes * model.dims.age_dim,
        "fraction": args.fraction,
        "degenerate": degenerate,
        "mean_top_same_identity_rate":
            float(np.mean(top_rates)) if top_rates else None,
        "mean_bottom_same_identity_rate":
            float(np.mean(bottom_rates)) if bottom_rates else None,
        "queries": queries,
    }
    os.makedirs(args.out, exist_ok=True)
    report_path = _write_text(os.path.join(args.out, "retrieval.json"),
                              json.dumps(report, indent=2, sort_keys=True) + "\n")
    outputs = [report_path]
    conf = {"model": args.model, "data": args.data, "fraction": args.fraction}
    outputs.append(_write_manifest(args.out, "retrieve", conf, None, started,
                                   outputs))
    if degenerate:
        print("degenerate: all embeddings identical (zero residual)")
    elif has_ids:
        print(f"{len(dataset)} queries; same-identity rate "
              f"top {_fmt(np.mean(top_rates))} vs bottom {_fmt(np.mean(bottom_rates))}")
    else:
        print(f"{len(dataset)} queries ranked (no identity tags)")
    return 0


# --------------------------------------------------------------------- parser

def _add_train_flags(sub):
    sub.add_argument("--model", choices=("metaage", "global", "concat"),
                     default="metaage")
    sub.add_argument("--hidden", type=int, default=64)
    sub.add_argument("--epochs", type=int, default=60)
    sub.add_argument("--batch", type=int, default=64)
    sub.add_argument("--lr", type=float, default=1e-4)
    sub.add_argument("--lambda", dest="lam", type=float, default=0.2)
    sub.add_argument("--delta", type=float, default=2.0)
    sub.add_argument("--beta1", type=float, default=0.9)
    sub.add_argument("--beta2", type=float, default=0.999)
    sub.add_argument("--adam-epsilon", type=float, default=1e-8)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--target-mode", choices=("hard_onehot", "label_distribution"),
                     default="hard_onehot")
    sub.add_argument("--adapter", choices=("on", "off"), default="on")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="persage",
        description="personalized age estimation: synthesize data, train, "
                    "evaluate, sweep, retrieve")
    commands = parser.add_subparsers(dest="command", required=True)

    synth_defaults = SynthConfig()
    synth = commands.add_parser("synth", help="generate a synthetic benchmark")
    synth.add_argument("--identities", type=int,
                       default=synth_defaults.n_identities)
    synth.add_argument("--per-identity", type=int,
                       default=synth_defaults.samples_per_identity)
    synth.add_argument("--k", type=int, default=synth_defaults.n_classes)
    synth.add_argument("--age-dim", type=int, default=synth_defaults.age_dim)
    synth.add_argument("--id-dim", type=int, default=synth_defaults.id_dim)
    synth.add_argument("--latent-dim", type=int, default=synth_defaults.latent_dim)
    synth.add_argument("--offset-max", type=float,
                       default=synth_defaults.offset_max)
    synth.add_argument("--noise", type=float, default=synth_defaults.feature_noise)
    synth.add_argument("--rbf-width", type=float, default=synth_defaults.rbf_width)
    synth.add_argument("--seed", type=int, default=synth_defaults.seed)
    synth.add_argument("--train-frac", type=float, default=0.8)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    trainp = commands.add_parser("train", help="train one model kind")
    trainp.add_argument("--data", required=True)
    trainp.add_argument("--out", required=True)
    _add_train_flags(trainp)
    trainp.set_defaults(func=cmd_train)

    evalp = commands.add_parser("eval", help="score a checkpoint on a dataset")
    evalp.add_argument("--model", required=True)
    evalp.add_argument("--data", required=True)
    evalp.add_argument("--out", required=True)
    evalp.add_argument("--theta-max", type=int, default=10)
    evalp.set_defaults(func=cmd_eval)

    sweep = commands.add_parser("sweep", help="grid of loss weights")
    sweep.add_argument("--data", required=True)
    sweep.add_argument("--test", default=None,
                       help="holdout file; omitted -> internal 80/20 split")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--lambdas", required=True)
    sweep.add_argument("--deltas", required=True)
    _add_train_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    ret = commands.add_parser("retrieve",
                              help="rank a gallery by generated-weight distance")
    ret.add_argument("--model", required=True)
    ret.add_argument("--data", required=True)
    ret.add_argument("--out", required=True)
    ret.add_argument("--fraction", type=float, default=0.10)
    ret.set_defaults(func=cmd_retrieve)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _expand_config_flag(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args) or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, FormatError, CheckpointError, ValueError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: data generation, training, evaluation, sweeps,
and weight-space retrieval.

Each command computes and returns its artifacts without writing anything;
``main`` then creates ``--out``, writes them, and writes ``manifest.json``
last, recording the command name, the fully resolved configuration, the
seed, start/end timestamps, and the paths written. A command that fails
leaves no ``--out``. Outputs other than the manifest are byte-reproducible
from the same inputs and flags.

A ``--config FILE`` flag (flat ``key=value`` lines, ``#`` comments) may stand
in for command flags; explicit flags override file values. Exit codes:
0 success, 1 runtime or IO failure, 2 usage.
"""

import argparse
import dataclasses
import os
import sys
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from .data import (
    FormatError,
    SynthConfig,
    compute_oracle,
    json_text,
    read_features,
    split,
    synth_generate,
    write_features,
)
from .losses import LossConfig
from .metalearner import Dims
from .metrics import retrieve, slice_agreement, weight_embeddings
from .training import (
    MODEL_KINDS,
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


class CommandOutput(NamedTuple):
    """What a command produced; ``main`` writes it into ``--out``."""

    config: dict        # the manifest's resolved configuration
    seed: int | None
    files: list         # (file name, text or a function writing that path)
    message: str        # printed to stdout once everything is written


def _fmt(value):
    """Human-facing float formatting, 6 significant digits."""
    return format(float(value), ".6g")


def _now():
    return datetime.now(timezone.utc).isoformat()


def _write_out(out_dir, command, output, started):
    """Create ``out_dir``, write the files in order, then the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, content in output.files:
        path = os.path.join(out_dir, name)
        if callable(content):
            content(path)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        paths.append(path)
    paths.append(os.path.join(out_dir, "manifest.json"))
    manifest = {"command": command, "config": output.config, "seed": output.seed,
                "started": started, "finished": _now(), "outputs": paths}
    with open(paths[-1], "w", encoding="utf-8") as fh:
        fh.write(json_text(manifest))


def _expand_config_flag(argv):
    """Replace ``--config FILE`` with the file's key=value pairs as flags.

    The expansion lands where the flag stood, but explicit flags win because
    file-derived flags are inserted at the front of the flag list."""
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


def _train_config(args, dataset):
    try:
        dims = Dims(n_classes=dataset.n_classes, age_dim=dataset.age_dim,
                    id_dim=dataset.id_dim, hidden_dim=args.hidden)
        return TrainConfig(
            dims=dims, lam=args.lam, delta=args.delta, lr=args.lr,
            batch_size=args.batch, epochs=args.epochs, seed=args.seed,
            target_mode=args.target_mode, model_kind=args.model,
            use_adapter=args.adapter == "on")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _split(dataset, fractions, seed, by_identity):
    try:
        return split(dataset, fractions, seed=seed, by_identity=by_identity)
    except ValueError as exc:  # too few identities for the fractions
        raise UsageError(str(exc)) from exc


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
    dataset, oracle = synth_generate(config)
    train_set, test_set = _split(dataset, (args.train_frac, 1.0 - args.train_frac),
                                 config.seed, by_identity=True)
    test_oracle = compute_oracle(test_set)
    oracle_doc = {
        "bayes_mae_global": test_oracle.bayes_mae_global,
        "bayes_mae_personal": test_oracle.bayes_mae_personal,
        "full_bayes_mae_global": oracle.bayes_mae_global,
        "full_bayes_mae_personal": oracle.bayes_mae_personal,
        "n_train": len(train_set),
        "n_test": len(test_set),
    }
    conf = dataclasses.asdict(config)
    conf["train_frac"] = args.train_frac
    files = [("train.mafv1", lambda path: write_features(path, train_set)),
             ("test.mafv1", lambda path: write_features(path, test_set)),
             ("oracle.json", json_text(oracle_doc))]
    return CommandOutput(
        conf, config.seed, files,
        f"wrote {len(train_set)} train / {len(test_set)} test samples; "
        f"test-split oracle mae global {_fmt(test_oracle.bayes_mae_global)}, "
        f"personal {_fmt(test_oracle.bayes_mae_personal)}")


def cmd_train(args):
    dataset = read_features(args.data)
    config = _train_config(args, dataset)
    model = train(dataset, config)
    conf = dataclasses.asdict(config)
    conf["data"] = args.data
    loss, train_mae = model.history[-1]
    files = [("model.mapc", lambda path: save_model(path, model)),
             ("history.csv", history_csv(model))]
    return CommandOutput(
        conf, config.seed, files,
        f"{config.model_kind}: {config.epochs} epochs, final loss "
        f"{_fmt(loss)}, train mae {_fmt(train_mae)}")


def cmd_eval(args):
    model = load_model(args.model)
    dataset = read_features(args.data)
    result = evaluate(model, dataset)
    eps = "n/a" if result.eps_error is None else _fmt(result.eps_error)
    files = [("eval.json", result.to_json()), ("cs_curve.csv", result.cs_csv())]
    return CommandOutput(
        {"model": args.model, "data": args.data}, None, files,
        f"mae {_fmt(result.mae)}, cs(5) {_fmt(dict(result.cs_curve).get(5, 0.0))}, "
        f"eps-error {eps}, n {result.n_samples}")


def _parse_grid(text, what, field):
    """Comma-separated values of one ``LossConfig`` field, each checked by
    that field's rule before anything trains."""
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
        for value in values:
            LossConfig(**{field: value})
    except ValueError as exc:
        raise UsageError(f"bad {what} grid {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"{what} grid is empty")
    return values


def cmd_sweep(args):
    lambdas = _parse_grid(args.lambdas, "--lambdas", "lam")
    deltas = _parse_grid(args.deltas, "--deltas", "delta")
    dataset = read_features(args.data)
    config = _train_config(args, dataset)
    if args.test:
        train_set, holdout = dataset, read_features(args.test)
    else:  # 80/20, identity-disjoint when every record is tagged
        train_set, holdout = _split(dataset, (0.8, 0.2), config.seed,
                                    by_identity=dataset.has_all_identities())
    rows = lambda_delta_sweep(train_set, config, lambdas, deltas, holdout)
    conf = dataclasses.asdict(config)
    conf.update({"data": args.data, "test": args.test,
                 "lambdas": lambdas, "deltas": deltas})
    return CommandOutput(
        conf, config.seed, [("sweep.csv", sweep_csv(rows))],
        "\n".join(f"lambda {_fmt(lam)} delta {_fmt(delta)}: test mae {_fmt(mae_value)}"
                  for lam, delta, mae_value in rows))


def cmd_retrieve(args):
    if not 0.0 < args.fraction <= 0.5:
        raise UsageError(f"fraction must be in (0, 0.5], got {args.fraction}")
    model = load_model(args.model)
    if model.kind != "metaage":
        raise ValueError(f"retrieval needs per-sample generated weights; "
                         f"a {model.kind!r} checkpoint has none")
    dataset = read_features(args.data)
    if dataset.age_feats.shape[1] != model.dims.age_dim \
            or dataset.id_feats.shape[1] != model.dims.id_dim:
        raise ValueError("gallery feature widths do not match the checkpoint dims")
    embeddings = weight_embeddings(model.meta, dataset.id_feats)
    spread = float(np.ptp(embeddings, axis=0).max()) if len(dataset) else 0.0
    degenerate = spread == 0.0
    has_ids = dataset.has_all_identities()
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
    if degenerate:
        message = "degenerate: all embeddings identical (zero residual)"
    elif has_ids:
        message = (f"{len(dataset)} queries; same-identity rate top "
                   f"{_fmt(np.mean(top_rates))} vs bottom {_fmt(np.mean(bottom_rates))}")
    else:
        message = f"{len(dataset)} queries ranked (no identity tags)"
    return CommandOutput(
        {"model": args.model, "data": args.data, "fraction": args.fraction},
        None, [("retrieval.json", json_text(report))], message)


# --------------------------------------------------------------------- parser

def _add_train_flags(sub):
    sub.add_argument("--model", choices=MODEL_KINDS, default="metaage")
    sub.add_argument("--hidden", type=int, default=64)
    sub.add_argument("--epochs", type=int, default=60)
    sub.add_argument("--batch", type=int, default=64)
    sub.add_argument("--lr", type=float, default=1e-4)
    sub.add_argument("--lambda", dest="lam", type=float, default=0.2)
    sub.add_argument("--delta", type=float, default=2.0)
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
    try:
        argv = _expand_config_flag(sys.argv[1:] if argv is None else argv)
        args = build_parser().parse_args(argv)
        started = _now()
        output = args.func(args)
        _write_out(args.out, args.command, output, started)
    except SystemExit as exc:  # argparse's own usage errors, --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, FormatError, CheckpointError, ValueError,
            ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(output.message)
    return 0

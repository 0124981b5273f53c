"""The three benchmark workloads: train, score and retrieve.

Each workload has a ``setup`` that turns the workload seed into inputs (a
synthetic dataset written to and read back from a feature file and, for
score and retrieve, a short-trained checkpoint round-tripped through
``save_model``/``load_model``) and a ``measure`` that runs the workload for a
time budget, checks the outputs and returns its metrics by name. Between
operations it lets the host-speed probe take a sample. persage is
called only through its module attributes (``training.train``, not a name
imported from it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from persage import data, metalearner, metrics, training

# The acceptance size: the SynthConfig and model dims of tests/test_acceptance.py.
ACCEPTANCE_SYNTH = dict(n_identities=200, samples_per_identity=10,
                        n_classes=101, age_dim=64, id_dim=32, latent_dim=4,
                        offset_max=5.0, feature_noise=0.01, rbf_width=4.0)
TINY_SYNTH = dict(n_identities=20, samples_per_identity=4, n_classes=11,
                  age_dim=8, id_dim=6, latent_dim=2, offset_max=2.0,
                  feature_noise=0.01, rbf_width=1.5)


@dataclass(frozen=True)
class Size:
    synth: dict
    hidden_dim: int
    batch_size: int = 32
    lr: float = 5e-3
    train_epochs: int = 2      # metaage epochs per round of the train workload
    checkpoint_epochs: int = 1  # training behind the score/retrieve checkpoint
    requests: int = 1024       # distinct single-sample requests, sent cyclically
    fraction: float = 0.10     # retrieval slice, as in ``persage retrieve``

    def dims(self):
        s = self.synth
        return metalearner.Dims(n_classes=s["n_classes"], age_dim=s["age_dim"],
                                id_dim=s["id_dim"], hidden_dim=self.hidden_dim)

    def train_config(self, seed, kind, epochs):
        return training.TrainConfig(dims=self.dims(), epochs=epochs,
                                    batch_size=self.batch_size, lr=self.lr,
                                    seed=seed, model_kind=kind)


SIZES = {
    "acceptance": Size(synth=ACCEPTANCE_SYNTH, hidden_dim=64),
    "tiny": Size(synth=TINY_SYNTH, hidden_dim=8, batch_size=8, requests=64),
}

# A p99 needs at least this many timed operations to have ten beyond it.
P99_MIN_SAMPLES = 1000
BASELINE_REPEATS = 3


@dataclass
class Tally:
    """Operations and checks attempted and failed in one run."""

    attempted: int = 0
    failed: int = 0

    def ops(self, n, failed=0, what=""):
        self.attempted += n
        self.failed += failed
        if failed:
            self.note(f"{failed} of {n} {what} failed")

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.note(f"check failed: {what}")
        return ok

    def error(self, what):
        self.attempted += 1
        self.failed += 1
        self.note(f"{what} raised:\n{traceback.format_exc()}")

    def note(self, text):
        print(f"perfbench: {text}", file=sys.stderr)


def timing(values_s, name):
    """Median and p99 in ms, plus the sample count, of per-operation times."""
    ms = np.asarray(values_s) * 1e3
    return {f"{name}_ms_p50": float(np.median(ms)),
            f"{name}_ms_p99": float(np.percentile(ms, 99)),
            f"{name}_samples": int(ms.size)}


def _more(deadline, done, minimum):
    return time.perf_counter() < deadline or done < minimum


# ------------------------------------------------------------------- set-up

def _load_data(size, seed, workdir, tally):
    """Synthetic dataset through a feature file, split by identity."""
    dataset, _ = data.synth_generate(data.SynthConfig(**size.synth, seed=seed))
    path = os.path.join(workdir, "data.mafv")
    data.write_features(path, dataset)
    loaded = data.read_features(path)
    tally.check(all(np.array_equal(getattr(loaded, f), getattr(dataset, f))
                    for f in ("labels", "sigmas", "identity_ids", "age_feats",
                              "id_feats")),
                "feature file round trip changed the dataset")
    train_set, test_set = data.split(loaded, (0.8, 0.2), seed, by_identity=True)
    return loaded, train_set, test_set


def _checkpoint(size, seed, train_set, workdir, tally):
    """A short-trained metaage model, saved and loaded back."""
    model = training.train(train_set, size.train_config(
        seed, "metaage", size.checkpoint_epochs))
    path = os.path.join(workdir, "model.mapc")
    training.save_model(path, model)
    loaded = training.load_model(path)
    same = all(np.array_equal(p, loaded.trainable()[name][0])
               for name, (p, _) in model.trainable().items())
    same = same and all(np.array_equal(getattr(model.meta.bn, s),
                                       getattr(loaded.meta.bn, s))
                        for s in ("running_mean", "running_var"))
    tally.check(same, "checkpoint round trip changed the parameters")
    return loaded


def setup_train(size, seed, workdir, tally):
    _, train_set, test_set = _load_data(size, seed, workdir, tally)
    return {"size": size, "seed": seed, "train": train_set, "test": test_set}


def setup_score(size, seed, workdir, tally):
    dataset, train_set, test_set = _load_data(size, seed, workdir, tally)
    model = _checkpoint(size, seed, train_set, workdir, tally)
    # Enrolled persons are the unseen test identities; each request pairs one
    # of a person's samples with the identity vector stored at enrolment.
    ids = test_set.identity_ids
    persons, first = np.unique(ids, return_index=True)
    rng = np.random.default_rng([seed, 1])
    person = rng.integers(0, persons.size, size=size.requests)
    sample = np.array([rng.choice(np.flatnonzero(ids == persons[p]))
                       for p in person])
    return {"size": size, "seed": seed, "model": model, "gallery": dataset,
            "person": person,
            "age": np.ascontiguousarray(test_set.age_feats[sample]),
            "id": np.ascontiguousarray(test_set.id_feats[first[person]])}


def setup_retrieve(size, seed, workdir, tally):
    _, train_set, test_set = _load_data(size, seed, workdir, tally)
    model = _checkpoint(size, seed, train_set, workdir, tally)
    return {"size": size, "seed": seed, "model": model, "gallery": test_set}


# ------------------------------------------------------------------ measure

class StepClock:
    """Times training steps as the gaps between batches handed to ``train``.

    One clock read per step; the gap after the last batch ends when the
    epoch's batch generator is exhausted. Host-speed probe samples run
    between steps and are left out of the step times.
    """

    def __init__(self, probe):
        self.probe = probe

    def __enter__(self):
        self.steps = []
        self._original = original = training.batches
        steps, probe = self.steps, self.probe

        def clocked(*args, **kwargs):
            last = None
            for idx in original(*args, **kwargs):
                now = time.perf_counter()
                if last is not None:
                    steps.append(now - last)
                probe.maybe_sample()
                last = time.perf_counter()
                yield idx
            if last is not None:
                steps.append(time.perf_counter() - last)

        training.batches = clocked
        return self

    def __exit__(self, *exc):
        training.batches = self._original


def measure_train(state, seconds, tally, min_samples, probe):
    size, seed = state["size"], state["seed"]
    train_set, test_set = state["train"], state["test"]
    epochs = size.train_epochs
    configs = {kind: size.train_config(seed, kind, epochs)
               for kind in ("metaage", "global", "concat")}
    n = len(train_set) * epochs
    steps, meta_rates, base_rates = [], [], []
    reference = None
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < 2 or _more(deadline, len(steps), min_samples):
        probe.maybe_sample()
        try:
            with StepClock(probe) as clock:
                start, spent = time.perf_counter(), probe.spent
                model = training.train(train_set, configs["metaage"])
                meta_s = time.perf_counter() - start - (probe.spent - spent)
            # the baselines train in about 0.1 s, so each round times them
            # several times
            for _ in range(BASELINE_REPEATS):
                start = time.perf_counter()
                baselines = [training.train(train_set, configs[kind])
                             for kind in ("global", "concat")]
                base_rates.append(2 * n / (time.perf_counter() - start))
            models = [model] + baselines
            maes = [training.evaluate(m, test_set).mae for m in models]
        except Exception:
            tally.error(f"train round {rounds + 1}")
            break
        rounds += 1
        tally.ops(1 + 2 * BASELINE_REPEATS + 3)  # trainings, evaluations
        steps.extend(clock.steps)
        meta_rates.append(n / meta_s)
        histories = [m.history for m in models]
        tally.check(all(np.isfinite(h).all() for h in histories),
                    "non-finite loss history")
        if reference is None:
            reference = (histories, maes)
        else:
            tally.check((histories, maes) == reference,
                        "a rerun with the same seed gave different results")
    if reference is None:
        return {}
    out = {"train_samples_per_s": float(np.median(meta_rates)),
           "baseline_train_samples_per_s": float(np.median(base_rates)),
           "train_test_mae": reference[1][0],
           "train_rounds": rounds}
    out.update(timing(steps, "train_step"))
    return out


def measure_score(state, seconds, tally, min_samples, probe):
    model, gallery = state["model"], state["gallery"]
    age, ids, person = state["age"], state["id"], state["person"]
    n_req = age.shape[0]
    n = len(gallery)
    unique = np.unique(gallery.id_feats, axis=0).shape[0]
    tally.check(unique == n, "gallery identity vectors repeat")
    # The two parts alternate, the closed loop running as long as the last
    # evaluation took, so both sample the whole run.
    got, latencies, maes = [], [], []
    request_rates, eval_rates = [], []
    i = 0
    deadline = time.perf_counter() + seconds
    while len(maes) < 2 or _more(deadline, len(got), min_samples):
        probe.maybe_sample()
        try:
            # offline: evaluate a gallery in which no identity vector repeats
            start = time.perf_counter()
            maes.append(training.evaluate(model, gallery).mae)
            took = time.perf_counter() - start
            eval_rates.append(n / took)
            # closed loop, one client: the next request leaves when the last
            # returns
            start, spent, sent = time.perf_counter(), probe.spent, i
            stop = start + took
            now = start
            while now < stop:
                r = i % n_req
                pred = training.model_predict(model, age[r:r + 1], ids[r:r + 1])
                latencies.append(time.perf_counter() - now)
                got.append((r, pred[0]))
                i += 1
                probe.maybe_sample()
                now = time.perf_counter()
            request_rates.append(
                (i - sent) / (now - start - (probe.spent - spent)))
        except Exception:
            tally.error("score cycle")
            break
    tally.ops(len(maes))
    if len(maes) < 2 or not got:
        return {}
    tally.check(len(set(maes)) == 1, "repeated evaluations differ")
    # Results must not depend on batch makeup: a lone request has to match
    # the same sample scored inside a batch.
    batch = training.model_predict(model, age, ids)
    rows = np.array([r for r, _ in got])
    single = np.array([p for _, p in got])
    bad = int((np.abs(single - batch[rows]) > 1e-9).sum())
    tally.ops(len(got), bad, "single requests disagreeing with the batch")
    served = person[rows]
    out = {"score_requests_per_s": float(np.median(request_rates)),
           "score_repeat_share": 1.0 - np.unique(served).size / served.size,
           "batch_eval_samples_per_s": float(np.median(eval_rates)),
           "score_mae": maes[0],
           "gallery_repeat_share": 1.0 - unique / n}
    out.update(timing(latencies, "score_latency"))
    return out


def measure_retrieve(state, seconds, tally, min_samples, probe):
    size, model, gallery = state["size"], state["model"], state["gallery"]
    params = model.meta
    n = len(gallery)
    identity = gallery.identity_ids

    def embed():
        return np.stack([metrics.weight_embedding(params, h)
                         for h in gallery.id_feats])

    emb = embed()
    tally.check(all(np.array_equal(e, metalearner.generate_weights(
        params, h).reshape(-1)) for e, h in zip(emb, gallery.id_feats)),
        "an embedding differs from its generated weights")
    # Embedding the gallery alternates with ranking queries against it, as
    # ``persage retrieve`` does, the ranking taking four times as long.
    tops = np.full(n, np.nan)
    latencies = []
    failed = passes = q = 0
    embed_rates, query_rates = [], []
    deadline = time.perf_counter() + seconds
    while passes < 2 or q < n or _more(deadline, q, min_samples):
        probe.maybe_sample()
        start = time.perf_counter()
        again = embed()
        took = time.perf_counter() - start
        embed_rates.append(n / took)
        passes += 1
        tally.ops(n, 0 if np.array_equal(again, emb) else n,
                  "re-embedded gallery entries")
        start, spent, asked = time.perf_counter(), probe.spent, q
        stop = start + 4 * took
        now = start
        while now < stop:
            row = q % n
            result = metrics.retrieve(emb[row], emb, row)
            flags = identity == identity[row]
            top, _ = metrics.slice_agreement(result, flags,
                                             fraction=size.fraction)
            latencies.append(time.perf_counter() - now)
            ok = result.ranked_indices[0] == row and result.distances[0] == 0.0
            if q < n:
                tops[row] = top
            else:
                ok = ok and top == tops[row]
            failed += not ok
            q += 1
            probe.maybe_sample()
            now = time.perf_counter()
        query_rates.append((q - asked) / (now - start - (probe.spent - spent)))
    tally.ops(q, failed, "queries not ranking themselves first at distance 0")
    out = {"retrieve_embed_per_s": float(np.median(embed_rates)),
           "retrieve_queries_per_s": float(np.median(query_rates)),
           "retrieve_top_same_identity_rate": float(np.mean(tops))}
    out.update(timing(latencies, "retrieve_query"))
    return out


WORKLOADS = {
    "train": (setup_train, measure_train),
    "score": (setup_score, measure_score),
    "retrieve": (setup_retrieve, measure_retrieve),
}

# Each workload's metrics, name -> unit. ``setup_s``, ``peak_rss_mb`` and
# ``error_rate`` are added for every workload by the runner.
UNITS = {
    "train_samples_per_s": "1/s",
    "train_step_ms_p50": "ms",
    "train_step_ms_p99": "ms",
    "train_step_samples": "count",
    "train_test_mae": "classes",
    "baseline_train_samples_per_s": "1/s",
    "train_rounds": "count",
    "score_latency_ms_p50": "ms",
    "score_latency_ms_p99": "ms",
    "score_latency_samples": "count",
    "score_requests_per_s": "1/s",
    "score_repeat_share": "ratio",
    "batch_eval_samples_per_s": "1/s",
    "score_mae": "classes",
    "gallery_repeat_share": "ratio",
    "retrieve_embed_per_s": "1/s",
    "retrieve_queries_per_s": "1/s",
    "retrieve_query_ms_p50": "ms",
    "retrieve_query_ms_p99": "ms",
    "retrieve_query_samples": "count",
    "retrieve_top_same_identity_rate": "ratio",
}

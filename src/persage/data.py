"""Datasets, the bit-exact feature file format, the text of the JSON and CSV
artifacts, and the synthetic benchmark.

A dataset is stored as one array per field rather than a list of record
objects. All arrays are read-only after construction so nothing downstream
can mutate training data in place.

File format (extension-agnostic, magic "MAFV", version 1):
  bytes 0-3   ASCII "MAFV"
  byte  4     version, u8 = 1
  bytes 5-20  u32 LE x4: N, D, F, K
  then N records, each:
  f32 LE label, f32 LE sigma (NaN = absent), u32 LE identity (0xFFFFFFFF =
  absent), D x f32 LE age features, F x f32 LE identity features.
Storage is 32-bit; loaded values are widened to float64. The synthetic
generator quantizes everything it emits through float32 first, so a write
followed by a read reproduces the dataset bit for bit.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"MAFV"
NO_IDENTITY = 0xFFFFFFFF
HEADER = struct.Struct("<4sB4I")


class FormatError(Exception):
    """Raised with a byte offset when a feature file cannot be decoded."""


@dataclass
class Dataset:
    """Samples as rows: a label on the class-index scale, an optional
    annotation spread, an optional identity tag (diagnostics only, never a
    training input), age features and identity features."""

    labels: np.ndarray        # (N,) float64, each in [0, K-1]
    sigmas: np.ndarray        # (N,) float64, NaN where absent
    identity_ids: np.ndarray  # (N,) int64, -1 where absent
    age_feats: np.ndarray     # (N, D) float64
    id_feats: np.ndarray      # (N, F) float64
    n_classes: int            # K
    latent_offsets: np.ndarray | None = None  # generator-internal, per sample

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.sigmas = np.asarray(self.sigmas, dtype=np.float64)
        self.identity_ids = np.asarray(self.identity_ids, dtype=np.int64)
        self.age_feats = np.asarray(self.age_feats, dtype=np.float64)
        self.id_feats = np.asarray(self.id_feats, dtype=np.float64)
        n = self.labels.shape[0]
        if self.age_feats.ndim != 2 or self.id_feats.ndim != 2:
            raise ValueError("feature blocks must be 2-D")
        if (self.sigmas.shape != (n,) or self.identity_ids.shape != (n,)
                or self.age_feats.shape[0] != n or self.id_feats.shape[0] != n):
            raise ValueError("field lengths disagree")
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {self.n_classes}")
        if n and (not np.isfinite(self.labels).all()
                  or self.labels.min() < 0 or self.labels.max() > self.n_classes - 1):
            raise ValueError("labels must be finite and within [0, K-1]")
        with np.errstate(invalid="ignore"):
            bad_sigma = ~np.isnan(self.sigmas) & ~(self.sigmas > 0.0)
        if bad_sigma.any():
            raise ValueError("sigmas must be NaN (absent) or > 0")
        if not (np.isfinite(self.age_feats).all() and np.isfinite(self.id_feats).all()):
            raise ValueError("feature entries must be finite")
        if self.latent_offsets is not None:
            self.latent_offsets = np.asarray(self.latent_offsets, dtype=np.float64)
            if self.latent_offsets.shape != (n,):
                raise ValueError("latent offsets must be per sample")
        for arr in (self.labels, self.sigmas, self.identity_ids,
                    self.age_feats, self.id_feats, self.latent_offsets):
            if arr is not None:
                arr.flags.writeable = False

    def __len__(self):
        return self.labels.shape[0]

    @property
    def age_dim(self):
        return self.age_feats.shape[1]

    @property
    def id_dim(self):
        return self.id_feats.shape[1]

    def has_all_sigmas(self):
        return len(self) > 0 and not np.isnan(self.sigmas).any()

    def has_all_identities(self):
        return len(self) > 0 and self.identity_ids.min() >= 0


def subset(dataset, indices):
    """New dataset holding the given rows (copied, in the given order)."""
    indices = np.asarray(indices)
    return Dataset(
        labels=dataset.labels[indices].copy(),
        sigmas=dataset.sigmas[indices].copy(),
        identity_ids=dataset.identity_ids[indices].copy(),
        age_feats=dataset.age_feats[indices].copy(),
        id_feats=dataset.id_feats[indices].copy(),
        n_classes=dataset.n_classes,
        latent_offsets=None if dataset.latent_offsets is None
        else dataset.latent_offsets[indices].copy(),
    )


# ------------------------------------------------------------------- file io

def _record_dtype(d, f):
    return np.dtype([("label", "<f4"), ("sigma", "<f4"), ("identity", "<u4"),
                     ("age", "<f4", (d,)), ("id", "<f4", (f,))])


def write_features(path, dataset):
    n = len(dataset)
    d, f = dataset.age_dim, dataset.id_dim
    rec = np.zeros(n, dtype=_record_dtype(d, f))
    rec["label"] = dataset.labels
    rec["sigma"] = dataset.sigmas
    identities = dataset.identity_ids.copy()
    identities[identities < 0] = NO_IDENTITY
    rec["identity"] = identities.astype(np.uint32)
    rec["age"] = dataset.age_feats
    rec["id"] = dataset.id_feats
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, 1, n, d, f, dataset.n_classes))
        fh.write(rec.tobytes())


def json_text(doc):
    """A JSON artifact's text: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def csv_text(header, rows):
    """A CSV artifact's text: the header line, then each row's values as
    ``repr``, comma-separated, and a final newline."""
    return "\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n"


def read_features(path):
    with open(path, "rb") as fh:
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise FormatError(
                f"truncated header at byte offset 0: needed {HEADER.size} "
                f"bytes, got {len(head)}")
        magic, version, n, d, f, k = HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte offset 0")
        if version != 1:
            raise FormatError(f"unsupported version {version} at byte offset 4")
        if d < 1 or f < 1 or k < 1:
            raise FormatError(f"invalid dims D={d}, F={f}, K={k} at byte offset 9")
        # Python ints, so forged dims can neither overflow the sizes nor reach
        # numpy, whose record dtypes must fit a C int; the file size is
        # checked before any record is read
        record = 12 + 4 * (d + f)
        held = os.fstat(fh.fileno()).st_size - HEADER.size
        if held != n * record:
            raise FormatError(
                f"record block at byte offset {HEADER.size}: expected "
                f"{n * record} bytes for {n} records of {record}, got {held}")
        if record > np.iinfo(np.intc).max:
            raise FormatError(f"records of {record} bytes (D={d}, F={f}) at "
                              f"byte offset 9 exceed the largest numpy record "
                              f"dtype")
        raw = fh.read()
    if len(raw) != held:
        raise FormatError(f"record block at byte offset {HEADER.size}: the "
                          f"file changed size while it was read")
    rec = np.frombuffer(raw, dtype=_record_dtype(d, f), count=n)

    def record_offset(i):
        return HEADER.size + i * record

    labels = rec["label"].astype(np.float64)
    bad = ~np.isfinite(labels) | (labels < 0) | (labels > k - 1)
    if bad.any():
        i = int(np.argmax(bad))
        raise FormatError(
            f"record {i} at byte offset {record_offset(i)}: label "
            f"{labels[i]!r} outside [0, {k - 1}]")
    sigmas = rec["sigma"].astype(np.float64)
    with np.errstate(invalid="ignore"):
        bad = ~np.isnan(sigmas) & ~(sigmas > 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise FormatError(
            f"record {i} at byte offset {record_offset(i) + 4}: sigma "
            f"{sigmas[i]!r} must be NaN or > 0")
    for name, column_offset in (("age", 12), ("id", 12 + 4 * d)):
        block = rec[name].astype(np.float64)
        bad_rows = ~np.isfinite(block).all(axis=1)
        if bad_rows.any():
            i = int(np.argmax(bad_rows))
            raise FormatError(
                f"record {i} at byte offset {record_offset(i) + column_offset}: "
                f"non-finite {name} feature")
    identities = rec["identity"].astype(np.int64)
    identities[identities == NO_IDENTITY] = -1
    return Dataset(labels=labels, sigmas=sigmas, identity_ids=identities,
                   age_feats=rec["age"].astype(np.float64),
                   id_feats=rec["id"].astype(np.float64), n_classes=k)


# ------------------------------------------------------- synthetic benchmark

@dataclass
class SynthConfig:
    """Generator for people who systematically look older or younger.

    Each identity draws a latent vector; one fixed projection turns it into
    identity features, another into a per-person apparent-age offset. A
    sample's age features encode the true age plus that offset (clamped to the
    label range) as radial-basis activations over equispaced centers, so an
    identity-blind decoder is off by the offset while an identity-aware one
    can take it back out.
    """

    n_identities: int = 200
    samples_per_identity: int = 10
    n_classes: int = 101
    age_dim: int = 64
    id_dim: int = 32
    latent_dim: int = 8
    offset_max: float = 5.0
    feature_noise: float = 0.01
    rbf_width: float = 2.5
    seed: int = 0

    def __post_init__(self):
        for name in ("n_identities", "samples_per_identity", "n_classes",
                     "age_dim", "id_dim", "latent_dim"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
            setattr(self, name, int(getattr(self, name)))
        if not 0.0 <= self.offset_max < self.n_classes / 4:
            raise ValueError(
                f"offset_max must be in [0, K/4) to keep labels decodable, "
                f"got {self.offset_max} with K={self.n_classes}")
        if self.feature_noise < 0.0:
            raise ValueError("feature_noise must be >= 0")
        if self.rbf_width <= 0.0:
            raise ValueError("rbf_width must be > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SynthOracle:
    """Best-achievable test MAE with and without knowing who the person is."""

    bayes_mae_global: float    # identity-blind decoder
    bayes_mae_personal: float  # decoder that knows each person's offset


def _f32(x):
    # quantize through storage precision so written files round-trip exactly
    return np.asarray(x, dtype=np.float32).astype(np.float64)


def feature_centers(n_classes, age_dim):
    return np.linspace(0.0, n_classes - 1.0, age_dim)


def synth_generate(config):
    """Returns (dataset, oracle). The dataset keeps its per-sample true
    offsets in ``latent_offsets`` so ``compute_oracle`` works on any split."""
    rng = np.random.default_rng(config.seed)
    a_dim = config.latent_dim
    # fixed projections shared by all identities
    u = rng.normal(size=(config.id_dim, a_dim))
    c = rng.normal(size=a_dim)
    norm = np.linalg.norm(c)
    c = c * (config.offset_max / 2.0 / norm) if norm > 0 else np.zeros(a_dim)

    n = config.n_identities * config.samples_per_identity
    centers = feature_centers(config.n_classes, config.age_dim)
    latents = rng.normal(size=(config.n_identities, a_dim))
    identity_offsets = np.clip(latents @ c, -config.offset_max, config.offset_max)

    labels = np.empty(n)
    sigmas = np.empty(n)
    identity_ids = np.empty(n, dtype=np.int64)
    age_feats = np.empty((n, config.age_dim))
    id_feats = np.empty((n, config.id_dim))
    offsets = np.empty(n)
    row = 0
    for j in range(config.n_identities):
        o_j = identity_offsets[j]
        base_id_feat = np.tanh(u @ latents[j])
        for _ in range(config.samples_per_identity):
            y = float(rng.integers(0, config.n_classes))
            z = min(max(y + o_j, 0.0), config.n_classes - 1.0)
            g = np.exp(-((z - centers) ** 2) / (2.0 * config.rbf_width ** 2))
            if config.feature_noise > 0.0:
                g = g + rng.normal(scale=config.feature_noise, size=config.age_dim)
                h = base_id_feat + rng.normal(scale=config.feature_noise,
                                              size=config.id_dim)
            else:
                h = base_id_feat
            labels[row] = y
            sigmas[row] = 1.0 + abs(o_j) / 2.0
            identity_ids[row] = j
            age_feats[row] = g
            id_feats[row] = h
            offsets[row] = o_j
            row += 1

    dataset = Dataset(labels=_f32(labels), sigmas=_f32(sigmas),
                      identity_ids=identity_ids, age_feats=_f32(age_feats),
                      id_feats=_f32(id_feats), n_classes=config.n_classes,
                      latent_offsets=offsets)
    return dataset, compute_oracle(dataset)


def decode_apparent_age(age_feats, n_classes, age_dim):
    """Recover the encoded age signal from radial-basis features.

    Takes the strongest center and fits a parabola to the log of the three
    values around it; for noiseless features this is exact, since the log of a
    Gaussian bump is a parabola in the center position.
    """
    age_feats = np.asarray(age_feats, dtype=np.float64)
    if age_dim < 3:
        raise ValueError("decoding needs at least 3 feature centers")
    centers = feature_centers(n_classes, age_dim)
    spacing = centers[1] - centers[0]
    peak = np.argmax(age_feats, axis=1)
    mid = np.clip(peak, 1, age_dim - 2)
    rows = np.arange(age_feats.shape[0])
    logs = np.log(np.maximum(age_feats, 1e-300))
    y0 = logs[rows, mid - 1]
    y1 = logs[rows, mid]
    y2 = logs[rows, mid + 1]
    denom = y0 - 2.0 * y1 + y2
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = centers[mid] + 0.5 * spacing * (y0 - y2) / denom
    vertex = np.where(denom < -1e-12, vertex, centers[peak])
    return np.clip(vertex, 0.0, n_classes - 1.0)


def compute_oracle(dataset):
    """Bayes-style MAE floors for a synthetic dataset (or any of its splits).

    Decodes the apparent-age signal from the stored (noisy, 32-bit) features;
    the identity-blind decoder predicts it as-is, the identity-aware one
    subtracts the sample's true offset first. Requires generator latents.
    """
    if dataset.latent_offsets is None:
        raise ValueError("generator latents unavailable; "
                         "oracle values exist only for synthetic data")
    decoded = decode_apparent_age(dataset.age_feats, dataset.n_classes,
                                  dataset.age_dim)
    personal = np.clip(decoded - dataset.latent_offsets, 0.0,
                       dataset.n_classes - 1.0)
    return SynthOracle(
        bayes_mae_global=float(np.abs(decoded - dataset.labels).mean()),
        bayes_mae_personal=float(np.abs(personal - dataset.labels).mean()))


# ------------------------------------------------------------ split / batches

def split(dataset, fractions, seed, by_identity=False):
    """Two-way split. ``fractions`` must sum to 1; sizes are rounded.

    by_identity keeps every identity wholly on one side, so evaluation sees
    only people never trained on. Requires identity tags on every record.
    """
    if len(fractions) != 2 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must be two values summing to 1, got {fractions}")
    if min(fractions) < 0:
        raise ValueError("fractions must be non-negative")
    rng = np.random.default_rng(seed)
    if by_identity:
        if not dataset.has_all_identities():
            raise ValueError("identity-disjoint split needs identity tags "
                             "on every record")
        unique = np.unique(dataset.identity_ids)
        n_train = round(fractions[0] * unique.size)
        if (fractions[0] > 0 and n_train == 0) or (fractions[1] > 0
                                                   and n_train == unique.size):
            raise ValueError(f"too few identities ({unique.size}) to honor "
                             f"fractions {fractions}")
        shuffled = rng.permutation(unique)
        train_ids = set(shuffled[:n_train].tolist())
        mask = np.array([i in train_ids for i in dataset.identity_ids.tolist()])
        return subset(dataset, np.flatnonzero(mask)), subset(
            dataset, np.flatnonzero(~mask))
    perm = rng.permutation(len(dataset))
    n_train = round(fractions[0] * len(dataset))
    return subset(dataset, perm[:n_train]), subset(dataset, perm[n_train:])


def batches(n_samples, batch_size, seed, epoch):
    """Seeded per-epoch shuffle, yielding index arrays of ``batch_size``.

    A final batch shorter than 2 is dropped (batch normalization needs at
    least two rows); any other tail is kept.
    """
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    perm = np.random.default_rng([seed, epoch]).permutation(n_samples)
    for start in range(0, n_samples, batch_size):
        chunk = perm[start:start + batch_size]
        if chunk.size >= 2:
            yield chunk

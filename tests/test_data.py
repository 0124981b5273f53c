"""Format round trips, parse errors with offsets, generator and oracle checks."""

import tracemalloc

import numpy as np
import pytest

from persage.data import (
    HEADER,
    Dataset,
    FormatError,
    SynthConfig,
    batches,
    compute_oracle,
    decode_apparent_age,
    read_features,
    split,
    subset,
    synth_generate,
    write_features,
)


def tiny_dataset(n=6, d=5, f=3, k=10, seed=0, with_sigma=True, with_identity=True):
    rng = np.random.default_rng(seed)
    return Dataset(
        labels=rng.integers(0, k, size=n).astype(np.float64),
        sigmas=rng.uniform(0.5, 2.0, size=n).astype(np.float32).astype(np.float64)
        if with_sigma else np.full(n, np.nan),
        identity_ids=rng.integers(0, 3, size=n) if with_identity else np.full(n, -1),
        age_feats=rng.normal(size=(n, d)).astype(np.float32).astype(np.float64),
        id_feats=rng.normal(size=(n, f)).astype(np.float32).astype(np.float64),
        n_classes=k,
    )


# ---------------------------------------------------------------- dataset type

def test_dataset_validation():
    ds = tiny_dataset()
    with pytest.raises(ValueError):
        Dataset(labels=np.array([0.0, 20.0]), sigmas=np.full(2, np.nan),
                identity_ids=np.full(2, -1), age_feats=np.zeros((2, 3)),
                id_feats=np.zeros((2, 2)), n_classes=10)
    with pytest.raises(ValueError):
        Dataset(labels=np.array([0.0]), sigmas=np.array([-1.0]),
                identity_ids=np.full(1, -1), age_feats=np.zeros((1, 3)),
                id_feats=np.zeros((1, 2)), n_classes=10)
    with pytest.raises(ValueError):
        Dataset(labels=np.array([0.0]), sigmas=np.array([np.nan]),
                identity_ids=np.full(1, -1), age_feats=np.array([[np.inf, 0, 0]]),
                id_feats=np.zeros((1, 2)), n_classes=10)
    # buffers are frozen
    with pytest.raises(ValueError):
        ds.labels[0] = 1.0


def test_record_view():
    ds = tiny_dataset(with_sigma=False, with_identity=False)
    rec = ds.record(0)
    assert rec.sigma is None and rec.identity_id is None
    assert rec.age_feat.shape == (5,)
    ds2 = tiny_dataset()
    recs = list(ds2.records())
    assert len(recs) == 6
    assert recs[2].label == ds2.labels[2]
    assert ds2.has_all_sigmas() and not ds.has_all_sigmas()


# ---------------------------------------------------------------- file format

def test_round_trip_bit_exact(tmp_path):
    for kwargs in ({}, {"with_sigma": False}, {"with_identity": False}):
        ds = tiny_dataset(**kwargs)
        path = tmp_path / "t.mafv1"
        write_features(path, ds)
        back = read_features(path)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.sigmas, ds.sigmas, equal_nan=True)
        assert np.array_equal(back.identity_ids, ds.identity_ids)
        assert np.array_equal(back.age_feats, ds.age_feats)
        assert np.array_equal(back.id_feats, ds.id_feats)
        assert back.n_classes == ds.n_classes
        # writing the loaded dataset reproduces the bytes
        write_features(tmp_path / "u.mafv1", back)
        assert (tmp_path / "t.mafv1").read_bytes() == (tmp_path / "u.mafv1").read_bytes()


def test_parse_errors_carry_offsets(tmp_path):
    ds = tiny_dataset()
    path = tmp_path / "t.mafv1"
    write_features(path, ds)
    raw = bytearray(path.read_bytes())
    rec_size = 4 + 4 + 4 + 5 * 4 + 3 * 4

    bad = tmp_path / "bad.mafv1"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(FormatError, match="offset 0"):
        read_features(bad)

    bad.write_bytes(bytes(raw[:4]) + b"\x07" + bytes(raw[5:]))
    with pytest.raises(FormatError, match="offset 4"):
        read_features(bad)

    bad.write_bytes(bytes(raw[:-3]))
    with pytest.raises(FormatError, match="expected .* got"):
        read_features(bad)

    bad.write_bytes(bytes(raw) + b"\x00" * 2)
    with pytest.raises(FormatError, match="expected .* got"):
        read_features(bad)

    # corrupt record 1's label to 1e9 (out of range)
    corrupt = bytearray(raw)
    corrupt[21 + rec_size:21 + rec_size + 4] = np.float32(1e9).tobytes()
    bad.write_bytes(bytes(corrupt))
    with pytest.raises(FormatError, match=f"offset {21 + rec_size}"):
        read_features(bad)

    # corrupt record 0's sigma to a negative value
    corrupt = bytearray(raw)
    corrupt[25:29] = np.float32(-3.0).tobytes()
    bad.write_bytes(bytes(corrupt))
    with pytest.raises(FormatError, match="offset 25"):
        read_features(bad)

    # NaN in an age feature of record 0
    corrupt = bytearray(raw)
    corrupt[33:37] = np.float32(np.nan).tobytes()
    bad.write_bytes(bytes(corrupt))
    with pytest.raises(FormatError, match="offset 33"):
        read_features(bad)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("d, f", [(2**31, 1), (2**30, 2**30)])
def test_forged_feature_dims_raise_format_error(tmp_path, n, d, f):
    # records of 8 GiB: more than the file holds at N=1, and more than a
    # numpy record dtype can describe at N=0, where the length matches
    path = tmp_path / "forged.mafv1"
    path.write_bytes(HEADER.pack(b"MAFV", 1, n, d, f, 10))
    with pytest.raises(FormatError, match="byte offset"):
        read_features(path)


def test_oversized_feature_file_refused_before_reading(tmp_path):
    # the header declares one 32-byte record; the 8 MiB behind it must be
    # refused from the file size alone, not read first
    path = tmp_path / "big.mafv1"
    path.write_bytes(HEADER.pack(b"MAFV", 1, 1, 3, 2, 5) + bytes(8 * 2**20))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="byte offset 21"):
            read_features(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_empty_header_error(tmp_path):
    path = tmp_path / "e.mafv1"
    path.write_bytes(b"MA")
    with pytest.raises(FormatError, match="offset 0"):
        read_features(path)


# ---------------------------------------------------------------- generator

def test_synth_same_seed_bit_identical():
    config = SynthConfig(n_identities=5, samples_per_identity=4, n_classes=20,
                         age_dim=16, id_dim=8, latent_dim=4, offset_max=3.0,
                         seed=11)
    a, oa = synth_generate(config)
    b, ob = synth_generate(config)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.age_feats, b.age_feats)
    assert np.array_equal(a.id_feats, b.id_feats)
    assert oa.bayes_mae_global == ob.bayes_mae_global
    assert len(a) == 20
    # every sample of an identity shares its offset
    for j in range(5):
        rows = a.identity_ids == j
        assert np.unique(a.latent_offsets[rows]).size == 1


def test_synth_offsets_bounded_and_sigma_rule():
    config = SynthConfig(n_identities=30, samples_per_identity=2, n_classes=40,
                         age_dim=16, id_dim=8, latent_dim=4, offset_max=3.0,
                         seed=2)
    ds, oracle = synth_generate(config)
    assert np.abs(ds.latent_offsets).max() <= 3.0
    assert np.abs(oracle.offsets).max() <= 3.0
    assert oracle.offsets.shape == (30,)
    expect = np.float32(1.0 + np.abs(ds.latent_offsets) / 2.0).astype(np.float64)
    assert np.array_equal(ds.sigmas, expect)
    assert ds.has_all_sigmas()


def test_synth_round_trip_through_file(tmp_path):
    config = SynthConfig(n_identities=8, samples_per_identity=3, n_classes=30,
                         age_dim=12, id_dim=6, latent_dim=4, seed=5)
    ds, _ = synth_generate(config)
    write_features(tmp_path / "s.mafv1", ds)
    back = read_features(tmp_path / "s.mafv1")
    assert np.array_equal(back.age_feats, ds.age_feats)
    assert np.array_equal(back.sigmas, ds.sigmas)


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(offset_max=30.0, n_classes=101)  # >= K/4
    with pytest.raises(ValueError):
        SynthConfig(n_identities=0)
    with pytest.raises(ValueError):
        SynthConfig(feature_noise=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(rbf_width=0.0)


# ---------------------------------------------------------------- oracle

def test_decode_exact_on_noiseless_features():
    config = SynthConfig(n_identities=20, samples_per_identity=3, n_classes=50,
                         age_dim=24, id_dim=8, latent_dim=4, offset_max=4.0,
                         feature_noise=0.0, seed=7)
    ds, _ = synth_generate(config)
    decoded = decode_apparent_age(ds.age_feats, ds.n_classes, ds.age_dim)
    z = np.clip(ds.labels + ds.latent_offsets, 0.0, ds.n_classes - 1.0)
    # only 32-bit feature storage separates decoded from exact
    assert np.abs(decoded - z).max() < 1e-4


def test_oracle_zero_when_degenerate():
    config = SynthConfig(n_identities=10, samples_per_identity=3, n_classes=30,
                         age_dim=16, id_dim=6, latent_dim=4, offset_max=0.0,
                         feature_noise=0.0, seed=3)
    _, oracle = synth_generate(config)
    assert oracle.bayes_mae_global < 1e-5
    assert oracle.bayes_mae_personal < 1e-5
    assert abs(oracle.bayes_mae_global - oracle.bayes_mae_personal) < 1e-12


def test_oracle_global_equals_mean_clamped_offset_noiseless():
    config = SynthConfig(n_identities=40, samples_per_identity=5, n_classes=60,
                         age_dim=32, id_dim=8, latent_dim=4, offset_max=5.0,
                         feature_noise=0.0, seed=9)
    ds, oracle = synth_generate(config)
    z = np.clip(ds.labels + ds.latent_offsets, 0.0, ds.n_classes - 1.0)
    assert abs(oracle.bayes_mae_global - np.abs(z - ds.labels).mean()) < 1e-4
    assert oracle.bayes_mae_personal <= oracle.bayes_mae_global


def test_oracle_gap_grows_with_offset_strength():
    gaps = []
    for offset_max in (1.0, 3.0, 6.0):
        config = SynthConfig(n_identities=60, samples_per_identity=5,
                             n_classes=80, age_dim=32, id_dim=8, latent_dim=4,
                             offset_max=offset_max, feature_noise=0.01, seed=13)
        _, oracle = synth_generate(config)
        assert oracle.bayes_mae_personal <= oracle.bayes_mae_global
        gaps.append(oracle.bayes_mae_global - oracle.bayes_mae_personal)
    assert gaps[0] < gaps[1] < gaps[2]


def test_oracle_needs_latents(tmp_path):
    ds, _ = synth_generate(SynthConfig(n_identities=4, samples_per_identity=2,
                                       n_classes=20, age_dim=12, id_dim=4,
                                       latent_dim=3, offset_max=2.0, seed=1))
    write_features(tmp_path / "x.mafv1", ds)
    loaded = read_features(tmp_path / "x.mafv1")
    with pytest.raises(ValueError, match="latents"):
        compute_oracle(loaded, None)


def test_oracle_works_on_splits():
    config = SynthConfig(n_identities=20, samples_per_identity=4, n_classes=40,
                         age_dim=20, id_dim=6, latent_dim=4, seed=21)
    ds, _ = synth_generate(config)
    train, test = split(ds, (0.75, 0.25), seed=0, by_identity=True)
    oracle = compute_oracle(test, config)
    assert oracle.bayes_mae_personal <= oracle.bayes_mae_global
    assert oracle.offsets.shape == (5,)


# ---------------------------------------------------------------- split/batches

def test_record_split_sizes_and_determinism():
    ds = tiny_dataset(n=100, k=120)
    a1, b1 = split(ds, (0.8, 0.2), seed=5)
    a2, b2 = split(ds, (0.8, 0.2), seed=5)
    assert len(a1) == 80 and len(b1) == 20
    assert np.array_equal(a1.labels, a2.labels)
    assert np.array_equal(b1.id_feats, b2.id_feats)
    different, _ = split(ds, (0.8, 0.2), seed=6)
    assert not np.array_equal(a1.labels, different.labels)


def test_identity_split_disjoint():
    config = SynthConfig(n_identities=10, samples_per_identity=6, n_classes=30,
                         age_dim=12, id_dim=4, latent_dim=3, seed=17)
    ds, _ = synth_generate(config)
    train, test = split(ds, (0.8, 0.2), seed=3, by_identity=True)
    assert set(train.identity_ids) & set(test.identity_ids) == set()
    assert len(train) + len(test) == len(ds)
    assert train.latent_offsets is not None  # latents survive the split


def test_identity_split_requires_tags_and_enough_identities():
    ds = tiny_dataset(with_identity=False)
    with pytest.raises(ValueError, match="identity"):
        split(ds, (0.8, 0.2), seed=0, by_identity=True)
    config = SynthConfig(n_identities=2, samples_per_identity=3, n_classes=20,
                         age_dim=12, id_dim=4, latent_dim=3, offset_max=2.0,
                         seed=1)
    few, _ = synth_generate(config)
    with pytest.raises(ValueError, match="too few"):
        split(few, (0.95, 0.05), seed=0, by_identity=True)


def test_split_fraction_validation():
    ds = tiny_dataset()
    with pytest.raises(ValueError):
        split(ds, (0.5, 0.4), seed=0)
    with pytest.raises(ValueError):
        split(ds, (0.5, 0.3, 0.2), seed=0)


def test_batches_shapes_and_coverage():
    out = list(batches(10, 4, seed=0, epoch=0))
    assert [len(b) for b in out] == [4, 4, 2]
    assert sorted(np.concatenate(out).tolist()) == list(range(10))
    # a trailing single sample is dropped
    out = list(batches(9, 4, seed=0, epoch=0))
    assert [len(b) for b in out] == [4, 4]
    with pytest.raises(ValueError):
        list(batches(10, 1, seed=0, epoch=0))


def test_batches_epoch_reshuffle_reproducible():
    e0 = np.concatenate(list(batches(50, 8, seed=9, epoch=0)))
    e0_again = np.concatenate(list(batches(50, 8, seed=9, epoch=0)))
    e1 = np.concatenate(list(batches(50, 8, seed=9, epoch=1)))
    assert np.array_equal(e0, e0_again)
    assert not np.array_equal(e0, e1)


def test_subset_preserves_order():
    ds = tiny_dataset(n=10, k=20)
    sub = subset(ds, [7, 1, 3])
    assert np.array_equal(sub.labels, ds.labels[[7, 1, 3]])
    assert len(sub) == 3

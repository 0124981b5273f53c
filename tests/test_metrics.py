"""Metric checks against literal per-sample transcriptions and hand values."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from persage import metalearner
from persage.data import SynthConfig, synth_generate
from persage.metalearner import Dims
from persage.metrics import (
    cs,
    cs_curve,
    eps_error,
    eval_result,
    mae,
    retrieve,
    slice_agreement,
    weight_embedding,
    weight_embeddings,
)
from persage.training import init_params


# ----------------------------------------------------- literal transcriptions

def mae_by_hand(preds, labels):
    total = 0.0
    for p, y in zip(preds, labels):
        total += abs(p - y)
    return total / len(preds)


def cs_by_hand(preds, labels, theta):
    hits = 0
    for p, y in zip(preds, labels):
        if abs(p - y) <= theta:
            hits += 1
    return 100.0 * hits / len(preds)


def eps_by_hand(preds, labels, sigmas):
    total = 0.0
    for p, y, s in zip(preds, labels, sigmas):
        total += math.exp(-((p - y) ** 2) / (2.0 * s * s))
    return 1.0 - total / len(preds)


def test_metrics_match_literal_transcriptions():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 40))
        labels = rng.uniform(0, 80, size=m)
        preds = labels + rng.normal(scale=rng.uniform(0.1, 5.0), size=m)
        sigmas = rng.uniform(0.3, 4.0, size=m)
        theta = float(rng.uniform(0, 8))
        assert abs(mae(preds, labels) - mae_by_hand(preds, labels)) < 1e-12
        assert abs(cs(preds, labels, theta) - cs_by_hand(preds, labels, theta)) < 1e-12
        assert abs(eps_error(preds, labels, sigmas)
                   - eps_by_hand(preds, labels, sigmas)) < 1e-12


# ---------------------------------------------------------------- hand cases

def test_mae_hand_cases():
    assert mae([1.0, 3.0], [2.0, 1.0]) == 1.5
    assert mae([4.0, 4.0], [4.0, 4.0]) == 0.0
    perm = [1.0, 3.0], [2.0, 1.0]
    assert mae([3.0, 1.0], [1.0, 2.0]) == mae(*perm)
    with pytest.raises(ValueError):
        mae([], [])
    with pytest.raises(ValueError):
        mae([1.0], [1.0, 2.0])


def test_cs_hand_cases():
    labels = np.zeros(3)
    preds = np.array([0.5, 2.0, 3.1])
    # the error exactly at theta counts as a success
    assert abs(cs(preds, labels, 2.0) - 200.0 / 3.0) < 1e-12
    assert cs(labels, labels, 0.0) == 100.0
    assert cs(preds, labels, 10.0) == 100.0
    with pytest.raises(ValueError):
        cs(preds, labels, -1.0)


def test_cs_curve_monotone_and_terminal():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        labels = rng.uniform(0, 50, size=20)
        preds = labels + rng.normal(scale=3.0, size=20)
        top = int(np.ceil(np.abs(preds - labels).max()))
        curve = cs_curve(preds, labels, top)
        values = [v for _, v in curve]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 100.0
        assert curve[0][0] == 0 and curve[-1][0] == top
    assert cs_curve([5.0], [5.0], 3) == [(0, 100.0), (1, 100.0), (2, 100.0),
                                         (3, 100.0)]


def test_eps_error_hand_cases():
    assert eps_error([3.0], [3.0], [1.0]) == 0.0
    # error equal to sigma: 1 - e^(-1/2)
    assert abs(eps_error([4.0], [3.0], [1.0]) - (1.0 - math.exp(-0.5))) < 1e-15
    assert eps_error([1e9], [0.0], [1.0]) == 1.0
    with pytest.raises(ValueError):
        eps_error([1.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        eps_error([1.0], [1.0], [-2.0])
    with pytest.raises(ValueError):
        eps_error([1.0], [1.0], [np.nan])


def test_eps_error_monotone_in_sigma():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        labels = rng.uniform(0, 50, size=10)
        preds = labels + rng.normal(scale=2.0, size=10)
        if np.all(preds == labels):
            continue
        sigmas = rng.uniform(0.5, 2.0, size=10)
        base = eps_error(preds, labels, sigmas)
        j = int(rng.integers(0, 10))
        wider = sigmas.copy()
        wider[j] *= 1.5
        assert eps_error(preds, labels, wider) <= base


# ------------------------------------------------------------- result bundle

def test_eval_result_serialization():
    res = eval_result([1.0, 2.0], [1.0, 4.0], sigmas=[1.0, 2.0])
    # thresholds 0..10, as persage eval writes them to cs_curve.csv
    assert [theta for theta, _ in res.cs_curve] == list(range(11))
    assert res.cs_curve[2] == (2, 100.0)
    doc = json.loads(res.to_json())
    assert set(doc) == {"mae", "cs_curve", "eps_error", "n_samples"}
    assert doc["mae"] == 1.0
    assert doc["n_samples"] == 2
    assert doc["cs_curve"][0] == [0, 50.0]
    csv = res.cs_csv().strip().splitlines()
    assert csv[0] == "theta,cs"
    assert csv[1].startswith("0,")
    # unknown sigmas leave the weighted error out
    res = eval_result([1.0], [1.0], sigmas=[np.nan])
    assert res.eps_error is None
    assert json.loads(res.to_json())["eps_error"] is None


# ---------------------------------------------------------------- retrieval

def test_retrieve_hand_case():
    gallery = np.array([[0.0], [5.0], [1.0]])
    result = retrieve(np.array([0.0]), gallery)
    assert result.ranked_indices.tolist() == [0, 2, 1]
    assert np.array_equal(result.distances, [0.0, 1.0, 5.0])


def test_retrieve_self_match_and_ties():
    rng = np.random.default_rng(0)
    gallery = rng.normal(size=(10, 4))
    result = retrieve(gallery[3], gallery, query_index=3)
    assert result.ranked_indices[0] == 3
    assert result.distances[0] == 0.0
    assert sorted(result.ranked_indices.tolist()) == list(range(10))
    # exact ties keep gallery order
    tied = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    result = retrieve(np.zeros(2), tied)
    assert result.ranked_indices.tolist() == [0, 1, 2]


def test_retrieve_rotation_invariance():
    rng = np.random.default_rng(4)
    gallery = rng.normal(size=(12, 6))
    query = rng.normal(size=6)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    base = retrieve(query, gallery)
    rotated = retrieve(query @ q, gallery @ q)
    assert np.array_equal(base.ranked_indices, rotated.ranked_indices)
    assert np.allclose(base.distances, rotated.distances, atol=1e-9)


@pytest.mark.parametrize("n, dim", [(3 * (2**17 // 100) + 7, 100),
                                    (3, 2**17 + 5)])
def test_retrieve_blocked_distances_are_bitwise_unblocked(n, dim):
    # distances go over row blocks of 2**17 // dim rows; the row count is not
    # a multiple of the block, and a dim above 2**17 makes one row per block
    rng = np.random.default_rng(n)
    gallery = rng.normal(size=(n, dim))
    query = rng.normal(size=dim)
    result = retrieve(query, gallery)
    unblocked = np.linalg.norm(gallery - query, axis=1)
    assert np.array_equal(result.distances, unblocked[result.ranked_indices])
    assert np.array_equal(result.ranked_indices,
                          np.argsort(unblocked, kind="stable"))


def test_retrieve_distances_ignore_gallery_layout():
    # every row's squared differences are summed from one C-ordered buffer,
    # so Fortran order or a strided view cannot change the summation order
    rng = np.random.default_rng(11)
    wide = rng.normal(size=(300, 2000))
    query = rng.normal(size=1000)
    strided = wide[:, ::2]
    c_ordered = np.ascontiguousarray(strided)
    base = retrieve(query, c_ordered)
    for gallery in (np.asfortranarray(c_ordered), strided):
        result = retrieve(query, gallery)
        assert np.array_equal(result.distances, base.distances)
        assert np.array_equal(result.ranked_indices, base.ranked_indices)


def test_retrieve_memory_stays_within_one_block_buffer():
    # one (2**17 // dim, dim) buffer of about 1 MiB; a copy of the 400-entry
    # gallery (19.7 MiB) or a second block-sized temporary breaks the bound
    rng = np.random.default_rng(12)
    gallery = rng.normal(size=(400, 6464))
    query = gallery[7].copy()
    tracemalloc.start()
    try:
        result = retrieve(query, gallery, query_index=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ranked_indices[0] == 7
    assert peak < 1.5 * 2**20


def test_retrieve_validation():
    with pytest.raises(ValueError):
        retrieve(np.zeros(3), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        retrieve(np.zeros(3), np.zeros((4, 2)))


def test_weight_embedding_shape_and_degeneracy():
    dims = Dims(n_classes=4, age_dim=6, id_dim=5, hidden_dim=8)
    params = init_params(dims, 3)
    rng = np.random.default_rng(1)
    h = rng.normal(size=5)
    emb = weight_embedding(params, h)
    assert emb.shape == (24,)
    assert np.array_equal(emb, weight_embedding(params, h))
    params.output.weight[:] = 0.0
    e1 = weight_embedding(params, rng.normal(size=5))
    e2 = weight_embedding(params, rng.normal(size=5))
    assert np.array_equal(e1, e2)
    assert np.array_equal(e1, params.w_common.reshape(-1))


def test_weight_embeddings_match_per_sample_in_any_chunking(monkeypatch):
    dims = Dims(n_classes=4, age_dim=6, id_dim=5, hidden_dim=8)
    params = init_params(dims, 3)
    rng = np.random.default_rng(2)
    params.bn.running_mean[:] = rng.normal(size=8)
    params.bn.running_var[:] = rng.uniform(0.5, 2.0, size=8)
    ids = rng.normal(size=(23, 5))
    per = np.stack([weight_embedding(params, h) for h in ids])
    for tile in (1, 7, 23, 256):  # samples per tile of hidden rows
        monkeypatch.setattr(metalearner, "_TILE_BYTES", tile * 8 * 4 * 8)
        got = weight_embeddings(params, ids)
        assert got.shape == (23, 24)
        assert np.abs(got - per).max() <= 1e-12 * np.abs(per).max()
    assert weight_embeddings(params, np.zeros((0, 5))).shape == (0, 24)


def test_slice_agreement():
    emb = np.arange(10, dtype=np.float64)[:, None]
    result = retrieve(np.array([0.0]), emb, query_index=0)
    flags = np.arange(10) < 5  # nearest half flagged
    top, bottom = slice_agreement(result, flags, fraction=0.34)
    assert top == 1.0 and bottom == 0.0


@pytest.mark.parametrize("n_flags", [9, 12])
def test_slice_agreement_needs_one_flag_per_gallery_entry(n_flags):
    emb = np.arange(10, dtype=np.float64)[:, None]
    result = retrieve(np.array([0.0]), emb, query_index=0)
    flags = np.arange(n_flags) < 5
    with pytest.raises(ValueError, match=f"{n_flags} flags, 10 gallery entries"):
        slice_agreement(result, flags)


def test_synthetic_embeddings_cluster_by_offset_sign_feasibility():
    # sanity: identical identity features give identical embeddings
    config = SynthConfig(n_identities=6, samples_per_identity=2, n_classes=20,
                         age_dim=12, id_dim=5, latent_dim=3, offset_max=2.0,
                         feature_noise=0.0, seed=8)
    ds, _ = synth_generate(config)
    dims = Dims(n_classes=20, age_dim=12, id_dim=5, hidden_dim=8)
    params = init_params(dims, 0)
    a = weight_embedding(params, ds.id_feats[0])
    b = weight_embedding(params, ds.id_feats[1])  # same identity, no noise
    assert np.array_equal(a, b)

"""Hostile inputs for both file readers, and the checkpoint byte layout.

The layout tests read checkpoints with ``struct`` and ``np.frombuffer`` in
the block order README.md documents, so they pin the file format
independently of the codec that writes it.
"""

import struct

import numpy as np
import pytest

from persage.data import (
    FormatError,
    SynthConfig,
    read_features,
    synth_generate,
    write_features,
)
from persage.metalearner import Dims
from persage.training import (
    MODEL_KINDS,
    CheckpointError,
    TrainConfig,
    load_model,
    load_params,
    save_model,
    save_params,
    train,
)

DIMS = Dims(n_classes=3, age_dim=3, id_dim=2, hidden_dim=2)
LAYOUTS = [(kind, adapter) for kind in MODEL_KINDS for adapter in (False, True)]


@pytest.fixture(scope="module")
def dataset():
    return synth_generate(SynthConfig(
        n_identities=3, samples_per_identity=2, n_classes=3, age_dim=3,
        id_dim=2, latent_dim=1, offset_max=0.5, rbf_width=1.0, seed=3))[0]


@pytest.fixture(scope="module")
def models(dataset):
    """One trained model per v2 layout, so every block holds live values."""
    return {(kind, adapter): train(dataset, TrainConfig(
        dims=DIMS, epochs=1, batch_size=3, lr=1e-2, seed=0, model_kind=kind,
        use_adapter=adapter)) for kind, adapter in LAYOUTS}


# ----------------------------------------------------------------- fuzzing

def hostile_variants(raw, seed, flips=200):
    """Every truncation of ``raw``, then ``flips`` copies with one byte changed."""
    for cut in range(len(raw)):
        yield raw[:cut]
    rng = np.random.default_rng(seed)
    for _ in range(flips):
        data = bytearray(raw)
        data[rng.integers(len(raw))] ^= int(rng.integers(1, 256))
        yield bytes(data)


def test_readers_raise_only_their_own_errors(tmp_path, dataset, models):
    # a variant may decode (a flipped float can stay finite); anything that
    # does not must fail with the reader's own error and a byte offset
    files = []
    write_features(tmp_path / "features.mafv1", dataset)
    files.append(("features.mafv1", read_features, FormatError))
    save_params(tmp_path / "v1.mapc", models["metaage", True].meta)
    files.append(("v1.mapc", load_params, CheckpointError))
    for kind, adapter in LAYOUTS:
        name = f"{kind}-{int(adapter)}.mapc"
        save_model(tmp_path / name, models[kind, adapter])
        files.append((name, load_model, CheckpointError))
    hostile = tmp_path / "hostile"
    for seed, (name, reader, error) in enumerate(files):
        for data in hostile_variants((tmp_path / name).read_bytes(), seed):
            hostile.write_bytes(data)
            try:
                reader(hostile)
            except error as exc:
                assert "byte offset" in str(exc), f"{name}: {exc!r}"


# ------------------------------------------------------------------ layout

def mlp_blocks(p):
    return [p.hidden.weight, p.hidden.bias, p.bn.gamma, p.bn.beta,
            p.bn.running_mean, p.bn.running_var, p.output.weight, p.output.bias]


# Per kind, as README.md documents it: the kind byte and the block order.
DOCUMENTED = {
    "metaage": (0, lambda m: [m.meta.w_common] + mlp_blocks(m.meta)),
    "global": (1, lambda m: [m.table.weight]),
    "concat": (2, lambda m: mlp_blocks(m.mlp)),
}


def assert_blocks(raw, offset, arrays):
    """raw holds exactly ``arrays`` as little-endian float64 from ``offset`` on."""
    for arr in arrays:
        block = np.frombuffer(raw, dtype="<f8", count=arr.size, offset=offset)
        assert np.array_equal(block, arr.ravel())
        offset += 8 * arr.size
    assert offset == len(raw)


def test_v1_layout_matches_documentation(tmp_path, models):
    params = models["metaage", False].meta
    save_params(tmp_path / "v1.mapc", params)
    raw = (tmp_path / "v1.mapc").read_bytes()
    assert struct.unpack_from("<4sB4I", raw) == (b"MAPC", 1, 3, 3, 2, 2)
    assert_blocks(raw, 21, [params.w_common] + mlp_blocks(params))


@pytest.mark.parametrize("kind, adapter", LAYOUTS)
def test_v2_layout_matches_documentation(tmp_path, models, kind, adapter):
    model = models[kind, adapter]
    save_model(tmp_path / "v2.mapc", model)
    raw = (tmp_path / "v2.mapc").read_bytes()
    code, blocks = DOCUMENTED[kind]
    assert struct.unpack_from("<4sBBB4I", raw) == (b"MAPC", 2, code,
                                                   int(adapter), 3, 3, 2, 2)
    arrays = blocks(model)
    if adapter:
        arrays += [model.adapter.weight, model.adapter.bias]
    assert_blocks(raw, 23, arrays)

"""Command-line contract: artifacts, exit codes, config files, reproducibility."""

import json

import numpy as np
import pytest

import persage.cli
from persage.cli import main
from persage.data import HEADER, read_features
from persage.metrics import retrieve, weight_embedding
from persage.training import load_model

SYNTH = ["synth", "--identities", "12", "--per-identity", "4", "--k", "20",
         "--age-dim", "12", "--id-dim", "6", "--latent-dim", "2",
         "--offset-max", "3", "--seed", "9"]
FAST_TRAIN = ["--epochs", "2", "--batch", "8", "--lr", "3e-3",
              "--hidden", "16", "--seed", "7"]


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run(*SYNTH, "--out", str(data)) == 0
    run_dir = root / "run"
    assert run("train", "--data", str(data / "train.mafv1"), "--out",
               str(run_dir), *FAST_TRAIN) == 0
    return root


def test_synth_writes_expected_artifacts(workspace):
    data = workspace / "data"
    assert (data / "train.mafv1").exists()
    assert (data / "test.mafv1").exists()
    oracle = json.loads((data / "oracle.json").read_text())
    assert set(oracle) >= {"bayes_mae_global", "bayes_mae_personal"}
    assert oracle["bayes_mae_global"] >= oracle["bayes_mae_personal"]
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["n_identities"] == 12
    assert len(manifest["outputs"]) == 4
    train_set = read_features(data / "train.mafv1")
    test_set = read_features(data / "test.mafv1")
    assert len(train_set) + len(test_set) == 48
    # identity-disjoint split
    assert not set(train_set.identity_ids.tolist()) & set(
        test_set.identity_ids.tolist())


def test_synth_is_deterministic(tmp_path):
    for name in ("a", "b"):
        assert run(*SYNTH, "--out", str(tmp_path / name)) == 0
    for fname in ("train.mafv1", "test.mafv1", "oracle.json"):
        assert (tmp_path / "a" / fname).read_bytes() == \
            (tmp_path / "b" / fname).read_bytes()


def test_train_writes_checkpoint_and_history(workspace):
    run_dir = workspace / "run"
    model = load_model(run_dir / "model.mapc")
    assert model.kind == "metaage"
    lines = (run_dir / "history.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,train_mae"
    assert len(lines) == 3
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 2
    assert manifest["config"]["lam"] == 0.2  # default applied when omitted
    assert manifest["config"]["delta"] == 2.0


def test_train_reruns_byte_identical(workspace, tmp_path):
    data = workspace / "data" / "train.mafv1"
    for name in ("r1", "r2"):
        assert run("train", "--data", str(data), "--out",
                   str(tmp_path / name), *FAST_TRAIN) == 0
    assert (tmp_path / "r1" / "model.mapc").read_bytes() == \
        (tmp_path / "r2" / "model.mapc").read_bytes()
    assert (tmp_path / "r1" / "history.csv").read_text() == \
        (tmp_path / "r2" / "history.csv").read_text()
    # manifests agree once timestamps and paths are set aside
    docs = []
    for name in ("r1", "r2"):
        doc = json.loads((tmp_path / name / "manifest.json").read_text())
        doc.pop("started"), doc.pop("finished"), doc.pop("outputs")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_eval_outputs_schema(workspace, tmp_path):
    out = tmp_path / "eval"
    assert run("eval", "--model", str(workspace / "run" / "model.mapc"),
               "--data", str(workspace / "data" / "test.mafv1"),
               "--out", str(out)) == 0
    doc = json.loads((out / "eval.json").read_text())
    assert set(doc) == {"mae", "cs_curve", "eps_error", "n_samples"}
    assert doc["eps_error"] is not None  # synthetic records carry sigmas
    csv = (out / "cs_curve.csv").read_text().strip().splitlines()
    assert csv[0] == "theta,cs"
    assert len(csv) == 12  # theta 0..10


def test_sweep_csv(workspace, tmp_path):
    out = tmp_path / "sweep"
    assert run("sweep", "--data", str(workspace / "data" / "train.mafv1"),
               "--test", str(workspace / "data" / "test.mafv1"),
               "--lambdas", "0,0.2", "--deltas", "2",
               "--out", str(out), *FAST_TRAIN) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,delta,mae"
    assert len(lines) == 3
    assert lines[1].startswith("0.0,2.0,")
    assert lines[2].startswith("0.2,2.0,")


def test_retrieve_report(workspace, tmp_path):
    out = tmp_path / "ret"
    assert run("retrieve", "--model", str(workspace / "run" / "model.mapc"),
               "--data", str(workspace / "data" / "test.mafv1"),
               "--out", str(out)) == 0
    doc = json.loads((out / "retrieval.json").read_text())
    assert doc["n"] == len(doc["queries"])
    assert doc["degenerate"] is False
    for entry in doc["queries"]:
        # the query stays in the gallery and ranks first at distance zero;
        # only the agreement rates leave it out
        assert entry["ranked_indices"][0] == entry["query_index"]
        assert entry["distances"][0] == 0.0
        assert len(entry["ranked_indices"]) == doc["n"]
        assert "top_same_identity_rate" in entry


def test_retrieve_gallery_embeddings_match_per_sample(workspace, tmp_path,
                                                      monkeypatch):
    galleries = []

    def recording(query, gallery, query_index=None):
        galleries.append(gallery)
        return retrieve(query, gallery, query_index=query_index)

    monkeypatch.setattr(persage.cli, "retrieve", recording)
    out = tmp_path / "ret"
    data = workspace / "data" / "train.mafv1"
    assert run("retrieve", "--model", str(workspace / "run" / "model.mapc"),
               "--data", str(data), "--out", str(out)) == 0
    model = load_model(workspace / "run" / "model.mapc")
    per = np.stack([weight_embedding(model.meta, h)
                    for h in read_features(data).id_feats])
    assert len(galleries) == per.shape[0]
    gallery = galleries[0]
    assert all(g is gallery for g in galleries)
    assert np.abs(gallery - per).max() <= 1e-12 * np.abs(per).max()
    doc = json.loads((out / "retrieval.json").read_text())
    for entry in doc["queries"]:
        assert entry["ranked_indices"][0] == entry["query_index"]
        assert entry["distances"][0] == 0.0


def test_retrieve_self_rank_with_fresh_checkpoint(workspace, tmp_path):
    # a gallery item used as query: distances include an exact zero for the
    # twin embedding only when the query row itself stays in the gallery;
    # the CLI excludes self, so the nearest item is a same-identity one
    out = tmp_path / "ret2"
    assert run("retrieve", "--model", str(workspace / "run" / "model.mapc"),
               "--data", str(workspace / "data" / "train.mafv1"),
               "--out", str(out), "--fraction", "0.1") == 0
    doc = json.loads((out / "retrieval.json").read_text())
    assert doc["mean_top_same_identity_rate"] > doc["mean_bottom_same_identity_rate"]


def test_retrieve_rejects_global_checkpoint(workspace, tmp_path):
    out = tmp_path / "g"
    assert run("train", "--data", str(workspace / "data" / "train.mafv1"),
               "--model", "global", "--out", str(out), *FAST_TRAIN) == 0
    code = run("retrieve", "--model", str(out / "model.mapc"),
               "--data", str(workspace / "data" / "test.mafv1"),
               "--out", str(tmp_path / "r"))
    assert code == 1


def test_retrieve_flags_degenerate_zero_residual(workspace, tmp_path):
    from persage.training import save_model
    model = load_model(workspace / "run" / "model.mapc")
    model.meta.output.weight[:] = 0.0
    path = tmp_path / "degenerate.mapc"
    save_model(path, model)
    out = tmp_path / "ret"
    assert run("retrieve", "--model", str(path),
               "--data", str(workspace / "data" / "test.mafv1"),
               "--out", str(out)) == 0
    doc = json.loads((out / "retrieval.json").read_text())
    assert doc["degenerate"] is True
    assert all(d == 0.0 for d in doc["queries"][0]["distances"])


def test_config_file_and_flag_override(workspace, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=2\nlr=0.003\nbatch=8\nhidden=16\nseed=7\n# note\n")
    data = str(workspace / "data" / "train.mafv1")
    assert run("train", "--data", data, "--config", str(cfg),
               "--out", str(tmp_path / "c1")) == 0
    doc = json.loads((tmp_path / "c1" / "manifest.json").read_text())
    assert doc["config"]["epochs"] == 2 and doc["config"]["lr"] == 0.003
    assert run("train", "--data", data, "--config", str(cfg), "--epochs", "1",
               "--out", str(tmp_path / "c2")) == 0
    doc = json.loads((tmp_path / "c2" / "manifest.json").read_text())
    assert doc["config"]["epochs"] == 1  # explicit flag wins


def test_exit_codes(workspace, tmp_path, capsys):
    assert run("synth", "--offset-max", "-1", "--out", str(tmp_path / "x")) == 2
    assert run("train", "--data", "missing.mafv1", "--out", str(tmp_path / "x")) == 1
    assert run("train", "--data", str(workspace / "data" / "train.mafv1"),
               "--batch", "1", "--out", str(tmp_path / "x")) == 2
    assert run("sweep", "--data", str(workspace / "data" / "train.mafv1"),
               "--lambdas", "", "--deltas", "2", "--out", str(tmp_path / "x"),
               *FAST_TRAIN) == 2
    assert run("nonsense") == 2
    assert run("eval", "--model", str(workspace / "data" / "train.mafv1"),
               "--data", str(workspace / "data" / "test.mafv1"),
               "--out", str(tmp_path / "x")) == 1  # data file is not a checkpoint
    forged = tmp_path / "forged.mafv1"
    forged.write_bytes(HEADER.pack(b"MAFV", 1, 1, 2**31, 6, 20))
    capsys.readouterr()
    assert run("eval", "--model", str(workspace / "run" / "model.mapc"),
               "--data", str(forged), "--out", str(tmp_path / "x")) == 1
    assert "byte offset" in capsys.readouterr().err
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("this is not key value\n")
    assert run("train", "--data", str(workspace / "data" / "train.mafv1"),
               "--config", str(cfg), "--out", str(tmp_path / "x")) == 2

"""Run directories written in the retired npz layout keep working.

``data/legacy_npz_run`` was written before the ``.npy`` store became the
only artifact layout: its checkpoint is one ``weights.npz``, its IVF+PQ
index one ``arrays.npz``, and its ``config.json`` still carries the
retired ``storage.memmap: false`` switch.  ``expected_topk.json`` pins
the ids and scores of eight index-backed queries answered when the run
was written.  Loading, re-evaluating and serving it must reproduce them
bit for bit, damage must still raise typed errors, and ``repro ingest``
converts it to the store layout.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.errors import CorruptArtifactError

pytestmark = pytest.mark.reliability

FIXTURE = Path(__file__).parent / "data" / "legacy_npz_run"


@pytest.fixture()
def legacy_copy(tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(FIXTURE, copy)
    return copy


def test_fixture_is_in_the_legacy_layout():
    assert (FIXTURE / "checkpoint" / "weights.npz").exists()
    assert (FIXTURE / "index" / "arrays.npz").exists()
    assert not (FIXTURE / "checkpoint" / "store").exists()
    config = json.loads((FIXTURE / "config.json").read_text(encoding="utf-8"))
    assert config["storage"]["memmap"] is False


def test_load_run_and_manifest_verify():
    from repro.pipeline.runner import load_run
    from repro.reliability.manifest import read_manifest, verify_manifest

    loaded = load_run(FIXTURE)
    assert "checkpoint/weights.npz" in read_manifest(FIXTURE)
    assert verify_manifest(FIXTURE) == sorted(read_manifest(FIXTURE))
    assert loaded.model.num_entities == loaded.build_dataset().num_entities


def test_evaluate_run_matches_recorded_metrics():
    from repro.pipeline.runner import evaluate_run, load_run

    recorded = load_run(FIXTURE).metrics
    recomputed = evaluate_run(FIXTURE)
    assert set(recomputed) == set(recorded)
    for split, metrics in recorded.items():
        assert recomputed[split].mrr == metrics.mrr
        assert recomputed[split].mr == metrics.mr
        assert recomputed[split].hits == metrics.hits
        assert recomputed[split].num_ranks == metrics.num_ranks


def test_index_backed_serving_reproduces_expected_topk():
    from repro.pipeline.runner import serve_run

    predictor = serve_run(FIXTURE, index="auto")
    assert predictor.index is not None
    expected = json.loads((FIXTURE / "expected_topk.json").read_text(encoding="utf-8"))
    for query in expected["queries"]:
        result = predictor.top_k(
            [query["anchor"]],
            [query["relation"]],
            side=query["side"],
            k=query["k"],
            filtered=query["filtered"],
        )
        assert [int(i) for i in np.asarray(result.ids)[0]] == query["ids"]
        assert [float(s) for s in np.asarray(result.scores)[0]] == query["scores"]


def test_ingest_converts_to_the_store_layout(legacy_copy, tmp_path, capsys):
    from repro.cli import main
    from repro.ingest import GraphDelta
    from repro.pipeline.runner import load_run
    from repro.reliability.manifest import verify_manifest

    dataset = load_run(legacy_copy).build_dataset()
    names = dataset.entities.to_list()
    delta = GraphDelta(
        add_triples=(("legacy_entity", names[0], dataset.relations.name(0)),)
    )
    delta_path = delta.save(tmp_path / "delta.json")
    assert main(["ingest", str(legacy_copy), str(delta_path), "--epochs", "1"]) == 0
    assert '"applied": true' in capsys.readouterr().out

    assert not (legacy_copy / "checkpoint" / "weights.npz").exists()
    assert (legacy_copy / "checkpoint" / "store" / "store.json").exists()
    assert not (legacy_copy / "index" / "arrays.npz").exists()
    assert (legacy_copy / "index" / "store" / "store.json").exists()
    reloaded = load_run(legacy_copy)
    assert verify_manifest(legacy_copy)
    assert reloaded.model.num_entities == dataset.num_entities + 1


def _flip(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


def test_flipped_weights_npz_is_typed(legacy_copy):
    from repro.core.serialization import load_model

    _flip(legacy_copy / "checkpoint" / "weights.npz")
    with pytest.raises(CorruptArtifactError) as caught:
        load_model(legacy_copy / "checkpoint")
    assert caught.value.path.endswith("weights.npz")


def test_flipped_arrays_npz_is_typed(legacy_copy):
    from repro.index import load_index
    from repro.pipeline.runner import load_run

    model = load_run(legacy_copy).model
    _flip(legacy_copy / "index" / "arrays.npz")
    with pytest.raises(CorruptArtifactError) as caught:
        load_index(legacy_copy / "index", model, on_stale="error")
    assert caught.value.path.endswith("arrays.npz")

"""Embedding-table growth against memmap checkpoints (MemStore).

Satellite contract: growing an entity table must re-save crash-safely,
keep per-array sha256 integrity, and leave all pre-growth rows
bit-identical after a reload — including when the grown model itself
started life as a read-only memmapped checkpoint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.memstore import MemStore, is_mapped
from repro.core.models import make_complex
from repro.core.serialization import CHECKPOINT_STORE_DIR, load_model, save_model
from repro.errors import CorruptArtifactError
from repro.ingest import GraphDelta, ingest_delta

pytestmark = pytest.mark.ingest

BUDGET = 8


@pytest.fixture()
def model(toy_dataset):
    return make_complex(
        toy_dataset.num_entities,
        toy_dataset.num_relations,
        BUDGET,
        np.random.default_rng(11),
    )


def test_grown_memmap_checkpoint_round_trips(model, tmp_path):
    first = tmp_path / "ckpt"
    save_model(model, first)
    loaded = load_model(first)  # read-only memmapped tables
    assert is_mapped(loaded.entity_embeddings)
    assert not loaded.entity_embeddings.flags.writeable

    old_ne = loaded.num_entities
    before = np.array(loaded.entity_embeddings)
    added = loaded.grow(old_ne + 4, rng=np.random.default_rng(0))
    assert added == (4, 0)

    hashes = save_model(loaded, first)  # re-save in place
    assert f"{CHECKPOINT_STORE_DIR}/entity_embeddings.npy" in hashes

    reloaded = load_model(first)
    assert reloaded.num_entities == old_ne + 4
    np.testing.assert_array_equal(reloaded.entity_embeddings[:old_ne], before)
    np.testing.assert_array_equal(
        reloaded.entity_embeddings, loaded.entity_embeddings
    )


def test_resave_keeps_per_array_integrity_hashes(model, tmp_path):
    directory = tmp_path / "ckpt"
    save_model(model, directory)
    loaded = load_model(directory)
    loaded.grow(loaded.num_entities + 2, rng=np.random.default_rng(1))
    save_model(loaded, directory)

    store = MemStore.open(directory / CHECKPOINT_STORE_DIR)
    store.verify_all()  # every payload matches its recorded sha256
    assert set(store.names()) >= {"entity_embeddings", "relation_embeddings", "omega"}


def test_corrupted_grown_table_detected_at_load(model, tmp_path):
    directory = tmp_path / "ckpt"
    save_model(model, directory)
    loaded = load_model(directory)
    loaded.grow(loaded.num_entities + 2, rng=np.random.default_rng(1))
    save_model(loaded, directory)

    payload_path = directory / CHECKPOINT_STORE_DIR / "entity_embeddings.npy"
    raw = bytearray(payload_path.read_bytes())
    raw[-1] ^= 0xFF  # flip one payload bit
    payload_path.write_bytes(bytes(raw))
    with pytest.raises(CorruptArtifactError):
        load_model(directory)


def test_ingest_on_memmapped_checkpoint_preserves_unreached_rows(
    toy_dataset, model, tmp_path
):
    """The full loop: memmap checkpoint -> mapped load -> ingest_delta
    (growth + fine-tune on private copies) -> re-save -> reload.  Rows
    the delta never touched must survive the whole trip bit-identically."""
    directory = tmp_path / "ckpt"
    save_model(model, directory)
    serving = load_model(directory)  # read-only mapped tables

    delta = GraphDelta(add_triples=(("grace", "alice", "likes"),))
    outcome = ingest_delta(serving, toy_dataset, delta, epochs=2, seed=3)
    assert outcome.applied

    save_model(serving, directory)
    reloaded = load_model(directory)
    original = np.array(model.entity_embeddings)
    touched = set(outcome.stats.touched_entities.tolist())
    untouched = [
        i for i in range(toy_dataset.num_entities) if i not in touched
    ]
    np.testing.assert_array_equal(
        reloaded.entity_embeddings[untouched], original[untouched]
    )
    assert reloaded.num_entities == toy_dataset.num_entities + 1


def test_interrupted_resave_is_detected_and_healed_by_rerun(
    model, tmp_path, monkeypatch
):
    """Crash-safety: a rewrite that dies before MemStore.flush commits
    ``store.json`` must never load silently wrong data.  The grown
    entity payload landed but the meta still records the pre-growth
    sha256 — the mismatch is *detected* at load, and re-running the
    save heals the checkpoint."""
    directory = tmp_path / "ckpt"
    save_model(model, directory)

    grown = load_model(directory)
    grown_ne = grown.num_entities + 3
    grown.grow(grown_ne, rng=np.random.default_rng(2))
    expected = grown.entity_embeddings.copy()

    boom = RuntimeError("simulated crash before store.json commit")
    monkeypatch.setattr(MemStore, "flush", lambda self: (_ for _ in ()).throw(boom))
    with pytest.raises(RuntimeError, match="simulated crash"):
        save_model(grown, directory)
    monkeypatch.undo()

    with pytest.raises(CorruptArtifactError):
        load_model(directory)

    save_model(grown, directory)  # heal by re-run
    healed = load_model(directory)
    assert healed.num_entities == grown_ne
    np.testing.assert_array_equal(healed.entity_embeddings, expected)

"""Memory-mapped artifacts under fault: typed errors, manifests, recovery.

The checkpoint store (``checkpoint/store/*.npy``) must be crash-safe:
injected write corruption or direct file surgery surfaces as a typed
:class:`~repro.errors.ArtifactError` naming the damaged file — never a
raw numpy traceback — the run manifest's sha256 chain covers every
mapped file, and a torn write recovers bit-identically on retry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.core.serialization import CHECKPOINT_STORE_DIR, load_model, save_model
from repro.errors import (
    ArtifactError,
    CorruptArtifactError,
    InjectedFault,
    MissingArtifactError,
)
from repro.reliability.faults import FaultInjector, FaultPlan, FaultSpec, fault_scope
from repro.reliability.manifest import read_manifest, verify_manifest, write_manifest

pytestmark = pytest.mark.reliability


@pytest.fixture
def model():
    return make_complex(80, 4, 16, np.random.default_rng(13))


def _assert_scores_equal(a, b):
    rng = np.random.default_rng(0)
    heads = rng.integers(0, a.num_entities, 20)
    tails = rng.integers(0, a.num_entities, 20)
    rels = rng.integers(0, a.num_relations, 20)
    np.testing.assert_array_equal(
        np.asarray(a.score_triples(heads, tails, rels)),
        np.asarray(b.score_triples(heads, tails, rels)),
    )


class TestInjectedCorruption:
    """Write faults on ``.npy`` payloads must raise typed errors."""

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(site="io.write", kind="truncate", drop_bytes=64, match=".npy"),
            FaultSpec(site="io.write", kind="byteflip", seed=5, match=".npy"),
        ],
        ids=["truncate", "byteflip"],
    )
    def test_save_detects_damage_as_typed_error(self, tmp_path, model, spec):
        with fault_scope(FaultInjector(FaultPlan.of(spec))):
            with pytest.raises(ArtifactError):
                save_model(model, tmp_path / "ckpt")

    @pytest.mark.parametrize("surgery", ["truncate", "byteflip"])
    def test_load_detects_on_disk_damage(self, tmp_path, model, surgery):
        save_model(model, tmp_path / "ckpt")
        path = tmp_path / "ckpt" / CHECKPOINT_STORE_DIR / "entity_embeddings.npy"
        raw = bytearray(path.read_bytes())
        if surgery == "truncate":
            raw = raw[: len(raw) // 2]
        else:
            raw[-3] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptArtifactError) as caught:
            load_model(tmp_path / "ckpt")
        assert "entity_embeddings.npy" in str(caught.value)

    def test_missing_mapped_file_is_typed(self, tmp_path, model):
        save_model(model, tmp_path / "ckpt")
        (tmp_path / "ckpt" / CHECKPOINT_STORE_DIR / "relation_embeddings.npy").unlink()
        with pytest.raises(MissingArtifactError):
            load_model(tmp_path / "ckpt")


class TestManifestCoversMappedFiles:
    def test_save_hashes_enumerate_every_store_file(self, tmp_path, model):
        hashes = save_model(model, tmp_path / "ckpt")
        assert f"{CHECKPOINT_STORE_DIR}/entity_embeddings.npy" in hashes
        assert f"{CHECKPOINT_STORE_DIR}/store.json" in hashes
        assert "meta.json" in hashes
        write_manifest(tmp_path / "ckpt", hashes)
        assert set(verify_manifest(tmp_path / "ckpt")) == set(hashes)

    def test_manifest_catches_mapped_file_corruption(self, tmp_path, model):
        hashes = save_model(model, tmp_path / "ckpt")
        write_manifest(tmp_path / "ckpt", hashes)
        path = tmp_path / "ckpt" / CHECKPOINT_STORE_DIR / "entity_embeddings.npy"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptArtifactError) as caught:
            verify_manifest(tmp_path / "ckpt")
        assert caught.value.path.endswith("entity_embeddings.npy")


class TestTornWriteRecovery:
    def test_aborted_save_retries_bit_identical(self, tmp_path, model):
        """An injected abort mid-save must leave a retry fully clean."""
        plan = FaultPlan.of(
            FaultSpec(site="io.write", kind="exception", match=".npy", max_hits=1)
        )
        with fault_scope(FaultInjector(plan)):
            with pytest.raises(InjectedFault):
                save_model(model, tmp_path / "ckpt")
            save_model(model, tmp_path / "ckpt")  # retry, fault spent
        restored = load_model(tmp_path / "ckpt")
        _assert_scores_equal(model, restored)

    def test_aborted_rewrite_preserves_previous_checkpoint(self, tmp_path, model):
        save_model(model, tmp_path / "ckpt")
        trained = make_complex(80, 4, 16, np.random.default_rng(99))
        plan = FaultPlan.of(FaultSpec(site="io.write", kind="exception", match=".npy"))
        with fault_scope(FaultInjector(plan)):
            with pytest.raises(InjectedFault):
                save_model(trained, tmp_path / "ckpt")
        # Atomic replacement: the old complete artifact is still served.
        _assert_scores_equal(model, load_model(tmp_path / "ckpt"))


class TestRunDirIntegration:
    @pytest.fixture(scope="class")
    def memmap_run(self, tmp_path_factory):
        from repro.pipeline.config import (
            DatasetSection,
            IndexSection,
            ModelSection,
            RunConfig,
            TrainingSection,
        )
        from repro.pipeline.runner import run_pipeline

        config = RunConfig(
            dataset=DatasetSection(
                generator="synthetic_wn18",
                params={"num_entities": 100, "num_clusters": 5, "seed": 4},
            ),
            model=ModelSection(name="complex", total_dim=8),
            training=TrainingSection(epochs=1, batch_size=256),
            index=IndexSection(kind="ivf", nlist=6, nprobe=2),
        )
        path = tmp_path_factory.mktemp("memmap_run") / "run"
        run_pipeline(config, run_dir=path)
        return path

    def test_manifest_lists_store_files(self, memmap_run):
        manifest = read_manifest(memmap_run)
        assert manifest is not None
        assert "checkpoint/store/entity_embeddings.npy" in manifest
        assert "checkpoint/store/store.json" in manifest

    def test_load_run_maps_tables_and_verifies(self, memmap_run):
        from repro.core.memstore import is_mapped
        from repro.pipeline.runner import load_run

        loaded = load_run(memmap_run)
        assert is_mapped(loaded.model.entity_embeddings)

    def test_load_run_rejects_corrupt_store_file(self, memmap_run, tmp_path):
        import shutil

        from repro.pipeline.runner import load_run

        copy = tmp_path / "run"
        shutil.copytree(memmap_run, copy)
        path = copy / "checkpoint" / "store" / "entity_embeddings.npy"
        raw = bytearray(path.read_bytes())
        raw[-2] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptArtifactError):
            load_run(copy)

    def test_loaded_run_can_be_trained(self, memmap_run):
        """Regression: a loaded run's tables are read-only mappings, and
        the first ``Trainer`` epoch failed with ``ValueError: assignment
        destination is read-only``.  Training and a delta fine-tune now
        work on private copies and never write through the mapping."""
        from repro.ingest import GraphDelta, ingest_delta
        from repro.pipeline.runner import load_run
        from repro.reliability.manifest import sha256_file
        from repro.training.trainer import Trainer, TrainingConfig

        store_files = sorted((memmap_run / "checkpoint" / "store").glob("*.npy"))
        before = {path.name: sha256_file(path) for path in store_files}

        loaded = load_run(memmap_run)
        dataset = loaded.build_dataset()
        Trainer(
            dataset, TrainingConfig(epochs=1, batch_size=256, seed=0, verbose=False)
        ).train(loaded.model)

        loaded = load_run(memmap_run)
        known = dataset.train.as_set() | dataset.valid.as_set() | dataset.test.as_set()
        head, tail = next(
            (h, t) for h in range(10) for t in range(10, 40) if (h, t, 0) not in known
        )
        names = dataset.entities.to_list()
        delta = GraphDelta(
            add_triples=((names[head], names[tail], dataset.relations.name(0)),)
        )
        outcome = ingest_delta(loaded.model, dataset, delta, epochs=1, seed=0)
        assert outcome.applied and outcome.warm.steps > 0

        assert {path.name: sha256_file(path) for path in store_files} == before

"""Crash-safe artifact IO: atomic writes, manifests, typed load errors.

The contract under test: a crash (or injected fault) at any point in a
write leaves either the old complete artifact or the new complete one;
any damage that *does* land on disk (simulated via data faults or
direct file surgery) surfaces at load time as a typed
:class:`~repro.errors.ArtifactError` naming the offending path — never
a raw ``JSONDecodeError``/``FileNotFoundError``/zipfile traceback.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import (
    ArtifactError,
    CorruptArtifactError,
    InjectedFault,
    MissingArtifactError,
)
from repro.reliability.atomic import atomic_write_bytes, atomic_write_json
from repro.reliability.faults import FaultInjector, FaultPlan, FaultSpec, fault_scope
from repro.reliability.manifest import (
    read_manifest,
    sha256_bytes,
    verify_artifact,
    verify_manifest,
    write_manifest,
)

pytestmark = pytest.mark.reliability


def _injector(*specs):
    return FaultInjector(FaultPlan.of(*specs))


class TestAtomicWrite:
    def test_writes_and_returns_path(self, tmp_path):
        path = atomic_write_bytes(tmp_path / "a" / "b.bin", b"payload")
        assert path.read_bytes() == b"payload"

    def test_no_temp_litter_after_success(self, tmp_path):
        atomic_write_bytes(tmp_path / "x.bin", b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]

    def test_injected_abort_preserves_previous_content(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write_json(target, {"epoch": 1})
        before = target.read_bytes()
        with fault_scope(_injector(FaultSpec(site="io.write", kind="exception"))):
            with pytest.raises(InjectedFault):
                atomic_write_json(target, {"epoch": 2})
        # The old artifact survives intact and no temp file leaks.
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_truncate_fault_corrupts_payload_on_disk(self, tmp_path):
        target = tmp_path / "data.bin"
        with fault_scope(
            _injector(FaultSpec(site="io.write", kind="truncate", drop_bytes=4))
        ):
            atomic_write_bytes(target, b"0123456789")
        assert target.read_bytes() == b"012345"


class TestManifest:
    def test_round_trip_and_verify(self, tmp_path):
        payload = b"artifact-bytes"
        atomic_write_bytes(tmp_path / "weights.npz", payload)
        write_manifest(tmp_path, {"weights.npz": sha256_bytes(payload)})
        assert verify_manifest(tmp_path) == ["weights.npz"]

    def test_no_manifest_means_nothing_to_check(self, tmp_path):
        assert read_manifest(tmp_path) is None
        assert verify_manifest(tmp_path) == []
        verify_artifact(tmp_path, "anything.json", None)  # no-op

    def test_hashes_intended_bytes_so_injected_corruption_is_caught(self, tmp_path):
        """Manifests must hash what the writer *meant* to persist;
        hashing the (corrupted) file after the fact would self-certify
        the damage."""
        payload = b"the intended artifact payload"
        with fault_scope(
            _injector(FaultSpec(site="io.write", kind="byteflip", seed=3))
        ):
            atomic_write_bytes(tmp_path / "arrays.npz", payload)
        write_manifest(tmp_path, {"arrays.npz": sha256_bytes(payload)})
        with pytest.raises(CorruptArtifactError) as caught:
            verify_manifest(tmp_path)
        assert "arrays.npz" in str(caught.value)
        assert caught.value.path.endswith("arrays.npz")

    def test_promised_but_missing_artifact(self, tmp_path):
        write_manifest(tmp_path, {"gone.json": sha256_bytes(b"x")})
        with pytest.raises(MissingArtifactError):
            verify_manifest(tmp_path)

    def test_unparseable_manifest_is_corrupt(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(CorruptArtifactError):
            read_manifest(tmp_path)


class TestCheckpointIntegrity:
    def test_save_load_round_trip_with_hashes(self, tmp_path, tiny_dataset):
        from repro.core.models import make_complex
        from repro.core.serialization import load_model, save_model

        model = make_complex(
            tiny_dataset.num_entities,
            tiny_dataset.num_relations,
            8,
            np.random.default_rng(0),
        )
        hashes = save_model(model, tmp_path / "ckpt")
        assert set(hashes) == {
            "store/entity_embeddings.npy",
            "store/relation_embeddings.npy",
            "store/omega.npy",
            "store/store.json",
            "meta.json",
        }
        restored = load_model(tmp_path / "ckpt")
        np.testing.assert_array_equal(
            restored.entity_embeddings, model.entity_embeddings
        )

    def test_flipped_weights_detected(self, tmp_path, tiny_dataset):
        from repro.core.models import make_complex
        from repro.core.serialization import load_model, save_model

        model = make_complex(
            tiny_dataset.num_entities,
            tiny_dataset.num_relations,
            8,
            np.random.default_rng(0),
        )
        save_model(model, tmp_path / "ckpt")
        table = tmp_path / "ckpt" / "store" / "entity_embeddings.npy"
        raw = bytearray(table.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        table.write_bytes(bytes(raw))
        with pytest.raises(CorruptArtifactError) as caught:
            load_model(tmp_path / "ckpt")
        assert caught.value.path.endswith("entity_embeddings.npy")

    def test_torn_meta_detected(self, tmp_path, tiny_dataset):
        from repro.core.models import make_complex
        from repro.core.serialization import load_model, save_model

        model = make_complex(
            tiny_dataset.num_entities,
            tiny_dataset.num_relations,
            8,
            np.random.default_rng(0),
        )
        save_model(model, tmp_path / "ckpt")
        meta = tmp_path / "ckpt" / "meta.json"
        meta.write_text(meta.read_text()[: len(meta.read_text()) // 2])
        with pytest.raises(CorruptArtifactError):
            load_model(tmp_path / "ckpt")


class TestLoadRunTypedErrors:
    """Satellite: ``load_run`` on damaged run dirs raises typed errors."""

    def test_run_dir_writes_a_manifest_that_verifies(self, run_dir):
        manifest = read_manifest(run_dir)
        assert manifest is not None
        assert "config.json" in manifest
        assert "checkpoint/store/entity_embeddings.npy" in manifest
        assert "metrics.json" in manifest and "history.json" in manifest
        assert verify_manifest(run_dir) == sorted(manifest)

    def test_partial_metrics_json_is_typed(self, run_copy):
        from repro.pipeline.runner import load_run

        metrics = run_copy / "metrics.json"
        metrics.write_text(metrics.read_text()[:25])  # torn legacy write
        with pytest.raises(CorruptArtifactError) as caught:
            load_run(run_copy)
        assert caught.value.path.endswith("metrics.json")
        assert not isinstance(caught.value, json.JSONDecodeError)

    def test_missing_promised_metrics_is_typed(self, run_copy):
        from repro.pipeline.runner import load_run

        (run_copy / "metrics.json").unlink()
        with pytest.raises(MissingArtifactError) as caught:
            load_run(run_copy)
        assert caught.value.path.endswith("metrics.json")
        assert not isinstance(caught.value, FileNotFoundError)

    def test_partial_history_json_is_typed(self, run_copy):
        from repro.pipeline.runner import load_run

        history = run_copy / "history.json"
        history.write_text("{\"epochs\": [1,")
        with pytest.raises(ArtifactError):
            load_run(run_copy)

    def test_pre_manifest_run_dir_still_loads(self, run_copy):
        """Manifests are advisory: run dirs from before the integrity
        layer (no manifest.json, optional artifacts absent) keep
        loading, bit-identically."""
        from repro.pipeline.runner import load_run

        (run_copy / "manifest.json").unlink()
        (run_copy / "metrics.json").unlink()
        (run_copy / "history.json").unlink()
        loaded = load_run(run_copy)
        assert loaded.metrics == {}
        assert loaded.history == {}

    def test_corrupt_config_is_typed(self, run_copy):
        from repro.pipeline.runner import load_run

        config = run_copy / "config.json"
        config.write_text(config.read_text() + "garbage")
        with pytest.raises(CorruptArtifactError) as caught:
            load_run(run_copy)
        assert caught.value.path.endswith("config.json")


class TestIndexIntegrity:
    def test_flipped_index_arrays_detected(self, run_copy):
        from repro.index import load_index
        from repro.pipeline.runner import load_run

        # Bypass the run manifest: the index store has its own hashes.
        loaded = load_run(run_copy)
        victim = run_copy / "index" / "store" / "tail_0_centroids.npy"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 3] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(CorruptArtifactError) as caught:
            load_index(run_copy / "index", loaded.model, on_stale="error")
        assert caught.value.path.endswith("tail_0_centroids.npy")

    def test_missing_promised_index_arrays_detected(self, run_copy):
        from repro.index import load_index
        from repro.pipeline.runner import load_run

        loaded = load_run(run_copy)
        (run_copy / "index" / "store" / "head_0_members.npy").unlink()
        with pytest.raises(MissingArtifactError) as caught:
            load_index(run_copy / "index", loaded.model, on_stale="error")
        assert caught.value.path.endswith("head_0_members.npy")

    def test_torn_index_meta_detected(self, run_copy):
        from repro.index import load_index
        from repro.pipeline.runner import load_run

        loaded = load_run(run_copy)
        meta = run_copy / "index" / "meta.json"
        meta.write_text(meta.read_text()[:30])
        with pytest.raises(CorruptArtifactError):
            load_index(run_copy / "index", loaded.model, on_stale="error")

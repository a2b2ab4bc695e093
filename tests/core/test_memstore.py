"""MemStore: the memory-mapped array store behind the scale path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.memstore import (
    STORE_META_FILE,
    MemStore,
    array_memory,
    is_mapped,
    mappable_source,
    npy_bytes,
    open_mapped,
)
from repro.errors import CorruptArtifactError, MissingArtifactError, ServingError
from repro.reliability.faults import FaultInjector, FaultPlan, FaultSpec, fault_scope


def _store(tmp_path, **extra):
    return MemStore.create(tmp_path / "store", extra=extra or None)


class TestRoundTrip:
    def test_put_get_returns_readonly_mapping(self, tmp_path, rng):
        store = _store(tmp_path)
        table = rng.normal(size=(20, 8))
        mapped = store.put("weights", table)
        assert is_mapped(mapped)
        assert not mapped.flags.writeable
        np.testing.assert_array_equal(np.asarray(mapped), table)

    def test_reopen_sees_same_entries(self, tmp_path, rng):
        store = _store(tmp_path)
        store.put("a", rng.normal(size=(4, 4)))
        store.put("b", np.arange(6, dtype=np.int32))
        reopened = MemStore.open(store.directory)
        assert reopened.names() == ("a", "b")
        np.testing.assert_array_equal(
            np.asarray(reopened.get("a")), np.asarray(store.get("a"))
        )
        assert reopened.nbytes() == store.nbytes()

    def test_replace_entry_atomically(self, tmp_path, rng):
        store = _store(tmp_path)
        store.put("x", np.zeros((3, 3)))
        store.put("x", np.ones((2, 2)))
        fresh = MemStore.open(store.directory)
        assert tuple(fresh.entry("x")["shape"]) == (2, 2)
        np.testing.assert_array_equal(np.asarray(fresh.get("x")), np.ones((2, 2)))

    def test_get_all_is_sorted(self, tmp_path, rng):
        store = _store(tmp_path)
        for name in ("zeta", "alpha", "mid"):
            store.put(name, rng.normal(size=(2,)))
        assert list(store.get_all()) == ["alpha", "mid", "zeta"]

    def test_extra_persists(self, tmp_path):
        store = _store(tmp_path, kind="ivf")
        reopened = MemStore.open(store.directory)
        assert reopened.extra == {"kind": "ivf"}

    def test_hashes_cover_payloads_and_meta(self, tmp_path, rng):
        store = _store(tmp_path)
        store.put("emb", rng.normal(size=(3, 3)))
        hashes = store.hashes(prefix="ckpt/store/")
        assert set(hashes) == {"ckpt/store/emb.npy", f"ckpt/store/{STORE_META_FILE}"}


class TestTypedErrors:
    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            MemStore.open(tmp_path / "nowhere")

    def test_open_torn_meta(self, tmp_path):
        directory = tmp_path / "s"
        directory.mkdir()
        (directory / STORE_META_FILE).write_text("{not json")
        with pytest.raises(CorruptArtifactError):
            MemStore.open(directory)

    def test_get_unknown_name(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            _store(tmp_path).get("ghost")

    def test_unsafe_name_rejected(self, tmp_path):
        with pytest.raises(ServingError):
            _store(tmp_path).put("../escape", np.zeros(2))

    def test_deleted_payload_file(self, tmp_path, rng):
        store = _store(tmp_path)
        store.put("gone", rng.normal(size=(2, 2)))
        (store.directory / "gone.npy").unlink()
        with pytest.raises(MissingArtifactError):
            MemStore.open(store.directory).get("gone")

    def test_direct_file_surgery_is_caught(self, tmp_path, rng):
        store = _store(tmp_path)
        store.put("w", rng.normal(size=(8, 8)))
        path = store.directory / "w.npy"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a byte deep in the data region
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptArtifactError, match="integrity"):
            MemStore.open(store.directory).get("w")

    def test_verify_all_ignores_the_per_instance_cache(self, tmp_path, rng):
        store = _store(tmp_path)
        store.put("w", rng.normal(size=(8, 8)))
        store.get("w")  # populates the verified-once cache
        path = store.directory / "w.npy"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        store.get("w")  # cached: no re-hash
        with pytest.raises(CorruptArtifactError):
            store.verify_all()


class TestFaultInjection:
    """Injected write corruption must surface as typed artifact errors."""

    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec(site="io.write", kind="truncate", drop_bytes=16, match=".npy"),
            FaultSpec(site="io.write", kind="byteflip", seed=7, match=".npy"),
        ],
        ids=["truncate", "byteflip"],
    )
    def test_corrupting_fault_raises_typed_error(self, tmp_path, rng, spec):
        store = _store(tmp_path)
        with fault_scope(FaultInjector(FaultPlan.of(spec))):
            with pytest.raises(CorruptArtifactError):
                store.put("emb", rng.normal(size=(16, 16)))


class TestStandaloneHelpers:
    def test_open_mapped_round_trip(self, tmp_path, rng):
        table = rng.normal(size=(6, 2))
        path = tmp_path / "t.npy"
        path.write_bytes(npy_bytes(table))
        mapped = open_mapped(path, dtype="float64", shape=(6, 2))
        np.testing.assert_array_equal(np.asarray(mapped), table)

    def test_open_mapped_missing(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            open_mapped(tmp_path / "absent.npy")

    @pytest.mark.parametrize(
        "kwargs", [{"shape": (9, 9)}, {"dtype": "float32"}], ids=["shape", "dtype"]
    )
    def test_open_mapped_layout_mismatch(self, tmp_path, rng, kwargs):
        path = tmp_path / "t.npy"
        path.write_bytes(npy_bytes(rng.normal(size=(6, 2))))
        with pytest.raises(CorruptArtifactError):
            open_mapped(path, **kwargs)

    def test_mappable_source_round_trips_store_arrays(self, tmp_path, rng):
        store = _store(tmp_path)
        mapped = store.put("w", rng.normal(size=(4, 4)))
        source = mappable_source(mapped)
        assert source is not None
        path, dtype, shape = source
        assert path.endswith("w.npy") and dtype == "float64" and shape == (4, 4)

    def test_mappable_source_rejects_views_and_plain_arrays(self, tmp_path, rng):
        store = _store(tmp_path)
        mapped = store.put("w", rng.normal(size=(4, 4)))
        assert mappable_source(mapped[1:]) is None
        assert mappable_source(np.zeros((2, 2))) is None

    def test_array_memory_splits_mapped_from_private(self, tmp_path, rng):
        store = _store(tmp_path)
        mapped = store.put("w", rng.normal(size=(4, 4)))
        private = np.zeros((2, 2))
        in_process, mapped_bytes = array_memory([mapped, private, None])
        assert in_process == private.nbytes
        assert mapped_bytes == mapped.nbytes

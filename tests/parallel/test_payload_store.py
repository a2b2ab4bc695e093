"""Payload shipping of memory-mapped checkpoints: paths travel, not pages."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.core.serialization import load_model, save_model
from repro.errors import CorruptArtifactError
from repro.parallel.payload import (
    describe_shipping,
    model_from_payload,
    model_to_payload,
)
from repro.parallel.pool import run_tasks

pytestmark = pytest.mark.parallel

NE, NR = 90, 4


def _mapped_model(tmp_path):
    model = make_complex(NE, NR, 16, np.random.default_rng(2))
    save_model(model, tmp_path / "ckpt")
    return model, load_model(tmp_path / "ckpt")


def _score_batch(model):
    rng = np.random.default_rng(1)
    heads = rng.integers(0, NE, 25)
    tails = rng.integers(0, NE, 25)
    rels = rng.integers(0, NR, 25)
    return np.asarray(model.score_triples(heads, tails, rels))


def _score_payload(payload):
    """Module-level worker: rebuild from the shipped payload and score."""
    return _score_batch(model_from_payload(payload))


class TestMappedShipping:
    def test_mapped_tables_ship_as_paths(self, tmp_path):
        _, mapped = _mapped_model(tmp_path)
        payload = model_to_payload(mapped)
        assert set(payload.mapped) == {"entity_embeddings", "relation_embeddings"}
        assert "omega" in payload.arrays  # small, in-memory, shipped by value

    def test_shipped_bytes_far_below_logical_bytes(self, tmp_path):
        _, mapped = _mapped_model(tmp_path)
        payload = model_to_payload(mapped)
        assert payload.shipped_nbytes() < payload.nbytes() / 10
        summary = describe_shipping(payload)
        assert "memmap" in summary and str(payload.shipped_nbytes()) in summary

    def test_in_memory_model_ships_everything_by_value(self):
        model = make_complex(NE, NR, 16, np.random.default_rng(2))
        payload = model_to_payload(model)
        assert payload.mapped == {}
        assert payload.shipped_nbytes() == payload.nbytes()

    def test_pickle_round_trip_is_bit_identical(self, tmp_path):
        source, mapped = _mapped_model(tmp_path)
        payload = pickle.loads(pickle.dumps(model_to_payload(mapped)))
        rebuilt = model_from_payload(payload)
        np.testing.assert_array_equal(_score_batch(rebuilt), _score_batch(source))

    def test_pickled_payload_is_small(self, tmp_path):
        """The pickle itself must not smuggle the mapped pages along."""
        _, mapped = _mapped_model(tmp_path)
        payload = model_to_payload(mapped)
        assert len(pickle.dumps(payload)) < payload.nbytes() / 2

    def test_worker_processes_rebuild_bit_identical(self, tmp_path):
        source, mapped = _mapped_model(tmp_path)
        payload = model_to_payload(mapped)
        outcomes = run_tasks(_score_payload, [payload, payload], workers=2)
        for outcome in outcomes:
            assert outcome.ok
            np.testing.assert_array_equal(outcome.value, _score_batch(source))

    def test_replaced_store_fails_loudly(self, tmp_path):
        _, mapped = _mapped_model(tmp_path)
        payload = model_to_payload(mapped)
        path, _, shape = payload.mapped["entity_embeddings"]
        wrong = np.zeros((3, *shape[1:]))
        import io as _io

        buffer = _io.BytesIO()
        np.save(buffer, wrong)
        with open(path, "wb") as handle:
            handle.write(buffer.getvalue())
        with pytest.raises(CorruptArtifactError):
            model_from_payload(payload)

"""Product quantization: codebook determinism, ADC identity, IVF escapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import (
    make_complex,
    make_cp,
    make_cph,
    make_distmult,
    make_quaternion,
)
from repro.errors import ServingError
from repro.index.base import load_index
from repro.index.ivf import IVFIndex
from repro.index.pq import MAX_CODEBOOK, PQConfig, ProductQuantizer
from repro.serving import LinkPredictor

pytestmark = pytest.mark.index

MAKERS = {
    "distmult": make_distmult,
    "complex": make_complex,
    "cp": make_cp,
    "cph": make_cph,
    "quaternion": make_quaternion,
}


@pytest.fixture
def model():
    return make_complex(150, 4, 16, np.random.default_rng(5))


@pytest.fixture
def points(rng):
    return rng.normal(size=(300, 16))


class TestConfig:
    def test_round_trips_through_dict(self):
        config = PQConfig(m=4, refine=32, train_sample=1000, iters=5, seed=9)
        assert PQConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"refine": 0},
            {"train_sample": 0},
            {"iters": 0},
            {"seed": -1},
        ],
    )
    def test_rejects_non_positive_fields(self, kwargs):
        with pytest.raises(ServingError):
            PQConfig(**kwargs)


class TestFit:
    def test_deterministic_across_fits(self, points):
        config = PQConfig(m=4, train_sample=200, iters=4, seed=3)
        a = ProductQuantizer.fit(points, config)
        b = ProductQuantizer.fit(points, config)
        np.testing.assert_array_equal(a.codebooks, b.codebooks)
        np.testing.assert_array_equal(a.encode(points), b.encode(points))

    def test_seed_changes_codebooks(self, points):
        a = ProductQuantizer.fit(points, PQConfig(m=4, iters=4, seed=3))
        b = ProductQuantizer.fit(points, PQConfig(m=4, iters=4, seed=4))
        assert not np.array_equal(a.codebooks, b.codebooks)

    def test_rejects_indivisible_subspaces(self, points):
        with pytest.raises(ServingError, match="divide"):
            ProductQuantizer.fit(points, PQConfig(m=5))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ServingError):
            ProductQuantizer.fit(np.zeros((0, 16)), PQConfig(m=4))

    def test_codebook_never_exceeds_byte_range(self, rng):
        tiny = rng.normal(size=(10, 8))
        quantizer = ProductQuantizer.fit(tiny, PQConfig(m=2, iters=3))
        assert quantizer.ks <= min(MAX_CODEBOOK, 10)
        assert quantizer.m == 2 and quantizer.sub_dim == 4

    def test_train_sample_subsets_deterministically(self, points):
        config = PQConfig(m=4, train_sample=64, iters=4, seed=1)
        a = ProductQuantizer.fit(points, config)
        b = ProductQuantizer.fit(points, config)
        np.testing.assert_array_equal(a.codebooks, b.codebooks)


class TestADC:
    def test_codes_are_bytes(self, points):
        quantizer = ProductQuantizer.fit(points, PQConfig(m=4, iters=4))
        codes = quantizer.encode(points)
        assert codes.dtype == np.uint8 and codes.shape == (len(points), 4)

    def test_adc_equals_inner_product_with_decoded_vectors(self, points, rng):
        """ADC table lookups must reproduce ⟨query, decode(code)⟩."""
        quantizer = ProductQuantizer.fit(points, PQConfig(m=4, iters=6))
        codes = quantizer.encode(points)
        queries = rng.normal(size=(7, 16))
        got = quantizer.scores(queries, codes)
        expected = queries @ quantizer.decode(codes).T
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_lookup_tables_shape(self, points, rng):
        quantizer = ProductQuantizer.fit(points, PQConfig(m=8, iters=3))
        lut = quantizer.lookup_tables(rng.normal(size=(5, 16)))
        assert lut.shape == (5, 8, quantizer.ks)

    def test_quantization_preserves_neighborhoods(self, rng):
        """Clustered data: ADC top-k must mostly agree with exact top-k."""
        centers = rng.normal(size=(10, 16)) * 4
        data = np.repeat(centers, 50, axis=0) + rng.normal(size=(500, 16)) * 0.05
        quantizer = ProductQuantizer.fit(data, PQConfig(m=4, iters=8))
        codes = quantizer.encode(data)
        query = data[:3]
        exact = np.argsort(-(query @ data.T), axis=1)[:, :10]
        approx = np.argsort(-quantizer.scores(query, codes), axis=1)[:, :20]
        for exact_row, approx_row in zip(exact, approx):
            overlap = len(set(exact_row) & set(approx_row))
            assert overlap >= 8


class TestIVFEscapeHatches:
    """pq=None, refine >= union and probe-all must not change results."""

    def _batch(self, index, model):
        anchors = np.arange(0, 40, 3)
        relations = np.arange(len(anchors)) % model.num_relations
        return index.candidate_lists(anchors, relations, "tail")

    def test_pq_none_is_bit_identical_and_never_scans(self, model):
        plain = IVFIndex(model, nlist=10, nprobe=3, seed=2)
        explicit = IVFIndex(model, nlist=10, nprobe=3, seed=2, pq=None)
        a = self._batch(plain, model)
        b = self._batch(explicit, model)
        for row_a, row_b in zip(a.rows, b.rows):
            np.testing.assert_array_equal(row_a, row_b)
        assert b.num_scanned == 0

    def test_large_refine_disables_pruning(self, model):
        plain = IVFIndex(model, nlist=10, nprobe=3, seed=2)
        pq = PQConfig(m=4, refine=model.num_entities, iters=4)
        coded = IVFIndex(model, nlist=10, nprobe=3, seed=2, pq=pq)
        a = self._batch(plain, model)
        b = self._batch(coded, model)
        for row_a, row_b in zip(a.rows, b.rows):
            np.testing.assert_array_equal(row_a, row_b)

    def test_probe_all_covers_everything(self, model):
        pq = PQConfig(m=4, refine=8, iters=4)
        index = IVFIndex(model, nlist=10, nprobe=10, seed=2, pq=pq)
        batch = self._batch(index, model)
        assert batch.covers_all
        assert batch.num_scanned == 0

    def test_pruning_shrinks_rows_to_refine(self, model):
        plain = IVFIndex(model, nlist=10, nprobe=4, seed=2)
        pq = PQConfig(m=4, refine=12, iters=4)
        coded = IVFIndex(model, nlist=10, nprobe=4, seed=2, pq=pq)
        a = self._batch(plain, model)
        b = self._batch(coded, model)
        assert b.num_scanned > 0
        for row_a, row_b in zip(a.rows, b.rows):
            assert len(row_b) <= 12
            assert set(row_b) <= set(row_a)
            assert np.all(np.diff(row_b) > 0)  # ascending, unique


class TestPredictorBitIdentityPins:
    """Escape hatches pinned across every paper model family."""

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_full_probe_with_pq_matches_plain_serving(self, name):
        model = MAKERS[name](60, 5, 16, np.random.default_rng(9))
        plain = LinkPredictor(model)
        pq = PQConfig(m=4, refine=8, iters=3)
        indexed = LinkPredictor(
            model, index=IVFIndex(model, nlist=6, nprobe=6, seed=1, pq=pq)
        )
        anchors = np.arange(12)
        relations = np.arange(12) % model.num_relations
        expected = plain.top_k_tails(anchors, relations, k=5)
        got = indexed.top_k_tails(anchors, relations, k=5)
        np.testing.assert_array_equal(got.ids, expected.ids)
        np.testing.assert_array_equal(got.scores, expected.scores)

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_pq_none_matches_pre_pq_index_serving(self, name):
        model = MAKERS[name](60, 5, 16, np.random.default_rng(9))
        before = LinkPredictor(model, index=IVFIndex(model, nlist=6, nprobe=2, seed=1))
        after = LinkPredictor(
            model, index=IVFIndex(model, nlist=6, nprobe=2, seed=1, pq=None)
        )
        anchors = np.arange(12)
        relations = np.arange(12) % model.num_relations
        a = before.top_k_tails(anchors, relations, k=5)
        b = after.top_k_tails(anchors, relations, k=5)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.scores, b.scores)


class TestPersistence:
    def test_round_trip_preserves_codes_and_results(self, model, tmp_path):
        pq = PQConfig(m=4, refine=12, iters=4, seed=3)
        index = IVFIndex(model, nlist=10, nprobe=4, seed=2, pq=pq)
        anchors = np.arange(20)
        relations = np.arange(20) % model.num_relations
        before = index.candidate_lists(anchors, relations, "tail")
        index.save(tmp_path / "ix")
        loaded = load_index(tmp_path / "ix", model)
        assert loaded.pq == pq
        after = loaded.candidate_lists(anchors, relations, "tail")
        for row_a, row_b in zip(before.rows, after.rows):
            np.testing.assert_array_equal(row_a, row_b)

    def test_validation_rejects_indivisible_pq(self, model):
        with pytest.raises(ServingError):
            IVFIndex(model, nlist=10, nprobe=4, pq=PQConfig(m=5))


class TestServingStats:
    def test_predictor_reports_scanned_and_fold_cache(self, model):
        pq = PQConfig(m=4, refine=12, iters=4)
        predictor = LinkPredictor(
            model, index=IVFIndex(model, nlist=10, nprobe=4, seed=2, pq=pq)
        )
        anchors = np.arange(16)
        relations = np.arange(16) % model.num_relations
        predictor.top_k_tails(anchors, relations, k=5)
        stats = predictor.index_stats_dict()
        assert stats is not None
        assert stats["entities_scanned"] > 0
        assert stats["fold_cache"]["misses"] > 0

"""Batch-vectorized IVF candidate lists against the per-row reference.

``oracle_candidate_lists`` below is the per-query implementation the
batched :meth:`IVFIndex.candidate_lists` replaced: one ``np.unique`` per
row, one ADC call per pruned row and a stable ``argsort`` to keep the
``refine`` best.  It survives here only as the reference.  The batched
path must return exactly its shortlists (ids, dtype, ``num_scored``,
``num_scanned``) over seeded batches that mix relations, repeat queries,
cover both sides, hit empty cells and force ADC score ties at the
``refine`` boundary; predictor top-k through the index must equal a
re-rank of the reference shortlists.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.index import ivf
from repro.index.ivf import IVFIndex, _Partition
from repro.index.pq import PQConfig, ProductQuantizer
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.obs import MetricsRegistry, Tracer, telemetry_scope
from repro.serving import LinkPredictor

pytestmark = pytest.mark.index

NLIST = 12
SIDES = ("tail", "head")


def oracle_candidate_lists(index, anchors, relations, side, nprobe=None):
    """The per-row reference: ``(rows, num_scored, num_scanned, pq_rows)``."""
    anchors = np.atleast_1d(np.asarray(anchors, dtype=np.int64))
    relations = np.atleast_1d(np.asarray(relations, dtype=np.int64))
    nprobe = index.nprobe if nprobe is None else nprobe
    rows = [None] * len(anchors)
    num_scored = num_scanned = pq_rows = 0
    for relation in np.unique(relations):
        partition = index._partition(int(relation), side)
        selectors = np.flatnonzero(relations == relation)
        queries = index._source.query_matrix(anchors[selectors])
        cell_scores = queries @ partition.centroids.T
        probe_order = np.argsort(-cell_scores, axis=1, kind="stable")[:, :nprobe]
        luts = partition.pq.lookup_tables(queries) if partition.pq is not None else None
        for position, (row_index, probed) in enumerate(zip(selectors, probe_order)):
            union = np.unique(np.concatenate([partition.cell(int(c)) for c in probed]))
            if not len(union):
                union = np.arange(index.num_entities, dtype=np.int64)
            union = union.astype(np.int64, copy=False)
            if luts is not None and len(union) > index.pq.refine:
                lut = luts[position]
                codes = partition.codes[union].astype(np.int64)
                approx = lut[np.arange(lut.shape[0])[None, :], codes].sum(axis=1)
                keep = np.argsort(-approx, kind="stable")[: index.pq.refine]
                num_scanned += len(union)
                pq_rows += 1
                union = np.sort(union[keep])
            rows[int(row_index)] = union
            num_scored += len(union)
    return rows, num_scored, num_scanned, pq_rows


def oracle_rerank(predictor, rows, anchors, relations, side, k, filtered):
    """The predictor's re-rank of ragged shortlists, re-padded per chunk."""
    k_out = min(k, predictor.model.num_entities)
    out_ids = np.full((len(anchors), k_out), -1, dtype=np.int64)
    out_scores = np.full((len(anchors), k_out), -np.inf)
    chunk = predictor.scorer.effective_chunk_size()
    for start in range(0, len(anchors), chunk):
        stop = min(start + chunk, len(anchors))
        chunk_rows = rows[start:stop]
        lengths = np.array([len(row) for row in chunk_rows])
        width = int(lengths.max())
        cands = np.empty((len(chunk_rows), width), dtype=np.int64)
        for i, row in enumerate(chunk_rows):
            cands[i, : len(row)] = row
            cands[i, len(row):] = row[-1]
        scores = np.asarray(
            predictor.scorer.score_candidates(
                anchors[start:stop], relations[start:stop], cands, side
            ),
            dtype=np.float64,
        )
        pad = np.arange(width)[None, :] >= lengths[:, None]
        scores[pad] = -np.inf
        if filtered:
            predictor._mask_known(
                scores, anchors[start:stop], relations[start:stop], side, cands
            )
        picked = predictor._select_top_k(scores, min(k_out, width))
        ids = np.take_along_axis(cands, picked.ids, axis=1)
        ids[np.take_along_axis(pad, picked.ids, axis=1)] = -1
        out_ids[start:stop, : ids.shape[1]] = ids
        out_scores[start:stop, : ids.shape[1]] = picked.scores
    return out_ids, out_scores


def random_batch(rng, num_entities, num_relations):
    """Mixed relations with repeated (anchor, relation) queries."""
    size = int(rng.integers(1, 40))
    distinct = max(1, 2 * size // 3)
    anchors = rng.integers(0, num_entities, size=distinct)
    relations = rng.integers(0, num_relations, size=distinct)
    pick = rng.integers(0, distinct, size=size)
    return anchors[pick], relations[pick]


def assert_matches_oracle(index, anchors, relations, side, nprobe):
    rows, num_scored, num_scanned, _ = oracle_candidate_lists(
        index, anchors, relations, side, nprobe
    )
    batch = index.candidate_lists(anchors, relations, side, nprobe=nprobe)
    assert not batch.covers_all
    assert batch.ids.dtype == np.int64
    assert batch.ids.shape == (len(rows), max(len(row) for row in rows))
    assert batch.num_scored == num_scored
    assert batch.num_scanned == num_scanned
    np.testing.assert_array_equal(batch.lengths, [len(row) for row in rows])
    for got, expected, padded in zip(batch.rows, rows, batch.ids):
        assert got.dtype == expected.dtype == np.int64
        np.testing.assert_array_equal(got, expected)
        assert (padded[len(expected):] == expected[-1]).all()
    return rows


@pytest.fixture(scope="module")
def model():
    return make_complex(300, 5, 16, np.random.default_rng(8))


@pytest.fixture(params=["one-run", "many-runs"])
def budget(request, monkeypatch):
    """The default candidate budget, or one small enough that every call
    splits its union and its ADC pass into several runs."""
    if request.param == "many-runs":
        monkeypatch.setattr(ivf, "_CANDIDATE_BUDGET", 97)
    return request.param


PQ_CASES = {
    "no-pq": None,
    "refine-below-unions": PQConfig(m=4, refine=8, iters=4, seed=1),
    "refine-inside-unions": PQConfig(m=8, refine=120, iters=4, seed=2),
    "refine-above-unions": PQConfig(m=4, refine=1000, iters=4, seed=3),
}


@pytest.mark.parametrize("m", [3, 4, 8, 16])
def test_batched_adc_is_bit_identical_to_per_query_adc(m):
    """One ADC call over many queries' candidates gives every candidate
    the bits a per-query call gives it.  Table entries span 16 orders of
    magnitude, so any other summation order would round differently."""
    rng = np.random.default_rng(m)
    luts = rng.normal(size=(6, m, 256)) * 10.0 ** rng.uniform(-8, 8, size=(6, m, 256))
    codes = rng.integers(0, 256, size=(9000, m)).astype(np.uint8)
    rows = np.sort(rng.integers(0, len(luts), size=len(codes)))
    got = ProductQuantizer.adc_scores(luts, codes, rows=rows)
    for row, lut in enumerate(luts):
        mine = rows == row
        expected = lut[np.arange(m)[None, :], codes[mine].astype(np.int64)].sum(axis=1)
        np.testing.assert_array_equal(got[mine], expected)
        np.testing.assert_array_equal(ProductQuantizer.adc_scores(lut, codes[mine]), expected)


@pytest.mark.usefixtures("budget")
class TestMatchesPerRowOracle:
    @pytest.mark.parametrize("spill", [1, 2])
    @pytest.mark.parametrize("pq", sorted(PQ_CASES))
    def test_fuzzed_batches(self, model, spill, pq):
        index = IVFIndex(model, nlist=NLIST, spill=spill, seed=4, pq=PQ_CASES[pq])
        rng = np.random.default_rng([spill, len(pq)])
        for nprobe in (1, NLIST // 2, NLIST - 1):
            for side in SIDES:
                for _ in range(4):
                    anchors, relations = random_batch(
                        rng, model.num_entities, model.num_relations
                    )
                    assert_matches_oracle(index, anchors, relations, side, nprobe)

    def test_empty_cells_fall_back_to_the_full_range(self, model):
        rng = np.random.default_rng(17)
        for pq in (None, PQConfig(m=4, refine=16, iters=4)):
            index = IVFIndex(model, nlist=NLIST, spill=1, seed=5, pq=pq)
            index.build()
            for key, partition in list(index._partitions.items()):
                cells = [
                    partition.cell(c)[:0] if rng.random() < 0.5 else partition.cell(c)
                    for c in range(NLIST)
                ]
                index._partitions[key] = _Partition(
                    partition.centroids,
                    np.concatenate(cells).astype(np.int32),
                    np.concatenate([[0], np.cumsum([len(c) for c in cells])]),
                    codes=partition.codes,
                    pq=partition.pq,
                )
            fell_back = 0
            for side in SIDES:
                for nprobe in (1, 2):
                    anchors, relations = random_batch(
                        rng, model.num_entities, model.num_relations
                    )
                    rows, _, num_scanned, _ = oracle_candidate_lists(
                        index, anchors, relations, side, nprobe
                    )
                    fell_back += sum(len(row) == model.num_entities for row in rows)
                    fell_back += num_scanned // model.num_entities
                    assert_matches_oracle(index, anchors, relations, side, nprobe)
            assert fell_back, "no row probed only empty cells"

    def test_tied_adc_scores_keep_the_lower_ids(self, model):
        """Two distinct centroids per subspace: approximate scores tie in
        bulk, so the refine boundary cuts through runs of equal scores."""
        index = IVFIndex(
            model, nlist=NLIST, spill=2, seed=6, pq=PQConfig(m=4, refine=20, iters=4)
        )
        index.build()
        for partition in index._partitions.values():
            codebooks = partition.pq.codebooks
            codebooks[:, 2:] = codebooks[:, np.arange(2, partition.pq.ks) % 2]
        queries = index._source.query_matrix([3])
        partition = index._partition(0, "tail")
        probed = np.argsort(-(queries @ partition.centroids.T)[0], kind="stable")[:4]
        union = np.unique(np.concatenate([partition.cell(int(c)) for c in probed]))
        approx = np.sort(partition.pq.scores(queries, partition.codes[union])[0])[::-1]
        assert approx[19] == approx[20], "the refine boundary must fall inside a tie"
        rng = np.random.default_rng(23)
        for side in SIDES:
            for nprobe in (1, 4, NLIST - 1):
                for _ in range(3):
                    anchors, relations = random_batch(
                        rng, model.num_entities, model.num_relations
                    )
                    assert_matches_oracle(index, anchors, relations, side, nprobe)


class TestPredictorRerank:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_synthetic_kg(
            SyntheticKGConfig(num_entities=250, num_clusters=16, seed=11, name="oracle")
        )

    @pytest.mark.parametrize("filtered", [False, True])
    def test_top_k_equals_rerank_of_oracle_lists(self, dataset, filtered):
        model = make_complex(
            dataset.num_entities, dataset.num_relations, 16, np.random.default_rng(2)
        )
        index = IVFIndex(model, nlist=NLIST, nprobe=3, pq=PQConfig(m=4, refine=30))
        predictor = LinkPredictor(model, dataset, index=index, cache_size=0)
        rng = np.random.default_rng(31)
        for side in SIDES:
            anchors, relations = random_batch(
                rng, dataset.num_entities, dataset.num_relations
            )
            rows = oracle_candidate_lists(index, anchors, relations, side)[0]
            expected_ids, expected_scores = oracle_rerank(
                predictor, rows, anchors, relations, side, 10, filtered
            )
            got = predictor.top_k(anchors, relations, side=side, k=10, filtered=filtered)
            np.testing.assert_array_equal(got.ids, expected_ids)
            np.testing.assert_array_equal(got.scores, expected_scores)


class TestTelemetry:
    def test_one_pq_prune_span_and_unchanged_counters_per_call(self, model, budget):
        index = IVFIndex(model, nlist=NLIST, nprobe=4, pq=PQConfig(m=4, refine=10))
        anchors, relations = random_batch(
            np.random.default_rng(5), model.num_entities, model.num_relations
        )
        _, _, num_scanned, pq_rows = oracle_candidate_lists(
            index, anchors, relations, "tail"
        )
        assert pq_rows > 1
        registry, tracer = MetricsRegistry(), Tracer()
        with telemetry_scope(registry, tracer):
            batch = index.candidate_lists(anchors, relations, "tail")
        spans = [span for span in tracer.spans() if span.name == "index.pq_prune"]
        assert len(spans) == 1
        assert spans[0].tags == {"rows": pq_rows, "candidates": batch.num_scanned}
        assert batch.num_scanned == num_scanned
        # The counters land in the index's own registry, not the ambient one.
        assert index.metrics.counter_value("index.pq.rows_pruned") == pq_rows
        assert (
            index.metrics.counter_value("index.pq.candidates_pruned")
            == num_scanned - pq_rows * 10
        )
        assert registry.snapshot().empty

    def test_no_span_when_nothing_is_pruned(self, model):
        index = IVFIndex(model, nlist=NLIST, nprobe=4, pq=PQConfig(m=4, refine=1000))
        tracer = Tracer()
        with telemetry_scope(None, tracer):
            batch = index.candidate_lists([1, 2], [0, 1], "tail")
        assert batch.num_scanned == 0
        assert not [span for span in tracer.spans() if span.name == "index.pq_prune"]

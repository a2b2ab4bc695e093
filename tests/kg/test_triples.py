"""Unit tests for :mod:`repro.kg.triples`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TripleError
from repro.kg.triples import TripleSet, pack_triples


@pytest.fixture
def triples() -> TripleSet:
    return TripleSet([[0, 1, 0], [1, 2, 0], [2, 0, 1]], num_entities=3, num_relations=2)


class TestConstruction:
    def test_infers_id_spaces(self):
        ts = TripleSet([[0, 4, 2]])
        assert ts.num_entities == 5
        assert ts.num_relations == 3

    def test_explicit_spaces_kept(self, triples):
        assert triples.num_entities == 3
        assert triples.num_relations == 2

    def test_empty_shapes(self):
        ts = TripleSet.empty(10, 2)
        assert len(ts) == 0
        assert ts.array.shape == (0, 3)

    def test_empty_list_ok(self):
        assert len(TripleSet([], num_entities=3, num_relations=1)) == 0

    def test_wrong_shape_raises(self):
        with pytest.raises(TripleError, match="shape"):
            TripleSet([[0, 1], [1, 2]])

    def test_negative_ids_raise(self):
        with pytest.raises(TripleError, match="non-negative"):
            TripleSet([[0, -1, 0]])

    def test_entity_out_of_range_raises(self):
        with pytest.raises(TripleError, match="entity id"):
            TripleSet([[0, 9, 0]], num_entities=3, num_relations=1)

    def test_relation_out_of_range_raises(self):
        with pytest.raises(TripleError, match="relation id"):
            TripleSet([[0, 1, 9]], num_entities=3, num_relations=1)

    def test_array_is_read_only(self, triples):
        with pytest.raises(ValueError):
            triples.array[0, 0] = 99


class TestViews:
    def test_column_views(self, triples):
        assert triples.heads.tolist() == [0, 1, 2]
        assert triples.tails.tolist() == [1, 2, 0]
        assert triples.relations.tolist() == [0, 0, 1]

    def test_iteration_yields_python_ints(self, triples):
        first = next(iter(triples))
        assert first == (0, 1, 0)
        assert all(isinstance(x, int) for x in first)

    def test_contains(self, triples):
        assert (0, 1, 0) in triples
        assert (9, 9, 9) not in triples
        assert "not a triple" not in triples

    def test_equality(self, triples):
        clone = TripleSet(triples.array, 3, 2)
        assert clone == triples
        assert triples != TripleSet([[0, 1, 0]], 3, 2)


class TestTransforms:
    def test_concat(self, triples):
        other = TripleSet([[0, 2, 1]], 3, 2)
        combined = triples.concat(other)
        assert len(combined) == 4
        assert (0, 2, 1) in combined

    def test_concat_mismatched_spaces_raises(self, triples):
        with pytest.raises(TripleError, match="id spaces"):
            triples.concat(TripleSet([[0, 1, 0]], 99, 2))

    def test_deduplicate_keeps_first_occurrence_order(self):
        ts = TripleSet([[1, 2, 0], [0, 1, 0], [1, 2, 0]])
        assert ts.deduplicate().array.tolist() == [[1, 2, 0], [0, 1, 0]]

    def test_packing_refuses_id_spaces_past_int64(self):
        """Keys past int64 would wrap and alias distinct triples."""
        rows = np.array([[0, 1, 0]], dtype=np.int64)
        assert pack_triples(rows, 3_000_000_000, 1).tolist() == [1]
        with pytest.raises(TripleError, match="too large"):
            pack_triples(rows, 3_100_000_000, 1)
        with pytest.raises(TripleError, match="too large"):
            TripleSet(rows, 10**8, 10**3).deduplicate()

    def test_shuffled_is_permutation(self, triples):
        shuffled = triples.shuffled(np.random.default_rng(0))
        assert sorted(map(tuple, shuffled.array.tolist())) == sorted(
            map(tuple, triples.array.tolist())
        )

    def test_subset_by_mask_and_indices(self, triples):
        assert len(triples.subset(np.array([True, False, True]))) == 2
        assert triples.subset(np.array([2])).array.tolist() == [[2, 0, 1]]

    def test_relation_filter(self, triples):
        only_r1 = triples.with_relations_filtered([1])
        assert only_r1.array.tolist() == [[2, 0, 1]]

    def test_inverted_swaps_and_offsets(self, triples):
        inv = triples.inverted(relation_offset=2)
        assert inv.num_relations == 4
        assert inv.array.tolist()[0] == [1, 0, 2]


class TestIndexes:
    def test_entity_degree(self, triples):
        assert triples.entity_degree().tolist() == [2, 2, 2]

    def test_relation_frequency(self, triples):
        assert triples.relation_frequency().tolist() == [2, 1]

    def test_as_set_cached(self, triples):
        assert triples.as_set() is triples.as_set()


@given(
    st.lists(
        st.tuples(
            st.integers(0, 20), st.integers(0, 20), st.integers(0, 5)
        ),
        min_size=1,
        max_size=50,
    )
)
def test_property_dedup_idempotent_and_preserves_membership(rows):
    ts = TripleSet(rows)
    deduped = ts.deduplicate()
    assert set(deduped.as_set()) == set(ts.as_set())
    assert len(deduped.deduplicate()) == len(deduped)
    assert len(deduped) == len(set(map(tuple, rows)))


@given(st.integers(1, 10))
def test_property_double_inversion_is_identity_on_entities(offset):
    ts = TripleSet([[0, 1, 0], [2, 3, 1]])
    double = ts.inverted(offset).inverted(offset)
    assert double.heads.tolist() == ts.heads.tolist()
    assert double.tails.tolist() == ts.tails.tolist()
    assert (double.relations - 2 * offset).tolist() == ts.relations.tolist()

"""Unit tests for :mod:`repro.kg.graph` (datasets and the filter index)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatasetError
from repro.kg.graph import FilterIndex, KGDataset, split_triples
from repro.kg.triples import TripleSet
from repro.kg.vocab import Vocabulary


def _dataset(train, valid=(), test=(), ne=5, nr=2) -> KGDataset:
    return KGDataset(
        entities=Vocabulary(f"e{i}" for i in range(ne)),
        relations=Vocabulary(f"r{i}" for i in range(nr)),
        train=TripleSet(list(train), ne, nr),
        valid=TripleSet(list(valid), ne, nr),
        test=TripleSet(list(test), ne, nr),
    )


class TestKGDataset:
    def test_basic_properties(self):
        ds = _dataset([[0, 1, 0]], [[1, 2, 0]], [[2, 3, 1]])
        assert ds.num_entities == 5
        assert ds.num_relations == 2
        assert set(ds.splits) == {"train", "valid", "test"}

    def test_all_triples_union_dedup(self):
        ds = _dataset([[0, 1, 0], [0, 1, 0]], [[1, 2, 0]], [[2, 3, 1]])
        assert len(ds.all_triples()) == 3

    def test_empty_train_raises(self):
        with pytest.raises(DatasetError, match="non-empty"):
            _dataset([])

    def test_train_test_overlap_raises(self):
        with pytest.raises(DatasetError, match="disjoint"):
            _dataset([[0, 1, 0]], test=[[0, 1, 0]])
        # The count is of distinct triples, however often a split repeats one.
        with pytest.raises(DatasetError, match="^1 triples appear in both train and test"):
            _dataset([[0, 1, 0], [1, 2, 0]], test=[[0, 1, 0], [2, 3, 1], [0, 1, 0]])

    def test_out_of_vocab_ids_raise(self):
        with pytest.raises(DatasetError, match="outside"):
            KGDataset(
                entities=Vocabulary(["e0"]),
                relations=Vocabulary(["r0"]),
                train=TripleSet([[0, 5, 0]]),
                valid=TripleSet.empty(6, 1),
                test=TripleSet.empty(6, 1),
            )

    def test_from_labeled_triples_builds_vocab_in_order(self, toy_dataset):
        assert toy_dataset.entities.index("alice") == 0
        assert toy_dataset.entities.index("bob") == 1
        assert toy_dataset.relations.index("likes") == 0

    def test_from_labeled_triples_split_sizes(self, toy_dataset):
        assert len(toy_dataset.train) == 10
        assert len(toy_dataset.valid) == 1
        assert len(toy_dataset.test) == 1

    def test_repr_contains_counts(self, toy_dataset):
        assert "train=10" in repr(toy_dataset)


class TestFilterIndex:
    def test_true_tails_and_heads(self):
        index = FilterIndex(TripleSet([[0, 1, 0], [0, 2, 0], [3, 1, 0]]))
        assert index.true_tails(0, 0).tolist() == [1, 2]
        assert index.true_heads(1, 0).tolist() == [0, 3]

    def test_missing_key_gives_empty(self):
        index = FilterIndex(TripleSet([[0, 1, 0]]))
        assert len(index.true_tails(9, 9)) == 0
        assert len(index.true_heads(9, 9)) == 0

    def test_contains(self):
        index = FilterIndex(TripleSet([[0, 1, 0]]))
        assert index.contains(0, 1, 0)
        assert not index.contains(1, 0, 0)

    def test_results_sorted_unique(self):
        index = FilterIndex(TripleSet([[0, 5, 0], [0, 2, 0], [0, 5, 0]]))
        assert index.true_tails(0, 0).tolist() == [2, 5]

    def test_dataset_filter_index_covers_all_splits(self):
        ds = _dataset([[0, 1, 0]], [[1, 2, 0]], [[2, 3, 1]])
        assert ds.filter_index.contains(1, 2, 0)
        assert ds.filter_index.contains(2, 3, 1)

    def test_filter_index_cached(self):
        ds = _dataset([[0, 1, 0]])
        assert ds.filter_index is ds.filter_index

    def test_removing_rows_outside_the_id_spaces_changes_nothing(self, toy_dataset):
        """``(a, t, num_relations)`` is out of range and must be ignored.  A
        grouping key packed as ``anchor * num_relations + relation`` would
        alias it onto ``(a + 1, 0)`` and drop the known tail ``t`` there."""
        index = FilterIndex(toy_dataset.all_triples())
        nr = toy_dataset.num_relations
        a = next(h - 1 for h, r in index._tails if h >= 1 and r == 0)
        t = int(index.true_tails(a + 1, 0)[0])
        before = {
            side: {key: members.copy() for key, members in getattr(index, side).items()}
            for side in ("_tails", "_heads")
        }
        index.remove_triples(np.array([[a, t, nr]], dtype=np.int64))
        for side, snapshot in before.items():
            mapping = getattr(index, side)
            assert set(mapping) == set(snapshot)
            for key, members in snapshot.items():
                np.testing.assert_array_equal(mapping[key], members)


def _reference_index(rows: np.ndarray) -> tuple[dict, dict]:
    """The per-triple construction: a dict of ``np.unique`` arrays per key."""
    tails: dict[tuple[int, int], list[int]] = {}
    heads: dict[tuple[int, int], list[int]] = {}
    for h, t, r in rows.tolist():
        tails.setdefault((h, r), []).append(t)
        heads.setdefault((t, r), []).append(h)

    def arrays(groups):
        return {k: np.unique(np.asarray(v, dtype=np.int64)) for k, v in groups.items()}

    return arrays(tails), arrays(heads)


@st.composite
def _triple_sets(draw) -> TripleSet:
    """Random triple sets with repeated rows, one relation, one head, one
    tail, or no rows at all."""
    ne, nr = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["mixed", "one_relation", "one_head", "one_tail", "empty"]))
    if shape == "empty":
        return TripleSet.empty(ne, nr)
    rows = np.array(
        draw(
            st.lists(
                st.tuples(st.integers(0, ne - 1), st.integers(0, ne - 1), st.integers(0, nr - 1)),
                min_size=1,
                max_size=60,
            )
        ),
        dtype=np.int64,
    )
    fixed = {"one_relation": 2, "one_head": 0, "one_tail": 1}.get(shape)
    if fixed is not None:
        rows[:, fixed] = rows[0, fixed]
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=20))
    return TripleSet(np.concatenate([rows, rows[repeats]]), ne, nr)


@settings(max_examples=200, deadline=None)
@given(_triple_sets())
def test_property_index_equals_per_triple_reference(triples):
    """Same keys and, per key, the same dtype and bytes as the per-triple build."""
    index = FilterIndex(triples)
    for actual, expected in zip((index._tails, index._heads), _reference_index(triples.array)):
        assert set(actual) == set(expected)
        for key, members in expected.items():
            assert actual[key].dtype == members.dtype
            assert actual[key].tobytes() == members.tobytes()


class TestSplitTriples:
    def test_sizes_and_disjointness(self):
        triples = TripleSet(np.column_stack([
            np.arange(100) % 10, (np.arange(100) + 1) % 10, np.zeros(100, dtype=int)
        ]))
        rng = np.random.default_rng(0)
        train, valid, test = split_triples(triples, 0.1, 0.2, rng)
        assert len(valid) == 10
        assert len(test) == 20
        assert len(train) == 70

    def test_bad_fractions_raise(self):
        triples = TripleSet([[0, 1, 0]])
        rng = np.random.default_rng(0)
        with pytest.raises(DatasetError):
            split_triples(triples, 0.6, 0.5, rng)
        with pytest.raises(DatasetError):
            split_triples(triples, -0.1, 0.1, rng)

    def test_deterministic_given_seed(self):
        triples = TripleSet([[i % 5, (i + 1) % 5, 0] for i in range(50)])
        a = split_triples(triples, 0.1, 0.1, np.random.default_rng(3))
        b = split_triples(triples, 0.1, 0.1, np.random.default_rng(3))
        assert all(x == y for x, y in zip(a, b))

"""Transactional delta application and its equivalence to static builds.

The load-bearing contract (ISSUE satellite): for identical *final*
triple sets, the mutation path (``apply_delta``) and the static path
(``KGDataset.from_labeled_triples``) produce **equal datasets** — same
vocabularies in the same id order, same split arrays.  Property-tested
over randomized deltas below.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.errors import IngestError
from repro.ingest import GraphDelta, apply_delta
from repro.kg.graph import FilterIndex, KGDataset
from repro.kg.triples import TripleSet

pytestmark = pytest.mark.ingest


def named(dataset: KGDataset, rows: np.ndarray) -> list[tuple[str, str, str]]:
    """Int id rows -> (head, tail, relation) name triples."""
    ents = dataset.entities.to_list()
    rels = dataset.relations.to_list()
    return [(ents[h], ents[t], rels[r]) for h, t, r in np.atleast_2d(rows)]


def rebuild_from_names(dataset: KGDataset, delta: GraphDelta) -> KGDataset:
    """The static-path dataset for *dataset* + *delta*'s final triples."""
    deleted = set(delta.delete_triples)
    train = [row for row in named(dataset, dataset.train.array) if row not in deleted]
    train += list(delta.add_triples)
    return KGDataset.from_labeled_triples(
        train,
        named(dataset, dataset.valid.array),
        named(dataset, dataset.test.array),
        name=dataset.name,
    )


class TestEmptyDelta:
    def test_returns_the_same_object(self, toy_dataset):
        successor, stats = apply_delta(toy_dataset, GraphDelta())
        assert successor is toy_dataset
        assert stats.num_added == 0
        assert stats.num_deleted == 0
        assert len(stats.touched_entities) == 0

    def test_non_delta_rejected(self, toy_dataset):
        with pytest.raises(IngestError, match="GraphDelta"):
            apply_delta(toy_dataset, {"add_triples": []})


class TestApplySemantics:
    def test_add_with_new_entity_matches_static_build(self, toy_dataset):
        delta = GraphDelta(add_triples=(("grace", "alice", "likes"),))
        successor, stats = apply_delta(toy_dataset, delta)
        assert successor == rebuild_from_names(toy_dataset, delta)
        assert stats.new_entities == 1
        assert successor.entities.to_list()[-1] == "grace"
        # the source dataset is untouched
        assert "grace" not in toy_dataset.entities.to_list()

    def test_explicit_vocab_adds_register_before_triples(self, toy_dataset):
        delta = GraphDelta(add_entities=("zeta", "yank"), add_relations=("hates",))
        successor, stats = apply_delta(toy_dataset, delta)
        assert successor.entities.to_list()[-2:] == ["zeta", "yank"]
        assert successor.relations.to_list()[-1] == "hates"
        assert stats.new_entities == 2 and stats.new_relations == 1
        # fresh ids are touched even without any triples
        assert set(stats.touched_entities.tolist()) == {
            successor.entities.index("zeta"),
            successor.entities.index("yank"),
        }

    def test_delete_then_add_together(self, toy_dataset):
        delta = GraphDelta(
            add_triples=(("frank", "carol", "likes"),),
            delete_triples=(("frank", "bob", "likes"),),
        )
        successor, stats = apply_delta(toy_dataset, delta)
        assert stats.num_added == 1 and stats.num_deleted == 1
        assert len(successor.train) == len(toy_dataset.train)
        assert successor == rebuild_from_names(toy_dataset, delta)

    def test_touched_entities_are_endpoints_plus_fresh_ids(self, toy_dataset):
        delta = GraphDelta(
            add_triples=(("grace", "bob", "likes"),),
            delete_triples=(("carol", "dave", "likes"),),
        )
        successor, stats = apply_delta(toy_dataset, delta)
        expected = {
            successor.entities.index(name)
            for name in ("grace", "bob", "carol", "dave")
        }
        assert set(stats.touched_entities.tolist()) == expected
        assert list(stats.touched_entities) == sorted(stats.touched_entities)


class TestTransactionality:
    """A failing delta must leave the input dataset untouched."""

    def test_delete_of_non_train_triple_refused(self, toy_dataset):
        before = len(toy_dataset.train)
        # (dave, eve, likes) lives in the *valid* split, (carol, frank,
        # likes) in *test*; the message names the first in delta order.
        with pytest.raises(
            IngestError,
            match=re.escape("cannot delete ('dave', 'eve', 'likes'): not a training triple"),
        ):
            apply_delta(
                toy_dataset,
                GraphDelta(
                    delete_triples=(
                        ("dave", "eve", "likes"),
                        ("carol", "frank", "likes"),
                    )
                ),
            )
        assert len(toy_dataset.train) == before

    def test_delete_of_unknown_name_refused(self, toy_dataset):
        with pytest.raises(IngestError, match="cannot delete"):
            apply_delta(
                toy_dataset, GraphDelta(delete_triples=(("ghost", "bob", "likes"),))
            )

    def test_add_of_existing_triple_refused(self, toy_dataset):
        num_entities = toy_dataset.num_entities
        with pytest.raises(
            IngestError,
            match=re.escape("cannot add ('alice', 'bob', 'likes'): the dataset already contains it"),
        ):
            apply_delta(
                toy_dataset,
                GraphDelta(
                    add_triples=(
                        ("grace", "bob", "likes"),  # fine on its own
                        ("alice", "bob", "likes"),  # train duplicate
                        ("dave", "eve", "likes"),  # valid duplicate
                    )
                ),
            )
        # the partial vocab growth from the first triple did not leak
        assert toy_dataset.num_entities == num_entities

    def test_duplicate_vocab_add_refused(self, toy_dataset):
        with pytest.raises(IngestError, match="vocabulary growth failed"):
            apply_delta(toy_dataset, GraphDelta(add_entities=("alice",)))

    def test_emptying_train_refused(self, toy_dataset):
        rows = tuple(named(toy_dataset, toy_dataset.train.array))
        with pytest.raises(IngestError, match="empty"):
            apply_delta(toy_dataset, GraphDelta(delete_triples=rows))


def random_delta(
    dataset: KGDataset, rng: np.random.Generator, tag: str
) -> GraphDelta:
    """A randomized delta whose application is order-compatible with a
    from-scratch rebuild: deletions only hit train rows whose names all
    first-occur in an earlier *surviving* row (so vocabulary id order is
    preserved), additions mix existing and brand-new names."""
    train_names = named(dataset, dataset.train.array)
    seen: set[str] = set()
    deletions = []
    survivors = []
    for h, t, r in train_names:
        deletable = h in seen and t in seen and r in seen
        if deletable and rng.random() < 0.25:
            deletions.append((h, t, r))
        else:
            survivors.append((h, t, r))
            seen.update((h, t, r))

    known = set(train_names)
    for split in ("valid", "test"):
        known |= set(named(dataset, dataset.splits[split].array))
    entity_pool = dataset.entities.to_list() + [f"{tag}_n{i}" for i in range(3)]
    relation_pool = dataset.relations.to_list()
    if rng.random() < 0.5:
        relation_pool = relation_pool + [f"{tag}_rel"]
    additions = []
    added = set()
    for _ in range(12):
        h, t = rng.choice(len(entity_pool), size=2, replace=False)
        row = (
            entity_pool[h],
            entity_pool[t],
            relation_pool[int(rng.integers(len(relation_pool)))],
        )
        if row not in known and row not in added:
            additions.append(row)
            added.add(row)
    return GraphDelta(add_triples=tuple(additions), delete_triples=tuple(deletions))


def make_property_dataset(rng: np.random.Generator) -> KGDataset:
    """A random dataset whose train split covers every name (so valid/
    test introduce no vocabulary of their own and id order is purely a
    function of the train scan)."""
    entities = [f"e{i}" for i in range(24)]
    relations = [f"r{i}" for i in range(4)]
    rows: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str, str]] = set()
    # a covering chain first, so every entity/relation occurs in train
    for i in range(len(entities) - 1):
        row = (entities[i], entities[i + 1], relations[i % len(relations)])
        rows.append(row)
        seen.add(row)
    while len(rows) < 60:
        h, t = rng.choice(len(entities), size=2, replace=False)
        row = (entities[h], entities[t], relations[int(rng.integers(len(relations)))])
        if row not in seen:
            rows.append(row)
            seen.add(row)
    holdout = []
    while len(holdout) < 6:
        h, t = rng.choice(len(entities), size=2, replace=False)
        row = (entities[h], entities[t], relations[int(rng.integers(len(relations)))])
        if row not in seen:
            holdout.append(row)
            seen.add(row)
    return KGDataset.from_labeled_triples(
        rows, holdout[:3], holdout[3:], name="prop"
    )


class TestMutationStaticEquivalence:
    """apply_delta(D, δ) == from_labeled_triples(final names of D + δ)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_deltas_match_static_path(self, seed):
        rng = np.random.default_rng(seed)
        dataset = make_property_dataset(rng)
        for step in range(3):
            delta = random_delta(dataset, rng, tag=f"s{seed}b{step}")
            if delta.is_empty:
                continue
            rebuilt = rebuild_from_names(dataset, delta)
            dataset, _ = apply_delta(dataset, delta)
            assert dataset == rebuilt, f"divergence at seed={seed} step={step}"

    def test_chained_deltas_on_toy_dataset(self, toy_dataset):
        dataset = toy_dataset
        for delta in (
            GraphDelta(add_triples=(("grace", "alice", "likes"),)),
            GraphDelta(
                add_triples=(("grace", "dave", "married_to"),),
                delete_triples=(("eve", "frank", "likes"),),
            ),
        ):
            rebuilt = rebuild_from_names(dataset, delta)
            dataset, _ = apply_delta(dataset, delta)
            assert dataset == rebuilt


def assert_same_index(actual: FilterIndex, expected: FilterIndex) -> None:
    assert actual.num_entities == expected.num_entities
    assert actual.num_relations == expected.num_relations
    assert set(actual._tails) == set(expected._tails)
    assert set(actual._heads) == set(expected._heads)
    for key in expected._tails:
        np.testing.assert_array_equal(actual._tails[key], expected._tails[key])
    for key in expected._heads:
        np.testing.assert_array_equal(actual._heads[key], expected._heads[key])


class TestIncrementalFilterIndex:
    def test_successor_index_matches_from_scratch_build(self, toy_dataset):
        _ = toy_dataset.filter_index  # force the one construction site
        delta = GraphDelta(
            add_triples=(("grace", "alice", "likes"), ("bob", "dave", "married_to")),
            delete_triples=(("alice", "bob", "likes"),),
        )
        successor, _ = apply_delta(toy_dataset, delta)
        # already derived incrementally during apply — no lazy build left
        assert successor._filter_index is not None
        assert_same_index(
            successor._filter_index, FilterIndex(successor.all_triples())
        )

    def test_no_index_on_source_stays_lazy(self, toy_dataset):
        dataset = KGDataset.from_labeled_triples(
            named(toy_dataset, toy_dataset.train.array),
            named(toy_dataset, toy_dataset.valid.array),
            named(toy_dataset, toy_dataset.test.array),
        )
        assert dataset._filter_index is None
        successor, _ = apply_delta(
            dataset, GraphDelta(add_triples=(("grace", "alice", "likes"),))
        )
        assert successor._filter_index is None  # built lazily on demand

    def test_source_index_is_never_mutated(self, toy_dataset):
        source_index = toy_dataset.filter_index
        snapshot = {k: v.copy() for k, v in source_index._tails.items()}
        delta = GraphDelta(delete_triples=(("alice", "bob", "likes"),))
        apply_delta(toy_dataset, delta)
        assert set(source_index._tails) == set(snapshot)
        for key, values in snapshot.items():
            np.testing.assert_array_equal(source_index._tails[key], values)


def test_no_tuple_set_on_construction_or_delta_path(toy_dataset, monkeypatch):
    """Building a dataset, its filter index and ``all_triples()``, and
    applying a delta, check triple membership on packed int64 keys: no
    Python tuple set of the splits is built."""
    splits = [named(toy_dataset, split.array) for split in toy_dataset.splits.values()]

    def refuse(self):
        raise AssertionError("TripleSet.as_set() called")

    monkeypatch.setattr(TripleSet, "as_set", refuse)
    dataset = KGDataset.from_labeled_triples(*splits, name="toy")
    assert len(dataset.all_triples()) == 12
    index = dataset.filter_index
    delta = GraphDelta(
        add_triples=(("grace", "alice", "likes"),),
        delete_triples=(("alice", "bob", "likes"),),
    )
    successor, stats = apply_delta(dataset, delta)
    assert stats.num_added == stats.num_deleted == 1
    grace, alice, bob = (successor.entities.index(n) for n in ("grace", "alice", "bob"))
    assert successor.filter_index.contains(grace, alice, 0)
    assert not successor.filter_index.contains(alice, bob, 0)
    assert index.contains(alice, bob, 0)


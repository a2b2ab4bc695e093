"""Transactional application of a :class:`GraphDelta` to a dataset.

:func:`apply_delta` is all-or-nothing: every name is resolved and every
conflict checked against *copies* before any output object is built, so
a failing delta leaves the input dataset untouched (it is never mutated
— datasets are immutable; application produces a successor).

The successor is constructed to be indistinguishable from a from-scratch
build: applying a delta yields exactly the dataset
:meth:`~repro.kg.graph.KGDataset.from_labeled_triples` would produce
from the final triple lists (property-tested), and an empty delta
returns the *same object*, bit-identical to the static path.  The filter
index, when the source dataset has one, is derived incrementally via
:meth:`~repro.kg.graph.FilterIndex.add_triples` /
:meth:`~repro.kg.graph.FilterIndex.remove_triples` — never rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import IngestError, VocabularyError
from repro.ingest.delta import GraphDelta
from repro.kg.graph import KGDataset
from repro.kg.triples import TripleSet, in_sorted, pack_triples
from repro.kg.vocab import Vocabulary

_EMPTY_IDS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class DeltaStats:
    """What one applied delta changed, in the successor's id spaces.

    ``touched_entities`` / ``touched_relations`` are the sorted unique
    ids whose embeddings the warm-start trainer should fine-tune: every
    endpoint of an added or deleted triple plus every freshly created
    id.
    """

    num_added: int
    num_deleted: int
    new_entities: int
    new_relations: int
    touched_entities: np.ndarray
    touched_relations: np.ndarray

    def to_dict(self) -> dict:
        return {
            "num_added": self.num_added,
            "num_deleted": self.num_deleted,
            "new_entities": self.new_entities,
            "new_relations": self.new_relations,
            "touched_entities": int(len(self.touched_entities)),
            "touched_relations": int(len(self.touched_relations)),
        }


def _empty_stats() -> DeltaStats:
    return DeltaStats(0, 0, 0, 0, _EMPTY_IDS, _EMPTY_IDS)


def apply_delta(
    dataset: KGDataset, delta: GraphDelta, name: str | None = None
) -> tuple[KGDataset, DeltaStats]:
    """Apply *delta* to *dataset* transactionally; returns the successor.

    An empty delta returns ``dataset`` itself (object-identical — the
    mutation path and the static construction path coincide exactly).
    Conflicts raise :class:`~repro.errors.IngestError` before anything
    is built: deleting a triple absent from train, adding a triple any
    split already contains, or duplicate vocabulary names.
    """
    if not isinstance(delta, GraphDelta):
        raise IngestError(f"expected a GraphDelta, got {type(delta).__name__}")
    if delta.is_empty:
        return dataset, _empty_stats()

    entities = Vocabulary(dataset.entities.to_list())
    relations = Vocabulary(dataset.relations.to_list())
    old_ne, old_nr = len(entities), len(relations)
    try:
        for label in delta.add_entities:
            entities.add(label)
        for label in delta.add_relations:
            relations.add(label)
    except VocabularyError as error:
        raise IngestError(f"delta vocabulary growth failed: {error}") from None

    added = np.empty((len(delta.add_triples), 3), dtype=np.int64)
    for i, (h, t, r) in enumerate(delta.add_triples):
        added[i, 0] = entities.get_or_add(h)
        added[i, 1] = entities.get_or_add(t)
        added[i, 2] = relations.get_or_add(r)
    deleted = np.empty((len(delta.delete_triples), 3), dtype=np.int64)
    for i, (h, t, r) in enumerate(delta.delete_triples):
        try:
            deleted[i, 0] = entities.index(h)
            deleted[i, 1] = entities.index(t)
            deleted[i, 2] = relations.index(r)
        except VocabularyError as error:
            raise IngestError(
                f"cannot delete {(h, t, r)!r}: {error}"
            ) from None
    ne, nr = len(entities), len(relations)

    # Every row lies inside the successor's id spaces, so packed keys
    # over (ne, nr) are collision-free; the first offender in delta
    # order is the one named.
    train_arr = dataset.train.array
    train_keys = pack_triples(train_arr, ne, nr)
    deleted_keys = pack_triples(deleted, ne, nr)
    absent = ~in_sorted(deleted_keys, np.sort(train_keys))
    if absent.any():
        labeled = delta.delete_triples[int(np.argmax(absent))]
        raise IngestError(f"cannot delete {labeled!r}: not a training triple")
    known_keys = np.concatenate(
        [train_keys]
        + [pack_triples(split.array, ne, nr) for split in (dataset.valid, dataset.test)]
    )
    present = in_sorted(pack_triples(added, ne, nr), np.sort(known_keys))
    if present.any():
        labeled = delta.add_triples[int(np.argmax(present))]
        raise IngestError(f"cannot add {labeled!r}: the dataset already contains it")

    if len(deleted):
        train_arr = train_arr[~in_sorted(train_keys, np.sort(deleted_keys))]
    if len(added):
        train_arr = np.concatenate([train_arr, added])
    if not len(train_arr):
        raise IngestError("delta would leave the training split empty")

    # Derive the successor's filter index incrementally when the source
    # already paid for one; otherwise leave it to the lazy property (the
    # single from-scratch construction site).
    filter_index = dataset._filter_index
    if filter_index is not None:
        filter_index = filter_index.copy()
        filter_index.grow(ne, nr)
        if len(deleted):
            filter_index.remove_triples(deleted)
        if len(added):
            filter_index.add_triples(added)

    successor = KGDataset(
        entities=entities,
        relations=relations,
        train=TripleSet(train_arr, ne, nr),
        valid=TripleSet(dataset.valid.array, ne, nr),
        test=TripleSet(dataset.test.array, ne, nr),
        name=dataset.name if name is None else name,
        _filter_index=filter_index,
    )
    touched_entities = np.unique(
        np.concatenate(
            [
                added[:, :2].ravel(),
                deleted[:, :2].ravel(),
                np.arange(old_ne, ne, dtype=np.int64),
            ]
        )
    )
    touched_relations = np.unique(
        np.concatenate(
            [added[:, 2], deleted[:, 2], np.arange(old_nr, nr, dtype=np.int64)]
        )
    )
    stats = DeltaStats(
        num_added=len(added),
        num_deleted=len(deleted),
        new_entities=ne - old_ne,
        new_relations=nr - old_nr,
        touched_entities=touched_entities,
        touched_relations=touched_relations,
    )
    return successor, stats


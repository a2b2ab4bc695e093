"""Dataset container: vocabularies + train/valid/test splits + filter index.

:class:`KGDataset` is the object every trainer, evaluator and benchmark in
this repository consumes.  It bundles the entity/relation vocabularies with
the three standard splits and lazily builds the *filter index* required by
the filtered ranking protocol of Bordes et al. (2013): for each
``(h, r)`` the set of known true tails across all splits, and for each
``(t, r)`` the set of known true heads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DatasetError
from repro.kg.triples import HEAD, REL, TAIL, TripleSet, in_sorted, pack_triples
from repro.kg.vocab import Vocabulary


def _group_members(
    rows: np.ndarray, anchor: int, member: int
) -> dict[tuple[int, int], np.ndarray]:
    """Sorted unique ``rows[:, member]`` per ``(rows[:, anchor], relation)`` key.

    One stable sort over (anchor, relation, member) puts each key's
    members next to each other in ascending order; repeated rows are
    dropped in one pass, and every key's members are a slice of one
    shared int64 array.  The three columns are sorted as separate keys,
    never packed into one integer, so rows outside the id spaces (which
    :meth:`FilterIndex.remove_triples` ignores) cannot alias another key.
    """
    order = np.lexsort((rows[:, member], rows[:, REL], rows[:, anchor]))
    anchors, relations, members = (rows[order, col] for col in (anchor, REL, member))
    starts_key = np.ones(len(order), dtype=bool)
    starts_key[1:] = (anchors[1:] != anchors[:-1]) | (relations[1:] != relations[:-1])
    keep = starts_key.copy()
    keep[1:] |= members[1:] != members[:-1]
    members = members[keep]
    bounds = np.append(np.flatnonzero(starts_key[keep]), len(members)).tolist()
    keys = zip(anchors[starts_key].tolist(), relations[starts_key].tolist())
    return {key: members[lo:hi] for key, lo, hi in zip(keys, bounds[:-1], bounds[1:])}


def _sorted_insert(existing: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Merge sorted-unique *values* into sorted-unique *existing*."""
    if not len(existing):
        return values.copy()
    hit = in_sorted(values, existing)
    if hit.all():
        return existing
    return np.insert(existing, np.searchsorted(existing, values[~hit]), values[~hit])


def _sorted_remove(existing: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Drop sorted-unique *values* from sorted-unique *existing* (absent ok)."""
    hit = in_sorted(values, existing)
    if not hit.any():
        return existing
    return np.delete(existing, np.searchsorted(existing, values[hit]))


class FilterIndex:
    """Known-triple index used to filter accidental true triples when ranking.

    The index answers two queries, both returning sorted numpy id arrays:

    * :meth:`true_tails` — entities ``t'`` such that ``(h, t', r)`` is known.
    * :meth:`true_heads` — entities ``h'`` such that ``(h', t, r)`` is known.

    The lazy :attr:`KGDataset.filter_index` property is the only place an
    index is built from scratch; every path that *changes* a dataset's
    triples (delta ingestion, inverse augmentation) derives the successor
    index through :meth:`copy` + :meth:`add_triples`/:meth:`remove_triples`
    — per-key sorted-array edits instead of an O(T) rebuild.
    """

    def __init__(self, triples: TripleSet) -> None:
        self._tails = _group_members(triples.array, HEAD, TAIL)
        self._heads = _group_members(triples.array, TAIL, HEAD)
        self.num_entities = triples.num_entities
        self.num_relations = triples.num_relations

    _EMPTY = np.empty(0, dtype=np.int64)

    def true_tails(self, head: int, relation: int) -> np.ndarray:
        """Sorted ids of all known true tails of ``(head, ?, relation)``."""
        return self._tails.get((int(head), int(relation)), self._EMPTY)

    def true_heads(self, tail: int, relation: int) -> np.ndarray:
        """Sorted ids of all known true heads of ``(?, tail, relation)``."""
        return self._heads.get((int(tail), int(relation)), self._EMPTY)

    def contains(self, head: int, tail: int, relation: int) -> bool:
        """Whether ``(head, tail, relation)`` is a known true triple."""
        tails = self.true_tails(head, relation)
        pos = int(np.searchsorted(tails, tail))
        return pos < len(tails) and int(tails[pos]) == int(tail)

    # ------------------------------------------------------- incremental updates
    @staticmethod
    def _as_rows(triples) -> np.ndarray:
        rows = triples.array if isinstance(triples, TripleSet) else triples
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
        if rows.ndim != 2 or (len(rows) and rows.shape[1] != 3):
            raise DatasetError(
                f"expected (n, 3) triple rows, got shape {rows.shape}"
            )
        return rows

    def copy(self) -> "FilterIndex":
        """A shallow copy that is safe to mutate independently.

        Per-key arrays are shared with the original: the update methods
        replace whole arrays instead of writing into them, so copying is
        O(keys) and the source index never observes a mutation.
        """
        clone = object.__new__(FilterIndex)
        clone._tails = dict(self._tails)
        clone._heads = dict(self._heads)
        clone.num_entities = self.num_entities
        clone.num_relations = self.num_relations
        return clone

    def grow(self, num_entities: int | None = None, num_relations: int | None = None) -> None:
        """Expand the id spaces the index accepts (never shrinks them)."""
        if num_entities is not None:
            if num_entities < self.num_entities:
                raise DatasetError(
                    f"cannot shrink filter index entities {self.num_entities} -> {num_entities}"
                )
            self.num_entities = int(num_entities)
        if num_relations is not None:
            if num_relations < self.num_relations:
                raise DatasetError(
                    f"cannot shrink filter index relations {self.num_relations} -> {num_relations}"
                )
            self.num_relations = int(num_relations)

    def _update(self, rows: np.ndarray, op) -> None:
        for mapping, anchor, member in ((self._tails, HEAD, TAIL), (self._heads, TAIL, HEAD)):
            for key, values in _group_members(rows, anchor, member).items():
                updated = op(mapping.get(key, self._EMPTY), values)
                if len(updated):
                    mapping[key] = updated
                else:
                    # Mirror from-scratch construction: no empty keys.
                    mapping.pop(key, None)

    def add_triples(self, triples) -> None:
        """Register *triples* as known — per-key sorted insert, no rebuild."""
        rows = self._as_rows(triples)
        if not len(rows):
            return
        if rows.min() < 0 or rows[:, :2].max() >= self.num_entities or (
            rows[:, 2].max() >= self.num_relations
        ):
            raise DatasetError(
                f"triple ids out of range for filter index over "
                f"{self.num_entities} entities / {self.num_relations} relations"
            )
        self._update(rows, _sorted_insert)

    def remove_triples(self, triples) -> None:
        """Forget *triples* — per-key sorted removal; absent triples are ignored.

        Keys whose last member is removed are deleted outright, so an
        incrementally maintained index is structurally identical to one
        rebuilt from the surviving triples.
        """
        rows = self._as_rows(triples)
        if not len(rows):
            return
        self._update(rows, _sorted_remove)


@dataclass
class KGDataset:
    """A knowledge graph dataset with train/valid/test splits.

    Attributes
    ----------
    entities, relations:
        Vocabularies; ``len(entities)`` and ``len(relations)`` define the id
        spaces shared by all three splits.
    train, valid, test:
        The splits as :class:`TripleSet` instances over those id spaces.
    name:
        Human-readable dataset name used in logs and benchmark output.
    """

    entities: Vocabulary
    relations: Vocabulary
    train: TripleSet
    valid: TripleSet
    test: TripleSet
    name: str = "unnamed"
    _filter_index: FilterIndex | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        ne, nr = len(self.entities), len(self.relations)
        for split_name, split in self.splits.items():
            if split.num_entities > ne or split.num_relations > nr:
                raise DatasetError(
                    f"split {split_name!r} references ids outside the vocabularies "
                    f"({split.num_entities} entities / {split.num_relations} relations "
                    f"vs {ne} / {nr})"
                )
        if len(self.train) == 0:
            raise DatasetError("training split must be non-empty")
        train_keys = np.sort(pack_triples(self.train.array, ne, nr))
        for split_name, split in (("valid", self.valid), ("test", self.test)):
            keys = pack_triples(split.array, ne, nr)
            overlap = len(np.unique(keys[in_sorted(keys, train_keys)]))
            if overlap:
                raise DatasetError(
                    f"{overlap} triples appear in both train and {split_name}; "
                    "splits must be disjoint"
                )

    # ------------------------------------------------------------------ basics
    @property
    def num_entities(self) -> int:
        """Size of the entity id space."""
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        """Size of the relation id space."""
        return len(self.relations)

    @property
    def splits(self) -> dict[str, TripleSet]:
        """Mapping of split name to :class:`TripleSet`."""
        return {"train": self.train, "valid": self.valid, "test": self.test}

    def all_triples(self) -> TripleSet:
        """Union of all three splits (with duplicates removed)."""
        return self.train.concat(self.valid).concat(self.test).deduplicate()

    @property
    def filter_index(self) -> FilterIndex:
        """Filter index over *all* splits, built lazily and cached."""
        if self._filter_index is None:
            self._filter_index = FilterIndex(self.all_triples())
        return self._filter_index

    def __repr__(self) -> str:
        return (
            f"KGDataset(name={self.name!r}, entities={self.num_entities}, "
            f"relations={self.num_relations}, train={len(self.train)}, "
            f"valid={len(self.valid)}, test={len(self.test)})"
        )

    # ------------------------------------------------------------- constructors
    @classmethod
    def from_labeled_triples(
        cls,
        train: list[tuple[str, str, str]],
        valid: list[tuple[str, str, str]],
        test: list[tuple[str, str, str]],
        name: str = "unnamed",
    ) -> "KGDataset":
        """Build a dataset from ``(head, tail, relation)`` *name* triples.

        Vocabularies are constructed from the union of all splits, in first
        occurrence order over train, then valid, then test.
        """
        entities = Vocabulary()
        relations = Vocabulary()
        split_arrays = []
        for labeled in (train, valid, test):
            rows = np.empty((len(labeled), 3), dtype=np.int64)
            for i, (h, t, r) in enumerate(labeled):
                rows[i, 0] = entities.get_or_add(h)
                rows[i, 1] = entities.get_or_add(t)
                rows[i, 2] = relations.get_or_add(r)
            split_arrays.append(rows)
        ne, nr = len(entities), len(relations)
        return cls(
            entities=entities,
            relations=relations,
            train=TripleSet(split_arrays[0], ne, nr),
            valid=TripleSet(split_arrays[1], ne, nr),
            test=TripleSet(split_arrays[2], ne, nr),
            name=name,
        )


def split_triples(
    triples: TripleSet,
    valid_fraction: float,
    test_fraction: float,
    rng: np.random.Generator,
) -> tuple[TripleSet, TripleSet, TripleSet]:
    """Randomly split *triples* into train/valid/test.

    The split is by uniform permutation; callers that need every entity to
    appear in train (the usual requirement so that test entities have
    trained embeddings) should use
    :func:`repro.kg.synthetic.generate_synthetic_kg`, which enforces it.
    """
    if not 0.0 <= valid_fraction < 1.0 or not 0.0 <= test_fraction < 1.0:
        raise DatasetError("split fractions must lie in [0, 1)")
    if valid_fraction + test_fraction >= 1.0:
        raise DatasetError("valid + test fractions must leave room for train")
    n = len(triples)
    order = rng.permutation(n)
    n_valid = int(round(n * valid_fraction))
    n_test = int(round(n * test_fraction))
    valid_idx = order[:n_valid]
    test_idx = order[n_valid : n_valid + n_test]
    train_idx = order[n_valid + n_test :]
    return triples.subset(train_idx), triples.subset(valid_idx), triples.subset(test_idx)

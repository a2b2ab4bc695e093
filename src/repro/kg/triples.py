"""Numpy-backed triple store.

A :class:`TripleSet` holds an ``(n, 3)`` array of ``(head, tail, relation)``
integer ids.  The column order follows the paper's notation ``(h, t, r)``.
The store is immutable: all transforming operations return new instances,
which keeps dataset splits safe to share between models.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import TripleError

#: Column positions inside the triple array.
HEAD, TAIL, REL = 0, 1, 2


def _as_triple_array(triples: object) -> np.ndarray:
    """Validate and canonicalise raw input into an ``(n, 3)`` int64 array."""
    arr = np.asarray(triples, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise TripleError(f"triples must have shape (n, 3), got {arr.shape}")
    if (arr < 0).any():
        raise TripleError("triple ids must be non-negative")
    return arr


def pack_triples(rows: np.ndarray, num_entities: int, num_relations: int) -> np.ndarray:
    """Collision-free int64 key per ``(h, t, r)`` row.

    Keys are distinct exactly when rows are, provided every row lies
    inside the given id spaces (entity ids below *num_entities*,
    relation ids below *num_relations*); callers pack only rows already
    validated against one shared pair of sizes.  Membership and
    deduplication then run on one int64 array instead of a set of
    Python tuples.
    """
    if int(num_entities) ** 2 * int(num_relations) > np.iinfo(np.int64).max:
        raise TripleError(
            f"id spaces of {num_entities} entities / {num_relations} relations "
            "are too large to pack triples into int64 keys"
        )
    rows = np.asarray(rows, dtype=np.int64)
    return (rows[:, HEAD] * num_entities + rows[:, TAIL]) * num_relations + rows[:, REL]


def in_sorted(values: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the *values* that occur in ascending *sorted_keys*.

    One binary search per value; unlike :func:`numpy.isin` it never
    re-sorts *sorted_keys*, so a key array sorted once serves many probes.
    """
    if not len(sorted_keys):
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(sorted_keys, values)
    return (pos < len(sorted_keys)) & (
        sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == values
    )


class TripleSet:
    """An immutable set of ``(h, t, r)`` triples backed by a numpy array.

    Parameters
    ----------
    triples:
        Anything convertible to an ``(n, 3)`` integer array.
    num_entities, num_relations:
        Optional bounds.  When given, every id is validated against them;
        when omitted they are inferred as ``max + 1``.
    """

    def __init__(
        self,
        triples: object,
        num_entities: int | None = None,
        num_relations: int | None = None,
    ) -> None:
        arr = _as_triple_array(triples)
        arr.setflags(write=False)
        self._arr = arr
        inferred_e = int(arr[:, :2].max()) + 1 if len(arr) else 0
        inferred_r = int(arr[:, REL].max()) + 1 if len(arr) else 0
        self.num_entities = inferred_e if num_entities is None else int(num_entities)
        self.num_relations = inferred_r if num_relations is None else int(num_relations)
        if self.num_entities < inferred_e:
            raise TripleError(
                f"entity id {inferred_e - 1} out of range for num_entities={self.num_entities}"
            )
        if self.num_relations < inferred_r:
            raise TripleError(
                f"relation id {inferred_r - 1} out of range for num_relations={self.num_relations}"
            )

    # ------------------------------------------------------------------ views
    @property
    def array(self) -> np.ndarray:
        """The underlying read-only ``(n, 3)`` int64 array."""
        return self._arr

    @property
    def heads(self) -> np.ndarray:
        """Head entity ids, shape ``(n,)``."""
        return self._arr[:, HEAD]

    @property
    def tails(self) -> np.ndarray:
        """Tail entity ids, shape ``(n,)``."""
        return self._arr[:, TAIL]

    @property
    def relations(self) -> np.ndarray:
        """Relation ids, shape ``(n,)``."""
        return self._arr[:, REL]

    def __len__(self) -> int:
        return len(self._arr)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        for h, t, r in self._arr:
            yield int(h), int(t), int(r)

    def __contains__(self, triple: object) -> bool:
        try:
            h, t, r = triple  # type: ignore[misc]
        except (TypeError, ValueError):
            return False
        return (int(h), int(t), int(r)) in self.as_set()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleSet):
            return NotImplemented
        return (
            self._arr.shape == other._arr.shape
            and bool(np.array_equal(self._arr, other._arr))
            and self.num_entities == other.num_entities
            and self.num_relations == other.num_relations
        )

    def __repr__(self) -> str:
        return (
            f"TripleSet(n={len(self)}, num_entities={self.num_entities}, "
            f"num_relations={self.num_relations})"
        )

    # -------------------------------------------------------------- transforms
    def _like(self, arr: np.ndarray) -> "TripleSet":
        return TripleSet(arr, self.num_entities, self.num_relations)

    def concat(self, other: "TripleSet") -> "TripleSet":
        """Concatenate two triple sets over the same id spaces."""
        if (other.num_entities, other.num_relations) != (self.num_entities, self.num_relations):
            raise TripleError("cannot concat TripleSets with different id spaces")
        return self._like(np.concatenate([self._arr, other._arr], axis=0))

    def deduplicate(self) -> "TripleSet":
        """Drop duplicate triples, preserving first-occurrence order."""
        keys = pack_triples(self._arr, self.num_entities, self.num_relations)
        _, first = np.unique(keys, return_index=True)
        return self._like(self._arr[np.sort(first)])

    def shuffled(self, rng: np.random.Generator) -> "TripleSet":
        """Return a row-permuted copy using *rng*."""
        return self._like(self._arr[rng.permutation(len(self._arr))])

    def subset(self, mask_or_indices: np.ndarray) -> "TripleSet":
        """Select rows by boolean mask or integer indices."""
        return self._like(self._arr[np.asarray(mask_or_indices)])

    def with_relations_filtered(self, relation_ids: Iterable[int]) -> "TripleSet":
        """Keep only triples whose relation id is in *relation_ids*."""
        keep = np.isin(self._arr[:, REL], np.fromiter(relation_ids, dtype=np.int64))
        return self._like(self._arr[keep])

    def inverted(self, relation_offset: int) -> "TripleSet":
        """Return the inverse triples ``(t, h, r + relation_offset)``.

        This is the raw operation behind the CPh data-augmentation heuristic
        (Lacroix et al. 2018); see :mod:`repro.kg.augment` for the full
        augmentation that also grows the relation vocabulary.
        """
        inv = self._arr[:, [TAIL, HEAD, REL]].copy()
        inv[:, REL] += relation_offset
        return TripleSet(inv, self.num_entities, self.num_relations + relation_offset)

    # ----------------------------------------------------------------- indexes
    def as_set(self) -> frozenset[tuple[int, int, int]]:
        """All triples as a frozenset of python tuples (cached)."""
        cached = getattr(self, "_tuple_set", None)
        if cached is None:
            cached = frozenset(map(tuple, self._arr.tolist()))
            object.__setattr__(self, "_tuple_set", cached)
        return cached

    def entity_degree(self) -> np.ndarray:
        """Number of triples each entity participates in (head or tail)."""
        deg = np.zeros(self.num_entities, dtype=np.int64)
        np.add.at(deg, self.heads, 1)
        np.add.at(deg, self.tails, 1)
        return deg

    def relation_frequency(self) -> np.ndarray:
        """Number of triples per relation id."""
        freq = np.zeros(self.num_relations, dtype=np.int64)
        np.add.at(freq, self.relations, 1)
        return freq

    @classmethod
    def empty(cls, num_entities: int, num_relations: int) -> "TripleSet":
        """An empty triple set over the given id spaces."""
        return cls(np.empty((0, 3), dtype=np.int64), num_entities, num_relations)

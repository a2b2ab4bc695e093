"""The vectorised :meth:`IVFIndex.update_entities` against its per-cell loop.

:func:`tests.index.ivf_reference.reference_update_entities` is the
splice this method replaced: an ``np.isin`` per cell and a set per
entity to measure drift, then a filter, concatenate and sort per cell.
Over random partitions — spill 1 to 3, PQ on and off, duplicate rows
that leave cells empty, dirty sets with new entities, thresholds that
trip the rebuild — both must leave the same members, offsets, codes and
version, and report the same drift.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import make_complex
from repro.index.ivf import IVFIndex
from repro.index.pq import PQConfig
from tests.index.ivf_reference import reference_update_entities

pytestmark = pytest.mark.index


def updated_twins(
    num_entities, nlist, spill, pq, distinct_rows, new, dirty_old, move, threshold, seed
):
    """Build an index, move and grow the model, then update one twin of
    it with the method and one with the reference loop."""
    rng = np.random.default_rng(seed)
    model = make_complex(num_entities, 2, 8, rng)
    if distinct_rows:
        # Few distinct rows: k-means ties everywhere, and cells go empty.
        table = model.entity_embeddings
        table[:] = table[rng.integers(0, distinct_rows, size=num_entities)]
    index = IVFIndex(
        model,
        nlist=nlist,
        spill=spill,
        seed=seed,
        pq=PQConfig(m=4, iters=2, seed=seed) if pq else None,
    )
    index.build()
    if new:
        model.grow(num_entities + new, rng=rng)
    dirty_old = np.asarray(dirty_old, dtype=np.int64)
    model.entity_embeddings[dirty_old] += move * rng.normal(
        size=(len(dirty_old),) + model.entity_embeddings.shape[1:]
    )
    model._bump_scoring_version()
    dirty = np.concatenate([dirty_old, np.arange(num_entities, num_entities + new)])
    ours, theirs = index.bound_to(model), index.bound_to(model)
    report = ours.update_entities(dirty, drift_threshold=threshold)
    expected = reference_update_entities(theirs, dirty, drift_threshold=threshold)
    return index, ours, theirs, report, expected


def assert_same_update(ours, theirs, report, expected):
    mine, reference = report.to_dict(), expected.to_dict()
    del mine["seconds"], reference["seconds"]
    assert mine == reference
    assert ours.built_partitions == theirs.built_partitions
    assert (ours.rebuilds, ours.built_version) == (theirs.rebuilds, theirs.built_version)
    for key in ours.built_partitions:
        got, want = ours._partitions[key], theirs._partitions[key]
        assert got.centroids is want.centroids
        for name in ("members", "offsets", "codes"):
            left, right = getattr(got, name), getattr(want, name)
            if right is None:
                assert left is None
                continue
            assert (left.dtype, left.shape) == (right.dtype, right.shape), name
            assert left.tobytes() == right.tobytes(), name


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    num_entities=st.integers(12, 60),
    spill=st.integers(1, 3),
    pq=st.booleans(),
    distinct_rows=st.sampled_from([0, 2, 3]),
    new=st.integers(0, 4),
    move=st.sampled_from([0.0, 0.05, 1.0]),
    threshold=st.sampled_from([0.05, 0.3, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_update_equals_the_reference_loop(
    data, num_entities, spill, pq, distinct_rows, new, move, threshold, seed
):
    nlist = data.draw(st.integers(1, 8))
    dirty_old = data.draw(st.lists(st.integers(0, num_entities - 1), max_size=20))
    _, ours, theirs, report, expected = updated_twins(
        num_entities, nlist, spill, pq, distinct_rows, new, dirty_old, move, threshold, seed
    )
    assert_same_update(ours, theirs, report, expected)


class TestCoveredCases:
    """Fixed cases that must each reach the situation they name."""

    @pytest.mark.parametrize("spill", [1, 2, 3])
    def test_splice_with_new_entities(self, spill):
        index, ours, theirs, report, expected = updated_twins(
            40, 6, spill, True, 0, 3, [1, 5, 5, 17, 39], 0.05, 1.0, 7
        )
        assert report.new_entities == 3 and not report.rebuild_triggered
        assert report.partitions_updated == 4
        assert_same_update(ours, theirs, report, expected)

    def test_empty_cells(self):
        index, ours, theirs, report, expected = updated_twins(
            30, 8, 1, False, 2, 2, [0, 3, 4, 29], 1.0, 1.0, 3
        )
        assert any((part.cell_sizes() == 0).any() for part in index._partitions.values())
        assert not report.rebuild_triggered
        assert_same_update(ours, theirs, report, expected)

    def test_drift_trips_the_rebuild(self):
        index, ours, theirs, report, expected = updated_twins(
            50, 8, 2, True, 0, 1, list(range(0, 50, 2)), 1.0, 0.05, 11
        )
        assert report.rebuild_triggered and report.drift > 0.05
        assert not ours.built_partitions
        assert_same_update(ours, theirs, report, expected)

    def test_the_original_index_is_never_written(self):
        index, ours, _, report, _ = updated_twins(
            40, 6, 2, True, 0, 2, [2, 3, 4], 0.05, 1.0, 5
        )
        assert not report.rebuild_triggered
        for key, partition in index._partitions.items():
            assert ours._partitions[key] is not partition
            assert len(partition.members) == 40 * 2

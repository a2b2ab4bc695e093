"""IVF index mechanics: determinism, probing, staleness, persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models import make_complex
from repro.errors import ServingError, StaleIndexError
from repro.index.base import load_index, model_fingerprint
from repro.index.exact import ExactIndex
from repro.index.ivf import IVFIndex, deterministic_kmeans

pytestmark = pytest.mark.index


@pytest.fixture
def model():
    return make_complex(150, 4, 16, np.random.default_rng(5))


class TestKMeans:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(200, 8))
        a = deterministic_kmeans(points, 12, seed=3, iters=7)
        b = deterministic_kmeans(points, 12, seed=3, iters=7)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_result(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(200, 8))
        a = deterministic_kmeans(points, 12, seed=3)
        b = deterministic_kmeans(points, 12, seed=4)
        assert not np.array_equal(a, b)

    def test_rejects_bad_nlist(self):
        points = np.zeros((5, 2))
        with pytest.raises(ServingError):
            deterministic_kmeans(points, 6)
        with pytest.raises(ServingError):
            deterministic_kmeans(points, 0)

    def test_duplicate_points_keep_cells_stable(self):
        # All-identical points: every assignment collapses into cell 0's
        # centroid position; empty cells keep their initial centroid.
        points = np.ones((30, 4))
        centroids = deterministic_kmeans(points, 3, seed=1, iters=5)
        assert centroids.shape == (3, 4)
        assert np.isfinite(centroids).all()


class TestCandidateLists:
    def test_rows_ascend_and_are_deterministic(self, model):
        index = IVFIndex(model, nlist=12, nprobe=3, spill=2, seed=1)
        anchors = np.array([3, 7, 7, 11])
        relations = np.array([0, 1, 1, 2])
        batch = index.candidate_lists(anchors, relations, "tail")
        assert not batch.covers_all
        assert batch.num_scored == sum(len(row) for row in batch.rows)
        for row in batch.rows:
            assert (np.diff(row) > 0).all()
        again = IVFIndex(model, nlist=12, nprobe=3, spill=2, seed=1)
        batch2 = again.candidate_lists(anchors, relations, "tail")
        for left, right in zip(batch.rows, batch2.rows):
            np.testing.assert_array_equal(left, right)

    def test_identical_queries_get_identical_rows(self, model):
        index = IVFIndex(model, nlist=12, nprobe=3)
        batch = index.candidate_lists([7, 7], [1, 1], "tail")
        np.testing.assert_array_equal(batch.rows[0], batch.rows[1])

    def test_full_probe_covers_all(self, model):
        index = IVFIndex(model, nlist=12, nprobe=12)
        batch = index.candidate_lists([0], [0], "tail")
        assert batch.covers_all
        assert batch.rows is None
        assert batch.num_scored == model.num_entities

    def test_nprobe_setter_and_bounds(self, model):
        index = IVFIndex(model, nlist=12, nprobe=3)
        index.nprobe = 1
        small = index.candidate_lists([0], [0], "tail")
        index.nprobe = 6
        large = index.candidate_lists([0], [0], "tail")
        assert len(small.rows[0]) <= len(large.rows[0])
        with pytest.raises(ServingError):
            index.nprobe = 0
        with pytest.raises(ServingError):
            index.nprobe = 13

    def test_spill_grows_cells(self, model):
        lean = IVFIndex(model, nlist=12, nprobe=2, spill=1)
        wide = IVFIndex(model, nlist=12, nprobe=2, spill=3)
        lean_rows = lean.candidate_lists([5], [0], "tail").rows[0]
        wide_rows = wide.candidate_lists([5], [0], "tail").rows[0]
        assert len(wide_rows) >= len(lean_rows)

    def test_rejects_unknown_relation(self, model):
        index = IVFIndex(model, nlist=12)
        with pytest.raises(ServingError):
            index.candidate_lists([0], [model.num_relations], "tail")


class TestStaleness:
    def test_rebuild_policy_drops_partitions(self, model):
        index = IVFIndex(model, nlist=12, nprobe=3)
        index.candidate_lists([0], [0], "tail")
        assert index.built_partitions
        model.entity_embeddings[0] += 1.0
        model._bump_scoring_version()
        batch = index.candidate_lists([0], [0], "tail")
        assert index.rebuilds == 1
        assert batch.rows is not None

    def test_error_policy_refuses(self, model):
        index = IVFIndex(model, nlist=12, nprobe=3, on_stale="error")
        index.candidate_lists([0], [0], "tail")
        model._bump_scoring_version()
        with pytest.raises(StaleIndexError):
            index.candidate_lists([0], [0], "tail")

    def test_training_triggers_staleness(self, model):
        """A real resumed train step must invalidate the index."""
        from repro.nn.optimizers import make_optimizer

        index = IVFIndex(model, nlist=12, nprobe=3)
        before = index.candidate_lists([0], [0], "tail")
        positives = np.array([[0, 1, 0], [2, 3, 1]])
        negatives = np.array([[0, 5, 0], [2, 9, 1]])
        model.train_step(positives, negatives, make_optimizer("adam", 0.05))
        index.candidate_lists([0], [0], "tail")
        assert index.rebuilds == 1
        assert index.built_version == model.scoring_version
        del before


class TestBoundTo:
    def test_twin_shares_partitions_and_never_writes_the_original(self, model, monkeypatch):
        from repro.core.serialization import model_from_state, model_state

        index = IVFIndex(model, nlist=12, nprobe=3, spill=2, seed=1)
        index.build(sides=("tail",))
        twin_model = model_from_state(*model_state(model))
        # Reads of the original may increment its counters meanwhile, so
        # binding must not write the registry the twin shares.
        monkeypatch.setattr(index.metrics, "inc", lambda *args: pytest.fail("inc"))
        twin = index.bound_to(twin_model)
        monkeypatch.undo()
        assert twin.model is twin_model and twin.metrics is index.metrics
        assert twin.built_version == twin_model.scoring_version  # as fresh
        assert all(twin._partitions[key] is part for key, part in index._partitions.items())
        np.testing.assert_array_equal(
            twin.candidate_lists([0], [0], "tail").ids, index.candidate_lists([0], [0], "tail").ids
        )
        before = {key: part.members.copy() for key, part in index._partitions.items()}
        twin_model.grow(model.num_entities + 3, rng=np.random.default_rng(0))
        twin.update_entities(np.arange(model.num_entities, model.num_entities + 3))
        twin.invalidate()
        assert not twin.built_partitions
        assert index.built_partitions == tuple(sorted(before))
        for key, members in before.items():
            np.testing.assert_array_equal(index._partitions[key].members, members)


class TestBuildFanOut:
    def test_eager_build_covers_all_partitions(self, model):
        index = IVFIndex(model, nlist=12)
        report = index.build()
        assert report.partitions_built == model.num_relations * 2
        assert len(index.built_partitions) == model.num_relations * 2
        again = index.build()
        assert again.partitions_built == 0
        assert again.partitions_reused == model.num_relations * 2

    def test_worker_build_matches_in_process(self, model):
        serial = IVFIndex(model, nlist=12, seed=2)
        serial.build(sides=("tail",))
        pooled = IVFIndex(model, nlist=12, seed=2)
        pooled.build(sides=("tail",), workers=2)
        assert serial.built_partitions == pooled.built_partitions
        for key in serial.built_partitions:
            np.testing.assert_array_equal(
                serial._partitions[key].centroids, pooled._partitions[key].centroids
            )
            np.testing.assert_array_equal(
                serial._partitions[key].members, pooled._partitions[key].members
            )


class TestPersistence:
    def test_round_trip(self, model, tmp_path):
        index = IVFIndex(model, nlist=12, nprobe=4, spill=2, seed=3)
        index.build(sides=("tail",))
        index.save(tmp_path / "ix")
        loaded = load_index(tmp_path / "ix", model)
        assert isinstance(loaded, IVFIndex)
        assert (loaded.nlist, loaded.nprobe, loaded.spill) == (12, 4, 2)
        assert loaded.built_partitions == index.built_partitions
        a = index.candidate_lists([1, 2], [0, 3], "tail")
        b = loaded.candidate_lists([1, 2], [0, 3], "tail")
        for left, right in zip(a.rows, b.rows):
            np.testing.assert_array_equal(left, right)

    def test_fingerprint_mismatch_rebuilds(self, model, tmp_path):
        index = IVFIndex(model, nlist=12)
        index.build(sides=("tail",))
        index.save(tmp_path / "ix")
        model.entity_embeddings[0] += 1.0
        loaded = load_index(tmp_path / "ix", model)
        assert loaded.built_partitions == ()  # stale data discarded

    def test_fingerprint_mismatch_errors_when_asked(self, model, tmp_path):
        index = IVFIndex(model, nlist=12)
        index.save(tmp_path / "ix")
        model.entity_embeddings[0] += 1.0
        with pytest.raises(StaleIndexError):
            load_index(tmp_path / "ix", model, on_stale="error")

    def test_wrong_model_is_an_error(self, model, tmp_path):
        index = IVFIndex(model, nlist=12)
        index.save(tmp_path / "ix")
        other = make_complex(99, 4, 16, np.random.default_rng(5))
        with pytest.raises(ServingError):
            load_index(tmp_path / "ix", other)

    def test_fingerprint_tracks_parameters(self, model):
        before = model_fingerprint(model)
        model.relation_embeddings[0] += 1e-12
        assert model_fingerprint(model) != before


class TestExactIndex:
    def test_always_covers_all(self, model):
        index = ExactIndex(model)
        batch = index.candidate_lists([0, 1], [0, 1], "tail")
        assert batch.covers_all
        assert batch.num_scored == 2 * model.num_entities

    def test_never_stale(self, model):
        index = ExactIndex(model, on_stale="error")
        model._bump_scoring_version()
        index.candidate_lists([0], [0], "tail")  # must not raise

    def test_round_trip(self, model, tmp_path):
        ExactIndex(model).save(tmp_path / "ix")
        loaded = load_index(tmp_path / "ix", model)
        assert isinstance(loaded, ExactIndex)

    def test_build_is_a_noop(self, model):
        report = ExactIndex(model).build()
        assert report.partitions_built == 0

"""Equivalence properties: batched serving == brute-force per-triple scoring.

For every model class the repository ships, the serving layer's batched
``LinkPredictor.top_k_*`` results must exactly match a reference ranking
computed from one-at-a-time ``score_triples`` calls, with ties broken
toward the lower entity id — including on deliberately tied score
vectors, where the stable ordering corresponds to the ``optimistic``
rank of :mod:`repro.eval.ranking` for the first entity of a tie group.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ERMLP, RESCAL, TransE
from repro.core.direct import score_candidates_direct
from repro.core.models import (
    make_complex,
    make_distmult,
    make_learned_weight_model,
    make_quaternion,
)
from repro.eval.ranking import rank_of_true
from repro.serving import LinkPredictor

NUM_ENTITIES, NUM_RELATIONS, BUDGET = 40, 6, 8


def _model_zoo():
    rng = np.random.default_rng(7)
    return {
        "distmult": make_distmult(NUM_ENTITIES, NUM_RELATIONS, BUDGET, rng),
        "complex": make_complex(NUM_ENTITIES, NUM_RELATIONS, BUDGET, rng),
        "quaternion": make_quaternion(NUM_ENTITIES, NUM_RELATIONS, BUDGET, rng),
        "learned": make_learned_weight_model(NUM_ENTITIES, NUM_RELATIONS, BUDGET, rng),
        "transe": TransE(NUM_ENTITIES, NUM_RELATIONS, BUDGET, rng),
        "rescal": RESCAL(NUM_ENTITIES, NUM_RELATIONS, BUDGET, rng),
        "er_mlp": ERMLP(NUM_ENTITIES, NUM_RELATIONS, BUDGET, rng),
    }


MODELS = _model_zoo()


def brute_force_scores(model, anchors, relations, side):
    """(b, N) scores from independent per-triple ``score_triples`` calls."""
    candidates = np.arange(model.num_entities, dtype=np.int64)
    return score_candidates_direct(model, anchors, relations, candidates, side)


def brute_force_top_k(model, anchors, relations, k, side):
    """Reference top-k: descending score, ties toward the lower id."""
    scores = brute_force_scores(model, anchors, relations, side)
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(scores, order, axis=1)


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(11)
    anchors = rng.integers(0, NUM_ENTITIES, 5)
    relations = rng.integers(0, NUM_RELATIONS, 5)
    return anchors, relations


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("side", ["tail", "head"])
class TestTopKMatchesBruteForce:
    def test_full_sweep_top_k(self, name, side, queries):
        model = MODELS[name]
        anchors, relations = queries
        predictor = LinkPredictor(model)
        k = 7
        if side == "tail":
            got = predictor.top_k(anchors, relations, side="tail", k=k)
        else:
            got = predictor.top_k(anchors, relations, side="head", k=k)
        want_ids, want_scores = brute_force_top_k(model, anchors, relations, k, side)
        assert np.array_equal(got.ids, want_ids), name
        np.testing.assert_allclose(got.scores, want_scores, atol=1e-9)

    def test_candidate_restricted_top_k(self, name, side, queries):
        model = MODELS[name]
        anchors, relations = queries
        rng = np.random.default_rng(13)
        # Deliberately unsorted: result order must not depend on how the
        # caller happened to order the candidate shortlist.
        candidates = rng.permutation(np.unique(rng.integers(0, NUM_ENTITIES, 15)))
        predictor = LinkPredictor(model)
        k = 4
        if side == "tail":
            got = predictor.top_k(anchors, relations, side="tail", k=k, candidates=candidates)
        else:
            got = predictor.top_k(anchors, relations, side="head", k=k, candidates=candidates)
        ref = score_candidates_direct(model, anchors, relations, candidates, side)
        for row in range(len(anchors)):
            # Independent reference: descending score, ties by lower id.
            want = sorted(
                zip(ref[row], candidates), key=lambda pair: (-pair[0], pair[1])
            )[:k]
            assert list(got.ids[row]) == [int(c) for _, c in want], name
            np.testing.assert_allclose(
                got.scores[row], [s for s, _ in want], atol=1e-9
            )

    def test_score_candidates_fast_path_matches_direct(self, name, side, queries):
        model = MODELS[name]
        anchors, relations = queries
        rng = np.random.default_rng(17)
        candidates = rng.integers(0, NUM_ENTITIES, (len(anchors), 9))
        fast = model.score_candidates(anchors, relations, candidates, side)
        ref = score_candidates_direct(model, anchors, relations, candidates, side)
        np.testing.assert_allclose(fast, ref, atol=1e-9)


@pytest.mark.parametrize("name", list(MODELS))
def test_relation_top_k_matches_brute_force(name, queries):
    model = MODELS[name]
    anchors, _ = queries
    rng = np.random.default_rng(19)
    tails = rng.integers(0, NUM_ENTITIES, len(anchors))
    predictor = LinkPredictor(model)
    got = predictor.top_k(anchors, tails, side="relation", k=3)
    scores = np.empty((len(anchors), model.num_relations))
    for row in range(len(anchors)):
        for rel in range(model.num_relations):
            scores[row, rel] = model.score_triples(
                np.array([anchors[row]]), np.array([tails[row]]), np.array([rel])
            )[0]
    order = np.argsort(-scores, axis=1, kind="stable")[:, :3]
    assert np.array_equal(got.ids, order)


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("side", ["tail", "head", "relation"])
def test_served_scores_are_the_models_own(name, side):
    """Serving scores through the model itself: every returned score is
    bit-identical to the model's own sweep (or triple scores) on the same
    batch, which is what evaluation ranks with."""
    model = MODELS[name]
    rng = np.random.default_rng(31)
    anchors = rng.integers(0, NUM_ENTITIES, 16)
    relations = rng.integers(0, NUM_RELATIONS, 16)
    predictor = LinkPredictor(model, cache_size=0)
    if side == "relation":
        tails = rng.integers(0, NUM_ENTITIES, 16)
        got = predictor.top_k(anchors, tails, side="relation", k=NUM_RELATIONS)
        scores = model.score_triples(
            np.repeat(anchors, NUM_RELATIONS),
            np.repeat(tails, NUM_RELATIONS),
            np.tile(np.arange(NUM_RELATIONS), len(anchors)),
        ).reshape(len(anchors), NUM_RELATIONS)
    else:
        got = predictor.top_k(anchors, relations, side=side, k=NUM_ENTITIES)
        sweep = model.score_all_tails if side == "tail" else model.score_all_heads
        scores = sweep(anchors, relations)
    assert np.array_equal(got.scores, np.take_along_axis(scores, got.ids, axis=1))


class TestTieEdgeCases:
    """Deliberate ties: duplicated embeddings force exactly-equal scores."""

    def _tied_model(self):
        model = make_complex(NUM_ENTITIES, NUM_RELATIONS, BUDGET, np.random.default_rng(23))
        # Entities 4, 9 and 17 become indistinguishable -> tied everywhere.
        model.entity_embeddings[9] = model.entity_embeddings[4]
        model.entity_embeddings[17] = model.entity_embeddings[4]
        return model

    def test_tied_candidates_ordered_by_id(self):
        model = self._tied_model()
        predictor = LinkPredictor(model)
        anchors = np.array([0, 1, 2])
        relations = np.array([0, 1, 2])
        top = predictor.top_k(anchors, relations, side="tail", k=NUM_ENTITIES)
        for row in range(len(anchors)):
            positions = {int(e): int(np.flatnonzero(top.ids[row] == e)[0]) for e in (4, 9, 17)}
            assert positions[4] < positions[9] < positions[17]
            tied_scores = [top.scores[row][positions[e]] for e in (4, 9, 17)]
            assert tied_scores[0] == tied_scores[1] == tied_scores[2]

    def test_stable_position_is_optimistic_rank_for_first_of_tie_group(self):
        model = self._tied_model()
        predictor = LinkPredictor(model)
        anchors = np.array([3])
        relations = np.array([1])
        top = predictor.top_k(anchors, relations, side="tail", k=NUM_ENTITIES)
        scores = brute_force_scores(model, anchors, relations, "tail")[0]
        # Entity 4 is the lowest id of its tie group, so its top-k position
        # (1-based) equals its optimistic rank; entity 17 is the highest id,
        # matching the pessimistic rank (eval/ranking.py conventions).
        pos4 = int(np.flatnonzero(top.ids[0] == 4)[0]) + 1
        pos17 = int(np.flatnonzero(top.ids[0] == 17)[0]) + 1
        assert pos4 == rank_of_true(scores, 4, tie_policy="optimistic")
        assert pos17 == rank_of_true(scores, 17, tie_policy="pessimistic")

    def test_candidate_path_ties_break_by_id_not_position(self):
        model = self._tied_model()
        predictor = LinkPredictor(model)
        # 17 listed before 4: ids must still come back id-ascending.
        top = predictor.top_k(
            np.array([0]), np.array([0]), side="tail", k=3, candidates=np.array([17, 9, 4])
        )
        assert list(top.ids[0]) == [4, 9, 17]
        assert top.scores[0][0] == top.scores[0][1] == top.scores[0][2]

    def test_all_zero_model_returns_identity_order(self):
        model = make_distmult(NUM_ENTITIES, NUM_RELATIONS, BUDGET, np.random.default_rng(29))
        model.entity_embeddings[:] = 0.0
        predictor = LinkPredictor(model)
        top = predictor.top_k(np.array([0]), np.array([0]), side="tail", k=10)
        assert np.array_equal(top.ids[0], np.arange(10))
        assert (top.scores == 0.0).all()


def _spy_pruned(monkeypatch) -> list:
    """Record the shapes :func:`repro.core.topk.top_k_columns` sends down
    its pruned path."""
    from repro.core import topk

    calls = []
    original = topk._pruned_top_k

    def spy(scores, k, groups):
        calls.append(scores.shape)
        return original(scores, k, groups)

    monkeypatch.setattr(topk, "_pruned_top_k", spy)
    return calls


class TestPrunedSelect:
    """Enough entities that a sweep's top-k select takes the pruned path
    of :func:`repro.core.topk.top_k_columns`; the same references hold."""

    NUM = 2_600

    def _model(self):
        return make_complex(self.NUM, NUM_RELATIONS, BUDGET, np.random.default_rng(37))

    @pytest.mark.parametrize("side", ["tail", "head"])
    def test_pruned_sweep_matches_brute_force(self, side, monkeypatch):
        model = self._model()
        pruned = _spy_pruned(monkeypatch)
        anchors, relations = np.array([3, 1_500, 2_599]), np.array([0, 2, 5])
        got = LinkPredictor(model).top_k(anchors, relations, side=side, k=10)
        assert pruned, "expected the pruned select to run"
        want_ids, want_scores = brute_force_top_k(model, anchors, relations, 10, side)
        assert np.array_equal(got.ids, want_ids)
        np.testing.assert_allclose(got.scores, want_scores, atol=1e-9)

    def test_ties_across_the_kth_score_keep_the_lower_ids(self, monkeypatch):
        model = self._model()
        anchors, relations = np.array([5]), np.array([1])
        k = 12
        order = np.argsort(-model.score_all_tails(anchors, relations)[0], kind="stable")
        kth = int(order[k - 2])
        # Six copies of the (k-1)-th best entity, three ids below it and
        # three above: a tie group of seven straddling the k-th score, of
        # which only the two lowest ids fit.
        rest = order[5 * k:]
        twins = np.concatenate([rest[rest < kth][:3], rest[rest > kth][:3]])
        model.entity_embeddings[twins] = model.entity_embeddings[kth]
        group = np.sort(np.append(twins, kth))
        pruned = _spy_pruned(monkeypatch)
        got = LinkPredictor(model).top_k(anchors, relations, side="tail", k=k)
        assert pruned, "expected the pruned select to run"
        want_ids, _ = brute_force_top_k(model, anchors, relations, k, "tail")
        assert np.array_equal(got.ids, want_ids)
        assert list(got.ids[0, k - 2:]) == list(group[:2])
        assert got.scores[0, k - 2] == got.scores[0, k - 1]

"""Property-based tests of structural invariants of the Eq. 8 scorer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.models import make_model
from repro.core.weights import WeightVector
from tests.core.dense_reference import DenseReference

NE, NR, DIM, BATCH = 10, 3, 4, 6

weight_tuples = st.lists(
    st.floats(-3, 3, allow_nan=False), min_size=8, max_size=8
).filter(lambda values: any(v != 0 for v in values))


def _scores_for_omega(flat, seed=0):
    weights = WeightVector.from_flat("w", flat)
    model = make_model(weights, NE, NR, np.random.default_rng(seed), dim=DIM,
                       initializer="normal")
    rng = np.random.default_rng(1)
    heads = rng.integers(0, NE, BATCH)
    tails = rng.integers(0, NE, BATCH)
    rels = rng.integers(0, NR, BATCH)
    return model.score_triples(heads, tails, rels)


@settings(max_examples=30, deadline=None)
@given(weight_tuples, weight_tuples)
def test_score_additive_in_omega(flat_a, flat_b):
    """S(ω_a + ω_b) = S(ω_a) + S(ω_b) — the lattice sum is linear in ω."""
    combined = tuple(a + b for a, b in zip(flat_a, flat_b))
    if all(v == 0 for v in combined):
        return
    sum_of_scores = _scores_for_omega(tuple(flat_a)) + _scores_for_omega(tuple(flat_b))
    combined_scores = _scores_for_omega(combined)
    assert np.allclose(combined_scores, sum_of_scores, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(weight_tuples, st.floats(-5, 5, allow_nan=False).filter(lambda c: c != 0))
def test_score_homogeneous_in_omega(flat, scale):
    """S(c·ω) = c·S(ω)."""
    scaled = tuple(scale * v for v in flat)
    assert np.allclose(
        _scores_for_omega(scaled), scale * _scores_for_omega(tuple(flat)), atol=1e-8
    )


@settings(max_examples=20, deadline=None)
@given(weight_tuples)
def test_slot_permutation_invariance(flat):
    """Permuting entity slots in both ω and the embedding tables leaves
    every score unchanged — the symmetry behind Table 1's 'equiv.' rows."""
    weights = WeightVector.from_flat("w", tuple(flat))
    model = make_model(weights, NE, NR, np.random.default_rng(3), dim=DIM,
                       initializer="normal")
    permuted_tensor = weights.tensor[np.ix_([1, 0], [1, 0], [0, 1])]
    permuted = WeightVector("w_perm", permuted_tensor)
    permuted_model = make_model(permuted, NE, NR, np.random.default_rng(4), dim=DIM,
                                initializer="normal")
    permuted_model.entity_embeddings = model.entity_embeddings[:, [1, 0], :].copy()
    permuted_model.relation_embeddings = model.relation_embeddings.copy()

    rng = np.random.default_rng(5)
    heads = rng.integers(0, NE, BATCH)
    tails = rng.integers(0, NE, BATCH)
    rels = rng.integers(0, NR, BATCH)
    assert np.allclose(
        model.score_triples(heads, tails, rels),
        permuted_model.score_triples(heads, tails, rels),
        atol=1e-9,
    )


@settings(max_examples=15, deadline=None)
@given(weight_tuples)
def test_all_tail_sweep_matches_pointwise(flat):
    """The factorised 1-vs-all sweep equals triple-at-a-time scoring."""
    weights = WeightVector.from_flat("w", tuple(flat))
    model = make_model(weights, NE, NR, np.random.default_rng(6), dim=DIM,
                       initializer="normal")
    rng = np.random.default_rng(7)
    heads = rng.integers(0, NE, 3)
    rels = rng.integers(0, NR, 3)
    matrix = model.score_all_tails(heads, rels)
    for entity in range(NE):
        pointwise = model.score_triples(heads, np.full(3, entity), rels)
        assert np.allclose(matrix[:, entity], pointwise, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(weight_tuples)
def test_symmetric_omega_gives_symmetric_scores(flat):
    """If ω equals its head/tail transpose, every score is h↔t symmetric —
    the exact criterion behind the §6.1.2 distinguishability property."""
    tensor = WeightVector.from_flat("w", tuple(flat)).tensor
    symmetrised = (tensor + np.swapaxes(tensor, 0, 1)) / 2.0
    if not symmetrised.any():
        return
    weights = WeightVector("sym", symmetrised)
    model = make_model(weights, NE, NR, np.random.default_rng(8), dim=DIM,
                       initializer="normal")
    rng = np.random.default_rng(9)
    heads = rng.integers(0, NE, BATCH)
    tails = rng.integers(0, NE, BATCH)
    rels = rng.integers(0, NR, BATCH)
    assert np.allclose(
        model.score_triples(heads, tails, rels),
        model.score_triples(tails, heads, rels),
        atol=1e-9,
    )


def test_score_gradient_consistency_random_omegas():
    """Analytic gradients hold for arbitrary ω, not just the presets."""
    from repro.nn.autodiff import numeric_gradient
    from repro.nn.losses import LogisticLoss

    rng = np.random.default_rng(10)
    for _ in range(3):
        flat = tuple(rng.normal(size=8))
        weights = WeightVector.from_flat("w", flat)
        model = make_model(weights, NE, NR, np.random.default_rng(11), dim=DIM,
                           initializer="normal")
        heads = rng.integers(0, NE, 5)
        tails = rng.integers(0, NE, 5)
        rels = rng.integers(0, NR, 5)
        labels = np.where(rng.random(5) < 0.5, 1.0, -1.0)
        loss = LogisticLoss()

        reference = DenseReference(model)
        cache = reference.forward(heads, tails, rels)
        grad_scores = loss.grad_score(cache.scores, labels)
        grad_h, _grad_t, _grad_r = reference.score_gradients(cache, grad_scores)

        original = model.entity_embeddings

        def loss_at(table):
            model.entity_embeddings = table
            scores = model.score_triples(heads, tails, rels)
            return loss.value(scores, labels)

        numeric = numeric_gradient(loss_at, original.copy())
        model.entity_embeddings = original
        dense = np.zeros_like(original)
        np.add.at(dense, heads, grad_h)
        t_grad = reference.score_gradients(cache, grad_scores)[1]
        np.add.at(dense, tails, t_grad)
        assert np.allclose(dense, numeric, atol=1e-6)

"""Gradient certification for the multi-embedding training path.

Training uses hand-derived analytic gradients.  These tests pin the
dense reference's (:mod:`dense_reference`) against (a) the autodiff
engine evaluating the same Eq. 8 + Eq. 16 computation, and (b) central
finite differences; ``test_kernels.py`` pins the compiled kernel's to
the dense reference.  Together they certify that training optimises
exactly the paper's objective.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import weights as W
from repro.core.interaction import MultiEmbeddingModel
from repro.core.models import make_model
from repro.nn.autodiff import Tensor, numeric_gradient
from repro.nn.losses import LogisticLoss
from repro.nn.optimizers import aggregate_rows
from tests.core.dense_reference import DenseReference

NE, NR, DIM, BATCH = 12, 3, 5, 9


@pytest.fixture
def setup(rng):
    model = make_model(W.COMPLEX, NE, NR, rng, dim=DIM, initializer="normal")
    heads = rng.integers(0, NE, BATCH)
    tails = rng.integers(0, NE, BATCH)
    rels = rng.integers(0, NR, BATCH)
    labels = np.where(rng.random(BATCH) < 0.5, 1.0, -1.0)
    return model, heads, tails, rels, labels


def _analytic_table_grads(model, heads, tails, rels, labels):
    """Dense per-table loss gradients from the reference's analytic path."""
    reference = DenseReference(model)
    cache = reference.forward(heads, tails, rels)
    grad_scores = model.loss.grad_score(cache.scores, labels)
    grad_h, grad_t, grad_r = reference.score_gradients(cache, grad_scores)
    entity_grad = np.zeros_like(model.entity_embeddings)
    rows, grads = aggregate_rows(
        np.concatenate([heads, tails]), np.concatenate([grad_h, grad_t], axis=0)
    )
    entity_grad[rows] = grads
    relation_grad = np.zeros_like(model.relation_embeddings)
    rel_rows, rel_grads = aggregate_rows(rels, grad_r)
    relation_grad[rel_rows] = rel_grads
    omega_grad = reference.omega_gradient(cache, grad_scores)
    return entity_grad, relation_grad, omega_grad


def _autodiff_loss(entity_table, relation_table, omega, heads, tails, rels, labels):
    """Eq. 8 + logistic loss expressed through the autodiff engine."""
    entities = Tensor(entity_table, requires_grad=True)
    relations = Tensor(relation_table, requires_grad=True)
    omega_t = Tensor(omega, requires_grad=True)
    n_e, n_r = entity_table.shape[1], relation_table.shape[1]
    h = entities.take_rows(heads)
    t = entities.take_rows(tails)
    r = relations.take_rows(rels)
    # The engine has no fancy inner-axis indexing, so each slot is sliced
    # with a constant selector mask — fully differentiable and explicit.
    total = None
    for i in range(n_e):
        for j in range(n_e):
            for k in range(n_r):
                selector_h = np.zeros((1, n_e, 1))
                selector_h[0, i, 0] = 1.0
                selector_t = np.zeros((1, n_e, 1))
                selector_t[0, j, 0] = 1.0
                selector_r = np.zeros((1, n_r, 1))
                selector_r[0, k, 0] = 1.0
                h_slot = (h * Tensor(selector_h)).sum(axis=1)
                t_slot = (t * Tensor(selector_t)).sum(axis=1)
                r_slot = (r * Tensor(selector_r)).sum(axis=1)
                tri = (h_slot * t_slot * r_slot).sum(axis=1)
                selector_o = np.zeros((n_e, n_e, n_r))
                selector_o[i, j, k] = 1.0
                weight = (omega_t * Tensor(selector_o)).sum()
                contribution = tri * weight
                total = contribution if total is None else total + contribution
    loss = ((total * Tensor(-labels)).softplus()).mean()
    loss.backward()
    return loss, entities.grad, relations.grad, omega_t.grad


class TestAnalyticVsAutodiff:
    def test_all_gradients_match(self, setup):
        model, heads, tails, rels, labels = setup
        entity_grad, relation_grad, omega_grad = _analytic_table_grads(
            model, heads, tails, rels, labels
        )
        _, ad_entity, ad_relation, ad_omega = _autodiff_loss(
            model.entity_embeddings,
            model.relation_embeddings,
            np.asarray(model.omega),
            heads,
            tails,
            rels,
            labels,
        )
        assert np.allclose(entity_grad, ad_entity, atol=1e-10)
        assert np.allclose(relation_grad, ad_relation, atol=1e-10)
        assert np.allclose(omega_grad, ad_omega, atol=1e-10)

    def test_quaternion_gradients_match(self, rng):
        model = make_model(W.QUATERNION, NE, NR, rng, dim=3, initializer="normal")
        heads = rng.integers(0, NE, 4)
        tails = rng.integers(0, NE, 4)
        rels = rng.integers(0, NR, 4)
        labels = np.array([1.0, -1.0, 1.0, -1.0])
        entity_grad, relation_grad, _ = _analytic_table_grads(
            model, heads, tails, rels, labels
        )
        _, ad_entity, ad_relation, _ = _autodiff_loss(
            model.entity_embeddings,
            model.relation_embeddings,
            np.asarray(model.omega),
            heads,
            tails,
            rels,
            labels,
        )
        assert np.allclose(entity_grad, ad_entity, atol=1e-10)
        assert np.allclose(relation_grad, ad_relation, atol=1e-10)


class TestAnalyticVsFiniteDifferences:
    def test_entity_gradient(self, setup):
        model, heads, tails, rels, labels = setup
        entity_grad, _, _ = _analytic_table_grads(model, heads, tails, rels, labels)
        loss = LogisticLoss()
        original = model.entity_embeddings

        def loss_at(table):
            model.entity_embeddings = table
            scores = model.score_triples(heads, tails, rels)
            return loss.value(scores, labels)

        numeric = numeric_gradient(loss_at, original.copy())
        model.entity_embeddings = original
        assert np.allclose(entity_grad, numeric, atol=1e-6)

    def test_relation_gradient(self, setup):
        model, heads, tails, rels, labels = setup
        _, relation_grad, _ = _analytic_table_grads(model, heads, tails, rels, labels)
        loss = LogisticLoss()
        original = model.relation_embeddings

        def loss_at(table):
            model.relation_embeddings = table
            scores = model.score_triples(heads, tails, rels)
            return loss.value(scores, labels)

        numeric = numeric_gradient(loss_at, original.copy())
        model.relation_embeddings = original
        assert np.allclose(relation_grad, numeric, atol=1e-6)

    def test_omega_gradient(self, setup):
        model, heads, tails, rels, labels = setup
        _, _, omega_grad = _analytic_table_grads(model, heads, tails, rels, labels)
        loss = LogisticLoss()
        h = model.entity_embeddings[heads]
        t = model.entity_embeddings[tails]
        r = model.relation_embeddings[rels]

        def loss_at(omega):
            scores = np.einsum("ijk,bid,bjd,bkd->b", omega, h, t, r)
            return loss.value(scores, labels)

        numeric = numeric_gradient(loss_at, np.asarray(model.omega).copy())
        assert np.allclose(omega_grad, numeric, atol=1e-6)


class TestRegularizedObjective:
    def test_train_step_loss_matches_eq16(self, rng):
        """The reported loss equals data loss + scaled L2 of touched rows."""
        model = MultiEmbeddingModel(
            NE, NR, DIM, W.COMPLEX, rng, regularization=0.1,
            initializer="normal", unit_norm_entities=False,
        )
        positives = np.array([[0, 1, 0], [2, 3, 1]])
        negatives = np.array([[0, 4, 0], [5, 3, 1]])
        triples = np.concatenate([positives, negatives])
        labels = np.array([1.0, 1.0, -1.0, -1.0])
        scores = model.score_triples(triples[:, 0], triples[:, 1], triples[:, 2])
        data_loss = LogisticLoss().value(scores, labels)
        coef = model.regularizer.coefficient
        reg = 0.0
        for h, t, r in triples:
            reg += coef * (
                np.sum(model.entity_embeddings[h] ** 2)
                + np.sum(model.entity_embeddings[t] ** 2)
                + np.sum(model.relation_embeddings[r] ** 2)
            )
        expected = data_loss + reg / len(triples)

        from repro.nn.optimizers import SGD

        reported = model.train_step(positives, negatives, SGD(learning_rate=1e-12))
        assert reported == pytest.approx(expected)

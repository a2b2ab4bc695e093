"""Model factory: the paper's model zoo as multi-embedding special cases.

Every constructor returns a :class:`~repro.core.interaction.MultiEmbeddingModel`
configured with the appropriate ω preset from Table 1 and, for fair
comparisons, a per-vector dimension derived from a shared parameter
budget (paper §5.3: embedding size 400 for one-embedding models, 200 for
two-embedding, 100 for four-embedding).
"""

from __future__ import annotations

import numpy as np

from repro.core import weights as W
from repro.core.interaction import MultiEmbeddingModel
from repro.core.learned import LearnedWeightModel
from repro.core.weights import WeightVector, get_preset
from repro.errors import ConfigError
from repro.nn.regularizers import DirichletSparsityRegularizer
from repro.pipeline.registry import Registry

#: Model factory registry.  Every factory takes
#: ``(num_entities, num_relations, total_dim, rng, **kwargs)`` and returns
#: a trainable model; registering a new factory here makes it available to
#: the CLI ``train`` command, :class:`~repro.pipeline.config.RunConfig`,
#: and sweeps automatically.
MODEL_FACTORIES: Registry = Registry("model")


def parity_dim(total_dim: int, weights: WeightVector) -> int:
    """Per-vector dimension under the paper's parameter-parity rule.

    ``total_dim`` is the budget of a one-embedding model (400 in the
    paper); an ``n``-embedding model gets ``total_dim // n`` per vector.
    """
    n = weights.num_entity_vectors
    if total_dim % n != 0:
        raise ConfigError(f"total_dim={total_dim} not divisible by {n} embedding vectors")
    return total_dim // n


def make_model(
    weights: WeightVector | str,
    num_entities: int,
    num_relations: int,
    rng: np.random.Generator,
    dim: int | None = None,
    total_dim: int | None = None,
    regularization: float = 0.0,
    **kwargs: object,
) -> MultiEmbeddingModel:
    """Build a multi-embedding model from a weight vector or preset name.

    Exactly one of ``dim`` (per-vector dimension) or ``total_dim``
    (parameter-parity budget, split across vectors) must be given.
    """
    if isinstance(weights, str):
        weights = get_preset(weights)
    if (dim is None) == (total_dim is None):
        raise ConfigError("give exactly one of dim or total_dim")
    if dim is None:
        dim = parity_dim(int(total_dim), weights)
    return MultiEmbeddingModel(
        num_entities,
        num_relations,
        dim,
        weights,
        rng,
        regularization=regularization,
        **kwargs,
    )


@MODEL_FACTORIES.register("distmult")
def make_distmult(
    num_entities: int,
    num_relations: int,
    total_dim: int,
    rng: np.random.Generator,
    **kwargs: object,
) -> MultiEmbeddingModel:
    """DistMult (Eq. 4) as a one-embedding model at the full budget.

    This is the paper's §5.3 configuration (embedding size 400 when
    two-embedding models use 200).  The two-embedding representation
    ``(1, 0, ..., 0)`` from Table 1 is available via
    ``make_model("distmult", ...)`` and is used in Table 2 to show the
    derivation; both score identically at equal effective dimension.
    """
    model = make_model(W.DISTMULT_N1, num_entities, num_relations, rng, dim=total_dim, **kwargs)
    model.name = "DistMult"
    return model


@MODEL_FACTORIES.register("complex")
def make_complex(
    num_entities: int,
    num_relations: int,
    total_dim: int,
    rng: np.random.Generator,
    **kwargs: object,
) -> MultiEmbeddingModel:
    """ComplEx (Eq. 5) as the two-embedding model of Table 1."""
    return make_model(W.COMPLEX, num_entities, num_relations, rng, total_dim=total_dim, **kwargs)


@MODEL_FACTORIES.register("cp")
def make_cp(
    num_entities: int,
    num_relations: int,
    total_dim: int,
    rng: np.random.Generator,
    **kwargs: object,
) -> MultiEmbeddingModel:
    """CP (Eq. 6): role-based two-embedding model, known to overfit badly."""
    return make_model(W.CP, num_entities, num_relations, rng, total_dim=total_dim, **kwargs)


@MODEL_FACTORIES.register("cph")
def make_cph(
    num_entities: int,
    num_relations: int,
    total_dim: int,
    rng: np.random.Generator,
    **kwargs: object,
) -> MultiEmbeddingModel:
    """CPh (Eq. 7/11): CP + inverse-triple heuristic as a weight vector.

    In the multi-embedding view the augmented relation ``r^(a)`` becomes
    the second relation vector, so no dataset augmentation is needed; the
    ω preset ``(0, 0, 1, 0, 0, 1, 0, 0)`` adds the inverse-triple score
    directly (paper Eq. 11 and Table 1).
    """
    return make_model(W.CPH, num_entities, num_relations, rng, total_dim=total_dim, **kwargs)


@MODEL_FACTORIES.register("quaternion")
def make_quaternion(
    num_entities: int,
    num_relations: int,
    total_dim: int,
    rng: np.random.Generator,
    **kwargs: object,
) -> MultiEmbeddingModel:
    """The paper's quaternion-based four-embedding model (Eq. 13/14)."""
    model = make_model(
        W.QUATERNION, num_entities, num_relations, rng, total_dim=total_dim, **kwargs
    )
    model.name = "Quaternion-based four-embedding"
    return model


@MODEL_FACTORIES.register("learned")
def make_learned_weight_model(
    num_entities: int,
    num_relations: int,
    total_dim: int,
    rng: np.random.Generator,
    transform: str = "identity",
    sparse: bool = False,
    sparsity_alpha: float = 1.0 / 16.0,
    sparsity_strength: float = 1e-2,
    regularization: float = 0.0,
    **kwargs: object,
) -> LearnedWeightModel:
    """A two-embedding model with ω learned end-to-end (§3.3, Table 3).

    ``sparse=True`` adds the Dirichlet sparsity loss of Eq. 12 with the
    paper's tuned hyperparameters (α = 1/16, λ_dir = 1e-2).
    """
    if total_dim % 2 != 0:
        raise ConfigError("total_dim must be even for the two-embedding learned model")
    sparsity = (
        DirichletSparsityRegularizer(alpha=sparsity_alpha, strength=sparsity_strength)
        if sparse
        else None
    )
    return LearnedWeightModel(
        num_entities,
        num_relations,
        total_dim // 2,
        rng,
        transform=transform,
        sparsity=sparsity,
        regularization=regularization,
        **kwargs,
    )



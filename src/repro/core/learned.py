"""Learning the interaction weight vector ω end-to-end (paper §3.3, Table 3).

The model keeps an unconstrained parameter ρ and scores with
``ω = f(ρ)`` where ``f`` is one of:

* ``identity`` — "no restriction",
* ``tanh`` — ω ∈ (-1, 1),
* ``sigmoid`` — ω ∈ (0, 1),
* ``softmax`` — ω ∈ (0, 1) summing to 1,

optionally adding the Dirichlet sparsity regulariser of Eq. 12.  The
paper's finding (reproduced in the Table 3 benchmark) is that every such
variant gets stuck near a symmetric ω and performs at DistMult level.
"""

from __future__ import annotations

import numpy as np

from repro.core.interaction import MultiEmbeddingModel, _BatchCache
from repro.core.weights import WeightVector
from repro.errors import ConfigError
from repro.nn.losses import LogisticLoss, sigmoid
from repro.nn.optimizers import Optimizer
from repro.nn.regularizers import DirichletSparsityRegularizer


class WeightTransform:
    """A differentiable reparameterisation ``ω = f(ρ)``."""

    #: Registry name.
    name = "identity"

    def forward(self, rho: np.ndarray) -> np.ndarray:
        """Map the free parameter ρ to the weight tensor ω."""
        return rho

    def backward(self, rho: np.ndarray, omega: np.ndarray, grad_omega: np.ndarray) -> np.ndarray:
        """Chain dL/dω into dL/dρ."""
        return grad_omega


class TanhTransform(WeightTransform):
    """ω = tanh(ρ) ∈ (-1, 1)."""

    name = "tanh"

    def forward(self, rho: np.ndarray) -> np.ndarray:
        return np.tanh(rho)

    def backward(self, rho: np.ndarray, omega: np.ndarray, grad_omega: np.ndarray) -> np.ndarray:
        return grad_omega * (1.0 - np.square(omega))


class SigmoidTransform(WeightTransform):
    """ω = σ(ρ) ∈ (0, 1)."""

    name = "sigmoid"

    def forward(self, rho: np.ndarray) -> np.ndarray:
        return sigmoid(rho)

    def backward(self, rho: np.ndarray, omega: np.ndarray, grad_omega: np.ndarray) -> np.ndarray:
        return grad_omega * omega * (1.0 - omega)


class SoftmaxTransform(WeightTransform):
    """ω = softmax(ρ) over all lattice positions (sums to 1)."""

    name = "softmax"

    def forward(self, rho: np.ndarray) -> np.ndarray:
        flat = rho.ravel()
        shifted = flat - flat.max()
        exp = np.exp(shifted)
        return (exp / exp.sum()).reshape(rho.shape)

    def backward(self, rho: np.ndarray, omega: np.ndarray, grad_omega: np.ndarray) -> np.ndarray:
        w = omega.ravel()
        g = grad_omega.ravel()
        out = w * (g - float(np.dot(g, w)))
        return out.reshape(rho.shape)


TRANSFORMS: dict[str, type[WeightTransform]] = {
    cls.name: cls
    for cls in (WeightTransform, TanhTransform, SigmoidTransform, SoftmaxTransform)
}


def make_transform(name: str) -> WeightTransform:
    """Build a transform by name (identity, tanh, sigmoid, softmax)."""
    try:
        return TRANSFORMS[name]()
    except KeyError:
        known = ", ".join(sorted(TRANSFORMS))
        raise ConfigError(f"unknown weight transform {name!r}; known: {known}") from None


class LearnedWeightModel(MultiEmbeddingModel):
    """Multi-embedding model whose ω is trained jointly with embeddings.

    Parameters
    ----------
    transform:
        Transform name (``identity``/``tanh``/``sigmoid``/``softmax``).
    sparsity:
        Optional :class:`DirichletSparsityRegularizer` applying Eq. 12.
    init_scale:
        Standard deviation of the Gaussian initialising ρ around the
        value whose transform is (near-)uniform.
    """

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int,
        rng: np.random.Generator,
        num_entity_vectors: int = 2,
        num_relation_vectors: int = 2,
        transform: str = "identity",
        sparsity: DirichletSparsityRegularizer | None = None,
        regularization: float = 0.0,
        initializer: str = "unit_normalized",
        init_scale: float = 0.1,
        loss: LogisticLoss | None = None,
    ) -> None:
        shape = (num_entity_vectors, num_entity_vectors, num_relation_vectors)
        placeholder = WeightVector(f"Auto weight ({transform})", np.ones(shape))
        super().__init__(
            num_entities,
            num_relations,
            dim,
            placeholder,
            rng,
            regularization=regularization,
            initializer=initializer,
            loss=loss,
        )
        self.transform = make_transform(transform)
        self.sparsity = sparsity
        if init_scale <= 0:
            raise ConfigError("init_scale must be positive")
        # Start near the uniform weight vector, as the paper's learned runs
        # do; symmetric gradients then keep ω near-uniform (§6.2).
        self.rho = np.ones(shape, dtype=np.float64) + rng.normal(0.0, init_scale, size=shape)
        self._omega_cache = self.transform.forward(self.rho)
        suffix = ", sparse" if sparsity is not None else ""
        self.name = f"Auto weight ({transform}{suffix})"

    @property
    def omega(self) -> np.ndarray:
        """The current transformed weight tensor ω = f(ρ).

        Every update replaces the cached array, so the model's compiled
        kernel (keyed on the array's identity) recompiles on next use —
        learned ω is dense, which makes that a cheap
        :class:`~repro.core.kernels.DenseEinsumKernel` rebuild whose
        contraction paths come from a shared module-level cache.
        """
        return self._omega_cache

    def refresh_omega(self) -> None:
        """Recompute ω = f(ρ) after ρ was replaced outside ``train_step``.

        Checkpoint loading assigns ρ directly; calling this keeps the
        cached ω consistent and bumps :attr:`scoring_version` so serving
        caches and index fold caches built from the old ω are invalidated.
        """
        self._omega_cache = self.transform.forward(self.rho)
        self._bump_scoring_version()

    def _extra_updates(
        self, cache: _BatchCache, grad_scores: np.ndarray, optimizer: Optimizer
    ) -> None:
        grad_omega = self.kernel.omega_gradient(
            grad_scores, cache.h_vecs, cache.t_vecs, cache.r_vecs
        )
        if self.sparsity is not None:
            grad_omega = grad_omega + self.sparsity.grad(self._omega_cache)
        grad_rho = self.transform.backward(self.rho, self._omega_cache, grad_omega)
        optimizer.step_dense("omega_rho", self.rho, grad_rho)
        self._omega_cache = self.transform.forward(self.rho)

    def parameter_count(self) -> int:
        """Embedding scalars plus the ρ lattice."""
        return super().parameter_count() + int(self.rho.size)

    def current_weight_vector(self) -> WeightVector:
        """Snapshot of the learned ω as an immutable :class:`WeightVector`."""
        return WeightVector(self.name, self._omega_cache)

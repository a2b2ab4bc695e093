"""Compiled sparse-ω interaction kernels.

Every model the paper derives from Eq. 8 (DistMult, ComplEx, CP, CPh,
the quaternion model, Table 2's hand-crafted variants) instantiates a
*mostly zero* interaction tensor ω, yet the reference scorer contracts
the full dense ``(n_h, n_t, n_r)`` lattice with ``np.einsum`` on every
call — recomputing the contraction path each time and touching every
zero term.  This module compiles ω **once per model** into a
term-grouped program over its nonzero ``(i, j, k, weight)`` entries:

* each output slot of a contraction is produced by a short sequence of
  batched elementwise products (one per nonzero term), with the first
  term written directly into the output buffer and ±1 weights handled
  without a multiply;
* all batch tensors use the *transposed* layout ``(slots, b, D)`` so
  every slice touched by the program is C-contiguous;
* the same three programs power scoring, the all-entity sweeps, the
  candidate fast path, **and** the three analytic gradients — the
  forward combination is reused as the tail gradient, so a fused train
  step needs three contractions where the dense path needs five einsums.

When ω is dense (the uniform baseline, learned-ω models) a sparse
program would enumerate every lattice position and win nothing; above
:data:`DENSE_DENSITY_THRESHOLD` the compiler instead emits a
:class:`DenseEinsumKernel` that keeps the dense einsum but reuses
precomputed contraction paths (cached per spec × operand shapes).  The
uncompiled per-call einsum in :mod:`repro.core.interaction` remains the
reference oracle; the test-suite certifies every kernel against it to
1e-10 for scores and all gradient tensors.

The design follows the tabling insight of Fodor & Kifer (pre-compiling
repeated logic-program evaluations): the ω structure never changes
between calls for fixed-weight models, so all structure-dependent work
is hoisted to compile time.  Learned-ω models recompile whenever their
ω tensor is replaced (each train step / checkpoint load), which for the
dense kernel costs only an object allocation — the einsum paths live in
a module-level cache shared across recompilations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError

#: ω density (nonzero fraction) at or above which compilation falls back
#: to the dense-einsum kernel.  All of Table 1's derived models compile
#: sparse (quaternion 0.25, ComplEx 0.5, CP/CPh ≤ 0.25); the uniform
#: baseline and learned-ω tensors (density 1.0) stay dense.
DENSE_DENSITY_THRESHOLD = 0.75

#: Contraction paths keyed by ``(spec, operand shapes)``; shared across
#: kernel instances so learned-ω recompilation never re-plans an einsum.
_EINSUM_PATH_CACHE: dict[tuple, list] = {}


def cached_einsum(spec: str, *operands: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.einsum`` with the contraction path precomputed and memoised."""
    key = (spec,) + tuple(op.shape for op in operands)
    path = _EINSUM_PATH_CACHE.get(key)
    if path is None:
        path = np.einsum_path(spec, *operands, optimize="optimal")[0]
        _EINSUM_PATH_CACHE[key] = path
    if out is None:
        return np.einsum(spec, *operands, optimize=path)
    return np.einsum(spec, *operands, out=out, optimize=path)


def _check_transposed(name: str, tensor: np.ndarray, slots: int) -> None:
    if tensor.ndim != 3 or tensor.shape[0] != slots:
        raise ModelError(
            f"{name} must have transposed layout (slots={slots}, b, D); got {tensor.shape}"
        )


class OmegaKernel:
    """Base class: a compiled scoring/gradient engine for one ω tensor.

    All batch inputs and outputs use the transposed ``(slots, b, D)``
    layout.  ``combine_hr`` realises ``C[j] = Σ_ik ω_ijk h_i ⊙ r_k``
    (the forward combination, also the tail gradient direction),
    ``combine_tr`` the head direction ``Σ_jk ω_ijk t_j ⊙ r_k`` and
    ``combine_ht`` the relation direction ``Σ_ij ω_ijk h_i ⊙ t_j``.
    """

    #: "sparse" or "dense"; set by subclasses.
    mode: str = "abstract"

    def __init__(self, omega: np.ndarray) -> None:
        omega = np.asarray(omega, dtype=np.float64)
        if omega.ndim != 3:
            raise ModelError(f"omega must be 3-D (n_h, n_t, n_r); got shape {omega.shape}")
        self.omega = omega
        self.num_head_slots, self.num_tail_slots, self.num_relation_slots = omega.shape
        self.num_terms = int(np.count_nonzero(omega))
        self.density = self.num_terms / omega.size

    # ------------------------------------------------------------ contractions
    def combine_hr(self, h_t: np.ndarray, r_t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(n_t, b, D)`` combination of head and relation slots."""
        raise NotImplementedError

    def combine_tr(self, t_t: np.ndarray, r_t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(n_h, b, D)`` combination of tail and relation slots."""
        raise NotImplementedError

    def combine_ht(self, h_t: np.ndarray, t_t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(n_r, b, D)`` combination of head and tail slots."""
        raise NotImplementedError

    # ----------------------------------------------------------------- scoring
    def score_triples(
        self,
        h_t: np.ndarray,
        t_t: np.ndarray,
        r_t: np.ndarray,
        combined_out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Eq. 8 scores ``(b,)`` from transposed per-triple embeddings.

        When ``combined_out`` is given the forward combination is left in
        it so the caller can reuse it as the tail-gradient direction.
        """
        combined = self.combine_hr(h_t, r_t, out=combined_out)
        scores = np.zeros(h_t.shape[1], dtype=np.float64)
        for j in range(self.num_tail_slots):
            scores += np.einsum("bd,bd->b", combined[j], t_t[j])
        return scores

    def gradients(
        self,
        h_t: np.ndarray,
        t_t: np.ndarray,
        r_t: np.ndarray,
        grad_scores: np.ndarray,
        forward_combined: np.ndarray | None = None,
        out_h: np.ndarray | None = None,
        out_r: np.ndarray | None = None,
        scaled_t: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Analytic score gradients ``(grad_h, grad_t, grad_r)``, transposed.

        ``forward_combined`` — the combination produced by
        :meth:`score_triples` — is scaled **in place** into the tail
        gradient when provided, saving one full contraction.  The score
        gradient enters the head and relation directions through one
        shared pre-scaled tail tensor ``g ⊙ t`` (score trilinearity makes
        ``g·Σω(t⊙r) = Σω((g·t)⊙r)``), which is one full-width pass
        cheaper than scaling both outputs.
        """
        g_row = grad_scores[None, :, None]
        if forward_combined is None:
            grad_t = self.combine_hr(h_t, r_t)
        else:
            grad_t = forward_combined
        grad_t *= g_row
        if scaled_t is None:
            scaled_t = t_t * g_row
        else:
            np.multiply(t_t, g_row, out=scaled_t)
        grad_h = self.combine_tr(scaled_t, r_t, out=out_h)
        grad_r = self.combine_ht(h_t, scaled_t, out=out_r)
        return grad_h, grad_t, grad_r

    def omega_gradient(
        self,
        grad_scores: np.ndarray,
        h_vecs: np.ndarray,
        t_vecs: np.ndarray,
        r_vecs: np.ndarray,
    ) -> np.ndarray:
        """dL/dω from standard-layout ``(b, slots, D)`` embeddings.

        The ω gradient is inherently dense (every lattice position gets a
        gradient signal), so both kernel flavours use the cached-path
        einsum.
        """
        return cached_einsum(
            "b,bid,bjd,bkd->ijk", grad_scores, h_vecs, t_vecs, r_vecs
        )

    def fold_relations(self, relation_table: np.ndarray) -> np.ndarray:
        """Per-relation mixing tensor ``W[r, i, j, d] = Σ_k ω_ijk r^(k)_d``.

        The retrieval index folds candidate matrices from it (see
        :mod:`repro.index.folded_vectors`); scoring never does.  The
        sparse kernel builds it from the nonzero terms only.
        """
        return cached_einsum("ijk,rkd->rijd", self.omega, relation_table)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shape={self.omega.shape}, "
            f"terms={self.num_terms}, density={self.density:.2f})"
        )


def _group_terms(
    terms: list[tuple[int, int, int, float]], out_axis: int, a_axis: int, b_axis: int, num_out: int
) -> tuple[tuple[tuple[int, int, float], ...], ...]:
    """Term-grouped program: per output slot, the ``(a, b, weight)`` ops."""
    slots: list[list[tuple[int, int, float]]] = [[] for _ in range(num_out)]
    for term in terms:
        slots[term[out_axis]].append((term[a_axis], term[b_axis], term[3]))
    return tuple(tuple(ops) for ops in slots)


def _apply_program(
    program: tuple[tuple[tuple[int, int, float], ...], ...],
    a_t: np.ndarray,
    b_t: np.ndarray,
    out: np.ndarray,
    tmp: np.ndarray | None,
) -> np.ndarray:
    """Run one term-grouped program over transposed operands.

    Each output slot's first term is written straight into the output
    buffer (negated in place for weight -1); later terms accumulate via
    a single shared ``(b, D)`` scratch buffer.  No dense lattice and no
    ``(b, n, n, D)`` einsum intermediate is ever materialised.
    """
    for slot, ops in enumerate(program):
        acc = out[slot]
        if not ops:
            acc.fill(0.0)
            continue
        a, b, w = ops[0]
        np.multiply(a_t[a], b_t[b], out=acc)
        if w == -1.0:
            np.negative(acc, out=acc)
        elif w != 1.0:
            acc *= w
        if len(ops) > 1:
            if tmp is None:
                tmp = np.empty_like(acc)
            for a, b, w in ops[1:]:
                np.multiply(a_t[a], b_t[b], out=tmp)
                if w == 1.0:
                    acc += tmp
                elif w == -1.0:
                    acc -= tmp
                else:
                    tmp *= w
                    acc += tmp
    return out


class SparseTermKernel(OmegaKernel):
    """Term-grouped programs over the nonzero entries of ω."""

    mode = "sparse"

    def __init__(self, omega: np.ndarray) -> None:
        super().__init__(omega)
        terms = [
            (int(i), int(j), int(k), float(v))
            for (i, j, k), v in np.ndenumerate(self.omega)
            if v != 0.0
        ]
        self.terms = tuple(terms)
        # Output axis / operand axes per contraction direction.
        self._program_hr = _group_terms(terms, 1, 0, 2, self.num_tail_slots)
        self._program_tr = _group_terms(terms, 0, 1, 2, self.num_head_slots)
        self._program_ht = _group_terms(terms, 2, 0, 1, self.num_relation_slots)

    def _run(self, program, a_t, b_t, num_out, out):
        batch, dim = a_t.shape[1], a_t.shape[2]
        if out is None:
            out = np.empty((num_out, batch, dim), dtype=np.float64)
        return _apply_program(program, a_t, b_t, out, None)

    def combine_hr(self, h_t, r_t, out=None):
        _check_transposed("h_t", h_t, self.num_head_slots)
        _check_transposed("r_t", r_t, self.num_relation_slots)
        return self._run(self._program_hr, h_t, r_t, self.num_tail_slots, out)

    def combine_tr(self, t_t, r_t, out=None):
        _check_transposed("t_t", t_t, self.num_tail_slots)
        _check_transposed("r_t", r_t, self.num_relation_slots)
        return self._run(self._program_tr, t_t, r_t, self.num_head_slots, out)

    def combine_ht(self, h_t, t_t, out=None):
        _check_transposed("h_t", h_t, self.num_head_slots)
        _check_transposed("t_t", t_t, self.num_tail_slots)
        return self._run(self._program_ht, h_t, t_t, self.num_relation_slots, out)

    def fold_relations(self, relation_table: np.ndarray) -> np.ndarray:
        num_relations, _, dim = relation_table.shape
        out = np.zeros(
            (num_relations, self.num_head_slots, self.num_tail_slots, dim), dtype=np.float64
        )
        written = set()
        for i, j, k, w in self.terms:
            target = out[:, i, j, :]
            source = relation_table[:, k, :]
            if (i, j) in written:
                if w == 1.0:
                    target += source
                elif w == -1.0:
                    target -= source
                else:
                    target += w * source
            else:
                np.multiply(source, w, out=target)
                written.add((i, j))
        return out


class DenseEinsumKernel(OmegaKernel):
    """Dense fallback: einsum contractions with precomputed paths.

    Used when ω has too few zeros for a term program to pay off (the
    uniform baseline, learned-ω models).  Semantically identical to the
    reference einsums in :mod:`repro.core.interaction`, minus the
    per-call contraction-path search.
    """

    mode = "dense"

    def combine_hr(self, h_t, r_t, out=None):
        _check_transposed("h_t", h_t, self.num_head_slots)
        _check_transposed("r_t", r_t, self.num_relation_slots)
        return cached_einsum("ijk,ibd,kbd->jbd", self.omega, h_t, r_t, out=out)

    def combine_tr(self, t_t, r_t, out=None):
        _check_transposed("t_t", t_t, self.num_tail_slots)
        _check_transposed("r_t", r_t, self.num_relation_slots)
        return cached_einsum("ijk,jbd,kbd->ibd", self.omega, t_t, r_t, out=out)

    def combine_ht(self, h_t, t_t, out=None):
        _check_transposed("h_t", h_t, self.num_head_slots)
        _check_transposed("t_t", t_t, self.num_tail_slots)
        return cached_einsum("ijk,ibd,jbd->kbd", self.omega, h_t, t_t, out=out)


def compile_kernel(
    omega: np.ndarray, density_threshold: float | None = None
) -> OmegaKernel:
    """Compile ω into the best kernel for its sparsity structure.

    Returns a :class:`SparseTermKernel` when the nonzero fraction is
    below *density_threshold* (default :data:`DENSE_DENSITY_THRESHOLD`),
    otherwise a :class:`DenseEinsumKernel`.
    """
    if density_threshold is None:
        density_threshold = DENSE_DENSITY_THRESHOLD
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 3:
        raise ModelError(f"omega must be 3-D (n_h, n_t, n_r); got shape {omega.shape}")
    density = np.count_nonzero(omega) / omega.size
    if density < density_threshold:
        return SparseTermKernel(omega)
    return DenseEinsumKernel(omega)


def gather_transposed(
    table: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Gather embedding rows into the kernels' ``(slots, b, D)`` layout.

    Writing slot-by-slot keeps every destination slice contiguous, which
    is what makes the term programs' elementwise passes fast.  (Plain
    fancy indexing beats ``np.take`` with ``out=`` here: ``take`` pays
    for the strided column view of the source table.)
    """
    num_slots, dim = table.shape[1], table.shape[2]
    if out is None:
        out = np.empty((num_slots, len(rows), dim), dtype=table.dtype)
    for slot in range(num_slots):
        out[slot] = table[rows, slot]
    return out

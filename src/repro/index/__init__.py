"""Approximate retrieval indexes: sub-linear top-k candidate generation.

Serving's 1-vs-all sweep scores every entity per query — O(N) latency
that is fine at paper scale and fatal at the ROADMAP's millions-of-
entities scale.  This package turns top-k link prediction into
``O(num_probed)``: a coarse quantizer proposes a per-query candidate
shortlist, and the serving layer re-ranks the shortlist with *true*
model scores, so approximation only ever costs recall, never score
fidelity or the lower-id tie rule.

Layers:

* :mod:`repro.index.folded_vectors` — the retrieval geometry: per-
  relation folded candidate matrices under which Eq. 8 scoring is a
  plain inner product with the raw anchor vector;
* :mod:`repro.index.ivf` — :class:`IVFIndex`, a deterministic k-means
  inverted file with ``nlist``/``nprobe``/``spill`` knobs and process-
  pool build fan-out;
* :mod:`repro.index.kmeans` — the one nearest-centroid routine and the
  one seeded k-means loop, shared by the IVF cells and the PQ codebooks;
* :mod:`repro.index.exact` — :class:`ExactIndex`, the brute-force
  oracle with the identical interface;
* :mod:`repro.index.base` — the shared contract (:class:`CandidateIndex`,
  :class:`CandidateBatch`), staleness policies, and persistence
  (:func:`load_index`).

Indexes version themselves against the model's ``scoring_version`` (and
a parameter fingerprint on disk), so a model that trains after the build
is rebuilt or refused — never silently served stale.

Submodule attributes are imported lazily (PEP 562) with resolved names
cached in ``globals()``, keeping ``import repro`` free of the package's
numpy-heavy build machinery until an index is actually used.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

_LAZY_EXPORTS = {
    "CandidateBatch": "repro.index.base",
    "CandidateIndex": "repro.index.base",
    "IndexBuildReport": "repro.index.base",
    "load_index": "repro.index.base",
    "model_fingerprint": "repro.index.base",
    "read_index_meta": "repro.index.base",
    "FoldedCandidateSource": "repro.index.folded_vectors",
    "fold_candidate_matrix": "repro.index.folded_vectors",
    "fold_candidate_rows": "repro.index.folded_vectors",
    "IVFIndex": "repro.index.ivf",
    "IndexUpdateReport": "repro.index.ivf",
    "deterministic_kmeans": "repro.index.kmeans",
    "ExactIndex": "repro.index.exact",
}

__all__ = sorted(_LAZY_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY_EXPORTS)

"""Product quantization for the IVF coarse pass: ADC over uint8 codes.

The classic PQ recipe (Jégou et al.) specialised to this repository's
retrieval geometry.  A folded candidate matrix ``(N, f)`` is split into
``m`` contiguous subspaces of width ``f/m``; each subspace gets its own
seeded, fixed-iteration k-means codebook of up to 256 centroids, and
every entity row is stored as ``m`` uint8 centroid ids — 1 byte per
subspace instead of ``8·f/m``, a 64x compression at float64/``m=f/8``.

At query time the score of a candidate is approximated by **asymmetric
distance computation** (ADC): the query is *not* quantized; one lookup
table ``lut[j, c] = ⟨q_j, codebook_j[c]⟩`` per subspace turns the inner
product into ``Σ_j lut[j, code[j]]`` — ``m`` table gathers and a sum
per candidate, no float multiply against the candidate at all.  The IVF
layer uses these approximate scores only to shrink a probed cell union
to its ``refine`` most promising members; the final answer is always an
exact re-rank with true model scores, so PQ moves recall, never
correctness of the scores returned.

Everything is deterministic: codebooks are trained by the same
fixed-iteration seeded k-means contract as the IVF cells, on a seeded
sample of the rows, with one :class:`numpy.random.SeedSequence` child
per subspace — identical inputs and config produce identical codes on
every machine.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import ServingError

#: Element budget for one ``(chunk, ks)`` subspace distance matrix.
_ENCODE_CHUNK_ELEMENTS = 1 << 22

#: Codes are uint8: at most 256 centroids per subspace.
MAX_CODEBOOK = 256

#: Candidates per ADC block: keeps the ``(block, m)`` index and gather
#: temporaries cache-resident however many candidates one call scans.
_ADC_BLOCK = 4096


@dataclass(frozen=True)
class PQConfig:
    """Product-quantization knobs for the IVF coarse pass.

    m:
        Number of subspaces; must divide the folded feature width
        ``n_e·D``.  More subspaces = finer approximation, bigger codes.
    refine:
        Candidates kept per query after the ADC scan (the exact re-rank
        budget).  Must comfortably exceed the serving ``k``; recall@k
        climbs quickly with it because ADC only has to get the true
        top-k *somewhere* into the top-``refine``.
    train_sample:
        Rows sampled (seeded, without replacement) for codebook
        training; encoding always covers every row.
    iters:
        Fixed k-means iteration count per codebook.
    seed:
        Base seed; the owning index mixes in partition coordinates so
        every ``(relation, side)`` trains distinct deterministic
        codebooks.
    """

    m: int = 8
    refine: int = 64
    train_sample: int = 65536
    iters: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ServingError(f"pq.m must be >= 1, got {self.m}")
        if self.refine < 1:
            raise ServingError(f"pq.refine must be >= 1, got {self.refine}")
        if self.train_sample < 1:
            raise ServingError(f"pq.train_sample must be >= 1, got {self.train_sample}")
        if self.iters < 1:
            raise ServingError(f"pq.iters must be >= 1, got {self.iters}")
        if self.seed < 0:
            raise ServingError(f"pq.seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PQConfig":
        return cls(**dict(data))


def _nearest_subspace(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid id per point (Euclidean), ties toward lower id."""
    n = len(points)
    centroid_sq = np.einsum("cf,cf->c", centroids, centroids)
    out = np.empty(n, dtype=np.int64)
    chunk = max(1, _ENCODE_CHUNK_ELEMENTS // max(1, len(centroids)))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        distances = points[start:stop] @ centroids.T
        distances *= -2.0
        distances += centroid_sq[None, :]
        out[start:stop] = np.argmin(distances, axis=1)
    return out


def _subspace_kmeans(
    points: np.ndarray, ks: int, rng: np.random.Generator, iters: int
) -> np.ndarray:
    """Seeded fixed-iteration k-means over one subspace; ``(ks, sub)`` centroids.

    Same determinism contract as the IVF cell k-means: seeded distinct-
    row init, fixed iteration count, empty cells keep their previous
    centroid.
    """
    n, sub = points.shape
    initial = np.sort(rng.choice(n, size=ks, replace=False))
    centroids = points[initial].astype(np.float64, copy=True)
    for _ in range(iters):
        assign = _nearest_subspace(points, centroids)
        counts = np.bincount(assign, minlength=ks)
        sums = np.zeros((ks, sub), dtype=np.float64)
        np.add.at(sums, assign, points)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
    return centroids


class ProductQuantizer:
    """Trained PQ codebooks + encode/ADC over one folded matrix geometry.

    ``codebooks`` has shape ``(m, ks, f/m)`` float64; build one with
    :meth:`fit` (deterministic) or adopt persisted codebooks directly.
    """

    def __init__(self, codebooks: np.ndarray) -> None:
        # asanyarray: a memmap-backed codebook table (the persisted-index
        # load path) must stay a recognizable mapping — file-backed pages
        # are shared and accounted separately from private copies.
        codebooks = np.asanyarray(codebooks)
        if codebooks.dtype != np.float64:
            codebooks = codebooks.astype(np.float64)
        if codebooks.ndim != 3:
            raise ServingError(
                f"codebooks must be (m, ks, sub_dim), got shape {codebooks.shape}"
            )
        if not 1 <= codebooks.shape[1] <= MAX_CODEBOOK:
            raise ServingError(
                f"codebook size must be in [1, {MAX_CODEBOOK}], got {codebooks.shape[1]}"
            )
        self.codebooks = codebooks

    # ------------------------------------------------------------ properties
    @property
    def m(self) -> int:
        return self.codebooks.shape[0]

    @property
    def ks(self) -> int:
        return self.codebooks.shape[1]

    @property
    def sub_dim(self) -> int:
        return self.codebooks.shape[2]

    @property
    def feature_dim(self) -> int:
        return self.m * self.sub_dim

    def nbytes(self) -> int:
        return int(self.codebooks.nbytes)

    # ------------------------------------------------------------- training
    @classmethod
    def fit(
        cls,
        points: np.ndarray,
        config: PQConfig,
        seed: int | np.random.SeedSequence | None = None,
    ) -> "ProductQuantizer":
        """Train deterministic per-subspace codebooks over *points*.

        *seed* overrides ``config.seed`` (the IVF layer passes a
        partition-mixed :class:`~numpy.random.SeedSequence`); one child
        sequence is spawned per subspace so subspace trainings are
        independent deterministic streams.
        """
        points = np.asarray(points)
        n, f = points.shape
        if n < 1:
            raise ServingError("cannot fit a product quantizer on an empty matrix")
        if f % config.m != 0:
            raise ServingError(
                f"pq.m must divide the folded feature width: {config.m} does not "
                f"divide {f} (pick m from the divisors of n_e*D)"
            )
        if seed is None:
            seed = config.seed
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(
            int(seed)
        )
        sub = f // config.m
        ks = int(min(MAX_CODEBOOK, n))
        train_rows = None
        if config.train_sample < n:
            sample_rng = np.random.default_rng(root.spawn(1)[0])
            train_rows = np.sort(
                sample_rng.choice(n, size=config.train_sample, replace=False)
            )
            ks = int(min(ks, len(train_rows)))
        codebooks = np.empty((config.m, ks, sub), dtype=np.float64)
        children = root.spawn(config.m + 1)[1:]
        for j, child in enumerate(children):
            block = points[:, j * sub : (j + 1) * sub]
            train = block if train_rows is None else block[train_rows]
            train = np.asarray(train, dtype=np.float64)
            codebooks[j] = _subspace_kmeans(
                train, ks, np.random.default_rng(child), config.iters
            )
        return cls(codebooks)

    # ------------------------------------------------------------- encoding
    def encode(self, points: np.ndarray) -> np.ndarray:
        """``(n, m)`` uint8 nearest-centroid codes for every row."""
        points = np.asarray(points)
        n, f = points.shape
        if f != self.feature_dim:
            raise ServingError(
                f"cannot encode width-{f} rows with a width-{self.feature_dim} quantizer"
            )
        codes = np.empty((n, self.m), dtype=np.uint8)
        sub = self.sub_dim
        for j in range(self.m):
            block = np.asarray(points[:, j * sub : (j + 1) * sub], dtype=np.float64)
            codes[:, j] = _nearest_subspace(block, self.codebooks[j]).astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstructed ``(n, f)`` rows (centroid concatenation)."""
        codes = np.asarray(codes)
        return self.codebooks[np.arange(self.m)[None, :], codes.astype(np.int64)].reshape(
            len(codes), self.feature_dim
        )

    # -------------------------------------------------------------- scoring
    def lookup_tables(self, queries: np.ndarray) -> np.ndarray:
        """``(b, m, ks)`` ADC tables: ``lut[q, j, c] = ⟨query_j, codebook_j[c]⟩``."""
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.shape[1] != self.feature_dim:
            raise ServingError(
                f"query width {queries.shape[1]} != quantizer width {self.feature_dim}"
            )
        blocks = queries.reshape(len(queries), self.m, self.sub_dim)
        return np.einsum("qms,mcs->qmc", blocks, self.codebooks, optimize=True)

    @staticmethod
    def adc_scores(
        lut: np.ndarray, codes: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Approximate inner products of coded candidates, one per candidate.

        *codes* are the candidates' ``(n, m)`` uint8 codes.  *lut* is one
        query's ``(m, ks)`` table, or — with *rows* — a ``(b, m, ks)``
        stack where candidate ``i`` is scored against ``lut[rows[i]]``,
        so one call scans a whole batch.  Either way the ``(n, m)``
        table entries are gathered first and summed along axis 1: a
        candidate's score never depends on which call scanned it.
        Cost: ``n·m`` gathers + adds, in cache-sized candidate blocks.
        """
        m, ks = lut.shape[-2:]
        flat = np.ascontiguousarray(lut).reshape(-1)
        columns = np.arange(0, m * ks, ks, dtype=np.intp)
        if rows is not None:
            rows = np.asarray(rows, dtype=np.intp) * (m * ks)
        out = np.empty(len(codes), dtype=flat.dtype)
        for start in range(0, len(codes), _ADC_BLOCK):
            stop = start + _ADC_BLOCK
            index = columns + codes[start:stop]
            if rows is not None:
                index += rows[start:stop, None]
            flat[index].sum(axis=1, out=out[start:stop])
        return out

    def scores(self, queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """``(b, n)`` approximate inner products (convenience for tests)."""
        luts = self.lookup_tables(queries)
        return np.stack([self.adc_scores(lut, codes) for lut in luts])

    def __repr__(self) -> str:
        return (
            f"ProductQuantizer(m={self.m}, ks={self.ks}, sub_dim={self.sub_dim})"
        )

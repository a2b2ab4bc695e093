"""Ablation C: scoring throughput micro-benchmarks.

§2.2.3 claims the trilinear family "can scale linearly with respect to
embedding size in both time and space".  These micro-benchmarks measure
batch scoring and 1-vs-all sweeps for the one/two/four-embedding models
(all at the same parameter budget) and RESCAL (quadratic per relation)
as the contrast.  Serving and evaluation score through these same model
calls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import RESCAL
from repro.core.models import make_complex, make_distmult, make_quaternion

NUM_ENTITIES, NUM_RELATIONS, BUDGET, BATCH = 2000, 20, 64, 256


@pytest.fixture(scope="module")
def query(rng_module=np.random.default_rng(0)):
    heads = rng_module.integers(0, NUM_ENTITIES, BATCH)
    tails = rng_module.integers(0, NUM_ENTITIES, BATCH)
    rels = rng_module.integers(0, NUM_RELATIONS, BATCH)
    return heads, tails, rels


def _models():
    rng = np.random.default_rng(1)
    return {
        "distmult(n=1)": make_distmult(NUM_ENTITIES, NUM_RELATIONS, BUDGET, rng),
        "complex(n=2)": make_complex(NUM_ENTITIES, NUM_RELATIONS, BUDGET, rng),
        "quaternion(n=4)": make_quaternion(NUM_ENTITIES, NUM_RELATIONS, BUDGET, rng),
        "rescal": RESCAL(NUM_ENTITIES, NUM_RELATIONS, BUDGET // 2, rng),
    }


MODELS = _models()


@pytest.mark.parametrize("name", list(MODELS))
def test_batch_scoring_throughput(benchmark, name, query):
    heads, tails, rels = query
    model = MODELS[name]
    result = benchmark(lambda: model.score_triples(heads, tails, rels))
    assert result.shape == (BATCH,)


@pytest.mark.parametrize("name", list(MODELS))
def test_one_vs_all_throughput(benchmark, name, query):
    heads, _tails, rels = query
    model = MODELS[name]
    result = benchmark(lambda: model.score_all_tails(heads, rels))
    assert result.shape == (BATCH, NUM_ENTITIES)


def test_trilinear_scales_linearly_in_dim():
    """Doubling the budget must not blow scoring time up quadratically.

    A coarse check (3x slack over the linear prediction) that guards the
    §2.2.3 complexity claim against accidental quadratic implementations.
    """
    import time

    rng = np.random.default_rng(2)
    heads = rng.integers(0, NUM_ENTITIES, BATCH)
    rels = rng.integers(0, NUM_RELATIONS, BATCH)

    def time_sweep(budget: int) -> float:
        model = make_complex(NUM_ENTITIES, NUM_RELATIONS, budget, np.random.default_rng(3))
        model.score_all_tails(heads, rels)  # warm up
        start = time.perf_counter()
        for _ in range(5):
            model.score_all_tails(heads, rels)
        return time.perf_counter() - start

    small, large = time_sweep(32), time_sweep(128)
    assert large < 3.0 * 4.0 * max(small, 1e-4)

"""Seeded inputs: graphs, run directories, request streams and deltas.

Everything here is a pure function of the workload seed; the daemon
only ever sees the generated requests.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

#: synthetic-wn18 at scale 16: 24,000 entities, 13 relations.
GRAPH_SCALE = 16


def dataset_section(seed: int):
    from repro.pipeline.config import DatasetSection

    return DatasetSection(
        generator="synthetic_wn18", params={"scale": GRAPH_SCALE, "seed": int(seed)}
    )


def build_dataset(seed: int):
    return dataset_section(seed).build()


def _fresh(run_dir: Path) -> Path:
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    return run_dir


def write_untrained_run(run_dir: Path, seed: int, dataset) -> Path:
    """A servable run dir holding an *untrained* ComplEx (total_dim 16).

    Exact sweep cost does not depend on the weights, so the exact-serving
    fixture skips training and keeps set-up cheap.
    """
    from repro.pipeline.config import ModelSection, RunConfig, TrainingSection
    from repro.pipeline.runner import RunResult, build_model, write_run_dir
    from repro.training.callbacks import TrainingHistory
    from repro.training.trainer import TrainingResult

    config = RunConfig(
        dataset=dataset_section(seed),
        model=ModelSection(name="complex", total_dim=16),
        training=TrainingSection(epochs=1),
        seed=int(seed),
    )
    model = build_model(config, dataset)
    result = RunResult(
        config=config,
        dataset=dataset,
        model=model,
        training=TrainingResult(model, TrainingHistory(), False, 0),
        metrics={},
    )
    return write_run_dir(result, _fresh(run_dir))


#: Operating point of the approximate index (recall@10 >= 0.95 vs exact).
IVF_NLIST = 160
IVF_NPROBE = 16
PQ_M = 8
PQ_REFINE = 256
#: Rows sampled to fit the k-means cells and PQ codebooks.
INDEX_TRAIN_SAMPLE = 4096
TRAIN_EPOCHS = 6
TRAIN_LR = 0.05


def write_trained_indexed_run(run_dir: Path, seed: int, dataset) -> Path:
    """Train ComplEx (total_dim 16) from the seed, persist it with an
    IVF+PQ index at the benchmark's operating point."""
    from repro.pipeline.config import (
        IndexSection,
        ModelSection,
        RunConfig,
        TrainingSection,
    )
    from repro.pipeline.runner import RunResult, build_model, build_run_index, write_run_dir
    from repro.training.trainer import Trainer

    config = RunConfig(
        dataset=dataset_section(seed),
        model=ModelSection(name="complex", total_dim=16),
        training=TrainingSection(
            epochs=TRAIN_EPOCHS,
            batch_size=4096,
            learning_rate=TRAIN_LR,
            validate_every=10**6,
            patience=10**6,
        ),
        index=IndexSection(
            kind="ivf",
            nlist=IVF_NLIST,
            nprobe=IVF_NPROBE,
            pq_m=PQ_M,
            pq_refine=PQ_REFINE,
            train_sample=INDEX_TRAIN_SAMPLE,
            seed=int(seed),
        ),
        seed=int(seed),
    )
    model = build_model(config, dataset)
    training = Trainer(dataset, config.training.training_config(seed=config.seed)).train(model)
    result = RunResult(
        config=config, dataset=dataset, model=model, training=training, metrics={}
    )
    write_run_dir(result, _fresh(run_dir))
    build_run_index(run_dir)
    return run_dir


# ------------------------------------------------------------------ traffic
# There is no traffic log to fit a query mix against, so the mix is
# grounded in the served graph instead: every query is a training triple
# (h, t, r) drawn uniformly, with one side hidden.  An entity is thus
# asked about in proportion to its degree, always together with a
# relation it takes part in, and a (head, relation) pair comes back as
# often as the graph holds it.  This is the query the paper's filtered
# protocol asks of each test triple.  The constants below are the
# remaining assumptions.

#: Shares of tail / head / relation-side queries.  Tail and head are
#: equal, as in the filtered protocol, which ranks both sides of every
#: triple; relation prediction is assumed to be the rarer ask.
SIDE_SHARES = (0.45, 0.45, 0.10)
#: k of exact-serving queries: one value per daemon k-bucket, equally likely.
EXACT_KS = (1, 10, 50)
#: Share of entity-side queries that ask for filtered ranking.
FILTERED_SHARE = 0.5
#: k of index-serving reads: the recall@10 operating point.
INDEX_K = 10


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Open-loop arrival times (s) of a Poisson stream over *seconds*."""
    expected = int(rate * seconds * 1.5) + 16
    gaps = rng.exponential(1.0 / rate, size=expected)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def _drawn_triples(rng, triples: np.ndarray, size: int) -> list[list[int]]:
    """*size* rows (h, t, r) drawn uniformly, with replacement, from *triples*."""
    return triples[rng.integers(0, len(triples), size=size)].tolist()


def mixed_requests(rng, triples: np.ndarray, size: int) -> list[dict]:
    """The exact-serving mix: sides in SIDE_SHARES, k from EXACT_KS,
    FILTERED_SHARE of the entity-side queries filtered."""
    drawn = _drawn_triples(rng, triples, size)
    sides = rng.choice(3, size=size, p=SIDE_SHARES).tolist()
    ks = rng.choice(EXACT_KS, size=size).tolist()
    filtered = (rng.random(size) < FILTERED_SHARE).tolist()
    out = []
    for (h, t, r), side, k, masked in zip(drawn, sides, ks, filtered):
        if side == 0:
            out.append({"op": "top_k", "side": "tail", "head": h, "relation": r, "k": k,
                        "filtered": masked})
        elif side == 1:
            out.append({"op": "top_k", "side": "head", "tail": t, "relation": r, "k": k,
                        "filtered": masked})
        else:
            out.append({"op": "top_k", "side": "relation", "head": h, "tail": t, "k": k})
    return out


def entity_requests(rng, triples: np.ndarray, size: int) -> list[dict]:
    """Index-serving reads: tail or head with equal odds, k = INDEX_K,
    FILTERED_SHARE of them filtered."""
    drawn = _drawn_triples(rng, triples, size)
    tails = (rng.random(size) < 0.5).tolist()
    filtered = (rng.random(size) < FILTERED_SHARE).tolist()
    out = []
    for (h, t, r), tail_side, masked in zip(drawn, tails, filtered):
        anchor = {"side": "tail", "head": h} if tail_side else {"side": "head", "tail": t}
        out.append({"op": "top_k", **anchor, "relation": r, "k": INDEX_K,
                    "filtered": masked})
    return out


#: serve-ivfpq-ingest's writes: NUM_DELTAS deltas, each adding DELTA_ADDS
#: novel triples, deleting DELTA_DELETES training triples and naming
#: DELTA_NEW_ENTITIES new entities.  Deltas this small keep the index's
#: assignment drift well under its rebuild threshold on every seed.
NUM_DELTAS = 2
DELTA_ADDS = 30
DELTA_DELETES = 30
DELTA_NEW_ENTITIES = 5


def graph_deltas(rng, dataset, tag: str) -> list[dict]:
    """NUM_DELTAS sequentially valid deltas (wire dict form).

    Every new entity gets at least one of the added triples; *tag* makes
    the new entity names unique to the run.
    """
    ent = dataset.entities.to_list()
    rel = dataset.relations.to_list()
    train = dataset.train.array
    known = (
        dataset.train.as_set() | dataset.valid.as_set() | dataset.test.as_set()
    )
    victims = rng.choice(len(train), size=NUM_DELTAS * DELTA_DELETES, replace=False)
    deltas = []
    for d in range(NUM_DELTAS):
        fresh = [f"perfbench_{tag}_{d}_{i}" for i in range(DELTA_NEW_ENTITIES)]
        added: list[list[str]] = []
        seen: set[tuple[int, int, int]] = set()
        for name in fresh:
            other = ent[int(rng.integers(len(ent)))]
            relation = rel[int(rng.integers(len(rel)))]
            added.append([name, other, relation] if rng.random() < 0.5
                         else [other, name, relation])
        while len(added) < DELTA_ADDS:
            h, t = (int(x) for x in rng.integers(len(ent), size=2))
            r = int(rng.integers(len(rel)))
            if h == t or (h, t, r) in known or (h, t, r) in seen:
                continue
            seen.add((h, t, r))
            added.append([ent[h], ent[t], rel[r]])
        removed = [
            [ent[int(train[v, 0])], ent[int(train[v, 1])], rel[int(train[v, 2])]]
            for v in victims[d * DELTA_DELETES:(d + 1) * DELTA_DELETES]
        ]
        known |= seen
        deltas.append({"add_triples": added, "delete_triples": removed})
    return deltas

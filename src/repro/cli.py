"""Command-line interface: ``python -m repro <command>`` or ``repro-kge``.

Commands
--------
* ``generate`` — write a synthetic WN18-like dataset directory.
* ``inspect``  — dataset statistics and relation-pattern report.
* ``train``    — train a model (registry name or ``--config`` JSON) and
  report link-prediction metrics; ``--run-dir`` persists a resumable run.
* ``predict``  — top-k link prediction from a checkpoint or ``--run-dir``;
  ``--index`` serves through the run's approximate retrieval index and
  ``--stats`` reports the index's probed fraction and sampled recall.
* ``build-index`` — build and persist the approximate retrieval index
  of a pipeline run directory.
* ``ingest``   — apply a :class:`~repro.ingest.GraphDelta` JSON file to
  a run: transactional dataset update, embedding-table growth,
  warm-start fine-tuning of touched rows, incremental index upkeep.
* ``serve``    — run the micro-batched async serving daemon
  (:mod:`repro.serving.server`) over a pipeline run directory.
* ``obs``      — render a run's persisted telemetry
  (``telemetry.jsonl``): the span tree and the merged metrics registry,
  optionally in Prometheus text format.
* ``table``    — regenerate paper Table 2, 3 or 4 end-to-end.
* ``weights``  — list ω presets with their §6.1.2 property analysis.

Every command goes through the unified run pipeline
(:mod:`repro.pipeline`): model choices come from the component
registries, and ``--config``/``--run-dir`` expose the declarative
:class:`~repro.pipeline.config.RunConfig` / run-artifact layer.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

import numpy as np

from repro.core.models import MODEL_FACTORIES
from repro.core.properties import analyze_weight_vector
from repro.core.serialization import DOWNCAST_DTYPES
from repro.core.weights import PRESETS
from repro.errors import ConfigError, ReproError
from repro.kg.io import load_dataset_directory, save_dataset_directory
from repro.kg.patterns import analyze_relations, inverse_leakage
from repro.kg.stats import compute_stats
from repro.kg.synthetic import SyntheticKGConfig, generate_synthetic_kg
from repro.pipeline.config import (
    DatasetSection,
    EvalSection,
    ModelSection,
    RunConfig,
    TrainingSection,
)
from repro.pipeline.runner import run_pipeline


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro-kge`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-kge",
        description="Multi-embedding interaction models for knowledge graph embedding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic WN18-like dataset")
    gen.add_argument("output", help="directory to write train/valid/test files into")
    gen.add_argument("--entities", type=int, default=1500)
    gen.add_argument("--clusters", type=int, default=60)
    gen.add_argument("--seed", type=int, default=0)

    insp = sub.add_parser("inspect", help="print dataset statistics and patterns")
    insp.add_argument("dataset", help="dataset directory (train/valid/test files)")

    train = sub.add_parser("train", help="train a model and report metrics")
    # Choices come straight from the model-factory registry, so newly
    # registered models are immediately trainable from the CLI.
    train.add_argument("model", nargs="?", choices=sorted(MODEL_FACTORIES),
                       help="registered model name (optional with --config)")
    train.add_argument("--config", help="RunConfig JSON file; replaces the flag-based "
                                        "dataset/model/training setup below")
    train.add_argument("--run-dir", help="directory to persist the run "
                                         "(config + checkpoint + history + metrics)")
    train.add_argument("--dataset", help="dataset directory; synthetic if omitted")
    train.add_argument("--entities", type=int, default=800, help="synthetic dataset size")
    train.add_argument("--total-dim", type=int, default=64)
    train.add_argument("--epochs", type=int, default=200)
    train.add_argument("--batch-size", type=int, default=1024)
    train.add_argument("--learning-rate", type=float, default=0.02)
    train.add_argument("--regularization", type=float, default=3e-3)
    train.add_argument("--negatives", type=int, default=1)
    train.add_argument("--sampler", default="uniform",
                       help="negative sampler registry name (uniform, bernoulli)")
    train.add_argument("--optimizer", default="adam",
                       help="optimizer registry name (sgd, adagrad, adam)")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--workers", type=int, default=None,
                       help="worker processes ranking evaluation blocks; metrics are "
                            "bit-identical to the serial evaluator "
                            "(0 = in-process; default from --config, else 0)")
    train.add_argument("--quiet", action="store_true")
    train.add_argument("--dtype", choices=DOWNCAST_DTYPES,
                       default=None,
                       help="downcast stored embedding tables; refused unless the "
                            "serving-path score deviation stays within the "
                            "storage equivalence tolerance")
    train.add_argument("--save", help="directory to write the trained model checkpoint")
    train.add_argument("--per-relation", action="store_true",
                       help="also print per-relation test metrics")

    pred = sub.add_parser("predict", help="top-k link prediction from a saved checkpoint "
                                          "or pipeline run directory")
    pred.add_argument("checkpoint", nargs="?",
                      help="model checkpoint directory (written by train --save); "
                           "optional with --run-dir")
    pred.add_argument("--run-dir", help="pipeline run directory written by train --run-dir; "
                                        "supplies the checkpoint and (synthetic) dataset")
    pred.add_argument("--dataset",
                      help="dataset directory supplying vocabularies and the filter index "
                           "(optional with --run-dir)")
    pred.add_argument("--head", help="head entity name (omit to predict heads)")
    pred.add_argument("--relation", help="relation name (omit to predict relations)")
    pred.add_argument("--tail", help="tail entity name (omit to predict tails)")
    pred.add_argument("-k", "--top", type=int, default=10, dest="top",
                      help="number of candidates to return")
    pred.add_argument("--raw", action="store_true",
                      help="rank known true triples too instead of filtering them out "
                           "(entity prediction only; relation prediction is always raw)")
    pred.add_argument("--index", action="store_true",
                      help="serve through the run's approximate retrieval index "
                           "(requires --run-dir; loads the persisted index or "
                           "builds one with the run config's settings)")
    pred.add_argument("--nprobe", type=int, default=None,
                      help="override the index's probe budget for this query "
                           "(nprobe == nlist is exact)")
    pred.add_argument("--stats", action="store_true",
                      help="with --index, print the probed fraction and sampled "
                           "recall for the query batch")

    build_ix = sub.add_parser(
        "build-index",
        help="build and persist the approximate retrieval index of a pipeline run",
    )
    build_ix.add_argument("run_dir", help="pipeline run directory (train --run-dir)")
    build_ix.add_argument("--kind", choices=("ivf", "exact"), default=None,
                          help="index kind (default: the run config's index.kind, "
                               "or ivf)")
    build_ix.add_argument("--nlist", type=int, default=None,
                          help="k-means cells per partition (default ≈ 2·sqrt(N))")
    build_ix.add_argument("--nprobe", type=int, default=None,
                          help="default cells probed per query (default nlist // 8)")
    build_ix.add_argument("--seed", type=int, default=None,
                          help="k-means seed (deterministic builds)")
    build_ix.add_argument("--iters", type=int, default=None,
                          help="fixed k-means iteration count")
    build_ix.add_argument("--pq-m", type=int, default=None,
                          help="enable the product-quantized coarse pass with this "
                               "many subspaces (must divide the folded feature "
                               "width n_e*D)")
    build_ix.add_argument("--pq-refine", type=int, default=None,
                          help="candidates kept per query after the ADC scan "
                               "(exact re-rank budget; default 64)")
    build_ix.add_argument("--train-sample", type=int, default=None,
                          help="seeded row-sample size for k-means/codebook "
                               "fitting (bounds build cost at scale)")
    build_ix.add_argument("--fold-cache", type=int, default=None,
                          help="LRU capacity of the folded-matrix cache used "
                               "during builds (default 2)")
    build_ix.add_argument("--spill", type=int, default=None,
                          help="cells each entity is assigned to (multi-assignment)")
    build_ix.add_argument("--workers", type=int, default=0,
                          help="worker processes for the per-partition build fan-out "
                               "(0 = in-process)")

    serve = sub.add_parser(
        "serve",
        help="run the micro-batched async serving daemon over a pipeline run",
    )
    serve.add_argument("run_dir", help="pipeline run directory (train --run-dir)")
    serve.add_argument("--host", default=None,
                       help="bind address (default: the run config's serving.host)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: the run config's serving.port)")
    serve.add_argument("--max-batch", type=int, default=None,
                       help="most queued requests coalesced into one micro-batch")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="admission cap; requests beyond it fast-fail "
                            "with a retry-after hint")
    serve.add_argument("--index", choices=("none", "auto", "require"), default=None,
                       help="attach the run's retrieval index (auto: persisted "
                            "only; require: build if missing; none: exact sweeps)")

    ing = sub.add_parser(
        "ingest",
        help="apply a graph-delta JSON to a pipeline run: grow and warm-start "
             "fine-tune the checkpoint, update dataset, filter index and "
             "retrieval index incrementally",
    )
    ing.add_argument("run_dir", help="pipeline run directory (train --run-dir)")
    ing.add_argument("delta", help="GraphDelta JSON file (repro.ingest.GraphDelta)")
    ing.add_argument("--dataset",
                     help="dataset directory overriding the run config's dataset")
    ing.add_argument("--epochs", type=int, default=None,
                     help="warm-start fine-tuning epochs over touched-entity "
                          "triples (0 grows tables without training; default "
                          "from the run config's ingest section)")
    ing.add_argument("--batch-size", type=int, default=None)
    ing.add_argument("--learning-rate", type=float, default=None)
    ing.add_argument("--optimizer", default=None,
                     help="optimizer registry name for fine-tuning")
    ing.add_argument("--negatives", type=int, default=None, dest="num_negatives")
    ing.add_argument("--seed", type=int, default=None)
    ing.add_argument("--drift-threshold", type=float, default=None,
                     help="fraction of re-assigned dirty entities past which "
                          "the retrieval index is rebuilt instead of spliced")
    ing.add_argument("--dry-run", action="store_true",
                     help="apply in memory and print the receipt without "
                          "persisting anything")

    obs_p = sub.add_parser(
        "obs",
        help="render a run's persisted telemetry: span tree + metrics "
             "(train with observability.enabled to produce telemetry.jsonl)",
    )
    obs_p.add_argument("run_dir", help="pipeline run directory containing telemetry.jsonl")
    obs_p.add_argument("--prometheus", action="store_true",
                       help="dump the metrics in Prometheus text format instead "
                            "of the human-readable summary")

    sub.add_parser("weights", help="list weight-vector presets and their properties")

    table = sub.add_parser("table", help="regenerate a paper table (2, 3 or 4)")
    table.add_argument("number", type=int, choices=(2, 3, 4))
    table.add_argument("--config", help="base RunConfig JSON file for every row; a row "
                                        "replaces only its model, label and "
                                        "evaluation.evaluate_train")
    table.add_argument("--run-dir", help="root directory; each table row is persisted "
                                         "as a reloadable run under it")
    table.add_argument("--entities", type=int, default=800)
    table.add_argument("--total-dim", type=int, default=64)
    table.add_argument("--epochs", type=int, default=300)
    table.add_argument("--seed", type=int, default=0)
    table.add_argument("--workers", type=int, default=None,
                       help="worker processes ranking evaluation blocks per table row "
                            "(0 = in-process; bit-identical metrics)")
    return parser


def _apply_parallel_flags(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Overlay ``--workers`` onto a config's parallel section."""
    if args.workers is None:
        return config
    data = config.to_dict()
    data["parallel"]["eval_workers"] = args.workers
    return RunConfig.from_dict(data)


def _dataset_section(args: argparse.Namespace) -> DatasetSection:
    """The dataset section implied by ``--dataset``/``--entities``/``--seed``."""
    if args.dataset:
        return DatasetSection(generator="directory", params={"path": args.dataset})
    return DatasetSection(
        generator="synthetic_wn18",
        params={
            "num_entities": args.entities,
            "num_clusters": max(1, args.entities // 20),
            "num_domains": max(1, args.entities // 100),
            "seed": args.seed,
        },
    )


def _apply_storage_flags(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Overlay ``--dtype`` onto a config's storage section."""
    if args.dtype is None:
        return config
    data = config.to_dict()
    data["storage"]["dtype"] = args.dtype
    return RunConfig.from_dict(data)


def _train_run_config(args: argparse.Namespace) -> RunConfig:
    """Resolve the train command's RunConfig (flag-based or ``--config``)."""
    if args.config:
        config = RunConfig.load(args.config)
        if args.model:
            data = config.to_dict()
            data["model"]["name"] = args.model
            config = RunConfig.from_dict(data)
        return _apply_storage_flags(_apply_parallel_flags(config, args), args)
    if not args.model:
        raise ConfigError("train needs a registered model name or --config FILE")
    return _apply_storage_flags(_apply_parallel_flags(RunConfig(
        dataset=_dataset_section(args),
        model=ModelSection(
            name=args.model,
            total_dim=args.total_dim,
            regularization=args.regularization,
            init_seed=args.seed,
        ),
        training=TrainingSection(
            epochs=args.epochs,
            batch_size=args.batch_size,
            learning_rate=args.learning_rate,
            optimizer=args.optimizer,
            num_negatives=args.negatives,
            negative_sampler=args.sampler,
            verbose=not args.quiet,
        ),
        evaluation=EvalSection(),
        seed=args.seed,
    ), args), args)


def _cmd_generate(args: argparse.Namespace) -> int:
    config = SyntheticKGConfig(
        num_entities=args.entities, num_clusters=args.clusters, seed=args.seed
    )
    dataset = generate_synthetic_kg(config)
    save_dataset_directory(dataset, args.output)
    print(compute_stats(dataset).format_table())
    print(f"\nwritten to {args.output}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    dataset = load_dataset_directory(args.dataset)
    print(compute_stats(dataset).format_table())
    print(f"\ninverse leakage (test vs train): {inverse_leakage(dataset, 'test'):.3f}\n")
    print(f"{'relation':<28} {'count':>7} {'symmetry':>9} {'inverse of':<28} {'score':>6}")
    for report in analyze_relations(dataset.train):
        partner = (
            dataset.relations.name(report.inverse_partner)
            if report.inverse_partner is not None
            else "-"
        )
        print(
            f"{dataset.relations.name(report.relation):<28} {report.count:>7} "
            f"{report.symmetry:>9.3f} {partner:<28} {report.inverse_score:>6.3f}"
        )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _train_run_config(args)
    result = run_pipeline(config, run_dir=args.run_dir)
    model, dataset = result.model, result.dataset
    metrics = result.test_metrics
    print(f"\n{model.name} on {dataset.name} (epochs run: {result.epochs_run})")
    print(f"MRR     {metrics.mrr:.3f}")
    print(f"MR      {metrics.mr:.1f}")
    for k in sorted(metrics.hits):
        print(f"Hits@{k:<2} {metrics.hits[k]:.3f}")
    if args.per_relation:
        from repro.eval.per_relation import evaluate_per_relation, format_per_relation_table

        results = evaluate_per_relation(model, dataset, split="test")
        if results:
            print("\n" + format_per_relation_table(results))
    if args.run_dir:
        print(f"\nrun artifacts written to {args.run_dir}")
    if args.save:
        from repro.core.serialization import save_model

        save_model(model, args.save)
        print(f"\ncheckpoint written to {args.save}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.core.serialization import load_model
    from repro.errors import ServingError
    from repro.serving import LinkPredictor

    if args.index and not args.run_dir:
        raise ConfigError("predict --index needs --run-dir")
    if args.run_dir:
        from repro.pipeline.runner import load_run

        loaded = load_run(args.run_dir)
        model = loaded.model
        dataset = (
            load_dataset_directory(args.dataset) if args.dataset else loaded.build_dataset()
        )
    else:
        if not args.checkpoint:
            raise ConfigError("predict needs a checkpoint directory or --run-dir")
        if not args.dataset:
            raise ConfigError("predict needs --dataset when not using --run-dir")
        model = load_model(args.checkpoint)
        dataset = load_dataset_directory(args.dataset)
    if model.num_entities != dataset.num_entities or (
        model.num_relations != dataset.num_relations
    ):
        raise ServingError(
            f"checkpoint id spaces ({model.num_entities} entities / "
            f"{model.num_relations} relations) do not match dataset "
            f"({dataset.num_entities} / {dataset.num_relations})"
        )
    index = None
    if args.index:
        from repro.pipeline.components import build_index
        from repro.pipeline.config import IndexSection
        from repro.pipeline.runner import load_run_index

        index = load_run_index(
            args.run_dir, model, on_stale=loaded.config.index.on_stale
        )
        if index is None:
            section = loaded.config.index
            if not section.enabled:
                section = IndexSection(kind="ivf")
            index = build_index(model, section)
            print(f"no persisted index under {args.run_dir}; built {index!r} in memory")
        if args.nprobe is not None and hasattr(index, "nprobe"):
            index.nprobe = args.nprobe
    predictor = LinkPredictor(
        model,
        dataset,
        index=index,
        recall_sample_every=1 if (args.stats and index is not None) else 0,
    )
    predictions = predictor.predict(
        head=args.head,
        relation=args.relation,
        tail=args.tail,
        k=args.top,
        filtered=not args.raw,
    )
    missing = "relation" if args.relation is None else ("tail" if args.tail is None else "head")
    query = (args.head or "?", args.relation or "?", args.tail or "?")
    print(f"{model.name}: top-{len(predictions)} {missing} candidates for "
          f"({query[0]}, {query[1]}, {query[2]})")
    print(f"{'rank':>4} {'candidate':<28} {'score':>10}")
    for rank, (name, score) in enumerate(predictions, start=1):
        shown = f"{score:>10.4f}" if np.isfinite(score) else "  filtered"
        print(f"{rank:>4} {name:<28} {shown}")
    if args.stats:
        from repro.obs import prometheus_text

        print("\nregistry metrics:")
        print(
            prometheus_text(predictor.metrics_snapshot()).rstrip()
            or "(none: the counters come from the index; add --index)"
        )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import load_telemetry, prometheus_text, summarize_run

    if args.prometheus:
        _, metrics = load_telemetry(args.run_dir)
        if metrics is None:
            raise ConfigError(
                f"telemetry at {args.run_dir} carries no metrics record"
            )
        print(prometheus_text(metrics).rstrip())
        return 0
    print(summarize_run(args.run_dir))
    return 0


def _cmd_build_index(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.pipeline.config import IndexSection
    from repro.pipeline.runner import build_run_index, load_run

    loaded = load_run(args.run_dir)
    section = loaded.config.index
    if not section.enabled:
        section = IndexSection(kind="ivf")
    overrides = {
        field_name: value
        for field_name, value in (
            ("kind", args.kind),
            ("nlist", args.nlist),
            ("nprobe", args.nprobe),
            ("seed", args.seed),
            ("iters", args.iters),
            ("spill", args.spill),
            ("pq_m", args.pq_m),
            ("pq_refine", args.pq_refine),
            ("train_sample", args.train_sample),
            ("fold_cache", args.fold_cache),
        )
        if value is not None
    }
    if overrides:
        section = dataclasses.replace(section, **overrides)
    index = build_run_index(args.run_dir, section=section, workers=args.workers)
    print(f"built {index!r}")
    if hasattr(index, "built_partitions"):
        partitions = index.built_partitions
        print(f"partitions: {len(partitions)} "
              f"({index.model.num_relations} relations x tail/head)")
    print(f"index written to {args.run_dir}/index")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.pipeline.runner import load_run
    from repro.serving.server import serve_forever

    # The stored config's serving section supplies the defaults; CLI
    # flags override field by field.
    section = load_run(args.run_dir).config.serving
    overrides = {
        field_name: value
        for field_name, value in (
            ("host", args.host),
            ("port", args.port),
            ("max_batch", args.max_batch),
            ("queue_depth", args.queue_depth),
            ("index", args.index),
        )
        if value is not None
    }
    if overrides:
        section = dataclasses.replace(section, **overrides)
    serve_forever(
        args.run_dir,
        host=section.host,
        port=section.port,
        max_batch=section.max_batch,
        queue_depth=section.queue_depth,
        index=section.index_mode,
    )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import dataclasses
    import json
    from pathlib import Path

    from repro.core.serialization import save_model
    from repro.ingest import GraphDelta, ingest_delta
    from repro.kg.io import save_dataset_directory
    from repro.pipeline.runner import load_run, load_run_index
    from repro.reliability.atomic import atomic_write_text
    from repro.reliability.manifest import read_manifest, sha256_bytes, write_manifest

    run_dir = Path(args.run_dir)
    loaded = load_run(run_dir)
    config = loaded.config
    model = loaded.model
    dataset = (
        load_dataset_directory(args.dataset) if args.dataset else loaded.build_dataset()
    )
    delta = GraphDelta.load(args.delta)
    index = load_run_index(run_dir, model, on_stale=config.index.on_stale)

    section = config.ingest
    overrides = {
        field_name: value
        for field_name, value in (
            ("epochs", args.epochs),
            ("batch_size", args.batch_size),
            ("learning_rate", args.learning_rate),
            ("optimizer", args.optimizer),
            ("num_negatives", args.num_negatives),
            ("seed", args.seed),
            ("drift_threshold", args.drift_threshold),
        )
        if value is not None
    }
    if overrides:
        section = dataclasses.replace(section, **overrides)

    outcome = ingest_delta(model, dataset, delta, index=index, **section.ingest_kwargs())
    print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
    if not outcome.applied:
        print("\nempty delta; run directory left untouched")
        return 0
    if args.dry_run:
        print("\ndry run; run directory left untouched")
        return 0

    # Persist the post-delta state so the run directory stays coherent:
    # the mutated dataset becomes a directory dataset the config points
    # at, the grown checkpoint replaces the old one, and the manifest is
    # rewritten so load_run keeps verifying.
    storage = config.storage
    dataset_dir = run_dir / "dataset"
    save_dataset_directory(outcome.dataset, dataset_dir)
    data = config.to_dict()
    data["dataset"] = {"generator": "directory", "params": {"path": str(dataset_dir)}}
    config = RunConfig.from_dict(data)

    hashes = {
        name: digest
        for name, digest in (read_manifest(run_dir) or {}).items()
        if not name.startswith("checkpoint/") and name != "config.json"
    }
    checkpoint_hashes = save_model(
        model,
        run_dir / "checkpoint",
        dtype=None if storage.dtype == "float64" else storage.dtype,
        equivalence_tol=storage.equivalence_tol,
    )
    for name, digest in checkpoint_hashes.items():
        hashes[f"checkpoint/{name}"] = digest
    config_text = config.to_json() + "\n"
    atomic_write_text(run_dir / "config.json", config_text)
    hashes["config.json"] = sha256_bytes(config_text.encode("utf-8"))
    write_manifest(run_dir, hashes)

    if index is not None:
        update = outcome.index_update
        if update is not None and not update.rebuild_triggered:
            index.save(run_dir / "index")
            print(f"\nindex updated incrementally (drift {update.drift:.3f}) "
                  f"and re-persisted")
        else:
            from repro.pipeline.runner import build_run_index

            build_run_index(run_dir)
            print("\nassignment drift past threshold; index rebuilt from scratch")
    print(f"run artifacts under {run_dir} updated "
          f"(+{outcome.stats.num_added} / -{outcome.stats.num_deleted} triples)")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.paper_tables import (
        TABLE_DEFAULTS,
        format_learned_omegas,
        format_table,
        run_table2,
        run_table3,
        run_table4,
    )
    from repro.pipeline.sweep import apply_overrides

    if args.config:
        config = RunConfig.load(args.config)
    else:
        config = apply_overrides(TABLE_DEFAULTS, {
            "dataset.params.num_entities": args.entities,
            "dataset.params.num_clusters": max(1, args.entities // 20),
            "dataset.params.num_domains": max(1, args.entities // 100),
            "model.total_dim": args.total_dim,
            "training.epochs": args.epochs,
            "seed": args.seed,
        })
    config = _apply_parallel_flags(config, args)
    dataset = config.dataset.build()
    run_root = args.run_dir
    if args.number == 2:
        results = run_table2(config, dataset, run_root=run_root)
        print(format_table(f"Table 2: derived weight vectors on {dataset.name}", results))
    elif args.number == 3:
        results = run_table3(config, dataset, run_root=run_root)
        print(format_table(f"Table 3: auto-learned weight vectors on {dataset.name}", results))
        print("\n" + format_learned_omegas(results))
    else:
        results = run_table4(config, dataset, run_root=run_root)
        print(format_table(f"Table 4: quaternion four-embedding on {dataset.name}", results))
    if run_root:
        print(f"\nper-row run artifacts written under {run_root}")
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    print(f"{'preset':<18} {'weights':<30} {'complete':>8} {'stable':>7} "
          f"{'disting.':>8} {'prediction':>11}")
    for key, preset in sorted(PRESETS.items()):
        props = analyze_weight_vector(preset)
        flat = preset.flatten()
        shown = ",".join(f"{v:g}" for v in flat) if len(flat) <= 8 else f"<{len(flat)} terms>"
        print(
            f"{key:<18} {shown:<30} {str(props.complete):>8} {str(props.stable):>7} "
            f"{str(props.distinguishable):>8} {props.predicted_quality():>11}"
        )
    return 0


_COMMANDS = {
    "build-index": _cmd_build_index,
    "generate": _cmd_generate,
    "ingest": _cmd_ingest,
    "inspect": _cmd_inspect,
    "obs": _cmd_obs,
    "predict": _cmd_predict,
    "serve": _cmd_serve,
    "table": _cmd_table,
    "train": _cmd_train,
    "weights": _cmd_weights,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

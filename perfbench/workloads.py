"""The three workloads and the metrics they report.

Every workload prints the same end-to-end metric names (``--trace 0``)
and the same per-layer names (``--trace 1``); what each name measures
on each workload is tabulated in ``perfbench/README.md``.  A layer a
workload bypasses reports 0 for its per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fixtures
import spans as spans_mod
from common import WORK, emit_result, log, mean, median, peak_rss_mb, quantile, source_digest
from daemon import Daemon
from loadgen import Phase, run_phase, run_saturated

# ------------------------------------------------------------------ knobs
#: Set-ups per untraced run; ``setup_s`` is their median.  The serving
#: workloads build their fixture once and launch the daemon this many
#: times; train-eval repeats its whole (cheaper) set-up.
SETUP_REPEATS = 2
TRAIN_SETUP_REPEATS = 5
#: Open-loop SLO on p99 latency (ms) that a ladder rung must meet.
SLO_P99_MS = 50.0
#: A rung whose generator ran later than this at p99 is invalid.
LATE_LIMIT_MS = 5.0
#: Requests per second of each ladder rung.  Untraced runs measure only
#: the nominal (first) rung and saturated capacity; the traced run
#: climbs the whole ladder for max_rps_at_slo.  The exact daemon
#: saturates near 1,500 req/s on the reference host; at 200 req/s (about
#: a seventh of that) requests rarely queue, so the median measures
#: service time rather than queueing, which amplifies the host's speed
#: drift.  500 req/s, the rate the first sizing used, is a rung.
EXACT_RATES = (200, 500, 800, 1100)
#: The index path saturates near 540 req/s; its nominal rate is a fifth.
IVF_RATES = (100, 200, 300, 400)
#: Rounds the ladder is interleaved in (the host's speed drifts over
#: seconds; every rung should see the same average conditions).
LADDER_ROUNDS = 3
#: Share of the ladder's time spent saturated (closed loop) to measure
#: sustained capacity, and the requests kept outstanding there: two full
#: micro-batches at the daemon's default max_batch (64), so the batcher
#: always finds a full batch waiting while it scores one.
SATURATION_SHARE = 0.2
SATURATION_WINDOW = 128
#: Admission cap handed to the daemon: high enough that an overloaded
#: rung queues (and misses the SLO) instead of refusing requests.
QUEUE_DEPTH = 8192
#: serve-ivfpq-ingest phase 2 (the deltas of fixtures.graph_deltas,
#: each holding the swap lock for about a second and a half, beside
#: reads at the nominal rate): its share of --seconds.
WRITE_PHASE_SHARE = 0.2
RECALL_FLOOR = 0.95
#: LinkPredictor's default LRU score-cache capacity (entries).
CACHE_ENTRIES = 4096
PROBES = 48
RECALL_PROBES = 200
#: index.speedup_vs_exact: one tail batch of this many queries, timed
#: this many times through each path.
SPEEDUP_BATCH = 256
SPEEDUP_REPEATS = 5
#: A traced serving run fails unless the span tree under
#: LinkPredictor.top_k accounts for its wall time within this share.
RECONCILE_TOLERANCE = 0.01
#: train-eval: the paper's quaternion model.
QUAT_DIM = 200
QUAT_BATCH = 1024
QUAT_LR = 0.01
#: Epochs are fixed per --seconds (not timed), so MRR repeats exactly.
TRAIN_SECONDS_PER_EPOCH = 6.0

E2E_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "throughput_per_s": "1/s",
    "rss_mb": "MB",
    "quality": "fraction",
    "success_rate": "fraction",
}

LAYER_UNITS = {
    "latency.p90_ms": "ms",
    "latency.p99_ms": "ms",
    "server.wait_ms.p50": "ms",
    "server.wait_ms.p99": "ms",
    "server.coalesced.mean": "count",
    "server.calls_per_request": "ratio",
    "server.peak_depth": "count",
    "server.rejected": "count",
    "server.failed": "count",
    "wire.service_ms.p50": "ms",
    "gen.late_ms.p99": "ms",
    "predictor.top_k_ms.p50": "ms",
    "predictor.self_ms.p50": "ms",
    "predictor.rows_per_call.mean": "count",
    "scorer.all_scores_ms.p50": "ms",
    "scorer.score_triples_ms.p50": "ms",
    "scorer.score_candidates_ms.p50": "ms",
    "scorer.candidates_per_row.mean": "count",
    "cache.hit_ratio": "fraction",
    "cache.repeated_key_share": "fraction",
    "cache.bytes_peak": "bytes",
    "filter.lookups": "count",
    "filter.lookup_ms.total": "ms",
    "index.candidate_lists_ms.p50": "ms",
    "index.candidate_lists_self_ms.p50": "ms",
    "fold.query_matrix_ms.p50": "ms",
    "pq.lookup_tables_ms.p50": "ms",
    "pq.adc_ms.total": "ms",
    "pq.adc_calls_per_query": "ratio",
    "pq.kept_ratio": "fraction",
    "index.probed_fraction": "fraction",
    "index.speedup_vs_exact": "ratio",
    "p99_under_writes_ms": "ms",
    "delta_p50_ms": "ms",
    "ingest.delta_ms.p50": "ms",
    "ingest.apply_ms.p50": "ms",
    "ingest.grow_ms.p50": "ms",
    "ingest.fine_tune_ms.p50": "ms",
    "index.update_entities_ms.p50": "ms",
    "index.drift.max": "fraction",
    "index.rebuilds": "count",
    "train.step_ms.p50": "ms",
    "train.corrupt_ms.p50": "ms",
    "train.steps": "count",
    "train_triples_per_s": "1/s",
    "eval.sweep_ms.total": "ms",
    "eval.rank_ms.total": "ms",
    "max_rps_at_slo": "1/s",
    "trace.reconciled_fraction": "fraction",
    "trace.overhead_ms": "ms",
}


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    report: dict = field(default_factory=dict)

    def emit(self) -> None:
        for name, value in self.report.items():
            log(f"{name}: {value}")
        emit_result(self.correct, self.attempted, self.failed, self.metrics)


def _metrics(values: dict, units: dict) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def _streams(seed: int, count: int) -> list[np.random.Generator]:
    """Independent seeded generators (fixtures, probes, traffic, ...)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _nan0(value: float) -> float:
    return 0.0 if value is None or not math.isfinite(value) else float(value)


# ------------------------------------------------------------------ ladder
def _ladder(daemon: Daemon, rng, rates, seconds: float, make_requests,
            triples: np.ndarray) -> tuple[list[tuple[int, Phase]], dict]:
    """Run the open-loop rungs and a saturated closed-loop window in
    LADDER_ROUNDS interleaved rounds, pooling each rate's samples.

    SATURATION_SHARE of *seconds* goes to the saturated windows, the
    rest is split evenly between the rungs.

    The host's speed drifts over seconds; spreading every rung over the
    whole run makes all of them see the same average conditions.
    """
    pooled: dict[int, list[Phase]] = {rate: [] for rate in rates}
    saturated = {"completed": 0, "failed": 0, "seconds": 0.0}
    open_seconds = (1 - SATURATION_SHARE) * seconds / LADDER_ROUNDS
    for _ in range(LADDER_ROUNDS):
        for rate in rates:
            offsets = fixtures.poisson_offsets(rng, rate, open_seconds / len(rates))
            payloads = make_requests(rng, triples, len(offsets))
            pooled[rate].append(run_phase(daemon.port, offsets, payloads))
        window = run_saturated(
            daemon.port, make_requests(rng, triples, 2048),
            SATURATION_WINDOW, SATURATION_SHARE * seconds / LADDER_ROUNDS,
        )
        for key in saturated:
            saturated[key] += window[key]
    rungs = [(rate, Phase.concat(phases)) for rate, phases in pooled.items()]
    return rungs, saturated


def _wire_figures(phase: Phase) -> dict:
    """Server-side figures of one phase, from its replies' wire fields
    (``waited_ms``, ``coalesced``) and the client's own clocks."""
    waited, coalesced, service = [], [], []
    for i in phase.indices():
        if phase.ok(i):
            response = phase.responses[i]
            waited.append(response["waited_ms"])
            coalesced.append(response["coalesced"])
            service.append(1000.0 * (phase.recv[i] - phase.sent[i]) - response["waited_ms"])
    return {
        "server.wait_ms.p50": _nan0(quantile(waited, 0.5)),
        "server.wait_ms.p99": _nan0(quantile(waited, 0.99)),
        "server.coalesced.mean": _nan0(mean(coalesced)),
        "server.peak_depth": phase.peak_in_flight(),
        "wire.service_ms.p50": _nan0(quantile(service, 0.5)),
        "gen.late_ms.p99": _nan0(quantile(phase.lateness_ms(), 0.99)),
    }


def _max_rate_at_slo(rungs: list[tuple[int, Phase]]) -> tuple[float, list[dict]]:
    """Highest rate meeting the SLO, interpolated on p99 between the last
    passing rung and the first failing one (so the figure moves smoothly
    instead of jumping a whole rung).  Also returns every rung's summary."""
    summaries = [
        {"rate": rate, **phase.summary(SLO_P99_MS, LATE_LIMIT_MS), **_wire_figures(phase)}
        for rate, phase in rungs
    ]
    best = 0.0
    previous = None
    for summary in summaries:
        rate = summary["rate"]
        if not summary["valid"]:
            continue  # the generator fell behind: this rung says nothing
        if summary["meets_slo"]:
            best = float(rate)
            previous = summary
            continue
        if previous is not None and math.isfinite(summary["p99_ms"]):
            low_p99 = previous["p99_ms"]
            high_p99 = summary["p99_ms"]
            if high_p99 > low_p99:
                fraction = (SLO_P99_MS - low_p99) / (high_p99 - low_p99)
                best += max(0.0, min(1.0, fraction)) * (rate - previous["rate"])
        break
    return best, summaries


def _launch(run_dir: Path, index: str, trace_out, num_relations: int,
            repeats: int) -> tuple[Daemon, list[float]]:
    """Start the daemon *repeats* times (READY + warm-up each time) and
    keep the last one; returns it with every launch's duration."""
    times = []
    for repeat in range(repeats):
        started = time.perf_counter()
        daemon = Daemon(run_dir, index=index, queue_depth=QUEUE_DEPTH, trace_out=trace_out)
        daemon.start()
        try:
            _warm_up(daemon, num_relations)
        except BaseException:
            daemon.stop()
            raise
        times.append(time.perf_counter() - started)
        if repeat < repeats - 1:
            daemon.stop()
    return daemon, times


def _cache_key(request: dict):
    """The daemon's score-cache key of *request*; None if it is not cached."""
    side = request["side"]
    if side == "relation":
        return None
    anchor = request["head"] if side == "tail" else request["tail"]
    return (anchor, request["relation"], side)


class _KeyHistory:
    """Generates the exact-serving mix and remembers every score-cache
    key asked for so far, to report how often a key comes back."""

    def __init__(self) -> None:
        self.keys: set = set()
        #: Share of the last batch's entity-side requests whose key was
        #: asked for before (earlier in the run or earlier in the batch).
        self.last_repeated_share = 0.0

    def requests(self, rng, triples: np.ndarray, size: int) -> list[dict]:
        batch = fixtures.mixed_requests(rng, triples, size)
        repeats = total = 0
        for request in batch:
            key = _cache_key(request)
            if key is not None:
                total += 1
                repeats += key in self.keys
                self.keys.add(key)
        self.last_repeated_share = repeats / total if total else 0.0
        return batch


def _fill_cache(daemon: Daemon, rng, triples: np.ndarray, history: _KeyHistory) -> None:
    """Drive the score cache to steady state (full, evicting) before timing.

    Sends traffic from the measured distribution in pipelined bursts
    until more distinct cache keys have been asked for than it holds.
    """
    while len(history.keys) < CACHE_ENTRIES + CACHE_ENTRIES // 8:
        for response in daemon.call_many(history.requests(rng, triples, 256)):
            if not response.get("ok"):
                raise RuntimeError(f"cache fill request failed: {response}")


def _warm_up(daemon: Daemon, num_relations: int) -> None:
    """Pay lazy first-query work (filter index, folds, BLAS) before timing."""
    messages = []
    for r in range(num_relations):
        for side, anchor in (("tail", "head"), ("head", "tail")):
            for k in fixtures.EXACT_KS:
                messages.append({"op": "top_k", "side": side, anchor: r, "relation": r,
                                 "k": k, "filtered": True})
        messages.append({"op": "top_k", "side": "relation", "head": r, "tail": r + 1, "k": 5})
    for response in daemon.call_many(messages):
        if not response.get("ok"):
            raise RuntimeError(f"warm-up request failed: {response}")


def _expected_ids(predictor, request: dict) -> list[int]:
    from repro.serving.server import k_bucket

    side = request["side"]
    k = request["k"]
    if side == "relation":
        result = predictor.top_k([request["head"]], [request["tail"]], side="relation",
                                 k=k_bucket(k))
    else:
        anchor = request["head"] if side == "tail" else request["tail"]
        result = predictor.top_k([anchor], [request["relation"]], side=side,
                                 k=k_bucket(k), filtered=request.get("filtered", False),
                                 exact=True)
    return [int(i) for i in result.ids[0, :k]]


def _nominal(daemon, rng, rate, seconds, make_requests, triples) -> Phase:
    offsets = fixtures.poisson_offsets(rng, rate, seconds)
    return run_phase(daemon.port, offsets, make_requests(rng, triples, len(offsets)))


@dataclass
class _TracedPass:
    """The nominal load run twice on the warmed daemon, recorder off and
    then on; the second pass is the recorder's first segment."""

    untraced: Phase
    traced: Phase
    stats_before: dict
    stats_after: dict

    @property
    def overhead_ms(self) -> float:
        return (quantile(self.traced.latencies_ms(), 0.5)
                - quantile(self.untraced.latencies_ms(), 0.5))


def _traced_pass(daemon, rng, rate, seconds, make_requests, triples) -> _TracedPass:
    untraced = _nominal(daemon, rng, rate, seconds, make_requests, triples)
    before = daemon.stats()
    daemon.set_tracing(True)
    traced = _nominal(daemon, rng, rate, seconds, make_requests, triples)
    daemon.set_tracing(False)
    return _TracedPass(untraced, traced, before, daemon.stats())


# ------------------------------------------------------------- trace math
def _span_stats(segment: dict) -> dict:
    by_name: dict[str, list] = {}
    for name, start, end, self_s, parent, extra in segment["spans"]:
        by_name.setdefault(name, []).append((end - start, self_s, extra or {}))
    return by_name


def _p50_ms(by_name, name, self_time=False) -> float:
    values = [s if self_time else d for d, s, _ in by_name.get(name, [])]
    return 1000.0 * quantile(values, 0.5) if values else 0.0


def _sum_attr(by_name, name, key) -> float:
    return float(sum(extra.get(key, 0) for _, _, extra in by_name.get(name, [])))


#: Spans that only ever run beneath LinkPredictor.top_k in the daemon.
_TOP_K_TREE = ("predictor.top_k", "scorer.all_scores", "scorer.score_triples",
               "scorer.score_candidates", "index.candidate_lists",
               "fold.query_matrix", "pq.lookup_tables")
_TOP_K_LEAVES = ("filter.lookup", "pq.adc")


def _serving_layers(segment: dict, traced: _TracedPass) -> dict:
    """Per-layer metrics of the traced nominal pass: the spans and
    counters recorded during it, its replies' wire fields, and the
    change in the daemon's stats counters across it."""
    by_name = _span_stats(segment)
    leaf_count = segment["leaf_count"]
    leaf_seconds = segment["leaf_seconds"]
    counters = segment["counters"]
    before, after = traced.stats_before, traced.stats_after
    top_k = by_name.get("predictor.top_k", [])
    top_k_wall = sum(d for d, _, _ in top_k)
    tree_self = sum(s for name in _TOP_K_TREE for _, s, _ in by_name.get(name, []))
    tree_self += sum(leaf_seconds.get(name, 0.0) for name in _TOP_K_LEAVES)
    rows = _sum_attr(by_name, "predictor.top_k", "rows")
    cand_rows = _sum_attr(by_name, "scorer.score_candidates", "rows")
    index_rows = _sum_attr(by_name, "index.candidate_lists", "rows")
    scanned = counters.get("pq.adc.scanned", 0.0)
    adc_calls = leaf_count.get("pq.adc", 0)
    hits = counters.get("cache.hits", 0.0)
    misses = counters.get("cache.misses", 0.0)
    served = after["served"] - before["served"]
    return {
        **_wire_figures(traced.traced),
        "server.calls_per_request": (
            (after["dispatch_calls"] - before["dispatch_calls"]) / served if served else 0.0
        ),
        "server.rejected": after["rejected"] - before["rejected"],
        "server.failed": after["failed"] - before["failed"],
        "predictor.top_k_ms.p50": _p50_ms(by_name, "predictor.top_k"),
        "predictor.self_ms.p50": _p50_ms(by_name, "predictor.top_k", self_time=True),
        "predictor.rows_per_call.mean": rows / len(top_k) if top_k else 0.0,
        "scorer.all_scores_ms.p50": _p50_ms(by_name, "scorer.all_scores"),
        "scorer.score_triples_ms.p50": _p50_ms(by_name, "scorer.score_triples"),
        "scorer.score_candidates_ms.p50": _p50_ms(by_name, "scorer.score_candidates"),
        "scorer.candidates_per_row.mean": (
            _sum_attr(by_name, "scorer.score_candidates", "candidates") / cand_rows
            if cand_rows else 0.0
        ),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.bytes_peak": counters.get("cache.bytes_peak", 0.0),
        "filter.lookups": leaf_count.get("filter.lookup", 0),
        "filter.lookup_ms.total": 1000.0 * leaf_seconds.get("filter.lookup", 0.0),
        "index.candidate_lists_ms.p50": _p50_ms(by_name, "index.candidate_lists"),
        "index.candidate_lists_self_ms.p50": _p50_ms(
            by_name, "index.candidate_lists", self_time=True
        ),
        "fold.query_matrix_ms.p50": _p50_ms(by_name, "fold.query_matrix"),
        "pq.lookup_tables_ms.p50": _p50_ms(by_name, "pq.lookup_tables"),
        "pq.adc_ms.total": 1000.0 * leaf_seconds.get("pq.adc", 0.0),
        "pq.adc_calls_per_query": adc_calls / index_rows if index_rows else 0.0,
        "pq.kept_ratio": adc_calls * fixtures.PQ_REFINE / scanned if scanned else 0.0,
        "index.probed_fraction": _nan0((after.get("index") or {}).get("probed_fraction", 0.0)),
        "trace.reconciled_fraction": tree_self / top_k_wall if top_k_wall else 0.0,
        "trace.overhead_ms": traced.overhead_ms,
    }


def _reconciled(layers: dict) -> bool:
    return abs(layers["trace.reconciled_fraction"] - 1.0) <= RECONCILE_TOLERANCE


def _layers(values: dict) -> dict:
    """Fill bypassed layers with 0 and attach units."""
    full = {name: values.get(name, 0.0) for name in LAYER_UNITS}
    return _metrics(full, LAYER_UNITS)


def _cleanup(*paths: Path) -> None:
    import shutil

    for path in paths:
        shutil.rmtree(path, ignore_errors=True)


# ============================================================ serve-exact
def serve_exact(seed: int, seconds: float, trace: bool) -> Result:
    fill_rng, probe_rng, traffic_rng = _streams(seed, 3)
    run_dir = WORK / "exact-run"
    spans_path = WORK / "exact-spans.json"
    history = _KeyHistory()
    daemon = None
    try:
        started = time.perf_counter()
        dataset = fixtures.build_dataset(seed)
        fixtures.write_untrained_run(run_dir, seed, dataset)
        fixture_s = time.perf_counter() - started
        daemon, launch_times = _launch(run_dir, "none", spans_path if trace else None,
                                       dataset.num_relations, 1 if trace else SETUP_REPEATS)
        setup_times = [fixture_s + t for t in launch_times]
        triples = dataset.train.array
        _fill_cache(daemon, fill_rng, triples, history)

        # Output check: daemon ids == in-process exact answers, one at a time.
        from repro.pipeline.runner import serve_run

        predictor = serve_run(str(run_dir), dataset=dataset)
        probes = history.requests(probe_rng, triples, PROBES)
        answers = daemon.call_many_sequential(probes)
        matches = sum(
            1 for request, response in zip(probes, answers)
            if response.get("ok") and response["ids"] == _expected_ids(predictor, request)
        )
        del predictor

        rates = EXACT_RATES if trace else EXACT_RATES[:1]
        rungs, saturated = _ladder(daemon, traffic_rng, rates, seconds, history.requests,
                                   triples)
        if trace:
            traced = _traced_pass(daemon, traffic_rng, EXACT_RATES[0], seconds / 4,
                                  history.requests, triples)
        stats = daemon.stats()
        rss = peak_rss_mb(daemon.pid)
    finally:
        if daemon is not None:
            daemon.stop()
    _cleanup(run_dir)

    max_rate, summaries = _max_rate_at_slo(rungs)
    nominal = dict(rungs)[EXACT_RATES[0]]
    phases = [phase for _, phase in rungs]
    if trace:
        phases += [traced.untraced, traced.traced]
    attempted = sum(len(p.kinds) for p in phases) + len(probes) + saturated["completed"]
    failed = (sum(p.failures() for p in phases) + saturated["failed"]
              + sum(1 for r in answers if not r.get("ok")))
    correct = matches == len(probes) and failed == 0
    capacity = saturated["completed"] / saturated["seconds"]
    report = {"rungs": summaries, "max_rps_at_slo": max_rate, "saturated": saturated,
              "probe_matches": f"{matches}/{len(probes)}",
              "setup_times_s": setup_times, "stats": {k: v for k, v in stats.items()
                                                      if k != "index"}}
    if not trace:
        lat = nominal.latencies_ms()
        metrics = _metrics({
            "setup_s": median(setup_times),
            "p50_ms": quantile(lat, 0.5),
            "throughput_per_s": capacity,
            "rss_mb": rss,
            "quality": matches / len(probes),
            "success_rate": 1.0 - failed / attempted,
        }, E2E_UNITS)
        return Result(correct, attempted, failed, metrics, report)

    layers = _serving_layers(spans_mod.load_segments(spans_path)[0], traced)
    layers["cache.repeated_key_share"] = history.last_repeated_share
    layers["max_rps_at_slo"] = max_rate
    layers["latency.p90_ms"] = quantile(nominal.latencies_ms(), 0.90)
    layers["latency.p99_ms"] = quantile(nominal.latencies_ms(), 0.99)
    report["reconciled"] = _reconciled(layers)
    return Result(correct and report["reconciled"], attempted, failed, _layers(layers), report)


# ===================================================== serve-ivfpq-ingest
def serve_ivfpq_ingest(seed: int, seconds: float, trace: bool) -> Result:
    probe_rng, traffic_rng, delta_rng = _streams(seed, 3)
    run_dir = WORK / "ivfpq-run"
    spans_path = WORK / "ivfpq-spans.json"
    daemon = None
    try:
        started = time.perf_counter()
        dataset = fixtures.build_dataset(seed)
        fixtures.write_trained_indexed_run(run_dir, seed, dataset)
        fixture_s = time.perf_counter() - started
        daemon, launch_times = _launch(run_dir, "auto", spans_path if trace else None,
                                       dataset.num_relations, 1 if trace else SETUP_REPEATS)
        setup_times = [fixture_s + t for t in launch_times]
        triples = dataset.train.array
        health = daemon.call({"op": "health"})["health"]

        # Output check: recall@10 of the daemon's index answers against
        # in-process exact answers from the same run dir.
        from repro.pipeline.runner import serve_run

        exact = serve_run(str(run_dir), dataset=dataset)
        probes = fixtures.entity_requests(probe_rng, triples, RECALL_PROBES)
        answers = daemon.call_many(probes)
        overlaps = [
            len(set(response["ids"]) & set(_expected_ids(exact, request))) / request["k"]
            for request, response in zip(probes, answers) if response.get("ok")
        ]
        recall = mean(overlaps) if len(overlaps) == len(probes) else 0.0
        del exact

        phase1_seconds = (1.0 - WRITE_PHASE_SHARE) * seconds
        rates = IVF_RATES if trace else IVF_RATES[:1]
        rungs, saturated = _ladder(daemon, traffic_rng, rates, phase1_seconds,
                                   fixtures.entity_requests, triples)
        if trace:
            traced = _traced_pass(daemon, traffic_rng, IVF_RATES[0], seconds / 4,
                                  fixtures.entity_requests, triples)

        # Phase 2: the nominal read rate with apply_delta writes
        # interleaved on the same connections (the recorder's second
        # segment in a traced run).
        deltas = fixtures.graph_deltas(delta_rng, dataset, tag=str(seed))
        phase2_seconds = seconds - phase1_seconds
        read_offsets = fixtures.poisson_offsets(traffic_rng, IVF_RATES[0], phase2_seconds)
        reads = fixtures.entity_requests(traffic_rng, triples, len(read_offsets))
        write_offsets = (np.arange(len(deltas)) + 0.5) * phase2_seconds / len(deltas)
        schedule = sorted(
            [(float(t), "read", r) for t, r in zip(read_offsets, reads)]
            + [(float(t), "write", {"op": "apply_delta", "delta": d})
               for t, d in zip(write_offsets, deltas)],
            key=lambda item: item[0],
        )
        if trace:
            daemon.set_tracing(True)
        phase2 = run_phase(daemon.port, [t for t, _, _ in schedule],
                           [p for _, _, p in schedule], [k for _, k, _ in schedule])
        if trace:
            daemon.set_tracing(False)
        stats = daemon.stats()
        rss = peak_rss_mb(daemon.pid)
        speedup = _speedup_vs_exact(run_dir, dataset, probe_rng) if trace else 0.0
    finally:
        if daemon is not None:
            daemon.stop()
    _cleanup(run_dir)

    max_rate, summaries = _max_rate_at_slo(rungs)
    phases = [phase for _, phase in rungs] + [phase2]
    if trace:
        phases += [traced.untraced, traced.traced]
    writes = phase2.indices("write")
    receipts = [phase2.responses[i]["ingest"] for i in writes if phase2.ok(i)]
    attempted = sum(len(p.kinds) for p in phases) + len(probes) + saturated["completed"]
    failed = (sum(p.failures() for p in phases) + saturated["failed"]
              + sum(1 for r in answers if not r.get("ok")))
    capacity = saturated["completed"] / saturated["seconds"]
    checks = {
        "index_attached": bool(health.get("index_attached")) and not health.get("degraded"),
        "recall_floor": recall >= RECALL_FLOOR,
        "graph_version": stats.get("graph_version") == len(receipts) == len(deltas),
        "no_failures": failed == 0,
    }
    read_lat = phase2.latencies_ms("read")
    nominal_lat = dict(rungs)[IVF_RATES[0]].latencies_ms()
    report = {
        "rungs": summaries,
        "max_rps_at_slo": max_rate,
        "saturated": saturated,
        "phase2": {"reads": len(phase2.indices()), "p50_ms": quantile(read_lat, 0.5),
                   "p99_ms": quantile(read_lat, 0.99),
                   "delta_rtt_ms": [1000.0 * (phase2.recv[i] - phase2.sent[i]) for i in writes]},
        "recall_at_10": recall,
        "drift": [r.get("index", {}).get("drift") for r in receipts],
        "checks": checks,
        "setup_times_s": setup_times,
        "stats": stats,
    }
    if not trace:
        metrics = _metrics({
            "setup_s": median(setup_times),
            "p50_ms": quantile(nominal_lat, 0.5),
            "throughput_per_s": capacity,
            "rss_mb": rss,
            "quality": recall,
            "success_rate": 1.0 - failed / attempted,
        }, E2E_UNITS)
        return Result(all(checks.values()), attempted, failed, metrics, report)

    segments = spans_mod.load_segments(spans_path)
    layers = _serving_layers(segments[0], traced)
    writes_by_name = _span_stats(segments[1])
    for name in ("ingest.delta", "ingest.apply", "ingest.grow", "ingest.fine_tune",
                 "index.update_entities"):
        layers[f"{name}_ms.p50"] = _p50_ms(writes_by_name, name)
    layers["index.speedup_vs_exact"] = speedup
    layers["max_rps_at_slo"] = max_rate
    layers["latency.p90_ms"] = quantile(nominal_lat, 0.90)
    layers["latency.p99_ms"] = quantile(nominal_lat, 0.99)
    layers["p99_under_writes_ms"] = quantile(read_lat, 0.99)
    layers["delta_p50_ms"] = median(
        [1000.0 * (phase2.recv[i] - phase2.sent[i]) for i in writes]
    )
    layers["index.drift.max"] = max(r.get("index", {}).get("drift", 0.0) for r in receipts)
    layers["index.rebuilds"] = sum(
        1 for r in receipts if r.get("index", {}).get("rebuild_triggered")
    )
    checks["reconciled"] = _reconciled(layers)
    return Result(all(checks.values()), attempted, failed, _layers(layers), report)


def _speedup_vs_exact(run_dir: Path, dataset, rng) -> float:
    """Same probe batch through ``top_k(exact=True)`` and through the index,
    timed in this process; returns exact time / index time."""
    from repro.pipeline.runner import serve_run

    predictor = serve_run(str(run_dir), dataset=dataset, index="auto", cache_size=0)
    anchors = rng.integers(0, dataset.num_entities, size=SPEEDUP_BATCH)
    relations = rng.integers(0, dataset.num_relations, size=SPEEDUP_BATCH)
    timings = {True: [], False: []}
    for _ in range(SPEEDUP_REPEATS):
        for exact in (True, False):
            started = time.perf_counter()
            predictor.top_k(anchors, relations, side="tail", k=10, exact=exact)
            timings[exact].append(time.perf_counter() - started)
    return median(timings[True]) / median(timings[False])


# ============================================================= train-eval
STATE = WORK.parent / ".bench_state"


def train_eval(seed: int, seconds: float, trace: bool) -> Result:
    from repro.eval.evaluator import LinkPredictionEvaluator
    from repro.pipeline.config import ModelSection, RunConfig, TrainingSection
    from repro.pipeline.runner import build_model
    from repro.training.trainer import Trainer

    epochs = max(1, round(seconds / TRAIN_SECONDS_PER_EPOCH))
    config = RunConfig(
        dataset=fixtures.dataset_section(seed),
        model=ModelSection(name="quaternion", total_dim=QUAT_DIM),
        training=TrainingSection(epochs=epochs, batch_size=QUAT_BATCH,
                                 learning_rate=QUAT_LR, num_negatives=1,
                                 optimizer="adam", validate_every=10**6, patience=10**6),
        seed=int(seed),
    )
    setup_times = []
    for _ in range(1 if trace else TRAIN_SETUP_REPEATS):
        # Every repeat starts from the same heap: the previous repeat's
        # graph, model and trainer are freed first.
        dataset = model = trainer = None
        gc.collect()
        started = time.perf_counter()
        dataset = config.dataset.build()
        dataset.filter_index  # built once per graph; the evaluator filters with it
        model = build_model(config, dataset)
        trainer = Trainer(dataset, config.training.training_config(seed=config.seed))
        setup_times.append(time.perf_counter() - started)

    recorder = spans_mod.SpanRecorder()
    if trace:
        spans_mod.install_training(recorder, model, trainer)
    # Per-batch wall: successive train_step completions (sampling, batch
    # gather and the step itself).  One clock read per batch.  A traced
    # run records spans from the middle batch on, so the two halves of
    # the same training give the tracing overhead.
    step_done: list[float] = []
    traced_from: list[float] = []
    step = model.train_step
    half = epochs * math.ceil(len(dataset.train) / QUAT_BATCH) // 2

    def timed_step(*args, **kwargs):
        if trace and len(step_done) == half:
            recorder.start_segment()
            traced_from.append(time.perf_counter())
        loss = step(*args, **kwargs)
        step_done.append(time.perf_counter())
        return loss

    model.train_step = timed_step
    started = time.perf_counter()
    trainer.train(model)
    train_end = time.perf_counter()
    train_wall = train_end - started
    batch_ms = [1000.0 * (b - a) for a, b in zip([started] + step_done[:-1], step_done)]

    evaluator = LinkPredictionEvaluator(dataset)
    started = time.perf_counter()
    valid = evaluator.evaluate(model, split="valid")
    test = evaluator.evaluate(model, split="test")
    eval_wall = time.perf_counter() - started
    recorder.enabled = False
    queries = 2 * (len(dataset.valid) + len(dataset.test))

    # Output check: the seeded protocol must reproduce test MRR bit for
    # bit.  The first run of a (code, seed, epochs) records it, later
    # runs of the same code compare; changed code starts a new record.
    mrr = float(test.overall.mrr)
    STATE.mkdir(exist_ok=True)
    record = STATE / f"train-eval-{source_digest()}-seed{seed}-epochs{epochs}.json"
    first = not record.exists()
    if first:
        record.write_text(json.dumps({"test_mrr": mrr}))
    repeat_ok = first or json.loads(record.read_text())["test_mrr"] == mrr
    correct = repeat_ok and math.isfinite(mrr) and 0.0 < mrr <= 1.0
    attempted = len(step_done) + 2
    report = {
        "epochs": epochs,
        "batches": len(step_done),
        "train_triples_per_s": epochs * len(dataset.train) / train_wall,
        "eval_queries_per_s": queries / eval_wall,
        "valid_mrr": float(valid.overall.mrr),
        "test_mrr": mrr,
        "test_mrr_repeat": "first run" if first else ("identical" if repeat_ok else "DIFFERS"),
        "setup_times_s": setup_times,
    }
    if not trace:
        metrics = _metrics({
            "setup_s": median(setup_times),
            "p50_ms": quantile(batch_ms, 0.5),
            "throughput_per_s": queries / eval_wall,
            "rss_mb": peak_rss_mb(),
            "quality": mrr,
            "success_rate": 1.0 if correct else 0.0,
        }, E2E_UNITS)
        return Result(correct, attempted, 0 if correct else 1, metrics, report)

    segment = recorder.segments[0].as_dict()
    by_name = _span_stats(segment)
    leaf_seconds = segment["leaf_seconds"]
    covered = sum(d for name in ("train.step", "train.corrupt", "eval.sweep", "eval.rank")
                  for d, _, _ in by_name.get(name, []))
    covered += leaf_seconds.get("filter.lookup", 0.0)
    layers = {
        "train.step_ms.p50": _p50_ms(by_name, "train.step"),
        "train.corrupt_ms.p50": _p50_ms(by_name, "train.corrupt"),
        "latency.p90_ms": quantile(batch_ms, 0.90),
        "latency.p99_ms": quantile(batch_ms, 0.99),
        "train.steps": len(step_done),
        "train_triples_per_s": epochs * len(dataset.train) / train_wall,
        "eval.sweep_ms.total": 1000.0 * sum(d for d, _, _ in by_name.get("eval.sweep", [])),
        "eval.rank_ms.total": 1000.0 * sum(d for d, _, _ in by_name.get("eval.rank", [])),
        "filter.lookups": segment["leaf_count"].get("filter.lookup", 0),
        "filter.lookup_ms.total": 1000.0 * leaf_seconds.get("filter.lookup", 0.0),
        "trace.reconciled_fraction": covered / (train_end - traced_from[0] + eval_wall),
        "trace.overhead_ms": quantile(batch_ms[half + 1:], 0.5) - quantile(batch_ms[1:half], 0.5),
    }
    return Result(correct, attempted, 0 if correct else 1, _layers(layers), report)

"""Paper Table 3: automatically learned weight vectors.

Trains the two-embedding model with ω learned end-to-end under every
restriction the paper tries (none / tanh / sigmoid / softmax), each with
and without the Dirichlet sparsity loss of Eq. 12, plus the fixed uniform
baseline.  The paper's finding to reproduce: *every* learned variant
lands at DistMult level, far below ComplEx — the gradient signal is too
symmetric to break ω's symmetry (§6.2).
"""

from __future__ import annotations

from repro.paper_tables import format_learned_omegas, format_table, run_table3
from benchmarks.conftest import is_fast, publish_table


def test_table3_learned_weight_vectors(benchmark, dataset, settings):
    rows = benchmark.pedantic(
        run_table3, args=(settings, dataset), rounds=1, iterations=1
    )
    table = format_table(
        f"Table 3: auto-learned weight vectors on {dataset.name}", rows
    )
    publish_table("table3_learned_weights", table + "\n\n" + format_learned_omegas(rows))

    if is_fast():
        return  # smoke mode: tables only, shape assertions need full training

    uniform_mrr = rows[0].test_metrics.mrr
    for row in rows[1:]:
        # §6.2: learned variants perform like the symmetric uniform
        # baseline (DistMult level), never like ComplEx.
        assert abs(row.test_metrics.mrr - uniform_mrr) < 0.22, row.config.label

"""Toy-scale benchmark runs never overwrite the committed BENCH files.

Each standalone benchmark writes its repo-root ``BENCH_*.json`` at full
scale only; a fast run writes JSON only where a ``json_path`` is passed
(``bench_json_path`` in ``benchmarks/conftest.py``).  The modules run
here are copies placed in a scratch ``benchmarks/`` directory, so the
"committed" file a faulty run would overwrite lies in that scratch
tree, never in the repository.
"""

from __future__ import annotations

import importlib.util
import inspect
import shutil
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"

#: Every standalone benchmark that owns a repo-root BENCH file.
STANDALONE = [
    "training_throughput",
    "parallel_eval",
    "index_recall",
    "ingest",
    "memory",
    "reliability",
    "serving_daemon",
    "obs_overhead",
]
#: Those whose toy-scale run takes about a second.
QUICK = ["training_throughput", "parallel_eval", "reliability", "serving_daemon", "obs_overhead"]


def _load_copy(name: str, root: Path, monkeypatch):
    """Import a copy of ``benchmarks/bench_<name>.py`` placed under *root*."""
    target = root / "benchmarks" / f"bench_{name}.py"
    target.parent.mkdir(exist_ok=True)
    shutil.copy(BENCHMARKS / target.name, target)
    # A module run standalone prepends its repository root to sys.path.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"bench_{name}_copy", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.DEFAULT_JSON_PATH.parent == root
    return module


@pytest.mark.parametrize("name", QUICK)
def test_fast_run_writes_no_committed_file(name, tmp_path, monkeypatch):
    module = _load_copy(name, tmp_path, monkeypatch)
    module.run_benchmark(fast=True)
    assert not module.DEFAULT_JSON_PATH.exists()


@pytest.mark.parametrize("name", STANDALONE)
def test_only_a_full_scale_run_defaults_to_the_committed_file(name, tmp_path, monkeypatch):
    module = _load_copy(name, tmp_path, monkeypatch)
    assert inspect.signature(module.run_benchmark).parameters["json_path"].default is None
    committed, explicit = module.DEFAULT_JSON_PATH, tmp_path / "explicit.json"
    assert module.bench_json_path(None, committed, False) == committed
    assert module.bench_json_path(None, committed, True) is None
    assert module.bench_json_path(explicit, committed, True) == explicit
    assert module.bench_json_path(str(explicit), committed, False) == explicit

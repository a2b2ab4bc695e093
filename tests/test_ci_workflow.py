"""The CI pipeline definition must stay loadable and coherent.

A broken workflow file fails silently until the next push; these checks
pull it into the tier-1 gate instead.  They also pin the contract the
satellites rely on: CI runs ``scripts/ci.sh`` (the same entrypoint as
local runs), quick mode on pull requests, the full suite on main.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
CI_SCRIPT = REPO_ROOT / "scripts" / "ci.sh"

yaml = pytest.importorskip("yaml")


@pytest.fixture(scope="module")
def workflow() -> dict:
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))


def test_workflow_is_valid_yaml(workflow):
    assert isinstance(workflow, dict)
    assert workflow.get("name") == "CI"


def test_workflow_triggers(workflow):
    # YAML 1.1 parses the bare key `on` as boolean True.
    triggers = workflow.get("on", workflow.get(True))
    assert "pull_request" in triggers
    assert triggers["push"]["branches"] == ["main"]


def test_matrix_covers_three_python_versions(workflow):
    for job in workflow["jobs"].values():
        versions = job["strategy"]["matrix"]["python-version"]
        assert versions == ["3.10", "3.11", "3.12"]


def test_jobs_run_the_shared_entrypoint(workflow):
    jobs = workflow["jobs"]
    assert set(jobs) == {"quick", "full"}
    quick_runs = [step.get("run", "") for step in jobs["quick"]["steps"]]
    full_runs = [step.get("run", "") for step in jobs["full"]["steps"]]
    assert any(run.strip() == "scripts/ci.sh --quick" for run in quick_runs)
    assert any(run.strip() == "scripts/ci.sh" for run in full_runs)
    assert jobs["quick"]["if"] == "github.event_name == 'pull_request'"
    assert jobs["full"]["if"] == "github.event_name == 'push'"


def test_ci_script_supports_quick_mode():
    text = CI_SCRIPT.read_text(encoding="utf-8")
    assert "--quick" in text
    assert "not slow and not pipeline" in text
    assert "test_bench_parallel_smoke" in text
    assert "test_bench_training_smoke" in text
    assert "test_bench_index_smoke" in text
    assert "test_bench_serving_smoke" in text
    assert "test_bench_reliability_smoke" in text
    assert "test_bench_ingest_smoke" in text
    assert "test_bench_obs_smoke" in text


BENCH_SUITES = (
    "bench_table2_derived_weights",
    "bench_table3_learned_weights",
    "bench_table4_quaternion",
    "bench_ablation_negatives",
    "bench_ablation_embedding_size",
    "bench_baselines",
    "bench_per_relation",
    "bench_scoring_throughput",
    "bench_serving_latency",
)


def test_ci_script_runs_the_benchmark_suites_and_examples():
    """Tier-1 never executes the pytest-benchmark suites or the examples;
    ci.sh smoke-runs both, so a call to a deleted name breaks CI."""
    text = CI_SCRIPT.read_text(encoding="utf-8")
    for suite in BENCH_SUITES:
        assert f"benchmarks/{suite}.py" in text, suite
        assert (REPO_ROOT / "benchmarks" / f"{suite}.py").exists(), suite
    assert "REPRO_BENCH_FAST=1" in text
    assert "--benchmark-disable" in text
    assert 'for example in examples/*.py' in text


def _ci_array(text: str, name: str) -> list[str]:
    """The entries of the bash array *name* defined in ci.sh."""
    match = re.search(rf"^{name}=\((.*?)^\)", text, re.MULTILINE | re.DOTALL)
    assert match, f"ci.sh defines no {name} array"
    return match.group(1).split()


def test_every_benchmark_file_runs_in_ci():
    """Each ``benchmarks/bench_*.py`` is a suite ci.sh runs or is loaded by
    a smoke test ci.sh runs, so a benchmark that imports a deleted name
    fails CI instead of breaking unseen."""
    text = CI_SCRIPT.read_text(encoding="utf-8")
    suites = set(_ci_array(text, "BENCH_SUITES"))
    loaded = set()
    for smoke in _ci_array(text, "SMOKE_TESTS"):
        source = (REPO_ROOT / smoke).read_text(encoding="utf-8")
        loaded.update(re.findall(r'"(bench_\w+\.py)"', source))
    benches = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
    assert benches
    for bench in benches:
        assert f"benchmarks/{bench.name}" in suites or bench.name in loaded, bench.name


#: Import name -> pip distribution, where the two differ.
DISTRIBUTIONS = {"yaml": "pyyaml"}


def _top_level_third_party_imports() -> set[str]:
    """Packages the test tree imports at module level, outside the stdlib,
    ``repro`` and ``tests``: a fresh runner must install each of them or
    collection fails."""
    found = set()
    for path in (REPO_ROOT / "tests").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in ("repro", "tests"):
                    found.add(DISTRIBUTIONS.get(top, top))
    return found


def test_jobs_install_every_test_dependency(workflow):
    """Each job installs what the tests import, plus pytest-benchmark
    (the benchmark suites) and scipy (the compiled segment-sum path in
    ``nn/optimizers.py`` that training runs)."""
    required = _top_level_third_party_imports() | {"pytest-benchmark", "scipy"}
    assert {"numpy", "pytest", "hypothesis"} <= required
    for name, job in workflow["jobs"].items():
        installs = " ".join(step.get("run", "") for step in job["steps"]).split()
        missing = sorted(required - set(installs))
        assert not missing, f"job {name!r} does not install {missing}"


def test_ci_script_runs_the_serving_daemon_smoke():
    """ci.sh must boot the daemon as a real subprocess after the suites."""
    text = CI_SCRIPT.read_text(encoding="utf-8")
    assert "scripts/serving_smoke.py" in text
    assert (REPO_ROOT / "scripts" / "serving_smoke.py").exists()


def test_ci_script_runs_the_chaos_smoke():
    """ci.sh must replay the recovery stories against real processes:
    truncate-then-resume, and a degraded-serving wire round-trip."""
    text = CI_SCRIPT.read_text(encoding="utf-8")
    assert "scripts/chaos_smoke.py" in text
    assert (REPO_ROOT / "scripts" / "chaos_smoke.py").exists()


DAEMON_SUITES = (
    "tests/serving/test_server.py",
    "tests/serving/test_admission.py",
    "tests/serving/test_server_metrics.py",
    "tests/reliability/test_server_degraded.py",
    "tests/ingest/test_server_ingest.py",
    "tests/serving/test_wire_fuzz.py",
)


def test_ci_script_runs_the_daemon_suites_in_dev_mode():
    """ci.sh reruns the asyncio daemon suites under ``-X dev`` with
    ResourceWarning as an error, naming each file."""
    text = CI_SCRIPT.read_text(encoding="utf-8")
    assert "python -X dev -W error::ResourceWarning -m pytest" in text
    for suite in DAEMON_SUITES:
        assert suite in text, suite
        assert (REPO_ROOT / suite).exists(), suite


PERFBENCH_WORKLOADS = ("serve-exact", "serve-ivfpq-ingest", "train-eval")


def test_ci_script_smoke_runs_the_repository_benchmark():
    """Both gates run every perfbench workload briefly in traced mode,
    which patches every library name the benchmark wraps, and require a
    correct run with no failed operations."""
    text = CI_SCRIPT.read_text(encoding="utf-8")
    loop = re.search(r"^for workload in (.*?); do$(.*?)^done$", text, re.MULTILINE | re.DOTALL)
    assert loop, "ci.sh has no perfbench workload loop"
    assert tuple(loop.group(1).split()) == PERFBENCH_WORKLOADS
    body = loop.group(2)
    assert (
        'python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 1'
        in body
    )
    assert "tail -n 1" in body
    assert 'result["correct"] is True' in body and 'result["failed"] == 0' in body
    # Outside the quick/full branch, so both gates run it.
    assert text.index("for workload in") > text.index("\nfi\n")
    runner = (REPO_ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    for workload in PERFBENCH_WORKLOADS:
        assert f'"{workload}"' in runner, workload


def test_ci_script_is_executable():
    assert CI_SCRIPT.stat().st_mode & 0o111, "scripts/ci.sh must stay executable"


@pytest.mark.slow
def test_quick_gate_collects_cleanly():
    """`--quick`'s marker expression must stay parseable by pytest.

    Collection-only: the full quick gate runs as its own CI job; here we
    just guarantee the expression and test tree stay importable.
    """
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "--collect-only",
            "-q",
            "-m",
            "not slow and not pipeline",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr

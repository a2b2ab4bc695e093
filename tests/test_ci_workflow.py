"""The CI pipeline definition must stay loadable and coherent.

A broken workflow file fails silently until the next push; these checks
pull it into the tier-1 gate instead.  They also pin the contract the
satellites rely on: CI runs ``scripts/ci.sh`` (the same entrypoint as
local runs), quick mode on pull requests, the full suite on main.
"""

from __future__ import annotations

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


def test_jobs_install_pytest_benchmark(workflow):
    for job in workflow["jobs"].values():
        installs = " ".join(step.get("run", "") for step in job["steps"])
        assert "pytest-benchmark" in installs


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
)


def test_ci_script_runs_the_daemon_suites_in_dev_mode():
    """ci.sh reruns the asyncio daemon suites under ``-X dev`` with
    ResourceWarning as an error, naming each file."""
    text = CI_SCRIPT.read_text(encoding="utf-8")
    assert "python -X dev -W error::ResourceWarning -m pytest" in text
    for suite in DAEMON_SUITES:
        assert suite in text, suite
        assert (REPO_ROOT / suite).exists(), suite


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

"""Smoke test of the benchmark itself, on tiny corpora:

    python3 -m pytest -q bench/test_smoke.py

Every workload runs in both modes and must print exactly the metrics
BENCHMARK.json names, with their units, and pass its own cross-checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import WORKLOADS, build_corpus, fingerprint
from run import broken_cross_checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = "12"


def run(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1"]
    return subprocess.run(
        [sys.executable if arg == "python3" else arg for arg in command]
        + ["--trace", str(trace), "--limit", TINY, *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    result = result_of(run(ROOT, workload, trace))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= int(TINY)
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_run_cross_checks_hold():
    metrics = result_of(run(ROOT, "tw-exhaustive-n5", 1))["metrics"]
    assert metrics["check.propagation_calls_diff"]["value"] == 0
    assert metrics["check.traced_counter_mismatches"]["value"] == 0
    assert metrics["check.counter_mismatches"]["value"] == 0
    assert metrics["check.counter_graphs"]["value"] == int(TINY)
    assert metrics["engine.propagations"]["value"] > 0


def test_snapshot_then_check(tmp_path):
    snapshot = tmp_path / "counters.json"
    result_of(run(ROOT, "pw-random-n7", 0, "--snapshot", str(snapshot)))
    proc = run(ROOT, "pw-random-n7", 0, "--check", str(snapshot))
    result_of(proc)
    assert f"counters: 0 of {TINY} graphs differ from counters.json" in proc.stdout
    graphs = json.loads(snapshot.read_text())["graphs"]
    graphs[next(iter(graphs))][0][3] += 1  # one more decision in one graph's first step
    snapshot.write_text(json.dumps({"graphs": graphs}))
    proc = run(ROOT, "pw-random-n7", 0, "--check", str(snapshot))
    assert result_of(proc)["correct"] is True  # counters are reported apart from correctness
    assert f"counters: 1 of {TINY} graphs differ from counters.json" in proc.stdout


def test_corpus_is_a_function_of_the_seeds():
    workload = WORKLOADS["tw-random-n67"]
    first, again = build_corpus(workload, 5), build_corpus(workload, 5)
    other = build_corpus(workload, 6)
    assert fingerprint(first) == fingerprint(again)
    assert fingerprint(first) != fingerprint(other)
    assert sorted(g.key for g in first) == sorted(g.key for g in other)


def test_a_broken_cross_check_makes_the_run_incorrect():
    held = {"check.propagation_calls_diff": (0, "count"), "check.traced_counter_mismatches": (0, "count")}
    assert broken_cross_checks(held) == []
    missed = {**held, "check.propagation_calls_diff": (3, "count")}
    assert broken_cross_checks(missed) == ["cross-check check.propagation_calls_diff = 3, expected 0"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "tw-exhaustive-n5", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

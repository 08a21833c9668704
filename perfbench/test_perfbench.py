"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest -q perfbench

The smoke runs take about a minute: every workload runs once untraced and
once traced for one second.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import cli_ops  # noqa: E402
import inputs  # noqa: E402
import library_ops  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from children import run_child  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, seed=1, seconds=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _benchmark_spec()["workloads"]])
def test_smoke_run_emits_exactly_the_listed_metrics(workload, trace):
    spec = _benchmark_spec()
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _run("library", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_unreported_spans_count_as_unattributed():
    # One 100 ms op: 30 ms in a reported layer, 20 ms in a span that no
    # per-layer metric reports, and 50 ms outside any span.
    ms = 1_000_000
    spans = [
        [0, "bench.op", 0, 100 * ms, None, 0],
        [1, "cli.run", 10 * ms, 40 * ms, 0, 0],
        [2, "cli.unreported", 50 * ms, 70 * ms, 0, 0],
    ]
    result = {"peak_mb": {}, "plain_ops_per_s": 1.0, "traced_ops_per_s": 1.0}
    metrics, _ = run.per_layer(result, {"spans": spans, "counts": {}}, {})
    assert metrics["cli.run.ms"] == 30
    assert metrics["bench.unattributed_ms"] == 70
    assert metrics["bench.unattributed_share"] == 0.7


def _generated(workload, tmp_path, seed=3):
    inputs.generate(workload, seed, str(tmp_path))
    with open(tmp_path / "inputs.pkl", "rb") as fh:
        return pickle.load(fh)


def test_same_seed_same_inputs(tmp_path):
    # The inputs hold numpy arrays, so compare the pickled files.
    files = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        inputs.generate("library", seed, str(tmp_path / name))
        files[name] = (tmp_path / name / "inputs.pkl").read_bytes()
    assert files["a"] == files["b"]
    assert files["c"] != files["a"]


def _first_instances(doc):
    for slot in doc["slots"]:
        prepare, run, check = library_ops.KINDS[slot["kind"]]
        yield slot["kind"], prepare(slot["pool"][0]), run, check


def _corrupt(kind, result):
    """A copy of ``result`` with one number changed; the program is untouched."""
    if kind == "lp_float":
        sol, verified = result
        values = list(sol.values)
        values[0] += 1e-3
        return type(sol)(values, sol.objective_value, sol.basis, sol.reduced_costs, sol.status), verified
    if kind == "lp_exact":
        prob, sol, plan = result
        values = list(sol.values)
        values[-1] += Fraction(1, 10**9)
        return prob, type(sol)(values, sol.objective_value, sol.basis, sol.reduced_costs, sol.status), plan
    if kind == "curve":
        return result[:-1] + ((result[-1][0], result[-1][1] * (1 + 1e-9)),)
    if kind == "simulate":
        counts = list(result.counts)
        counts[0], counts[1] = counts[0] - 1, counts[1] + 1
        return dataclasses.replace(result, counts=tuple(counts))
    if kind == "svd":
        coeffs = list(result.coeffs)
        coeffs[0], coeffs[1] = coeffs[0] + 1e-9, coeffs[1] - 1e-9
        return type(result)(tuple(coeffs))
    if kind == "spectrum_plan":
        probs = list(result.probabilities)
        probs[-1], probs[-2] = probs[-1] - 1e-9, probs[-2] + 1e-9
        return type(result)(tuple(probs), result.expected_entanglement)
    if kind == "monotones":
        report, pmax = result
        return report, pmax * (1 - 1e-6) if pmax == 1.0 else pmax + 1e-6
    if kind == "ensemble":
        report, merged, die, povm = result
        return report, merged, type(die)(die.groups[::-1]), povm
    raise AssertionError(kind)


def test_checker_counts_a_corrupted_result_as_failed(tmp_path):
    doc = _generated("library", tmp_path)
    for kind, inst, run, check in _first_instances(doc):
        result = run(inst, SpanRecorder(enabled=False))
        assert check(inst, result), kind
        assert not check(inst, _corrupt(kind, result)), kind


def test_loop_counts_corrupted_results_in_failed(tmp_path):
    doc = _generated("library", tmp_path)
    slots = worker._library_slots(doc)
    corrupted = [
        [(tag, inst, run, lambda i, r, tag=tag, check=check: check(i, _corrupt(tag, r)))
         for tag, inst, run, check in pool]
        for pool in slots
    ]
    latencies, failed = worker.loop(corrupted, 0.0, SpanRecorder(enabled=False))
    assert len(latencies) == len(slots)
    assert failed == len(slots)


def test_cli_checker_rejects_corrupted_output(tmp_path):
    doc = _generated("cli_small", tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for slot in doc["slots"][:3]:
        inst = slot["pool"][0]
        proc = run_child(cli_ops.command(inst["argv"]), env, cli_ops.CHILD_TIMEOUT_S, capture=True)
        assert cli_ops.check(inst, proc), inst["argv"]
        wrong_code = subprocess.CompletedProcess(proc.args, 1 - min(proc.returncode, 1), proc.stdout, proc.stderr)
        assert not cli_ops.check(inst, wrong_code)
        doc_out = json.loads(proc.stdout)
        key = next(iter(doc_out))
        doc_out[key] = "corrupted"
        wrong_out = subprocess.CompletedProcess(proc.args, proc.returncode, json.dumps(doc_out), proc.stderr)
        assert not cli_ops.check(inst, wrong_out)

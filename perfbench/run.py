"""entmanip benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is imported from ``src/`` of the checkout.  Inputs and their
references are generated from the seed into a temporary directory under
``.perfbench/`` and removed at exit.  A worker process then runs one client
in a closed loop for about ``--seconds``, checking every op's output
outside the timed region.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (its spans are kept in
``.perfbench/trace-<workload>-seed<n>.json``).  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

from children import ChildTimeout, run_child

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
INPUTS = os.path.join(HERE, "inputs.py")

WORKLOADS = ("cli_small", "library")
# Fresh workers per run that only set up, before and after the measuring
# worker; setup_s is the median of their times and the measuring worker's,
# so that its samples span the run like the other metrics.
SETUP_SAMPLES_EACH_SIDE = 4
STARTUP_SAMPLES = 5  # fresh interpreters per start-up probe
WORKER_TIMEOUT_S = 150
INPUTS_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Spans recorded around the benchmark's direct calls into each layer.  A CLI
# op is process start (spawn to the child's first statement), the import of
# ``entmanip.cli``, ``cli.run`` and process exit (flush to reaped).
LAYER_SPANS = (
    "cli.process_start",
    "cli.import",
    "cli.run",
    "jsonio.load_state",
    "jsonio.dumps",
    "cli.process_exit",
    "lp.simplex_solve.float",
    "lp.verify_solution",
    "concentrate.concentration_lp",
    "lp.simplex_solve.exact",
    "schmidt.make_spectrum",
    "concentrate.optimal_plan",
    "concentrate.asymptotic_yield_curve",
    "sim.simulate",
    "schmidt.schmidt_decompose",
    "monotones.nielsen_feasible",
    "monotones.ensemble_feasible",
    "monotones.max_conversion_probability",
    "transform.merge_duplicates",
    "transform.build_ensemble_povm",
    "concentrate.single_shot_povm",
)

PER_LAYER = {
    "startup.interp_ms": "ms",
    "startup.numpy_ms": "ms",
    "startup.import_ms": "ms",
    **{f"{name}.{suffix}": unit for name in LAYER_SPANS for suffix, unit in (("ms", "ms"), ("calls", "count"))},
    "concentrate.asymptotic_yield_curve.peak_mb": "MB",
    "concentrate.tensor_coeffs": "count",
    "concentrate.tensor_useful_ratio": "ratio",
    "sim.simulate.peak_mb": "MB",
    "sim.trials_per_s": "1/s",
    "bench.unattributed_ms": "ms",
    "bench.unattributed_share": "ratio",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env(src):
    env = dict(os.environ, PYTHONPATH=src)
    # One client on one core: no BLAS thread pool competing with it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(workload, mode, tmp, seconds, env):
    out = os.path.join(tmp, f"worker-{mode}.json")
    spawn = time.perf_counter_ns()
    cmd = [sys.executable, WORKER, workload, mode, tmp, repr(seconds), str(spawn), out]
    code = run_child(cmd, env, WORKER_TIMEOUT_S).returncode
    if code != 0:
        raise BenchError(f"{mode} worker exited with code {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def startup_probes(env):
    """Median fresh-interpreter times (ms) for start-up, numpy and entmanip."""
    codes = {"interp": "pass", "numpy": "import numpy", "import": "import entmanip"}
    samples = {k: [] for k in codes}
    for _ in range(STARTUP_SAMPLES):
        for key, code in codes.items():
            t0 = time.perf_counter_ns()
            if run_child([sys.executable, "-c", code], env, 60).returncode != 0:
                raise BenchError(f"start-up probe failed: {code}")
            samples[key].append((time.perf_counter_ns() - t0) / 1e6)
    med = {k: statistics.median(v) for k, v in samples.items()}
    return {
        "startup.interp_ms": med["interp"],
        "startup.numpy_ms": med["numpy"] - med["interp"],
        "startup.import_ms": med["import"] - med["interp"],
    }


def tail(sorted_values):
    """(value, percentile, samples beyond) of the highest percentile with at
    least ten samples beyond it; the maximum when there are too few samples."""
    n = len(sorted_values)
    k = n - 11 if n >= 11 else n - 1
    return sorted_values[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(result, setup_ns):
    lat = sorted(ns / 1e6 for ns in result["latencies"])
    value, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_ns) / 1e9,
        "op_ms.p50": statistics.median(lat),
        "op_ms.tail": value,
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    notes = f"op_ms.tail is p{pct:.1f} of {len(lat)} ops ({beyond} beyond)"
    if "preop_rss_kb" in result:
        notes += f"; peak RSS before the first op {result['preop_rss_kb'] / 1024:.1f} MB"
    return metrics, notes


def per_layer(result, spans_doc, startup):
    from spans import OP_SPAN, self_times

    totals = self_times(spans_doc["spans"])
    counts = spans_doc["counts"]
    metrics = dict(startup)
    for name in LAYER_SPANS:
        ns, calls = totals.get(name, (0, 0))
        metrics[f"{name}.ms"] = ns / 1e6
        metrics[f"{name}.calls"] = calls
    # Yield curves: coefficients expanded per call, and the share of them
    # that a type-class (distinct products) computation would need; with no
    # expansion observed, all work is useful.
    curve_calls = metrics["concentrate.asymptotic_yield_curve.calls"]
    expanded = counts.get("concentrate.tensor_coeffs", 0)
    distinct = counts.get("concentrate.tensor_distinct", 0)
    useful = distinct / expanded if expanded else float(curve_calls > 0)
    sim_ns = totals.get("sim.simulate", (0, 0))[0]
    # Op time that no reported layer metric accounts for: the self time of
    # the op spans and of any span not listed in LAYER_SPANS.
    op_ns = sum(end - start for _, name, start, end, _, _ in spans_doc["spans"] if name == OP_SPAN)
    unattributed_ns = op_ns - sum(totals.get(name, (0, 0))[0] for name in LAYER_SPANS)
    metrics.update(
        {
            "concentrate.asymptotic_yield_curve.peak_mb": result["peak_mb"].get(
                "concentrate.asymptotic_yield_curve.peak_mb", 0.0
            ),
            "concentrate.tensor_coeffs": expanded / curve_calls if curve_calls else 0.0,
            "concentrate.tensor_useful_ratio": useful,
            "sim.simulate.peak_mb": result["peak_mb"].get("sim.simulate.peak_mb", 0.0),
            "sim.trials_per_s": counts.get("sim.trials", 0) / (sim_ns / 1e9) if sim_ns else 0.0,
            "bench.unattributed_ms": unattributed_ns / 1e6,
            "bench.unattributed_share": unattributed_ns / op_ns,
            "trace.overhead": result["plain_ops_per_s"] / result["traced_ops_per_s"],
        }
    )
    return metrics, f"traced op time {op_ns / 1e6:.1f} ms"


def measure(args, root, tmp):
    env = child_env(os.path.join(root, "src"))
    # A spawned process starts with its parent's peak RSS as its own
    # ru_maxrss, so this process stays small: inputs and references are made
    # in a child, and the workers are spawned from here.
    cmd = [sys.executable, INPUTS, args.workload, str(args.seed), tmp]
    if run_child(cmd, env, INPUTS_TIMEOUT_S).returncode != 0:
        raise BenchError("input generation failed")
    if args.trace:
        startup = startup_probes(env)
        result = worker(args.workload, "trace", tmp, args.seconds, env)
        with open(os.path.join(tmp, "spans.json"), encoding="utf-8") as fh:
            spans_doc = json.load(fh)
        spans_doc["meta"].update(seed=args.seed, seconds=args.seconds)
        trace_path = os.path.join(root, ".perfbench", f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(spans_doc, fh)
        metrics, notes = per_layer(result, spans_doc, startup)
        units = PER_LAYER
    else:
        setup_ns = [worker(args.workload, "setup", tmp, args.seconds, env)["setup_ns"]
                    for _ in range(SETUP_SAMPLES_EACH_SIDE)]
        result = worker(args.workload, "measure", tmp, args.seconds, env)
        setup_ns.append(result["setup_ns"])
        setup_ns += [worker(args.workload, "setup", tmp, args.seconds, env)["setup_ns"]
                     for _ in range(SETUP_SAMPLES_EACH_SIDE)]
        metrics, notes = end_to_end(result, setup_ns)
        units = END_TO_END
    return result, metrics, units, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "entmanip", "__init__.py")):
        print("perfbench: run from the root of an entmanip source checkout "
              "(src/entmanip not found)", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".perfbench"))
    try:
        result, metrics, units, notes = measure(args, root, tmp)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    except ChildTimeout:
        print("perfbench: a child process timed out and was killed", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = len(result["latencies"]), result["failed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, fail_ratio {failed}/{attempted}; {notes}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark worker: one client running ops in a closed loop.

Usage::

    python perfbench/worker.py <workload> <mode> <inputs dir> <seconds> <spawn ns> <out file>

``mode`` is ``setup`` (warm up, report the set-up time, exit), ``measure``
(an untraced loop, for the end-to-end metrics) or ``trace`` (untraced and
traced rounds in turn, for the per-layer metrics and the tracing overhead).
The next op starts only after the previous one has finished and been
checked.  A round runs every slot of the workload once; the loop stops at
the first round boundary after the deadline, so every run holds the same
mix of ops.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import resource
import sys
import time
import traceback
from contextlib import nullcontext

from children import run_child
from spans import OP_SPAN, SpanRecorder

# Memory probes: a per-layer peak (tracemalloc) for these op kinds.
PEAK_METRICS = {
    "curve": "concentrate.asymptotic_yield_curve.peak_mb",
    "simulate": "sim.simulate.peak_mb",
}


def _cli_slots(doc, directory):
    """Slots of ``(tag, instance, run, check)`` for CLI ops."""
    import cli_ops

    spans_path = os.path.join(directory, "child_spans.json")
    env = dict(os.environ, PERFBENCH_CHILD_SPANS=spans_path)

    def run(inst, rec):
        cmd = cli_ops.command(inst["argv"], traced=rec.enabled)
        start = time.perf_counter_ns()
        proc = run_child(cmd, env, cli_ops.CHILD_TIMEOUT_S, capture=True)
        if rec.enabled:
            rec.adopt(cli_ops.child_spans(spans_path, start, time.perf_counter_ns()))
        return proc

    return [
        [(f"cli {inst['argv'][0]}", inst, run, cli_ops.check) for inst in slot["pool"]]
        for slot in doc["slots"]
    ]


def _library_slots(doc):
    """Slots of ``(tag, instance, run, check)`` for in-process ops."""
    import library_ops

    slots = []
    for slot in doc["slots"]:
        prepare, run, check = library_ops.KINDS[slot["kind"]]
        slots.append([(slot["kind"], prepare(raw), run, check) for raw in slot["pool"]])
    return slots


def loop(slots, seconds, rec, alternate=False):
    """Closed loop over whole rounds; returns (latencies in ns, failed).

    With ``alternate`` the recorder is on in odd rounds only and the loop
    ends after an even number of rounds, so that traced and untraced rounds
    see the same machine conditions.
    """
    latencies, failed = [], 0
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    rnd = 0
    while True:
        if alternate:
            rec.enabled = rnd % 2 == 1
        for pool in slots:
            tag, inst, run, check = pool[rnd % len(pool)]
            with rec.span(OP_SPAN):
                t0 = time.perf_counter_ns()
                try:
                    result, ok = run(inst, rec), True
                except Exception:  # an op that raises counts as failed
                    traceback.print_exc(file=sys.stderr)
                    result, ok = None, False
                t1 = time.perf_counter_ns()
            latencies.append(t1 - t0)
            if ok and not check(inst, result):
                print(f"perfbench: output check failed: {tag}", file=sys.stderr)
                ok = False
            failed += not ok
        rnd += 1
        if time.perf_counter_ns() >= deadline and not (alternate and rnd % 2):
            return latencies, failed


def _memory_probes(slots):
    """Largest peak traced allocation in MB of one call per probed slot."""
    import tracemalloc

    peaks = {}
    for pool in slots:
        tag, inst, run, _ = pool[0]
        name = PEAK_METRICS.get(tag)
        if name is None:
            continue
        tracemalloc.start()
        try:
            run(inst, SpanRecorder(enabled=False))
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        peaks[name] = max(peaks.get(name, 0.0), peak)
    return peaks


def _rate(latencies):
    return len(latencies) / (sum(latencies) / 1e9)


def main(argv):
    workload, mode, directory, seconds, spawn_ns, out_path = argv
    seconds, spawn_ns = float(seconds), int(spawn_ns)
    # One client on one core; CLI children inherit the pinning.  This keeps
    # the scheduler from migrating the work between cores mid-op.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = {}

    if workload == "cli_small":
        import cli_ops

        with open(os.path.join(directory, "warmup.json"), encoding="utf-8") as fh:
            warm_argv = json.load(fh)
        cmd = cli_ops.command(warm_argv)
        t0 = time.perf_counter_ns()
        proc = run_child(cmd, dict(os.environ), cli_ops.CHILD_TIMEOUT_S, capture=True)
        result["setup_ns"] = time.perf_counter_ns() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up CLI call failed: {proc.stderr.strip()}")
    else:
        import library_ops

        library_ops.warm_up()
        result["setup_ns"] = time.perf_counter_ns() - spawn_ns

    if mode != "setup":
        with open(os.path.join(directory, "inputs.pkl"), "rb") as fh:
            doc = pickle.load(fh)
        slots = _cli_slots(doc, directory) if workload == "cli_small" else _library_slots(doc)
        # The inputs and references live for the whole loop: collect once
        # and move them out of the collector's reach, so that the program's
        # collections inside timed ops do not scan the benchmark's data.
        gc.collect()
        gc.freeze()
        if mode == "measure":
            if workload != "cli_small":
                # The peak before the first op: interpreter, imports, and the
                # inputs and references this worker holds for the whole loop.
                result["preop_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            latencies, failed = loop(slots, seconds, SpanRecorder(enabled=False))
            who = resource.RUSAGE_CHILDREN if workload == "cli_small" else resource.RUSAGE_SELF
            result.update(
                latencies=latencies,
                failed=failed,
                peak_rss_kb=resource.getrusage(who).ru_maxrss,
            )
        else:
            rec = SpanRecorder()
            counting = (
                nullcontext() if workload == "cli_small"
                else library_ops.counting_tensor_powers(rec)
            )
            with counting:
                latencies, failed = loop(slots, seconds, rec, alternate=True)
            traced = [(i // len(slots)) % 2 == 1 for i in range(len(latencies))]
            result.update(
                latencies=latencies,
                failed=failed,
                plain_ops_per_s=_rate([l for l, t in zip(latencies, traced) if not t]),
                traced_ops_per_s=_rate([l for l, t in zip(latencies, traced) if t]),
                peak_mb=_memory_probes(slots),
            )
            rec.dump(os.path.join(directory, "spans.json"), {"workload": workload})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])

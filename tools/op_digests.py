"""Print one digest line per benchmark op, to compare two versions of entmanip.

For each seed given, the inputs of both benchmark workloads are generated by
``perfbench/inputs.py`` into a temporary directory, as a benchmark run
generates them.  Each ``library`` op then runs once, in this process,
through ``perfbench/library_ops.py``; its line digests the ``repr`` of the
op's result and, so that a change to how results are stored shows too, the
bytes of ``pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)``.  Each
``cli_small`` op runs once as ``python -m entmanip``; its line digests
stdout and gives the exit code.  Every line also gives
the verdict of the op's benchmark check, and starts with the seed.
Nothing is timed, and nothing under ``perfbench/`` is written.  As in the
benchmark, BLAS runs on one thread, so that the numpy results do not
depend on the machine's cores.  The exit status is 1 when some op fails
its check, and 0 otherwise.

Usage: PYTHONPATH=src python tools/op_digests.py SEED [SEED ...]

The program is imported from ``PYTHONPATH``, by this process and by the CLI
children.  Run the tool under the ``src`` of two checkouts and ``diff`` its
outputs: a line that differs names the op whose result changed.
"""

import hashlib
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import cli_ops  # noqa: E402
import inputs  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def _digest(data) -> str:
    """The first 16 hex digits of the SHA-256 of ``data``, text or bytes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def _verdict(ok: bool) -> str:
    return "ok" if ok else "FAILED"


def library_lines(doc):
    """One line per ``library`` op: index, kind, check verdict, and the
    digests of the result's repr and of its pickle."""
    import library_ops

    rec = SpanRecorder(enabled=False)
    index = 0
    for slot in doc["slots"]:
        prepare, run, check = library_ops.KINDS[slot["kind"]]
        for raw in slot["pool"]:
            inst = prepare(raw)
            result = run(inst, rec)
            ok = check(inst, result)
            pickled = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            yield (
                f"library {index:3d} {slot['kind']} {_verdict(ok)} "
                f"{_digest(repr(result))} pickle={_digest(pickled)}"
            )
            index += 1


def cli_lines(doc):
    """One line per ``cli_small`` op: index, subcommand, exit code, check
    verdict, digest of stdout."""
    index = 0
    for slot in doc["slots"]:
        for inst in slot["pool"]:
            proc = subprocess.run(
                cli_ops.command(inst["argv"]), capture_output=True, text=True,
                timeout=cli_ops.CHILD_TIMEOUT_S,
            )
            ok = cli_ops.check(inst, proc)
            yield (
                f"cli_small {index:3d} {inst['argv'][0]} exit={proc.returncode} "
                f"{_verdict(ok)} {_digest(proc.stdout)}"
            )
            index += 1


def main(argv) -> int:
    if len(argv) < 2 or not all(arg.lstrip("-").isdigit() for arg in argv[1:]):
        print("usage: python tools/op_digests.py SEED [SEED ...]", file=sys.stderr)
        return 2
    failed = 0
    for seed in map(int, argv[1:]):
        for workload, lines in (("library", library_lines), ("cli_small", cli_lines)):
            with tempfile.TemporaryDirectory(prefix="op-digests-") as tmp:
                inputs.generate(workload, seed, tmp)
                with open(os.path.join(tmp, "inputs.pkl"), "rb") as fh:
                    doc = pickle.load(fh)
                for line in lines(doc):
                    print(f"seed {seed} {line}", flush=True)
                    failed += " FAILED " in line
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

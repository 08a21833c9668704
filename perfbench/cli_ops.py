"""CLI ops: one ``python -m entmanip ...`` child per op, with its check.

The worker runs at most one child at a time and waits for it.  ``check``
requires the expected exit code, no traceback on stderr, and stdout that
parses to the reference computed in-process from the library at set-up.
"""

from __future__ import annotations

import json
import math
import os
import sys

CHILD_TIMEOUT_S = 60
TRACED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")


def command(argv, traced=False):
    """Full child command line for entmanip arguments ``argv``."""
    head = [sys.executable, TRACED_CLI] if traced else [sys.executable, "-m", "entmanip"]
    return head + list(argv)


def child_spans(path, t0, t1):
    """Spans written by ``traced_cli.py``, framed by process start and exit.

    ``t0`` and ``t1`` are taken just before starting the child and just
    after reaping it; process start runs from ``t0`` to the child's first
    statement, and process exit from the child's last timestamp to ``t1``.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(path)
    rows = [["cli.process_start", t0, doc["entry"], None]]
    rows += [[n, s, e, None if p is None else p + 1] for n, s, e, p in doc["spans"]]
    rows.append(["cli.process_exit", doc["exit"], t1, None])
    return rows


def parse_csv(text):
    """Probabilities from ``concentrate --format csv`` output."""
    lines = text.splitlines()
    if not lines or lines[0] != "level,probability":
        raise ValueError("unexpected CSV header")
    probs = []
    for line in lines[1:]:
        if not line:
            break
        level, p = line.split(",")
        if int(level) != len(probs) + 1:
            raise ValueError("CSV levels out of order")
        probs.append(float(p))
    return {"p": probs}


def same(doc, ref, rel=1e-12, abs_tol=1e-15):
    """Structural equality; floats agree within the given tolerances."""
    if isinstance(ref, bool) or isinstance(doc, bool):
        return doc is ref
    if isinstance(ref, dict):
        return (
            isinstance(doc, dict)
            and doc.keys() == ref.keys()
            and all(same(doc[k], ref[k], rel, abs_tol) for k in ref)
        )
    if isinstance(ref, (list, tuple)):
        return (
            isinstance(doc, list)
            and len(doc) == len(ref)
            and all(same(d, r, rel, abs_tol) for d, r in zip(doc, ref))
        )
    if isinstance(ref, int):
        return type(doc) is int and doc == ref
    if isinstance(ref, float):
        return isinstance(doc, (int, float)) and math.isclose(doc, ref, rel_tol=rel, abs_tol=abs_tol)
    return doc == ref


def check(inst, proc):
    if proc.returncode != inst["exit"] or "Traceback" in proc.stderr:
        return False
    try:
        doc = parse_csv(proc.stdout) if inst["format"] == "csv" else json.loads(proc.stdout)
    except ValueError:
        return False
    return same(doc, inst["ref"])

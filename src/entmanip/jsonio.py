"""JSON interchange for states, ensembles, measurements and LPs.

All numeric output is serialized with 17 significant digits, which round
trips IEEE doubles losslessly.  State files carry either a raw spectrum or
a complex amplitude matrix; ``-`` reads from stdin.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from contextlib import contextmanager

from .lp import LpProblem
from .schmidt import ZERO_TOL, SchmidtSpectrum, make_spectrum, schmidt_decompose
from .transform import DiagonalPovm, PovmElement, TargetEnsemble, make_ensemble

__all__ = [
    "dumps",
    "read_json",
    "load_state",
    "load_ensemble",
    "load_povm",
    "load_lp",
    "load_weights",
]


def _format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, numbers.Integral):
        return str(int(x))
    if isinstance(x, numbers.Real):
        value = float(x)
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("cannot serialize non-finite numbers")
        return format(value, ".17g")
    raise TypeError(f"not a JSON number: {x!r}")


def dumps(obj) -> str:
    """Serialize to JSON with floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    return _format_number(obj)


def read_json(path: str):
    """Parse a JSON document from a file path, or from stdin for ``-``."""
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _complex_entry(entry) -> complex:
    if isinstance(entry, dict):
        return complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
    if isinstance(entry, (int, float)):
        return complex(float(entry), 0.0)
    raise ValueError(f"amplitude entries must be numbers or re/im objects, got {entry!r}")


@contextmanager
def _fields(kind: str):
    """Turn a missing key or a value of the wrong type or size into ``ValueError``."""
    try:
        yield
    except KeyError as missing:
        raise ValueError(f"{kind} file is missing the {missing} key") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{kind} file is malformed: {exc}") from None


def load_state(path: str, zero_tol: float = ZERO_TOL) -> SchmidtSpectrum:
    """Load a state file holding either a spectrum or an amplitude matrix."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError("state file must be a JSON object")
    with _fields("state"):
        if "spectrum" in doc:
            raw = [float(v) for v in doc["spectrum"]]
            return make_spectrum(raw, zero_tol=zero_tol)
        if "amplitudes" in doc:
            rows = [[_complex_entry(e) for e in row] for row in doc["amplitudes"]]
            return schmidt_decompose(rows, zero_tol=zero_tol)
    raise ValueError("state file needs a 'spectrum' or 'amplitudes' key")


def load_ensemble(path: str, zero_tol: float = ZERO_TOL) -> TargetEnsemble:
    """Load {"ensemble": [{"probability": p, "spectrum": [...]}, ...]}."""
    doc = read_json(path)
    if not isinstance(doc, dict) or "ensemble" not in doc:
        raise ValueError("ensemble file needs an 'ensemble' key")
    pairs = []
    with _fields("ensemble"):
        for entry in doc["ensemble"]:
            p = float(entry["probability"])
            target = make_spectrum(
                [float(v) for v in entry["spectrum"]], zero_tol=zero_tol
            )
            pairs.append((p, target))
    return make_ensemble(pairs)


def load_povm(path: str) -> DiagonalPovm:
    """Load {"support_rank": N, "elements": [{"label": j, "diag": [...]}]}."""
    doc = read_json(path)
    if not isinstance(doc, dict) or "elements" not in doc:
        raise ValueError("measurement file needs an 'elements' key")
    with _fields("measurement"):
        elements = tuple(
            PovmElement(int(e["label"]), tuple(float(d) for d in e["diag"]))
            for e in doc["elements"]
        )
        if "support_rank" in doc:
            support = int(doc["support_rank"])
        elif elements:
            support = len(elements[0].diag)
        else:
            raise ValueError("measurement file has no elements")
    return DiagonalPovm(elements, support_rank=support)


def load_lp(path: str) -> LpProblem:
    """Load {"objective": [...], "matrix": [[...], ...], "bounds": [...]}."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError("LP file must be a JSON object")
    with _fields("LP"):
        objective = tuple(float(v) for v in doc["objective"])
        matrix = tuple(tuple(float(v) for v in row) for row in doc["matrix"])
        bounds = tuple(float(v) for v in doc["bounds"])
    return LpProblem(objective, matrix, bounds)


def load_weights(path: str) -> tuple:
    """Load a JSON list of finite level weights, ``[c_1, ..., c_n]``."""
    doc = read_json(path)
    if not isinstance(doc, list):
        raise ValueError("weight file must hold a JSON list")
    with _fields("weight"):
        for w in doc:
            if isinstance(w, bool) or not isinstance(w, (int, float)) or not math.isfinite(w):
                raise ValueError(f"weight file entries must be finite numbers, got {w!r}")
    return tuple(float(w) for w in doc)

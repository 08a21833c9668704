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
from contextlib import contextmanager, nullcontext

from .schmidt import ZERO_TOL, SchmidtSpectrum, make_spectrum

# Annotations are not evaluated (PEP 563): the types they name from
# ``lp`` and ``transform`` are imported only by the loaders that build them,
# and ``amplitudes`` only for a state given as an amplitude matrix.

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
        if not math.isfinite(value):
            raise ValueError("cannot serialize non-finite numbers")
        if value == 0:
            value = 0.0  # no "-0" in the output
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
    """Parse a JSON document from a file path, or from stdin for ``-``.

    A document nested deeper than the parser's recursion allows raises
    ``ValueError``, as any other document that cannot be read does.
    """
    try:
        with nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _number(value, what: str) -> float:
    """A finite JSON number as a float; strings, booleans, null and NaN fail."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ValueError(f"{what} must be finite numbers, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    if not _number(value, what).is_integer():
        raise ValueError(f"{what} must be integers, got {value!r}")
    return int(value)


def _complex_entry(entry) -> complex:
    if isinstance(entry, dict):
        return complex(
            _number(entry.get("re", 0.0), "amplitude re/im parts"),
            _number(entry.get("im", 0.0), "amplitude re/im parts"),
        )
    return complex(_number(entry, "amplitude entries (or re/im objects)"), 0.0)


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
            raw = [_number(v, "spectrum entries") for v in doc["spectrum"]]
            return make_spectrum(raw, zero_tol=zero_tol)
        if "amplitudes" in doc:
            from .amplitudes import schmidt_decompose

            rows = [[_complex_entry(e) for e in row] for row in doc["amplitudes"]]
            return schmidt_decompose(rows, zero_tol=zero_tol)
    raise ValueError("state file needs a 'spectrum' or 'amplitudes' key")


def load_ensemble(path: str) -> TargetEnsemble:
    """Load {"ensemble": [{"probability": p, "spectrum": [...]}, ...]}."""
    from .transform import make_ensemble

    doc = read_json(path)
    if not isinstance(doc, dict) or "ensemble" not in doc:
        raise ValueError("ensemble file needs an 'ensemble' key")
    pairs = []
    with _fields("ensemble"):
        for entry in doc["ensemble"]:
            p = _number(entry["probability"], "ensemble probabilities")
            target = make_spectrum(
                [_number(v, "spectrum entries") for v in entry["spectrum"]]
            )
            pairs.append((p, target))
    return make_ensemble(pairs)


def load_povm(path: str) -> DiagonalPovm:
    """Load {"support_rank": N, "elements": [{"label": j, "diag": [...]}]}.

    ``support_rank`` is optional; when given it must equal the length of
    the element diagonals.
    """
    from .transform import DiagonalPovm, PovmElement

    doc = read_json(path)
    if not isinstance(doc, dict) or "elements" not in doc:
        raise ValueError("measurement file needs an 'elements' key")
    with _fields("measurement"):
        elements = tuple(
            PovmElement(
                _integer(e["label"], "element labels"),
                tuple(_number(d, "element diagonals") for d in e["diag"]),
            )
            for e in doc["elements"]
        )
        povm = DiagonalPovm(elements)
        support = doc.get("support_rank", povm.support_rank)
        if _integer(support, "support ranks") != povm.support_rank:
            raise ValueError("every element diagonal must cover the full support")
        return povm


def load_lp(path: str) -> LpProblem:
    """Load {"objective": [...], "matrix": [[...], ...], "bounds": [...]}."""
    from .lp import LpProblem

    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError("LP file must be a JSON object")
    with _fields("LP"):
        objective = tuple(_number(v, "LP objective entries") for v in doc["objective"])
        matrix = tuple(
            tuple(_number(v, "LP matrix entries") for v in row) for row in doc["matrix"]
        )
        bounds = tuple(_number(v, "LP bounds entries") for v in doc["bounds"])
    return LpProblem(objective, matrix, bounds)


def load_weights(path: str) -> tuple:
    """Load a JSON list of finite level weights, ``[c_1, ..., c_n]``."""
    doc = read_json(path)
    if not isinstance(doc, list):
        raise ValueError("weight file must hold a JSON list")
    with _fields("weight"):
        return tuple(_number(w, "weight file entries") for w in doc)

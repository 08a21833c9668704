"""Count the code lines of the ``entmanip`` package, per module and per CLI call.

A code line holds at least one token that is not part of a docstring, a
comment or a blank line.  A docstring is the string literal that opens a
module, class or function body.  Only the standard library is used.

The first table counts each module and the package.  The second counts,
for one call of each subcommand (and of the options that load more), the
code lines of the package modules that call loads: each call runs
``cli.run`` on tiny inputs in a fresh interpreter, which reports its
``entmanip`` modules, and ``__main__.py``, which ``python -m entmanip``
runs, is counted for every call.  A module-level import that loads code a
call never runs shows there.

Usage: python tools/code_lines.py [package directory]
(the default is src/entmanip, relative to the repository root).  A reader
that closes the pipe early, as ``| head`` does, ends the tool quietly with
exit status 0.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

# Tiny inputs, and the calls that read them: {name} is the file of input name.
_INPUTS = {
    "state": {"spectrum": [0.5, 0.3, 0.2]},
    "target": {"spectrum": [0.8, 0.2]},
    "amplitudes": {"amplitudes": [[0.6, 0.0], [0.0, 0.8]]},
    "ensemble": {
        "ensemble": [
            {"probability": 0.5, "spectrum": [1.0]},
            {"probability": 0.5, "spectrum": [0.5, 0.5]},
        ]
    },
    "lp": {"objective": [1.0, 1.0], "matrix": [[1.0, 2.0], [3.0, 1.0]], "bounds": [4.0, 6.0]},
    "povm": {"elements": [{"label": 1, "diag": [1, 1, 1]}]},
}
_CALLS = [
    ["decompose", "--state", "{state}"],
    ["decompose", "--state", "{amplitudes}"],
    ["check-feasible", "--source", "{state}", "--target", "{target}"],
    ["check-feasible", "--source", "{state}", "--ensemble", "{ensemble}"],
    ["build-povm", "--source", "{state}", "--ensemble", "{ensemble}"],
    ["concentrate", "--state", "{state}", "--certify", "--asymptotic", "2"],
    ["concentrate", "--state", "{state}", "--weights", "log2"],
    ["lp-solve", "{lp}"],
    ["simulate", "--state", "{state}", "--trials", "10"],
    ["simulate", "--state", "{state}", "--protocol", "{povm}", "--trials", "10"],
]
_CHILD = (
    "import contextlib, io, json, sys\n"
    "from entmanip.cli import run\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = run(json.loads(sys.argv[1]))\n"
    "names = [m.split('.', 1)[1] for m in sys.modules if m.startswith('entmanip.')]\n"
    "print(json.dumps([code, names]))\n"
)


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def loaded_modules(package: Path, argv) -> list:
    """The submodules of ``package`` that one CLI call loads, in a fresh
    interpreter that imports the package from ``package``'s parent."""
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    code, names = json.loads(proc.stdout.splitlines()[-1])
    if code != 0:
        raise RuntimeError(f"entmanip {' '.join(argv)} exited with {code}")
    return names


def main(argv) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1] / "src" / "entmanip"
    counts = {}
    for path in sorted(package.glob("*.py")):
        counts[path.stem] = code_lines(path)
        print(f"{counts[path.stem]:6d}  {path.name}")
    print(f"{sum(counts.values()):6d}  total")
    print()
    print("code lines a CLI call loads (with __init__ and __main__):")
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, doc in _INPUTS.items():
            files[name] = os.path.join(tmp, f"{name}.json")
            with open(files[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        for call in _CALLS:
            modules = sorted(loaded_modules(package, [a.format(**files) for a in call]))
            total = counts["__init__"] + counts["__main__"] + sum(counts[m] for m in modules)
            label = " ".join(a.strip("{}") for a in call)
            print(f"{total:6d}  {label}: {', '.join(modules)}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:
        # the reader stopped reading (``| head``): stop quietly, with stdout
        # on devnull so that the flush at exit cannot raise the error again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)

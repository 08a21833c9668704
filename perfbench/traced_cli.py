"""Run the entmanip CLI as ``python -m entmanip`` does, recording spans.

Usage: ``PERFBENCH_CHILD_SPANS=<file> python perfbench/traced_cli.py <args>``

Spans cover the import of ``entmanip.cli``, ``cli.run`` and, inside it,
every call that ``cli`` makes to ``jsonio.load_state`` and ``jsonio.dumps``
(wrapped here, from outside the package).  They are written to the file at
exit; the caller adds the process start and exit around them.
"""

import json
import os
import sys
import time

_ENTRY_NS = time.perf_counter_ns()
_spans = []  # [name, start_ns, end_ns, local_parent]


def _traced(name, fn, parent):
    def wrapper(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            _spans.append([name, start, time.perf_counter_ns(), parent])

    return wrapper


def main():
    import entmanip.cli as cli

    _spans.append(["cli.import", _ENTRY_NS, time.perf_counter_ns(), None])
    run_span = ["cli.run", None, None, None]
    parent = len(_spans)
    _spans.append(run_span)
    cli.load_state = _traced("jsonio.load_state", cli.load_state, parent)
    cli.dumps = _traced("jsonio.dumps", cli.dumps, parent)
    run_span[1] = time.perf_counter_ns()
    code = cli.run(sys.argv[1:])
    run_span[2] = time.perf_counter_ns()
    sys.stdout.flush()
    exit_ns = time.perf_counter_ns()
    with open(os.environ["PERFBENCH_CHILD_SPANS"], "w", encoding="utf-8") as fh:
        json.dump({"entry": _ENTRY_NS, "exit": exit_ns, "spans": _spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

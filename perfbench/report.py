"""Print every metric of every workload, by name and with its unit.

Usage, from the root of a source checkout::

    python3 perfbench/report.py [--seed N] [--trace 0|1]

Runs ``perfbench/run.py`` once per workload listed in ``BENCHMARK.json``,
for its ``run_seconds``, and prints the fail ratio with its base and each
end-to-end metric (per-layer with ``--trace 1``).
Exits non-zero if any run fails or any op fails its output check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"{name}: run failed with exit code {proc.returncode}")
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name} (seed {args.seed}): fail_ratio {result['failed']}/{result['attempted']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())

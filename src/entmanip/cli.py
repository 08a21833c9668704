"""Command-line front end.

Subcommands: decompose, check-feasible, build-povm, concentrate, lp-solve,
simulate.  Machine-readable JSON goes to stdout, human-readable errors to
stderr.  Exit codes: 0 success, 2 usage error, 3 infeasible, or a
``FailedCheck`` (the library could not certify an answer), 4 I/O or parse
error.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

from . import __version__
from .jsonio import dumps, load_ensemble, load_lp, load_povm, load_state, load_weights
from .schmidt import ZERO_TOL, FailedCheck, entropy

# Each _cmd_* imports the kernel modules it calls, so a call loads only
# what its subcommand uses.  load_state and dumps are looked up in this
# module's globals at call time, so a caller can wrap them from outside.

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

_LN2 = math.log(2.0)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _emit(doc) -> None:
    sys.stdout.write(dumps(doc) + "\n")


def _in_units(nats: float, units: str) -> float:
    return nats / _LN2 if units == "bits" else nats


def _cmd_decompose(args) -> int:
    state = load_state(args.state, zero_tol=args.zero_tol)
    _emit(
        {
            "spectrum": list(state.coeffs),
            "entropy": _in_units(entropy(state), args.units),
            "units": args.units,
        }
    )
    return EXIT_OK


def _report_dict(report) -> dict:
    return {
        "feasible": report.feasible,
        "violated_indices": list(report.violated_indices),
        "slack": list(report.slack),
    }


def _cmd_check_feasible(args) -> int:
    from .monotones import FEASIBILITY_TOL, ensemble_feasible, nielsen_feasible

    tol = FEASIBILITY_TOL if args.tol is None else args.tol
    source = load_state(args.source)
    if args.target is not None:
        target = load_state(args.target)
        report = nielsen_feasible(source, target, tol=tol)
    else:
        ensemble = load_ensemble(args.ensemble)
        report = ensemble_feasible(source, ensemble, tol=tol)
    _emit(_report_dict(report))
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _povm_dict(povm, die) -> dict:
    return {
        "support_rank": povm.support_rank,
        "elements": [
            {"label": el.label, "diag": list(el.diag)} for el in povm.elements
        ],
        "die": [
            {
                "representative": group.representative,
                "members": [
                    {"outcome": j, "probability": r} for j, r in group.members
                ],
            }
            for group in die.groups
        ],
    }


def _cmd_build_povm(args) -> int:
    from .monotones import ensemble_feasible
    from .transform import build_ensemble_povm, merge_duplicates

    source = load_state(args.source)
    ensemble = load_ensemble(args.ensemble)
    report = ensemble_feasible(source, ensemble)
    if not report.feasible:
        _emit(_report_dict(report))
        print(
            "transformation is infeasible at indices "
            f"{list(report.violated_indices)}",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    merged, die = merge_duplicates(ensemble)
    text = dumps(_povm_dict(build_ensemble_povm(merged), die)) + "\n"
    if args.out:  # first, so that a file that cannot be written leaves stdout empty
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def _lp_plan(state, weights):
    """Level distribution optimizing arbitrary weights, via the simplex.

    Every plan sums to 1, so the LP is solved on the shifted weights
    c_j - c_1, which give level 1 no credit and move each plan's objective
    by the same c_1.  The solver may then leave probability unassigned; the
    remainder goes to level 1, which is always feasible and does not change
    the shifted objective.  The objective returned is sum_j c_j p_j of the
    completed plan.  The LP is feasible and bounded for any weights, so a
    solve that is not optimal is a numerical failure: ``FailedCheck``.
    """
    from .concentrate import concentration_lp
    from .lp import simplex_solve

    shifted = [c - weights[0] for c in weights]
    solution = simplex_solve(concentration_lp(state, shifted))
    if solution.status != "optimal":
        raise FailedCheck(f"concentration LP came back {solution.status}")
    probs = list(solution.values)
    probs[0] += max(0.0, 1.0 - math.fsum(probs))
    return probs, math.fsum(c * p for c, p in zip(weights, probs))


def _cmd_concentrate(args) -> int:
    from .concentrate import asymptotic_yield_curve, optimal_plan, optimality_certificate
    from .concentrate import standard_weights

    state = load_state(args.state)
    n = state.rank
    named = args.weights in ("ln", "log2", "indicator")
    weights = standard_weights(args.weights, n) if named else load_weights(args.weights)
    cert = optimality_certificate(n, weights) if args.certify else None
    z = [] if cert is None else list(cert.z_values)
    # finite weights can still overflow what is derived from them: the LP's
    # objective c_j - c_1 and the certificate's second differences of j c_j
    if not all(map(math.isfinite, [c - weights[0] for c in weights] + z)):
        raise ValueError(
            "weight file entries out of range: c_j - c_1 and, with --certify, "
            f"the certificate's z must stay below {sys.float_info.max:.4g} in magnitude"
        )
    if args.weights == "ln":
        probs = list(optimal_plan(state).probabilities)
    else:
        probs, objective = _lp_plan(state, weights)
    # the plan's own ln j average: the j = 1 term adds 0.0, so on the ln
    # branch this is optimal_plan's expected_entanglement bit for bit
    expected = math.fsum(p * math.log(j) for j, p in enumerate(probs, start=1))

    yield_key = "expected_bits" if args.units == "bits" else "expected_nats"
    doc = {"plan": {"p": probs, yield_key: _in_units(expected, args.units)}}
    if args.weights != "ln":
        doc["plan"]["objective"] = objective
    if cert is not None:
        doc["certificate"] = {"z": z, "passed": cert.passed}
    curve = None
    if args.asymptotic is not None:
        curve = asymptotic_yield_curve(state, args.asymptotic)
        doc["curve"] = [[n_, _in_units(y, args.units)] for n_, y in curve]

    if args.format == "csv":
        _emit_concentrate_csv(probs, curve, args.units)
    else:
        _emit(doc)
    return EXIT_OK


def _emit_concentrate_csv(probs, curve, units) -> None:
    lines = ["level,probability"]
    lines += [f"{j},{format(p, '.17g')}" for j, p in enumerate(probs, start=1)]
    if curve is not None:
        lines += ["", f"n,per_copy_yield_{units}"]
        lines += [
            f"{n},{format(_in_units(y, units), '.17g')}" for n, y in curve
        ]
    sys.stdout.write("\n".join(lines) + "\n")


def _cmd_lp_solve(args) -> int:
    from .lp import simplex_solve

    solution = simplex_solve(load_lp(args.problem))
    doc = {"status": solution.status}
    if solution.status == "optimal":
        doc["values"] = list(solution.values)
        doc["objective"] = solution.objective_value
        doc["basis"] = list(solution.basis)
        doc["reduced_costs"] = list(solution.reduced_costs)
    _emit(doc)
    return EXIT_OK if solution.status == "optimal" else EXIT_INFEASIBLE


def _cmd_simulate(args) -> int:
    from .sim import simulate

    state = load_state(args.state)
    if args.protocol == "optimal":
        from .transform import single_shot_povm

        povm = single_shot_povm(state)
    else:
        povm = load_povm(args.protocol)
    report = simulate(povm, state, trials=args.trials, seed=args.seed)
    _emit(
        {
            "trials": report.trials,
            "seed": report.seed,
            "labels": list(report.labels),
            "counts": list(report.counts),
            "empirical_probs": list(report.empirical_probs),
            "expected_probs": list(report.expected_probs),
            "mean_yield_nats": report.mean_yield,
            "max_abs_deviation": report.max_abs_deviation,
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entmanip",
        description=(
            "Decide and construct optimal local manipulations of bipartite "
            "pure-state entanglement."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="Schmidt spectrum and entropy of a state")
    p.add_argument("--state", required=True, help="state file (JSON), or - for stdin")
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.add_argument("--zero-tol", type=_tolerance, default=ZERO_TOL)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "check-feasible", help="monotone feasibility of a local transformation"
    )
    p.add_argument("--source", required=True, help="source state file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", help="single target state file")
    group.add_argument("--ensemble", help="target ensemble file")
    p.add_argument("--tol", type=_tolerance)  # None: monotones.FEASIBILITY_TOL
    p.set_defaults(func=_cmd_check_feasible)

    p = sub.add_parser(
        "build-povm",
        help=(
            "construct the measurement that turns the ensemble's average "
            "state into a feasible target ensemble"
        ),
    )
    p.add_argument("--source", required=True, help="source state file")
    p.add_argument("--ensemble", required=True, help="target ensemble file")
    p.add_argument("--out", help="also write the JSON to this file")
    p.set_defaults(func=_cmd_build_povm)

    p = sub.add_parser(
        "concentrate", help="optimal concentration plan for a state"
    )
    p.add_argument("--state", required=True, help="state file (JSON), or - for stdin")
    p.add_argument(
        "--weights",
        default="ln",
        help="ln | log2 | indicator | path to a JSON weight list",
    )
    p.add_argument("--certify", action="store_true", help="attach the optimality certificate")
    p.add_argument(
        "--asymptotic",
        type=_positive_int,
        metavar="N",
        help="per-copy yield curve for 1..N identical copies",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--units", choices=("nats", "bits"), default="nats")
    p.set_defaults(func=_cmd_concentrate)

    p = sub.add_parser("lp-solve", help="solve a JSON linear program (debug)")
    p.add_argument("problem", help="LP file (JSON), or - for stdin")
    p.set_defaults(func=_cmd_lp_solve)

    p = sub.add_parser("simulate", help="Monte Carlo run of a measurement protocol")
    p.add_argument("--state", required=True, help="state file (JSON), or - for stdin")
    p.add_argument(
        "--protocol",
        default="optimal",
        help="'optimal' for the concentration measurement, or a POVM file",
    )
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)
    return parser


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    parser = build_parser()
    try:  # argparse exits by SystemExit
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except FailedCheck as exc:  # before ValueError, which some subclasses also are
        print(f"entmanip: failed check: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, ValueError) as exc:
        print(f"entmanip: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    code = run()
    # Move every live object out of the collector's sight: the collections
    # of interpreter teardown then have nothing to scan.  Flushes, file
    # closes and atexit hooks still run.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()

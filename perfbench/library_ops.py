"""In-process ops: one library request per op, with its output check.

Each kind has three functions.  ``prepare`` turns a generated instance into
program values (untimed).  ``run`` is the op: it calls the public library
functions, each inside a span named ``<module>.<function>``, and returns
what they returned.  ``check`` compares that result with the references
computed at set-up; it runs outside the timed region and returns False on
any mismatch.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from entmanip import (
    asymptotic_yield_curve,
    build_ensemble_povm,
    concentration_lp,
    constraint_residuals,
    ensemble_feasible,
    make_ensemble,
    make_spectrum,
    max_conversion_probability,
    merge_duplicates,
    nielsen_feasible,
    optimal_plan,
    schmidt_decompose,
    simplex_solve,
    simulate,
    single_shot_povm,
    standard_weights,
    verify_solution,
)


def _close(x, ref, rel=1e-12, abs_tol=1e-15):
    return math.isclose(float(x), float(ref), rel_tol=rel, abs_tol=abs_tol)


# ------------------------------------------------------------- lp_float


def prepare_lp_float(raw):
    return dict(raw, spectrum=make_spectrum(raw["coeffs"]))


def run_lp_float(inst, rec):
    with rec.span("concentrate.concentration_lp"):
        prob = concentration_lp(inst["spectrum"], inst["weights"])
    with rec.span("lp.simplex_solve.float"):
        sol = simplex_solve(prob)
    with rec.span("lp.verify_solution"):
        verified = verify_solution(prob, sol)
    return sol, verified


def check_lp_float(inst, result):
    sol, verified = result
    if not verified or sol.status != "optimal":
        return False
    x = np.array([float(v) for v in sol.values])
    ref = inst["ref_objective"]
    return bool(
        abs(float(sol.objective_value) - ref) <= 1e-9 * max(1.0, abs(ref))
        and abs(float(np.dot(inst["weights"], x)) - ref) <= 1e-9 * max(1.0, abs(ref))
        and np.all(x >= -1e-12)
        and np.all(inst["matrix"] @ x - inst["bounds"] <= 1e-9)
    )


# ------------------------------------------------------------- lp_exact


def run_lp_exact(inst, rec):
    with rec.span("schmidt.make_spectrum"):
        s = make_spectrum(inst["coeffs"])
    with rec.span("concentrate.concentration_lp"):
        prob = concentration_lp(s)
    with rec.span("lp.simplex_solve.exact"):
        sol = simplex_solve(prob, exact=True)
    with rec.span("concentrate.optimal_plan"):
        plan = optimal_plan(s)
    return prob, sol, plan


def check_lp_exact(inst, result):
    prob, sol, plan = result
    return (
        sol.status == "optimal"
        and tuple(sol.values) == tuple(plan.probabilities) == inst["ref_plan"]
        and all(r == 0 for r in constraint_residuals(prob, sol.values))
    )


# ----------------------------------------------- large spectra and curves


def prepare_curve(raw):
    return dict(raw, spectrum=make_spectrum(raw["coeffs"]))


def run_curve(inst, rec):
    with rec.span("concentrate.asymptotic_yield_curve"):
        curve = asymptotic_yield_curve(inst["spectrum"], inst["max_n"])
    rec.count("concentrate.tensor_distinct", inst["distinct"])
    return curve


@contextmanager
def counting_tensor_powers(rec):
    """Count the coefficients the program expands in ``tensor_power``.

    Wraps the module attribute from outside the package for the duration
    of a traced loop; an implementation without ``tensor_power`` counts 0.
    """
    from entmanip import concentrate

    original = getattr(concentrate, "tensor_power", None)
    if original is None:
        yield
        return

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        rec.count("concentrate.tensor_coeffs", result.rank)
        return result

    concentrate.tensor_power = counted
    try:
        yield
    finally:
        concentrate.tensor_power = original


def check_curve(inst, curve):
    ref = inst["ref_curve"]
    return len(curve) == len(ref) and all(
        n == rn and _close(y, ry, rel=1e-11) for (n, y), (rn, ry) in zip(curve, ref)
    )


def prepare_simulate(raw):
    return dict(raw, spectrum=make_spectrum(raw["coeffs"]))


def run_simulate(inst, rec):
    with rec.span("concentrate.single_shot_povm"):
        povm = single_shot_povm(inst["spectrum"])
    with rec.span("sim.simulate"):
        report = simulate(povm, inst["spectrum"], trials=inst["trials"], seed=inst["sim_seed"])
    rec.count("sim.trials", inst["trials"])
    return report


def check_simulate(inst, report):
    n = len(inst["ref_counts"])
    return (
        report.trials == inst["trials"]
        and report.labels == tuple(range(1, n + 1))
        and report.counts == inst["ref_counts"]
        and all(_close(p, r) for p, r in zip(report.expected_probs, inst["ref_probs"]))
        and _close(report.mean_yield, inst["ref_mean_yield"])
    )


def run_svd(inst, rec):
    with rec.span("schmidt.schmidt_decompose"):
        return schmidt_decompose(inst["matrix"])


def check_svd(inst, spectrum):
    ref = inst["ref_spectrum"]
    return spectrum.rank == len(ref) and bool(
        np.max(np.abs(np.array(spectrum.coeffs) - ref)) <= 1e-12
    )


def run_spectrum_plan(inst, rec):
    with rec.span("schmidt.make_spectrum"):
        s = make_spectrum(inst["coeffs"])
    with rec.span("concentrate.optimal_plan"):
        return optimal_plan(s)


def check_spectrum_plan(inst, plan):
    p = np.array(plan.probabilities)
    return (
        len(p) == len(inst["ref_p"])
        and bool(np.max(np.abs(p - inst["ref_p"])) <= 1e-12)
        and _close(plan.expected_entanglement, inst["ref_expected"], rel=1e-10)
    )


def prepare_monotones(raw):
    return dict(
        raw,
        source_spectrum=make_spectrum(raw["source"].tolist()),
        target_spectrum=make_spectrum(raw["target"].tolist()),
    )


def run_monotones(inst, rec):
    with rec.span("monotones.nielsen_feasible"):
        report = nielsen_feasible(inst["source_spectrum"], inst["target_spectrum"])
    with rec.span("monotones.max_conversion_probability"):
        pmax = max_conversion_probability(inst["source_spectrum"], inst["target_spectrum"])
    return report, pmax


def check_monotones(inst, result):
    report, pmax = result
    return (
        report.feasible == inst["ref_feasible"]
        and report.violated_indices == inst["ref_violated"]
        and abs(pmax - inst["ref_pmax"]) <= 1e-9
    )


def prepare_ensemble(raw):
    targets = [make_spectrum(t) for t in raw["targets"]]
    return dict(
        raw,
        source_spectrum=make_spectrum(raw["source"]),
        ensemble=make_ensemble([(p, targets[i]) for p, i in zip(raw["probs"], raw["order"])]),
    )


def run_ensemble(inst, rec):
    with rec.span("monotones.ensemble_feasible"):
        report = ensemble_feasible(inst["source_spectrum"], inst["ensemble"])
    with rec.span("transform.merge_duplicates"):
        merged, die = merge_duplicates(inst["ensemble"])
    with rec.span("transform.build_ensemble_povm"):
        povm = build_ensemble_povm(merged)
    return report, merged, die, povm


def check_ensemble(inst, result):
    report, merged, die, povm = result
    groups = [[j for j, _ in g.members] for g in die.groups]
    if not report.feasible or groups != inst["ref_groups"]:
        return False
    if len(povm.elements) != len(inst["ref_merged_probs"]):
        return False
    diag2 = np.array([el.diag for el in povm.elements]) ** 2
    avg = np.array(inst["ref_average"])
    outcome = diag2 @ avg
    return bool(
        np.max(np.abs(outcome - inst["ref_merged_probs"])) <= 1e-9
        and np.max(np.abs(diag2.sum(axis=0) - 1.0)) <= 1e-9
        and all(_close(p, r, rel=1e-12) for (p, _), r in zip(merged.entries, inst["ref_merged_probs"]))
    )


def _as_is(raw):
    return raw


# kind -> (prepare, run, check)
KINDS = {
    "lp_float": (prepare_lp_float, run_lp_float, check_lp_float),
    "lp_exact": (_as_is, run_lp_exact, check_lp_exact),
    "curve": (prepare_curve, run_curve, check_curve),
    "simulate": (prepare_simulate, run_simulate, check_simulate),
    "svd": (_as_is, run_svd, check_svd),
    "spectrum_plan": (_as_is, run_spectrum_plan, check_spectrum_plan),
    "monotones": (prepare_monotones, run_monotones, check_monotones),
    "ensemble": (prepare_ensemble, run_ensemble, check_ensemble),
}


def warm_up():
    """Call every in-process layer once on a tiny input.

    This finishes imports and first-call set-up before timing starts; its
    cost counts towards ``setup_s``.
    """
    s = make_spectrum([0.4, 0.3, 0.2, 0.1])
    prob = concentration_lp(s, standard_weights("log2", 4))
    verify_solution(prob, simplex_solve(prob))
    e = make_spectrum([Fraction(k) for k in (4, 3, 2, 1)])
    prob = concentration_lp(e)
    constraint_residuals(prob, simplex_solve(prob, exact=True).values)
    optimal_plan(e)
    asymptotic_yield_curve(s, 3)
    simulate(single_shot_povm(s), s, trials=1000, seed=0)
    schmidt_decompose(np.eye(4) / 2.0)
    optimal_plan(s)
    t = make_spectrum([0.7, 0.2, 0.1])
    nielsen_feasible(s, t)
    max_conversion_probability(s, t)
    ens = make_ensemble([(0.5, t), (0.5, t)])
    ensemble_feasible(s, ens)
    build_ensemble_povm(merge_duplicates(ens)[0])

"""Optimal local manipulation of bipartite pure-state entanglement.

Feasibility of local (LQCC) pure-state transformations via tail-sum
entanglement monotones, explicit measurement protocols realising feasible
transformations, and the provably optimal entanglement-concentration
distribution with an independent linear-programming certificate.

``import entmanip`` loads no submodule.  Each public name is looked up in
its submodule on first access (PEP 562), so a caller, and each CLI
subcommand, loads only the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SUBMODULE_OF = {
    "AmplitudeMatrix": "amplitudes",
    "SchmidtSpectrum": "schmidt",
    "schmidt_decompose": "amplitudes",
    "make_spectrum": "schmidt",
    "uniform_spectrum": "schmidt",
    "entropy": "schmidt",
    "FeasibilityReport": "monotones",
    "vidal_monotones": "monotones",
    "nielsen_feasible": "monotones",
    "ensemble_feasible": "monotones",
    "max_conversion_probability": "monotones",
    "TargetEnsemble": "transform",
    "make_ensemble": "transform",
    "PovmElement": "transform",
    "DiagonalPovm": "transform",
    "DieGroup": "transform",
    "DieTable": "transform",
    "average_target": "transform",
    "merge_duplicates": "transform",
    "build_ensemble_povm": "transform",
    "single_shot_povm": "transform",
    "ConcentrationPlan": "concentrate",
    "OptimalityCertificate": "concentrate",
    "optimal_plan": "concentrate",
    "standard_weights": "concentrate",
    "concentration_lp": "concentrate",
    "optimality_certificate": "concentrate",
    "asymptotic_yield_curve": "concentrate",
    "LpProblem": "lp",
    "LpSolution": "lp",
    "simplex_solve": "lp",
    "verify_solution": "verify",
    "constraint_residuals": "verify",
    "IncompletePovmError": "transform",
    "SimulationReport": "sim",
    "simulate": "sim",
}

__all__ = ["__version__", *_SUBMODULE_OF]


def __getattr__(name):
    try:
        module = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Optimal local manipulation of bipartite pure-state entanglement.

Feasibility of local (LQCC) pure-state transformations via tail-sum
entanglement monotones, explicit measurement protocols realising feasible
transformations, and the provably optimal entanglement-concentration
distribution with an independent linear-programming certificate.
"""

__version__ = "0.1.0"

from .concentrate import (
    ConcentrationPlan,
    OptimalityCertificate,
    asymptotic_yield_curve,
    concentration_lp,
    constraint_matrix_inverse,
    max_entangled_monotone,
    optimal_plan,
    optimality_certificate,
    single_shot_povm,
    standard_weights,
)
from .lp import (
    LpProblem,
    LpSolution,
    constraint_residuals,
    enumerate_vertices,
    simplex_solve,
    verify_solution,
)
from .monotones import (
    FeasibilityReport,
    MonotoneVector,
    ensemble_feasible,
    max_conversion_probability,
    nielsen_feasible,
    vidal_monotones,
)
from .schmidt import (
    AmplitudeMatrix,
    SchmidtSpectrum,
    entropy,
    make_spectrum,
    schmidt_decompose,
    uniform_spectrum,
)
from .sim import IncompletePovmError, SimulationReport, simulate, yield_statistics
from .transform import (
    DiagonalPovm,
    DieGroup,
    DieTable,
    PovmElement,
    TargetEnsemble,
    apply_povm_element,
    average_target,
    build_ensemble_povm,
    make_ensemble,
    merge_duplicates,
)

__all__ = [
    "__version__",
    "AmplitudeMatrix",
    "SchmidtSpectrum",
    "schmidt_decompose",
    "make_spectrum",
    "uniform_spectrum",
    "entropy",
    "MonotoneVector",
    "FeasibilityReport",
    "vidal_monotones",
    "nielsen_feasible",
    "ensemble_feasible",
    "max_conversion_probability",
    "TargetEnsemble",
    "make_ensemble",
    "PovmElement",
    "DiagonalPovm",
    "DieGroup",
    "DieTable",
    "average_target",
    "merge_duplicates",
    "build_ensemble_povm",
    "apply_povm_element",
    "ConcentrationPlan",
    "OptimalityCertificate",
    "max_entangled_monotone",
    "optimal_plan",
    "standard_weights",
    "concentration_lp",
    "constraint_matrix_inverse",
    "optimality_certificate",
    "single_shot_povm",
    "asymptotic_yield_curve",
    "LpProblem",
    "LpSolution",
    "simplex_solve",
    "verify_solution",
    "enumerate_vertices",
    "constraint_residuals",
    "IncompletePovmError",
    "SimulationReport",
    "simulate",
    "yield_statistics",
]

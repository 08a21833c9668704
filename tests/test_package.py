"""The package namespace: public names resolved on first use."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import entmanip
from entmanip import (
    AmplitudeMatrix,
    ConcentrationPlan,
    DiagonalPovm,
    DieGroup,
    DieTable,
    FeasibilityReport,
    LpProblem,
    LpSolution,
    OptimalityCertificate,
    PovmElement,
    SchmidtSpectrum,
    TargetEnsemble,
)

PUBLIC = [name for name in entmanip.__all__ if name != "__version__"]


def run_python(*args):
    package_root = os.path.dirname(os.path.dirname(entmanip.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_submodule_attribute(name):
    value = getattr(entmanip, name)
    assert value is getattr(sys.modules[value.__module__], name)
    assert value.__module__.startswith("entmanip.")


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from entmanip import *", namespace)
    assert set(entmanip.__all__) <= set(namespace)
    assert set(entmanip.__all__) <= set(dir(entmanip))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        entmanip.no_such_name
    with pytest.raises(ImportError):
        from entmanip import no_such_name  # noqa: F401


@pytest.mark.parametrize(
    "name",
    [
        "apply_povm_element",
        "constraint_matrix_inverse",
        "enumerate_vertices",
        "max_entangled_monotone",
        "yield_statistics",
    ],
)
def test_test_only_oracles_are_not_exported(name):
    assert name not in entmanip.__all__
    assert not hasattr(entmanip, name)


def test_import_loads_no_submodule():
    proc = run_python(
        "-c",
        "import sys, entmanip\n"
        "print(sorted(m for m in sys.modules if m.startswith('entmanip')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['entmanip']\n"


def test_version_from_the_module_entry_point():
    proc = run_python("-m", "entmanip", "--version")
    assert proc.returncode == 0
    assert proc.stdout == f"entmanip {entmanip.__version__}\n"


_PAIR = SchmidtSpectrum((0.75, 0.25))
_ONE = SchmidtSpectrum((1.0,))

# Each value type: constructor arguments, the defaults the constructor
# fills in, the arguments of a value that differs in one field, and the
# repr of the first value (recorded from the frozen dataclasses these
# types used to be).
VALUE_TYPES = [
    (
        AmplitudeMatrix, ([[1.0]],), {}, ([[-1.0]],),
        "AmplitudeMatrix(entries=array([[1.+0.j]]))",
    ),
    (
        SchmidtSpectrum, ((0.75, 0.25),), {}, ((0.5, 0.5),),
        "SchmidtSpectrum(coeffs=(0.75, 0.25))",
    ),
    (
        FeasibilityReport, ((2,), (0.0, -0.25)), {}, ((), (0.0, -0.25)),
        "FeasibilityReport(violated_indices=(2,), slack=(0.0, -0.25))",
    ),
    (
        ConcentrationPlan, ((0.5, 0.5), 0.5), {}, ((0.5, 0.5), 0.25),
        "ConcentrationPlan(probabilities=(0.5, 0.5), expected_entanglement=0.5)",
    ),
    (
        OptimalityCertificate, ((Fraction(1, 2), Fraction(0)),), {},
        ((Fraction(1, 2), Fraction(1)),),
        "OptimalityCertificate(z_values=(Fraction(1, 2), Fraction(0, 1)))",
    ),
    (
        LpProblem, ((1.0, 2.0), ((1.0, 1.0),), (1.0,)), {},
        ((1.0, 2.0), ((1.0, 1.0),), (2.0,)),
        "LpProblem(objective=(1.0, 2.0), constraint_matrix=((1.0, 1.0),), "
        "bounds=(1.0,))",
    ),
    (
        LpSolution, ((1.0, 0.0), 1.0, (0,), (0.0, 1.0, 1.0), "optimal"),
        {"pivots": 0, "degenerate_pivots": 0, "absorb_pivots": 0},
        ((1.0, 0.0), 1.0, (0,), (0.0, 1.0, 1.0), "optimal", 0, 0, 1),
        "LpSolution(values=(1.0, 0.0), objective_value=1.0, basis=(0,), "
        "reduced_costs=(0.0, 1.0, 1.0), status='optimal', pivots=0, "
        "degenerate_pivots=0, absorb_pivots=0)",
    ),
    (
        TargetEnsemble, (((0.5, _PAIR), (0.5, _ONE)),), {},
        (((0.25, _PAIR), (0.75, _ONE)),),
        "TargetEnsemble(entries=((0.5, SchmidtSpectrum(coeffs=(0.75, 0.25))), "
        "(0.5, SchmidtSpectrum(coeffs=(1.0,)))))",
    ),
    (
        PovmElement, (1, (1.0, 0.5)), {}, (2, (1.0, 0.5)),
        "PovmElement(label=1, diag=(1.0, 0.5))",
    ),
    (
        DiagonalPovm, ((PovmElement(1, (1.0,)),),), {}, ((PovmElement(2, (1.0,)),),),
        "DiagonalPovm(elements=(PovmElement(label=1, diag=(1.0,)),))",
    ),
    (
        DieGroup, (1, ((1, 0.25), (2, 0.75))), {}, (2, ((1, 0.25), (2, 0.75))),
        "DieGroup(representative=1, members=((1, 0.25), (2, 0.75)))",
    ),
    (
        DieTable, ((DieGroup(1, ((1, 1.0),)),),), {}, ((),),
        "DieTable(groups=(DieGroup(representative=1, members=((1, 1.0),)),))",
    ),
]


@pytest.mark.parametrize(
    "cls, args, defaults, other, golden",
    VALUE_TYPES,
    ids=[case[0].__name__ for case in VALUE_TYPES],
)
def test_value_type_contract(cls, args, defaults, other, golden):
    names = list(inspect.signature(cls).parameters)
    value = cls(*args)
    assert repr(value) == golden
    # positional, keyword and explicit-default construction agree
    keyword = cls(**dict(zip(names, args)))
    full = cls(*args, **defaults)
    assert value == keyword == full
    assert [getattr(full, name) for name in defaults] == list(defaults.values())
    assert value != cls(*other)
    if cls is AmplitudeMatrix:  # an array field makes it unhashable
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(keyword) == hash(full)
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == golden  # the refused writes changed nothing
    clones = pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)
    for clone in clones:
        assert type(clone) is cls and clone == value and repr(clone) == golden

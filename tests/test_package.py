"""The package namespace: public names resolved on first use."""

import os
import subprocess
import sys

import pytest

import entmanip

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

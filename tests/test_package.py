"""The package's export list and its dependency bounds."""

from pathlib import Path

import pytest

import mqsflow


def test_every_exported_name_resolves():
    missing = [name for name in mqsflow.__all__ if not hasattr(mqsflow, name)]
    assert not missing
    assert len(set(mqsflow.__all__)) == len(mqsflow.__all__)


def test_star_import_brings_the_export_list():
    namespace = {}
    exec("from mqsflow import *", namespace)
    assert set(mqsflow.__all__) <= set(namespace)
    assert namespace["solve"] is mqsflow.solve


def test_the_installed_scipy_is_in_the_bounded_range():
    """core._matvec calls SciPy's private sparse kernels, so pyproject.toml
    bounds scipy to the releases it was tested on; the installed one must
    be among them."""
    tomllib = pytest.importorskip("tomllib")
    specifiers = pytest.importorskip("packaging.specifiers")
    import scipy

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    (bound,) = [d[len("scipy"):] for d in deps if d.startswith("scipy")]
    assert "<" in bound
    assert scipy.__version__ in specifiers.SpecifierSet(bound)

"""The package's export list."""

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

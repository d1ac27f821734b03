"""The package namespace: each exported name loads from its home module on first use."""

import importlib

import pytest

import chainrec


def test_every_export_is_its_home_modules_object():
    for name, home in chainrec._EXPORTS.items():
        module = importlib.import_module(f"chainrec.{home}")
        assert getattr(chainrec, name) is getattr(module, name), name


def test_the_table_and_all_list_the_same_names():
    assert set(chainrec._EXPORTS) == set(chainrec.__all__) - {"__version__"}
    assert len(chainrec.__all__) == len(set(chainrec.__all__))


def test_dir_lists_every_export():
    assert set(chainrec.__all__) <= set(dir(chainrec))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chainrec.no_such_name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from chainrec import *", namespace)
    for name in chainrec.__all__:
        assert namespace[name] is getattr(chainrec, name), name

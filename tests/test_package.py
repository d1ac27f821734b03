"""The package namespace: each exported name loads from its home module on first use."""

import ast
import importlib
import re
from fractions import Fraction
from pathlib import Path

import pytest

import chainrec

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_the_readme_python_example_runs_and_gives_the_values_it_states():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), README.name, "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), README.name, "eval"), namespace)
        stated = lines[node.end_lineno - 1].partition("#")[2].strip()
        if re.fullmatch(r"\[.*\]|Fraction\(.*\)", stated):
            assert value == eval(stated, {"Fraction": Fraction}), stated
            checked.append(stated)
    assert {"[1, 2, 4]", "Fraction(1, 14)", "Fraction(17, 12)", "Fraction(2, 3)"} <= set(checked)

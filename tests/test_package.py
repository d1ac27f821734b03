"""The package namespace: each exported name loads from its home module on first use."""

import ast
import importlib
import re
from fractions import Fraction
from pathlib import Path

import pytest

import chainrec

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(chainrec.__file__).resolve().parent


def _names_reached_from(entry_modules):
    """Every name the entry modules use, directly or through the package's definitions.

    An ``ast`` walk over each module of the package: a top-level function
    or class is reached once its name, bare or as an attribute, appears in
    an entry module or in a definition already reached (a class with its
    methods).
    """
    def names(tree):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}

    definitions, todo = {}, set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(node)
        if path.stem in entry_modules:
            todo |= names(tree)
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in definitions.get(name, ()):
            todo |= names(node) - reached
    return reached


def test_every_export_is_run_by_a_command_or_a_criterion():
    # a helper that only the tests use belongs in tests/oracles.py
    reached = _names_reached_from({"cli", "verify"})
    assert sorted(set(chainrec._EXPORTS) - reached) == []


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

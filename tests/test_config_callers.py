"""Every config field has a caller outside the tests.

A field of a ``*Config`` or ``*Policy`` class in ``src/repro``, or of
any class a ``config.py`` module defines, is a dimension that tests and
the fuzzer have to cover. One that no program
code sets has a single value in use and belongs in a module constant
instead. This scan parses the program trees and collects every keyword
argument name and every string key of a dict literal; each field name
must appear among them.

Blind spot: the scan matches by name, not by class. A field whose name
another class also uses (``period_s``, ``window_s``), or that appears
as a dict key for some other purpose (a summary or a fuzz spec), counts
as set even when no caller sets that class's field.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The program trees whose code may set a config field.
CALLER_TREES = ("src", "bench", "benchmarks", "tools", "examples")


def _python_files(tree):
    for directory, _, names in os.walk(os.path.join(ROOT, tree)):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    yield path, ast.parse(handle.read(), filename=path)


def config_fields():
    """(class, field) for every annotated attribute of a config class."""
    fields = []
    for path, module in _python_files(os.path.join("src", "repro")):
        config_module = os.path.basename(path) == "config.py"
        for node in ast.walk(module):
            if (isinstance(node, ast.ClassDef)
                    and (config_module
                         or node.name.endswith(("Config", "Policy")))):
                fields.extend(
                    (node.name, statement.target.id)
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name))
    return fields


def names_set_by_callers():
    """Keyword-argument names and dict-literal string keys."""
    names = set()
    for tree in CALLER_TREES:
        for _, module in _python_files(tree):
            for node in ast.walk(module):
                if isinstance(node, ast.Call):
                    names.update(keyword.arg for keyword in node.keywords
                                 if keyword.arg is not None)
                elif isinstance(node, ast.Dict):
                    names.update(key.value for key in node.keys
                                 if isinstance(key, ast.Constant)
                                 and isinstance(key.value, str))
    return names


def test_the_scan_sees_the_config_classes():
    classes = {name for name, _ in config_fields()}
    assert {"ClusterConfig", "EcoFaaSConfig", "ReliabilityPolicy",
            "GuardConfig", "HAConfig", "TenantSpec"} <= classes


def test_every_config_field_is_set_outside_the_tests():
    used = names_set_by_callers()
    unset = [f"{name}.{field}" for name, field in config_fields()
             if field not in used]
    assert unset == [], (
        f"config fields no program code sets: {unset}; make each a"
        f" module constant where it is read")

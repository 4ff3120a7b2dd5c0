"""New timers outside the kernel take ``Environment.call_later``.

A callback appended to a fresh ``env.timeout(...)`` builds an event, a
callback list and usually a lambda, all to run one function once.
``Environment.call_later`` and ``call_at`` push the function itself onto
the heap. This scan parses every module of ``src/repro`` outside
``sim/`` and fails on the old idiom: ``t = <...>.timeout(...)`` followed
by ``t.callbacks.append(...)`` in the same function, or
``<...>.timeout(...).callbacks.append(...)``. Processes that ``yield
env.timeout(...)`` are not affected.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")


def _is_timeout_call(node) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "timeout")


def timeout_callbacks(tree) -> list:
    """Line numbers of every callback appended to a fresh timeout."""
    lines = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
            continue
        timers = {target.id
                  for node in ast.walk(scope)
                  if isinstance(node, ast.Assign)
                  and _is_timeout_call(node.value)
                  for target in node.targets
                  if isinstance(target, ast.Name)}
        for node in ast.walk(scope):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "callbacks"):
                continue
            owner = node.func.value.value
            if _is_timeout_call(owner) or (isinstance(owner, ast.Name)
                                           and owner.id in timers):
                lines.add(node.lineno)
    return sorted(lines)


def test_the_scan_flags_both_forms_and_passes_call_later():
    planted = ast.parse(
        "def a(env, f):\n"
        "    wake = env.timeout(1.0)\n"
        "    wake.callbacks.append(lambda ev: f())\n"
        "def b(self, f):\n"
        "    self.env.timeout(2.0).callbacks.append(f)\n"
        "def c(env, f):\n"
        "    env.call_later(1.0, f)\n"
        "    env.event().callbacks.append(f)\n")
    assert timeout_callbacks(planted) == [3, 5]


def test_no_timer_outside_the_kernel_appends_to_a_timeout():
    found = []
    for directory, subdirs, names in os.walk(PACKAGE):
        subdirs[:] = [name for name in subdirs
                      if not (directory == PACKAGE and name == "sim")]
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            found.extend(f"{os.path.relpath(path, ROOT)}:{line}"
                         for line in timeout_callbacks(tree))
    assert found == [], (
        f"callbacks appended to env.timeout(...): {found}; schedule them"
        f" with env.call_later(delay, fn, arg) or env.call_at(when, fn,"
        f" arg)")

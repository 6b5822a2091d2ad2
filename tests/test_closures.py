"""No nested function in ``fhc`` refers to itself or to a sibling that refers back.

Such a function sits in a reference cycle through its closure cells, so the
function and all it reaches (a call's tables, say) outlive the call until the
cyclic collector runs, whether the call returned or was refused.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fhc

MODULES = sorted(Path(fhc.__file__).parent.glob("*.py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_defs(func: ast.AST) -> list[ast.AST]:
    # the functions defined in func's body, not those nested in them
    out, stack = [], list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTIONS):
            out.append(node)
        elif not isinstance(node, (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return out


def cyclic_closures(source: str) -> list[str]:
    """``outer.inner`` for each nested function that reaches itself through
    the names it reads (its own nested functions' included) among its siblings."""
    found = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, _FUNCTIONS):
            continue
        defs = {d.name: d for d in _own_defs(outer)}
        reads = {name: {n.id for n in ast.walk(d) if isinstance(n, ast.Name)} & defs.keys()
                 for name, d in defs.items()}
        for name in defs:
            seen, todo = set(), list(reads[name])
            while todo:
                other = todo.pop()
                if other not in seen:
                    seen.add(other)
                    todo.extend(reads[other])
            if name in seen:
                found.append(f"{outer.name}.{name}")
    return sorted(found)


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_closure_refers_to_itself(module):
    assert cyclic_closures(module.read_text()) == []


@pytest.mark.parametrize("source, found", [
    ("def f(t):\n    def g(u):\n        return [g(c) for c in u]\n    return g(t)\n",
     ["f.g"]),
    ("def f():\n    def a():\n        return b()\n    def b():\n        return a\n",
     ["f.a", "f.b"]),
    ("def f():\n    def a():\n        def inner():\n            return a\n"
     "        return inner\n    return a\n", ["f.a"]),
    ("def f():\n    @cache\n    def apart(t):\n        return t\n"
     "    def minimal(t):\n        return apart(t)\n    return minimal\n", []),
], ids=["self", "siblings", "through-a-nested-function", "one-way"])
def test_scan_finds_cycles_and_allows_one_way_calls(source, found):
    assert cyclic_closures(source) == found

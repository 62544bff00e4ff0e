"""Exactness lint: the library's fixed points, exact arithmetic and
deterministic output, read off the AST of every ``gwinv`` module.

No float or complex literal, no true division, no ``float``/``complex``/
``round`` call, no ``math`` function but ``comb``, randomness only through
seeded ``Random`` instances, and no clock or environment read.  Widening any
of these lists is a deliberate change to the library's contract."""

import ast
import gc
from pathlib import Path

import pytest

import gwinv

SRC = Path(gwinv.__file__).parent
MATH_ALLOWED = {"comb"}
RANDOM_ALLOWED = {"Random"}
BANNED_CALLS = {"float", "complex", "round"}
BANNED_MODULES = {"time", "datetime"}


def violations(tree: ast.AST) -> list[str]:
    """One ``line: reason`` entry for each breach of the exactness rules.
    The walk stops at names and literals and skips the Load/Store markers,
    about twice as fast as ``ast.walk``: the lint runs in tier-1 on a 0.1 s
    budget."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            if node.id in BANNED_MODULES:
                out.append(f"{node.lineno}: use of {node.id}")
            continue
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (float, complex)):
                out.append(f"{node.lineno}: inexact literal {node.value!r}")
            continue
        reason = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            reason = "true division"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in BANNED_CALLS:
            reason = f"call to {node.func.id}"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module, attr = node.value.id, node.attr
            if module == "math" and attr not in MATH_ALLOWED:
                reason = f"math.{attr}"
            elif module == "random" and attr not in RANDOM_ALLOWED:
                reason = f"random.{attr}"
            elif module == "os" and attr == "environ":
                reason = "os.environ"
        elif isinstance(node, ast.Import):
            banned = [alias.name for alias in node.names if alias.name.split(".")[0] in BANNED_MODULES]
            if banned:
                reason = f"import {', '.join(banned)}"
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            allowed = {"math": MATH_ALLOWED, "random": RANDOM_ALLOWED}.get(node.module)
            if node.module in BANNED_MODULES or (node.module == "os" and "environ" in names):
                reason = f"from {node.module} import {', '.join(sorted(names))}"
            elif allowed is not None and not names <= allowed:
                reason = f"from {node.module} import {', '.join(sorted(names - allowed))}"
        if reason:
            out.append(f"{node.lineno}: {reason}")
        for name in getattr(node, "_fields", ()):  # lists also hold names and None
            value = getattr(node, name, None)
            if type(value) is list:
                stack.extend(value)
            elif isinstance(value, ast.AST) and not isinstance(value, ast.expr_context):
                stack.append(value)
    return out


def test_library_is_exact():
    # parsing allocates tens of thousands of nodes; collecting the test
    # session's heap meanwhile about doubles the lint's time
    gc.disable()
    try:
        found = {
            path.name: hits
            for path in sorted(SRC.glob("*.py"))
            if (hits := violations(ast.parse(path.read_text(), filename=str(path))))
        }
    finally:
        gc.enable()
    assert found == {}


@pytest.mark.parametrize(
    "snippet",
    [
        "x = 0.5",
        "x = 2j",
        "x = a / b",
        "x /= 2",
        "x = float(a)",
        "x = complex(a)",
        "x = round(a)",
        "x = math.log2(a)",
        "from math import sqrt",
        "x = random.randint(0, 9)",
        "from random import shuffle",
        "import time",
        "from datetime import date",
        "x = time.perf_counter()",
        "x = os.environ['SEED']",
        "from os import environ",
    ],
)
def test_lint_flags(snippet):
    assert violations(ast.parse(snippet))


@pytest.mark.parametrize(
    "snippet",
    [
        "x = math.comb(5, 2)",
        "from random import Random",
        "rng = Random(7)",
        "x = a // b",
        "x = os.sep",
        "global x",
        "x = {**a, 1: 2}",
    ],
)
def test_lint_allows(snippet):
    assert violations(ast.parse(snippet)) == []

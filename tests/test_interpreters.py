"""The match table of ``scripts/interpreters.py``, on made-up digests (the
script itself runs each interpreter over every digest, outside tier-1)."""

import importlib.util
from pathlib import Path

path = Path(__file__).resolve().parent.parent / "scripts" / "interpreters.py"
spec = importlib.util.spec_from_file_location("interpreters", path)
interpreters = importlib.util.module_from_spec(spec)
spec.loader.exec_module(interpreters)

A, B = "a" * 64, "b" * 64


def test_all_equal():
    lines, same = interpreters.table([("3.10", {"x": A, "y": B}), ("3.11", {"x": A, "y": B})])
    assert same
    assert lines == ["digest  3.10          3.11", f"x       {A[:12]}  =", f"y       {B[:12]}  ="]


def test_a_difference_or_a_missing_digest_fails():
    lines, same = interpreters.table([("3.10", {"x": A, "y": B}), ("3.13", {"x": B})])
    assert not same
    assert lines[1:] == [f"x       {A[:12]}  {B[:12]}", f"y       {B[:12]}  -"]
    assert not interpreters.table([("3.10", {}), ("3.11", {"x": A})])[1]
    assert not interpreters.table([("3.10", {})])[1]


def test_no_interpreter_is_a_usage_error(capsys):
    assert interpreters.main([]) == 2
    assert capsys.readouterr().err.startswith("usage: ")

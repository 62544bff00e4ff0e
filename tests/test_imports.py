"""What each entry point loads: the package resolves its public names on
first access, and a `series` or `eval` process never loads the suites."""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gwinv

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"

# the modules that only the identity suites use
SUITE_MODULES = ["gwinv.factorized", "gwinv.sampling", "gwinv.verify"]

LOADS = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("gwinv."))

import gwinv
out = {"import": loaded()}
from gwinv.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    out["codes"] = [
        main(["series", "--n", "2", "--prec", "6"]),
        main(["eval", "--inv", "g[1,2]", "--form", "pf(t1)+pf(t2)", "--field", "F3((t1))((t2))"]),
    ]
    out["series, eval"] = loaded()
    out["codes"].append(main(["verify", "--suite", "series", "--prec", "4"]))
out["verify"] = loaded()
print(json.dumps(out))
"""


def test_each_command_loads_only_its_modules():
    proc = subprocess.run(
        [sys.executable, "-c", LOADS],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["import"] == []
    assert out["codes"] == [0, 0, 0]
    assert not set(SUITE_MODULES) & set(out["series, eval"])
    assert set(SUITE_MODULES) <= set(out["verify"])


CAPPED = """
import contextlib, io, json, sys
from gwinv.cli import main
with contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["verify", "--suite", "simil", flag, "10" * 30]) for flag in ("--prec", "--n-max", "--d-max")]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("gwinv."))]))
"""


def test_verify_above_a_cap_loads_no_suite():
    # --prec, --n-max and --d-max are checked before the suites are imported
    proc = subprocess.run(
        [sys.executable, "-c", CAPPED],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    codes, loaded = json.loads(proc.stdout)
    assert codes == [2, 2, 2]
    assert not set(SUITE_MODULES) & set(loaded)


# ``sorted(gwinv.__all__)`` when every submodule was imported eagerly
PUBLIC_NAMES = [
    "CohClass", "FactorizedForm", "FieldDescriptor", "GwElement", "H_TARGET",
    "InvariantTarget", "RunConfig", "SUITES", "SquareClass", "SymbolicInvariant",
    "W_TARGET", "WittClass", "alt_factorizations", "build_h", "build_x", "catalan",
    "coh_residue", "cohomology", "delta_t_eval", "divided", "e_n", "enumerate_sc",
    "eval_f", "eval_fixed_dim", "eval_g", "eval_pi", "eval_sw", "evaluate",
    "even_odd_split", "ext_binom", "factorized", "fields", "from_g", "g_coeffs",
    "gpfister", "hat_lift", "invariants", "is_in_In", "lambda_power",
    "lemma_factor_check", "make_factorized", "minus_one", "multinomial_C", "omega_t",
    "parse_field", "parse_form", "parse_invariant", "parse_sc", "pfister", "phi",
    "product", "psi_tilde", "represented_by_binary", "restrict", "run_suite",
    "sampling", "sc_gen", "sc_one", "second_residue", "series", "symbol", "verify",
    "witt", "witt_canonical",
]
SUBMODULES = [
    "cohomology", "divided", "factorized", "fields", "invariants", "sampling",
    "series", "verify", "witt",
]


class TestNamespace:
    def test_public_names_are_pinned(self):
        assert sorted(gwinv.__all__) == PUBLIC_NAMES
        assert set(SUBMODULES) <= set(PUBLIC_NAMES)

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodule_names_are_the_modules(self, name):
        assert getattr(gwinv, name) is importlib.import_module(f"gwinv.{name}")

    @pytest.mark.parametrize("name", sorted(set(PUBLIC_NAMES) - set(SUBMODULES)))
    def test_names_are_their_submodule_attributes(self, name):
        obj = getattr(gwinv, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert getattr(sys.modules[obj.__module__], name) is obj
        else:  # a module-level constant
            assert any(getattr(getattr(gwinv, m), name, None) is obj for m in SUBMODULES)

    def test_dir_covers_all(self):
        assert set(gwinv.__all__) <= set(dir(gwinv))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gwinv.no_such_name
        with pytest.raises(ImportError):
            from gwinv import no_such_name  # noqa: F401

    def test_star_import(self):
        namespace = {}
        exec("from gwinv import *", namespace)
        assert set(gwinv.__all__) <= set(namespace)
        assert namespace["parse_field"] is gwinv.fields.parse_field


# a dotted name `module.attr` or `module.attr.attr` (optionally after
# `gwinv.`) inside a README code span, for any gwinv submodule; a file
# name such as `witt.py` is not one
README_REF = re.compile(rf"(?<![\w/.])(?:gwinv\.)?({'|'.join([*SUBMODULES, 'cli'])})((?:\.[A-Za-z_]\w*){{1,2}})")


def test_readme_module_references_resolve():
    prose = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    refs = {m.groups() for span in spans for m in README_REF.finditer(span) if m[2] != ".py"}
    assert refs
    missing = []
    for module, attrs in sorted(refs):
        obj = importlib.import_module(f"gwinv.{module}")
        for attr in attrs[1:].split("."):
            obj = getattr(obj, attr, missing)
        if obj is missing:
            missing.append(module + attrs)
    assert not missing, f"README names attributes that do not exist: {missing}"

"""Inputs that the pinned digests of ``scripts/equivalence.py`` read.

Plain Python with no test framework, so that the script runs on a bare
interpreter; the test modules import the same values from here.
"""

from gwinv.verify import RunConfig

# one moderate run of each identity suite (``tests/test_verify.py``, the
# ``moderate`` digest)
MODERATE = {
    "series": RunConfig(prec=24),
    "lambda": RunConfig(samples=60, prec=24),
    "pi": RunConfig(samples=40, n_max=3, d_max=5),
    "f-axioms": RunConfig(samples=40, n_max=3, d_max=5),
    "g-bounds": RunConfig(samples=40, n_max=3),
    "classify": RunConfig(samples=40, n_max=3, d_max=6),
    "product": RunConfig(samples=40, n_max=3, d_max=5),
    "restrict": RunConfig(samples=40, n_max=2, d_max=5),
    "simil": RunConfig(samples=40, n_max=3, d_max=5),
    "ram": RunConfig(samples=40, n_max=3, d_max=4),
    "fixed-dim": RunConfig(samples=30, d_max=8),
    "coh-ops": RunConfig(samples=40, n_max=2, d_max=5),
    "delta1": RunConfig(samples=50, n_max=3, d_max=4),
}

VALID_EVAL = ("eval", "--inv", "f[1,1]", "--form", "pf(t1)", "--field", "R((t1))")
# argument lists that end in argparse's usage error or help text
# (``tests/test_cli.py``, the ``cli-errors`` digest)
USAGE_ERRORS = [
    (),
    ("-h",),
    ("bogus",),
    ("eval",),
    ("eval", "-h"),
    (*VALID_EVAL, "--bogus"),
    ("series", "--n", "1", "extra"),
    ("series", "--n", "1", "--prec", "x"),
    (*VALID_EVAL, "--mode", "X"),
]

# phrases of the field, square-class, form and invariant grammars, a few of
# them well-formed but invalid: the phrases and signed sums of them, with a
# few characters inserted, reach the deeper parse paths that noise rarely
# does (``tests/test_grammars.py``, the ``cli-errors`` digest)
PHRASES = [
    "F3((t1))", "F15", "C((t1))((t1))", "R((t2))",
    "-u*t1", "t2", "1",
    "H", "2*H", "pf(t1)", "pf(-1,u*t2)", "diag(1,-t2)",
    "f[1,2]", "g[1,3]", "3*eps^2*f[1,1]", "f[2,1]*g[2,2]",
]

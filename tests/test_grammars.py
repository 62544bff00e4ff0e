"""The literal grammars are total: any text either parses or raises the
parsing module's syntax error, never another exception.  The parsers also
agree with the per-term parsers they replaced (``literal_oracle``) on
every text: the same result, or the same error."""

import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import literal_oracle
from gwinv import cli
from gwinv.fields import FieldSyntaxError, parse_field, parse_sc, split_signed_sum
from gwinv.invariants import InvariantSyntaxError, parse_invariant
from gwinv.witt import parse_form

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

FIELD = parse_field("F3((t1))((t2))")

# the alphabet of the field, square-class, form and invariant grammars
CHARS = "CRFHfgu0123579()[],*^+-tps "
# phrases of those grammars, a few of them well-formed but invalid: the
# phrases and signed sums of them, with a few characters inserted, reach the
# deeper parse paths that noise rarely does
PHRASES = [
    "F3((t1))", "F15", "C((t1))((t1))", "R((t2))",
    "-u*t1", "t2", "1",
    "H", "2*H", "pf(t1)", "pf(-1,u*t2)", "diag(1,-t2)",
    "f[1,2]", "g[1,3]", "3*eps^2*f[1,1]", "f[2,1]*g[2,2]",
]


def _insert(text, edits):
    for pos, ch in edits:
        pos %= len(text) + 1
        text = text[:pos] + ch + text[pos:]
    return text


NOISE = st.text(st.sampled_from(CHARS), max_size=20)
SUMS = st.lists(
    st.tuples(st.sampled_from(["", "+", "-"]), st.sampled_from(PHRASES)),
    min_size=1,
    max_size=4,
).map(lambda terms: "".join(op + phrase for op, phrase in terms))
EDITS = st.lists(st.tuples(st.integers(0, 60), st.sampled_from(CHARS)), max_size=2)
EDITED = st.builds(_insert, st.sampled_from(PHRASES) | SUMS, EDITS)

PARSERS = [
    ("field", parse_field, FieldSyntaxError),
    ("square class", lambda s: parse_sc(s, FIELD), FieldSyntaxError),
    ("form", lambda s: parse_form(s, FIELD), FieldSyntaxError),
    ("invariant W", lambda s: parse_invariant(s, "W"), InvariantSyntaxError),
    ("invariant H", lambda s: parse_invariant(s, "H"), InvariantSyntaxError),
]


@given(NOISE | EDITED)
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
def test_parse_or_syntax_error(text):
    for name, parse, error in PARSERS:
        try:
            parse(text)
        except error:
            pass
        except Exception as exc:
            raise AssertionError(f"{name} grammar raised {exc!r} on {text!r}") from exc


# -1 is u over F3, trivial over C and F5, and the sign over R
ORACLE_FIELDS = [FIELD] + [parse_field(t) for t in ("C((t1))", "R((t1))((t2))", "F5((t1))")]
EVAL_REQUESTS = workloads.eval_ops(0)


def _outcome(parse, *args):
    """What ``parse`` returns, as plain data, or the type and message of
    what it raises."""
    try:
        value = parse(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if hasattr(value, "terms"):
        return value.field, value.terms
    if hasattr(value, "coeffs"):
        return value.n, value.mode, value.coeffs
    return value


def _assert_same_parse(text, fields):
    pairs = [
        (lambda t: list(split_signed_sum(t, "sum")), lambda t: list(literal_oracle.split_signed_sum(t, "sum"))),
        (lambda t: parse_invariant(t, "W"), lambda t: literal_oracle.parse_invariant(t, "W")),
        (lambda t: parse_invariant(t, "H"), lambda t: literal_oracle.parse_invariant(t, "H")),
    ]
    pairs += [
        (lambda t, F=F: parse_form(t, F), lambda t, F=F: literal_oracle.parse_form(t, F)) for F in fields
    ]
    for new, old in pairs:
        assert _outcome(new, text) == _outcome(old, text), text


@given(NOISE | EDITED | st.sampled_from([r.form_text for r in EVAL_REQUESTS] + [r.inv_text for r in EVAL_REQUESTS]))
@example("f[1,2] - 3*eps*g[1,3] + 2")  # a g-term rebased into the f-basis
@example("-g[2,1] + eps^2*g[2,3]*g[2,1] - 1")  # the g-basis, a product and a constant
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
def test_parsers_match_literal_oracle(text):
    _assert_same_parse(text, ORACLE_FIELDS)


def test_eval_workload_literals_match_literal_oracle():
    for field_text, form_text in sorted({(r.field_text, r.form_text) for r in EVAL_REQUESTS}):
        _assert_same_parse(form_text, [parse_field(field_text)])
    for inv_text in sorted({r.inv_text for r in EVAL_REQUESTS}):
        _assert_same_parse(inv_text, [])


def test_eval_requests_are_read_directly():
    """Each benchmark ``eval`` request is read by ``cli._read_flags``, not
    by argparse, to the namespace argparse would make of it."""
    sub = cli.build_parser()[1]["eval"][0]
    for req in EVAL_REQUESTS:
        got = cli._read_flags("eval", req.argv[1:])
        assert got is not None and (got, []) == sub.parse_known_args(req.argv[1:]), req.argv

"""The literal grammars are total: any text either parses or raises the
parsing module's syntax error, never another exception."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gwinv.fields import FieldSyntaxError, parse_field, parse_sc
from gwinv.invariants import InvariantSyntaxError, parse_invariant
from gwinv.witt import parse_form

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

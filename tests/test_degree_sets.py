"""The degree-set route of the f-family against the full-series loop that
``eval_f_all`` ran before it took a set of degrees: build the divided-power
series to the top degree, then read, canonicalize and (in mode H) take e_n
of every coefficient.  The oracle below is kept here only as the
reference; the degree-set route must give the same value at every degree
it is asked for, and raise the same membership error.  Likewise the
one-canonicalization sum ``eval_f_sum`` behind ``evaluate`` and ``eval_g``
is checked against the per-degree route it replaced: every f-value from
``eval_f_all``, scaled (``int_mul`` in mode W) and added."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwinv import divided
from gwinv.cohomology import e_n, minus_one_power
from gwinv.divided import H_TARGET, W_TARGET, eval_f, eval_f_all, eval_pi, eval_pi_coeffs
from gwinv.fields import SquareClass, parse_field
from gwinv.invariants import (
    SymbolicInvariant,
    coeff_ops,
    eval_g,
    evaluate,
    from_g,
    g_transition_terms,
    parse_invariant,
)
from gwinv.sampling import standard_fields
from gwinv.witt import (
    GwElement,
    MembershipError,
    WittClass,
    hat_lift,
    is_in_In,
    lambda_power,
    lambda_series,
    parse_form,
    pfister,
    witt_canonical,
    witt_one,
    witt_zero,
)

FIELDS = standard_fields(4)
TARGETS = {"W": W_TARGET, "H": H_TARGET}


def oracle_eval_f_all(n, q, target, d_max):
    if not is_in_In(q, n):
        raise MembershipError(f"class is not in I^{n}")
    series = eval_pi_coeffs(n, range(d_max + 1), hat_lift(q)) if d_max else None
    out = []
    for d in range(d_max + 1):
        w = witt_one(q.field) if d == 0 else witt_canonical(series[d])
        out.append(w if target.mode == "W" else e_n(w, n * d))
    return out


def oracle_or_membership(n, q, target, d_max):
    try:
        return oracle_eval_f_all(n, q, target, d_max)
    except MembershipError:
        return MembershipError


@st.composite
def cases(draw):
    """(n, q): q a signed sum of up to three n-fold Pfister forms over a
    field of ``standard_fields(4)``, times 2^j over R so that signatures
    reach 3 * 2^10; or, a quarter of the time, a class drawn leaf by leaf,
    which is mostly outside I^n."""
    n = draw(st.integers(1, 3))
    field = draw(st.sampled_from(FIELDS))
    if draw(st.integers(0, 3)) == 0:
        code = st.integers(0, 1 if field.kind == "C" else 3)
        if field.kind == "R":
            code = st.builds(lambda s, j: s << j, st.integers(-3, 3), st.integers(0, 10))
        leaves = draw(st.lists(code, min_size=1 << field.depth, max_size=1 << field.depth))
        return n, WittClass(field, tuple(leaves))
    masks = st.integers(0, (1 << field.num_gens) - 1)
    q = witt_zero(field)
    for negate in draw(st.lists(st.booleans(), min_size=1, max_size=3)):
        slots = [SquareClass(field, m) for m in draw(st.lists(masks, min_size=n, max_size=n))]
        term = witt_canonical(pfister(slots))
        q = q - term if negate else q + term
    if field.kind == "R":
        q = q.int_mul(1 << draw(st.integers(0, 10 - n)))
    return n, q


D_MAX = 6


@st.composite
def degree_sets(draw):
    """{}, {0}, the top degree alone, a set drawn from 0..D (mostly
    non-contiguous), or all of 0..D."""
    top = draw(st.integers(1, D_MAX))
    kind = draw(st.sampled_from(["top", "subset", "all", "empty", "zero"]))
    if kind == "empty":
        return []
    if kind == "zero":
        return [0]
    if kind == "top":
        return [top]
    if kind == "subset":
        return sorted(draw(st.sets(st.integers(0, D_MAX), min_size=2)))
    return list(range(top + 1))


@given(cases(), degree_sets(), st.sampled_from(sorted(TARGETS)))
@example((1, witt_canonical(parse_form("pf(t1) - pf(-t2)", parse_field("R((t1))((t2))")))), [1, 4], "H")
@example((2, witt_canonical(parse_form("pf(t1)", parse_field("R((t1))")))), [], "W")
@example((2, witt_canonical(parse_form("pf(t1)", parse_field("R((t1))")))), [0], "H")
@settings(max_examples=250, derandomize=True, database=None, deadline=None)
def test_degree_sets_match_full_series(case, degrees, mode):
    n, q = case
    target = TARGETS[mode]
    want = oracle_or_membership(n, q, target, max(degrees, default=0))
    if want is MembershipError:
        with pytest.raises(MembershipError):
            eval_f_all(n, q, target, degrees)
        return
    got = eval_f_all(n, q, target, degrees)
    assert list(got) == degrees
    assert all(got[d] == want[d] for d in degrees)
    d = max(degrees, default=0)
    assert eval_f(n, d, q, target) == want[d]
    F, ops = q.field, coeff_ops(target.mode)
    g = target.zero(F)
    for c, j, k in g_transition_terms(n, d):
        g = g + target.times(target.times(want[k], 1 << j), ops.from_int(c))
    assert eval_g(n, d, q, target) == g


@st.composite
def forms(draw):
    field = draw(st.sampled_from(FIELDS))
    masks = st.integers(0, (1 << field.num_gens) - 1)
    counts = st.integers(-4, 4) | st.builds(lambda s, j: s << j, st.integers(-3, 3), st.integers(0, 10))
    return GwElement(field, draw(st.dictionaries(masks, counts, max_size=3)))


@given(forms(), st.integers(0, 8), st.integers(1, 3))
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
def test_single_degree_matches_full_route(x, d, n):
    assert lambda_power(d, x).terms == lambda_series(x, range(d + 1))[d].terms
    assert eval_pi(n, d, x).terms == eval_pi_coeffs(n, range(d + 1), x)[d].terms


def test_kernel_computes_only_the_read_degrees(monkeypatch):
    asked = []

    def spy(x, degrees, row):
        asked.append(list(degrees))
        return kernel(x, degrees, row)

    kernel = divided.character_series
    monkeypatch.setattr(divided, "character_series", spy)
    F = parse_field("R((t1))((t2))")
    q = witt_canonical(parse_form("pf(t1,t2) - pf(-1,t2)", F))
    for mode in TARGETS:
        asked.clear()
        evaluate(parse_invariant("3*f[2,5] + f[2,2] - f[2,0]", mode), q)
        evaluate(parse_invariant("f[2,0]", mode), q)
        evaluate(parse_invariant("f[2,1] - f[2,1]", mode), q)
        assert [sorted(a) for a in asked] == [[2, 5]]


def test_dimension_zero_evaluation_never_builds_h(monkeypatch):
    # every evaluation reads a dimension-0 lift, whose binomial rows need
    # no power of h_n
    built = []

    def spy(n, precision):
        built.append((n, precision))
        return build(n, precision)

    build = divided.build_h
    monkeypatch.setattr(divided, "build_h", spy)
    F = parse_field("F3((t1))((t2))")
    q = witt_canonical(parse_form("pf(t1,t2) - pf(u,t2)", F))
    for mode in TARGETS:
        for text in ("f[2,40]", "3*g[2,9] + f[2,1]", "f[2,3]*g[2,2]"):
            evaluate(parse_invariant(text, mode), q)
    assert built == []
    # the spy is live: a form of nonzero dimension builds h_n once a call
    divided.eval_pi_coeffs(2, (1, 9), parse_form("diag(t1)", F))
    assert built == [(2, 9)]


@pytest.mark.parametrize("inv", ["f[2,1]-f[2,1]", "f[2,0]", "3*g[2,0]"])
@pytest.mark.parametrize("mode", sorted(TARGETS))
def test_membership_checked_when_no_degree_is_read(inv, mode):
    q = witt_canonical(parse_form("pf(t1)", parse_field("R((t1))")))
    with pytest.raises(MembershipError):
        evaluate(parse_invariant(inv, mode), q)
    with pytest.raises(MembershipError):
        eval_f_all(2, q, TARGETS[mode], [])


def oracle_sum(n, q, target, coeffs):
    fvals = eval_f_all(n, q, target, coeffs)
    out = target.zero(q.field)
    for d, c in coeffs.items():
        out = out + target.times(fvals[d], c)
    return out


def oracle_evaluate(alpha, q):
    return oracle_sum(alpha.n, q, TARGETS[alpha.mode], alpha.coeffs)


def build(n, mode, basis, coeffs):
    """The invariant with ``coeffs`` in the f- or g-basis."""
    return from_g(n, mode, coeffs) if basis == "g" else SymbolicInvariant(n, mode, coeffs)


def oracle_eval_g(n, d, q, target):
    terms = g_transition_terms(n, d)
    fvals = eval_f_all(n, q, target, [k for _, _, k in terms])
    out = target.zero(q.field)
    for c, j, k in terms:
        if target.mode == "W":
            out = out + fvals[k].int_mul(c << j)
        elif c % 2:
            out = out + minus_one_power(q.field, j) * fvals[k]
    return out


def same_or_membership(new, old, *args):
    try:
        want = old(*args)
    except MembershipError:
        with pytest.raises(MembershipError):
            new(*args)
        return
    assert new(*args) == want


# small, negative and large integer coefficients (W); any F2[eps] one (H)
W_COEFFS = st.integers(-3, 3) | st.builds(lambda s, j: s << j, st.integers(-3, 3), st.integers(0, 64))
H_COEFFS = st.integers(0, 15)


@given(cases(), st.sampled_from(sorted(TARGETS)), st.data())
@example((2, witt_canonical(parse_form("pf(t1)", parse_field("R((t1))")))), "W", None)
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
def test_fused_sum_matches_per_degree_route(case, mode, data):
    """``evaluate`` on an f- or g-basis invariant whose support often holds
    degree 0, and ``eval_g`` at every degree up to D, against the per-degree
    route; a class outside I^n raises the same ``MembershipError``."""
    n, q = case
    target = TARGETS[mode]
    if data is None:  # the pinned example: a constant plus f^1 on a class outside I^2
        alpha = SymbolicInvariant(n, mode, {0: -5, 1: 3 << 40})
    else:
        coeffs = data.draw(st.dictionaries(st.integers(0, D_MAX), W_COEFFS if mode == "W" else H_COEFFS, max_size=4))
        alpha = build(n, mode, data.draw(st.sampled_from("fg")), coeffs)
    same_or_membership(evaluate, oracle_evaluate, alpha, q)
    for d in range(D_MAX + 1):
        same_or_membership(eval_g, oracle_eval_g, n, d, q, target)


@pytest.mark.parametrize("field", standard_fields(3), ids=str)
@pytest.mark.parametrize("mode", sorted(TARGETS))
def test_fused_sum_over_every_base_and_depth(field, mode):
    """Every base at every depth 0..3: a signed Pfister sum in I^1 and I^2,
    and the odd class <1> outside I^1, under constants, large and negative
    coefficients and both bases."""
    top = (1 << field.num_gens) - 1
    slots = [SquareClass(field, top), SquareClass(field, top >> 1)]
    inside = witt_canonical(pfister(slots[:1])) - witt_canonical(pfister(slots[1:]))
    classes = [(1, inside), (2, witt_canonical(pfister(slots))), (1, witt_one(field))]
    one, big = (1, -3 << 50) if mode == "W" else (1, 0b1011)
    for n, q in classes:
        for basis in "fg":
            alpha = build(n, mode, basis, {0: big, 1: one, 3: big})
            same_or_membership(evaluate, oracle_evaluate, alpha, q)
        for d in range(5):
            same_or_membership(eval_g, oracle_eval_g, n, d, q, TARGETS[mode])

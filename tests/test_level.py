"""The superset-sum filtration level against two oracles, each kept here
only as the reference: the membership loop and degree-n Springer
recursion that ``is_in_In`` and ``e_n`` used first, and the one-pass
Springer recursion ``walk`` that ``filtration_level`` ran before its
butterfly.  Both run on the base payloads of the leaves, through the
payload codec that ``tests/test_base_codec.py`` keeps."""

from hypothesis import given, settings
from hypothesis import strategies as st

from gwinv.cohomology import CohClass, e_n
from gwinv.fields import MAX_TOWER_DEPTH, QUAD_CLOSED, REAL_CLOSED, SquareClass, parse_field
from gwinv.witt import (
    MembershipError,
    WittClass,
    filtration_level,
    is_in_In,
    pfister,
    witt_canonical,
    witt_one,
    witt_zero,
)
from test_base_codec import codec_add, codec_neg, payloads_of

# past every level a generated class can reach (R, five slots, times 8)
LEVEL_CAP = 24


def oracle_e(q, n):
    """e_n(q) by the degree-n Springer recursion, assuming q is in I^n."""
    field = q.field

    def monos(leaves, n):
        if n == 0:
            return frozenset({(0, 0)} if sum(p[0] for p in leaves) % 2 else ())
        half = len(leaves) // 2
        if half:
            u, r = leaves[:half], leaves[half:]
            a = codec_add(field, u, r)
            b = codec_neg(field, r)
            return monos(a, n) | {(e, v | half) for e, v in monos(b, n - 1)}
        p = leaves[0]
        if field.kind == QUAD_CLOSED:
            if any(p):
                raise MembershipError("nontrivial class over a quadratically closed base")
            return frozenset()
        if field.kind == REAL_CLOSED:
            sig = p[0]
            if sig % (1 << n) != 0:
                raise MembershipError(f"signature {sig} not divisible by 2^{n}")
            return frozenset({(n, 0)} if (sig >> n) % 2 else ())
        parity, disc = p
        if n == 1:
            if parity:
                raise MembershipError("odd-dimensional class is not in I")
            return frozenset({(1, 0)} if disc else ())
        if any(p):
            raise MembershipError(f"nontrivial class over a finite base is not in I^{n}")
        return frozenset()

    return CohClass(field, monos(payloads_of(q), n))


def oracle_is_in_In(q, n):
    return all(oracle_e(q, m).is_zero for m in range(n))


def oracle_level(q):
    for m in range(LEVEL_CAP):
        if not oracle_e(q, m).is_zero:
            return m
    return None


def walk_level(q):
    """(level, monomials of e at that level) by the one-pass Springer
    recursion: with the top variable t splitting the leaves as
    q = u + <t> r, q = a + <<t>> b with a = u + r and b = -r, so
    level(q) = min(level(a), level(b) + 1) and e(q) = e(a) + (t) cup e(b)
    over the branches attaining the minimum.  The pass walks r for b, as
    I^n is a group and e(-r) = e(r) mod 2."""
    field = q.field

    def walk(leaves):
        half = len(leaves) // 2
        if not half:
            p = leaves[0]
            if not any(p):
                return None, frozenset()
            n = (p[0] & -p[0]).bit_length() - 1 if field.kind == REAL_CLOSED else 1 - p[0]
            return n, frozenset({(n, 0)})
        u, r = leaves[:half], leaves[half:]
        la, ma = walk(codec_add(field, u, r))
        lb, mb = walk(r)
        if lb is None or (la is not None and la <= lb):
            return la, ma
        mb = frozenset((e, v | half) for e, v in mb)
        return lb + 1, (ma | mb if la == lb + 1 else mb)

    return walk(payloads_of(q))


def tower(head, depth):
    return parse_field(head + "".join(f"((t{i}))" for i in range(1, depth + 1)))


@st.composite
def classes(draw, max_depth=4, max_shift=3):
    """Signed sums of up to three Pfister forms with up to five slots over
    C/R/F3/F5 towers of depth 0 to max_depth, times 2^j over R with
    j <= max_shift.  W(C) and W(F_q) have exponent 2 or 4, so there the
    factor is 1 or 2."""
    head = draw(st.sampled_from(["C", "R", "F3", "F5"]))
    depth = draw(st.integers(0, max_depth))
    field = tower(head, depth)
    top = (1 << field.num_gens) - 1
    masks = st.integers(min(1, top), top)  # a slot <<1>> kills the form
    q = witt_zero(field)
    terms = st.tuples(st.lists(masks, max_size=5), st.booleans())
    for slots, negate in draw(st.lists(terms, min_size=1, max_size=3)):
        term = witt_one(field)
        if slots:
            term = witt_canonical(pfister([SquareClass(field, m) for m in slots]))
        q = q - term if negate else q + term
    return q.int_mul(draw(st.sampled_from([1 << j for j in range(max_shift + 1)] if head == "R" else [1, 2])))


# one leaf code of each kind: zero, or drawn from all codes, with an R
# signature of the form s * 2^j so that leaf levels reach 10
CODES = {
    "C": st.integers(0, 1),
    "R": st.builds(lambda s, j: s << j, st.integers(-3, 3), st.integers(0, 10)),
    "F3": st.integers(0, 3),
    "F5": st.integers(0, 3),
}


@st.composite
def leaf_classes(draw):
    """Any class over a C/R/F3/F5 tower of depth 0 to MAX_TOWER_DEPTH,
    drawn leaf by leaf, with each leaf zero half the time."""
    head = draw(st.sampled_from(sorted(CODES)))
    field = tower(head, draw(st.integers(0, MAX_TOWER_DEPTH)))
    leaf = st.one_of(st.just(0), CODES[head])
    leaves = draw(st.lists(leaf, min_size=1 << field.depth, max_size=1 << field.depth))
    return WittClass(field, tuple(leaves))


@given(st.one_of(classes(max_depth=MAX_TOWER_DEPTH, max_shift=10), leaf_classes()))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_butterfly_matches_walk(q):
    assert filtration_level(q) == walk_level(q)


@given(classes())
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
def test_level_and_e_match_oracle(q):
    level, _ = filtration_level(q)
    assert level == oracle_level(q)
    top = LEVEL_CAP if level is None else level
    for m in range(top + 1):
        assert e_n(q, m) == oracle_e(q, m)
    for m in range(top + 2):
        assert is_in_In(q, m) == oracle_is_in_In(q, m)
    if level is not None:
        for m in (level + 1, level + 2):
            try:
                e_n(q, m)
            except MembershipError:
                continue
            raise AssertionError(f"e_{m} accepted a class of level {level}")

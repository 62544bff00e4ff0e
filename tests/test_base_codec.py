"""The integer leaf codes of ``WittClass`` against the payload codec they
replaced, and that codec against the hand-written per-kind base arithmetic
before it.  Both are kept here only as references.

A base payload is (dimension parity,) over C, (signature,) over R and
(dimension parity, mask of the signed discriminant) over F_q.  The codec
(``_base_terms``, ``_base_payload``) turns a payload into a small diagonal
form and a formal sum of base classes back into a payload, and every leaf
operation of the payload library was the payload of an operation on those
forms (the ``codec_*`` class operations below).  The library is compared
with the codec on every leaf and pair of leaves of small bases, on every
class and pair of classes of the depth-1 towers and on sampled classes of
depth 2 and 3: the sums, negatives, products, integer multiples, scalings,
levels, dimension parities, decoded (mask, count) pairs and the exact terms
of ``hat_lift``, in order."""

from random import Random

import pytest

from gwinv.fields import (
    QUAD_CLOSED,
    REAL_CLOSED,
    SquareClass,
    minus_one_mask,
    parse_field,
    sc_one,
)
from gwinv.witt import (
    GwElement,
    MembershipError,
    WittClass,
    _rep_terms,
    filtration_level,
    hat_lift,
    witt_canonical,
)

# ---------------------------------------------------------------------------
# the payload codec.  Only ``field.kind`` and the mask of -1 are read, so any
# tower over the base may be passed as ``field``.


def _base_terms(field, p):
    """A small nonnegative diagonal form with base payload p, as
    (mask, count) pairs; a mask may repeat."""
    if field.kind == QUAD_CLOSED:
        return ((0, p[0]),)
    if field.kind == REAL_CLOSED:
        return ((0, p[0]),) if p[0] >= 0 else ((1, -p[0]),)
    par, d = p
    if par:
        return ((d, 1),)
    return ((0, 1), (d ^ minus_one_mask(field), 1)) if d else ()


def _base_payload(field, terms):
    """Canonical base data of the formal ZZ-combination of base classes
    given as (mask, count) pairs, in which a mask may repeat."""
    if field.kind == QUAD_CLOSED:
        return (sum(c for _, c in terms) % 2,)
    if field.kind == REAL_CLOSED:
        return (sum(-c if m else c for m, c in terms),)
    dim, disc = _signed_det(minus_one_mask(field), terms)
    return (dim % 2, disc)


def _signed_det(m1, terms):
    """Dimension and mask of the signed discriminant (-1)^(d(d-1)/2) det
    of the diagonal form given as (mask, count) pairs, where a negative
    count is read through -c<m> = c<-m> in the Witt ring."""
    dim = det = 0
    for m, c in terms:
        if c < 0:
            m, c = m ^ m1, -c
        dim += c
        if c % 2:
            det ^= m
    return dim, det ^ (m1 if dim % 4 > 1 else 0)


# the leaf operations of the payload library, on tuples of payloads


def codec_canonical(field, terms):
    bits = field.base_bits
    buckets = [[] for _ in range(1 << field.depth)]
    for m, c in terms.items():
        buckets[m >> bits].append((m & ((1 << bits) - 1), c))
    return tuple(_base_payload(field, b) for b in buckets)


def codec_leafwise(field, leaves, op):
    return tuple(_base_payload(field, [op(m, c) for m, c in _base_terms(field, p)]) for p in leaves)


def codec_add(field, P1, P2):
    return tuple(_base_payload(field, _base_terms(field, x) + _base_terms(field, y)) for x, y in zip(P1, P2))


def codec_neg(field, P):
    return codec_leafwise(field, P, lambda m, c: (m, -c))


def codec_mul(field, P1, P2):
    out = [[] for _ in P1]
    for v1, p1 in enumerate(P1):
        for a, c1 in _base_terms(field, p1):
            for v2, p2 in enumerate(P2):
                out[v1 ^ v2].extend((a ^ b, c1 * c2) for b, c2 in _base_terms(field, p2))
    return tuple(_base_payload(field, t) for t in out)


def codec_int_mul(field, P, n):
    return codec_leafwise(field, P, lambda m, c: (m, n * c))


def codec_scale_sq(field, P, a):
    v, b = a.var_mask, a.base_mask
    return codec_leafwise(field, [P[w ^ v] for w in range(len(P))], lambda m, c: (m ^ b, c))


def codec_level(field, P):
    """(level, monomials of e) from the superset sums of the leaves."""
    level, monos = None, []
    for s in range(len(P)):
        p = _base_payload(field, [t for v, x in enumerate(P) if v & s == s for t in _base_terms(field, x)])
        if not any(p):
            continue
        n = (p[0] & -p[0]).bit_length() - 1 if field.kind == REAL_CLOSED else 1 - p[0]
        total = n + s.bit_count()
        if level is None or total < level:
            level, monos = total, [(n, s)]
        elif total == level:
            monos.append((n, s))
    return level, frozenset(monos)


def codec_rep_terms(field, P):
    bits = field.base_bits
    return [(m | v << bits, c) for v, p in enumerate(P) for m, c in _base_terms(field, p) if c]


def codec_hat_lift(field, P):
    terms = {}
    for m, c in codec_rep_terms(field, P):
        terms[m] = terms.get(m, 0) + c
    half = sum(terms.values()) // 2
    for m in (0, minus_one_mask(field)):
        terms[m] = terms.get(m, 0) - half
    return GwElement(field, terms)


# the integer code of each payload: the parity over C, the signature over R,
# <1> = 1, <1,1> = 2, <u> = <-1> = 3 in Z/4 over F_q with q = 3 mod 4, and
# the bits of <1> and <u> in F2[<u>] over F_q with q = 1 mod 4

Z4_CODES = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
F2U_CODES = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}


def _codes(field):
    return Z4_CODES if minus_one_mask(field) else F2U_CODES


def code_of(field, p):
    return p[0] if field.kind in (QUAD_CLOSED, REAL_CLOSED) else _codes(field)[p]


def payload_of(field, x):
    if field.kind in (QUAD_CLOSED, REAL_CLOSED):
        return (x,)
    return next(p for p, code in _codes(field).items() if code == x)


def encode(field, P):
    return WittClass(field, tuple(code_of(field, p) for p in P))


def payloads_of(w):
    return tuple(payload_of(w.field, x) for x in w.leaves)


# ---------------------------------------------------------------------------
# the per-kind base arithmetic, one branch per field kind


def oracle_add(field, p1, p2):
    if field.kind == QUAD_CLOSED:
        return ((p1[0] + p2[0]) % 2,)
    if field.kind == REAL_CLOSED:
        return (p1[0] + p2[0],)
    par1, d1 = p1
    par2, d2 = p2
    m1 = minus_one_mask(field)
    return ((par1 + par2) % 2, d1 ^ d2 ^ (m1 if par1 and par2 else 0))


def oracle_neg(field, p):
    if field.kind == QUAD_CLOSED:
        return p
    if field.kind == REAL_CLOSED:
        return (-p[0],)
    par, d = p
    return (par, d ^ (minus_one_mask(field) if par else 0))


def oracle_scale(field, p, mask):
    if field.kind == QUAD_CLOSED:
        return p
    if field.kind == REAL_CLOSED:
        return (-p[0],) if mask & 1 else p
    par, d = p
    return (par, d ^ (mask if par else 0))


def oracle_payload(field, counts):
    if field.kind == QUAD_CLOSED:
        return (sum(counts.values()) % 2,)
    if field.kind == REAL_CLOSED:
        return (sum(c if m == 0 else -c for m, c in counts.items()),)
    m1 = minus_one_mask(field)
    dim = 0
    det = 0
    for m, c in counts.items():
        if c < 0:
            m, c = m ^ m1, -c
        dim += c
        if c % 2:
            det ^= m
    disc = det ^ (m1 if (dim * (dim - 1) // 2) % 2 else 0)
    return (dim % 2, disc)


def oracle_rep_masks(field, p):
    if field.kind == QUAD_CLOSED:
        return [0] * p[0]
    if field.kind == REAL_CLOSED:
        sig = p[0]
        return [0] * sig if sig >= 0 else [1] * (-sig)
    par, d = p
    if par:
        return [d]
    if d == 0:
        return []
    return [0, d ^ minus_one_mask(field)]


def oracle_mul(field, p1, p2):
    if field.kind in (QUAD_CLOSED, REAL_CLOSED):
        return (p1[0] * p2[0],)
    counts = {}
    for a in oracle_rep_masks(field, p1):
        for b in oracle_rep_masks(field, p2):
            counts[a ^ b] = counts.get(a ^ b, 0) + 1
    return oracle_payload(field, counts)


# whole classes, as tuples of payloads: leafwise sums, XOR convolution,
# permuted scaling


def oracle_class_add(f, P1, P2):
    return tuple(oracle_add(f, x, y) for x, y in zip(P1, P2))


def oracle_class_mul(f, P1, P2):
    out = [oracle_payload(f, {})] * len(P1)
    for v1, p1 in enumerate(P1):
        for v2, p2 in enumerate(P2):
            out[v1 ^ v2] = oracle_add(f, out[v1 ^ v2], oracle_mul(f, p1, p2))
    return tuple(out)


def oracle_int_mul(f, P, n):
    if f.kind == REAL_CLOSED:
        return tuple((n * p[0],) for p in P)
    out = (oracle_payload(f, {}),) * len(P)
    for _ in range(n % 4):
        out = oracle_class_add(f, out, P)
    return out


def oracle_scale_sq(f, P, a):
    v, b = a.var_mask, a.base_mask
    return tuple(oracle_scale(f, P[u ^ v], b) for u in range(len(P)))


def oracle_rep(f, P):
    bits = f.base_bits
    return [m | v << bits for v, p in enumerate(P) for m in oracle_rep_masks(f, p)]


def oracle_hat_lift(f, P):
    rep = oracle_rep(f, P)
    terms = {}
    for m in rep:
        terms[m] = terms.get(m, 0) + 1
    hyp = GwElement.diag(sc_one(f), -sc_one(f)).scale(len(rep) // 2)
    return GwElement(f, terms) - hyp


# ---------------------------------------------------------------------------


def payloads(field, sig):
    if field.kind == QUAD_CLOSED:
        return [(0,), (1,)]
    if field.kind == REAL_CLOSED:
        return [(s,) for s in range(-sig, sig + 1)]
    return [(par, d) for par in (0, 1) for d in (0, 1)]


def _summed(pairs):
    terms = {}
    for m, c in pairs:
        terms[m] = terms.get(m, 0) + c
    return terms


def check_class(field, P, w):
    """Everything read off one class: its code, canonical form, decoded
    pairs, level, parity, negative, scalings, multiples and lift."""
    assert w.leaves == tuple(code_of(field, p) for p in P)
    rep = codec_rep_terms(field, P)
    assert _rep_terms(w) == rep
    assert witt_canonical(GwElement(field, _summed(rep))) == w
    assert witt_canonical(GwElement(field, {m: -c for m, c in _summed(rep).items()})) == -w
    assert codec_canonical(field, _summed(rep)) == P
    assert [a.mask for a in w.diag_rep()] == oracle_rep(field, P)
    assert filtration_level(w) == codec_level(field, P)
    assert w.dim_parity == sum(p[0] for p in P) % 2
    assert payloads_of(-w) == codec_neg(field, P) == tuple(oracle_neg(field, p) for p in P)
    for mask in range(1 << field.num_gens):
        a = SquareClass(field, mask)
        assert payloads_of(w.scale_sq(a)) == codec_scale_sq(field, P, a) == oracle_scale_sq(field, P, a)
    for n in range(-9, 10):
        assert payloads_of(w.int_mul(n)) == codec_int_mul(field, P, n) == oracle_int_mul(field, P, n)
    if w.dim_parity:
        with pytest.raises(MembershipError):
            hat_lift(w)
    else:
        lift, expected = hat_lift(w), codec_hat_lift(field, P)
        assert list(lift.terms.items()) == list(expected.terms.items())
        assert lift.terms == oracle_hat_lift(field, P).terms


def check_pair(field, P1, P2, w1, w2):
    assert payloads_of(w1 + w2) == codec_add(field, P1, P2) == oracle_class_add(field, P1, P2)
    assert payloads_of(w1 - w2) == codec_add(field, P1, codec_neg(field, P2))
    assert payloads_of(w1 * w2) == codec_mul(field, P1, P2) == oracle_class_mul(field, P1, P2)


BASES = ["C", "R", "F3", "F5", "F7", "F9"]
TOWERS = ["C((t1))", "R((t1))", "F3((t1))", "F5((t1))", "F7((t1))", "F9((t1))"]


@pytest.mark.parametrize("head", BASES)
def test_base_payloads_and_pairs(head):
    field = parse_field(head)
    leaves = payloads(field, 8)
    codes = [code_of(field, p) for p in leaves]
    assert len(set(codes)) == len(codes)
    for p in leaves:
        assert _base_payload(field, _base_terms(field, p)) == p
        check_class(field, (p,), encode(field, (p,)))
        for p2 in leaves:
            check_pair(field, (p,), (p2,), encode(field, (p,)), encode(field, (p2,)))


@pytest.mark.parametrize("text", TOWERS)
def test_depth_one_classes_and_pairs(text):
    field = parse_field(text)
    classes = [(P, encode(field, P)) for P in ((x, y) for x in payloads(field, 3) for y in payloads(field, 3))]
    for P, w in classes:
        check_class(field, P, w)
        for P2, w2 in classes:
            check_pair(field, P, P2, w, w2)


@pytest.mark.parametrize("head", BASES)
@pytest.mark.parametrize("depth", [2, 3])
def test_sampled_deep_classes(head, depth):
    """Seeded classes of depth 2 and 3, each leaf zero a third of the time
    (R signatures up to 3 * 2^4), and pairs of them."""
    field = parse_field(head + "".join(f"((t{i}))" for i in range(1, depth + 1)))
    rng = Random(f"{head}{depth}")
    zero, rest = payloads(field, 0)[0], payloads(field, 3)

    def leaf():
        if rng.random() < 1 / 3:
            return zero
        p = rng.choice(rest)
        return (p[0] << rng.randint(0, 4),) if field.kind == REAL_CLOSED else p

    classes = [tuple(leaf() for _ in range(1 << depth)) for _ in range(24)]
    classes = [(P, encode(field, P)) for P in classes]
    for P, w in classes:
        check_class(field, P, w)
    for (P1, w1), (P2, w2) in zip(classes, classes[1:] + classes[:1]):
        check_pair(field, P1, P2, w1, w2)

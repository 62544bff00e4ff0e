"""The Witt leaf operations, derived from the payload codec, against the
hand-written per-kind base arithmetic they replaced.  The oracle below is
kept here only as the reference; it is compared with the library on every
payload and every pair of payloads of small bases, and on every class or
pair of classes of small depth-1 towers."""

from itertools import product

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
    WittClass,
    _base_payload,
    _base_terms,
    hat_lift,
)

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


# whole classes: leafwise sums, XOR convolution, permuted scaling


def oracle_class_add(w1, w2):
    f = w1.field
    return WittClass(f, tuple(oracle_add(f, x, y) for x, y in zip(w1.leaves, w2.leaves)))


def oracle_class_mul(w1, w2):
    f = w1.field
    out = [oracle_payload(f, {})] * len(w1.leaves)
    for v1, p1 in enumerate(w1.leaves):
        for v2, p2 in enumerate(w2.leaves):
            out[v1 ^ v2] = oracle_add(f, out[v1 ^ v2], oracle_mul(f, p1, p2))
    return WittClass(f, tuple(out))


def oracle_int_mul(w, n):
    f = w.field
    if f.kind == REAL_CLOSED:
        return WittClass(f, tuple((n * p[0],) for p in w.leaves))
    out = WittClass(f, (oracle_payload(f, {}),) * len(w.leaves))
    for _ in range(n % 4):
        out = oracle_class_add(out, w)
    return out


def oracle_scale_sq(w, a):
    f, v, b = w.field, a.var_mask, a.base_mask
    return WittClass(f, tuple(oracle_scale(f, w.leaves[u ^ v], b) for u in range(len(w.leaves))))


def oracle_rep(w):
    bits = w.field.base_bits
    return [
        m | v << bits for v, p in enumerate(w.leaves) for m in oracle_rep_masks(w.field, p)
    ]


def oracle_hat_lift(w):
    rep = oracle_rep(w)
    terms = {}
    for m in rep:
        terms[m] = terms.get(m, 0) + 1
    hyp = GwElement.diag(sc_one(w.field), -sc_one(w.field)).scale(len(rep) // 2)
    return GwElement(w.field, terms) - hyp


# ---------------------------------------------------------------------------


def payloads(field, sig):
    if field.kind == QUAD_CLOSED:
        return [(0,), (1,)]
    if field.kind == REAL_CLOSED:
        return [(s,) for s in range(-sig, sig + 1)]
    return [(par, d) for par in (0, 1) for d in (0, 1)]


def classes(field, sig):
    leaves = product(payloads(field, sig), repeat=1 << field.depth)
    return [WittClass(field, ls) for ls in leaves]


BASES = ["C", "R", "F3", "F5", "F7", "F9"]
TOWERS = ["C((t1))", "R((t1))", "F3((t1))", "F5((t1))", "F7((t1))", "F9((t1))"]


@pytest.mark.parametrize("head", BASES)
def test_base_payloads_and_pairs(head):
    field = parse_field(head)
    for p in payloads(field, 8):
        assert _base_payload(field, _base_terms(field, p)) == p
        w = WittClass(field, (p,))
        assert [a.mask for a in w.diag_rep()] == oracle_rep_masks(field, p)
        assert (-w).leaves == (oracle_neg(field, p),)
        for mask in range(1 << field.base_bits):
            assert w.scale_sq(SquareClass(field, mask)).leaves == (oracle_scale(field, p, mask),)
        for n in range(-9, 10):
            assert w.int_mul(n) == oracle_int_mul(w, n)
        for p2 in payloads(field, 8):
            w2 = WittClass(field, (p2,))
            assert (w + w2).leaves == (oracle_add(field, p, p2),)
            assert (w * w2).leaves == (oracle_mul(field, p, p2),)


@pytest.mark.parametrize("text", TOWERS)
def test_depth_one_classes_and_pairs(text):
    field = parse_field(text)
    ws = classes(field, 3)
    for w in ws:
        assert [a.mask for a in w.diag_rep()] == oracle_rep(w)
        if w.dim_parity == 0:
            lift = hat_lift(w)
            expected = oracle_hat_lift(w)
            assert lift.terms == expected.terms
            assert list(lift.terms) == list(expected.terms)
        for mask in range(1 << field.num_gens):
            a = SquareClass(field, mask)
            assert w.scale_sq(a) == oracle_scale_sq(w, a)
        for n in (-5, -1, 2, 3, 7):
            assert w.int_mul(n) == oracle_int_mul(w, n)
        for w2 in ws:
            assert w + w2 == oracle_class_add(w, w2)
            assert w * w2 == oracle_class_mul(w, w2)

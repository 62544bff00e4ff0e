"""The constant-geometry butterfly of ``witt._butterfly`` against the
in-place pairwise one it replaced and against the definitions of the two
transforms it runs: the Walsh-Hadamard transform
sum_m (-1)^popcount(s & m) x_m and the superset sums sum_(v >= S) leaf_v
under each base table's addition, and over the column-major concatenation
of D columns of 2^g values, which one g-stage pass must transform column
by column into the stride-D layout the character kernel reads.  Two
tampered copies of the routine, built from its own source, and a reader
of the wrong stride must fail the same checks."""

import inspect
from itertools import chain
from operator import add, sub
from random import Random

import pytest

from gwinv import witt
from butterfly_oracle import _butterfly as pairwise

BASES = {"C": (witt._QUAD, 2), "R": (witt._REAL, None), "F3": (witt._FINITE_3, 4), "F5": (witt._FINITE_1, 4)}


def code(rng, head):
    """A leaf code of the base kind: any integer over R, else a residue."""
    n = BASES[head][1]
    return rng.randint(-99, 99) if n is None else rng.randrange(n)


def walsh_hadamard(x):
    return [sum(v if not (s & m).bit_count() & 1 else -v for m, v in enumerate(x)) for s in range(len(x))]


def superset_sums(leaves, add_):
    out = []
    for s in range(len(leaves)):
        total = 0
        for v, x in enumerate(leaves):
            if v & s == s:
                total = add_(total, x)
        out.append(total)
    return out


def disagreements(butterfly):
    """The (transform, g) cases on which ``butterfly`` differs from the
    pairwise oracle or from the transform's definition, g = 0..7."""
    rng = Random(19)
    bad = []
    for g in range(8):
        x = [rng.randint(-50, 50) for _ in range(1 << g)]
        got = list(butterfly(list(x), g, add, sub))
        want = list(x)
        pairwise(want, lambda a, b: (a + b, a - b))
        if got != want or got != walsh_hadamard(x):
            bad.append(("wht", g))
        for head, (base, _) in BASES.items():
            leaves = tuple(code(rng, head) for _ in range(1 << g))
            got = list(butterfly(leaves, g, base.add))
            want = list(leaves)
            pairwise(want, lambda a, b: (base.add(a, b), b))
            if got != want or got != superset_sums(leaves, base.add):
                bad.append((head, g))
    return bad


def contiguous(out, j, D, g):
    """The wrong layout: degree j as the j-th block of 2^g values, the
    layout of the input rather than of the output."""
    return out[j << g : (j + 1) << g]


def strided(out, j, D, g):
    return out[j::D]


def batched_disagreements(butterfly, read=strided):
    """The (g, D) cases, g = 0..7 and D in (0, 1, 2, 9, 33), on which one
    g-stage pass of ``butterfly`` over the column-major concatenation of
    2^g rows of D values, read by ``read``, differs from the pairwise
    oracle's transform of each of the D columns."""
    rng = Random(21)
    bad = []
    for g in range(8):
        for D in (0, 1, 2, 9, 33):
            rows = [[rng.randint(-50, 50) for _ in range(D)] for _ in range(1 << g)]
            out = butterfly([*chain.from_iterable(zip(*rows))], g, add, sub)
            want = []
            for column in zip(*rows):
                column = list(column)
                pairwise(column, lambda a, b: (a + b, a - b))
                want.append(column)
            if len(out) != D << g or [read(out, j, D, g) for j in range(D)] != want:
                bad.append((g, D))
    return bad


def test_butterfly_matches_oracle_and_definitions():
    assert disagreements(witt._butterfly) == []


def test_one_pass_transforms_every_column():
    assert batched_disagreements(witt._butterfly) == []


def test_wrong_stride_is_caught():
    # one column, or one row, reads the same at either stride
    bad = batched_disagreements(witt._butterfly, contiguous)
    assert bad == [(g, D) for g in range(1, 8) for D in (2, 9, 33)]


def test_butterfly_returns_a_new_list():
    rows = [1, 2, 3, 4]
    out = witt._butterfly(rows, 2, add, sub)
    assert out == [10, -2, -4, 0] and rows == [1, 2, 3, 4]


def test_inverse_transform_is_2g_times_the_identity():
    rng = Random(20)
    for g in range(8):
        x = [rng.randint(-10**30, 10**30) for _ in range(1 << g)]
        twice = witt._butterfly(witt._butterfly(x, g, add, sub), g, add, sub)
        assert twice == [v << g for v in x]


def tampered(old: str, new: str):
    """A copy of ``witt._butterfly`` with one edit to its source."""
    source = inspect.getsource(witt._butterfly)
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), vars(witt).copy(), namespace)
    return namespace["_butterfly"]


@pytest.mark.parametrize(
    "old, new",
    [
        ("[*map(lo, even, odd), *(odd if hi is None else map(hi, even, odd))]",
         "[*(odd if hi is None else map(hi, even, odd)), *map(lo, even, odd)]"),
        ("range(g)", "range(g - 1)"),
    ],
    ids=["swap-lo-hi", "drop-a-stage"],
)
def test_tampered_butterfly_is_caught(old, new):
    butterfly = tampered(old, new)
    bad = disagreements(butterfly)
    assert ("wht", 7) in bad and all((head, 7) in bad for head in BASES)
    assert {(7, D) for D in (1, 2, 9, 33)} <= set(batched_disagreements(butterfly))

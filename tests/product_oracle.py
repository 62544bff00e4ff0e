"""The trinomial product of symbolic invariants in both modes, kept only as
a test oracle.

The f-generator of degree s acts on the other factor by its own term
table, the trinomials C(d; d - s, d - t), reduced in the mode's scalar
ring.  The library's ``invariants.product`` reads no table: it multiplies
the factors' values on sums of Pfister forms and takes forward differences
back, in both modes, and the tests compare the two.
"""

from gwinv.invariants import SymbolicInvariant, _linear
from gwinv.series import multinomial_C


def trinomial_product(
    alpha: SymbolicInvariant, beta: SymbolicInvariant
) -> SymbolicInvariant:
    """Product of invariants, through the trinomial f-basis formula: the
    f-generator of degree s acts on ``beta`` by its own term table."""
    alpha._check(beta)
    n = alpha.n
    out = SymbolicInvariant(n, alpha.mode)
    for s, cs in alpha.coeffs.items():
        out = out + _linear(beta, n, lambda t, s=s: [
            (multinomial_C(d, d - s, d - t), n * (s + t - d), d)
            for d in range(max(s, t), s + t + 1)
        ]).scale(cs)
    return out

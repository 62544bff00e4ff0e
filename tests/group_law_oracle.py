"""The multiplied-out group law, kept only as a test oracle.

``group_law`` forms prod (1 + a t)^c over any coefficient ring of the
series protocol by repeated squaring and one multiplicative inverse.  The
library computes the same products through the character kernel
(``witt.lambda_series`` for the exterior-power series, ``divided.sw_coeffs``
for the Stiefel-Whitney-style series); the tests compare the two.
"""

from gwinv.series import TruncSeries


class SeriesInversionError(ValueError):
    """Series is not invertible for the requested operation."""


def series_pow(s: TruncSeries, n: int) -> TruncSeries:
    """s^n for n >= 0, by repeated squaring."""
    if n < 0:
        raise ValueError("negative powers are not defined; invert first")
    result = TruncSeries.one(s.ring, s.precision)
    base = s
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def mul_inverse(s: TruncSeries) -> TruncSeries:
    """Inverse for multiplication; the constant coefficient must be 1."""
    ring = s.ring
    if not s.coeffs[0] == ring.one:
        raise SeriesInversionError("multiplicative inverse needs constant term 1")
    prec = s.precision
    out = [ring.one] + [ring.zero] * prec
    for d in range(1, prec + 1):
        acc = ring.zero
        for i in range(1, d + 1):
            acc = acc + s.coeffs[i] * out[d - i]
        out[d] = -acc
    return TruncSeries(ring, out)


def group_law(ring, atoms, precision: int) -> TruncSeries:
    """The product of (1 + a t)^c over the pairs (a, c) of ``atoms``,
    truncated: the group morphism from formal sums of atoms to
    1 + t ring[[t]], multiplied out in ``ring``.  Positive and negative
    multiplicities are multiplied up separately, in the order given, and
    the negative part is inverted once at the end.  ``atoms`` is not read
    at precision 0."""
    if precision == 0:
        return TruncSeries.one(ring, 0)
    num = TruncSeries.one(ring, precision)
    den = TruncSeries.one(ring, precision)
    for a, c in atoms:
        binomial = TruncSeries(ring, [ring.one, a], precision=precision)
        if c > 0:
            num = num * series_pow(binomial, c)
        else:
            den = den * series_pow(binomial, -c)
    return num * mul_inverse(den)

"""The multiplied-out group law, kept only as a test oracle.

``group_law`` forms prod (1 + a t)^c by repeated squaring and one
multiplicative inverse, over any coefficient ring given as an object with
``zero`` and ``one``: the integers (``INT_RING``), or ``gw_ring(F)`` and
``value_ring(target, F)`` below.  A series here is a list of coefficients read as a polynomial, so
missing degrees are zero, and every operation keeps at most the first
``length`` coefficients.  The library computes the same products through
the character kernel (``witt.lambda_series`` for the exterior-power
series, ``divided.sw_coeffs`` for the Stiefel-Whitney-style series); the
tests compare the two.
"""

from types import SimpleNamespace

from gwinv.witt import GwElement


class SeriesInversionError(ValueError):
    """Series is not invertible for the requested operation."""


INT_RING = SimpleNamespace(zero=0, one=1)


def gw_ring(field) -> SimpleNamespace:
    """The GW coefficients over ``field``."""
    return SimpleNamespace(zero=GwElement.zero(field), one=GwElement.unit(field))


def value_ring(target, field) -> SimpleNamespace:
    """The value ring A(``field``) of a target, ``W_TARGET`` or ``H_TARGET``: W or H*."""
    return SimpleNamespace(zero=target.zero(field), one=target.one(field))


def mul(ring, a: list, b: list, length: int) -> list:
    """The product a b."""
    out = [ring.zero] * min(length, len(a) + len(b) - 1)
    for i, x in enumerate(a[:length]):
        for j, y in enumerate(b[: len(out) - i]):
            out[i + j] = out[i + j] + x * y
    return out


def series_pow(ring, s: list, n: int, length: int) -> list:
    """s^n for n >= 0, by repeated squaring."""
    if n < 0:
        raise ValueError("negative powers are not defined; invert first")
    result, base = [ring.one], s
    while n:
        if n & 1:
            result = mul(ring, result, base, length)
        base = mul(ring, base, base, length) if n > 1 else base
        n >>= 1
    return result


def mul_inverse(ring, s: list, length: int) -> list:
    """Inverse for multiplication; the constant coefficient must be 1."""
    if not s[0] == ring.one:
        raise SeriesInversionError("multiplicative inverse needs constant term 1")
    out = [ring.one] + [ring.zero] * (length - 1)
    for d in range(1, length):
        acc = ring.zero
        for i in range(1, min(d, len(s) - 1) + 1):
            acc = acc + s[i] * out[d - i]
        out[d] = -acc
    return out


def compose(ring, f: list, g: list, length: int) -> list:
    """f o g by Horner's rule; g = t g' has zero constant coefficient, so
    each step is f_d + t g' acc."""
    top = min(len(f), length) - 1
    acc = [f[top]]
    for c in reversed(f[:top]):
        acc = [c] + mul(ring, acc, g[1:], length - 1)
    return acc


def group_law(ring, atoms, precision: int) -> list:
    """The product of (1 + a t)^c over the pairs (a, c) of ``atoms``, to
    degree ``precision``: the group morphism from formal sums of atoms to
    1 + t ring[[t]], multiplied out in ``ring``.  Positive and negative
    multiplicities are multiplied up separately, in the order given, and
    the negative part is inverted once at the end."""
    length = precision + 1
    num = den = [ring.one]
    for a, c in atoms:
        power = series_pow(ring, [ring.one, a], abs(c), length)
        if c > 0:
            num = mul(ring, num, power, length)
        else:
            den = mul(ring, den, power, length)
    return mul(ring, num, mul_inverse(ring, den, length), length)

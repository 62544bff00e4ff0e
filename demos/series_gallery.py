#!/usr/bin/env python3
"""A tour of the exact series kernel.

The whole invariant machinery rests on one family of integer power series:
the level-n series x_n built by the quadratic recursion
x_{n+1} = x_n + 2^(n-1) x_n^2, and its compositional inverse h_n.  The
inverse having integer coefficients is what makes the divided powers act
on Grothendieck-Witt elements without denominators, and the Catalan
generating function is the reason those coefficients are integral.
"""

from gwinv.series import build_h, build_x, catalan, cauchy, compose, even_odd_split

D = 10

print("level series x_n and their compositional inverses h_n, degree <=", D)
print()
for n in range(1, 5):
    x = build_x(n, D)
    h = build_h(n, D)
    print(f"  x_{n} = {x}")
    print(f"  h_{n} = {h}")
    t = [0, 1] + [0] * (D - 1)
    assert compose(x, h) == t and compose(h, x) == t
    print(f"  round trip x_{n} o h_{n} = h_{n} o x_{n} = t   [checked]")
    print()

print("h_2 is the signed Catalan sequence:")
print("  catalan :", catalan(8))
print("  h_2     :", build_h(2, 8))
print()

print("even/odd split of x_3 and the doubling identities:")
a3, b3 = even_odd_split(build_x(3, D))
a4, b4 = even_odd_split(build_x(4, D))
print("  even(x_3) =", a3)
print("  odd(x_3)  =", b3)
assert a4 == [8 * c for c in cauchy(b3, b3)]
assert b4 == [b + 8 * c for b, c in zip(b3, cauchy(a3, b3))]
print("  even(x_4) = 2^3 odd(x_3)^2 and odd(x_4) = odd(x_3) + 2^3 even odd   [checked]")

#!/usr/bin/env python3
"""Exact Witt-ring arithmetic over Laurent towers.

Three base kinds (quadratically closed, real closed, finite of odd order)
under iterated Laurent extensions give fields where Witt classes have a
computable canonical form: the recursive unramified/ramified splitting for
the top variable, bottoming out in a parity bit, a signature, or a parity
plus signed discriminant.
"""

from gwinv.cohomology import coh_residue, e_n, symbol
from gwinv.fields import parse_field, parse_sc
from gwinv.witt import (
    GwElement,
    hat_lift,
    is_in_In,
    lambda_power,
    parse_form,
    pfister,
    second_residue,
    witt_canonical,
)

F = parse_field("R((t1))((t2))")
t1, t2, m1 = parse_sc("t1", F), parse_sc("t2", F), parse_sc("-1", F)

print("field:", F, "with square classes 1, -1, t1, t2 and products")
print()

hyp = parse_form("H + diag(t1,-t1)", F)
print("two hyperbolic planes:", hyp, "->", witt_canonical(hyp))

phi = pfister([t1, t2])
print("2-fold Pfister form:", phi)
q = witt_canonical(phi)
print("  canonical form   :", q)
print("  lies in I^2      :", is_in_In(q, 2))
print("  degree-2 class   :", e_n(q, 2), "=", symbol([t1, t2]))
print()

print("second residue for t2 peels one tower layer:")
print("  residue:", second_residue(q), "over", F.parent())
print("  cohomological residue:", coh_residue(e_n(q, 2)))
print()

print("the dimension-0 lift and exterior powers:")
lift = hat_lift(q)
print("  hat lift:", lift, " (dim", lift.dim, ")")
for d in range(4):
    print(f"  lambda^{d}(pfister) =", lambda_power(d, phi))

print()
print("Grothendieck-Witt equality is dimension plus Witt class:")
a = GwElement.diag(t1, t1)
b = GwElement.diag(t1).scale(2)
print(f"  <t1,t1> == 2<t1>        : {a == b}")
print(f"  <1,-1>  == <t1,-t1>     : {parse_form('H', F) == parse_form('diag(t1,-t1)', F)}")
print(f"  <1,-1>  == 0 (dim 2!)   : {parse_form('H', F) == GwElement.zero(F)}")

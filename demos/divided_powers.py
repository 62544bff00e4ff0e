#!/usr/bin/env python3
"""Divided powers and the two invariant families.

The level-n divided powers act like elementary symmetric functions on
sums of n-fold Pfister lifts and kill single lifts in degrees >= 2.
Pushing them into the Witt ring or mod-2 cohomology produces the f-family;
rebasing gives the g-family, which vanishes beyond twice the Pfister
length of the argument and so admits infinite combinations.
"""

from gwinv.divided import H_TARGET, W_TARGET, eval_f, eval_pi, eval_sw
from gwinv.fields import minus_one, parse_field, parse_sc
from gwinv.invariants import eval_g
from gwinv.witt import GwElement, gpfister, pfister, witt_canonical

F = parse_field("R((t1))((t2))")
t1, t2 = parse_sc("t1", F), parse_sc("t2", F)

g1, g2 = gpfister([t1]), gpfister([t2])
print("divided powers on a sum of two 1-fold Pfister lifts:")
for d in range(4):
    print(f"  degree {d}:", eval_pi(1, d, g1 + g2))
assert eval_pi(1, 2, g1 + g2) == g1 * g2
print("  degree 2 equals the product of the lifts   [checked]")
print()

print("vanishing on a single lift in degrees >= 2:")
for d in (2, 3, 4):
    v = eval_pi(1, d, g1)
    print(f"  degree {d}: dim {v.dim}, Witt class {witt_canonical(v)}")
print()

q = witt_canonical(pfister([t1])) + witt_canonical(pfister([t2]))
print("f-family on pf(t1) + pf(t2):")
for d in range(4):
    print(f"  W degree {d}:", eval_f(1, d, q, W_TARGET))
    print(f"  H degree {d}:", eval_f(1, d, q, H_TARGET))
print()

print("g-family is bounded: the class -pf(-1) over R has max length 1,")
print("so only degrees <= 2 survive:")
R = parse_field("R")
qq = -witt_canonical(pfister([minus_one(R)]))
for d in range(5):
    print(f"  g degree {d} (W):", eval_g(1, d, qq, W_TARGET))
print()

print("total Stiefel-Whitney-style map on a diagonal form:")
x = GwElement.diag(t1, t2, -t1)
for d in range(3):
    print(f"  degree {d} (H):", eval_sw(d, x, H_TARGET))

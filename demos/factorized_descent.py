#!/usr/bin/env python3
"""Descent along Pfister factors.

A class divisible by a 1-fold Pfister form <<a>> determines the value
{a} . alpha(cofactor) independently of the chosen factorization.  The
generator below produces alternative factorizations along certified moves
only -- perturbing the cofactor by a multiple of <<c>> with c represented
by <<a>>, or swapping the scalar when every block of a certified cofactor
decomposition allows it -- and the descent value agrees across all of them.
"""

import random

from gwinv.divided import H_TARGET, W_TARGET
from gwinv.factorized import alt_factorizations, delta_t_eval, lemma_factor_check, make_factorized
from gwinv.fields import parse_field, parse_sc, sc_one
from gwinv.invariants import SymbolicInvariant
from gwinv.witt import GwElement, gpfister, witt_canonical

F = parse_field("R((t1))((t2))")
t1, t2 = parse_sc("t1", F), parse_sc("t2", F)
rng = random.Random(0)

a = t1
b = -t2
blocks = [(t2, -(a * b)), (sc_one(F), sc_one(F))]
cof = GwElement.zero(F)
for x_i, c_i in blocks:
    cof = cof + GwElement.diag(x_i) * gpfister([c_i])
x = make_factorized([a], witt_canonical(cof), 2, terms=blocks)

print("factorized class:", x)
print("product:", x.product())
print()

alts = alt_factorizations(x, budget=5, rng=rng)
print(f"{len(alts)} certified factorizations of the same class:")
for alt in alts:
    print("  ", alt)
print()

alpha = SymbolicInvariant(1, "H", {2: 1})
print("descent values {scalar} . f[1,2](cofactor), cohomology mode:")
for alt in alts:
    print("  ", delta_t_eval(alt, alpha, 1))
vals = {str(delta_t_eval(alt, alpha, 1)) for alt in alts}
assert len(vals) == 1
print("all equal   [checked]")
print()

alpha_w = SymbolicInvariant(1, "W", {1: 1})
print("same in Witt mode:", delta_t_eval(x, alpha_w, 1))
print()

print("the factor-swap identity behind the scalar move: for certified")
print("blocks, <<a>> and <<b>> agree against every exterior power:")
for k in (1, 2, 3):
    print(f"  k={k}:", lemma_factor_check(a, b, blocks, k))

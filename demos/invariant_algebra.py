#!/usr/bin/env python3
"""The symbolic algebra of invariants.

Every invariant of the n-th filtration level is a coefficient sequence in
the f-basis over the ring generated by eps = {-1}; the g-basis is a
triangular unipotent change of it, entered with ``from_g`` and read back
with ``g_coeffs``.  The operators:
shifting (response to adding a Pfister form), the similitude operator
(response to scaling), restriction to the next level, and descent along a
Pfister factor, all act by closed formulas on the coefficients, and every
action can be replayed pointwise on concrete Witt classes.
"""

from gwinv.fields import parse_field, parse_sc
from gwinv.invariants import (
    SymbolicInvariant,
    evaluate,
    extract_coeffs,
    from_g,
    g_coeffs,
    omega_t,
    parse_invariant,
    phi,
    product,
    psi_tilde,
    restrict,
)
from gwinv.witt import pfister, witt_canonical

W = "W"


def in_g(alpha):
    """``alpha`` written in the g-basis: its g-coefficients, rendered as an
    f-basis invariant with the family renamed."""
    return str(SymbolicInvariant(alpha.n, alpha.mode, g_coeffs(alpha))).replace("f[", "g[")


print("basis change is triangular unipotent:")
for d in range(1, 6):
    print(f"  g[2,{d}] =", from_g(2, W, {d: 1}))
print()

print("shifting: the plus shift steps the f-basis down one degree,")
print("the minus shift expands with eps powers:")
f3 = SymbolicInvariant(1, W, {3: 1})
print("  phi+ f[1,3] =", phi(f3, 1))
print("  phi- f[1,3] =", phi(f3, -1))
print()

print("products follow the trinomial rule:")
f1 = SymbolicInvariant(1, W, {1: 1})
print("  f[1,1] * f[1,1] =", product(f1, f1))
u = SymbolicInvariant(2, "H", {3: 1})
v = SymbolicInvariant(2, "H", {5: 1})
print("  cohomology mode collapses to the bitwise-or term:")
print("  f[2,3] * f[2,5] =", product(u, v), " (3|5 = 7, 3&5 = 1)")
print()

print("similitude operator on the g-basis:")
for d in (3, 4):
    g = from_g(2, W, {d: 1})
    print(f"  psi g[2,{d}] =", in_g(psi_tilde(g)))
print()

print("restriction and descent:")
print("  restrict f[1,4] (W):", restrict(SymbolicInvariant(1, W, {4: 1})))
print("  restrict f[1,4] (H):", restrict(SymbolicInvariant(1, "H", {4: 1})))
print("  descend f[3,2] one level:", omega_t(SymbolicInvariant(3, W, {2: 1}), 1))
print()

print("classification read-out: iterated shifts evaluated at 0 recover")
print("the g-basis coefficients of any finitely supported invariant:")
alpha = parse_invariant("g[2,3] + 5*g[2,1] + eps*g[2,0]", W)
print("  alpha =", in_g(alpha))
print("  read-out:", extract_coeffs(alpha, 4))
print()

F = parse_field("R((t1))((t2))")
t1, t2 = parse_sc("t1", F), parse_sc("t2", F)
q = witt_canonical(pfister([t1, t2]))
print("pointwise evaluation on the 2-fold Pfister class pf(t1,t2):")
for text in ("f[2,0]", "f[2,1]", "f[2,2]", "g[2,1] + eps^2*f[2,1]"):
    a = parse_invariant(text, W)
    print(f"  {text:22s} ->", evaluate(a, q))

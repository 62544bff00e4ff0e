"""Semi-factorized classes: products of a Pfister factor and a cofactor.

The descent operators divide an invariant value by the symbol of the
factor.  Well-definedness across different factorizations of the same
class is exercised by generating alternative factorizations along
certified moves only: perturbing the cofactor by a multiple of <<c>> with
c represented by <<a>>, and swapping the scalar a for b when every block
of the cofactor's certified decomposition is represented by <<ab>>.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .divided import TARGETS
from .fields import FieldMismatchError, SquareClass, enumerate_sc, represented_by_binary, sc_one
from .invariants import SymbolicInvariant, evaluate, is_normalized
from .series import ConsistencyError
from .witt import (
    GwElement,
    MembershipError,
    WittClass,
    gpfister,
    is_in_In,
    lambda_power,
    pfister,
    witt_canonical,
)


@dataclass(frozen=True)
class FactorizedForm:
    """A class presented as (r-fold Pfister factor) * (cofactor in I^(n-r));
    ``terms`` optionally certifies a decomposition of the cofactor into
    blocks <x_i> <<c_i>>, enabling the scalar-swap move."""

    factor: tuple[SquareClass, ...]
    cofactor: WittClass
    n: int
    terms: tuple[tuple[SquareClass, SquareClass], ...] | None = None

    @property
    def field(self):
        return self.cofactor.field

    @property
    def r(self) -> int:
        return len(self.factor)

    def product(self) -> WittClass:
        return witt_canonical(pfister(list(self.factor))) * self.cofactor

    def __str__(self) -> str:
        slots = ",".join(str(a) for a in self.factor)
        return f"pf({slots}) * ({self.cofactor})"


def make_factorized(
    factor,
    cofactor: WittClass,
    n: int,
    terms=None,
) -> FactorizedForm:
    factor = tuple(factor)
    if not factor:
        raise ValueError("a factorized form needs at least one Pfister slot")
    r = len(factor)
    if r > n:
        raise ValueError("factor length exceeds the filtration level")
    if not is_in_In(cofactor, n - r):
        raise MembershipError(f"cofactor is not in I^{n - r}")
    # an r-slot factor lies in I^r, so the product lies in I^n unchecked
    if any(a.field != cofactor.field for a in factor):
        raise FieldMismatchError("factor and cofactor over different fields")
    return FactorizedForm(factor, cofactor, n, tuple(terms) if terms else None)


def delta_t_eval(
    x: FactorizedForm, alpha: SymbolicInvariant, t: int
):
    """Descent value: the symbol of the first t factor slots times the
    value of alpha on the remaining product.  alpha must be normalized and
    live at level n - t."""
    if t > x.r:
        raise ValueError(f"descent depth {t} exceeds factor length {x.r}")
    if not is_normalized(alpha):
        raise ValueError("descent is only defined for normalized invariants")
    if alpha.n != x.n - t:
        raise ValueError(f"invariant level {alpha.n} does not match I^{x.n - t}")
    rest = x.cofactor
    if x.r > t:
        rest = witt_canonical(pfister(list(x.factor[t:]))) * rest
    if t == 0:
        return evaluate(alpha, rest)
    return TARGETS[alpha.mode].symbol(x.factor[:t]) * evaluate(alpha, rest)


def _certified_scalars(a: SquareClass) -> list[SquareClass]:
    """Square classes certified to be represented by <<a>> = <1, -a>."""
    one = sc_one(a.field)
    return [c for c in enumerate_sc(a.field) if represented_by_binary(c, a, one)]


def alt_factorizations(
    x: FactorizedForm, budget: int, rng: Random
) -> list[FactorizedForm]:
    """Provably equivalent factorizations of x.product(), for r = 1.

    Move (i) keeps the scalar and perturbs the cofactor by <<c>> q0 with c
    certified represented by <<a>>; move (ii) swaps the scalar a for b when
    every certified block scalar of the cofactor is represented by <<ab>>.
    Every output is checked to have the same Witt class product.
    """
    if x.r != 1:
        raise ValueError("alternative factorizations are generated for r = 1 only")
    a = x.factor[0]
    field = x.field
    expected = x.product()
    out = [x]

    certified = _certified_scalars(a)
    classes = enumerate_sc(field)
    while len(out) < budget and certified:
        c = rng.choice(certified)
        level = x.n - 1  # the cofactor lives in I^(n-1)
        if level - 1 <= 0:
            q0 = GwElement.diag(rng.choice(classes), rng.choice(classes))
        else:
            slots = [rng.choice(classes) for _ in range(level - 1)]
            q0 = pfister(slots)
        perturbed = x.cofactor + witt_canonical(pfister([c]) * q0)
        cand = FactorizedForm((a,), perturbed, x.n, None)
        if cand.product() != expected:
            raise ConsistencyError("certified cofactor move changed the product")
        out.append(cand)
        if len(out) >= max(2, budget // 2):
            break

    if x.terms is not None:
        for b in classes:
            if len(out) >= budget:
                break
            if b == a:
                continue
            if all(represented_by_binary(c, a, b) for _, c in x.terms):
                cand = FactorizedForm((b,), x.cofactor, x.n, x.terms)
                if cand.product() != expected:
                    raise ConsistencyError("certified scalar swap changed the product")
                out.append(cand)
    return out[:budget]


def lemma_factor_check(
    a: SquareClass,
    b: SquareClass,
    terms,
    k: int,
) -> bool:
    """Exact check that <<a>> and <<b>> agree after multiplying the k-th
    exterior power of sum(<x_i> <<c_i>>-hat), for certified c_i."""
    terms = list(terms)
    for _, c in terms:
        if not represented_by_binary(c, a, b):
            raise ValueError(f"block scalar {c} is not certified for <<{a}*{b}>>")
    field = a.field
    q = GwElement.zero(field)
    for xi, ci in terms:
        q = q + GwElement.diag(xi) * gpfister([ci])
    lam = lambda_power(k, q)
    lhs = witt_canonical(pfister([a]) * lam)
    rhs = witt_canonical(pfister([b]) * lam)
    return lhs == rhs

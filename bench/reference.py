"""Reference checks that do not share the code path being timed.

* verify: the report must be well formed, match its config and have no
  failed case.
* eval: the expected value is rebuilt from the Pfister-sum expansion.  With
  q = sum of e_i * phi_i (phi_i n-fold Pfister forms, e_i = +-1), the total
  f-series is multiplicative, f_t(phi) = 1 + {phi} t and
  f_d(-phi) = (-1)^d {-1}^(n(d-1)) {phi}.  It is multiplied out with Witt
  and cohomology arithmetic only, never through `divided`, `invariants` or
  `series`; the printed answer is parsed back into a class and compared.
* series: plain integer arithmetic checks x o h = t, h o x = t, a + b = x
  (a even, b odd) and the level recursion x_{k+1} = x_k + 2^(k-1) x_k^2.
"""

from __future__ import annotations

import json

from gwinv.cohomology import CohClass, minus_one_power, symbol
from gwinv.fields import SquareClass, parse_field, parse_sc
from gwinv.witt import GwElement, WittClass, pfister, witt_canonical

REPORT_KEYS = {"suite", "config", "cases_total", "cases_failed", "first_failure"}


# ---------------------------------------------------------------------------
# verify


def check_report(report, suite: str, config: dict) -> bool:
    return (
        isinstance(report, dict)
        and set(report) == REPORT_KEYS
        and report["suite"] == suite
        and report["config"] == config
        and isinstance(report["cases_total"], int)
        and report["cases_total"] > 0
        and report["cases_failed"] == 0
        and report["first_failure"] is None
    )


# ---------------------------------------------------------------------------
# eval


class _Values:
    """Unit, zero, {phi} and multiplication by {-1}^k and by integers in one
    value ring (W or H) of a field.  In W, {-1} = <<-1>> = <1,1> = 2, so both
    scalings are doublings and additions of Witt classes."""

    def __init__(self, field, mode: str):
        self.field = field
        self.mode = mode
        if mode == "W":
            self.one = witt_canonical(GwElement.unit(field))
            self.zero = witt_canonical(GwElement.zero(field))
        else:
            self.one = CohClass.one(field)
            self.zero = CohClass.zero(field)
            self._eps_pows = {}

    def pf_symbol(self, classes):
        if self.mode == "W":
            return witt_canonical(pfister(classes))
        return symbol(classes)

    def times_eps(self, x, k: int):
        if self.mode == "W":
            for _ in range(k):
                x = x + x
            return x
        if k not in self._eps_pows:
            self._eps_pows[k] = minus_one_power(self.field, k)
        return self._eps_pows[k] * x

    def times_int(self, x, c: int):
        """c * x by doubling and adding, independent of WittClass.int_mul."""
        if self.mode == "H":
            return x if c % 2 else self.zero
        out, step, k = self.zero, (x if c >= 0 else -x), abs(c)
        while k:
            if k & 1:
                out = out + step
            step = step + step
            k >>= 1
        return out


def f_values(req, vals: _Values, top: int) -> list:
    """[f_0(q), ..., f_top(q)] by the Pfister-sum expansion.  Multiplying
    the running series by 1 + {phi} g(t), g with scalar coefficients, costs
    one product with {phi} per degree."""
    total = [vals.one] + [vals.zero] * top
    for sign, masks in req.pfs:
        phi = vals.pf_symbol([SquareClass(vals.field, m) for m in masks])
        new = total[:1]
        for d in range(1, top + 1):
            if sign > 0:
                acc = total[d - 1]
            else:
                # g_k = (-1)^k {-1}^(n(k-1)); the sign only matters in W
                acc = vals.zero
                for k in range(1, d + 1):
                    term = vals.times_eps(total[d - k], req.n * (k - 1))
                    acc = acc + (-term if k % 2 and vals.mode == "W" else term)
            new.append(total[d] + phi * acc)
        total = new
    return total


def expected_eval(req):
    """The value `gwinv eval` must print for a request inside I^n."""
    field = parse_field(req.field_text)
    vals = _Values(field, req.mode)
    top = max(sum(degs) for _, _, degs in req.inv)
    f = f_values(req, vals, top)
    out = vals.zero
    for c, j, degs in req.inv:
        term = vals.one
        for d in degs:
            term = term * f[d]
        out = out + vals.times_int(vals.times_eps(term, j), c)
    return out


def parse_witt_text(text: str, field) -> WittClass:
    """Witt class of a printed diagonal form '<a,b,...>' (or '0')."""
    if text == "0":
        return witt_canonical(GwElement.zero(field))
    if not (text.startswith("<") and text.endswith(">")):
        raise ValueError(f"not a diagonal form: {text[:40]!r}")
    return witt_canonical(GwElement.diag(*(parse_sc(t, field) for t in text[1:-1].split(","))))


def parse_coh_text(text: str, field) -> CohClass:
    """Cohomology class of a printed sum of cup monomials (or '0')."""
    if text == "0":
        return CohClass.zero(field)
    monos = set()
    for mono in text.split(" + "):
        base_exp, var_mask = 0, 0
        if mono != "1":
            for factor in mono.split("."):
                head, _, power = factor.partition("^")
                if not (head.startswith("(") and head.endswith(")")):
                    raise ValueError(f"bad factor {factor!r}")
                gen, k = head[1:-1], int(power or 1)
                if gen in ("-1", "u"):
                    base_exp += k
                elif k == 1 and gen in field.vars and not var_mask >> field.vars.index(gen) & 1:
                    var_mask |= 1 << field.vars.index(gen)
                else:
                    raise ValueError(f"bad factor {factor!r}")
        if (base_exp, var_mask) in monos:
            raise ValueError(f"repeated monomial {mono!r}")
        monos.add((base_exp, var_mask))
    return CohClass(field, frozenset(monos))


def check_eval(req, rc: int, out: str, expected) -> bool:
    """`expected` is `expected_eval(req)`, or None for a request outside I^n."""
    if req.expect_exit:
        return rc == req.expect_exit and out == ""
    if rc != 0 or not out.endswith("\n") or out.count("\n") != 1:
        return False
    field = parse_field(req.field_text)
    parse = parse_witt_text if req.mode == "W" else parse_coh_text
    try:
        return parse(out[:-1], field) == expected
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# series


def _mul(p: list[int], q: list[int], top: int) -> list[int]:
    out = [0] * (top + 1)
    for i, a in enumerate(p[: top + 1]):
        if a:
            for j, b in enumerate(q[: top + 1 - i]):
                out[i + j] += a * b
    return out


def _compose(f: list[int], g: list[int]) -> list[int]:
    top = len(f) - 1
    acc = [f[top]] + [0] * top
    for d in range(top - 1, -1, -1):
        acc = _mul(acc, g, top)
        acc[0] += f[d]
    return acc


def level_series(n: int, prec: int) -> list[int]:
    """x_n from x_1 = t/(1-t) and x_{k+1} = x_k + 2^(k-1) x_k^2."""
    x = [0] + [1] * prec
    for k in range(1, n):
        sq = _mul(x, x, prec)
        x = [a + (b << (k - 1)) for a, b in zip(x, sq)]
    return x


def check_series(n: int, prec: int, rc: int, out: str) -> bool:
    if rc != 0:
        return False
    try:
        data = json.loads(out)
    except ValueError:
        return False
    if not isinstance(data, dict) or set(data) != {"x", "h", "a", "b"}:
        return False
    rows = [data[k] for k in ("x", "h", "a", "b")]
    if any(len(r) != prec + 1 or not all(type(c) is int for c in r) for r in rows):
        return False
    x, h, a, b = rows
    t = [0, 1] + [0] * (prec - 1)
    return (
        x == level_series(n, prec)
        and all(a[d] + b[d] == x[d] for d in range(prec + 1))
        and not any(a[1::2])
        and not any(b[0::2])
        and _compose(x, h) == t
        and _compose(h, x) == t
    )

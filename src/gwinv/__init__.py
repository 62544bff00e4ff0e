"""Exact divided-power operations and invariants of quadratic forms over
computable field towers: Grothendieck-Witt arithmetic, mod-2 cohomology,
the f/g invariant families, a symbolic invariant algebra, and identity
verification suites.

The public names are resolved on first access (PEP 562), so ``import gwinv``
loads no submodule and a command loads only the modules it uses."""

from importlib import import_module as _import_module

# each submodule that ``gwinv`` exports, with the names it re-exports
_EXPORTS = {
    "cohomology": "CohClass coh_residue e_n symbol",
    "divided": "H_TARGET InvariantTarget RunConfig W_TARGET eval_f eval_fixed_dim eval_pi eval_sw",
    "factorized": "FactorizedForm alt_factorizations delta_t_eval lemma_factor_check make_factorized",
    "fields": "FieldDescriptor SquareClass enumerate_sc minus_one parse_field parse_sc "
    "represented_by_binary sc_gen sc_one",
    "invariants": "SymbolicInvariant eval_g evaluate from_g g_coeffs omega_t parse_invariant phi "
    "product psi_tilde restrict",
    "sampling": "",
    "series": "build_h build_x catalan even_odd_split ext_binom multinomial_C",
    "verify": "SUITES run_suite",
    "witt": "GwElement WittClass gpfister hat_lift is_in_In lambda_power parse_form pfister "
    "second_residue witt_canonical",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

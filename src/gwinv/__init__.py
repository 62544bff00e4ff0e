"""Exact divided-power operations and invariants of quadratic forms over
computable field towers: Grothendieck-Witt arithmetic, mod-2 cohomology,
the f/g invariant families, a symbolic invariant algebra, and identity
verification suites."""

from .cohomology import CohClass, coh_residue, e_n, symbol
from .divided import (
    H_TARGET,
    InvariantTarget,
    W_TARGET,
    eval_f,
    eval_fixed_dim,
    eval_pi,
    eval_sw,
)
from .factorized import (
    FactorizedForm,
    alt_factorizations,
    delta_t_eval,
    lemma_factor_check,
    make_factorized,
)
from .fields import (
    FieldDescriptor,
    SquareClass,
    enumerate_sc,
    minus_one,
    parse_field,
    parse_sc,
    represented_by_binary,
    sc_gen,
    sc_one,
)
from .invariants import (
    SymbolicInvariant,
    eval_g,
    evaluate,
    from_g,
    g_coeffs,
    omega_t,
    parse_invariant,
    phi,
    product,
    psi_tilde,
    restrict,
)
from .series import (
    build_h,
    build_x,
    catalan,
    even_odd_split,
    ext_binom,
    multinomial_C,
)
from .verify import RunConfig, SUITES, run_suite
from .witt import (
    GwElement,
    WittClass,
    gpfister,
    gw_equal,
    hat_lift,
    is_in_In,
    lambda_power,
    parse_form,
    pfister,
    second_residue,
    witt_canonical,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Exact formal-distribution calculus, fermionic Fock modules, and a
verification harness for the q = -1 deformed Virasoro correspondence.

Everything is computed over exact coefficient fields (Q or Q(p)) on explicit
exponent windows; identities are certified coefficient-wise on recorded
windows chosen to overdetermine the structures they assert.
"""

from .scalars import Poly, Rational, RatFunc, ScalarField, normalize, power, specialize
from .series import (
    FactoredRational,
    TruncatedSeries,
    binom_expand,
    exp_of_series,
    iota_expand,
    log_series,
    partial_fractions,
    subst_exp,
)
from .distributions import (
    DeltaSum,
    DeltaTerm,
    annihilation_check,
    delta_agree,
    delta_decompose,
    delta_expand,
    delta_fit,
    substitute_diag,
    three_term_check,
    vanishing_order,
)
from .fock import CarSpec, FockModule, FockVector, e_spec, t_spec
from .fieldcalc import (
    CovariantStructure,
    FieldOperator,
    LocalityDatum,
    assoc_check,
    commutator_formula_check,
    compat_check,
    covariance_check,
    locality_check,
    product_on_window,
    residue_ye,
    scaled_mode_extract,
    ye_product,
)
from .dvir import (
    DVirParams,
    DVirRelationReport,
    central_term,
    f_coefficients,
    t_fock,
    theorem58_suite,
    theorem59_suite,
    vir_relation_check,
)
from .suites import CheckResult, SuiteConfig, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

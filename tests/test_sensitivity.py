"""Planted faults and the exact ids each one stops from passing.

Each row monkeypatches one function of the program in process (under
every name a module imports it by, where the row lists several owners) and runs
``verify all`` at criterion 10's settings: p = 2, grade 3, flavors -1..1,
z-order 5, one process.  With no fault every id passes there (criterion 10
in ``tests/test_acceptance.py``), so the ids a row lists are exactly those
its fault stops.  A check that stops catching a fault shows up here as a
missing id.
"""

from fractions import Fraction

import pytest

import fdcalc.distributions as distributions
import fdcalc.dvir as dv
import fdcalc.fieldcalc as fieldcalc
import fdcalc.series as series
import fdcalc.suites as suites
from fdcalc.distributions import DeltaTerm, unit_coeff
from fdcalc.fieldcalc import FieldOperator
from fdcalc.fock import CarSpec, FockModule
from fdcalc.scalars import power
from fdcalc.series import FactoredRational, var_scaled
from fdcalc.suites import SuiteConfig, run_suite

CRITERION_10 = SuiteConfig(
    suite="all", p=Fraction(2), grade=3, flavor_lo=-1, flavor_hi=1, zorder=5
)
_pairing = CarSpec.pairing
_central_term = dv.central_term
_exp_arg_dict = FactoredRational.exp_arg_dict
_scaled = FieldOperator.scaled
_apply_field = FockModule.apply_field
_creation_generators = FockModule.creation_generators
_ann_bound = FockModule.ann_bound
_exp_1v = dv.exp_1v
_factor_asc = series._factor_asc
_delta_expand = distributions.delta_expand
_delta_fit = distributions.delta_fit
_diagonal_collapse = distributions.diagonal_collapse
_log1p_dict = series.log1p_dict


def _t_pairing_off_by_one(self, r, m, s, n):
    """{T_2, T_-2} off by one in the order the mode action reads it: T_2
    acting on T_-2."""
    out = _pairing(self, r, m, s, n)
    return out + 1 if self.kind == "T" and (m, n) == (2, -2) else out


def _t_pairing_off_by_one_both_orders(self, r, m, s, n):
    """{T_2, T_-2} off by one in both orders: the mode action stays
    self-consistent, so only a pairing stated apart from ``CarSpec`` sees
    that it changed."""
    out = _pairing(self, r, m, s, n)
    return out + 1 if self.kind == "T" and (m, n) in ((2, -2), (-2, 2)) else out


def _e_pairing_tripled(self, r, m, s, n):
    """The E pairing tripled at the neighbor pair (0, 1)."""
    out = _pairing(self, r, m, s, n)
    return 3 * out if self.kind == "E" and (r, s) == (0, 1) else out


def _e_pairing_tripled_both_orders(self, r, m, s, n):
    """The E pairing tripled at (0, 1) and (1, 0): self-consistent for the
    mode action, so only a closed form stated apart from ``CarSpec`` sees it."""
    out = _pairing(self, r, m, s, n)
    return 3 * out if self.kind == "E" and {r, s} == {0, 1} else out


def _central_term_negated(params, m):
    return -_central_term(params, m)


def _unit_coefficient_doubled(t):
    """p(e^z) = z^k * unit with the unit's z^t coefficient doubled: the
    division that splits a substituted product into z-modes."""

    def exp_arg_dict(self, order):
        k, unit = _exp_arg_dict(self, order)
        return k, {e: 2 * c if e == t else c for e, c in unit.items()}

    return exp_arg_dict


def _t0_square_raised(self, r, m, s, n):
    """{T_0, T_0} raised by one: the square branch of the mode action reads
    it, so T_0 T_0 w is off, and so is every word with two T_0."""
    out = _pairing(self, r, m, s, n)
    return out + 1 if self.kind == "T" and (m, n) == (0, 0) else out


def _scaled_squared(self, mu):
    return _scaled(self, mu * mu)


def _apply_field_scale_twice(self, r, scale, w, hi):
    out = _apply_field(self, r, scale, w, hi)
    return var_scaled(out, "x", scale) if scale != 1 else out


def _creation_generators_without_zero_mode(self, max_weight):
    return [g for g in _creation_generators(self, max_weight) if g[1] != 0]


def _ann_bound_one_low(self, w):
    return _ann_bound(self, w) - 1


def _exp_1v_z3_raised(g, order):
    out = dict(_exp_1v(g, order))
    if order >= 3:
        out[3] = out.get(3, 0) + 1
    return out


def _factor_asc_square_linear_tripled(root, mult, span):
    """(y - root)^2 with its linear coefficient tripled."""
    out = _factor_asc(root, mult, span)
    return {i: 3 * c if (mult, i) == (2, 1) else c for i, c in out.items()}


def _delta_expand_derivatives_doubled(term, v1, v2, limits):
    out = _delta_expand(term, v1, v2, limits)
    return out.scaled(2) if term.j >= 1 else out


def _delta_fit_spurious_on_zero(D, lambdas, jmax, v1, v2):
    """One spurious term for a series with no coefficients."""
    fit = _delta_fit(D, lambdas, jmax, v1, v2)
    if D.coeffs:
        return fit
    return [DeltaTerm(list(lambdas)[0], 0, unit_coeff(v2))]


def _diagonal_collapse_inverted(s, var, target, lam=1):
    return _diagonal_collapse(s, var, target, power(lam, -1))


def _log1p_second_negated(order):
    return {n: -c if n == 2 else c for n, c in _log1p_dict(order).items()}


ROWS = {
    "t-pairing-off-by-one": (
        CarSpec,
        "pairing",
        _t_pairing_off_by_one,
        {
            "anticommutator-delta-kernel": "fail",
            "car-anticommutators": "fail",
            "commutator-formula-matrix": "fail",
            "defect-factorization": "fail",
            "mode-extracted-pairing": "fail",
            "realized-field-relations": "fail",
            "residue-formula-agreement": "fail",
            # its trials stop at the first disagreement, too few to decide
            "residue-top-mode": "undetermined",
            "tfock-relations": "fail",
            "trig-locality": "fail",
        },
    ),
    "t-pairing-off-by-one-both-orders": (
        CarSpec,
        "pairing",
        _t_pairing_off_by_one_both_orders,
        {
            "anticommutator-delta-kernel": "fail",
            "car-anticommutators": "fail",
            "commutator-formula-matrix": "fail",
            "defect-factorization": "fail",
            "mode-extracted-pairing": "fail",
            "realized-field-relations": "fail",
            "residue-formula-agreement": "fail",
            "residue-top-mode": "undetermined",
            "tfock-relations": "fail",
            "trig-locality": "fail",
        },
    ),
    "e-pairing-tripled": (
        CarSpec,
        "pairing",
        _e_pairing_tripled,
        {
            "adjoint-module-kernels": "fail",
            "car-anticommutators": "fail",
            "clifford-mode-products": "fail",
        },
    ),
    "e-pairing-tripled-both-orders": (
        CarSpec,
        "pairing",
        _e_pairing_tripled_both_orders,
        {
            "adjoint-module-kernels": "fail",
            "car-anticommutators": "fail",
            "clifford-mode-products": "fail",
        },
    ),
    "central-term-negated": (
        dv,
        "central_term",
        _central_term_negated,
        {
            "central-term-hand-oracle": "fail",
            "realized-field-relations": "fail",
            "tfock-relations": "fail",
        },
    ),
    "exp-unit-z0-doubled": (
        FactoredRational,
        "exp_arg_dict",
        _unit_coefficient_doubled(0),
        {
            "adjoint-module-kernels": "fail",
            "anticommutator-delta-kernel": "fail",
            "commutator-formula-matrix": "fail",
            "exp-substitution-associativity": "fail",
            "mode-product-well-defined": "fail",
            "residue-top-mode": "fail",
            "top-mode-identity": "fail",
        },
    ),
    "exp-unit-z1-doubled": (
        FactoredRational,
        "exp_arg_dict",
        _unit_coefficient_doubled(1),
        {
            "exp-substitution-associativity": "fail",
            "mode-product-well-defined": "fail",
        },
    ),
    "t0-square-raised": (
        CarSpec,
        "pairing",
        _t0_square_raised,
        {
            "anticommutator-delta-kernel": "fail",
            "car-anticommutators": "fail",
            "central-term-hand-oracle": "fail",
            "commutator-formula-matrix": "fail",
            "defect-factorization": "fail",
            "mode-extracted-pairing": "fail",
            "mode-square": "fail",
            "realized-field-relations": "fail",
            "tfock-relations": "fail",
            "trig-locality": "fail",
        },
    ),
    "field-scaled-by-mu-squared": (
        FieldOperator,
        "scaled",
        _scaled_squared,
        {
            # the commutator check rescales the partner fields with it
            "anticommutator-delta-kernel": "fail",
            "commutator-formula-matrix": "fail",
            "covariance-rescaling": "fail",
        },
    ),
    "apply-field-scales-twice": (
        FockModule,
        "apply_field",
        _apply_field_scale_twice,
        {"field-scaling": "fail"},
    ),
    "basis-without-zero-mode": (
        FockModule,
        "creation_generators",
        _creation_generators_without_zero_mode,
        {"graded-dimensions": "fail"},
    ),
    "ann-bound-one-low": (
        FockModule,
        "ann_bound",
        _ann_bound_one_low,
        {
            "adjoint-module-kernels": "fail",
            "anticommutator-delta-kernel": "fail",
            "commutator-formula-matrix": "fail",
            "defect-factorization": "fail",
            "mode-extracted-pairing": "fail",
            "mode-product-well-defined": "fail",
            "residue-formula-agreement": "fail",
            "residue-top-mode": "fail",
            "restriction-certificate": "fail",
            "top-mode-identity": "fail",
            "trig-locality": "fail",
        },
    ),
    "exp-z3-raised": (
        dv,
        "exp_1v",
        _exp_1v_z3_raised,
        {
            "realized-field-relations": "fail",
            "structure-series-closed-form": "fail",
            "tfock-relations": "fail",
        },
    ),
    "double-root-linear-tripled": (
        series,
        "_factor_asc",
        _factor_asc_square_linear_tripled,
        {
            "delta-annihilation-exhaustive": "fail",
            "delta-decompose-rational": "fail",
        },
    ),
    "delta-derivatives-doubled": (
        distributions,
        "delta_expand",
        _delta_expand_derivatives_doubled,
        {"delta-fit-roundtrip": "fail"},
    ),
    "delta-fit-spurious-on-zero": (
        (distributions, suites, fieldcalc),
        "delta_fit",
        _delta_fit_spurious_on_zero,
        {
            "adjoint-module-kernels": "fail",
            # an empty trial: its merged delta sum has no terms
            "delta-fit-roundtrip": "fail",
            "delta-fit-zero": "fail",
        },
    ),
    "diagonal-at-inverse": (
        distributions,
        "diagonal_collapse",
        _diagonal_collapse_inverted,
        {"vanishing-order": "fail"},
    ),
    "log1p-second-negated": (
        series,
        "log1p_dict",
        _log1p_second_negated,
        {"three-term-delta-log": "fail"},
    ),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_planted_fault_stops_exactly_these_ids(monkeypatch, row):
    owners, name, fault, stopped = ROWS[row]
    for owner in owners if isinstance(owners, tuple) else (owners,):
        monkeypatch.setattr(owner, name, fault)
    results = run_suite(CRITERION_10)
    assert len(results) == 28
    assert {r.check_id: r.status for r in results if r.status != "pass"} == stopped

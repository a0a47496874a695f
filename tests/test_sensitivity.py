"""Planted faults and the exact ids each one stops from passing.

Each row monkeypatches one function of the program in process and runs
``verify all`` at criterion 10's settings: p = 2, grade 3, flavors -1..1,
z-order 5, one process.  With no fault every id passes there (criterion 10
in ``tests/test_acceptance.py``), so the ids a row lists are exactly those
its fault stops.  A check that stops catching a fault shows up here as a
missing id.
"""

from fractions import Fraction

import pytest

import fdcalc.dvir as dv
from fdcalc.fock import CarSpec
from fdcalc.series import FactoredRational
from fdcalc.suites import SuiteConfig, run_suite

CRITERION_10 = SuiteConfig(
    suite="all", p=Fraction(2), grade=3, flavor_lo=-1, flavor_hi=1, zorder=5
)
_pairing = CarSpec.pairing
_central_term = dv.central_term
_exp_arg_dict = FactoredRational.exp_arg_dict


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
}


@pytest.mark.parametrize("row", list(ROWS))
def test_planted_fault_stops_exactly_these_ids(monkeypatch, row):
    owner, name, fault, stopped = ROWS[row]
    monkeypatch.setattr(owner, name, fault)
    results = run_suite(CRITERION_10)
    assert len(results) == 28
    assert {r.check_id: r.status for r in results if r.status != "pass"} == stopped

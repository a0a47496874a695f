from fractions import Fraction

import pytest

from fdcalc.dvir import (
    DVirParams,
    central_term,
    f_coefficients,
    neighbor_locality,
    realization,
    standard_annihilator,
    t_fock,
    theorem58_suite,
    theorem59_suite,
    vir_relation_check,
)
from fdcalc.fieldcalc import covariance_check, CovariantStructure, FieldOperator
from fdcalc.scalars import RatFunc, specialize
from fdcalc.series import mul_trunc_1v

F = Fraction
p = RatFunc.p()
SYM = DVirParams.symbolic()
AT2 = DVirParams.at(F(2))


def test_f_closed_form_symbolic():
    fs = f_coefficients(SYM, 12)
    assert fs[0] == 1
    assert all(x == 2 for x in fs[1:])


def test_f_degenerate_q_one():
    fs = f_coefficients(DVirParams.at(F(2), q=1), 5)
    assert fs[0] == 1 and all(x == 0 for x in fs[1:])


def test_f_rational_independent_oracle():
    # direct series arithmetic at (p0, q0) = (2, 3): build the exponent series
    # term by term and exponentiate with a separate kernel
    p0, q0 = F(2), F(3)
    N = 6
    g = {}
    for n in range(1, N + 1):
        g[n] = (1 - q0**n) * (1 - (p0 / q0) ** n) / (1 + p0**n) / n
    # exponentiate by summing g^k/k! with plain truncated products
    acc = {0: F(1)}
    powg = {0: F(1)}
    fact = 1
    for k in range(1, N + 1):
        powg = mul_trunc_1v(powg, g, N)
        fact *= k
        for e, c in powg.items():
            acc[e] = acc.get(e, F(0)) + c / fact
    got = f_coefficients(DVirParams.at(p0, q=q0), N)
    for l in range(N + 1):
        assert got[l] == acc.get(l, F(0)), l


def test_f_specialization_commutes():
    sym = f_coefficients(SYM, 8)
    rat = f_coefficients(AT2, 8)
    assert [specialize(x, F(2)) for x in sym] == list(rat)


def test_central_term_values():
    assert central_term(SYM, 0) == 0
    c1 = central_term(SYM, 1)
    assert c1 == -2 * ((1 + p) / (1 - p)) * (p - p**-1)
    assert c1 == 2 * (p + 2 + p**-1)
    assert central_term(AT2, 1) == 9
    assert specialize(c1, F(2)) == 9
    assert central_term(SYM, 2) == -2 * ((1 + p) / (1 - p)) * (p**2 - p**-2)
    assert central_term(SYM, -1) == -c1


def test_t_fock_pairing():
    M = t_fock(SYM)
    vac = M.vacuum()
    assert M.apply_mode("T", 1, M.apply_mode("T", -1, vac)) == (2 * (p + p**-1)) * vac
    assert not M.apply_mode("T", 2, M.apply_mode("T", -1, vac))
    assert M.apply_mode("T", 0, M.apply_mode("T", 0, vac)) == 2 * vac
    with pytest.raises(ValueError):
        t_fock(DVirParams.at(F(2), q=1))


def test_relation_hand_oracle():
    M = t_fock(SYM)
    rep = vir_relation_check(M, SYM, 1, -1, 0)
    assert not rep.defect and rep.stable
    assert rep.central == 2 * (p + 2 + p**-1)
    rep0 = vir_relation_check(M, SYM, 0, 0, 2)
    assert not rep0.defect and rep0.central == 0


def test_relations_grade4_both_modes():
    for params in (SYM, AT2):
        M = t_fock(params)
        for m in range(-3, 4):
            for n in range(-3, 4):
                rep = vir_relation_check(M, params, m, n, 4, extend=3)
                assert not rep.defect, (params, m, n, rep.defect)
                assert rep.stable, (params, m, n)


def test_relation_specialization_commutes():
    # the symbolic left side specializes to the rational left side
    Ms, Mr = t_fock(SYM), t_fock(AT2)
    for (m, n) in ((2, -2), (3, -1), (1, 1)):
        reps = vir_relation_check(Ms, SYM, m, n, 3)
        repr_ = vir_relation_check(Mr, AT2, m, n, 3)
        assert not reps.defect and not repr_.defect
        assert specialize(reps.central, F(2)) == repr_.central


def test_standard_annihilator_roots():
    fld = SYM.field
    ann = standard_annihilator(SYM, 2, 1)
    roots = set(map(repr, ann.roots()))
    assert repr(fld.p_power(0)) in roots and repr(fld.p_power(-2)) in roots
    assert repr(-fld.p_power(-1)) in roots
    mini = standard_annihilator(SYM, 2, 1, with_extra=False)
    assert len(mini.roots()) == 2


def test_theorem58_suite_small():
    results = theorem58_suite(AT2, flavor_lo=-1, flavor_hi=1, grade_bound=3, zorder=5)
    assert {cid for cid, _, _ in results} == {
        "trig-locality",
        "anticommutator-delta-kernel",
        "covariance-rescaling",
        "exp-substitution-associativity",
        "top-mode-identity",
    }
    for cid, ok, detail in results:
        assert ok, (cid, detail)


def test_theorem58_wrong_scaling_fails():
    module, C = realization(AT2)
    fld = AT2.field
    Cbad = CovariantStructure(
        realize=lambda r: FieldOperator(module, "T", fld.p_power(2 * r)),
        chi=C.chi,
        shift_lo=-3,
        shift_hi=3,
    )
    assert not covariance_check(Cbad, 1, 1, 2, 5)[0]


def test_theorem59_suite_small():
    results = theorem59_suite(AT2, mode_bound=2, grade_bound=3)
    for cid, ok, detail in results:
        assert ok, (cid, detail)
    assert {cid for cid, _, _ in results} == {
        "realized-field-relations",
        "defect-factorization",
        "mode-extracted-pairing",
    }


def test_theorem59_symbolic_smoke():
    results = theorem59_suite(SYM, mode_bound=1, grade_bound=2)
    for cid, ok, detail in results:
        assert ok, (cid, detail)


def test_suites_mutually_consistent():
    # the pairing extracted from the realized fields in the second suite is
    # exactly the pairing that builds the module used by the first suite
    params = AT2
    module, _ = realization(params)
    L = neighbor_locality(params, module, 1, 1)
    assert repr(L.annihilator.roots()) == repr(
        standard_annihilator(params, 1, 1).roots()
    )
    results = dict((cid, ok) for cid, ok, _ in theorem59_suite(params, 2, 3))
    assert results["mode-extracted-pairing"]


@pytest.mark.parametrize("p0, q0", [(F(2), F(3)), (F(3, 2), F(-2, 5)), (None, F(-1))])
def test_f_coefficients_against_sympy_series(p0, q0):
    sp = pytest.importorskip("sympy")
    z, ps = sp.symbols("z p")
    N = 10
    pv = ps if p0 is None else sp.Rational(p0.numerator, p0.denominator)
    qv = sp.Rational(q0.numerator, q0.denominator)
    t = qv / pv
    # exp of the sum is the product of the exps of its terms: sympy.series
    # expands each factor, and the product is cut at z^N as it grows
    s = sp.Integer(1)
    for n in range(1, N + 1):
        c = sp.cancel((1 - qv**n) * (1 - t**-n) / (1 + pv**n) / n)
        s = sp.expand(s * sp.series(sp.exp(c * z**n), z, 0, N + 1).removeO())
        s = sum(s.coeff(z, l) * z**l for l in range(N + 1))
    got = f_coefficients(SYM if p0 is None else DVirParams.at(p0, q=q0), N)

    def to_sympy(x):
        if isinstance(x, RatFunc):
            num, den = (sum(sp.Rational(c.numerator, c.denominator) * ps**i
                            for i, c in enumerate(poly.coeffs)) for poly in (x.num, x.den))
            return num / den
        return sp.Rational(x.numerator, x.denominator)

    assert len(got) == N + 1
    for l in range(N + 1):
        assert sp.cancel(to_sympy(got[l]) - s.coeff(z, l)) == 0, l

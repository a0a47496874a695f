import random
from fractions import Fraction

import pytest

import fdcalc.dvir as dv
from fdcalc.dvir import (
    DVirParams,
    DVirRelationReport,
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
from fdcalc.fock import FlavorOutOfWindow, FockModule, FockVector, e_spec
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
    rat3 = f_coefficients(DVirParams.at(F(3)), 8)
    assert [specialize(x, F(3)) for x in sym] == list(rat3)


def test_a_fresh_params_object_computes_its_own_f_table(monkeypatch):
    warm = DVirParams.at(2)
    clean = f_coefficients(warm, 8)
    exp_1v = dv.exp_1v

    def faulted(g, order):
        e = exp_1v(g, order)
        e[1] += 1
        return e

    monkeypatch.setattr(dv, "exp_1v", faulted)
    fresh = DVirParams.at(2)
    assert fresh == warm and hash(fresh) == hash(warm)
    assert f_coefficients(fresh, 8) == [clean[0], clean[1] + 1] + clean[2:]
    assert f_coefficients(warm, 8) == clean


def test_a_relation_grid_computes_its_f_table_once(monkeypatch):
    calls = []
    inner = dv._f_coefficients

    def counted(params, N):
        calls.append(N)
        return inner(params, N)

    monkeypatch.setattr(dv, "_f_coefficients", counted)
    params = DVirParams.symbolic()
    # relations-symbolic's grid: 9 x 9 relations, grade 6, extend 5
    assert list(dv.relation_failures(t_fock(params), params, 4, 6, 5)) == []
    assert len(calls) == 1


def test_central_terms_specialize_at_two_and_three():
    for p0 in (F(2), F(3)):
        at = DVirParams.at(p0)
        for m in range(-3, 4):
            assert central_term(at, m) == specialize(central_term(SYM, m), p0), (p0, m)


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


def reference_relation_check(module, params, m, n, grade_bound, extend=5):
    """vir_relation_check with every word T_a T_b w built by two apply_mode
    calls, and no word memo."""
    fld = params.field
    central = central_term(params, m) if m + n == 0 else fld.zero()
    worst = (FockVector(), None)
    max_len = 0
    stable = True
    fs = f_coefficients(params, max(0, grade_bound + 1 - min(m, n)) + extend)
    neg_fs = [-f for f in fs]
    for w in module.basis(grade_bound):
        bound = module.ann_bound(w)
        L = max(0, bound - min(m, n))
        max_len = max(max_len, L)

        def words(l):
            t1 = module.apply_mode("T", n + l, w)
            if t1:
                t1 = module.apply_mode("T", m - l, t1)
            t2 = module.apply_mode("T", m + l, w)
            if t2:
                t2 = module.apply_mode("T", n - l, t2)
            return t1, t2

        pairs = []
        for l in range(0, L + 1):
            t1, t2 = words(l)
            pairs += ((fs[l], t1), (neg_fs[l], t2))
        base = FockVector.lincomb(pairs)
        for l in range(L + 1, L + extend + 1):
            t1, t2 = words(l)
            if t1 != t2:
                stable = False
                break
        rhs = central * w if m + n == 0 else FockVector()
        defect = base - rhs
        if defect and worst[1] is None:
            worst = (defect, next(iter(w.terms)))
    return DVirRelationReport(m, n, central, max_len, worst[0], worst[1], stable)


GRID = [(m, n) for m in range(-3, 4) for n in range(-3, 4)]
MEMO_CASES = [  # (params the module is built from, params the relations are checked with)
    (SYM, SYM),
    (AT2, AT2),
    (DVirParams.at(F(3, 2)), DVirParams.at(F(3, 2))),
    (AT2, DVirParams.at(F(2), q=F(1, 2))),
]


def grid_reports(module, params, pairs, grade=4, extend=2):
    return {(m, n): vir_relation_check(module, params, m, n, grade, extend) for m, n in pairs}


@pytest.mark.parametrize("built, checked", MEMO_CASES,
                         ids=["symbolic", "p2", "p3/2", "p2-checked-q1/2"])
def test_word_memo_reports_equal_the_two_apply_mode_reference(built, checked):
    ref = t_fock(built)
    want = {(m, n): reference_relation_check(ref, checked, m, n, 4, 2) for m, n in GRID}
    if checked.q != -1:
        assert any(rep.defect for rep in want.values())
    module = t_fock(built)
    assert grid_reports(module, checked, GRID) == want  # fresh module
    shuffled = GRID[:]
    random.Random(7).shuffle(shuffled)
    assert grid_reports(module, checked, shuffled) == want  # warm module


def test_modules_never_share_word_memo_entries():
    M_sym, M2 = t_fock(SYM), t_fock(AT2)
    assert M_sym._words is not M2._words
    grid_reports(M_sym, SYM, GRID)
    assert M_sym._words and not M2._words
    # the keys agree across fields, so a shared entry would hand Q(p)
    # coefficients to the p = 2 module
    ref = t_fock(AT2)
    assert grid_reports(M2, AT2, GRID) == {
        (m, n): reference_relation_check(ref, AT2, m, n, 4, 2) for m, n in GRID
    }
    assert set(M2._words) == set(M_sym._words)
    shared = {id(v) for v in M_sym._words.values()} & {id(v) for v in M2._words.values()}
    assert all(not v for v in M2._words.values() if id(v) in shared)


def test_wrong_parameters_still_report_a_defect_on_a_warm_memo():
    module = t_fock(AT2)
    grid_reports(module, AT2, GRID, grade=6, extend=5)
    rep = vir_relation_check(module, DVirParams.at(F(3)), 1, -1, 6, extend=5)
    assert rep.defect and rep.defect_at is not None
    assert rep == reference_relation_check(t_fock(AT2), DVirParams.at(F(3)), 1, -1, 6, 5)


def test_second_grid_on_a_module_applies_no_mode(monkeypatch):
    calls = []
    apply_mode = FockModule.apply_mode

    def counted(self, r, n, w):
        calls.append((r, n))
        return apply_mode(self, r, n, w)

    monkeypatch.setattr(FockModule, "apply_mode", counted)
    grade, extend = 4, 2
    module = t_fock(SYM)
    first = grid_reports(module, SYM, GRID, grade, extend)
    assert len(calls) == len(module._words)
    calls.clear()
    assert grid_reports(module, SYM, GRID, grade, extend) == first
    assert calls == []

    # the memo holds exactly the distinct words whose first mode is nonzero
    # among those the check reaches: the words of the l-sum whose summed
    # coefficient is nonzero, and every word of the certificate terms
    ref = t_fock(SYM)
    fs = f_coefficients(SYM, 20)
    want = set()
    for m, n in GRID:
        for w in ref.basis(grade):
            (mono,) = w.terms
            L = max(0, ref.ann_bound(w) - min(m, n))
            summed = {}
            for l in range(L + 1):
                for a, b, f in ((m - l, n + l, fs[l]), (n - l, m + l, -fs[l])):
                    summed[a, b] = summed.get((a, b), 0) + f
            reached = [ab for ab, c in summed.items() if c]
            reached += [ab for l in range(L + 1, L + extend + 1)
                        for ab in ((m - l, n + l), (n - l, m + l))]
            for a, b in reached:
                if apply_mode(ref, "T", b, w):
                    want.add((("T", a), ("T", b), mono))
    assert set(module._words) == want


CRITERION2_GRID = [(m, n) for m in range(-4, 5) for n in range(-4, 5)]


@pytest.mark.parametrize("built, checked", [
    (SYM, SYM),
    (AT2, DVirParams.at(F(2), q=F(1, 2))),
    (AT2, DVirParams.at(F(3))),
], ids=["symbolic", "p2-checked-q1/2", "p2-checked-p3"])
def test_reports_equal_the_reference_at_criterion_2s_shape(built, checked):
    ref = t_fock(built)
    want = {(m, n): reference_relation_check(ref, checked, m, n, 6, 5)
            for m, n in CRITERION2_GRID}
    if checked != built:
        assert any(rep.defect for rep in want.values())
    assert grid_reports(t_fock(built), checked, CRITERION2_GRID, grade=6, extend=5) == want


@pytest.mark.parametrize("m, n, extend", [(1, 1, 0), (1, 1, 5), (1, -1, 5)])
def test_relation_check_refuses_a_module_without_t_modes(m, n, extend):
    module = FockModule(e_spec(SYM.field))
    with pytest.raises(FlavorOutOfWindow, match="kind 'E'"):
        vir_relation_check(module, SYM, m, n, 2, extend=extend)
    assert not module._memo and not module._words


def test_q_zero_is_rejected_at_construction():
    with pytest.raises(ValueError, match="q=0"):
        DVirParams.at(F(2), q=0)
    with pytest.raises(ValueError, match="q=0"):
        DVirParams(SYM.field, F(0))
    assert DVirParams.at(F(2), q=F(1, 2)).q == F(1, 2)


def test_inexact_specialization_points_are_rejected():
    # a float would specialize at its binary value, 3602879701896397/2**55 for 0.1
    for p0 in (0.1, 2.0, True):
        with pytest.raises(ValueError, match=f"p0 must be exact.*{p0!r}"):
            DVirParams.at(p0)
    for q in (0.1, -1.0, True, False):
        with pytest.raises(ValueError, match=f"q must be exact.*{q!r}"):
            DVirParams.at(2, q=q)
    with pytest.raises(ValueError, match="q must be exact"):
        DVirParams(SYM.field, 0.5)
    assert DVirParams.at(2, q=F(1, 10)).q == F(1, 10)
    assert DVirParams.at("2", q="1/10").field.p0 == 2
    # a string q is stored as its Fraction, so it compares, caches and
    # checks q = -1 like one
    assert DVirParams.at(2, q="1/2") == DVirParams.at(2, q=F(1, 2))
    assert DVirParams.at(2, q="-1").is_minus_one()
    assert f_coefficients(DVirParams(SYM.field, "-1"), 3) == f_coefficients(SYM, 3)
    assert DVirParams.at(F(1, 2)).field.p0 == F(1, 2)


def test_non_rational_p_or_q_strings_are_refused_with_their_value():
    for bad in ("1/0", "abc"):
        with pytest.raises(ValueError, match=f"p0 must be a rational.*{bad!r}"):
            DVirParams.at(bad)
        with pytest.raises(ValueError, match=f"q must be a rational.*{bad!r}"):
            DVirParams(SYM.field, q=bad)
        with pytest.raises(ValueError, match=f"q must be a rational.*{bad!r}"):
            DVirParams.at(2, q=bad)


def test_relation_check_rejects_negative_grade_and_extend():
    module = t_fock(AT2)
    with pytest.raises(ValueError, match="grade bound"):
        vir_relation_check(module, AT2, 1, -1, -1)
    with pytest.raises(ValueError, match="extend"):
        vir_relation_check(module, AT2, 1, -1, 2, extend=-1)
    rep = vir_relation_check(module, AT2, 1, -1, 2, extend=0)
    assert not rep.defect and rep.stable
    assert rep == reference_relation_check(t_fock(AT2), AT2, 1, -1, 2, extend=0)


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


def test_commutator_rule_checks_the_diagonal_pair_characters(monkeypatch):
    """Kernels at the right shifts that report the wrong characters fail the
    commutator-grid rule on the diagonal pairs, and only there."""
    module, C = realization(AT2)
    check = dv.commutator_formula_check

    def wrong_characters(*args, **kwargs):
        ok, ce, contrib = check(*args, **kwargs)
        return ok, ce, [(n, 2 * chi, js) for n, chi, js in contrib]

    box = {"x1": (-5, 5), "x2": (-5, 5)}
    grid = (AT2, C, [0, 1], [module.vacuum()], box, 5, 8, 2)
    assert not list(dv.commutator_failures(*grid))
    monkeypatch.setattr(dv, "commutator_formula_check", wrong_characters)
    fails = list(dv.commutator_failures(*grid))
    assert [(r, s) for r, s, *_ in fails] == [(0, 0), (1, 1)]
    assert all(what.startswith("diagonal pair kernels at") for *_, what in fails)


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

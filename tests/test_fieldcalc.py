import gc
import math
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

import fdcalc.dvir as dv
from fdcalc import fieldcalc
from fdcalc.distributions import DeltaTerm, delta_agree, delta_fit
from fdcalc.fock import CarSpec, FockModule, FockVector, e_spec, t_spec
from fdcalc.fieldcalc import (
    CompatibilityError,
    CovariantStructure,
    FieldOperator,
    LocalityDatum,
    assoc_check,
    commutator_formula_check,
    compat_check,
    _commutator_kernels,
    covariance_check,
    defect_series,
    laurent_annihilator,
    locality_check,
    modes_agree,
    product_on_window,
    quadrant_verdict,
    residue_ye,
    scaled_mode_extract,
    ye_from_product,
    ye_product,
)
from fdcalc.scalars import ScalarField, specialize
from fdcalc.series import (
    INF,
    NEG_INF,
    FactoredRational,
    InsufficientWindow,
    TruncatedSeries,
    divide_linear,
    var_scaled,
)

F = Fraction
Q2 = ScalarField.rationals(F(2))
QP = ScalarField.rational_functions()


def tfield(module, r):
    return FieldOperator(module, "T", module.field.p_power(r))


def minimal_p(fld, r, s):
    return FactoredRational(
        fld.one(), 0, ((fld.p_power(s + 1 - r), 1), (fld.p_power(s - 1 - r), 1))
    )


def witness_p(fld, r, s):
    return minimal_p(fld, r, s) * FactoredRational(
        fld.one(), 0, ((-fld.p_power(s - r), 1),)
    )


def neighbor_locality(module, r, s):
    fld = module.field
    a, b = tfield(module, r), tfield(module, s)
    return LocalityDatum(a, b, ((b, a, FactoredRational(-fld.one())),), witness_p(fld, r, s))


@pytest.fixture(scope="module")
def tmod():
    return FockModule(t_spec(Q2))


@pytest.fixture(scope="module")
def tsym():
    return FockModule(t_spec(QP))


def test_product_coefficients(tmod):
    vac = tmod.vacuum()
    prod = product_on_window(tfield(tmod, 0), "x1", tfield(tmod, 0), "x2", vac, 4, 4)
    # T_1 T_-1 vac with p0 = 2
    assert prod.get(x1=-1, x2=1) == (2 * (F(2) + F(1, 2))) * vac
    assert prod.get(x1=1, x2=1) == 0  # square of a creation
    E = FockModule(e_spec(Q2, flavor_lo=0, flavor_hi=2))
    pe = product_on_window(FieldOperator(E, 1), "x1", FieldOperator(E, 2), "x2", E.vacuum(), 3, 3)
    assert pe.get(x1=-1, x2=0) == 2 * E.vacuum()


def test_compat_verdicts(tmod):
    vac = tmod.vacuum()
    a = tfield(tmod, 1)
    v = compat_check(a, a, minimal_p(Q2, 1, 1), vac, 7, 7)
    assert v.status == "compatible" and v.bound is not None
    v1 = compat_check(a, a, FactoredRational(F(1)), vac, 7, 7)
    assert v1.status == "incompatible" and v1.witness is not None
    with pytest.raises(ValueError):
        compat_check(a, a, FactoredRational(F(1), 0, ((F(2), -1),)), vac, 5, 5)


def test_compat_annihilator_with_spurious_root_still_works(tmod):
    vac = tmod.vacuum()
    a = tfield(tmod, 1)
    extra = minimal_p(Q2, 1, 1) * FactoredRational(F(1), 0, ((F(7), 1),))
    assert compat_check(a, a, extra, vac, 8, 8).status == "compatible"


def test_locality_all_pairs(tmod):
    for r in range(-1, 2):
        for s in range(-1, 2):
            L = neighbor_locality(tmod, r, s)
            for w in tmod.basis(3):
                ok, ce = locality_check(L, w, 6, 6)
                assert ok, (r, s, ce)


def test_locality_e_fields_neighbor():
    E = FockModule(e_spec(Q2, flavor_lo=0, flavor_hi=2))
    one = F(1)
    a, b = FieldOperator(E, 1), FieldOperator(E, 2)
    L = LocalityDatum(
        a, b, ((b, a, FactoredRational(-one)),), FactoredRational(one, 0, ((one, 1),))
    )
    for w in E.basis(3):
        ok, ce = locality_check(L, w, 5, 5)
        assert ok, ce


def test_locality_corrupted_partner_fails(tmod):
    fld = tmod.field
    a, b = tfield(tmod, 1), tfield(tmod, 1)
    L = LocalityDatum(a, b, ((b, a, FactoredRational(-2 * fld.one())),), witness_p(fld, 1, 1))
    ok, _ = locality_check(L, tmod.vacuum(), 6, 6)
    assert not ok


def test_ye_top_modes_neighbor(tmod):
    vac = tmod.vacuum()
    ye = ye_product(tfield(tmod, 1), tfield(tmod, 0), witness_p(Q2, 1, 0), 6, vac, 8, 8)
    assert ye.zero_order == 1
    m0 = ye.mode(0)
    assert m0.get(x2=0) == 2 * vac
    assert all(e == (0,) for e in m0.coeffs)
    assert ye.mode(1) is None and ye.mode(5) is None


def test_ye_same_flavor_modes_vanish(tmod):
    vac = tmod.vacuum()
    ye = ye_product(tfield(tmod, 1), tfield(tmod, 1), minimal_p(Q2, 1, 1), 6, vac, 8, 8)
    assert ye.zero_order == 0  # p(1) != 0: no nonnegative modes at all
    assert ye.mode(-1).is_zero_series()  # e_(r) paired with itself kills mode -1
    assert not ye.mode(-2).is_zero_series()


def test_ye_annihilator_independence(tmod):
    rng = random.Random(17)
    basis = tmod.basis(3)
    for trial in range(20):
        r, s = rng.randint(-2, 2), rng.randint(-2, 2)
        w = rng.choice(basis)
        p1 = minimal_p(Q2, r, s)
        p2 = p1 * FactoredRational(F(1), 0, ((F(rng.choice([3, 5, 7])), 1),))
        y1 = ye_product(tfield(tmod, r), tfield(tmod, s), p1, 5, w, 8, 8)
        y2 = ye_product(tfield(tmod, r), tfield(tmod, s), p2, 5, w, 9, 9)
        ok, det = modes_agree(y1, y2)
        assert ok, (trial, r, s, det)


def test_ye_incompatible_raises(tmod):
    with pytest.raises(CompatibilityError):
        ye_product(tfield(tmod, 1), tfield(tmod, 1), FactoredRational(F(1)), 5, tmod.vacuum(), 7, 7)


def test_ye_rescaling_naturality(tmod):
    # scaling both fields equals substituting x -> lam x in the mode data
    lam = F(2)
    p1 = minimal_p(Q2, 1, 0)
    for w in tmod.basis(2):
        y = ye_product(tfield(tmod, 1), tfield(tmod, 0), p1, 5, w, 8, 8)
        ys = ye_product(
            tfield(tmod, 1).scaled(lam), tfield(tmod, 0).scaled(lam), p1, 5, w, 8, 8
        )
        for n in set(y.modes) & set(ys.modes):
            ok, ce = ys.modes[n].eq_on_common(var_scaled(y.modes[n], "x2", lam))
            assert ok, (n, ce)


def test_residue_matches_ye_and_top_mode(tmod):
    rng = random.Random(23)
    basis = tmod.basis(3)
    for trial in range(12):
        r, s = rng.randint(-1, 2), rng.randint(-1, 2)
        w = rng.choice(basis)
        L = neighbor_locality(tmod, r, s)
        y1 = ye_product(L.a, L.b, L.annihilator, 5, w, 8, 8)
        y2, top = residue_ye(L, 5, w, 8, 8)
        ok, det = modes_agree(y1, y2)
        assert ok, (trial, r, s, det)
        k = y1.zero_order
        lead = (
            L.annihilator.shifted_value_at(F(1)) if k else L.annihilator.value_at(F(1))
        )
        mk = y1.modes.get(k - 1)
        if mk is not None:
            ok, ce = top.eq_on_common(mk.scaled(lead))
            assert ok, (trial, r, s, ce)


def _top_reference(L, w, hi1, hi2):
    """The top-mode series as residue_ye computed it before it read the z^0
    slice of its bracket: both kernels rerun at z-order 0."""
    p = L.annihilator
    prod = product_on_window(L.a, "x1", L.b, "x2", w, hi1, hi2)
    top = fieldcalc._residue_plus((laurent_annihilator(p) * prod).untagged(), 0)
    for b_i, a_i, f_i in L.partners:
        rev = product_on_window(b_i, "x2", a_i, "x1", w, hi2, hi1)
        q = p * f_i.reciprocal_arg()
        qd = q.ratio_coeffs_ascending(max(-1 - int(rev.sup("x1")[0]), q.mexp))
        top = top - fieldcalc._residue_minus_twisted(rev, qd, 0)
    xi = top.vars.index("x2")
    return TruncatedSeries(
        ("x2",), {(e[xi],): c for e, c in top.coeffs.items()}, {"x2": top.win("x2")},
        {"x2": (NEG_INF, INF)},
    )


def test_residue_plus_needs_a_certified_x2_floor_below_a_finite_x1_ceiling():
    # the x2^e cell of the residue sums F over the cells (i, e - i), i >= 0; those
    # with i above the x1 ceiling 2 are unknown unless an x2 floor zeroes them
    cells = {(0, 0): F(1), (1, -1): F(1)}
    window = {"x1": (NEG_INF, 2), "x2": (NEG_INF, 5)}
    unfloored = TruncatedSeries(("x1", "x2"), cells, window, {"x1": (NEG_INF, INF), "x2": (NEG_INF, INF)})
    with pytest.raises(InsufficientWindow, match="certified x2 floor"):
        fieldcalc._residue_plus(unfloored, 3)
    floored = TruncatedSeries(("x1", "x2"), cells, window, {"x1": (NEG_INF, INF), "x2": (-1, INF)})
    assert fieldcalc._residue_plus(floored, 3).win("x2") == (NEG_INF, 1)


@pytest.mark.parametrize("fld", [Q2, QP], ids=["p=2", "Q(p)"])
def test_opposite_kernel_matches_a_cell_by_cell_reference(fld):
    # the twists y / (y - p) and -1 / (y - p) make q(y) = p(y) f(1/y) equal to
    # p(y) / (1 - p y) and p(y) y / (p y - 1): not Laurent polynomials, their
    # ascending coefficients never stop; the second has no twist term t = 0
    module = FockModule(t_spec(fld))
    a, b = tfield(module, 1), tfield(module, 0)
    zorder, hi = 3, 7
    for mexp, const in ((1, fld.one()), (0, -fld.one())):
        f = FactoredRational(const, mexp, ((fld.p_power(1), -1),))
        q = witness_p(fld, 1, 0) * f.reciprocal_arg()
        assert not q.is_laurent() and q.mexp == 1 - mexp
        _check_opposite_kernel(a, b, q, module.basis(3), zorder, hi)


def _check_opposite_kernel(a, b, q, basis, zorder, hi):
    for w in basis:
        rev = product_on_window(b, "x2", a, "x1", w, hi, hi)
        slo1 = rev.sup("x1")[0]
        qd = q.ratio_coeffs_ascending(max(-1 - slo1, q.mexp))
        got = fieldcalc._residue_minus_twisted(rev, qd, zorder)
        # -sum_{i>=0} (x2 e^z)^(-1-i) [q(x1/x2) rev] at x1^(-1-i): the x2^e z^k
        # cell is -sum_{i,t} q_t rev[-1-i-t, e+1+i+t] (-1-i)^k / k!.  rev reads
        # x1 >= slo1, so its x2-exponent e - (-1-i-t) stays <= hi while
        # e <= hi + slo1; the box runs down to the lowest x1 + x2 of rev's cells
        e_hi = hi + slo1
        assert got.win("x2") == (NEG_INF, e_hi)
        e_lo = min((sum(e) for e in rev.coeffs), default=e_hi)
        assert all(e_lo <= x2 <= e_hi for x2, _ in got.coeffs)
        for e in range(e_lo, e_hi + 1):
            for k in range(zorder + 1):
                want = FockVector()
                for t, qt in qd.items():
                    for i in range(0, -slo1 - t):
                        cell = rev.get(x1=-1 - i - t, x2=e + 1 + i + t)
                        want = want + (-qt * F((-1 - i) ** k, math.factorial(k))) * cell
                assert got.get(x2=e, z=k) == want, (w, e, k)
        # every cell read lies at x1 <= -1 - min(qd): an x1 ceiling there loses
        # nothing, and one below it leaves the kernel undecided
        top = -1 - min(qd)
        low = fieldcalc._residue_minus_twisted(rev.restricted({"x1": (NEG_INF, top)}), qd, zorder)
        assert (low.coeffs, low.window) == (got.coeffs, got.window)
        with pytest.raises(InsufficientWindow):
            fieldcalc._residue_minus_twisted(rev.restricted({"x1": (NEG_INF, top - 1)}), qd, zorder)


@pytest.mark.parametrize("fld", [Q2, ScalarField.rationals(F(3)), QP], ids=["p=2", "p=3", "Q(p)"])
def test_residue_ye_runs_each_kernel_once_and_top_is_the_z0_slice(fld, monkeypatch):
    module = FockModule(t_spec(fld))
    calls = []

    def counting(name):
        original = getattr(fieldcalc, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(fieldcalc, name, wrapper)

    counting("_residue_plus")
    counting("_residue_minus_twisted")
    a, b = tfield(module, 1), tfield(module, 0)
    nonconst = FactoredRational(fld.one(), 0, ((fld.p_power(1), 1),))
    data = [neighbor_locality(module, r, s) for r, s in ((1, 0), (0, 1), (1, 1))]
    data.append(LocalityDatum(a, b, ((b, a, FactoredRational(-fld.one())), (a, b, nonconst)),
                              witness_p(fld, 1, 0)))
    for L in data:
        for w in module.basis(2):
            calls.clear()
            _, top = residue_ye(L, 4, w, 7, 7)
            n = len(L.partners)
            assert calls == ["_residue_plus"] + ["_residue_minus_twisted"] * n
            want = _top_reference(L, w, 7, 7)
            assert (top.vars, top.coeffs, top.window, top.support) == (
                want.vars, want.coeffs, want.window, want.support
            ), (w, n)


def test_scaled_mode_extract(tmod):
    fld = tmod.field
    L = neighbor_locality(tmod, 1, 1)
    lambdas = [fld.p_power(1), fld.p_power(-1)]
    box = {"x1": (-7, 7), "x2": (-7, 7)}
    for w in tmod.basis(2):
        terms, agreements = scaled_mode_extract(L, lambdas, w, box, 5, 9, 9)
        assert all(agreements.values()), agreements
        got = {(repr(t.lam), t.j): t.coeff.get(x2=0) for t in terms}
        assert got == {(repr(lambdas[0]), 0): 2 * w, (repr(lambdas[1]), 0): 2 * w}
    # a lambda outside the defect's spectrum extracts nothing
    terms, agreements = scaled_mode_extract(
        L, [fld.p_power(1), fld.p_power(-1), fld.coerce(7)], tmod.vacuum(), box, 5, 9, 9
    )
    assert all(agreements.values())
    assert not any(repr(t.lam) == repr(fld.coerce(7)) for t in terms)


def test_delta_decompose_fermion_pair(tmod):
    # both orderings of the realized neighbor-field product: the defect
    # decomposes into the two scalar kernels 2 delta(p x2/x1), 2 delta(x2/(p x1))
    from fdcalc.distributions import delta_decompose

    fld = tmod.field
    a = tfield(tmod, 1)
    pmin = minimal_p(fld, 1, 1)
    for w in tmod.basis(2):
        direct = product_on_window(a, "x1", a, "x2", w, 8, 8)
        reversed_ = product_on_window(a, "x2", a, "x1", w, 8, 8)
        box = {"x1": (-6, 6), "x2": (-6, 6)}
        terms = delta_decompose(direct.restricted(box), -reversed_.restricted(box), pmin)
        got = {repr(t.lam): t.coeff.get(x2=0) for t in terms}
        assert all(t.j == 0 for t in terms)
        assert got == {
            repr(fld.p_power(1)): 2 * w,
            repr(fld.p_power(-1)): 2 * w,
        }


def test_zero_defect_extracts_nothing(tmod):
    E = FockModule(e_spec(Q2, flavor_lo=0, flavor_hi=3))
    one = F(1)
    a, b = FieldOperator(E, 0), FieldOperator(E, 3)
    L = LocalityDatum(
        a, b, ((b, a, FactoredRational(-one)),), FactoredRational(one, 0, ((one, 1),))
    )
    D = defect_series(L, E.vacuum(), 6, 6).restricted({"x1": (-5, 5), "x2": (-5, 5)})
    assert D.is_zero_on_window()[0]
    assert delta_fit(D, [one], 0) == []


def test_commutator_formula_diagonal(tmod):
    fld = tmod.field
    C = CovariantStructure(lambda r: tfield(tmod, r), lambda n: fld.p_power(n), -3, 3)
    L = LocalityDatum(
        tfield(tmod, 1), tfield(tmod, 1),
        ((tfield(tmod, 1), tfield(tmod, 1), FactoredRational(-fld.one())),),
        minimal_p(fld, 1, 1),
    )
    box = {"x1": (-5, 5), "x2": (-5, 5)}
    for w in tmod.basis(3):
        ok, ce, contrib = commutator_formula_check(L, C, w, box, 6, 8, 8)
        assert ok, ce
        assert sorted(n for n, _, _ in contrib) == [-1, 1]
        for _, chi, used in contrib:
            assert used == [0]


def diagonal_datum(tmod, p):
    fld = tmod.field
    C = CovariantStructure(lambda r: tfield(tmod, r), lambda n: fld.p_power(n), -3, 3)
    a = tfield(tmod, 1)
    return LocalityDatum(a, a, ((a, a, FactoredRational(-fld.one())),), p), C


def test_commutator_formula_zorder_is_a_cap(tmod):
    # simple roots need only z-order 0; a double root needs z-order 1
    box = {"x1": (-5, 5), "x2": (-5, 5)}
    p = minimal_p(tmod.field, 1, 1)
    L, C = diagonal_datum(tmod, p)
    L2, _ = diagonal_datum(tmod, p**2)
    for w in tmod.basis(2):
        ok, ce, contrib = commutator_formula_check(L, C, w, box, 0, 8, 8)
        assert ok, ce
        assert [(n, used) for n, _, used in contrib] == [(-1, [0]), (1, [0])]
        ok, ce, contrib2 = commutator_formula_check(L2, C, w, box, 6, 8, 8)
        assert ok, ce
        assert contrib2 == contrib
        with pytest.raises(InsufficientWindow):
            commutator_formula_check(L2, C, w, box, 0, 8, 8)


def test_commutator_formula_incompatible_raises(tmod):
    L, C = diagonal_datum(tmod, FactoredRational(F(1)))
    box = {"x1": (-5, 5), "x2": (-5, 5)}
    with pytest.raises(CompatibilityError):
        commutator_formula_check(L, C, tmod.vacuum(), box, 6, 7, 7)


def test_commutator_kernels_match_reference_modes(tmod):
    # every kernel coefficient is (1/j!) (a(chi x1)_j^e b) w from the full
    # mode split at z-order 6; every skipped shift has no nonzero mode there
    fld = tmod.field
    C = CovariantStructure(lambda r: tfield(tmod, r), lambda n: fld.p_power(n), -3, 3)
    for r in range(-1, 2):
        for s in range(-1, 2):
            a, b = tfield(tmod, r), tfield(tmod, s)
            p = minimal_p(fld, r, s)
            L = LocalityDatum(a, b, ((b, a, FactoredRational(-fld.one())),), p)
            for w in tmod.basis(1):
                base = product_on_window(a, "x1", b, "x2", w, 8, 8)
                kernels = {n: terms for n, _, terms in _commutator_kernels(L, C, base, 6, 2)}
                assert sorted(kernels) == sorted({s + 1 - r, s - 1 - r})
                for n in C.shifts():
                    chi = C.chi(n)
                    ref = ye_from_product(
                        var_scaled(base, "x1", chi), p.scale_arg(chi), 6, 2
                    )
                    want = {
                        j: ref.mode(j).scaled(Fraction(1, math.factorial(j)))
                        for j in range(ref.zero_order)
                        if not ref.mode(j).is_zero_series()
                    }
                    got = {t.j: t for t in kernels.get(n, [])}
                    assert sorted(got) == sorted(want), (r, s, w, n)
                    for j, t in got.items():
                        assert t.lam == chi
                        assert t.coeff.coeffs == want[j].coeffs
                        assert t.coeff.eq_on_common(want[j])[0]


def test_ye_lowest_mode_certified_at_small_zorder(tmod):
    # the lowest computed mode n_min = k - zorder - 1 reads the unit of
    # p(e^z) at z^zorder; it must agree with a wider z-order
    fld = tmod.field
    p = minimal_p(fld, 0, 0)
    chi = fld.p_power(1)
    base = product_on_window(tfield(tmod, 0), "x1", tfield(tmod, 0), "x2", tmod.basis(2)[3], 8, 8)
    scaled = var_scaled(base, "x1", chi)
    wide = ye_from_product(scaled, p.scale_arg(chi), 6)
    for zorder in range(0, 4):
        ye = ye_from_product(scaled, p.scale_arg(chi), zorder)
        assert ye.n_min == ye.zero_order - zorder - 1
        ok, ce = ye.mode(ye.n_min).eq_on_common(wide.mode(ye.n_min))
        assert ok, (zorder, ce)


def test_commutator_corrupted_character_fails(tmod):
    fld = tmod.field
    Cbad = CovariantStructure(lambda r: tfield(tmod, r), lambda n: fld.p_power(2 * n), -2, 2)
    L = LocalityDatum(
        tfield(tmod, 1), tfield(tmod, 1),
        ((tfield(tmod, 1), tfield(tmod, 1), FactoredRational(-fld.one())),),
        minimal_p(fld, 1, 1),
    )
    box = {"x1": (-5, 5), "x2": (-5, 5)}
    ok, ce, _ = commutator_formula_check(L, Cbad, tmod.vacuum(), box, 6, 8, 8)
    assert not ok and ce is not None


def _commutator_on_vacuum(r, radius):
    """commutator_formula_check for the flavor pair (r, r) of the realization
    at p = 2 on the vacuum, box radius ``radius``, ceilings 8, z-order 5."""
    params = dv.DVirParams.at(2)
    module, C = dv.realization(params)
    box = {"x1": (-radius, radius), "x2": (-radius, radius)}
    ((*_, result),) = dv.commutator_grid(params, C, [r], [module.vacuum()], box, 5, 8, 2)
    return result


def test_commutator_formula_sees_a_pairing_fault_at_every_box(monkeypatch):
    # {T_2, T_-2} off by one.  The kernels' expansion is certified only for
    # x2 <= hiA - hi1, so a cell-by-cell comparison on a wider box reads
    # other cells of each diagonal and can miss the fault (box 7 does); the
    # fit along the defect's diagonals must see it at every box
    for radius in (6, 7):
        ok, ce, _ = _commutator_on_vacuum(-1, radius)
        assert ok, (radius, ce)
    pairing = CarSpec.pairing

    def off_by_one(self, r, m, s, n):
        out = pairing(self, r, m, s, n)
        return out + 1 if self.kind == "T" and (m, n) == (2, -2) else out

    monkeypatch.setattr(CarSpec, "pairing", off_by_one)
    for radius in (6, 7):
        ok, ce, _ = _commutator_on_vacuum(-1, radius)
        assert not ok and isinstance(ce[0], dict), radius


def test_commutator_nonneighbor_adjoint_module():
    E = FockModule(e_spec(Q2, flavor_lo=0, flavor_hi=3))
    one = F(1)
    trivial = CovariantStructure(lambda r: None, lambda n: one, 0, 0)
    box = {"x1": (-4, 4), "x2": (-4, 4)}
    for r, s, expect in ((0, 3, False), (1, 2, True)):
        a, b = FieldOperator(E, r), FieldOperator(E, s)
        L = LocalityDatum(
            a, b, ((b, a, FactoredRational(-one)),), FactoredRational(one, 0, ((one, 1),))
        )
        ok, ce, contrib = commutator_formula_check(L, trivial, E.vacuum(), box, 5, 6, 6)
        assert ok, (r, s, ce)
        assert bool(contrib) is expect


def test_assoc_check_distinct_annihilators(tmod):
    u, v = tfield(tmod, 1), tfield(tmod, 0)
    ok, ce = assoc_check(u, v, minimal_p(Q2, 1, 0), witness_p(Q2, 1, 0), tmod.vacuum(), 6, 9, 9)
    assert ok, ce
    w = tmod.basis(2)[-1]
    ok, ce = assoc_check(u, v, witness_p(Q2, 1, 0), minimal_p(Q2, 1, 0), w, 6, 9, 9)
    assert ok, ce


def test_covariance_and_negative_control(tmod):
    fld = tmod.field
    C = CovariantStructure(lambda r: tfield(tmod, r), lambda n: fld.p_power(n), -3, 3)
    assert covariance_check(C, 1, 1, 3, 5)[0]
    assert covariance_check(C, -1, 2, 3, 5)[0]
    assert covariance_check(C, 1, 0, 3, 5)[0]
    Cbad = CovariantStructure(lambda r: tfield(tmod, r), lambda n: fld.p_power(2 * n), -3, 3)
    assert not covariance_check(Cbad, 1, 1, 3, 5)[0]


def test_two_root_annihilator_is_compatible_and_neither_root_alone_is(tmod):
    # p = 2: T(p x1) T(x2) on grade <= 2 needs both roots 1 and 1/4
    a, b = tfield(tmod, 1), tfield(tmod, 0)

    def statuses(*roots):
        p = FactoredRational(F(1), 0, tuple((r, 1) for r in roots))
        return {compat_check(a, b, p, w, 8, 8).status for w in tmod.basis(2)}

    assert statuses(F(1), F(1, 4)) == {"compatible"}
    assert "incompatible" in statuses(F(1))
    assert "incompatible" in statuses(F(1, 4))


def test_mode_truncation_divisibility(tmod):
    # modes vanish for j >= -1 (same-flavor pairing), so removing one factor
    # (x1/x2 - 1) from the compatible product preserves the joint truncation;
    # the lemma's ceiling shows as the nonzero mode at -2
    # (test_ye_same_flavor_modes_vanish)
    vac = tmod.vacuum()
    a = tfield(tmod, 1)
    q = minimal_p(Q2, 1, 1)  # roots p, 1/p: q(1) != 0
    prod = product_on_window(a, "x1", a, "x2", vac, 12, 12)
    Fq = laurent_annihilator(q) * prod
    verdict = quadrant_verdict(Fq, 2)
    assert verdict.status == "compatible"
    Fq = Fq.assert_support_floor({"x1": verdict.bound[0], "x2": verdict.bound[1]})
    # (x1/x2 - 1)^(-1) q(x1/x2) ab = x2 * [divide by (x1 - x2)]
    A1 = divide_linear(Fq.untagged(), "x1", "x2", F(1), hi2_cap=6).shifted(x2=1)
    assert quadrant_verdict(A1, 2).status == "compatible"
    back = TruncatedSeries.exact(("x1", "x2"), {(1, -1): F(1), (0, 0): F(-1)}) * A1
    okb, ceb = back.eq_on_common(Fq)
    assert okb, ceb


def test_ye_symbolic_smoke(tsym):
    fld = tsym.field
    vac = tsym.vacuum()
    ye = ye_product(
        tfield(tsym, 1), tfield(tsym, 0), witness_p(fld, 1, 0), 4, vac, 6, 6
    )
    assert ye.zero_order == 1
    assert ye.mode(0).get(x2=0) == 2 * vac


# -- the module-memoized unscaled product ---------------------------------------------


def _reference_coeff_apply(field, e, w):
    """Coefficient of x**e in a(scale x) w, mode by mode."""
    from fdcalc.scalars import power

    vec = field.module.apply_mode(field.flavor, -e - field.module.spec.nu, w)
    if vec and field.scale != 1:
        vec = power(field.scale, e) * vec
    return vec


def _reference_product(outer, ov, inner, iv, w, hi_outer, hi_inner):
    """product_on_window as a cell-by-cell loop over the scaled fields."""
    ifloor = inner.module.field_floor(w)
    coeffs = {}
    for j in range(ifloor, hi_inner + 1):
        vj = _reference_coeff_apply(inner, j, w)
        if not vj:
            continue
        for i in range(outer.module.field_floor(vj), hi_outer + 1):
            cell = _reference_coeff_apply(outer, i, vj)
            if cell:
                coeffs[(i, j) if ov < iv else (j, i)] = cell
    window = {ov: (NEG_INF, hi_outer), iv: (NEG_INF, hi_inner)}
    support = {ov: (NEG_INF, INF), iv: (ifloor, INF)}
    return TruncatedSeries(tuple(sorted((ov, iv))), coeffs, window, support)


def _same_series(s, t):
    return (s.vars, s.coeffs, s.window, s.support) == (t.vars, t.coeffs, t.window, t.support)


@pytest.mark.parametrize("fld", [Q2, QP], ids=["p2", "symbolic"])
def test_product_on_window_matches_the_mode_by_mode_product(fld):
    module = FockModule(t_spec(fld))
    fields = [tfield(module, r) for r in (0, -2, 1, 3)]
    vectors = module.basis(2) if fld is Q2 else [module.vacuum(), module.basis(2)[-1]]
    pairs = [(a, b) for a in fields for b in fields]
    for w in vectors:
        for a, b in pairs:
            for ov, iv in (("x1", "x2"), ("x2", "x1")):
                got = product_on_window(a, ov, b, iv, w, 5, 4)
                assert _same_series(got, _reference_product(a, ov, b, iv, w, 5, 4)), (a, b, w)
                # a second call reads the memo and gives an equal series
                assert _same_series(product_on_window(a, ov, b, iv, w, 5, 4), got)
    # one unscaled product per vector: every scale reads T T
    assert len(module._products) == len(vectors)


def test_product_memo_is_per_module():
    m2, m3 = FockModule(t_spec(Q2)), FockModule(t_spec(ScalarField.rationals(F(3))))
    vac2, vac3 = m2.vacuum(), m3.vacuum()
    assert vac2 == vac3  # the same memo key on both modules
    got2 = product_on_window(tfield(m2, 1), "x1", tfield(m2, -1), "x2", vac2, 6, 6)
    assert not m3._products
    got3 = product_on_window(tfield(m3, 1), "x1", tfield(m3, -1), "x2", vac3, 6, 6)
    assert _same_series(got3, _reference_product(tfield(m3, 1), "x1", tfield(m3, -1), "x2", vac3, 6, 6))
    assert not _same_series(got2, got3)
    (cells2, _), = m2._products.values()
    (cells3, _), = m3._products.values()
    assert all(cells2[k] is not cells3[k] for k in cells2.keys() & cells3.keys())
    with pytest.raises(ValueError, match="one module"):
        product_on_window(tfield(m2, 0), "x1", tfield(m3, 0), "x2", vac2, 3, 3)


# -- the p = 2 path against symbolic p specialized at 2 ---------------------------------


def _at2(c):
    """A symbolic scalar or Fock vector with every scalar specialized at p = 2."""
    if isinstance(c, FockVector):
        return FockVector({m: specialize(x, 2) for m, x in c.terms.items()})
    return specialize(c, 2)


def _specialized(s):
    """The series s with every cell specialized at p = 2; a cell that vanishes
    there is dropped by the constructor."""
    return TruncatedSeries(s.vars, {e: _at2(c) for e, c in s.coeffs.items()},
                           s.window, s.support, s.region)


def test_p2_products_defects_and_kernels_match_symbolic_specialized_at_2():
    # Q(p) arithmetic shares no code with the Dyadic and Fraction values at
    # p = 2, so it is an independent oracle for the p = 2 path
    sym, at2 = FockModule(t_spec(QP)), FockModule(t_spec(Q2))
    vectors = list(zip(sym.basis(1), at2.basis(1)))
    assert len(vectors) > 1 and all(_at2(w) == w2 for w, w2 in vectors)
    box = {"x1": (-4, 4), "x2": (-4, 4)}
    for r, s in ((0, 0), (1, 0), (-1, 1)):
        L, L2 = neighbor_locality(sym, r, s), neighbor_locality(at2, r, s)
        for w, w2 in vectors:
            P = product_on_window(L.a, "x1", L.b, "x2", w, 5, 5)
            P2 = product_on_window(L2.a, "x1", L2.b, "x2", w2, 5, 5)
            assert P2.coeffs and _same_series(_specialized(P), P2), (r, s, w2)
            D = defect_series(L, w, 5, 5, thm_region=True)
            D2 = defect_series(L2, w2, 5, 5, thm_region=True)
            assert D2.coeffs and _same_series(_specialized(D), D2), (r, s, w2)
    # one commutator formula check, and the delta kernels it compares with
    C = CovariantStructure(lambda r: tfield(sym, r), lambda n: sym.field.p_power(n), -3, 3)
    C2 = CovariantStructure(lambda r: tfield(at2, r), lambda n: at2.field.p_power(n), -3, 3)
    L = LocalityDatum(tfield(sym, 1), tfield(sym, 0),
                      ((tfield(sym, 0), tfield(sym, 1), FactoredRational(-sym.field.one())),),
                      minimal_p(sym.field, 1, 0))
    L2 = LocalityDatum(tfield(at2, 1), tfield(at2, 0),
                       ((tfield(at2, 0), tfield(at2, 1), FactoredRational(-at2.field.one())),),
                       minimal_p(at2.field, 1, 0))
    w, w2 = vectors[-1]
    ok, ce, contrib = commutator_formula_check(L, C, w, box, 3, 6, 6)
    ok2, ce2, contrib2 = commutator_formula_check(L2, C2, w2, box, 3, 6, 6)
    assert ok and ok2 and ce is None and ce2 is None
    assert [(n, _at2(chi), js) for n, chi, js in contrib] == contrib2 and contrib2
    base = product_on_window(L.a, "x1", L.b, "x2", w, 6, 6)
    base2 = product_on_window(L2.a, "x1", L2.b, "x2", w2, 6, 6)
    kernels = _commutator_kernels(L, C, base, 3, 2)
    kernels2 = _commutator_kernels(L2, C2, base2, 3, 2)
    assert [(n, _at2(chi), len(ts)) for n, chi, ts in kernels] == [
        (n, chi, len(ts)) for n, chi, ts in kernels2
    ]
    for (_, _, terms), (_, _, terms2) in zip(kernels, kernels2):
        for t, t2 in zip(terms, terms2):
            assert (_at2(t.lam), t.j) == (t2.lam, t2.j)
            assert t2.coeff.coeffs and _same_series(_specialized(t.coeff), t2.coeff)


def _defect_reference(L, w, hi1, hi2, thm_region):
    """defect_series as it was built before the constant twist went into the
    accumulate: the reversed product scaled by the twist, then subtracted as
    the sum with its negation."""
    out = product_on_window(L.a, "x1", L.b, "x2", w, hi1, hi2).untagged()
    for b_i, a_i, f_i in L.partners:
        rev = product_on_window(b_i, "x2", a_i, "x1", w, hi2, hi1)
        if f_i.factors or f_i.mexp:
            limits = {"x1": (NEG_INF, hi1), "x2": (NEG_INF, hi2)}
            if thm_region:
                tw = f_i.reciprocal_arg().ratio_series("x1", "x2", ("x1", "x2"), limits)
            else:
                tw = f_i.ratio_series("x2", "x1", ("x2", "x1"), limits)
            term = (tw.untagged() * rev).untagged()
        else:
            term = rev.scaled(f_i.const)
        out = out + (-term)
    return out


@pytest.mark.parametrize("fld", [Q2, ScalarField.rationals(F(3)), QP], ids=["p=2", "p=3", "Q(p)"])
def test_defect_series_constant_twist_matches_scaled_reference(fld):
    module = FockModule(t_spec(fld))
    a, b = tfield(module, 1), tfield(module, 0)
    nonconst = FactoredRational(fld.one(), 0, ((fld.p_power(1), 1),))
    for c in (-fld.one(), fld.one(), fld.from_int(-2), fld.coerce(F(3, 2))):
        twists = [((b, a, FactoredRational(c)),), ((b, a, FactoredRational(c)), (a, b, nonconst))]
        for partners in twists:
            L = LocalityDatum(a, b, partners, witness_p(fld, 1, 0))
            for w in module.basis(2):
                for thm in (True, False):
                    got = defect_series(L, w, 5, 4, thm_region=thm)
                    want = _defect_reference(L, w, 5, 4, thm)
                    assert (got.vars, got.coeffs, got.window, got.support, got.region) == (
                        want.vars, want.coeffs, want.window, want.support, want.region
                    ), (c, len(partners), w, thm)


def _locality_reference(L, w, hi1, hi2):
    """locality_check as it was before it read defect_series: the twisted
    reversed products summed, then multiplied by p once, and both sides
    compared cell by cell; a failure names (cell, lhs, rhs)."""
    ann = laurent_annihilator(L.annihilator)
    lhs = ann * product_on_window(L.a, "x1", L.b, "x2", w, hi1, hi2)
    rhs = None
    for b_i, a_i, f_i in L.partners:
        rev = product_on_window(b_i, "x2", a_i, "x1", w, hi2, hi1)
        if f_i.factors or f_i.mexp:
            limits = {"x2": (NEG_INF, hi2), "x1": (NEG_INF, hi1)}
            tw = f_i.ratio_series("x2", "x1", ("x2", "x1"), limits)
            term = (tw.untagged() * rev).untagged()
        else:
            term = rev.scaled(f_i.const)
        rhs = term if rhs is None else rhs + term
    rhs = ann * rhs if rhs is not None else lhs.scaled(0)
    return lhs.untagged().eq_on_common(rhs.untagged())


def _assert_locality_matches_reference(L, w, hi1, hi2):
    """The verdict, the first failing cell and lhs - rhs there agree with the
    reference; returns the verdict."""
    ok, ce = locality_check(L, w, hi1, hi2)
    want_ok, want_ce = _locality_reference(L, w, hi1, hi2)
    assert ok == want_ok, (w, ce, want_ce)
    if not ok:
        cell, lhs, rhs = want_ce
        assert ce == (cell, lhs - rhs), (w, ce, want_ce)
    return ok


@pytest.mark.parametrize("fld", [Q2, QP], ids=["p=2", "Q(p)"])
def test_locality_check_matches_reference_with_constant_and_rational_twists(fld):
    module = FockModule(t_spec(fld))
    a, b = tfield(module, 1), tfield(module, 0)
    nonconst = FactoredRational(fld.one(), 0, ((fld.p_power(1), 1),))
    verdicts = {}
    for c in (-fld.one(), fld.from_int(-2)):
        for partners in (((b, a, FactoredRational(c)),), ((b, a, FactoredRational(c)), (a, b, nonconst))):
            L = LocalityDatum(a, b, partners, witness_p(fld, 1, 0))
            for w in module.basis(2):
                ok = _assert_locality_matches_reference(L, w, 6, 5)
                verdicts.setdefault((repr(c), len(partners)), set()).add(ok)
    # the true twist -1 passes on every vector; -2 is the negative control
    assert verdicts[(repr(-fld.one()), 1)] == {True}
    assert verdicts[(repr(fld.from_int(-2)), 1)] == {False}


# -- the commutator check in the product's own coordinates --------------------------------


def _commutator_reference(L, C, w, box, zorder, hi1, hi2, margin=2):
    """commutator_formula_check as it was before the coordinate change: both
    products rescaled cell by cell, the kernels substituted at
    x1 = chi x2 e^z into the annihilated scaled product, nothing memoized,
    and one delta_agree in x1, x2."""
    chis = [C.chi(n) for n in C.shifts()]
    if len({repr(c) for c in chis}) != len(chis):
        raise ValueError("character must be injective on the shift window")
    base = product_on_window(L.a, "x1", L.b, "x2", w, hi1, hi2)
    lhs = defect_series(L, w, hi1, hi2, thm_region=True, direct=base).restricted(box)
    p = L.annihilator
    F0 = fieldcalc._annihilated(base, p, margin)
    kernels = []
    for n in C.shifts():
        chi = C.chi(n)
        k = p.order_at(chi)
        if k <= 0:
            continue
        if k - 1 > zorder:
            raise InsufficientWindow(
                f"shift {n}: a zero of order {k} needs z-order {k - 1}, above the cap {zorder}"
            )
        ye = fieldcalc._substituted_modes(F0, p.scale_arg(chi), k - 1, chi)
        terms = [
            DeltaTerm(chi, j, ye.modes[j].scaled(Fraction(1, math.factorial(j))))
            for j in range(k)
            if not ye.modes[j].is_zero_series()
        ]
        if terms:
            kernels.append((n, chi, terms))
    rhs = [t for _, _, terms in kernels for t in terms]
    jmax = max((t.j for t in rhs), default=0)
    ok, ce = delta_agree(lhs, [chi for _, chi, _ in kernels], jmax, rhs)
    return ok, ce, [(n, chi, [t.j for t in terms]) for n, chi, terms in kernels]


def _outcome(check, *args):
    """The triple a check returns, or the type and message of what it raised."""
    try:
        return check(*args)
    except Exception as exc:  # both sides must raise the same
        return type(exc), str(exc)


def _equivalence_data(module):
    """Flavor pairs of the realization at scales p^0, p^+-1 and p^3 (one with
    a root outside the shift window), a double root, an annihilator with no
    root, a partner whose scale is not b's and a non-constant twist."""
    fld = module.field
    one = fld.one()
    minus_one = FactoredRational(-one)
    data = []
    for r, s in ((0, 0), (1, -1), (-1, 3), (3, 1), (0, 1)):
        a, b = tfield(module, r), tfield(module, s)
        data.append(LocalityDatum(a, b, ((b, a, minus_one),), minimal_p(fld, r, s)))
    a = tfield(module, -1)
    data.append(LocalityDatum(a, a, ((a, a, minus_one),), minimal_p(fld, -1, -1) ** 2))
    data.append(LocalityDatum(a, a, ((a, a, minus_one),), FactoredRational(one)))
    a, b = tfield(module, 1), tfield(module, 0)
    data.append(LocalityDatum(a, b, ((tfield(module, -1), a, minus_one),), minimal_p(fld, 1, 0)))
    nonconst = FactoredRational(one, 0, ((fld.p_power(1), 1),))
    data.append(LocalityDatum(a, b, ((b, a, minus_one), (a, b, nonconst)), witness_p(fld, 1, 0)))
    return data


@pytest.mark.parametrize(
    "fld", [Q2, ScalarField.rationals(F(1, 2)), QP], ids=["p=2", "p=1/2", "Q(p)"]
)
def test_commutator_check_matches_the_per_cell_scaled_reference(fld):
    # the reference runs on its own module, so no memo entry crosses over
    module, ref_module = FockModule(t_spec(fld)), FockModule(t_spec(fld))
    C = CovariantStructure(lambda r: tfield(module, r), fld.p_power, -4, 4)
    C_ref = CovariantStructure(lambda r: tfield(ref_module, r), fld.p_power, -4, 4)
    box = {"x1": (-5, 5), "x2": (-5, 5)}
    vectors = list(zip(module.basis(2 if fld is Q2 else 1), ref_module.basis(2 if fld is Q2 else 1)))
    outcomes = set()
    for L, L_ref in zip(_equivalence_data(module), _equivalence_data(ref_module)):
        # the rewritten datum's defect is the caller's with cell (i, j)
        # multiplied by lam^-i mu^-j: the twists and partners moved with it
        L1, _, mu = fieldcalc._product_coordinates(L, C)
        lam = L.a.scale
        w = vectors[-1][0]
        moved = defect_series(L1, w, 6, 6, thm_region=True)
        assert _same_series(var_scaled(var_scaled(moved, "x1", lam), "x2", mu),
                            defect_series(L, w, 6, 6, thm_region=True))
        for w, w_ref in vectors:
            got = _outcome(commutator_formula_check, L, C, w, box, 3, 6, 6)
            want = _outcome(_commutator_reference, L_ref, C_ref, w_ref, box, 3, 6, 6)
            assert got == want, (L, w)
            outcomes.add(got[0] if isinstance(got[0], bool) else got[0].__name__)
    # the data reach a pass, a failure and a raise
    assert {True, False} <= outcomes and len(outcomes) > 2, outcomes


def _unit_coefficient_doubled(exp_arg_dict):
    """p(e^z) = z^k * unit with the unit's constant term doubled, so that every
    kernel comes out halved."""

    def doubled(self, order):
        k, unit = exp_arg_dict(self, order)
        return k, {e: 2 * c if e == 0 else c for e, c in unit.items()}

    return doubled


def test_commutator_counterexample_is_reported_in_the_callers_coordinates(monkeypatch):
    # the strings are those of the per-cell scaled check on the same fault;
    # the second pair has a(2 x1) b(3 x2), so its cell d = -1 differs by
    # 3^-1 between the caller's coordinates and the product's own
    monkeypatch.setattr(
        FactoredRational, "exp_arg_dict", _unit_coefficient_doubled(FactoredRational.exp_arg_dict)
    )
    params = dv.DVirParams.at(2)
    module, C = dv.realization(params)
    box = {"x1": (-7, 7), "x2": (-7, 7)}
    grid = dv.commutator_grid(params, C, [1, 2], [module.vacuum()], box, 5, 8, 2)
    ((ok, ce, contrib),) = [res for r, s, _, _, res in grid if (r, s) == (1, 2)]
    assert not ok and contrib == [(0, F(1), [0]), (2, F(4), [0])]
    assert ce == ({"x2": 0}, "lambda=1 j=0 d=0: fitted (2)*vac, expected (1)*vac")

    E = FockModule(e_spec(Q2, ell=1, flavor_lo=0, flavor_hi=1))
    a, b = FieldOperator(E, 0, F(2)), FieldOperator(E, 1, F(3))
    L = LocalityDatum(
        a, b, ((b, a, FactoredRational(F(-1))),), FactoredRational(F(1), 0, ((F(3, 2), 1),))
    )
    Cq = CovariantStructure(lambda r: None, lambda n: F(3, 2) * 2**n, 0, 0)
    w = E.basis(1)[1]
    ok, ce, contrib = commutator_formula_check(L, Cq, w, {"x1": (-4, 4), "x2": (-4, 4)}, 3, 5, 5)
    assert not ok and contrib == [(0, F(3, 2), [0])]
    assert ce == ({"x2": -1}, "lambda=3/2 j=0 d=-1: fitted (2/3)*a[0,-1], expected (1/3)*a[0,-1]")


def test_commutator_kernels_are_memoized_per_vector(monkeypatch):
    params = dv.DVirParams.at(2)
    module, C = dv.realization(params)
    basis = module.basis(1)
    box = {"x1": (-5, 5), "x2": (-5, 5)}
    calls = []
    substituted = fieldcalc._substituted_modes

    def counted(F, q, zorder, scale=1):
        calls.append(scale)
        return substituted(F, q, zorder, scale)

    monkeypatch.setattr(fieldcalc, "_substituted_modes", counted)
    flavors = range(-1, 2)
    first = list(dv.commutator_grid(params, C, flavors, basis, box, 3, 6, 2))
    # every pair on one vector reads the roots p and 1/p of (y - p)(y - 1/p)
    assert sorted(calls) == sorted([F(2), F(1, 2)] * len(basis))
    assert len(module._commutators) == len(basis)
    assert all(ok for *_, (ok, _, _) in first)
    # a second grid on the same module reads every kernel from the memo
    again = list(dv.commutator_grid(params, C, flavors, basis, box, 3, 6, 2))
    assert len(calls) == 2 * len(basis)
    assert [res for *_, res in again] == [res for *_, res in first]
    # each triple, a memo hit for all but the first pair on a vector, equals
    # the triple on a fresh module
    for r, s, w, _, res in first:
        _, fresh = dv.realization(params)
        grid = dv.commutator_grid(params, fresh, [r, s], [w], box, 3, 6, 2)
        assert res == next(t for rr, ss, _, _, t in grid if (rr, ss) == (r, s)), (r, s, w)
    # two modules share no entry
    other, Co = dv.realization(params)
    assert not other._commutators
    list(dv.commutator_grid(params, Co, flavors, basis[:1], box, 3, 6, 2))

    def memo_terms(m):
        return [t for kernels, _ in m._commutators.values() for ts in kernels.values() for t in ts]

    mine, theirs = memo_terms(module), memo_terms(other)
    assert theirs and not {id(t) for t in mine} & {id(t) for t in theirs}
    assert not {id(t.coeff) for t in mine} & {id(t.coeff) for t in theirs}


def test_commutator_kernel_memo_stores_no_exception():
    box = {"x1": (-5, 5), "x2": (-5, 5)}
    module = FockModule(t_spec(Q2))
    p = minimal_p(Q2, 1, 1)
    L, C = diagonal_datum(module, p**2)
    L_bad, _ = diagonal_datum(module, FactoredRational(F(1), 0, ((F(1, 4), 1),)))
    L_both, _ = diagonal_datum(module, FactoredRational(F(1), 0, ((F(1, 4), 2),)))
    for _ in range(3):
        # a double root above the z-order cap, then a pair the annihilator
        # leaves incompatible
        with pytest.raises(InsufficientWindow):
            commutator_formula_check(L, C, module.vacuum(), box, 0, 8, 8)
        with pytest.raises(CompatibilityError):
            commutator_formula_check(L_bad, C, module.vacuum(), box, 6, 7, 7)
        # both at once: the certification raises before the cap is read
        with pytest.raises(CompatibilityError):
            commutator_formula_check(L_both, C, module.vacuum(), box, 0, 7, 7)
        assert not module._commutators
    # the cap is not part of the key: with room, both double roots are
    # computed, and a hit checks the cap again
    ok, ce, contrib = commutator_formula_check(L, C, module.vacuum(), box, 6, 8, 8)
    assert ok, ce
    (kernels, _), = module._commutators.values()
    assert len(kernels) == 2
    with pytest.raises(InsufficientWindow):
        commutator_formula_check(L, C, module.vacuum(), box, 0, 8, 8)
    assert commutator_formula_check(L, C, module.vacuum(), box, 6, 8, 8) == (ok, ce, contrib)


def _fit_outcome(L, C, w, box):
    """commutator_formula_fit's quadruple with the fitted series spelled out,
    so that two runs compare by value."""
    ok, ce, contrib, fit = fieldcalc.commutator_formula_fit(L, C, w, box, 3, 6, 6)
    if fit is not None:
        terms, window = fit
        fit = [(t.lam, t.j, t.coeff.coeffs, t.coeff.window, t.coeff.support) for t in terms], window
    return ok, ce, contrib, fit


def _counting_delta_fit(monkeypatch):
    calls = []

    def counted(D, lambdas, jmax):
        calls.append(tuple(lambdas))
        return delta_fit(D, lambdas, jmax)

    monkeypatch.setattr(fieldcalc, "delta_fit", counted)
    return calls


def test_commutator_fits_are_memoized_per_vector(monkeypatch):
    params = dv.DVirParams.at(2)
    module, C = dv.realization(params)
    basis = module.basis(1)
    box = {"x1": (-5, 5), "x2": (-5, 5)}
    calls = _counting_delta_fit(monkeypatch)
    flavors = range(-1, 2)
    first = list(dv.commutator_grid(params, C, flavors, basis, box, 3, 6, 2))
    # every pair on one vector fits the same defect at the same roots p, 1/p
    assert len(calls) == len(module._commutators) == len(basis)
    assert all(ok for *_, (ok, _, _) in first)
    again = list(dv.commutator_grid(params, C, flavors, basis, box, 3, 6, 2))
    assert [res for *_, res in again] == [res for *_, res in first]
    # the witness annihilator has a third root, which no shift reaches: the
    # annihilator is part of the key, so its pairs get one entry per vector
    mine = {(r, w): _fit_outcome(dv.neighbor_locality(params, module, r, 0), C, w, box)
            for r in flavors for w in basis}
    assert len(calls) == len(module._commutators) == 2 * len(basis)
    # each triple, and each fit mapped back, equals a fresh module's
    for r, s, w, _, res in first:
        _, fresh = dv.realization(params)
        grid = dv.commutator_grid(params, fresh, [r, s], [w], box, 3, 6, 2)
        assert res == next(t for rr, ss, _, _, t in grid if (rr, ss) == (r, s)), (r, s, w)
    for (r, w), got in mine.items():
        fresh, Cf = dv.realization(params)
        assert got == _fit_outcome(dv.neighbor_locality(params, fresh, r, 0), Cf, w, box), (r, w)


def test_commutator_fit_memo_keys_the_twist_the_box_and_the_lambdas(monkeypatch):
    """One vector and one product a(x1) b(x2) w, read with another twist, box
    or root list, gets a fit of its own, equal to a fresh module's."""

    def data(module):
        fld = module.field
        a, b = tfield(module, 0), tfield(module, 1)
        p = minimal_p(fld, 0, 1)
        C = CovariantStructure(lambda r: tfield(module, r), fld.p_power, -4, 4)
        box = {"x1": (-5, 5), "x2": (-5, 5)}

        def datum(f):
            return LocalityDatum(a, b, ((b, a, f),), p)

        base = datum(FactoredRational(F(-1)))
        return [
            (base, C, box),
            (datum(FactoredRational(F(-2))), C, box),
            (datum(FactoredRational(F(-1), 0, ((F(2), 1),))), C, box),
            (base, C, {"x1": (-4, 4), "x2": (-4, 4)}),
            # the shifts reach only the root p^2: the fit has one lambda
            (base, replace(C, shift_lo=1), box),
        ]

    module = FockModule(t_spec(Q2))
    w = module.basis(2)[-1]
    calls = _counting_delta_fit(monkeypatch)
    got = [_fit_outcome(L, C, w, box) for L, C, box in data(module)]
    assert len(calls) == len(module._commutators) == len(got)
    assert [len(lams) for lams in calls] == [2, 2, 2, 2, 1]
    assert len({repr(o) for o in got}) == len(got) - 1  # both twists are no delta sum
    assert all(o != got[0] for o in got[1:])
    for (L, C, box), want in zip(data(FockModule(t_spec(Q2))), got):
        assert _fit_outcome(L, C, w, box) == want, (L, box)


def test_commutator_check_refuses_partners_on_another_module_before_any_memo():
    # the key names partners by flavor and scale, so they must share the module
    module, other = FockModule(t_spec(Q2)), FockModule(t_spec(Q2))
    a, b = tfield(module, 0), tfield(module, 1)
    L = LocalityDatum(a, b, ((tfield(other, 1), tfield(other, 0), FactoredRational(F(-1))),),
                      minimal_p(Q2, 0, 1))
    C = CovariantStructure(lambda r: tfield(module, r), Q2.p_power, -4, 4)
    w = FockModule(t_spec(Q2)).basis(2)[-1]
    with pytest.raises(ValueError, match="every field on one module"):
        fieldcalc.commutator_formula_fit(L, C, w, {"x1": (-5, 5), "x2": (-5, 5)}, 3, 6, 6)
    for m in (module, other):
        assert not (m._memo or m._words or m._products or m._commutators or m._monomials)


def test_commutator_check_refuses_a_character_equal_across_types():
    # 1 over Q and the constant 1 of Q(p) are one value, whatever their repr
    module = FockModule(t_spec(Q2))
    a, b = tfield(module, 0), tfield(module, 1)
    L = LocalityDatum(a, b, ((b, a, FactoredRational(F(-1))),), minimal_p(Q2, 0, 1))
    C = CovariantStructure(lambda r: tfield(module, r), lambda n: QP.one() if n else F(1), 0, 1)
    with pytest.raises(ValueError, match="injective"):
        fieldcalc.commutator_formula_fit(L, C, module.vacuum(), {"x1": (-5, 5), "x2": (-5, 5)}, 3, 6, 6)


def test_a_flavor_grid_builds_each_vectors_products_once(monkeypatch):
    params = dv.DVirParams.at(2)
    module, C = dv.realization(params)
    basis = module.basis(1)
    box = {"x1": (-5, 5), "x2": (-5, 5)}
    calls = []
    built = fieldcalc.product_on_window

    def counted(outer, ov, inner, iv, w, hi_outer, hi_inner):
        calls.append((ov, basis.index(w)))
        return built(outer, ov, inner, iv, w, hi_outer, hi_inner)

    monkeypatch.setattr(fieldcalc, "product_on_window", counted)
    first = list(dv.commutator_grid(params, C, range(-1, 2), basis, box, 3, 6, 2))
    # the first pair on a vector builds the product and its reversed partner;
    # the other eight read the memo entry and build neither
    assert sorted(calls) == sorted((v, i) for i in range(len(basis)) for v in ("x1", "x2"))
    calls.clear()
    again = list(dv.commutator_grid(params, C, range(-1, 2), basis, box, 3, 6, 2))
    assert not calls and again == first and all(ok for *_, (ok, _, _) in first)


def test_commutator_fit_memo_repeats_a_not_delta_sum_counterexample(monkeypatch):
    module = FockModule(t_spec(Q2))
    a, b = tfield(module, 0), tfield(module, 1)
    L = LocalityDatum(a, b, ((b, a, FactoredRational(F(-2))),), minimal_p(Q2, 0, 1))
    C = CovariantStructure(lambda r: tfield(module, r), Q2.p_power, -4, 4)
    box = {"x1": (-5, 5), "x2": (-5, 5)}
    calls = _counting_delta_fit(monkeypatch)
    w = module.basis(2)[-1]
    outcomes = [fieldcalc.commutator_formula_fit(L, C, w, box, 3, 6, 6) for _ in range(3)]
    assert len(calls) == 1
    assert outcomes[0] == (False, ({}, "diagonal -2 deviates from the fit at n = 0"),
                           [(0, F(1), [0]), (2, F(4), [0])], None)
    assert outcomes[1] == outcomes[0] == outcomes[2]
    # a window too small to fit stores nothing
    narrow = {"x1": (-5, 5), "x2": (0, 0)}
    for _ in range(2):
        with pytest.raises(InsufficientWindow):
            fieldcalc.commutator_formula_fit(L, C, w, narrow, 3, 6, 6)
    assert len(calls) == 3 and len(module._commutators) == 1


def test_commutator_memos_leave_the_module_to_reference_counting():
    # no memo key holds a field, which would hold the module in a cycle
    params = dv.DVirParams.at(2)
    module, C = dv.realization(params)
    box = {"x1": (-5, 5), "x2": (-5, 5)}
    assert all(ok for *_, (ok, _, _) in dv.commutator_grid(
        params, C, [0, 1], module.basis(1), box, 3, 6, 2))
    assert module._commutators and module._products
    gone = weakref.ref(module)
    gc.disable()
    try:
        del module, C
        assert gone() is None
    finally:
        gc.enable()

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcalc.fock import (
    CarSpec,
    FlavorOutOfWindow,
    FockModule,
    FockVector,
    e_spec,
    t_spec,
)
from fdcalc.scalars import Poly, RatFunc, ScalarField
from fdcalc.series import var_scaled

F = Fraction
p = RatFunc.p()
QP = ScalarField.rational_functions()
Q2 = ScalarField.rationals(F(2))


@pytest.fixture(scope="module")
def tmod():
    return FockModule(t_spec(QP))


@pytest.fixture(scope="module")
def emod():
    return FockModule(e_spec(QP, ell=1, flavor_lo=-2, flavor_hi=3))


def test_neighbor_contraction(emod):
    vac = emod.vacuum()
    v = emod.apply_mode(1, 0, emod.apply_mode(2, -1, vac))
    assert v == 2 * vac
    assert not emod.apply_mode(1, 0, emod.apply_mode(3, -1, vac))
    # higher annihilation modes see deeper creations
    v2 = emod.apply_mode(1, 2, emod.apply_mode(2, -3, vac))
    assert v2 == 2 * vac


def test_level_two_contraction():
    e2 = FockModule(e_spec(QP, ell=2, flavor_lo=0, flavor_hi=2))
    vac = e2.vacuum()
    assert e2.apply_mode(1, 0, e2.apply_mode(2, -1, vac)) == 4 * vac


def test_creation_square_zero(emod):
    vac = emod.vacuum()
    assert not emod.apply_mode(1, -1, emod.apply_mode(1, -1, vac))


def test_t_pairing_values(tmod):
    vac = tmod.vacuum()
    assert tmod.apply_mode("T", 1, tmod.apply_mode("T", -1, vac)) == (2 * (p + p**-1)) * vac
    assert not tmod.apply_mode("T", 2, tmod.apply_mode("T", -1, vac))
    t0sq = tmod.apply_mode("T", 0, tmod.apply_mode("T", 0, vac))
    assert t0sq == 2 * vac


def test_anticommutator_invariant_all_pairs():
    # both parameter modes, |modes| <= 5, all basis vectors of grade <= 5
    for fld in (QP, Q2):
        M = FockModule(t_spec(fld))
        for m in range(-5, 6):
            for n in range(-5, 6):
                pair = M.spec.pairing("T", m, "T", n)
                assert M.anticommutator_check(("T", m), ("T", n), 5, pair), (fld, m, n)


def test_anticommutator_invariant_e_pairs():
    # narrow flavor window keeps the grade-5 basis tractable
    for ell in (1, 2):
        E = FockModule(e_spec(QP, ell=ell, flavor_lo=0, flavor_hi=1))
        for r in (0, 1):
            for s in (0, 1):
                for m in range(-5, 6):
                    for n in range(-5, 6):
                        pair = E.spec.pairing(r, m, s, n)
                        assert E.anticommutator_check((r, m), (s, n), 5, pair), (ell, r, s, m, n)


def test_generator_squares(tmod):
    half = F(1, 2)
    for m in range(-5, 6):
        pair = tmod.spec.pairing("T", m, "T", m)
        for w in tmod.basis(5):
            got = tmod.apply_mode("T", m, tmod.apply_mode("T", m, w))
            want = (half * pair) * w if pair else FockVector()
            assert got == want


def test_restriction_bound(tmod, emod):
    for module, flavors in ((tmod, ["T"]), (emod, [-2, 0, 3])):
        for w in module.basis(4):
            N = module.ann_bound(w)
            for r in flavors:
                for n in range(N, N + 6):
                    assert not module.apply_mode(r, n, w)


def test_flavor_window_guard(emod):
    with pytest.raises(FlavorOutOfWindow):
        emod.apply_mode(9, 0, emod.vacuum())
    with pytest.raises(FlavorOutOfWindow):
        FockModule(t_spec(QP)).apply_mode(1, 0, FockModule(t_spec(QP)).vacuum())


def test_graded_dimensions_oracle(tmod):
    # oracle: partitions into distinct positive parts, doubled by the optional
    # zero mode
    def distinct_partitions(n):
        memo = {}

        def rec(rest, smallest):
            if rest == 0:
                return 1
            key = (rest, smallest)
            if key in memo:
                return memo[key]
            total = 0
            for part in range(smallest, rest + 1):
                total += rec(rest - part, part + 1)
            memo[key] = total
            return total

        return rec(n, 1)

    want = [2 * distinct_partitions(g) for g in range(7)]
    assert want[:5] == [2, 2, 2, 4, 4]
    assert tmod.graded_dimensions(6) == want

    e1 = FockModule(e_spec(QP, flavor_lo=0, flavor_hi=0))
    assert e1.graded_dimensions(3) == [distinct_partitions(g) for g in range(4)]
    assert e1.graded_dimensions(3)[0] == 1  # the vacuum sits at grade 0


def test_negative_grade_bound_is_rejected(tmod, emod):
    for module in (tmod, emod):
        for enumerate_ in (module.basis, module.graded_dimensions):
            with pytest.raises(ValueError, match="grade bound"):
                enumerate_(-1)
    assert [m for w in tmod.basis(0) for m in w.terms] == [(), (("T", 0),)]
    assert tmod.graded_dimensions(0) == [2]


def test_apply_word_equals_two_apply_modes(tmod, emod):
    for module, flavors in ((tmod, ("T",)), (emod, (0, 1))):
        ref = FockModule(module.spec)
        for w in module.basis(3):
            (mono,) = w.terms
            for r in flavors:
                for s in flavors:
                    for a in range(-3, 4):
                        for b in range(-3, 4):
                            want = ref.apply_mode(r, a, ref.apply_mode(s, b, w))
                            assert module.apply_word((r, a), (s, b), mono) == want
    with pytest.raises(FlavorOutOfWindow):
        emod.apply_word((0, 1), (9, -1), ())
    for outer, inner in (((9, 1), (0, -1)), ((9, 1), (0, 1))):  # nonzero, zero first step
        with pytest.raises(FlavorOutOfWindow):
            emod.apply_word(outer, inner, ())


def test_apply_field_vacuum(tmod):
    vac = tmod.vacuum()
    s = tmod.apply_field("T", 1, vac, 3)
    for e in range(0, 4):
        assert s.get(x=e) == FockVector({(("T", -e),): tmod.field.one()})
    assert s.get(x=-1) == 0


def test_apply_field_scaling_is_substitution(tmod):
    lam = p
    for w in tmod.basis(3):
        direct = tmod.apply_field("T", lam, w, 4)
        subst = var_scaled(tmod.apply_field("T", 1, w, 4), "x", lam)
        ok, ce = direct.eq_on_common(subst)
        assert ok, ce


def test_apply_field_scaled_coefficient(tmod):
    vac = tmod.vacuum()
    sp = tmod.apply_field("T", p, vac, 2)
    assert sp.get(x=1) == p * FockVector({(("T", -1),): tmod.field.one()})


def test_e_field_offset(emod):
    vac = emod.vacuum()
    s = emod.apply_field(1, 1, vac, 3)
    # a(x) = sum a_n x^(-n-1): x^0 coefficient is the mode -1 action
    assert s.get(x=0) == FockVector({((1, -1),): emod.field.one()})
    assert s.get(x=-1) == 0


def test_fock_vector_arithmetic(tmod):
    vac = tmod.vacuum()
    w = FockVector({(("T", -1),): tmod.field.one()})
    assert vac + w - vac == w
    assert 0 + w == w and w - 0 == w and 0 - w == -w
    assert 2 * w == w + w
    assert bool(FockVector()) is False
    assert FockVector() == 0
    assert (p * w) != w


def test_fock_vector_hash_matches_equality():
    a, b = FockVector({(): F(2)}), FockVector({(): RatFunc(2)})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_fock_vector_sum_keeps_new_coefficients():
    a_, b_, c_ = (), (("T", -1),), (("T", -3),)
    u = FockVector({a_: p + 1, b_: 1 / p})
    v = FockVector({c_: p * p})
    w = FockVector({b_: -1 / p, c_: 2 * p})
    # disjoint supports: every coefficient of the sum is the operand's object
    s = u + v
    assert s == FockVector({a_: p + 1, b_: 1 / p, c_: p * p})
    assert hash(s) == hash(v + u)
    assert all(s.terms[m] is c for m, c in v.terms.items())
    # overlapping supports: b_ cancels, c_ adds, a_ is kept
    t = u + v + w
    assert t == FockVector({a_: p + 1, c_: p * p + 2 * p})
    assert b_ not in t.terms
    assert hash(t) == hash(FockVector({a_: p + 1, c_: p * p + 2 * p}))
    assert t.terms[a_] is u.terms[a_]
    # summing in the other order gives the same vector
    assert w + v + u == t and hash(w + v + u) == hash(t)


# -- the one accumulate and the unit fast paths ---------------------------------------

MONOS = [(), (("T", -1),), (("T", -2),), (("T", 0), ("T", -1))]


def _vectors(scalars):
    return st.dictionaries(st.sampled_from(MONOS), scalars, max_size=4).map(FockVector)


def _pairs(scalars):
    """(c, v) pairs with unit, zero and other c, plus (-c, v) copies of some, so
    that sums cancel, some to the zero vector."""
    coeff = st.one_of(st.sampled_from([0, 1, -1]), scalars)
    pairs = st.lists(st.tuples(coeff, _vectors(scalars)), max_size=5)
    return st.tuples(pairs, st.lists(st.booleans(), max_size=5)).map(
        lambda t: t[0] + [(-c, v) for (c, v), neg in zip(t[0], t[1]) if neg]
    )


fraction_scalars = st.fractions(min_value=-4, max_value=4, max_denominator=3)
ratfunc_scalars = st.builds(
    lambda a, b, k, den: RatFunc(Poly((a, b)), Poly((0,) * k + (1,)) if den else Poly((1, 1))),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(0, 2),
    st.booleans(),
)


def _dict_sum(pairs):
    """sum c * v with one dict update per coefficient, independent of ``+``."""
    out = {}
    for c, v in pairs:
        for m, x in v.terms.items():
            out[m] = out.get(m, 0) + c * x
    return FockVector(out)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_pairs(fraction_scalars), _pairs(ratfunc_scalars)))
def test_lincomb_equals_pairwise_sum(pairs):
    want = _dict_sum(pairs)
    got = FockVector.lincomb(pairs)
    assert got == want and hash(got) == hash(want)
    assert all(got.terms.values())  # zeros are dropped
    assert not FockVector.lincomb(pairs + pairs + [(-2 * c, v) for c, v in pairs])


@settings(max_examples=150, deadline=None)
@given(st.one_of(_pairs(fraction_scalars), _pairs(ratfunc_scalars)))
def test_add_and_sub_agree_with_lincomb_when_terms_cancel(pairs):
    vs = [c * v for c, v in pairs]
    # _pairs holds (-c, v) copies, so some of these sums cancel to zero
    for u, w in [(u, w) for u in vs for w in vs] + [(u, -u) for u in vs]:
        for sign, got in ((1, u + w), (-1, u - w)):
            want = FockVector.lincomb([(1, u), (sign, w)])
            assert got == want == _dict_sum([(1, u), (sign, w)])
            assert all(got.terms.values())  # zeros are dropped
        assert not (u - u) and not (u - u).terms


def test_apply_mode_equals_sum_over_monomials(tmod, emod):
    rng = random.Random(5)
    for module, gens in ((tmod, [("T", n) for n in range(-3, 4)]), (emod, [(0, 1), (1, 0), (2, -1)])):
        basis = module.basis(3)
        one = module.field.one()
        for _ in range(30):
            w = FockVector()
            for v in rng.sample(basis, 3):
                w = w + (rng.choice([one, -one, 2 * one, p, 1 / (p + 1)])) * v
            for gen in gens:
                want = FockVector()
                for mono, c in w.terms.items():
                    want = want + c * module._apply_gen(gen, mono)
                assert module.apply_mode(*gen, w) == want


def test_unit_times_vector_is_the_vector_and_stays_unchanged():
    a_, b_ = (), (("T", -1),)
    v = FockVector({a_: p + 1, b_: F(1, 2) * p})
    before = dict(v.terms)
    for one in (1, F(1), RatFunc(1)):
        u = one * v
        assert u == v
        s = u + FockVector({a_: -(p + 1)})
        t = -u
        r = 3 * u - s
        assert s == FockVector({b_: F(1, 2) * p}) and t != v and r
    assert v * 1 == v
    assert v.terms == before


def test_apply_mode_on_a_basis_vector_multiplies_by_no_unit(monkeypatch):
    mul = RatFunc.__mul__
    calls = []

    def counted(a, b):
        calls.append(a == 1 or b == 1)
        return mul(a, b)

    monkeypatch.setattr(RatFunc, "__mul__", counted)
    monkeypatch.setattr(RatFunc, "__rmul__", counted)
    module = FockModule(t_spec(QP))  # a cold memo computes pairings, which multiply
    for w in module.basis(4):
        for n in range(-5, 6):
            module.apply_mode("T", n, w)
    assert calls and not any(calls)


def _anticommutator_reference(module, g1, g2, grade_bound):
    """The anticommutator check before it read memoized words: two
    ``apply_mode`` calls per order, on every basis vector."""
    (r, m), (s, n) = g1, g2
    pair = module.spec.pairing(r, m, s, n)
    for w in module.basis(grade_bound):
        lhs = module.apply_mode(r, m, module.apply_mode(s, n, w)) + module.apply_mode(
            s, n, module.apply_mode(r, m, w)
        )
        if lhs != pair * w:
            return False
    return True


class _WrongPairing(CarSpec):
    """A spec whose pairing is off by one for the ordered generator pairs in
    ``bad``.

    The mode action reads pairing(annihilator, creator), so for such a pair
    {g1, g2} still holds and the reversed order {g2, g1} fails.  For a pair of
    two annihilators the action never reads it: both words are zero, and only
    the pairing tells {g1, g2} from 0."""

    bad = ()

    def pairing(self, r, m, s, n):
        out = super().pairing(r, m, s, n)
        return out + 1 if ((r, m), (s, n)) in self.bad else out


def _anticommutator_cases(fld, wrong):
    """(module, generator pairs) for E(ell = 1, 2, flavors 0..2) and T, every
    pair with |m| <= 3; ``wrong`` swaps in specs with wrong pairings."""
    if wrong:
        t = _WrongPairing("T", fld)
        t.bad = ((("T", 1), ("T", -1)), (("T", 2), ("T", 3)))
        specs = [t]
        for ell in (1, 2):
            e = _WrongPairing("E", fld, ell=ell, flavor_lo=0, flavor_hi=2)
            e.bad = (((1, 0), (2, -1)),)
            specs.append(e)
    else:
        specs = [t_spec(fld)] + [e_spec(fld, ell=ell, flavor_lo=0, flavor_hi=2) for ell in (1, 2)]
    for spec in specs:
        flavors = ("T",) if spec.kind == "T" else (0, 1, 2)
        gens = [(r, m) for r in flavors for m in range(-3, 4)]
        yield spec, [(g1, g2) for g1 in gens for g2 in gens]


@pytest.mark.parametrize("fld", [Q2, QP], ids=["p=2", "Q(p)"])
@pytest.mark.parametrize("wrong", [False, True], ids=["true-spec", "wrong-pairings"])
def test_anticommutator_check_matches_two_apply_mode_reference(fld, wrong):
    failing = set()
    for spec, pairs in _anticommutator_cases(fld, wrong):
        module, ref = FockModule(spec), FockModule(spec)
        for g1, g2 in pairs:
            got = module.anticommutator_check(g1, g2, 3, spec.pairing(*g1, *g2))
            assert got == _anticommutator_reference(ref, g1, g2, 3), (spec.kind, g1, g2)
            if not got:
                failing.add((spec.kind, g1, g2))
    if wrong:
        assert failing == {
            ("T", ("T", -1), ("T", 1)),
            ("T", ("T", 2), ("T", 3)),
            ("E", (2, -1), (1, 0)),
        }
    else:
        assert not failing


def test_basis_monomials_is_enumerated_once_and_returned_fresh():
    module = FockModule(e_spec(QP, ell=1, flavor_lo=-2, flavor_hi=3))
    first = module.basis(3)
    first.append("junk")
    assert module.basis(3) == first[:-1]
    assert module.basis(3) is not module.basis(3)
    assert [w.terms for w in module.basis(3)] == [{m: QP.one()} for m in module._monomials[3]]
    assert list(module._monomials) == [3]


def test_every_basis_monomial_is_strictly_increasing_in_order_key(tmod, emod):
    # _apply_gen prepends a creation mode only when it sorts before the
    # monomial's first generator, so every enumerated monomial must be sorted
    for module in (tmod, emod):
        for w in module.basis(4):
            (mono,) = w.terms
            keys = [CarSpec.order_key(g) for g in mono]
            assert all(a < b for a, b in zip(keys, keys[1:])), mono


# -- the kind-switch CarSpec rules, kept as the reference for the data-driven ones


def _reference_pairing(spec, r, m, s, n):
    zero = spec.field.zero()
    if spec.kind == "T":
        if m + n != 0:
            return zero
        return 2 * (spec.field.p_power(m) + spec.field.p_power(-m))
    if m + n + 1 != 0:
        return zero
    if abs(r - s) != 1:
        return zero
    return 2 * spec.ell


def _reference_threshold(spec, r):
    return 1 if spec.kind == "T" else 0


def _reference_ann_bound(spec, w):
    out = 1 if spec.kind == "T" else 0
    for mono in w.terms:
        top = max([-n for _, n in mono], default=0)
        out = max(out, top + 1 if spec.kind == "T" else top)
    return out


def _reference_creation_generators(spec, flavor_lo, flavor_hi, max_weight):
    gens = []
    if spec.kind == "T":
        gens.append(("T", 0))
        for n in range(1, max_weight + 1):
            gens.append(("T", -n))
    else:
        for r in range(flavor_lo, flavor_hi + 1):
            for n in range(1, max_weight + 1):
                gens.append((r, -n))
    return sorted(gens, key=CarSpec.order_key)


_REFERENCE_SPECS = [("T", None, None, None)] + [
    ("E", ell, lo, hi) for ell in (1, 2) for lo, hi in ((0, 0), (0, 2), (-2, 3))
]


@pytest.mark.parametrize("fld", [Q2, QP], ids=["p=2", "Q(p)"])
@pytest.mark.parametrize(
    "kind,ell,lo,hi", _REFERENCE_SPECS, ids=[f"{k}-{e}-{a}..{b}" for k, e, a, b in _REFERENCE_SPECS]
)
def test_car_spec_data_matches_the_kind_switch_reference(fld, kind, ell, lo, hi):
    spec = t_spec(fld) if kind == "T" else e_spec(fld, ell=ell, flavor_lo=lo, flavor_hi=hi)
    flavors = ["T"] if kind == "T" else list(range(lo, hi + 1))
    modes = range(-4, 5)
    for r in flavors:
        assert spec.threshold == _reference_threshold(spec, r)
        for m in modes:
            for s in flavors:
                for n in modes:
                    got, want = spec.pairing(r, m, s, n), _reference_pairing(spec, r, m, s, n)
                    assert got == want and type(got) is type(want), (r, m, s, n)
    module = FockModule(spec)
    for w in module.basis(5):
        assert module.ann_bound(w) == _reference_ann_bound(spec, w), w
    for weight in range(7):
        assert module.creation_generators(weight) == _reference_creation_generators(
            spec, lo, hi, weight
        )

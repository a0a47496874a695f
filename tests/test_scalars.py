import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcalc.scalars import (
    Dyadic,
    PoleAtPoint,
    Poly,
    RatFunc,
    ScalarField,
    ZeroDenominator,
    ZeroToNegativePower,
    power,
    specialize,
)

p = RatFunc.p()

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def small_poly(max_deg=3):
    return st.lists(fractions, min_size=0, max_size=max_deg + 1).map(Poly)


def ratfuncs():
    return st.builds(
        lambda n, d: RatFunc(n, d if d else Poly.const(1)),
        small_poly(),
        small_poly(),
    )


def laurents():
    """Laurent polynomials: int or Fraction numerators over p**k, k in 0..4."""
    coeff = st.one_of(st.integers(-50, 50), fractions)
    return st.builds(
        lambda cs, k: RatFunc(Poly(cs), Poly((0,) * k + (1,))),
        st.lists(coeff, max_size=4),
        st.integers(0, 4),
    )


def qp_scalars():
    return st.one_of(laurents(), ratfuncs())


def _stored_form(f: RatFunc):
    return tuple((c, type(c)) for c in f.num.coeffs), tuple((c, type(c)) for c in f.den.coeffs)


def test_normalize_examples():
    assert RatFunc(Poly((-1, 0, 1)), Poly((-1, 1))) == p + 1
    assert RatFunc(Poly(()), Poly((2, 0, 0, 1))) == 0
    f = RatFunc(Poly((0, 2)), Poly((0, 0, 4)))
    assert f == Fraction(1, 2) * p**-1
    assert f.render() == "1/(2*p)"


def test_normalize_idempotent_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RatFunc(Poly((1,)), Poly(()))
    for f in ((1 + p) / (1 - p), p**5 / (p**2 + 3), RatFunc(0)):
        g = RatFunc(f.num, f.den)
        assert g == f
        assert RatFunc(g.num, g.den) == g


def test_specialize_examples():
    assert ((1 + p) / (1 - p)).specialize(2) == -3
    assert (p + p**-1).specialize(2) == Fraction(5, 2)
    with pytest.raises(PoleAtPoint):
        (1 / (p - 2)).specialize(2)
    assert specialize(Fraction(3, 4), 2) == Fraction(3, 4)


def test_power_examples():
    assert power(p, -3) == RatFunc(Poly((1,)), Poly((0, 0, 0, 1)))
    assert power(2, 10) == 1024
    assert power(Fraction(2), 10) == 1024
    with pytest.raises(ZeroToNegativePower):
        power(RatFunc(0), -1)
    with pytest.raises(ZeroToNegativePower):
        power(Fraction(0), -2)


def test_power_multiplies_only_what_the_exponent_needs(monkeypatch):
    # power(f, 1) is f and power(f, -1) is f's inverse: no product by RatFunc(1)
    f = (p - 1) / (p + 2)
    f5 = f * f * f * f * f
    calls = []
    mul = RatFunc.__mul__
    monkeypatch.setattr(RatFunc, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert power(f, 1) is f
    assert power(f, -1) == f.inverse()
    assert power(f, 0) == 1
    assert not calls
    # f^5 = f * (f^2)^2: two squarings and one product
    assert power(f, 5) == f5 and len(calls) == 3
    half = Dyadic(1, 2)
    assert type(power(half, -1)) is Dyadic and power(half, -1) == 2
    assert power(3, -1) == Fraction(1, 3) and power(Fraction(-2, 3), -1) == Fraction(-3, 2)


def test_canonical_form_syntactic_equality():
    a = (p**2 - 1) / (p - 1)
    assert a.num == (p + 1).num and a.den == (p + 1).den
    b = (2 * p**2 + 2 * p) / (2 * p)
    assert b == p + 1
    assert b.den.lc() == 1
    g = b.num.gcd(b.den)
    assert g == Poly.const(1)


def test_mixed_arithmetic_and_hash():
    assert p * Fraction(1, 2) == RatFunc(Poly((0, Fraction(1, 2))))
    assert 1 + p == p + 1
    assert 2 - p == -(p - 2)
    assert hash(RatFunc(Fraction(2, 3))) == hash(Fraction(2, 3))
    assert RatFunc(Fraction(2, 3)) == Fraction(2, 3)
    assert (p / p) == 1


@settings(max_examples=200, deadline=None)
@given(qp_scalars(), qp_scalars(), qp_scalars())
def test_field_axioms_qp(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if a:
        assert a * a.inverse() == 1


@settings(max_examples=200, deadline=None)
@given(fractions, fractions, fractions)
def test_field_axioms_q(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * (1 / a) == 1


@settings(max_examples=100, deadline=None)
@given(qp_scalars(), qp_scalars())
def test_specialize_is_homomorphism(f, g):
    p0 = Fraction(3)
    try:
        lhs = (f * g).specialize(p0)
        rf, rg = f.specialize(p0), g.specialize(p0)
    except PoleAtPoint:
        return
    assert lhs == rf * rg
    try:
        assert (f + g).specialize(p0) == rf + rg
    except PoleAtPoint:
        pass


@settings(max_examples=100, deadline=None)
@given(ratfuncs())
def test_normalize_idempotent(f):
    g = RatFunc(f.num, f.den)
    assert RatFunc(g.num, g.den) == g


def test_scalar_field_guard():
    with pytest.raises(ValueError):
        ScalarField.rationals(1)
    with pytest.raises(ValueError):
        ScalarField.rationals(0)
    with pytest.raises(ValueError):
        ScalarField.rationals(-1)
    fld = ScalarField.rationals(Fraction(2))
    assert fld.p_power(-2) == Fraction(1, 4)
    assert fld.coerce((1 + p) / (1 - p)) == -3
    sym = ScalarField.rational_functions()
    assert sym.p_power(3) == p**3
    assert sym.coerce(2) == RatFunc(2)


def test_render_descending_integer_coefficients():
    f = (p**2 - 1) / (2 * p)
    assert f.render() == "(p^2 - 1)/(2*p)"
    assert RatFunc(Fraction(-3, 2)).render() == "-3/2"


@settings(max_examples=200, deadline=None)
@given(laurents(), laurents())
def test_laurent_fast_path_matches_gcd_path(a, b):
    # a factor 1 + p in the denominator sends the constructor down the gcd path
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("p")
    q = sp.Poly(x + 1, x, domain="QQ")
    an, ad, bn, bd = (_sympy_poly(sp, x, f) for f in (a.num, a.den, b.num, b.den))
    for got, num, den in (
        (a + b, an * bd + bn * ad, ad * bd),
        (a * b, an * bn, ad * bd),
    ):
        ref = RatFunc(_from_sympy(num * q), _from_sympy(den * q))
        assert _stored_form(got) == _stored_form(ref)
        assert all(type(c) is Fraction for c in got.num.coeffs if c.denominator != 1)
        assert all(type(c) is int for c in got.num.coeffs if c.denominator == 1)


@settings(max_examples=200, deadline=None)
@given(laurents(), st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9), fractions))
def test_laurent_times_constant_matches_gcd_path(a, k):
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("p")
    q = sp.Poly(x + 1, x, domain="QQ")
    num, den = (_from_sympy(_sympy_poly(sp, x, f) * q) for f in (a.num.scale(k), a.den))
    ref = RatFunc(num, den)
    for got in (a * RatFunc(k), RatFunc(k) * a, k * a, a * k):
        assert _stored_form(got) == _stored_form(ref)


def test_laurent_constants_hash_like_fractions():
    assert hash(p * p**-1) == hash(Fraction(1)) == hash(1)
    half = (Fraction(5, 2) * p) * p**-1
    assert half == Fraction(5, 2) and hash(half) == hash(Fraction(5, 2))
    three = (3 * p**2) * p**-2
    assert three.num.coeffs == (3,) and type(three.num.coeffs[0]) is int
    assert hash(three) == hash(Fraction(3)) == hash(3)
    assert hash(RatFunc(0)) == hash(Fraction(0))


def test_lc_and_specialize_return_fractions():
    assert type(Poly((1, 2)).lc()) is Fraction
    assert 1 / Poly.const(2).lc() == Fraction(1, 2)
    for f in (RatFunc(3), RatFunc(Fraction(7, 3)), RatFunc(0), (2 * p) / p):
        assert type(f.specialize(5)) is Fraction


def test_laurent_pole_at_zero():
    with pytest.raises(PoleAtPoint):
        (p**-3).specialize(0)
    assert ScalarField.rational_functions().p_power(-3) == p**-3


def _random_tree(rng, depth, sp, x):
    """A random expression over p: (RatFunc value, the same tree in sympy over x)."""
    if depth == 0 or rng.random() < 0.25:
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        cs = sp.Rational(c.numerator, c.denominator)
        k = rng.randint(-3, 3)
        r = rng.choice((-2, -1, 2, 3))
        kind = rng.randrange(4)
        if kind == 0:  # Laurent monomial c p^k
            return c * p**k, cs * x**k
        if kind == 1:  # Laurent binomial p^k + c
            return p**k + c, x**k + cs
        if kind == 2:  # non-Laurent: p - r
            return p - r, x - r
        return 1 / (1 - p), 1 / (1 - x)
    op = rng.choice("+-*/")
    fa, ea = _random_tree(rng, depth - 1, sp, x)
    fb, eb = _random_tree(rng, depth - 1, sp, x)
    if op == "/" and not fb:
        op = "*"
    if op == "+":
        return fa + fb, ea + eb
    if op == "-":
        return fa - fb, ea - eb
    if op == "*":
        return fa * fb, ea * eb
    return fa / fb, ea / eb


def _sympy_poly(sp, x, f: Poly):
    """f as a sympy polynomial in x over QQ."""
    cs = [sp.Rational(c.numerator, c.denominator) for c in map(Fraction, reversed(f.coeffs))]
    return sp.Poly(cs or [0], x, domain="QQ")


def _from_sympy(g) -> Poly:
    """A sympy polynomial over QQ as a Poly."""
    return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs()))


def _sympy_canonical(sp, x, expr):
    """sympy.cancel's numerator and denominator, ascending, denominator made monic."""
    n, d = sp.fraction(sp.cancel(expr))
    n, d = sp.Poly(n, x), sp.Poly(d, x)
    lc = d.LC()

    def ascending(poly):
        cs = [Fraction(int(c.p), int(c.q)) / Fraction(int(lc.p), int(lc.q))
              for c in reversed(poly.all_coeffs())]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    return ascending(n), ascending(d)


def test_canonical_form_matches_sympy_cancel():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("p")
    rng = random.Random(20121)
    for _ in range(150):
        f, expr = _random_tree(rng, rng.randint(1, 3), sp, x)
        assert (f.num.coeffs, f.den.coeffs) == _sympy_canonical(sp, x, expr), (f, expr)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        qp_scalars(),
        st.sampled_from([RatFunc(0), RatFunc(1), RatFunc(-1), RatFunc(3), RatFunc(Fraction(1, 2))]),
    ),
    st.one_of(st.sampled_from([0, 1, -1]), st.integers(-60, 60)),
)
def test_equality_with_int_agrees_with_coerced_int(f, n):
    assert (f == n) == (f == RatFunc(n)) == (n == f)
    assert (f != n) == (not f == n)
    if f.is_constant():
        assert (f == n) == (f.specialize(1) == n)


# -- Dyadic: Z[1/2] values against plain Fraction ---------------------------------------

dyadic_values = st.builds(
    lambda n, k: Fraction(n, 2**k), st.integers(-300, 300), st.integers(0, 7)
) | st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-4), Fraction(1, 2)])
# the other operand: an int, a Dyadic, a plain dyadic Fraction, a plain non-dyadic Fraction
others = st.one_of(
    st.integers(-40, 40),
    dyadic_values.map(Dyadic),
    dyadic_values,
    st.builds(lambda n, d: Fraction(n, d), st.integers(-40, 40), st.sampled_from([3, 6, 12, 5, 7])),
)
ARITH = (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow)


def _is_dyadic(x) -> bool:
    d = Fraction(x).denominator
    return not d & (d - 1)


def _outcome(op, a, b):
    try:
        return op(a, b)
    except ArithmeticError as exc:  # division by zero, or a float power that overflows
        return type(exc)


def _assert_same(got, want):
    """Same outcome as Fraction: the same value in the same reduced form (or
    the same float, or the same error), and a Dyadic only in lowest terms
    over a power of 2."""
    if isinstance(want, type):
        assert got is want
        return
    assert got == want and isinstance(got, Fraction) == isinstance(want, Fraction)
    if isinstance(want, Fraction):
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    else:
        assert type(got) is type(want)
    if type(got) is Dyadic:
        d = got.denominator
        assert not d & (d - 1) and math.gcd(got.numerator, d) == 1


@settings(max_examples=300, deadline=None)
@given(dyadic_values, others)
def test_dyadic_arithmetic_matches_fraction(x, y):
    d = Dyadic(x)
    plain = Fraction(y) if isinstance(y, Fraction) else y  # the oracle sees no Dyadic
    for op in ARITH:
        forward, reflected = _outcome(op, d, y), _outcome(op, y, d)
        _assert_same(forward, _outcome(op, x, plain))
        _assert_same(reflected, _outcome(op, plain, x))
        if op in (operator.add, operator.sub, operator.mul) and _is_dyadic(y):
            assert type(forward) is Dyadic and type(reflected) is Dyadic
        if not _is_dyadic(y):
            # a non-dyadic operand leaves Z[1/2]: Fraction's own result, plain
            assert type(forward) is not Dyadic and type(reflected) is not Dyadic
    assert type(-d) is Dyadic and -d == -x


@settings(max_examples=200, deadline=None)
@given(dyadic_values, st.integers(-6, 6))
def test_dyadic_integer_powers_match_fraction(x, n):
    d = Dyadic(x)
    got, want = _outcome(operator.pow, d, n), _outcome(operator.pow, x, n)
    _assert_same(got, want)
    num = abs(x.numerator)
    if n >= 0 or (num and not num & (num - 1)):
        assert type(got) is Dyadic


@settings(max_examples=300, deadline=None)
@given(dyadic_values, others)
def test_dyadic_comparison_hash_and_text_match_fraction(x, y):
    d = Dyadic(x)
    y0 = Fraction(y) if isinstance(y, Fraction) else y
    assert (d == y) == (x == y0) == (y == d)
    assert (d < y) == (x < y0) and (y < d) == (y0 < x)
    assert (d <= y) == (x <= y0) and (d > y) == (x > y0)
    assert hash(d) == hash(x)
    assert bool(d) == bool(x)
    assert str(d) == str(x)
    assert repr(d) == repr(x) == f"Fraction({x.numerator}, {x.denominator})"
    assert d == Dyadic(x.numerator, x.denominator) == Dyadic(str(x))


def test_dyadic_division_by_zero():
    for zero in (0, Fraction(0), Dyadic(0)):
        with pytest.raises(ZeroDivisionError):
            Dyadic(3, 4) / zero
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 3) / Dyadic(zero)
        with pytest.raises(ZeroDivisionError):
            1 / Dyadic(zero)
    with pytest.raises(ZeroDivisionError):
        Dyadic(0) ** -1
    with pytest.raises(ZeroToNegativePower):
        power(Dyadic(0), -2)


def test_dyadic_fast_paths_and_fallbacks():
    assert type(Dyadic(3, 4) / 4) is Dyadic and Dyadic(3, 4) / 4 == Fraction(3, 16)
    assert type(Dyadic(3, 4) / -2) is Dyadic
    assert type(Dyadic(3, 4) / 3) is Fraction and Dyadic(3, 4) / 3 == Fraction(1, 4)
    assert type(Dyadic(3, 4) ** -2) is Fraction  # numerator 3 is not a power of 2
    assert type(Dyadic(-1, 8) ** -3) is Dyadic and Dyadic(-1, 8) ** -3 == -512
    assert type(Dyadic(4) ** -3) is Dyadic and Dyadic(4) ** -3 == Fraction(1, 64)
    assert type(Fraction(1, 6) * Dyadic(3)) is Fraction
    assert type(Fraction(1, 2) * Dyadic(3)) is Dyadic  # the subclass's reflected method
    assert type(Dyadic(1, 2) + 0.25) is float
    assert type(power(Dyadic(2), -3)) is Dyadic
    # a non-number operand gets its own reflected method
    assert Dyadic(1, 2) * RatFunc(3) == RatFunc(Fraction(3, 2))


def test_dyadic_cannot_hold_a_value_outside_z_half():
    for bad in ((1, 3), ("5/6",), (Fraction(1, 10),), (Fraction(3, 4), 5)):
        with pytest.raises(ValueError, match="not in Z"):
            Dyadic(*bad)
    d = Dyadic(-3, 8)
    for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert type(twin) is Dyadic and twin == d
    # loading goes through the constructor, so a pickle that carries a
    # non-dyadic value is refused
    assert pickle.dumps(d).count(b"Dyadic") == 1

    class Forged:
        def __reduce__(self):
            return Dyadic, (-3, 7)

    with pytest.raises(ValueError, match="not in Z"):
        pickle.loads(pickle.dumps(Forged()))


@pytest.mark.parametrize("p0", [2, -2, Fraction(1, 2), 4, "-1/2"])
def test_scalar_field_at_a_dyadic_point_yields_dyadics(p0):
    fld = ScalarField.rationals(p0)
    values = [fld.zero(), fld.one(), fld.from_int(-6), fld.p_power(5), fld.p_power(-3),
              fld.coerce(Fraction(5, 8)), fld.coerce(7), fld.coerce(p**2 - 3 * p**-1)]
    assert all(type(v) is Dyadic for v in values)
    assert fld.p_power(-3) == Fraction(p0) ** -3
    assert fld.coerce(p**2 - 3 * p**-1) == (p**2 - 3 * p**-1).specialize(p0)
    # a value outside Z[1/2] stays a plain Fraction
    assert type(fld.coerce(Fraction(1, 3))) is Fraction


@pytest.mark.parametrize("p0", [3, Fraction(3, 2)])
def test_scalar_field_at_other_points_yields_plain_fractions(p0):
    fld = ScalarField.rationals(p0)
    values = [fld.zero(), fld.one(), fld.from_int(-6), fld.p_power(5), fld.p_power(-3),
              fld.coerce(Fraction(5, 8)), fld.coerce(p + 1)]
    assert all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("bad", [0.1, 2.0, True, False])
def test_scalar_field_refuses_inexact_points(bad):
    with pytest.raises(ValueError, match=repr(bad)):
        ScalarField.rationals(bad)


def test_scalar_field_exact_points_stay_valid():
    for p0, want in ((2, Fraction(2)), (Fraction(1, 10), Fraction(1, 10)), ("1/10", Fraction(1, 10))):
        assert ScalarField.rationals(p0).p0 == want


# -- the factored canonical form against plain Euclid -----------------------------------

CYCLOTOMIC_NS = (1, 2, 3, 4, 6, 10, 14, 18)
PLANTED = Poly((2, 1, 1))  # p^2 + p + 2: no root of unity is a root, so r != 1


def _cyclotomic_polys():
    """Phi_n for the n above, by Poly division: p^n - 1 over Phi_d, d | n, d < n."""
    out = {}
    for n in range(1, max(CYCLOTOMIC_NS) + 1):
        f = Poly((-1,) + (0,) * (n - 1) + (1,))
        for d in range(1, n):
            if not n % d:
                f, r = f.divmod(out[d])
                assert not r
        out[n] = f
    return out


def _random_side(rng, sp, x, phis, planted):
    """c p^k prod Phi_n^e (times PLANTED when planted), expanded by sympy and
    as a product of RatFunc factors."""
    c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
    k = rng.randint(0, 3)
    expanded, built = _sympy_poly(sp, x, Poly((0,) * k + (c,))), c * p**k
    for n in rng.sample(CYCLOTOMIC_NS, rng.randint(0, 4)):
        e = rng.randint(1, 2)
        expanded = expanded * _sympy_poly(sp, x, phis[n]) ** e
        built = built * RatFunc(phis[n]) ** e
    if planted:
        expanded, built = expanded * _sympy_poly(sp, x, PLANTED), built * RatFunc(PLANTED)
    return expanded, built


def _euclid_form(num: Poly, den: Poly):
    """num / den reduced by the Euclidean gcd, denominator made monic."""
    g = num.gcd(den)
    n, d = num.divmod(g)[0], den.divmod(g)[0]
    lc = d.lc()
    return n.scale(1 / lc), d.scale(1 / lc)


def _euclid_render(num: Poly, den: Poly) -> str:
    """render()'s text for the reduced num / den with a monic den: integer
    coefficients without a common factor, descending, a parenthesized side
    when it has several terms or a coefficient."""
    m = math.lcm(*(c.denominator for c in num.coeffs + den.coeffs))
    g = math.gcd(*(int(c * m) for c in num.coeffs + den.coeffs))
    n, d = num.scale(Fraction(m, g)), den.scale(Fraction(m, g))
    if d == Poly.const(1):
        return n.render()
    wrap = [s if " " not in s and "*" not in s else f"({s})" for s in (n.render(), d.render())]
    return "/".join(wrap)


def test_factored_canonical_form_matches_euclid():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("p")
    phis = _cyclotomic_polys()
    rng = random.Random(20261)
    for case in range(120):
        planted = case % 4 == 0
        n1, f1 = _random_side(rng, sp, x, phis, planted and rng.random() < 0.7)
        n2, f2 = _random_side(rng, sp, x, phis, False)
        d, g = _random_side(rng, sp, x, phis, planted)
        num = _from_sympy(n1 * d + n2)
        n1, d = _from_sympy(n1), _from_sympy(d)
        want = _euclid_form(num, d)
        want_form = tuple(tuple((c, type(c)) for c in f.coeffs) for f in want)
        # the constructor from expanded polynomials, a quotient of products
        # and a sum over the lcm of two denominators must give one form, whose
        # residual denominator is 1 unless the planted factor is in it
        routes = (RatFunc(num, d), (f1 * g + f2) / g, f1 + f2 * g.inverse())
        for got in routes:
            assert _stored_form(got) == want_form, case
            assert got.render() == _euclid_render(*want), case
            assert got == routes[0] and hash(got) == hash(routes[0]), case
            assert (got._res != (1,)) == planted, case
        q = RatFunc(n1, d)
        assert (q.num, q.den) == _euclid_form(n1, d), case
        assert q * q.inverse() == 1 and (q - q) == 0


def test_carried_factor_roots_are_poles():
    with pytest.raises(PoleAtPoint):
        (1 / (p - 1)).specialize(1)
    with pytest.raises(PoleAtPoint):
        (p / (p + 1) ** 2).specialize(-1)
    with pytest.raises(PoleAtPoint):
        ((p + 1) * p**-2).specialize(0)
    with pytest.raises(PoleAtPoint):
        (1 / (PLANTED.coeffs[0] - p)).specialize(2)
    assert (1 / (p**2 + p + 1)).specialize(1) == Fraction(1, 3)


def test_degenerate_operations_fail_loudly():
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        RatFunc(0).inverse()
    with pytest.raises(ZeroDivisionError):
        p / 0
    with pytest.raises(ZeroDenominator):
        RatFunc(Poly((0, 1)), Poly())
    with pytest.raises(ZeroToNegativePower):
        power(0, -1)
    with pytest.raises(ZeroToNegativePower):
        power(RatFunc(0), -3)

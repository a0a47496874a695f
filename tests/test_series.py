import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdcalc.series import (
    INF,
    NEG_INF,
    FactoredRational,
    InsufficientWindow,
    NonzeroConstantTerm,
    RegionMismatch,
    TruncatedSeries,
    UnboundedExponent,
    binom,
    binom_expand,
    diagonal_collapse,
    divide_linear,
    exp_of_series,
    invert_unit_1v,
    iota_expand,
    log_series,
    mul_trunc_1v,
    partial_fractions,
    subst_exp,
    var_scaled,
)
from fdcalc.scalars import RatFunc, ScalarField, power

F = Fraction
BOX = {"x1": (-8, 8), "x2": (-8, 8)}


def laurent(terms):
    return TruncatedSeries.exact(("x1", "x2"), {k: F(v) for k, v in terms.items()})


ONE = laurent({(0, 0): 1})


def rand_laurent(rng, span=3, nterms=4):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        terms[(rng.randint(-span, span), rng.randint(-span, span))] = F(rng.randint(-5, 5))
    return TruncatedSeries.exact(("x1", "x2"), {k: v for k, v in terms.items() if v})


laurent_polys = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    max_size=4,
).map(lambda d: TruncatedSeries.exact(("x1", "x2"), d))


@settings(max_examples=80, deadline=None)
@given(laurent_polys, laurent_polys, laurent_polys)
def test_laurent_ring_axioms(a, b, c):
    assert ((a + b) + c).eq_on_common(a + (b + c))[0]
    assert ((a * b) * c).eq_on_common(a * (b * c))[0]
    assert (a * (b + c)).eq_on_common(a * b + a * c)[0]
    assert (a * b).eq_on_common(b * a)[0]
    assert (a + (-a)).is_zero_on_window()[0]


def test_binomial_coefficients():
    assert binom(-1, 3) == -1
    assert binom(2, 1) == 2
    assert binom(-2, 2) == 3
    assert binom(3, 5) == 0


def test_binom_expand_geometric():
    s = binom_expand(-1, "x1", "x2", ("x1", "x2"), BOX)
    for i in range(0, 8):
        assert s.get(x1=-1 - i, x2=i) == 1
    assert s.get(x1=0, x2=1) == 0
    t = binom_expand(-1, "x1", "x2", ("x2", "x1"), BOX)
    for i in range(0, 8):
        assert t.get(x2=-1 - i, x1=i) == -1


def test_binom_expand_polynomial_region_independent():
    a = binom_expand(2, "x1", "x2", ("x1", "x2"), BOX)
    b = binom_expand(2, "x1", "x2", ("x2", "x1"), BOX)
    want = laurent({(2, 0): 1, (1, 1): -2, (0, 2): 1})
    assert a.eq_on_common(want)[0]
    assert b.eq_on_common(want)[0]


def test_binom_inverse_roundtrip_both_regions():
    for region in (("x1", "x2"), ("x2", "x1")):
        for n in range(-4, 5):
            s = binom_expand(n, "x1", "x2", region, BOX)
            t = binom_expand(-n, "x1", "x2", region, BOX)
            ok, ce = (s * t).eq_on_common(ONE)
            assert ok, (region, n, ce)


def test_iota_geometric_and_validation():
    lam = F(3)
    f = FactoredRational(F(1), 0, ((lam, -1),))
    s = iota_expand(f, "x1", "x2", ("x1", "x2"), BOX)
    for i in range(0, 7):
        assert s.get(x1=-i - 1, x2=i + 1) == lam**i
    # multiply back: (x1/x2 - lam) * s == 1 on the window
    g = laurent({(1, -1): 1, (0, 0): -lam})
    ok, ce = (g * s.untagged()).eq_on_common(ONE)
    assert ok, ce


def test_iota_polynomial_case():
    f = FactoredRational(F(1), 0, ((F(5), 1),))
    s = iota_expand(f, "x1", "x2", ("x2", "x1"), BOX)
    assert s.eq_on_common(laurent({(1, -1): 1, (0, 0): -5}))[0]
    assert s.is_exact()


def test_iota_delta_difference():
    # the two expansions of 1/(x1-x2) differ by the unshifted kernel data
    f = FactoredRational(F(1), 0, ((F(1), -1),))
    a = iota_expand(f, "x1", "x2", ("x1", "x2"), BOX).shifted(x2=-1)
    b = iota_expand(f, "x1", "x2", ("x2", "x1"), BOX).shifted(x2=-1)
    d = a.untagged() - b.untagged()
    for n in range(-6, 7):
        assert d.get(x1=-n - 1, x2=n) == 1


def test_iota_region_coherence_random():
    rng = random.Random(7)
    pool = [F(1), F(2), F(-3), F(1, 2), F(5), F(-2), F(7)]
    for trial in range(50):
        rng.shuffle(pool)
        f = FactoredRational(
            F(rng.randint(1, 5)),
            rng.randint(-2, 2),
            ((pool[0], rng.choice([-2, -1, 1, 2])),),
        )
        g = FactoredRational(F(1), 0, ((pool[1], rng.choice([-2, -1, 1])),))
        region = ("x1", "x2") if trial % 2 else ("x2", "x1")
        wide = {"x1": (-12, 12), "x2": (-12, 12)}
        lhs = iota_expand(f, "x1", "x2", region, wide) * iota_expand(g, "x1", "x2", region, wide)
        rhs = iota_expand(f * g, "x1", "x2", region, wide)
        ok, ce = lhs.eq_on_common(rhs)
        assert ok, (trial, f.render(), g.render(), ce)


def test_window_soundness_against_full_products():
    rng = random.Random(11)
    for trial in range(40):
        P, Q = rand_laurent(rng), rand_laurent(rng)
        full = P * Q
        A = P.restricted({"x1": (-2, 2), "x2": (-1, 3)})
        B = Q.restricted({"x1": (-3, 1), "x2": (-2, 2)})
        C = A * B
        for e, c in full.coeffs.items():
            try:
                got = C.get(x1=e[0], x2=e[1])
            except LookupError:
                continue
            assert got == c, (trial, e)
        for e, c in C.coeffs.items():
            assert full.get(x1=e[0], x2=e[1]) == c, (trial, e)


def test_log_series_values():
    s = log_series(3)
    assert s.get(z=1) == 1 and s.get(z=2) == F(-1, 2) and s.get(z=3) == F(1, 3)
    with pytest.raises(ValueError):
        log_series(0)


def test_exp_log_roundtrip():
    e = exp_of_series(log_series(12), 12)
    want = TruncatedSeries.exact(("z",), {(0,): F(1), (1,): F(1)})
    ok, ce = e.eq_on_common(want)
    assert ok, ce


def test_exp_examples_and_errors():
    g = TruncatedSeries.exact(("z",), {(1,): F(1)}).restricted({"z": (NEG_INF, 3)})
    e = exp_of_series(g, 3)
    assert e.get(z=2) == F(1, 2) and e.get(z=3) == F(1, 6)
    odd = TruncatedSeries(
        ("z",), {(n,): F(2, n) for n in (1, 3, 5)}, {"z": (NEG_INF, 6)}, {"z": (1, INF)}
    )
    f = exp_of_series(odd, 6)
    assert all(f.get(z=k) == 2 for k in range(1, 7)) and f.get(z=0) == 1
    bad = TruncatedSeries.exact(("z",), {(0,): F(1), (1,): F(1)})
    with pytest.raises(NonzeroConstantTerm):
        exp_of_series(bad, 4)


def test_log_inverse_unit_part():
    # (log(1+z))^-1 = z^-1 (1 + z/2 - z^2/12 + ...)
    from fdcalc.series import invert_unit_1v, log1p_dict

    unit = {e - 1: c for e, c in log1p_dict(6).items()}
    inv = invert_unit_1v(unit, 3)
    assert inv[0] == 1 and inv[1] == F(1, 2) and inv[2] == F(-1, 12)


def test_subst_exp_monomials():
    s = TruncatedSeries.exact(("x1",), {(2,): F(1)})
    out = subst_exp(s, "x1", "x", "z", 2)
    assert out.get(x=2, z=0) == 1 and out.get(x=2, z=1) == 2 and out.get(x=2, z=2) == 2
    one = TruncatedSeries.exact(("x1",), {(0,): F(1)})
    out0 = subst_exp(one, "x1", "x", "z", 3)
    assert out0.get(x=0, z=0) == 1 and out0.get(x=0, z=1) == 0


def test_subst_exp_is_ring_map():
    rng = random.Random(3)
    for _ in range(20):
        A = rand_laurent(rng, span=2, nterms=3)
        B = rand_laurent(rng, span=2, nterms=3)
        sa = subst_exp(A, "x1", "u", "z", 4)
        sb = subst_exp(B, "x1", "u", "z", 4)
        sab = subst_exp(A * B, "x1", "u", "z", 4)
        ok, ce = (sa * sb).eq_on_common(sab)
        assert ok, ce


def test_subst_exp_divisibility_image():
    # (x1 - lam x2)^k at x1 = lam x2 e^z is (lam x2)^k (e^z - 1)^k: z^k divides
    lam = F(2)
    lin = laurent({(1, 0): 1, (0, 1): -lam})
    scaled = var_scaled((lin * lin).untagged(), "x1", lam)
    img = subst_exp(scaled, "x1", "x2", "z", 5)
    assert img.get(z=0, x2=2) == 0 and img.get(z=1, x2=2) == 0
    assert img.get(z=2, x2=2) == lam**2


def test_subst_exp_merge_requires_floor():
    tail = binom_expand(-1, "x1", "x2", ("x1", "x2"), BOX)
    with pytest.raises(UnboundedExponent):
        subst_exp(tail.untagged(), "x1", "x2", "z", 3)


def _merge_fixture(x1_support):
    # cells at x1 in -1..2 and x2 in -6..3, seen on x1 <= 4 and x2 <= 3, with
    # no certified x2 floor
    rng = random.Random(19)
    cells = {
        (m, j): F(rng.randint(-5, 5), rng.randint(1, 4)) for m in range(-1, 3) for j in range(-6, 4)
    }
    window = {"x1": (NEG_INF, 4), "x2": (NEG_INF, 3)}
    return cells, TruncatedSeries(("x1", "x2"), cells, window, {"x1": x1_support})


def test_subst_exp_merge_needs_no_target_floor_when_the_var_support_ends_in_its_window():
    # every x1-exponent m of the support [-1, 2] lies in the x1 window, so the
    # x2^e cell sums known cells while e - m <= 3 for every m >= -1: e <= 3 - 1
    cells, s = _merge_fixture((-1, 2))
    out = subst_exp(s, "x1", "x2", "z", 2)
    assert out.win("x2") == (NEG_INF, 2)
    assert all(e[0] <= 2 for e in out.coeffs)
    for e in range(-7, 3):
        for k in range(3):
            splits = [m for m in range(-1, 3) if (m, e - m) in cells]
            want = sum(cells[(m, e - m)] * F(m**k, math.factorial(k)) for m in splits)
            assert out.get(x2=e, z=k) == want, (e, k)


def test_subst_exp_merge_needs_the_target_floor_when_the_var_support_passes_its_window():
    # x1 support unbounded above: the cells above the x1 window top are known
    # only below an x2 floor, and there is none
    _, s = _merge_fixture((-1, INF))
    with pytest.raises(InsufficientWindow, match=r"x2 floor, window x1:\[-inf,4\] x2:\[-inf,3\]"):
        subst_exp(s, "x1", "x2", "z", 2)


def test_subst_exp_merge_needs_the_target_floor_under_a_bounded_target_window():
    # x2 window bounded below, no x2 floor: x2^-5 would read s[0, -5], which
    # the window does not know
    s = TruncatedSeries(
        ("x1", "x2"), {(0, 0): F(1)}, {"x1": (NEG_INF, 4), "x2": (-2, 3)}, {"x1": (0, 0)}
    )
    with pytest.raises(InsufficientWindow, match=r"x2 floor, window x1:\[-inf,4\] x2:\[-2,3\]"):
        subst_exp(s, "x1", "x2", "z", 1)
    with pytest.raises(InsufficientWindow, match="x2 floor"):
        diagonal_collapse(s, "x1", "x2", 1)


def test_subst_exp_merge_raises_the_bottom_over_a_floor_under_the_window():
    # declared x2 floor -3 under the x2 window floor -1: x2^e sums x1^m x2^(e-m)
    # for m in 0..1, which reads a cut cell unless e - 1 >= -1
    full = laurent({(m, j): 1 + m + 2 * j for m in range(2) for j in range(-3, 3)})
    out = subst_exp(full.restricted({"x2": (-1, 5)}), "x1", "x2", "z", 1)
    assert out.win("x2") == (0, INF)
    _assert_agrees_on_window(out, subst_exp(full, "x1", "x2", "z", 1))


def test_region_mismatch_guard():
    a = binom_expand(-1, "x1", "x2", ("x1", "x2"), BOX)
    b = binom_expand(-1, "x1", "x2", ("x2", "x1"), BOX)
    with pytest.raises(RegionMismatch):
        _ = a + b
    _ = a.untagged() - b.untagged()


def test_partial_fractions_examples():
    f = FactoredRational(F(1), 0, ((F(1), -1), (F(2), -1)))
    got = {(str(lam), j): a for lam, j, a in partial_fractions(f)}
    assert got[("1", 1)] == -1 and got[("2", 1)] == 1
    g = FactoredRational(F(1), 0, ((F(3), -1),))
    assert partial_fractions(g) == [(F(3), 1, F(1))]
    h = FactoredRational(F(1), 0, ((F(1), -2),))
    got = {j: a for _, j, a in partial_fractions(h)}
    assert got[2] == 1 and got[1] == 0


def test_partial_fractions_recombination():
    rng = random.Random(5)
    pool = [F(1), F(2), F(-3), F(1, 2), F(4)]
    for _ in range(15):
        rng.shuffle(pool)
        k1, k2 = rng.randint(1, 2), rng.randint(1, 2)
        f = FactoredRational(F(1), 0, ((pool[0], -k1), (pool[1], -k2)))
        terms = partial_fractions(f)
        # recombine over a common denominator and compare as expansions
        wide = {"x1": (-14, 14), "x2": (-14, 14)}
        want = iota_expand(f, "x1", "x2", ("x1", "x2"), wide)
        acc = None
        for lam, j, a in terms:
            if not a:
                continue
            part = iota_expand(
                FactoredRational(a, 0, ((lam, -j),)), "x1", "x2", ("x1", "x2"), wide
            )
            acc = part if acc is None else acc + part
        ok, ce = acc.eq_on_common(want)
        assert ok, (f.render(), ce)


def test_partial_fractions_rejects_bad_input():
    with pytest.raises(ValueError):
        partial_fractions(FactoredRational(F(1), 0, ((F(2), 1),)))
    with pytest.raises(ValueError):
        partial_fractions(FactoredRational(F(1), 2, ((F(2), -1),)))


def test_factored_rational_algebra():
    f = FactoredRational(F(2), 1, ((F(3), -1),))
    g = f.scale_arg(F(2))
    assert g.value_at(F(5)) == f.value_at(F(10))
    h = f.reciprocal_arg()
    assert h.value_at(F(4)) == f.value_at(F(1, 4))
    sq = f**2
    assert sq.value_at(F(2)) == f.value_at(F(2)) ** 2
    with pytest.raises(ValueError):
        FactoredRational(F(0))
    with pytest.raises(ValueError):
        FactoredRational(F(1), 0, ((F(0), 1),))


def test_exp_arg_dict_zero_order():
    f = FactoredRational(F(1), 0, ((F(1), 1), (F(4), 1)))
    k, unit = f.exp_arg_dict(4)
    assert k == 1
    assert unit[0] == 1 - 4  # h(0) * (1 - 4)


def test_exp_arg_dict_unit_certified_to_its_order():
    # the unit of (e^z - 1)^m = z^m * unit must be exact through z^order:
    # compare against a wider order, truncated
    for m in (1, 2):
        f = FactoredRational(F(1), 0, ((F(1), m),))
        for order in range(4):
            k, unit = f.exp_arg_dict(order)
            _, wide = f.exp_arg_dict(order + 3)
            assert k == m
            assert unit == {e: c for e, c in wide.items() if e <= order}
    # ((e^z - 1)/z)^2 = 1 + z + (1/4 + 1/3) z^2 + ...
    assert FactoredRational(F(1), 0, ((F(1), 2),)).exp_arg_dict(2)[1][2] == F(7, 12)
    k, unit = FactoredRational(F(1), 0, ((F(1), 1),)).exp_arg_dict(0)
    assert (k, unit) == (1, {0: 1})
    assert invert_unit_1v(unit, 0) == {0: 1}


def test_divide_linear_roundtrip_windowed():
    lam = F(3)
    lin = laurent({(1, 0): 1, (0, 1): -lam})
    rng = random.Random(9)
    for _ in range(10):
        B = rand_laurent(rng, span=2, nterms=3)
        if B.is_zero_series():
            continue
        D = (lin * B).restricted({"x1": (-9, 9), "x2": (-9, 9)})
        floors = {
            "x1": min(e[0] for e in D.coeffs),
            "x2": min(e[1] for e in D.coeffs),
        }
        D = D.assert_support_floor(floors)
        A = divide_linear(D, "x1", "x2", lam)
        ok, ce = (lin * A).eq_on_common(D)
        assert ok, ce


def test_var_scaled():
    s = laurent({(2, 1): 1, (-1, 0): 3})
    t = var_scaled(s, "x1", F(2))
    assert t.get(x1=2, x2=1) == 4 and t.get(x1=-1, x2=0) == F(3, 2)


# -- window soundness of the diagonal-mixing operations ------------------------

quadrant_polys = st.dictionaries(
    st.tuples(st.integers(-3, 4), st.integers(-3, 4)),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    min_size=1,
    max_size=6,
).map(lambda d: TruncatedSeries.exact(("x1", "x2"), d))


def _narrowed(P, hi1, hi2, known_support):
    """P on the window x1 <= hi1, x2 <= hi2.  With ``known_support`` False the
    x1 support bound is dropped and the x2 window left open, so the x1 floor
    must come from the stored cells (every cell below hi1 is stored)."""
    if known_support:
        window = {"x1": (NEG_INF, hi1), "x2": (NEG_INF, hi2)}
        return TruncatedSeries(P.vars, P.coeffs, window, P.support)
    return TruncatedSeries(P.vars, P.coeffs, {"x1": (NEG_INF, hi1)}, {"x2": P.support["x2"]})


def _assert_agrees_on_window(narrow, wide):
    """Every cell of narrow's certified window matches wide, and narrow
    reports nothing outside its window."""
    assert narrow.vars == wide.vars
    for e in narrow.coeffs:
        assert all(narrow.win(v)[0] <= x <= narrow.win(v)[1] for v, x in zip(narrow.vars, e))
    for e in set(narrow.coeffs) | set(wide.coeffs):
        if all(narrow.win(v)[0] <= x <= narrow.win(v)[1] for v, x in zip(narrow.vars, e)):
            cell = dict(zip(narrow.vars, e))
            assert narrow.get(**cell) == wide.get(**cell), (cell, narrow, wide)


window_cases = st.tuples(quadrant_polys, st.integers(-2, 5), st.integers(-2, 5), st.booleans())


@settings(max_examples=60, deadline=None)
@given(window_cases, st.integers(0, 4))
def test_subst_exp_narrow_window_agrees_with_wider(case, zorder):
    P, hi1, hi2, known = case
    narrow = _narrowed(P, hi1, hi2, known)
    for target in ("u", "x2"):  # a fresh variable, then the diagonal merge
        _assert_agrees_on_window(
            subst_exp(narrow, "x1", target, "z", zorder), subst_exp(P, "x1", target, "z", zorder)
        )


@settings(max_examples=60, deadline=None)
@given(window_cases, st.sampled_from([F(1), F(2), F(-1, 3)]))
def test_var_scaled_and_diagonal_collapse_narrow_window_agree_with_wider(case, lam):
    P, hi1, hi2, known = case
    narrow = _narrowed(P, hi1, hi2, known)
    _assert_agrees_on_window(var_scaled(narrow, "x1", lam), var_scaled(P, "x1", lam))
    _assert_agrees_on_window(
        diagonal_collapse(narrow, "x1", "x2", lam), diagonal_collapse(P, "x1", "x2", lam)
    )
    # degenerate diagonals fail loudly, naming the evaluation
    with pytest.raises(ValueError, match=r"x1 = \(2\)\*x1 needs distinct variables"):
        diagonal_collapse(narrow, "x1", "x1", F(2))
    with pytest.raises(ValueError, match=r"x1 = \(0\)\*x2 needs .* a nonzero scale"):
        diagonal_collapse(narrow, "x1", "x2", F(0))


@settings(max_examples=60, deadline=None)
@given(window_cases, st.sampled_from([F(1), F(3), F(-1, 2)]))
@example((laurent({(1, 0): 1}), 1, 0, True), F(1))  # the window top cuts the last diagonal
def test_divide_linear_narrow_window_agrees_with_wider(case, lam):
    B, hi1, hi2, known = case
    D = laurent({(1, 0): 1, (0, 1): -lam}) * B
    if D.is_zero_series():
        return
    narrow = _narrowed(D, hi1, hi2, known)
    _assert_agrees_on_window(
        divide_linear(narrow, "x1", "x2", lam), divide_linear(D, "x1", "x2", lam)
    )


# -- the one-variable convolution --------------------------------------------------


def _dense_product(a, b, lo, hi):
    out = {}
    for t in range(min(a) + min(b), max(a) + max(b) + 1):
        s = sum(a.get(i, 0) * b.get(t - i, 0) for i in a)
        if s and lo <= t <= hi:
            out[t] = s
    return out


def test_mul_trunc_1v_cancellation_and_cut():
    a = {0: F(1), 1: F(1), 2: F(1)}
    b = {2: F(1), 1: F(-1), 0: F(2)}
    # y^2 collects +1, -1, +2 in this order: zero on the way, 2 at the end;
    # y^3 collects +1, -1 and must not be stored
    got = mul_trunc_1v(a, b, 4)
    assert got == {0: 2, 1: 1, 2: 2, 4: 1}
    assert got == _dense_product(a, b, NEG_INF, 4)
    assert mul_trunc_1v(a, b, 3, 1) == {1: 1, 2: 2}
    assert mul_trunc_1v({0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}, 2) == {0: 1, 2: -1}


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(st.integers(-3, 4), st.integers(-3, 3), min_size=1, max_size=6),
    st.dictionaries(st.integers(-3, 4), st.integers(-3, 3), min_size=1, max_size=6),
    st.integers(-6, 8),
    st.integers(0, 8),
)
def test_mul_trunc_1v_matches_dense_reference(a, b, lo, span):
    hi = lo + span
    assert mul_trunc_1v(a, b, hi, lo) == _dense_product(a, b, lo, hi)
    assert mul_trunc_1v(a, b, hi) == _dense_product(a, b, NEG_INF, hi)


# -- sympy as an independent oracle ---------------------------------------------


def _sympy_coeffs(sp, expr, y, lo, hi):
    """Coefficients of y^t, lo <= t <= hi, of the Laurent expansion at y = 0."""
    ser = sp.series(expr, y, 0, hi + 1).removeO()
    return {t: F(str(ser.coeff(y, t))) for t in range(lo, hi + 1)}


def _cells_agree(s, want, cell):
    """s matches want[t] at cell(t) wherever its window certifies that cell."""
    checked = 0
    for t, c in want.items():
        exps = cell(t)
        if all(s.win(v)[0] <= x <= s.win(v)[1] for v, x in exps.items()):
            assert s.get(**exps) == c, (t, exps, s.get(**exps), c)
            checked += 1
    return checked


@pytest.mark.parametrize("n", [-3, -1, 2, 4])
def test_binom_expand_against_sympy_series(n):
    sp = pytest.importorskip("sympy")
    y = sp.Symbol("y")
    want = _sympy_coeffs(sp, (1 - y) ** n, y, 0, 7)
    # |x1| > |x2|: (x1 - x2)^n = x1^n (1 - x2/x1)^n
    s = binom_expand(n, "x1", "x2", ("x1", "x2"), BOX)
    assert _cells_agree(s, want, lambda i: {"x1": n - i, "x2": i}) >= 4
    # |x2| > |x1|: (x1 - x2)^n = (-x2)^n (1 - x1/x2)^n
    s = binom_expand(n, "x1", "x2", ("x2", "x1"), BOX)
    flipped = {i: (-1) ** (n % 2) * c for i, c in want.items()}
    assert _cells_agree(s, flipped, lambda i: {"x1": i, "x2": n - i}) >= 4


@pytest.mark.parametrize(
    "mexp, factors",
    [
        (0, ((F(3), -1),)),
        (1, ((F(1), -2), (F(-2), 1))),
        (-2, ((F(1, 2), -1), (F(5), -1), (F(3), 2))),
    ],
)
def test_iota_expand_against_sympy_series(mexp, factors):
    sp = pytest.importorskip("sympy")
    y, u = sp.Symbol("y"), sp.Symbol("u")
    f = FactoredRational(F(2, 3), mexp, factors)
    expr = sp.Rational(2, 3) * y**mexp
    for r, m in factors:
        expr *= (y - sp.Rational(r.numerator, r.denominator)) ** m
    # |x2| > |x1|: ascending powers of the ratio y = x1/x2
    asc = _sympy_coeffs(sp, expr, y, mexp, mexp + 8)
    s = iota_expand(f, "x1", "x2", ("x2", "x1"), BOX)
    assert _cells_agree(s, asc, lambda t: {"x1": t, "x2": -t}) >= 4
    # |x1| > |x2|: descending powers, the ascending expansion of f(1/u)
    desc = _sympy_coeffs(sp, expr.subs(y, 1 / u), u, -12, 8)
    s = iota_expand(f, "x1", "x2", ("x1", "x2"), BOX)
    assert _cells_agree(s, desc, lambda t: {"x1": -t, "x2": t}) >= 4


@pytest.mark.parametrize(
    "const, factors",
    [
        (F(1), ((F(1), -1), (F(2), -1))),
        (F(3, 2), ((F(-1, 2), -2), (F(3), -1))),
        (F(-1), ((F(1), -3), (F(2), -2), (F(5, 3), -1))),
    ],
)
def test_partial_fractions_against_sympy_apart(const, factors):
    sp = pytest.importorskip("sympy")
    y = sp.Symbol("y")
    expr = sp.Rational(const.numerator, const.denominator)
    for r, m in factors:
        expr *= (y - sp.Rational(r.numerator, r.denominator)) ** m
    want = {}
    for term in sp.Add.make_args(sp.apart(expr, y)):
        num, den = sp.fraction(sp.factor(term))
        den = sp.Poly(den, y)
        ((root, j),) = sp.roots(den).items()
        want[(F(str(root)), j)] = F(str(num / den.LC()))
    got = {(r, j): a for r, j, a in partial_fractions(FactoredRational(const, 0, factors)) if a}
    assert got == want


# -- the descending expansion is the ascending expansion of f(1/y) -----------


def _factor_desc(root, mult, span):
    """(y-root)**mult descending: sum_i C(mult,i)(-root)^i y^(mult-i), i in [0, span]."""
    out = {}
    for i in range(span + 1):
        c = binom(mult, i) * power(-root, i)
        if c:
            out[mult - i] = c
    return out


def _descending_reference(f, v1, v2, limits):
    """The region (v1, v2) expansion of f(v1/v2) by a descending product of
    the factors, each cut below where the factors still to come can no
    longer lift an exponent back into the window."""
    tmax = f.mexp + sum(m for _, m in f.factors)
    if f.is_laurent():
        d = {f.mexp: f.const}
        for r, m in f.factors:
            d = mul_trunc_1v(d, _factor_desc(r, m, m), INF)
        cells = {(t, -t) if v1 < v2 else (-t, t): c for t, c in d.items()}
        return TruncatedSeries.exact(tuple(sorted((v1, v2))), cells, (v1, v2))
    lo1, _ = limits.get(v1, (NEG_INF, INF))
    _, hi2 = limits.get(v2, (NEG_INF, INF))
    tlo = max(lo1, -hi2 if hi2 != INF else NEG_INF)
    d = {f.mexp: f.const}
    remaining = sum(m for _, m in f.factors)
    for r, m in f.factors:
        remaining -= m
        d = mul_trunc_1v(d, _factor_desc(r, m, int(tmax - tlo)), INF, tlo - max(remaining, 0))
    cells = {(t, -t) if v1 < v2 else (-t, t): c for t, c in d.items()}
    return TruncatedSeries(
        tuple(sorted((v1, v2))),
        cells,
        {v1: (tlo, INF), v2: (NEG_INF, INF)},
        {v1: (NEG_INF, tmax), v2: (-tmax, INF)},
        (v1, v2),
    )


def _reference_fields():
    p = RatFunc.p()
    at2, at3 = ScalarField.rationals(F(2)), ScalarField.rationals(F(3))
    return [
        ("p=2", at2.one(), [at2.coerce(x) for x in (F(2), F(-3), F(1, 2))]),
        ("p=3", at3.one(), [at3.coerce(x) for x in (F(3), F(-2, 3), F(5))]),
        ("Q(p)", RatFunc(1), [p, -p * p, p - 1]),
    ]


@pytest.mark.parametrize("mults", [(-1, -2, -1), (2, 1, 3), (-2, 3, -1), (1, -3, 2)])
@pytest.mark.parametrize("v1, v2", [("x1", "x2"), ("x2", "x1"), ("x1", "x")])
def test_descending_expansion_matches_the_descending_factor_product(mults, v1, v2):
    for name, one, roots in _reference_fields():
        for mexp in (0, 2, -3):
            f = FactoredRational(one * 3, mexp, tuple(zip(roots, mults)))
            tmax = mexp + sum(mults)
            limit_sets = [
                {v1: (tmax - 9, 20), v2: (-20, 20)},
                {v1: (tmax - 3, 20), v2: (-20, 20)},  # v1's floor cuts terms
                {v1: (-20, 20), v2: (-20, 4 - tmax)},  # v2's top cuts terms
            ]
            for limits in limit_sets:
                got = iota_expand(f, v1, v2, (v1, v2), limits)
                want = _descending_reference(f, v1, v2, limits)
                where = (name, f.render(), limits)
                assert got.vars == want.vars and got.coeffs == want.coeffs, where
                assert got.window == want.window and got.support == want.support, where
                assert got.region == want.region == (v1, v2), where
                assert got.coeffs, where


def test_ascending_coefficients_of_a_laurent_polynomial_are_its_truncation():
    p = RatFunc.p()
    for name, one, roots in _reference_fields():
        f = FactoredRational(one, -2, ((roots[0], 2), (roots[2], 3)))
        exact = f.ratio_coeffs_exact()
        assert min(exact) == -2 and max(exact) == 3, name
        for thi in (-3, -2, 0, 2, 3, 7):
            assert f.ratio_coeffs_ascending(thi) == {
                t: c for t, c in exact.items() if t <= thi
            }, (name, thi)
    # (y - p)^2 = y^2 - 2p y + p^2
    assert FactoredRational(RatFunc(1), 0, ((p, 2),)).ratio_coeffs_exact() == {
        0: p * p, 1: -2 * p, 2: RatFunc(1)
    }


def test_partial_fractions_recombine_over_qp():
    # sum a / (y - lam)^j is 1/p(y) at rational points, with Q(p) roots
    p = RatFunc.p()
    f = FactoredRational(RatFunc(2), 0, ((p, -2), (-p * p, -1), (p - 1, -3)))
    terms = partial_fractions(f)
    assert sorted((str(lam), j) for lam, j, _ in terms) == sorted(
        (str(lam), j) for lam, k in ((p, 2), (-p * p, 1), (p - 1, 3)) for j in range(1, k + 1)
    )
    for y in (RatFunc(F(1, 3)), RatFunc(5), RatFunc(F(-7, 2))):
        total = RatFunc(0)
        for lam, j, a in terms:
            total = total + a * power(y - lam, -j)
        assert total == f.value_at(y), y



# -- root signs in render, and the stored-cell support floor -------------------------


def test_render_root_signs():
    p = RatFunc.p()
    # a Q(p) root takes the sign of its numerator's leading coefficient
    assert FactoredRational(p, -1, ((-p * p, -2),)).render() == "(p)*y^-1*(y + p^2)^-2"
    assert FactoredRational(RatFunc(1), 0, ((-p, 1), (p * p, 1), (-1 / p, 2))).render() == (
        "(y + 1/p)^2*(y + p)*(y - p^2)"
    )
    # int and Fraction roots render as before
    assert FactoredRational(F(2, 3), 1, ((F(3), -1), (F(-1, 2), 2))).render() == (
        "2/3*y^1*(y + 1/2)^2*(y - 3)^-1"
    )
    assert FactoredRational(F(-1), -2, ((3, 1), (-4, -1))).render() == "-1*y^-2*(y + 4)^-1*(y - 3)"


def test_stored_floor_needs_every_other_window_unbounded():
    P = laurent({(0, 0): 1, (-1, 4): 1})
    # seen on x1, x2 <= 3 the x1^-1 x2^4 cell is outside the box, so the lowest
    # stored x1-exponent (0) certifies nothing; the true x2^3 coefficient is 1
    boxed = TruncatedSeries(P.vars, P.coeffs, {"x1": (NEG_INF, 3), "x2": (NEG_INF, 3)}, {})
    with pytest.raises(UnboundedExponent):
        diagonal_collapse(boxed, "x1", "x2", 1)
    # with the x2 window unbounded every cell under the x1 top is stored
    open_x2 = TruncatedSeries(P.vars, P.coeffs, {"x1": (NEG_INF, 3)}, {"x2": (0, INF)})
    d = diagonal_collapse(open_x2, "x1", "x2", 1)
    assert d.get(x2=3) == 1 and d.get(x2=0) == 1 and d.win("x2") == (NEG_INF, 3)


def test_stored_floor_of_an_empty_store_is_one_above_the_window():
    # x1^5 seen on x1 <= 3 stores nothing; its diagonal x2^5 lies above the
    # certified floor, not beyond an infinite one
    s = TruncatedSeries(("x1", "x2"), {(5, 0): 1}, {"x1": (NEG_INF, 3)}, {"x2": (0, INF)})
    d = diagonal_collapse(s, "x1", "x2", 1)
    assert d.is_zero_series() and d.win("x2") == (NEG_INF, 3)
    assert d.sup("x2")[0] == 4


def test_divide_linear_on_an_empty_store():
    # d = x1^4 (x1 - x2) seen on x1 <= 3 stores nothing: the quotient x1^4
    # vanishes on the whole x1 window, since a nonzero quotient cell there
    # would leave a nonzero cell of d in it
    d = TruncatedSeries(
        ("x1", "x2"), {(5, 0): 1, (4, 1): -1}, {"x1": (NEG_INF, 3)}, {"x1": (4, INF), "x2": (0, INF)}
    )
    A = divide_linear(d, "x1", "x2", 1)
    assert A.is_zero_series() and A.win("x1") == (NEG_INF, 3) and A.win("x2") == (NEG_INF, INF)
    # a finite x2 top: the quotient is computed, and certified, on x1 <= 3 - 6
    capped = d.restricted({"x2": (NEG_INF, 5)})
    A = divide_linear(capped, "x1", "x2", 1)
    assert A.is_zero_series() and A.win("x1") == (NEG_INF, -3) and A.win("x2") == (NEG_INF, 5)
    # x2^2 x1^4 (x1 - x2) seen on x2 <= 1 with the x1 window open above
    d = TruncatedSeries(
        ("x1", "x2"), {(5, 2): 1, (4, 3): -1}, {"x2": (NEG_INF, 1)}, {"x1": (4, INF), "x2": (0, INF)}
    )
    A = divide_linear(d, "x1", "x2", 1)
    assert A.is_zero_series() and A.win("x1") == (NEG_INF, INF) and A.win("x2") == (NEG_INF, 1)


def test_render_parenthesizes_compound_roots():
    p = RatFunc.p()
    assert FactoredRational(p, 0, ((p - 1, 1),)).render() == "(p)*(y - (p - 1))"
    assert FactoredRational(RatFunc(1), 0, ((1 - p, 2), (p * p + p, -1))).render() == (
        "(y + (p - 1))^2*(y - (p^2 + p))^-1"
    )
    # a quotient or a single term is one term already
    assert FactoredRational(RatFunc(1), 0, (((p + 1) / p, 1), (-p / (p - 1), 1), (2 * p, 1))).render() == (
        "(y - (p + 1)/p)*(y + p/(p - 1))*(y - 2*p)"
    )


# -- divide_linear on a v1 window that starts above the v1 floor ---------------------


def test_divide_linear_v1_window_above_the_floor():
    # x1^2 - x2^2 = (x1 - x2)(x1 + x2) seen on x1 in [1, 6]: the cell at x1^0
    # x2^2 is unknown, so the v2 top of the stored cells bounds nothing
    floors = {"x1": (0, INF), "x2": (0, INF)}
    d = TruncatedSeries(("x1", "x2"), {(2, 0): 1, (0, 2): -1}, {"x1": (1, 6)}, floors)
    with pytest.raises(InsufficientWindow, match=r"x1:\[1,6\] x2:\[-inf,inf\]"):
        divide_linear(d, "x1", "x2", 1)
    # with a finite x2 top the quotient is computed from x1 = lo1 - 1 up
    full = laurent({(1, 0): 1, (0, 1): -1}) * laurent({(1, 0): 1, (0, 1): 1, (3, 1): 1, (0, 2): 2})
    full = full.restricted({"x2": (NEG_INF, 6)}).assert_support_floor({"x1": 0, "x2": 0})
    for lo1 in (1, 2, 3):
        narrow = full.restricted({"x1": (lo1, 12)})
        A = divide_linear(narrow, "x1", "x2", 1)
        assert A.win("x1")[0] == (lo1 - 1 if lo1 > 1 else NEG_INF)
        ok, ce = A.eq_on_common(divide_linear(full, "x1", "x2", 1))
        assert ok, (lo1, ce)
    # every quotient cell reads d down to the x2 floor
    with pytest.raises(InsufficientWindow, match="below the x2 window"):
        divide_linear(full.restricted({"x2": (1, 6)}), "x1", "x2", 1)


def test_divide_linear_refuses_a_series_in_other_variables():
    d = TruncatedSeries.exact(("x1", "x2", "x3"), {(1, 0, 2): F(1), (0, 1, 2): F(-1)})
    with pytest.raises(ValueError, match=r"exactly x1 and x2, got \('x1', 'x2', 'x3'\)"):
        divide_linear(d, "x1", "x2", 1)
    with pytest.raises(ValueError, match="exactly x1 and x1"):
        divide_linear(laurent({(1, 0): 1}), "x1", "x1", 1)


@pytest.mark.parametrize("lam", [F(3), F(1), F(-1, 2)])
def test_divide_linear_on_vector_payloads_takes_the_scalar_quotient(lam):
    from fdcalc.fock import FockModule, t_spec

    v = FockModule(t_spec(ScalarField.rationals(F(2)))).basis(2)[-1]
    lin = laurent({(1, 0): 1, (0, 1): -lam})
    rng = random.Random(12)
    for _ in range(8):
        B = rand_laurent(rng, span=2, nterms=3)
        if B.is_zero_series():
            continue
        S = (lin * B).restricted({"x2": (NEG_INF, 3)}).assert_support_floor({"x1": -3, "x2": -3})
        Sv = TruncatedSeries(S.vars, {e: c * v for e, c in S.coeffs.items()}, S.window, S.support)
        A, Av = divide_linear(S, "x1", "x2", lam), divide_linear(Sv, "x1", "x2", lam)
        assert (Av.window, Av.support) == (A.window, A.support)
        assert A.coeffs and Av.coeffs == {e: c * v for e, c in A.coeffs.items()}


# -- the grouped product against the pairwise accumulate it replaced -----------------


def _pairwise_product(A, B):
    """A * B as one ``out[e] = out.get(e, 0) + ca * cb`` per contributing pair:
    the product's accumulate before it grouped the pairs by output cell.  The
    window, support and region rules are the product's own."""
    from fdcalc.series import _mul_interval, _support_add_hi, _support_add_lo

    region = A._combine_region(B, strict=True)
    vars = tuple(sorted(set(A.vars) | set(B.vars)))
    a, b = A._aligned(vars), B._aligned(vars)
    window, support = {}, {}
    for v in vars:
        window[v] = _mul_interval(A.win(v), A.sup(v), B.win(v), B.sup(v))
        sa, sb = A.sup(v), B.sup(v)
        support[v] = (_support_add_lo(sa[0], sb[0]), _support_add_hi(sa[1], sb[1]))
    bounds = [window[v] for v in vars]
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(lo <= x <= hi for x, (lo, hi) in zip(e, bounds)):
                out[e] = out.get(e, 0) + ca * cb
    return TruncatedSeries(vars, out, window, support, region)


def _same(s, t):
    return (s.vars, s.coeffs, s.window, s.support, s.region) == (
        t.vars, t.coeffs, t.window, t.support, t.region
    )


def _cut(s, rng):
    """s on a random window that cuts some of its cells."""
    return s.restricted({v: (rng.randint(-3, 0), rng.randint(0, 3)) for v in s.vars})


def _dict_series(rng, vars, payload, nterms=5):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        terms[tuple(rng.randint(-3, 3) for _ in vars)] = payload(rng)
    return TruncatedSeries.exact(vars, terms)


def test_grouped_product_matches_pairwise_on_scalars():
    from fdcalc.scalars import ScalarField

    p = RatFunc.p()
    q2 = ScalarField.rationals(2)
    payloads = {
        "Q": lambda rng: F(rng.randint(-4, 4), rng.choice([1, 2, 3])),
        "Q at p=2": lambda rng: q2.p_power(rng.randint(-3, 3)) * rng.randint(-2, 2),
        "Q(p)": lambda rng: rng.randint(-2, 2) * p ** rng.randint(-2, 2) + rng.randint(-1, 1),
    }
    rng = random.Random(4101)
    for name, payload in payloads.items():
        for trial in range(30):
            A = _dict_series(rng, ("x1", "x2"), payload)
            B = _dict_series(rng, ("x2",) if trial % 3 == 0 else ("x1", "x2"), payload)
            if trial % 2:
                A, B = _cut(A, rng), _cut(B, rng)
            assert _same(A * B, _pairwise_product(A, B)), (name, trial)


def test_grouped_product_matches_pairwise_on_fock_vectors():
    from fdcalc.fock import FockModule, t_spec
    from fdcalc.scalars import Dyadic, ScalarField

    for fld in (ScalarField.rationals(2), ScalarField.rationals(3), ScalarField.rational_functions()):
        module = FockModule(t_spec(fld))
        basis = module.basis(2)
        rng = random.Random(4102)

        def vector(rng):
            return sum(
                (fld.from_int(rng.randint(-2, 2)) * rng.choice(basis) for _ in range(3)),
                module.vacuum() * fld.zero(),
            )

        def scalar(rng):
            return fld.p_power(rng.randint(-2, 2)) * rng.choice([1, -1, 3])

        for trial in range(24):
            S = _dict_series(rng, ("x1",) if trial % 4 == 0 else ("x1", "x2"), scalar)
            V = _dict_series(rng, ("x1", "x2"), vector)
            if trial % 2:
                S, V = _cut(S, rng), _cut(V, rng)
            for got, want in ((S * V, _pairwise_product(S, V)), (V * S, _pairwise_product(V, S))):
                assert _same(got, want), (fld, trial)
                assert all(c for c in got.coeffs.values())
            if fld.p0 == 2:  # values of Z[1/2] stay Dyadic through the product
                assert all(type(x) is Dyadic for c in got.coeffs.values() for x in c.terms.values())


def test_grouped_product_drops_a_cell_that_cancels_to_the_zero_vector():
    from fdcalc.fock import FockModule, t_spec
    from fdcalc.scalars import ScalarField

    fld = ScalarField.rationals(2)
    module = FockModule(t_spec(fld))
    v, u = module.basis(2)[1], module.basis(2)[2]
    S = TruncatedSeries.exact(("x1",), {(0,): fld.one(), (1,): fld.p_power(1)})
    # cell x1^1: 1 * (2v - 2u) + 2 * (u - v) = 0; x1^0 and x1^2 keep u - v and 4v - 4u
    two = fld.from_int(2)
    V = TruncatedSeries.exact(("x1",), {(0,): u - v, (1,): two * v - two * u})
    for got, want in ((S * V, _pairwise_product(S, V)), (V * S, _pairwise_product(V, S))):
        assert _same(got, want)
        assert set(got.coeffs) == {(0,), (2,)}
        assert got.coeffs[(0,)] == u - v and got.coeffs[(2,)] == two * two * (v - u)


# -- scalars folded into the pass: subst_exp's scale and add_scaled ------------------


def _fold_fields():
    """(name, field, scales): p = 2 (Dyadic values), p = 3 (plain Fraction) and
    symbolic p, each with a negative, a fractional and the unit scale."""
    from fdcalc.scalars import ScalarField

    q2, q3, qp = ScalarField.rationals(2), ScalarField.rationals(3), ScalarField.rational_functions()
    p = RatFunc.p()
    return [
        ("p=2", q2, [q2.coerce(F(-1, 2)), q2.coerce(F(3, 4)), q2.from_int(-3), q2.one()]),
        ("p=3", q3, [q3.coerce(F(-2, 3)), q3.coerce(F(5, 7)), q3.one()]),
        ("Q(p)", qp, [-p, (p - 1) * p**-1, qp.coerce(F(-3, 2)), qp.one()]),
    ]


def _fold_payloads(fld):
    """A scalar payload and a Fock-vector payload over ``fld``."""
    from fdcalc.fock import FockModule, t_spec

    module = FockModule(t_spec(fld))
    basis = module.basis(2)

    def scalar(rng):
        return fld.p_power(rng.randint(-2, 2)) * rng.choice([1, -1, 3])

    def vector(rng):
        return sum(
            (fld.from_int(rng.randint(-2, 2)) * rng.choice(basis) for _ in range(3)),
            module.vacuum() * fld.zero(),
        )

    return {"scalar": scalar, "vector": vector}


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 4), st.integers(-1, 4), st.integers(-1, 4))
def test_subst_exp_scale_equals_var_scaled_first(rng, zorder, hi1, hi2):
    # the scale folded into the weights gives the cells, windows and support of
    # rescaling the variable first; the merge target needs certified floors, so
    # its input is an exact Laurent polynomial on a window with known support
    for name, fld, scales in _fold_fields():
        for kind, payload in _fold_payloads(fld).items():
            P = _dict_series(rng, ("x1", "x2"), payload)
            narrow = _narrowed(P, hi1, hi2, True)
            fresh = _cut(_dict_series(rng, ("x1", "x2"), payload), rng)
            for c in scales:
                for s, target in ((P, "x2"), (narrow, "x2"), (fresh, "u"), (P, "u")):
                    got = subst_exp(s, "x1", target, "z", zorder, scale=c)
                    want = subst_exp(var_scaled(s, "x1", c), "x1", target, "z", zorder)
                    assert _same(got, want), (name, kind, c, target)


def test_subst_exp_scale_hand_value_and_zero_scale():
    # x1^2 at x1 = -x e^z: (+1) x^2 (1 + 2z + 2z^2); x1^-1 at x1 = x/2 e^z: 2 x^-1 (1 - z)
    s = TruncatedSeries.exact(("x1",), {(2,): F(1), (-1,): F(1)})
    out = subst_exp(s, "x1", "x", "z", 2, scale=F(-1))
    assert [out.get(x=2, z=k) for k in range(3)] == [1, 2, 2]
    assert [out.get(x=-1, z=k) for k in range(3)] == [-1, 1, F(-1, 2)]
    half = subst_exp(s, "x1", "x", "z", 1, scale=F(1, 2))
    assert half.get(x=2, z=0) == F(1, 4) and half.get(x=-1, z=1) == -2
    with pytest.raises(ValueError, match="scale must be nonzero"):
        subst_exp(s, "x1", "x", "z", 2, scale=F(0))


def _tagged(rng, payload, region):
    s = _cut(_dict_series(rng, ("x1", "x2"), payload), rng)
    return TruncatedSeries(s.vars, s.coeffs, s.window, s.support, region)


def test_one_pass_difference_matches_negate_then_add():
    # a - b and a.add_scaled(b, c) in one pass against the two-pass a + (-b)
    # and a + b.scaled(c), with tags equal, absent on one side, and different
    regions = [None, ("x1", "x2"), ("x2", "x1")]
    rng = random.Random(4111)
    for name, fld, scales in _fold_fields():
        for kind, payload in _fold_payloads(fld).items():
            for trial in range(8):
                for ra in regions:
                    for rb in regions:
                        a, b = _tagged(rng, payload, ra), _tagged(rng, payload, rb)
                        if ra and rb and ra != rb:
                            with pytest.raises(RegionMismatch):
                                _ = a - b
                            with pytest.raises(RegionMismatch):
                                a.add_scaled(b, scales[0])
                            continue
                        assert _same(a - b, a + (-b)), (name, kind, ra, rb)
                        assert _same(a - a, a + (-a)) and not (a - a).coeffs
                        for c in scales + [-fld.one(), fld.zero()]:
                            assert _same(a.add_scaled(b, c), a + b.scaled(c)), (name, kind, c)


def test_scaled_by_one_is_the_series_itself():
    s = _narrowed(laurent({(1, 2): 3, (-1, 0): F(1, 2)}), 2, 3, True)
    assert s.scaled(1) is s and s.scaled(F(1)) is s and s.scaled(RatFunc(1)) is s

import random
from fractions import Fraction

import pytest

from fdcalc.distributions import (
    AnnihilationFails,
    DeltaSum,
    DeltaTerm,
    DiagonalDivergent,
    FormalDistribution,
    InsufficientWindow,
    NotDeltaSum,
    SingularSystem,
    annihilation_check,
    delta_decompose,
    delta_expand,
    delta_fit,
    shifted_delta_term,
    solve_exact,
    substitute_diag,
    three_term_check,
    unit_coeff,
    vanishing_order,
)
from fdcalc.scalars import RatFunc
from fdcalc.series import (
    INF,
    NEG_INF,
    FactoredRational,
    TruncatedSeries,
    iota_expand,
)

F = Fraction
p = RatFunc.p()
BOX = {"x1": (-10, 10), "x2": (-10, 10)}


def test_delta_expand_values():
    t = DeltaTerm(p, 0, unit_coeff("x2"))
    e = delta_expand(t, "x1", "x2", BOX)
    for m in range(-5, 6):
        assert e.get(x1=-m, x2=m) == p**m
    t1 = DeltaTerm(F(1), 1, unit_coeff("x2"))
    e1 = delta_expand(t1, "x1", "x2", BOX)
    for m in range(-5, 6):
        assert e1.get(x1=-m, x2=m) == m
    assert e1.get(x1=-2, x2=3) == 0


def test_delta_expand_payload_shift():
    A = TruncatedSeries.exact(("x2",), {(2,): F(3)})
    t = DeltaTerm(F(2), 0, A)
    e = delta_expand(t, "x1", "x2", BOX)
    assert e.get(x1=-1, x2=3) == 3 * 2
    assert e.get(x1=-1, x2=1) == 0


def test_annihilation_lemma_small():
    lim = {"x1": (-12, 12), "x2": (-12, 12)}
    for lam in (F(1), F(2), F(-3), p):
        for k in (1, 2, 3):
            for j in range(k):
                assert annihilation_check(lam, k, j, "x1", "x2", lim)
    assert not annihilation_check(F(1), 1, 1, "x1", "x2", lim)
    assert not annihilation_check(F(2), 2, 2, "x1", "x2", lim)
    with pytest.raises(ValueError):
        annihilation_check(F(2), 0, 0, "x1", "x2", lim)


def test_substitute_diag():
    t = DeltaTerm(F(1), 0, unit_coeff("x2"))
    f = TruncatedSeries.exact(("x1", "x2"), {(1, 1): F(1)})
    out = substitute_diag(f, t, "x1", "x2")
    assert out.coeff.get(x2=2) == 1
    g = TruncatedSeries.exact(("x1", "x2"), {(1, 0): F(1), (0, 1): F(-1)})
    out2 = substitute_diag(g, t, "x1", "x2")
    assert out2.coeff.is_zero_series()
    # oracle: expansion of the result equals f * expansion of the kernel
    rng = random.Random(2)
    for _ in range(10):
        terms = {
            (rng.randint(-2, 2), rng.randint(-2, 2)): F(rng.randint(-4, 4))
            for _ in range(3)
        }
        fr = TruncatedSeries.exact(("x1", "x2"), {k: v for k, v in terms.items() if v})
        res = substitute_diag(fr, t, "x1", "x2")
        lhs = delta_expand(res, "x1", "x2", {"x1": (-6, 6), "x2": (-8, 8)})
        rhs = fr * delta_expand(t, "x1", "x2", {"x1": (-9, 9), "x2": (-11, 11)})
        ok, ce = lhs.eq_on_common(rhs)
        assert ok, ce
    tail = delta_expand(t, "x1", "x2", BOX)
    with pytest.raises(DiagonalDivergent):
        substitute_diag(tail, t, "x1", "x2")


def test_delta_fit_roundtrip_simple():
    t = DeltaTerm(F(2), 0, unit_coeff("x2", F(3)))
    D = delta_expand(t, "x1", "x2", BOX)
    fit = delta_fit(D, [F(2)], 0, "x1", "x2")
    assert len(fit) == 1 and fit[0].lam == 2 and fit[0].j == 0
    assert fit[0].coeff.get(x2=0) == 3


def test_delta_fit_zero_and_insufficient():
    zero = TruncatedSeries(
        ("x1", "x2"), {}, BOX, {"x1": (INF, NEG_INF), "x2": (INF, NEG_INF)}
    )
    assert delta_fit(zero, [F(1), F(2), F(5)], 3, "x1", "x2") == []
    t = DeltaTerm(F(2), 0, unit_coeff("x2"))
    tiny = delta_expand(t, "x1", "x2", {"x1": (-2, 2), "x2": (-2, 2)})
    with pytest.raises(InsufficientWindow):
        delta_fit(tiny, [F(2), F(3), F(5)], 3, "x1", "x2")


def test_delta_fit_rejects_non_delta():
    f = FactoredRational(F(1), 0, ((F(1), -1),))
    s = iota_expand(f, "x1", "x2", ("x1", "x2"), BOX).shifted(x2=-1)
    s = s.untagged().restricted({"x1": (-9, 9), "x2": (-9, 9)})
    with pytest.raises(NotDeltaSum):
        delta_fit(s, [F(1)], 1, "x1", "x2")


def test_solve_exact_singular_guard():
    with pytest.raises(SingularSystem):
        solve_exact([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])


def test_delta_decompose_single_root():
    lam = F(3)
    inv = FactoredRational(F(1), 0, ((lam, -1),))
    ab = iota_expand(inv, "x1", "x2", ("x1", "x2"), BOX)
    K = iota_expand(inv, "x1", "x2", ("x2", "x1"), BOX)
    terms = delta_decompose(ab, K, FactoredRational(F(1), 0, ((lam, 1),)), "x1", "x2")
    assert len(terms) == 1
    t = terms[0]
    assert t.lam == lam and t.j == 0 and t.coeff.get(x2=0) == F(1, 3)


def test_delta_decompose_trivial_and_failure():
    poly = FactoredRational(F(1), 0, ((F(2), 1),))
    a = iota_expand(poly, "x1", "x2", ("x1", "x2"), BOX)
    assert delta_decompose(a, a, FactoredRational(F(1)), "x1", "x2") == []
    b = a.untagged() + TruncatedSeries.exact(("x1", "x2"), {(0, 0): F(1)})
    with pytest.raises(AnnihilationFails):
        delta_decompose(a, b, FactoredRational(F(1)), "x1", "x2")


def test_vanishing_order_cases():
    lin = TruncatedSeries.exact(("x1", "x2"), {(1, 0): F(1), (0, 1): F(-2)})
    A = lin * lin * lin * TruncatedSeries.exact(("x1", "x2"), {(1, 0): F(1)})
    assert vanishing_order(A, F(2), "x1", "x2") == 3
    B = TruncatedSeries.exact(("x1", "x2"), {(1, 0): F(1), (0, 1): F(-1)})
    assert vanishing_order(B, F(2), "x1", "x2") == 0
    with pytest.raises(ValueError):
        vanishing_order(TruncatedSeries.exact(("x1", "x2"), {}), F(2), "x1", "x2")


def test_three_term_symmetry_with_generated_data():
    # generate (A, B, C) from a polynomial with matching substitution data
    AB = TruncatedSeries(
        ("x1", "x2"), {(1, 1): F(1), (0, 0): F(2)}, {"x1": (-7, 7), "x2": (-7, 7)},
        {"x1": (0, 1), "x2": (0, 1)},
    )
    cco = {(0, 0): F(2)}
    fact = 1
    for t in range(0, 8):
        if t:
            fact *= t
        cco[(t, 2)] = F(1, fact)
    C = TruncatedSeries(
        ("x0", "x2"), cco, {"x0": (NEG_INF, 7), "x2": (-7, 7)},
        {"x0": (0, INF), "x2": (0, 2)},
    )
    assert three_term_check(AB, AB, C, 0, 4)
    # corrupting any single coefficient breaks it
    for corrupt in ((2, 1), (0, 0)):
        bad = AB + TruncatedSeries.exact(("x1", "x2"), {corrupt: F(1)})
        assert not three_term_check(AB, bad, C, 0, 4)
        assert not three_term_check(bad, AB, C, 0, 4)
    badC = C + TruncatedSeries.exact(("x0", "x2"), {(1, 0): F(1)})
    assert not three_term_check(AB, AB, badC, 0, 4)


def test_formal_distribution_key_invariant():
    t1 = DeltaTerm(F(1), 0, unit_coeff("x2"))
    t2 = DeltaTerm(F(1), 0, unit_coeff("x2", F(2)))
    with pytest.raises(ValueError):
        FormalDistribution(TruncatedSeries.exact(("x1", "x2"), {}), (t1, t2))
    FormalDistribution(TruncatedSeries.exact(("x1", "x2"), {}), (t1,))


def test_delta_sum_derivative_matches_expansion():
    # d/dx2 of the expansion == expansion of d_dv2 of the sum
    t = DeltaTerm(F(2), 1, TruncatedSeries.exact(("x2",), {(1,): F(1)}))
    ds = DeltaSum([t])
    dds = ds.d_dv2("x2")
    wide = {"x1": (-8, 8), "x2": (-10, 10)}
    e = ds.expand("x1", "x2", wide)
    de = dds.expand("x1", "x2", {"x1": (-8, 8), "x2": (-9, 9)})
    for (e1, e2), c in e.coeffs.items():
        if e2 != 0:
            pass
    # differentiate the expansion directly
    got = {}
    for (e1, e2), c in e.coeffs.items():
        if e2:
            got[(e1, e2 - 1)] = got.get((e1, e2 - 1), 0) + e2 * c
    for key, val in got.items():
        if -8 <= key[0] <= 8 and -9 <= key[1] <= 9:
            assert de.get(x1=key[0], x2=key[1]) == val


def test_shifted_delta_term_normalization():
    lam = F(3)
    t = shifted_delta_term(lam, "x2")
    e = delta_expand(t, "x1", "x2", BOX)
    # x1^-1 delta(lam x2/x1) = sum lam^n x1^(-n-1) x2^n
    for n in range(-5, 6):
        assert e.get(x1=-n - 1, x2=n) == lam**n


def test_window_errors_name_the_window():
    with pytest.raises(InsufficientWindow, match=r"x1 window, got \(-inf, 3\)"):
        delta_expand(DeltaTerm(F(1), 0, unit_coeff("x2")), "x1", "x2", {"x1": (NEG_INF, 3)})
    f = FactoredRational(F(1), 0, ((F(2), -1),))
    with pytest.raises(InsufficientWindow, match=r"x1:\(-4, inf\) x2:\(-inf, 5\)"):
        iota_expand(f, "x1", "x2", ("x2", "x1"), {"x1": (-4, INF), "x2": (NEG_INF, 5)})

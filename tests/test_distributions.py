import random
from fractions import Fraction

import pytest

from fdcalc.distributions import (
    AnnihilationFails,
    DeltaSum,
    DeltaTerm,
    DiagonalDivergent,
    InsufficientWindow,
    NotDeltaSum,
    SingularSystem,
    annihilation_check,
    delta_agree,
    delta_decompose,
    delta_expand,
    delta_fit,
    laurent_annihilator,
    shifted_delta_term,
    solve_exact,
    substitute_diag,
    three_term_check,
    unit_coeff,
    vanishing_order,
)
from fdcalc.scalars import RatFunc, ScalarField
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
    t = DeltaTerm(p, 0, unit_coeff())
    e = delta_expand(t, BOX)
    for m in range(-5, 6):
        assert e.get(x1=-m, x2=m) == p**m
    t1 = DeltaTerm(F(1), 1, unit_coeff())
    e1 = delta_expand(t1, BOX)
    for m in range(-5, 6):
        assert e1.get(x1=-m, x2=m) == m
    assert e1.get(x1=-2, x2=3) == 0


def test_delta_expand_payload_shift():
    A = TruncatedSeries.exact(("x2",), {(2,): F(3)})
    t = DeltaTerm(F(2), 0, A)
    e = delta_expand(t, BOX)
    assert e.get(x1=-1, x2=3) == 3 * 2
    assert e.get(x1=-1, x2=1) == 0


def test_annihilation_lemma_small():
    lim = {"x1": (-12, 12), "x2": (-12, 12)}
    for lam in (F(1), F(2), F(-3), p):
        for k in (1, 2, 3):
            for j in range(k):
                assert annihilation_check(lam, k, j, lim)
    assert not annihilation_check(F(1), 1, 1, lim)
    assert not annihilation_check(F(2), 2, 2, lim)
    with pytest.raises(ValueError):
        annihilation_check(F(2), 0, 0, lim)


def test_substitute_diag():
    t = DeltaTerm(F(1), 0, unit_coeff())
    f = TruncatedSeries.exact(("x1", "x2"), {(1, 1): F(1)})
    out = substitute_diag(f, t)
    assert out.coeff.get(x2=2) == 1
    g = TruncatedSeries.exact(("x1", "x2"), {(1, 0): F(1), (0, 1): F(-1)})
    out2 = substitute_diag(g, t)
    assert out2.coeff.is_zero_series()
    # oracle: expansion of the result equals f * expansion of the kernel
    rng = random.Random(2)
    for _ in range(10):
        terms = {
            (rng.randint(-2, 2), rng.randint(-2, 2)): F(rng.randint(-4, 4))
            for _ in range(3)
        }
        fr = TruncatedSeries.exact(("x1", "x2"), {k: v for k, v in terms.items() if v})
        res = substitute_diag(fr, t)
        lhs = delta_expand(res, {"x1": (-6, 6), "x2": (-8, 8)})
        rhs = fr * delta_expand(t, {"x1": (-9, 9), "x2": (-11, 11)})
        ok, ce = lhs.eq_on_common(rhs)
        assert ok, ce
    tail = delta_expand(t, BOX)
    with pytest.raises(DiagonalDivergent):
        substitute_diag(tail, t)


def test_delta_fit_roundtrip_simple():
    t = DeltaTerm(F(2), 0, unit_coeff(F(3)))
    D = delta_expand(t, BOX)
    fit = delta_fit(D, [F(2)], 0)
    assert len(fit) == 1 and fit[0].lam == 2 and fit[0].j == 0
    assert fit[0].coeff.get(x2=0) == 3


def test_delta_fit_zero_and_insufficient():
    zero = TruncatedSeries(
        ("x1", "x2"), {}, BOX, {"x1": (INF, NEG_INF), "x2": (INF, NEG_INF)}
    )
    assert delta_fit(zero, [F(1), F(2), F(5)], 3) == []
    t = DeltaTerm(F(2), 0, unit_coeff())
    tiny = delta_expand(t, {"x1": (-2, 2), "x2": (-2, 2)})
    with pytest.raises(InsufficientWindow):
        delta_fit(tiny, [F(2), F(3), F(5)], 3)


def test_delta_fit_rejects_non_delta():
    f = FactoredRational(F(1), 0, ((F(1), -1),))
    s = iota_expand(f, "x1", "x2", ("x1", "x2"), BOX).shifted(x2=-1)
    s = s.untagged().restricted({"x1": (-9, 9), "x2": (-9, 9)})
    with pytest.raises(NotDeltaSum):
        delta_fit(s, [F(1)], 1)


def test_solve_exact_singular_guard():
    with pytest.raises(SingularSystem):
        solve_exact([[F(1), F(1)], [F(1), F(1)]], {0: [F(1), F(2)]})


def test_delta_decompose_single_root():
    lam = F(3)
    inv = FactoredRational(F(1), 0, ((lam, -1),))
    ab = iota_expand(inv, "x1", "x2", ("x1", "x2"), BOX)
    K = iota_expand(inv, "x1", "x2", ("x2", "x1"), BOX)
    terms = delta_decompose(ab, K, FactoredRational(F(1), 0, ((lam, 1),)))
    assert len(terms) == 1
    t = terms[0]
    assert t.lam == lam and t.j == 0 and t.coeff.get(x2=0) == F(1, 3)


def test_delta_decompose_trivial_and_failure():
    poly = FactoredRational(F(1), 0, ((F(2), 1),))
    a = iota_expand(poly, "x1", "x2", ("x1", "x2"), BOX)
    assert delta_decompose(a, a, FactoredRational(F(1))) == []
    b = a.untagged() + TruncatedSeries.exact(("x1", "x2"), {(0, 0): F(1)})
    with pytest.raises(AnnihilationFails):
        delta_decompose(a, b, FactoredRational(F(1)))


def test_vanishing_order_cases():
    lin = TruncatedSeries.exact(("x1", "x2"), {(1, 0): F(1), (0, 1): F(-2)})
    A = lin * lin * lin * TruncatedSeries.exact(("x1", "x2"), {(1, 0): F(1)})
    assert vanishing_order(A, F(2)) == 3
    B = TruncatedSeries.exact(("x1", "x2"), {(1, 0): F(1), (0, 1): F(-1)})
    assert vanishing_order(B, F(2)) == 0
    with pytest.raises(ValueError):
        vanishing_order(TruncatedSeries.exact(("x1", "x2"), {}), F(2))


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
    assert three_term_check(AB, AB, C, 4)
    # corrupting any single coefficient breaks it
    for corrupt in ((2, 1), (0, 0)):
        bad = AB + TruncatedSeries.exact(("x1", "x2"), {corrupt: F(1)})
        assert not three_term_check(AB, bad, C, 4)
        assert not three_term_check(bad, AB, C, 4)
    badC = C + TruncatedSeries.exact(("x0", "x2"), {(1, 0): F(1)})
    assert not three_term_check(AB, AB, badC, 4)


def test_delta_sum_derivative_matches_expansion():
    # d/dx2 of the expansion == expansion of d_dx2 of the sum
    t = DeltaTerm(F(2), 1, TruncatedSeries.exact(("x2",), {(1,): F(1)}))
    ds = DeltaSum([t])
    dds = ds.d_dx2()
    wide = {"x1": (-8, 8), "x2": (-10, 10)}
    e = ds.expand(wide)
    de = dds.expand({"x1": (-8, 8), "x2": (-9, 9)})
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
    t = shifted_delta_term(lam)
    e = delta_expand(t, BOX)
    # x1^-1 delta(lam x2/x1) = sum lam^n x1^(-n-1) x2^n
    for n in range(-5, 6):
        assert e.get(x1=-n - 1, x2=n) == lam**n


def test_window_errors_name_the_window():
    with pytest.raises(InsufficientWindow, match=r"x1 window, got \(-inf, 3\)"):
        delta_expand(DeltaTerm(F(1), 0, unit_coeff()), {"x1": (NEG_INF, 3)})
    f = FactoredRational(F(1), 0, ((F(2), -1),))
    with pytest.raises(InsufficientWindow, match=r"x1:\(-4, inf\) x2:\(-inf, 5\)"):
        iota_expand(f, "x1", "x2", ("x2", "x1"), {"x1": (-4, INF), "x2": (NEG_INF, 5)})


def test_a_missing_x1_limit_is_an_insufficient_window():
    t = DeltaTerm(F(1), 0, unit_coeff())
    for limits in ({}, {"x2": (-3, 3)}):
        with pytest.raises(InsufficientWindow, match="needs a finite x1 window"):
            delta_expand(t, limits)
        with pytest.raises(InsufficientWindow, match="needs a finite x1 window"):
            DeltaSum([t]).expand(limits)


def test_delta_fit_refuses_a_series_not_in_exactly_x1_and_x2():
    # the lambda = 1 kernel at z^0 plus 5 times it at z^1: a fit that ignored
    # z would merge the two cells of each (x1, x2) and report coefficient 5
    t = DeltaTerm(F(1), 0, unit_coeff())
    D = delta_expand(t, BOX) * TruncatedSeries.exact(("z",), {(0,): F(1), (1,): F(5)})
    assert D.vars == ("x1", "x2", "z")
    with pytest.raises(ValueError, match=r"x1, x2, got one in \('x1', 'x2', 'z'\)"):
        delta_fit(D, [F(1)], 0)
    with pytest.raises(ValueError, match="x1, x2"):
        delta_agree(D, [F(1)], 0, [t])
    with pytest.raises(ValueError, match="x1, x2"):
        delta_fit(TruncatedSeries.exact(("x1",), {(0,): F(1)}), [F(1)], 0)


# -- delta_fit against the fit-then-validate reference ------------------------------


def _reference_delta_fit(D, lambdas, jmax):
    """delta_fit as it was before the recurrence check: one absolute
    Vandermonde solve per diagonal, then a lam^n prediction per cell."""
    from fdcalc.scalars import power

    lambdas = list(lambdas)
    L = len(lambdas) * (jmax + 1)
    lo1, hi1 = D.win("x1")
    lo2, hi2 = D.win("x2")
    if hi1 == INF:
        raise InsufficientWindow(f"delta fit needs a finite x1 ceiling, window {D.window_str()}")
    iv1, iv2 = D.vars.index("x1"), D.vars.index("x2")
    params = [(l, j) for l in lambdas for j in range(jmax + 1)]

    def n_interval(d):
        lo = max(-hi1, (lo2 - d) if lo2 != NEG_INF else NEG_INF)
        hi = min((-lo1) if lo1 != NEG_INF else INF, (hi2 - d) if hi2 != INF else INF)
        return lo, hi

    stored_d = sorted({e[iv1] + e[iv2] for e in D.coeffs})
    cells = {(-e[iv1], e[iv1] + e[iv2]): c for e, c in D.coeffs.items()}
    solutions = {}
    for d in stored_d:
        nlo, nhi = n_interval(d)
        if nhi == INF:
            raise NotDeltaSum(f"diagonal {d} has unbounded certified support with nonzero entries")
        if nhi - nlo + 1 < L:
            raise InsufficientWindow(
                f"diagonal {d}: {int(max(nhi - nlo + 1, 0))} entries < {L} parameters"
            )
        n0 = int(nlo)
        rows = [[(n**j) * power(l, n) for l, j in params] for n in range(n0, n0 + L)]
        sol = solve_exact(rows, {0: [cells.get((n, d), 0) for n in range(n0, n0 + L)]})[0]
        for n in range(n0 + L, int(nhi) + 1):
            pred = 0
            for col, (l, j) in enumerate(params):
                if sol[col]:
                    pred = pred + (n**j) * power(l, n) * sol[col]
            if pred != cells.get((n, d), 0):
                raise NotDeltaSum(f"diagonal {d} deviates from the fit at n = {n}")
        solutions[d] = sol

    def len_ok(iv):
        return iv[0] == NEG_INF or iv[1] == INF or iv[1] - iv[0] + 1 >= L

    scan_lo = (lo1 + lo2) if (lo1 != NEG_INF and lo2 != NEG_INF) else (stored_d[0] - 1 if stored_d else 0)
    scan_hi = (hi1 + hi2) if hi2 != INF else (stored_d[-1] + 1 if stored_d else 0)
    cert = [d for d in range(int(scan_lo), int(scan_hi) + 1) if len_ok(n_interval(d))]
    if cert:
        alo = NEG_INF if (lo1 == NEG_INF or lo2 == NEG_INF) and len_ok(n_interval(cert[0] - 1)) else cert[0]
        ahi = cert[-1]
    else:
        alo, ahi = 0, -1
    out = []
    for col, (l, j) in enumerate(params):
        coeffs = {(d,): sol[col] for d, sol in solutions.items() if sol[col]}
        A = TruncatedSeries(("x2",), coeffs, {"x2": (alo, ahi)}, {"x2": (NEG_INF, INF)})
        if not A.is_zero_series():
            out.append(DeltaTerm(l, j, A))
    return out


def _fit_outcome(fit, D, lambdas, jmax):
    try:
        terms = fit(D, lambdas, jmax)
    except (NotDeltaSum, InsufficientWindow) as exc:
        return type(exc).__name__, str(exc)
    return [(repr(t.lam), t.j, t.coeff.coeffs, t.coeff.window, t.coeff.support) for t in terms]


def _random_sum(rng, lambdas, jmax, payload):
    terms = []
    for lam in lambdas:
        for j in range(jmax + 1):
            if rng.random() < 0.3:
                continue
            coeffs = {(rng.randint(-4, 4),): payload(rng) for _ in range(rng.randint(1, 3))}
            terms.append(DeltaTerm(lam, j, TruncatedSeries.exact(("x2",), coeffs)))
    return DeltaSum(terms).merged()


def _run_starts(D, box):
    """Distinct starts of the certified diagonal runs of D on ``box``."""
    hi1, lo2 = box["x1"][1], box["x2"][0]
    return {max(-hi1, lo2 - (e[0] + e[1])) for e in D.coeffs}


def _check_against_reference(D, lambdas, jmax):
    want = _fit_outcome(_reference_delta_fit, D, lambdas, jmax)
    got = _fit_outcome(delta_fit, D, lambdas, jmax)
    assert got == want
    return got


def _counting_solves(monkeypatch):
    import fdcalc.distributions as dist

    calls = []
    real = dist.solve_exact

    def counted(matrix, rhs):
        calls.append(len(rhs) if isinstance(rhs, dict) else 1)
        return real(matrix, rhs)

    monkeypatch.setattr(dist, "solve_exact", counted)
    return calls


# x2 bounded below, so diagonals d < lo2 + hi1 start their run at lo2 - d
STAGGERED = {"x1": (-12, 12), "x2": (-9, 9)}


def test_delta_fit_matches_reference_at_p2(monkeypatch):
    rng = random.Random(3)
    lambdas = [F(2), F(1, 2), F(4)]
    calls = _counting_solves(monkeypatch)
    for _ in range(12):
        D = _random_sum(rng, lambdas, 1, lambda r: F(r.randint(-9, 9) or 1, r.randint(1, 4)))
        D = D.expand(STAGGERED)
        calls.clear()
        got = _check_against_reference(D, lambdas, 1)
        assert got
        # one elimination per distinct run start, every diagonal a right-hand side
        assert len(calls) == len(_run_starts(D, STAGGERED)) and sum(calls) == len(
            {e[0] + e[1] for e in D.coeffs}
        )
    assert len(_run_starts(D, STAGGERED)) > 1


def test_delta_fit_matches_reference_over_qp():
    rng = random.Random(4)
    lambdas = [p, p**-1, -p * p]
    box = {"x1": (-6, 6), "x2": (-5, 5)}
    for _ in range(4):
        D = _random_sum(rng, lambdas, 1, lambda r: r.randint(1, 3) * p ** r.randint(-2, 2) + r.randint(-2, 2))
        D = D.expand(box)
        assert _check_against_reference(D, lambdas, 1)
        assert len(_run_starts(D, box)) > 1


def test_delta_fit_matches_reference_on_fock_payloads():
    from fdcalc.fock import FockModule, t_spec
    from fdcalc.scalars import ScalarField

    module = FockModule(t_spec(ScalarField.rationals(F(2))))
    basis = module.basis(3)
    rng = random.Random(5)
    lambdas = [F(2), F(1, 2)]
    for _ in range(4):
        D = _random_sum(rng, lambdas, 1, lambda r: F(r.randint(1, 5)) * r.choice(basis) + r.choice(basis))
        D = D.expand(STAGGERED)
        assert _check_against_reference(D, lambdas, 1)


def test_delta_fit_corrupted_cell_reports_the_same_n():
    lambdas = [F(2), F(3)]
    A = TruncatedSeries.exact(("x2",), {(0,): F(1), (2,): F(-5)})
    D = DeltaSum([DeltaTerm(F(2), 0, A), DeltaTerm(F(3), 1, A)]).expand(STAGGERED)
    assert _check_against_reference(D, lambdas, 1)
    # the run of diagonal 2 is n = -11..7, that of diagonal 0 is n = -9..9; corrupt
    # a cell past the first L = 4 entries of a run, one among them, a run's
    # first and last cells, and a cell on a diagonal that held none
    for n, d in ((-3, 2), (-10, 2), (7, 2), (-9, 0), (9, -1)):
        bad = dict(D.coeffs)
        bad[(-n, n + d)] = bad.get((-n, n + d), 0) + 1
        Dbad = TruncatedSeries(D.vars, bad, D.window, D.support)
        got = _check_against_reference(Dbad, lambdas, 1)
        assert got[0] == "NotDeltaSum" and f"diagonal {d} deviates" in got[1]
    # the fit rejects a non-delta diagonal where the reference does
    f = FactoredRational(F(1), 0, ((F(1), -1),))
    s = iota_expand(f, "x1", "x2", ("x1", "x2"), BOX).shifted(x2=-1)
    s = s.untagged().restricted({"x1": (-9, 9), "x2": (-9, 9)})
    assert _check_against_reference(s, [F(1)], 1)[0] == "NotDeltaSum"


def test_delta_fit_window_errors_match_reference():
    t = DeltaTerm(F(2), 0, unit_coeff())
    tiny = delta_expand(t, {"x1": (-2, 2), "x2": (-2, 2)})
    got = _check_against_reference(tiny, [F(2), F(3), F(5)], 3)
    assert got == ("InsufficientWindow", "diagonal 0: 5 entries < 12 parameters")
    # x1 open below and x2 open above: a run with infinitely many certified entries
    unbounded = TruncatedSeries(tiny.vars, tiny.coeffs, {"x1": (NEG_INF, 2)}, tiny.support)
    got = _check_against_reference(unbounded, [F(2)], 0)
    assert got == ("NotDeltaSum", "diagonal 0 has unbounded certified support with nonzero entries")
    open_x1 = TruncatedSeries(tiny.vars, tiny.coeffs, {"x1": (-2, INF), "x2": (-2, 2)}, tiny.support)
    assert _check_against_reference(open_x1, [F(2)], 0)[0] == "InsufficientWindow"


def test_delta_fit_lambdas_equal_across_types_are_not_distinct():
    # 2 over Q and the constant 2 of Q(p) are one lambda, whatever their repr
    D = delta_expand(DeltaTerm(F(2), 0, unit_coeff()), BOX)
    with pytest.raises(ValueError, match="distinct"):
        delta_fit(D, [F(2), RatFunc(2)], 0)


def _times_vector(S, v):
    """The series S * v: each scalar cell c becomes the vector c * v."""
    return TruncatedSeries(S.vars, {e: c * v for e, c in S.coeffs.items()}, S.window, S.support)


def test_delta_fit_on_vector_payloads_takes_the_scalar_results():
    from fdcalc.fock import FockModule, t_spec

    v = FockModule(t_spec(ScalarField.rationals(F(2)))).basis(2)[-1]
    lambdas = [F(2), F(1, 2), F(3)]
    rng = random.Random(11)
    for _ in range(6):
        S = _random_sum(rng, lambdas, 1, lambda r: F(r.randint(-9, 9) or 1, r.randint(1, 4)))
        S = S.expand(STAGGERED)
        want = delta_fit(S, lambdas, 1)
        got = delta_fit(_times_vector(S, v), lambdas, 1)
        assert want and len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.lam, g.j, g.coeff.window, g.coeff.support) == (
                w.lam, w.j, w.coeff.window, w.coeff.support)
            assert g.coeff.coeffs == {e: c * v for e, c in w.coeff.coeffs.items()}
        # a cell off the recurrence is reported at the same n on both
        e = max(S.coeffs)
        bad = TruncatedSeries(S.vars, {**S.coeffs, e: S.coeffs[e] + 1}, S.window, S.support)
        with pytest.raises(NotDeltaSum) as scalar:
            delta_fit(bad, lambdas, 1)
        with pytest.raises(NotDeltaSum) as vector:
            delta_fit(_times_vector(bad, v), lambdas, 1)
        assert str(vector.value) == str(scalar.value)


# -- delta_agree: one fit along the diagonals, compared by coefficient ----------------


def _agree(D, lambdas, jmax, terms):
    return delta_agree(D, lambdas, jmax, terms)


def _term(lam, j, coeffs, window=(NEG_INF, INF)):
    A = TruncatedSeries(("x2",), {(d,): c for d, c in coeffs.items()}, {"x2": window},
                        {"x2": (min(coeffs, default=INF), max(coeffs, default=NEG_INF))})
    return DeltaTerm(lam, j, A)


def test_delta_agree_equal_and_one_coefficient_off_over_q_with_fock_payloads():
    from fdcalc.fock import FockModule, t_spec

    module = FockModule(t_spec(ScalarField.rationals(F(2))))
    vac, w = module.vacuum(), module.basis(2)[-1]
    terms = [_term(F(2), 0, {0: 2 * vac, 1: w}), _term(F(1, 2), 1, {-1: w + vac})]
    D = DeltaSum(terms).expand(STAGGERED)
    assert _agree(D, [F(2), F(1, 2)], 1, terms) == (True, None)
    off = [terms[0], _term(F(1, 2), 1, {-1: w + 2 * vac})]
    ok, (exps, msg) = _agree(D, [F(2), F(1, 2)], 1, off)
    assert not ok and exps == {"x2": -1}
    assert msg.startswith("lambda=1/2 j=1 d=-1: ")


def test_delta_agree_over_qp():
    lams = [p, p**-1]
    terms = [_term(p, 0, {0: 1 + p}), _term(p**-1, 0, {0: 1 + p, 2: -p})]
    D = DeltaSum(terms).expand({"x1": (-6, 6), "x2": (-5, 5)})
    assert _agree(D, lams, 0, terms) == (True, None)
    ok, (exps, msg) = _agree(D, lams, 0, [terms[0], _term(p**-1, 0, {0: 1 + p, 2: p})])
    assert not ok and exps == {"x2": 2} and msg.startswith(f"lambda={p**-1} j=0 d=2: ")


def test_delta_agree_a_term_on_one_side_only_fails():
    t2, t3 = _term(F(2), 0, {1: F(3)}), _term(F(3), 0, {-2: F(5)})
    D = DeltaSum([t2]).expand(BOX)
    # expected but absent from D
    ok, (exps, msg) = _agree(D, [F(2), F(3)], 0, [t2, t3])
    assert not ok and exps == {"x2": -2} and msg.startswith("lambda=3 j=0 d=-2: fitted 0")
    # fitted but not expected
    ok, (exps, msg) = _agree(D, [F(2), F(3)], 0, [])
    assert not ok and exps == {"x2": 1} and msg.startswith("lambda=2 j=0 d=1: fitted 3")
    # D zero, so the fit returns nothing: the kernel is compared with zero on
    # the diagonals D's window spans
    zero = DeltaSum().expand(BOX)
    assert _agree(zero, [F(3)], 0, []) == (True, None)
    ok, (exps, _) = _agree(zero, [F(3)], 0, [t3])
    assert not ok and exps == {"x2": -2}


def test_delta_agree_not_a_delta_sum_is_a_counterexample():
    f = FactoredRational(F(1), 0, ((F(1), -1),))
    s = iota_expand(f, "x1", "x2", ("x1", "x2"), BOX).shifted(x2=-1)
    s = s.untagged().restricted({"x1": (-9, 9), "x2": (-9, 9)})
    ok, (exps, msg) = _agree(s, [F(1)], 1, [])
    assert not ok and exps == {} and "deviates from the fit" in msg


def test_delta_agree_short_diagonal_is_undetermined():
    t = DeltaTerm(F(2), 0, unit_coeff())
    tiny = delta_expand(t, {"x1": (-2, 2), "x2": (-2, 2)})
    with pytest.raises(InsufficientWindow, match="5 entries < 12 parameters"):
        _agree(tiny, [F(2), F(3), F(5)], 3, [t])


def test_delta_agree_compares_on_the_common_window():
    D = DeltaSum([_term(F(2), 0, {0: F(1), 4: F(7)})]).expand(BOX)
    # the expected coefficient is certified on x2 in [-2, 2] only, so the
    # fitted d = 4 coefficient is not compared
    narrow = _term(F(2), 0, {0: F(1)}, window=(-2, 2))
    assert _agree(D, [F(2)], 0, [narrow]) == (True, None)
    wide = _term(F(2), 0, {0: F(1)}, window=(-2, 4))
    ok, (exps, _) = _agree(D, [F(2)], 0, [wide])
    assert not ok and exps == {"x2": 4}


def test_solve_exact_several_right_hand_sides():
    M = [[F(1), F(2), F(0)], [F(0), F(1), F(3)], [F(4), F(0), F(1)]]
    rhs = {"a": [F(1), F(2), F(3)], "b": [F(0), F(-1), F(7)], "c": [F(5), F(0), F(0)]}
    sols = solve_exact(M, rhs)
    assert list(sols) == ["a", "b", "c"]
    for k, b in rhs.items():
        assert sols[k] == solve_exact(M, {0: b})[0]
        assert [sum(M[r][c] * sols[k][c] for c in range(3)) for r in range(3)] == b
    with pytest.raises(SingularSystem):
        solve_exact([[F(1), F(1)], [F(1), F(1)]], {"a": [F(1), F(2)], "b": [F(0), F(0)]})


# -- sympy as an independent oracle ---------------------------------------------


def _sympy_scalar(sp, ps, x):
    if isinstance(x, RatFunc):
        num, den = (sum(sp.Rational(c.numerator, c.denominator) * ps**i
                        for i, c in enumerate(poly.coeffs)) for poly in (x.num, x.den))
        return num / den
    x = Fraction(x)
    return sp.Rational(x.numerator, x.denominator)


# the ids name the variables the annihilator p(x1/x2) is stated in
@pytest.mark.parametrize("v1, v2", [("x1", "x2")])
@pytest.mark.parametrize(
    "fld",
    [ScalarField.rationals(F(2)), ScalarField.rationals(F(3)), ScalarField.rational_functions()],
    ids=["p=2", "p=3", "Q(p)"],
)
def test_laurent_annihilator_against_sympy_expansion(fld, v1, v2):
    sp = pytest.importorskip("sympy")
    y, ps = sp.symbols("y p")
    cases = [
        FactoredRational(fld.one()),
        FactoredRational(fld.from_int(3), 2, ((fld.p_power(1), 2), (fld.p_power(-1), 1))),
        FactoredRational(fld.coerce(F(-1, 2)), -3, ((fld.one(), 3), (fld.from_int(-2), 1))),
    ]
    for f in cases:
        got = laurent_annihilator(f)
        assert got.vars == tuple(sorted((v1, v2)))
        assert got.window == {v: (NEG_INF, INF) for v in got.vars}
        expr = _sympy_scalar(sp, ps, f.const)
        for r, k in f.factors:
            expr = expr * (y - _sympy_scalar(sp, ps, r)) ** k
        want = {e[0] + f.mexp: c for e, c in sp.Poly(sp.expand(expr), y).as_dict().items()}
        cells = {e[got.vars.index(v1)]: e for e in got.coeffs}
        assert len(cells) == len(got.coeffs) == len(want), f
        for t, c in want.items():
            e = cells[t]
            assert e[got.vars.index(v2)] == -t
            assert sp.cancel(_sympy_scalar(sp, ps, got.coeffs[e]) - c) == 0, (f, t)

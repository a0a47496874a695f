"""Formal two-variable distributions with delta terms.

The canonical delta kernel is the unshifted

    delta(lam*v2/v1) = sum_n lam^n v1^(-n) v2^n,

and a :class:`DeltaTerm` ``(lam, j, A)`` denotes ``A(v2) (v2 d/dv2)^j
delta(lam*v2/v1)``; its expansion has coefficient ``n^j lam^n A[d]`` at
``v1^(-n) v2^(n+d)``.  Shifted kernels ``v1^(-1) delta(...)`` convert into this
form at the boundary (:func:`shifted_delta_term`).

The extraction operations work window-exactly: "zero" and "equal" always mean
on every coefficient of the certified window, and verdicts are only as strong
as the window they were computed on.  Callers choose windows large enough to
overdetermine the finitely parameterized structure being fitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import power
from .series import (
    INF,
    NEG_INF,
    FactoredRational,
    InsufficientWindow,
    TruncatedSeries,
    UnboundedExponent,
    _dot,
    binom,
    binom_expand,
    diagonal_collapse,
    divide_linear,
    ratio_cells,
    subst_log1p,
)


class NotDeltaSum(ValueError):
    """The series is not a delta sum over the given lambdas on its window."""


class SingularSystem(RuntimeError):
    """Generalized Vandermonde system was singular: distinct lambdas violated."""


class AnnihilationFails(ValueError):
    """p(v1/v2) does not annihilate the defect on the common window."""


class DiagonalDivergent(ValueError):
    """A diagonal coefficient needs values outside the certified window."""


class WindowTooSmall(InsufficientWindow):
    """The window cannot certify the requested vanishing order."""


@dataclass(frozen=True)
class DeltaTerm:
    """A(v2) (v2 d/dv2)^j delta(lam v2 / v1); ``coeff`` is a one-variable series."""

    lam: object
    j: int
    coeff: TruncatedSeries

    def scaled(self, c) -> "DeltaTerm":
        return DeltaTerm(self.lam, self.j, self.coeff.scaled(c))


def delta_expand(term: DeltaTerm, v1: str, v2: str, limits: dict) -> TruncatedSeries:
    """Expansion of a delta term on a finite v1-window [lo1, hi1].

    The v1 exponents of a delta kernel are unbounded in both directions, so
    the limits must pin v1 to a finite interval.  The certified rectangle is
    loA - lo1 <= v2 <= hiA - hi1 with [loA, hiA] the coefficient's window, so
    a wider v1 window narrows v2.
    """
    lo1, hi1 = limits[v1]
    if lo1 == NEG_INF or hi1 == INF:
        raise InsufficientWindow(f"delta expansion needs a finite {v1} window, got {(lo1, hi1)}")
    lo2, hi2 = limits.get(v2, (NEG_INF, INF))
    A = term.coeff
    if A.vars not in ((v2,), ()):
        raise ValueError(f"delta coefficient must be a series in {v2}")
    loA, hiA = A.win(v2) if A.vars else (NEG_INF, INF)
    win2 = (max(lo2, loA - lo1), min(hi2, hiA - hi1))
    coeffs = {}
    for n in range(int(-hi1), int(-lo1) + 1):
        wn = (n**term.j) * power(term.lam, n)
        if not wn:
            continue
        for e, c in A.coeffs.items():
            x2 = n + (e[0] if e else 0)
            if win2[0] <= x2 <= win2[1]:
                # distinct (n, d) give distinct cells: nothing to accumulate
                coeffs[(-n, x2) if v1 < v2 else (x2, -n)] = wn * c
    vars = tuple(sorted((v1, v2)))
    window = {v1: (lo1, hi1), v2: win2}
    zero = not A.coeffs
    support = {
        v1: (INF, NEG_INF) if zero else (NEG_INF, INF),
        v2: (INF, NEG_INF) if zero else (NEG_INF, INF),
    }
    return TruncatedSeries(vars, coeffs, window, support)


def unit_coeff(v2: str, value=Fraction(1)) -> TruncatedSeries:
    return TruncatedSeries.exact((v2,), {(0,): value})


def shifted_delta_term(lam, v2: str) -> DeltaTerm:
    """v1^(-1) delta(lam v2/v1) in canonical form: (lam^-1 v2^-1) delta."""
    c = TruncatedSeries.exact((v2,), {(-1,): power(lam, -1)})
    return DeltaTerm(lam, 0, c)


class DeltaSum:
    """A finite sum of delta terms with the algebra needed to build predicted
    defects: scaling by Laurent series in v2, d/dv2, and v2 d/dv2."""

    def __init__(self, terms=()):
        self.terms = list(terms)

    def __add__(self, other: "DeltaSum") -> "DeltaSum":
        return DeltaSum(self.terms + other.terms)

    def scaled_series(self, s: TruncatedSeries) -> "DeltaSum":
        return DeltaSum([DeltaTerm(t.lam, t.j, t.coeff * s) for t in self.terms])

    def scaled(self, c) -> "DeltaSum":
        return DeltaSum([t.scaled(c) for t in self.terms])

    def d_dv2(self, v2: str) -> "DeltaSum":
        out = []
        for t in self.terms:
            out.append(DeltaTerm(t.lam, t.j, _series_derivative(t.coeff, v2)))
            out.append(DeltaTerm(t.lam, t.j + 1, t.coeff.shifted(**{v2: -1})))
        return DeltaSum(out)

    def merged(self) -> "DeltaSum":
        acc: list = []
        for t in self.terms:
            for i, u in enumerate(acc):
                if u.lam == t.lam and u.j == t.j:
                    acc[i] = DeltaTerm(u.lam, u.j, u.coeff + t.coeff)
                    break
            else:
                acc.append(t)
        return DeltaSum([t for t in acc if not t.coeff.is_zero_series()])

    def expand(self, v1: str, v2: str, limits: dict) -> TruncatedSeries:
        vars = tuple(sorted((v1, v2)))
        out = TruncatedSeries(
            vars, {}, {v: limits.get(v, (NEG_INF, INF)) for v in vars},
            {v: (INF, NEG_INF) for v in vars},
        )
        for t in self.terms:
            out = out + delta_expand(t, v1, v2, limits)
        return out


def _series_derivative(s: TruncatedSeries, v: str) -> TruncatedSeries:
    i = s.vars.index(v)
    coeffs = {}
    for e, c in s.coeffs.items():
        if e[i] == 0:
            continue
        key = tuple(x - 1 if k == i else x for k, x in enumerate(e))
        coeffs[key] = e[i] * c
    lo, hi = s.win(v)
    window = dict(s.window)
    window[v] = (lo - 1, hi - 1)
    return TruncatedSeries(s.vars, coeffs, window, s.support, s.region)


def laurent_annihilator(p: FactoredRational, v1: str, v2: str) -> TruncatedSeries:
    """p(v1/v2) as an exact two-variable Laurent polynomial (all mults > 0)."""
    return TruncatedSeries.exact(*ratio_cells(p.ratio_coeffs_exact(), v1, v2))


def annihilation_check(lam, k: int, j: int, v1: str, v2: str, limits: dict) -> bool:
    """(v1 - lam v2)^k (v2 d/dv2)^j delta(lam v2/v1) == 0 on the window?"""
    if k < 1:
        raise ValueError("k must be a positive integer")
    term = DeltaTerm(lam, j, unit_coeff(v2))
    e = delta_expand(term, v1, v2, limits)
    mult = laurent_annihilator(FactoredRational(Fraction(1), 0, ((lam, k),)), v1, v2)
    prod = (mult * e).shifted(**{v2: k})  # (v1/v2-lam)^k v2^k = (v1-lam v2)^k
    ok, _ = prod.is_zero_on_window()
    return ok


def substitute_diag(f: TruncatedSeries, t: DeltaTerm, v1: str, v2: str) -> DeltaTerm:
    """f(v1,v2) delta(v2/v1) = f(v2,v2) delta(v2/v1) for the plain kernel."""
    if t.j != 0 or t.lam != 1:
        raise ValueError("substitution rule applies to the j=0, lambda=1 kernel")
    try:
        diag = diagonal_collapse(f, v1, v2, 1)
    except UnboundedExponent as exc:
        raise DiagonalDivergent(str(exc)) from exc
    return DeltaTerm(t.lam, 0, t.coeff * diag)


def solve_exact(matrix, rhs):
    """Solve M x = b by Gauss-Jordan elimination; scalar M, payload b.

    ``rhs`` is one right-hand side, a list with one entry per row, and the
    result is its solution.  A dict of right-hand sides is solved with one
    elimination of M, and the result is the dict of their solutions.
    """
    cols = list(rhs.values()) if isinstance(rhs, dict) else [rhs]
    n = len(matrix)
    m = [list(row) for row in matrix]
    b = [list(row) for row in zip(*cols)]  # row r holds every system's entry r
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise SingularSystem("pivot vanished; lambdas not distinct?")
        m[col], m[piv] = m[piv], m[col]
        b[col], b[piv] = b[piv], b[col]
        inv = power(m[col][col], -1)
        m[col] = [inv * x for x in m[col]]
        b[col] = [inv * y for y in b[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                b[r] = [x - f * y for x, y in zip(b[r], b[col])]
    sols = [[row[i] for row in b] for i in range(len(cols))]
    return dict(zip(rhs, sols)) if isinstance(rhs, dict) else sols[0]


def _recurrence(lambdas, jmax: int) -> list:
    """Nonzero coefficients (k, c_k) of prod_lam (y - lam)^(jmax+1).

    Every exponential polynomial sum_ij a_ij n^j lam_i^n, j <= jmax, satisfies
    sum_k c_k u(n+k) = 0 for all n; on a run of at least L = deg consecutive
    entries nothing else does, since these L sequences span the solutions.
    """
    c = [1]  # ascending
    for lam in lambdas:
        for _ in range(jmax + 1):
            c = [a - lam * b for a, b in zip([0] + c, c + [0])]  # times (y - lam)
    return [(k, ck) for k, ck in enumerate(c) if ck]


def delta_fit(D: TruncatedSeries, lambdas, jmax: int, v1: str, v2: str):
    """Recover the unique delta-term list matching D on its whole window.

    Each diagonal offset d carries the run u(n) = D[v1^(-n) v2^(n+d)] over its
    certified n.  It is a delta sum over ``lambdas`` exactly when u satisfies
    the order-L recurrence of prod_lam (y - lam)^(jmax+1) on the whole run
    (L = len(lambdas) * (jmax + 1)); the first n where it does not is reported
    in NotDeltaSum.  The coefficients a_ij of sum_ij a_ij n^j lam_i^n then
    come from the run's first L entries: one Gauss-Jordan elimination per
    distinct run start n0, with every diagonal starting there as a right-hand
    side, on columns n^j lam^(n - n0), whose solution is a_ij lam^n0.
    Raises InsufficientWindow when a needed diagonal has fewer than L
    certified entries.
    """
    lambdas = list(lambdas)
    if len(set(lambdas)) != len(lambdas) or any(not l for l in lambdas):
        raise ValueError("lambdas must be distinct and nonzero")
    L = len(lambdas) * (jmax + 1)
    lo1, hi1 = D.win(v1)
    lo2, hi2 = D.win(v2)
    if hi1 == INF:
        raise InsufficientWindow(f"delta fit needs a finite {v1} ceiling, window {D.window_str()}")
    iv1, iv2 = D.vars.index(v1), D.vars.index(v2)

    params = [(l, j) for l in lambdas for j in range(jmax + 1)]

    def n_interval(d):
        return max(-hi1, lo2 - d), min(-lo1, hi2 - d)

    diagonals: dict = {}
    for e, c in D.coeffs.items():
        diagonals.setdefault(e[iv1] + e[iv2], {})[-e[iv1]] = c
    stored_d = sorted(diagonals)
    rec = _recurrence(lambdas, jmax)

    starts: dict = {}  # run start n0 -> {d: first L entries of the run}
    for d in stored_d:
        nlo, nhi = n_interval(d)
        if nhi == INF:
            # infinitely many certified entries: no exponential-polynomial
            # other than zero matches a finitely supported diagonal
            raise NotDeltaSum(
                f"diagonal {d} has unbounded certified support with nonzero entries"
            )
        if nhi - nlo + 1 < L:
            raise InsufficientWindow(
                f"diagonal {d}: {int(max(nhi - nlo + 1, 0))} entries < {L} parameters"
            )
        n0 = int(nlo)
        cells = diagonals[d]
        run = [cells.get(n, 0) for n in range(n0, int(nhi) + 1)]
        for m in range(len(run) - L):
            pairs = [(ck, run[m + k]) for k, ck in rec if run[m + k]]
            if pairs and _dot(pairs):
                raise NotDeltaSum(f"diagonal {d} deviates from the fit at n = {n0 + m + L}")
        starts.setdefault(n0, {})[d] = run[:L]

    solutions: dict = {}
    for n0, rhs in starts.items():
        rows = [[(n0 + t) ** j * power(l, t) for l, j in params] for t in range(L)]
        back = [power(l, -n0) for l, _ in params]
        for d, sol in solve_exact(rows, rhs).items():
            solutions[d] = [a * s for a, s in zip(sol, back)]

    # certified d-range for the recovered coefficient windows
    scan_lo = (lo1 + lo2) if (lo1 != NEG_INF and lo2 != NEG_INF) else (stored_d[0] - 1 if stored_d else 0)
    scan_hi = (hi1 + hi2) if hi2 != INF else (stored_d[-1] + 1 if stored_d else 0)
    cert = [d for d in range(int(scan_lo), int(scan_hi) + 1) if _len_ok(n_interval(d), L)]
    if cert:
        alo = NEG_INF if (lo1 == NEG_INF or lo2 == NEG_INF) and _len_ok(n_interval(cert[0] - 1), L) else cert[0]
        ahi = cert[-1]
    else:
        alo, ahi = 0, -1  # empty coefficient window
    out = []
    for col, (l, j) in enumerate(params):
        coeffs = {}
        for d in stored_d:
            if solutions[d][col]:
                coeffs[(d,)] = solutions[d][col]
        A = TruncatedSeries((v2,), coeffs, {v2: (alo, ahi)}, {v2: (NEG_INF, INF)})
        if not A.is_zero_series():
            out.append(DeltaTerm(l, j, A))
    return out


def delta_agree(D: TruncatedSeries, lambdas, jmax: int, terms, v1: str, v2: str):
    """(ok, counterexample): is D, on its window, the delta sum of ``terms``?

    One :func:`delta_fit` along D's diagonals, compared with ``terms`` by
    :func:`fit_agree` on :func:`fit_window`.  Counterexample: ({v2: d},
    message), or ({}, message) when D is no delta sum over ``lambdas``,
    j <= jmax.  InsufficientWindow propagates.
    """
    try:
        fit = delta_fit(D, lambdas, jmax, v1, v2)
    except NotDeltaSum as exc:
        return False, ({}, str(exc))
    return fit_agree(fit, fit_window(D, fit, v1, v2), terms, v2)


def fit_window(D: TruncatedSeries, fit, v1: str, v2: str) -> tuple:
    """The v2-window a delta fit of D is compared on: its coefficients'
    window, or the span of D's diagonals when the fit is empty."""
    if fit:
        return fit[0].coeff.win(v2)
    (lo1, hi1), (lo2, hi2) = D.win(v1), D.win(v2)
    return lo1 + lo2, hi1 + hi2


def fit_agree(fit, window: tuple, terms, v2: str):
    """(ok, counterexample) for fitted delta terms against expected ``terms``:
    each (lam, j) compares the two coefficients on their common window, a
    missing side as zero on ``window``.  Counterexample: ({v2: d}, message)."""
    zero = TruncatedSeries((v2,), {}, {v2: window}, {v2: (INF, NEG_INF)})
    fitted = {(str(t.lam), t.j): t.coeff for t in fit}
    expected = {(str(t.lam), t.j): t.coeff for t in terms}
    for lam, j in {**expected, **fitted}:
        ok, ce = fitted.get((lam, j), zero).eq_on_common(expected.get((lam, j), zero))
        if not ok:
            d = ce[0][v2]
            return False, ({v2: d}, f"lambda={lam} j={j} d={d}: fitted {ce[1]}, expected {ce[2]}")
    return True, None


def _len_ok(iv, L):
    lo, hi = iv
    return lo == NEG_INF or hi == INF or hi - lo + 1 >= L


def delta_decompose(
    a_b: TruncatedSeries, K: TruncatedSeries, p: FactoredRational, v1: str, v2: str
):
    """Split a_b - K into delta terms at the roots of the annihilator p.

    Checks p(v1/v2)(a_b - K) == 0 on the common window first; a NotDeltaSum
    from the fit afterwards contradicts the existence statement this
    implements and is re-raised as an internal inconsistency.
    """
    if not p.is_laurent() or any(m < 1 for _, m in p.factors):
        raise ValueError("annihilator must be a polynomial with positive multiplicities")
    D = a_b.untagged() - K.untagged()
    ann = laurent_annihilator(p, v1, v2)
    prod = ann * D
    ok, ce = prod.is_zero_on_window()
    if not ok:
        raise AnnihilationFails(f"p(v1/v2)(a_b - K) != 0 at {ce[0]}")
    if not p.factors:
        if not D.is_zero_on_window()[0]:
            raise AnnihilationFails("trivial annihilator with nonzero defect")
        return []
    jmax = max(m for _, m in p.factors) - 1
    try:
        return delta_fit(D, list(p.roots()), jmax, v1, v2)
    except NotDeltaSum as exc:
        raise NotDeltaSum(
            f"defect annihilated by p is not a delta sum (internal inconsistency): {exc}"
        ) from exc


def vanishing_order(A: TruncatedSeries, lam, v1: str, v2: str) -> int:
    """Largest k with A = (v1 - lam v2)^k B and B(lam v2, v2) != 0, on windows;
    an ``InsufficientWindow`` when the window cannot certify it."""
    ok, _ = A.is_zero_on_window()
    if ok:
        raise ValueError("vanishing order of the zero series is undefined")
    cur = A.untagged()
    for k in range(65):
        diag = diagonal_collapse(cur, v1, v2, lam)
        if diag.vars and diag.win(diag.vars[0])[1] == NEG_INF:
            raise WindowTooSmall(
                f"diagonal window collapsed before certifying the order, window {cur.window_str()}"
            )
        if not diag.is_zero_series():
            return k
        cur = divide_linear(cur, v1, v2, lam)
        if cur.is_zero_series():
            raise WindowTooSmall(f"quotient vanished on the remaining window {cur.window_str()}")
    raise WindowTooSmall("order exceeds 64")


def three_term_check(A: TruncatedSeries, B: TruncatedSeries, C: TruncatedSeries, zorder: int) -> bool:
    """Compare the two sides of the three-term delta/log identity.

    LHS: (z x2)^-1 delta((x1-x2)/(z x2)) A - (z x2)^-1 delta((x2-x1)/(-z x2)) B;
    RHS: x1^-1 delta(x2(1+z)/x1) C(log(1+z), x2), with A, B series in (x1, x2)
    and C in (x0, x2); both expanded as windowed three-variable series in
    (x1, x2, z) and compared coefficient-wise.  The caller guarantees the
    matching-product and substitution hypotheses when generating (A, B, C).
    """
    v1, v2, x0, zvar = "x1", "x2", "x0", "z"
    limitsA = {v: A.win(v) for v in A.vars}
    limitsB = {v: B.win(v) for v in B.vars}
    lhs = None
    for n in range(-zorder - 1, zorder):
        bn = binom_expand(n, v1, v2, (v1, v2), limitsA)
        term = (bn * A.untagged()).shifted(**{v2: -n - 1, zvar: -n - 1}).untagged()
        lhs = term if lhs is None else lhs + term
        bn2 = binom_expand(n, v2, v1, (v2, v1), limitsB)
        term2 = (bn2 * B.untagged()).shifted(**{v2: -n - 1, zvar: -n - 1}).untagged()
        lhs = lhs.add_scaled(term2, (-1) ** (n + 1))
    # RHS kernel: sum_m v1^(-m-1) v2^m (1+z)^m, truncated to the z-order
    csub = subst_log1p(C.untagged(), x0, zvar, zorder)
    lo1, hi1 = lhs.win(v1)
    if lo1 == NEG_INF:
        lo1 = min([e[lhs.vars.index(v1)] for e in lhs.coeffs], default=-zorder - 2) - 1
    if hi1 == INF:
        hi1 = max([e[lhs.vars.index(v1)] for e in lhs.coeffs], default=zorder) + 1
    kern = {}
    for m in range(int(-hi1) - 1, int(-lo1)):
        for i in range(0, zorder + 1):
            c = binom(m, i)
            if c:
                kern[(-m - 1, m, i)] = c
    out_vars = tuple(sorted((v1, v2, zvar)))
    kern_s = TruncatedSeries(
        out_vars,
        {_perm_key((v1, v2, zvar), e, out_vars): c for e, c in kern.items()},
        {v1: (lo1, hi1), v2: (NEG_INF, INF), zvar: (NEG_INF, zorder)},
        {v1: (NEG_INF, INF), v2: (NEG_INF, INF), zvar: (0, INF)},
    )
    rhs = kern_s * csub
    ok, _ = lhs.eq_on_common(rhs)
    return ok


def _perm_key(src_vars, exps, dst_vars):
    m = dict(zip(src_vars, exps))
    return tuple(m[v] for v in dst_vars)

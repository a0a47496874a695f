"""The deformed Virasoro algebra: structure series, defining relations on the
universal restricted module, and the two directions of the correspondence with
the neighbor-paired Clifford vertex superalgebra.

The relation checker works with the coefficient form

    sum_{l>=0} f_l (T_{m-l} T_{n+l} - T_{n-l} T_{m+l}) w
        = -((1-q)(1-p/q)/(1-p)) (p^m - p^-m) d_{m+n,0} w,

truncating the l-sum at a certified length: both T_{n+l} w and T_{m+l} w
vanish beyond it on the restricted module, so the formally infinite sum is a
finite one per vector, with the truncation length recorded.

The words T_a T_b w in the (m, n) relation have a + b = m + n, and the l-sum
is summed once per word: T_a T_(m+n-a) w takes +f_l where a = m - l and -f_l
where a = n - l.  These summed coefficients depend on w only through the
truncation length, so they are built once per length, and only the words
whose coefficient is nonzero are looked up.  At q = -1 (f_0 = 1, f_l = 2) an
(m, m) relation looks up no word of the sum and any other at most
2|m - n| + 1, where the terms taken one by one would need 2(L + 1).
The words are read from the module's word memo (``FockModule.apply_word``),
which keeps them for the module's lifetime, so relations with the same m + n
share them.  The truncation certificate compares its words term by term:
summed, they would telescope away the words it exists to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .distributions import DeltaTerm, delta_agree, unit_coeff
from .fock import FlavorOutOfWindow, FockModule, FockVector, t_spec
from .scalars import ScalarField, exact_fraction, power, require_exact
from .series import (
    NEG_INF,
    FactoredRational,
    InsufficientWindow,
    TruncatedSeries,
    diagonal_collapse,
    divide_linear,
    exp_1v,
)
from .fieldcalc import (
    CovariantStructure,
    FieldOperator,
    LocalityDatum,
    _certified_floor,
    assoc_check,
    commutator_formula_check,
    covariance_check,
    defect_series,
    laurent_annihilator,
    locality_check,
    product_on_window,
    ye_product,
)


@dataclass(frozen=True)
class DVirParams:
    """Parameters (p, q) with t = q/p; p symbolic or a rational |p0| not 0, 1.

    p0 and q must be exact: an int, a Fraction or a string such as "1/10",
    which is stored as its Fraction; a float or bool is refused with a
    ValueError naming it.
    """

    field: ScalarField
    q: object = -1

    def __post_init__(self):
        if isinstance(require_exact(self.q, "q"), str):
            object.__setattr__(self, "q", exact_fraction(self.q, "q"))
        if self.q == 0:
            raise ValueError(f"q must be nonzero: t = q/p and the f_l divide by q, got q={self.q}")

    @classmethod
    def symbolic(cls) -> "DVirParams":
        return cls(ScalarField.rational_functions(), -1)

    @classmethod
    def at(cls, p0, q=-1) -> "DVirParams":
        return cls(ScalarField.rationals(p0), q)

    def p(self):
        return self.field.p_power(1)

    def is_minus_one(self) -> bool:
        return self.q == -1


def f_coefficients(params: DVirParams, N: int):
    """Coefficients of exp(sum_n (1-q^n)(1-t^-n)/(1+p^n) z^n/n) up to z**N.

    The table lives on ``params`` and as long as it: it is computed the first
    time that object asks for more than it holds, and no other object reads it.
    """
    table = getattr(params, "_f_table", None)
    if table is None or len(table) <= N:
        table = _f_coefficients(params, max(N, 16))
        object.__setattr__(params, "_f_table", table)
    return table[: N + 1]


def _f_coefficients(params: DVirParams, N: int):
    fld = params.field
    if fld.symbolic and params.q != -1:
        raise ValueError("symbolic p supports only q = -1")
    q = fld.coerce(params.q)
    g = {}
    one = fld.one()
    for n in range(1, N + 1):
        qn = power(q, n)
        tn = fld.p_power(n) * power(q, -n)
        num = (one - qn) * (one - tn)
        if not num:
            continue
        den = one + fld.p_power(n)
        g[n] = num * power(den, -1) * Fraction(1, n)
    e = exp_1v(g, N)
    return [fld.coerce(e.get(l, 0)) for l in range(N + 1)]


def central_term(params: DVirParams, m: int):
    """Scalar on the right of the (m, -m) relation."""
    fld = params.field
    if m == 0:
        return fld.zero()
    one = fld.one()
    q = fld.coerce(params.q)
    p = fld.p_power(1)
    factor = (one - q) * (one - p * power(q, -1))
    return -factor * power(one - p, -1) * (fld.p_power(m) - fld.p_power(-m))


def t_fock(params: DVirParams) -> FockModule:
    """The universal restricted module over the mode algebra of the q = -1
    anticommutator pairing."""
    if not params.is_minus_one():
        raise ValueError("the module realization is specific to q = -1")
    return FockModule(t_spec(params.field))


@dataclass(frozen=True)
class DVirRelationReport:
    m: int
    n: int
    central: object
    trunc_len: int
    defect: object  # first nonzero defect vector, or a zero FockVector
    defect_at: object  # basis monomial where the defect occurred, or None
    stable: bool  # truncation extension left every defect unchanged


def vir_relation_check(
    module: FockModule,
    params: DVirParams,
    m: int,
    n: int,
    grade_bound: int,
    extend: int = 5,
) -> DVirRelationReport:
    """Check the (m, n) relation on every basis vector of grade <= bound.

    The l-sum is truncated at the certified restriction length per vector and
    summed once per distinct word.  The certificate checks, term by term,
    that each of the ``extend`` terms beyond the truncation vanishes.  A
    module without T modes is refused with ``FlavorOutOfWindow`` up front.
    """
    if extend < 0:
        raise ValueError(f"extend must be >= 0, got extend={extend}")
    if module.spec.kind != "T":
        raise FlavorOutOfWindow(
            f"the relations act with T modes, which a module of kind {module.spec.kind!r} lacks"
        )
    fld = params.field
    central = central_term(params, m) if m + n == 0 else fld.zero()
    worst = (FockVector(), None)
    max_len = 0
    stable = True
    lo = min(m, n)
    K = max(0, grade_bound + 1 - lo) + extend  # longest l-sum, certificate included
    fs = f_coefficients(params, K)
    # the word keys this call stores share these tuples instead of each holding
    # a fresh pair, which keeps the module's word memo small
    T = {k: ("T", k) for k in range(lo - K, max(m, n) + K + 1)}
    # the l-sum truncated at L as a sum over its distinct words T_a T_(m+n-a):
    # sums[L] holds (coefficient, outer, inner) for each word whose summed
    # coefficient, +f_l where a = m - l and -f_l where a = n - l, is nonzero
    coeff, sums = {}, []
    for l in range(K - extend + 1):
        for a, f in ((m - l, fs[l]), (n - l, -fs[l])):
            c = coeff.get(a)
            coeff[a] = f if c is None else c + f
        sums.append([(c, T[a], T[m + n - a]) for a, c in coeff.items() if c])
    word = module.apply_word
    for w in module.basis(grade_bound):
        (mono,) = w.terms  # a basis vector: one monomial, coefficient one
        bound = module.ann_bound(w)
        L = max(0, bound - lo)
        max_len = max(max_len, L)

        def words(l):
            return word(T[m - l], T[n + l], mono), word(T[n - l], T[m + l], mono)

        pairs = [(c, v) for c, a, b in sums[L] if (v := word(a, b, mono))]
        if central:
            pairs.append((-central, w))
        defect = FockVector.lincomb(pairs)
        # certificate: every term beyond the recorded truncation vanishes
        for l in range(L + 1, L + extend + 1):
            t1, t2 = words(l)
            if t1 != t2:
                stable = False
                break
        if defect and worst[1] is None:
            worst = (defect, mono)
    return DVirRelationReport(m, n, central, max_len, worst[0], worst[1], stable)


def relation_failures(module: FockModule, params: DVirParams, mode_bound: int,
                      grade_bound: int, extend: int):
    """The relation rule: (m, n, what) for each relation with |m|, |n| <=
    ``mode_bound`` that fails on the basis of grade <= ``grade_bound``, once
    for a defect and once for a truncation certificate that ``extend`` more
    terms broke."""
    for m in range(-mode_bound, mode_bound + 1):
        for n in range(-mode_bound, mode_bound + 1):
            rep = vir_relation_check(module, params, m, n, grade_bound, extend=extend)
            if rep.defect:
                yield m, n, f"at {rep.defect_at}: {rep.defect!r}"
            if not rep.stable:
                yield m, n, "truncation certificate violated"


def standard_annihilator(params: DVirParams, r: int, s: int, with_extra: bool = True) -> FactoredRational:
    """(y - p^(s+1-r)) (y - p^(s-1-r)), optionally with the (y + p^(s-r)) factor
    of the locality witness."""
    fld = params.field
    one = fld.one()
    factors = [(fld.p_power(s + 1 - r), 1), (fld.p_power(s - 1 - r), 1)]
    if with_extra:
        factors.append((-fld.p_power(s - r), 1))
    return FactoredRational(one, 0, tuple(factors))


def realized_field(module: FockModule, r: int) -> FieldOperator:
    """The realization's field of flavor r: T(p^r x) on ``module``."""
    return FieldOperator(module, "T", module.field.p_power(r))


def realization(params: DVirParams):
    """The covariant realization r -> T(p^r x) on a new universal restricted
    module, with character n -> p^n."""
    module = t_fock(params)
    fld = params.field
    return module, CovariantStructure(
        realize=lambda r: realized_field(module, r), chi=lambda nn: fld.p_power(nn),
        shift_lo=-8, shift_hi=8,
    )


def neighbor_locality(params: DVirParams, module: FockModule, r: int, s: int) -> LocalityDatum:
    a, b = realized_field(module, r), realized_field(module, s)
    minus_one = FactoredRational(-params.field.one())
    return LocalityDatum(a, b, ((b, a, minus_one),), standard_annihilator(params, r, s))


def commutator_grid(params: DVirParams, C: CovariantStructure, flavors, basis, box: dict,
                    zorder: int, ceiling: int, margin: int):
    """The covariant commutator formula for every flavor pair (r, s) of the
    realization ``C`` with the minimal annihilator, on every basis vector and a
    shift window two beyond the annihilator's roots.

    Yields (r, s, w, want, (ok, counterexample, contributing)) with ``want``
    the sorted shifts whose kernels the formula must produce.
    """
    minus_one = FactoredRational(-params.field.one())
    for r in flavors:
        for s in flavors:
            a, b = C.realize(r), C.realize(s)
            L = LocalityDatum(a, b, ((b, a, minus_one),),
                              standard_annihilator(params, r, s, with_extra=False))
            want = sorted([s + 1 - r, s - 1 - r])
            Cw = CovariantStructure(C.realize, C.chi, want[0] - 2, want[1] + 2)
            for w in basis:
                yield r, s, w, want, commutator_formula_check(
                    L, Cw, w, box, zorder, ceiling, ceiling, margin=margin
                )


def commutator_failures(params: DVirParams, C: CovariantStructure, flavors, basis, box: dict,
                        zorder: int, ceiling: int, margin: int):
    """The commutator-grid rule: (r, s, w, exponents, what) for each entry of
    :func:`commutator_grid` where the formula fails (at the counterexample's
    exponents), where the kernels sit at shifts other than ``want``, or, for a
    diagonal pair r = s, where their characters are not chi(1) and chi(-1)
    (exponents None)."""
    diagonal = {C.chi(1), C.chi(-1)}
    for r, s, w, want, (ok, ce, contrib) in commutator_grid(
        params, C, flavors, basis, box, zorder, ceiling, margin
    ):
        if not ok:
            yield r, s, w, ce[0], f"formula: {ce[1]}"
        got = sorted(nn for nn, _, _ in contrib)
        if got != want:
            yield r, s, w, None, f"kernels at shifts {got}, expected {want}"
        chis = {c for _, c, _ in contrib}
        if r == s and chis != diagonal:
            yield r, s, w, None, f"diagonal pair kernels at {sorted(map(repr, chis))}"


def verdict(counterexamples) -> tuple:
    """The one verdict rule: ``(ok, detail)`` from a generator of counterexamples.

    Nothing yielded passes, ``(True, None)``.  The first counterexample fails,
    ``(False, it)``, and the generator is not resumed, so nothing after its
    first ``yield`` runs.  An ``InsufficientWindow`` (a window that cannot
    decide) gives ``(None, message)``; any other exception fails with its repr.
    """
    try:
        for ce in counterexamples:
            return False, ce
    except Exception as exc:
        return (None, str(exc)) if isinstance(exc, InsufficientWindow) else (False, repr(exc))
    return True, None


def theorem58_suite(
    params: DVirParams,
    flavor_lo: int = -2,
    flavor_hi: int = 3,
    grade_bound: int = 5,
    zorder: int = 6,
    margin: int = 2,
):
    """Locality, commutator kernels, covariance, associativity and top modes
    for the realization r -> T(p^r x) on the universal restricted module.
    Windows reach exponent hi = grade_bound + 3 (hi + 2 for the products
    that are fitted or mode-split).

    Returns a list of (check id, ok, detail) triples, each decided by
    :func:`verdict`: ok is None when a window could not decide.  A one-flavor
    window has no neighbor pair and no nonzero shift, so covariance,
    associativity and top modes are undetermined there.
    """
    module, C = realization(params)
    basis = module.basis(grade_bound)
    hi = grade_bound + 3
    flavors = range(flavor_lo, flavor_hi + 1)

    def need_two_flavors(what):
        if flavor_lo == flavor_hi:
            raise InsufficientWindow(f"flavor window {flavor_lo}..{flavor_hi} has no {what}")

    def locality():
        for r in flavors:
            for s in flavors:
                L = neighbor_locality(params, module, r, s)
                for w in basis:
                    ok, ce = locality_check(L, w, hi, hi)
                    if not ok:
                        yield r, s, repr(w), ce

    def delta_kernels():
        box = {"x1": (-hi, hi), "x2": (-hi, hi)}
        yield from commutator_failures(params, C, flavors, basis, box, zorder, hi + 2, margin)

    def covariance():
        need_two_flavors("nonzero shift")
        for r in flavors:
            for shift in range(flavor_lo - r, flavor_hi - r + 1):
                ok, ce = covariance_check(C, r, shift, min(grade_bound, 3), hi)
                if not ok:
                    yield r, shift, ce

    def associativity():
        need_two_flavors("neighbor pair")
        for r in range(flavor_lo + 1, flavor_hi + 1):
            s = r - 1
            u, v = C.realize(r), C.realize(s)
            p_inner = standard_annihilator(params, r, s, with_extra=False)
            p_outer = standard_annihilator(params, r, s, with_extra=True)
            for w in basis[: max(4, len(basis) // 3)]:
                ok, ce = assoc_check(u, v, p_inner, p_outer, w, zorder, hi + 2, hi + 2, margin)
                if not ok:
                    yield r, s, repr(w), ce

    def top_modes():
        need_two_flavors("neighbor pair")
        for s in range(flavor_lo, flavor_hi):
            r = s + 1
            u, v = C.realize(r), C.realize(s)
            p_wit = standard_annihilator(params, r, s, with_extra=True)
            for w in basis:
                ye = ye_product(u, v, p_wit, zorder, w, hi + 2, hi + 2, margin=margin)
                if ye.zero_order != 1:
                    yield r, s, "zero order", ye.zero_order
                expected = TruncatedSeries(
                    ("x2",), {(0,): 2 * w}, {"x2": (NEG_INF, hi)}, {"x2": (0, 0)}
                )
                ok, ce = ye.mode(0).eq_on_common(expected)
                if not ok:
                    yield r, s, repr(w), ce

    return [
        (cid, *verdict(failures()))
        for cid, failures in (
            ("trig-locality", locality),
            ("anticommutator-delta-kernel", delta_kernels),
            ("covariance-rescaling", covariance),
            ("exp-substitution-associativity", associativity),
            ("top-mode-identity", top_modes),
        )
    ]


def theorem59_suite(
    params: DVirParams,
    mode_bound: int = 4,
    grade_bound: int = 5,
    margin: int = 2,
):
    """Relations of the realized field T(x) := Y(e_(1), x) = T(p x), the
    intermediate two-variable factorization, and the mode-extracted pairing.
    The pairing is fitted on the box |x1|, |x2| <= grade_bound + 3.

    Returns a list of (check id, ok, detail) triples, each decided by
    :func:`verdict`: ok is None when a window could not decide.
    """
    module, C = realization(params)
    fld = params.field
    p = fld.p_power(1)
    hi = grade_bound + 3

    def relations():
        # realized field modes satisfy the defining relations
        yield from relation_failures(module, params, mode_bound, grade_bound, extend=2)

    def factorization():
        # (x1 - p x2)(p x1 - x2) T'(x1) T'(x2) = (x1 - x2) A(x1, x2) and the two
        # diagonal evaluations of A
        a = C.realize(1)
        g4 = min(grade_bound, 4)
        hi_loc = 3 * g4 + 9
        cap = g4 + 5
        for w in module.basis(g4):
            prod = product_on_window(a, "x1", a, "x2", w, hi_loc, hi_loc)
            two_roots = FactoredRational(fld.one(), 0, ((p, 1), (fld.p_power(-1), 1)))
            F = laurent_annihilator(two_roots, "x1", "x2") * prod
            F = F.scaled(p).shifted(x2=2)  # (x1 - p x2)(p x1 - x2) = p x2^2 (y-p)(y-1/p)
            F = _certified_floor(F, margin)
            A = divide_linear(F.untagged(), "x1", "x2", fld.one(), hi2_cap=cap)
            lin = TruncatedSeries.exact(("x1", "x2"), {(1, 0): fld.one(), (0, 1): -fld.one()})
            ok, ce = (lin * A).eq_on_common(F)
            if not ok:
                yield repr(w), "divisibility", ce
            # A(p x2, x2) = 2(p+1) p x2 w  and  A(x1, p x1) = 2(p+1) p x1 w
            d1 = diagonal_collapse(A, "x1", "x2", p)
            d2 = diagonal_collapse(A, "x2", "x1", p)
            if d1.win("x2")[1] < 3 or d2.win("x1")[1] < 3:
                yield repr(w), "diagonal window too small", (d1.win("x2"), d2.win("x1"))
            w1 = TruncatedSeries(
                ("x2",), {(1,): (2 * (p + 1) * p) * w}, {"x2": d1.win("x2")}, {"x2": (1, 1)}
            )
            ok1, ce1 = d1.eq_on_common(w1)
            w2 = TruncatedSeries(
                ("x1",), {(1,): (2 * (p + 1) * p) * w}, {"x1": d2.win("x1")}, {"x1": (1, 1)}
            )
            ok2, ce2 = d2.eq_on_common(w2)
            if not (ok1 and ok2):
                yield repr(w), "delta evaluation", ce1 or ce2

    def pairing():
        # mode-extracted anticommutator == the pairing the module was built from
        Lself = neighbor_locality(params, module, 1, 1)
        box = {"x1": (-hi, hi), "x2": (-hi, hi)}
        for w in module.basis(min(grade_bound, 4)):
            D = defect_series(Lself, w, hi + 2, hi + 2).restricted(box)
            want = [DeltaTerm(lam, 0, unit_coeff("x2", 2 * w)) for lam in (p, fld.p_power(-1))]
            ok, ce = delta_agree(D, [t.lam for t in want], 0, want, "x1", "x2")
            if not ok:
                yield repr(w), "pairing mismatch", ce

    return [
        (cid, *verdict(failures()))
        for cid, failures in (
            ("realized-field-relations", relations),
            ("defect-factorization", factorization),
            ("mode-extracted-pairing", pairing),
        )
    ]

"""Field calculus on a Fock module: windowed two-field products, trigonometric
locality, the exponential-substitution mode products, scaled-mode extraction,
the residue formula and the covariant commutator-formula verifier.

Every operation is window-exact: products are materialized on explicit finite
boxes, quadrant (joint lower-truncation) claims are certified by a stability
test against margin-shrunken boxes, and any verdict records the box it was
obtained on.

The defect, a(x1) b(x2) w minus the twisted reversed products, is built by
:func:`defect_series`: locality is p(x1/x2) times that defect, and the
commutator formula compares the defect with its delta kernels.  The commutator
formula is checked in the product's own coordinates, where a(x1) b(x2) w is
unscaled and its kernels and the defect's delta fit are memoized together, once
per vector and datum.  The residue formula builds its own twisted reversed
products, with the twist folded into q(y) = p(y) f_i(1/y), and its bracket
once; the top mode is the bracket's z^0 slice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial

from .distributions import (
    DeltaTerm,
    NotDeltaSum,
    delta_fit,
    fit_agree,
    fit_window,
    laurent_annihilator,
)
from .fock import FockModule, FockVector
from .scalars import power
from .series import (
    INF,
    NEG_INF,
    FactoredRational,
    InsufficientWindow,
    TruncatedSeries,
    invert_unit_1v,
    scaled_cells,
    subst_exp,
    var_scaled,
)


class CompatibilityError(ValueError):
    """The pair is certified incompatible with the given annihilator."""


class QuadrantUndetermined(InsufficientWindow):
    """The box cannot decide whether the pair is compatible."""


@dataclass(frozen=True)
class FieldOperator:
    """A mode family a(scale * x) on a Fock module."""

    module: FockModule
    flavor: object
    scale: object = 1

    def scaled(self, mu) -> "FieldOperator":
        return FieldOperator(self.module, self.flavor, mu * self.scale)

    def series(self, w: FockVector, hi: int) -> TruncatedSeries:
        """The field applied to w, as a series in x up to x**hi."""
        return self.module.apply_field(self.flavor, self.scale, w, hi)


@dataclass(frozen=True)
class LocalityDatum:
    """p(x1/x2) a(x1) b(x2) = p(x1/x2) sum_i iota_{x2,x1}(f_i(x2/x1)) b_i(x2) a_i(x1).

    ``partners`` is a tuple of (b_i, a_i, f_i) with f_i a FactoredRational in
    the ratio x2/x1; ``annihilator`` is the polynomial p in the ratio x1/x2.
    """

    a: FieldOperator
    b: FieldOperator
    partners: tuple
    annihilator: FactoredRational


@dataclass(frozen=True)
class CovariantStructure:
    """Integer shift group acting on flavors, with a multiplicative character."""

    realize: object  # flavor -> FieldOperator
    chi: object  # int -> scalar
    shift_lo: int
    shift_hi: int

    def shifts(self):
        return range(self.shift_lo, self.shift_hi + 1)


@dataclass(frozen=True)
class CompatVerdict:
    status: str  # "compatible" | "incompatible" | "undetermined"
    bound: tuple | None
    box: dict
    witness: object = None


def product_on_window(
    outer: FieldOperator,
    ov: str,
    inner: FieldOperator,
    iv: str,
    w: FockVector,
    hi_outer: int,
    hi_inner: int,
) -> TruncatedSeries:
    """outer(ov) inner(iv) w materialized on the box ov,iv <= hi.

    Every cell with exponents at most the ceilings is computed exactly; the
    inner variable carries the structural restriction floor.  The unscaled
    product a(x^i) b(x^j) w of the two flavors is memoized on the module
    (:func:`_unscaled_cells`).  Two fields of scale 1 get its cells as they
    are; otherwise cell (i, j) is rescaled by outer.scale^i inner.scale^j,
    which is what a(scale x) means.  :func:`commutator_formula_check` changes
    coordinates so that the products it reads are unscaled.
    """
    cells, ifloor = _unscaled_cells(outer, inner, w, hi_outer, hi_inner)
    coeffs = scaled_cells(cells, (outer.scale, inner.scale))
    if ov > iv:
        coeffs = {(j, i): c for (i, j), c in coeffs.items()}
    vars = tuple(sorted((ov, iv)))
    window = {ov: (NEG_INF, hi_outer), iv: (NEG_INF, hi_inner)}
    support = {ov: (NEG_INF, INF), iv: (ifloor, INF)}
    return TruncatedSeries(vars, coeffs, window, support)


def _product_key(outer: FieldOperator, inner: FieldOperator, w: FockVector,
                 hi_outer: int, hi_inner: int) -> tuple:
    """(module, key) of the unscaled product of ``outer`` and ``inner`` on w:
    the key of the module's ``_products`` memo, and the first part of its
    ``_commutators`` key."""
    module = outer.module
    if inner.module is not module:
        raise ValueError("a two-field product needs both fields on one module")
    return module, (outer.flavor, inner.flavor, w, hi_outer, hi_inner)


def _unscaled_cells(outer: FieldOperator, inner: FieldOperator, w: FockVector,
                    hi_outer: int, hi_inner: int) -> tuple:
    """({(i, j): a(x^i) b(x^j) w}, inner floor) for the unscaled fields of
    ``outer`` and ``inner``, memoized on their module for its lifetime."""
    module, key = _product_key(outer, inner, w, hi_outer, hi_inner)
    hit = module._products.get(key)
    if hit is not None:
        return hit
    ifloor = module.field_floor(w)
    cells = {}
    for j in range(ifloor, hi_inner + 1):
        vj = module.field_coeff(inner.flavor, j, w)
        if not vj:
            continue
        for i in range(module.field_floor(vj), hi_outer + 1):
            cell = module.field_coeff(outer.flavor, i, vj)
            if cell:
                cells[(i, j)] = cell
    module._products[key] = cells, ifloor
    return cells, ifloor


def quadrant_verdict(F: TruncatedSeries, margin: int = 2) -> CompatVerdict:
    """Certify joint lower truncation of F(x1, x2) on its box.

    The support minimum in each variable must be unchanged when the other
    variable's ceiling is lowered by ``margin``; a minimum that chases the
    shrinking ceiling is a delta tail and is reported incompatible.
    """
    box = {v: F.win(v) for v in F.vars}
    if not F.coeffs:
        return CompatVerdict("compatible", None, box)
    i1, i2 = F.vars.index("x1"), F.vars.index("x2")
    hi1, hi2 = F.win("x1")[1], F.win("x2")[1]
    i0 = min(e[i1] for e in F.coeffs)
    j0 = min(e[i2] for e in F.coeffs)
    shrunk1 = [e[i1] for e in F.coeffs if e[i2] <= hi2 - margin]
    shrunk2 = [e[i2] for e in F.coeffs if e[i1] <= hi1 - margin]
    if not shrunk1 or not shrunk2:
        return CompatVerdict("undetermined", None, box)
    if min(shrunk1) != i0 or min(shrunk2) != j0:
        witness = min(
            (e for e in F.coeffs if e[i1] == i0 or e[i2] == j0),
            key=lambda e: (e[i1], e[i2]),
        )
        return CompatVerdict("incompatible", None, box, dict(zip(F.vars, witness)))
    return CompatVerdict("compatible", (i0, j0), box)


def compat_check(
    a: FieldOperator,
    b: FieldOperator,
    p: FactoredRational,
    w: FockVector,
    hi1: int,
    hi2: int,
    margin: int = 2,
) -> CompatVerdict:
    """Three-valued window verdict on p(x1/x2) a(x1) b(x2) w being jointly
    lower truncated."""
    if not p.is_laurent():
        raise ValueError("annihilator must be a polynomial in the ratio")
    prod = product_on_window(a, "x1", b, "x2", w, hi1, hi2)
    F = laurent_annihilator(p) * prod
    return quadrant_verdict(F, margin)


def locality_check(L: LocalityDatum, w: FockVector, hi1: int, hi2: int):
    """Trigonometric locality on the box: p(x1/x2) times the defect of
    :func:`defect_series` must vanish.  Returns (ok, counterexample), the
    counterexample being the first cell where the two sides differ and the
    difference lhs - rhs there."""
    ann = laurent_annihilator(L.annihilator)
    return (ann * defect_series(L, w, hi1, hi2)).is_zero_on_window()


@dataclass(frozen=True)
class YeModes:
    """Mode data of the exponential-substitution product on a fixed vector.

    ``modes[n]`` is the one-variable series (a(x2)_n^e b(x2)) w; modes with
    n >= zero_order are certified zero, modes below ``n_min`` are outside the
    computed z-order.
    """

    modes: dict
    zero_order: int
    n_min: int

    def mode(self, n: int) -> TruncatedSeries | None:
        if n in self.modes:
            return self.modes[n]
        if n >= self.zero_order:
            return None  # certified zero: callers treat None as zero
        raise InsufficientWindow(f"mode {n} below the computed z-order")

    def generating(self) -> TruncatedSeries:
        acc = TruncatedSeries.exact(("x2", "z"), {})
        for n, s in self.modes.items():
            acc = acc + s.shifted(z=-n - 1)
        return acc


def _certified_floor(F: TruncatedSeries, margin: int) -> TruncatedSeries:
    """F = p(x1/x2) P with its certified quadrant corner asserted as a support
    floor; raises QuadrantUndetermined when the box cannot decide the verdict
    and CompatibilityError when it is negative."""
    verdict = quadrant_verdict(F, margin)
    if verdict.status != "compatible":
        error = QuadrantUndetermined if verdict.status == "undetermined" else CompatibilityError
        raise error(f"{verdict.status} on box {verdict.box}: {verdict.witness}")
    if verdict.bound is not None:
        F = F.assert_support_floor({"x1": verdict.bound[0], "x2": verdict.bound[1]})
    return F


def _annihilated(prod: TruncatedSeries, p: FactoredRational, margin: int) -> TruncatedSeries:
    """p(x1/x2) P for a two-field product P, certified by :func:`_certified_floor`."""
    return _certified_floor(laurent_annihilator(p) * prod, margin).untagged()


def _z_modes(G: TruncatedSeries, q: FactoredRational, zorder: int) -> YeModes:
    """Divide an (x2, z) series by q(e^z) = z^k * unit and slice it into the
    modes n_min..k-1, mode n being the coefficient of z^(-n-1)."""
    k, unit = q.exp_arg_dict(zorder)
    inv = invert_unit_1v(unit, zorder)
    inv_series = TruncatedSeries(
        ("z",), {(e,): c for e, c in inv.items()}, {"z": (NEG_INF, zorder)}, {"z": (0, INF)}
    )
    H = (G * inv_series).shifted(z=-k)
    slices: dict = {}
    for (x, z), c in H.coeffs.items():
        slices.setdefault(-z - 1, {})[(x,)] = c
    n_min = int(-H.win("z")[1] - 1)
    modes = {
        n: TruncatedSeries(("x2",), slices.get(n, {}), {"x2": H.win("x2")}, {"x2": H.sup("x2")})
        for n in range(n_min, k)
    }
    return YeModes(modes, k, n_min)


def _substituted_modes(F: TruncatedSeries, q: FactoredRational, zorder: int, scale=1) -> YeModes:
    """Modes of q(e^z)^(-1) F|_{x1 = scale x2 e^z} for a certified product F;
    q(y) = p(scale y) when F = p(x1/x2) P."""
    return _z_modes(subst_exp(F, "x1", "x2", "z", zorder, scale=scale), q, zorder)


def ye_from_product(prod: TruncatedSeries, p: FactoredRational, zorder: int,
                    margin: int = 2) -> YeModes:
    """Mode split of p(e^z)^(-1) (p(x1/x2) P)|_{x1 = x2 e^z} for a precomputed
    two-field product P on its box."""
    return _substituted_modes(_annihilated(prod, p, margin), p, zorder)


def ye_product(
    a: FieldOperator,
    b: FieldOperator,
    p: FactoredRational,
    zorder: int,
    w: FockVector,
    hi1: int,
    hi2: int,
    margin: int = 2,
) -> YeModes:
    """p(e^z)^(-1) (p(x1/x2) a(x1) b(x2)) at x1 = x2 e^z, split into z-modes.

    Requires the compatibility verdict on the box; the certified quadrant
    corner is asserted as a structural floor before the diagonal-mixing
    substitution.
    """
    prod = product_on_window(a, "x1", b, "x2", w, hi1, hi2)
    return ye_from_product(prod, p, zorder, margin)


def _residue_plus(F: TruncatedSeries, zorder: int) -> TruncatedSeries:
    """Res_{x1} (x2 e^z - side kernel) applied to F in (x1, x2), sum_{i>=0} (x2 e^z)^i
    F[x1=i]: the substitution x1 = x2 e^z of F's cells at x1 >= 0, x1 floor 0."""
    plus = {e: c for e, c in F.coeffs.items() if e[0] >= 0}
    support = dict(F.support, x1=(0, F.sup("x1")[1]))
    return subst_exp(TruncatedSeries(F.vars, plus, F.window, support), "x1", "x2", "z", zorder)


def _residue_minus_twisted(rev: TruncatedSeries, qd: dict, zorder: int) -> TruncatedSeries:
    """Res_{x1} of the opposite kernel against a twisted reversed product.

    Computes -sum_{i>=0} (x2 e^z)^(-1-i) [q(x1/x2) rev](x1-coeff -1-i) for rev
    in (x1, x2), where ``qd`` holds the ascending coefficients of q.  The twist
    term q_t (x1/x2)^t shifts rev by (t, -t), which keeps x1 + x2 fixed; its
    cells at x1 <= -1, weighted by -q_t and with that bound declared as their
    x1 support, go through the substitution x1 = x2 e^z.
    """
    (lo1, hi1), (lo2, hi2) = rev.win("x1"), rev.win("x2")
    (slo1, shi1), (slo2, shi2) = rev.sup("x1"), rev.sup("x2")
    out = TruncatedSeries.exact(("x2", "z"), {})
    for t, qt in qd.items():
        w = -qt
        cells = {(a + t, b - t): w * c for (a, b), c in rev.coeffs.items() if a + t <= -1}
        window = {"x1": (lo1 + t, hi1 + t), "x2": (lo2 - t, hi2 - t)}
        support = {"x1": (slo1 + t, min(shi1 + t, -1)), "x2": (slo2 - t, shi2 - t)}
        term = TruncatedSeries(("x1", "x2"), cells, window, support)
        out = out + subst_exp(term, "x1", "x2", "z", zorder)
    return out


def residue_ye(
    L: LocalityDatum,
    zorder: int,
    w: FockVector,
    hi1: int,
    hi2: int,
) -> tuple[YeModes, TruncatedSeries]:
    """Mode data via the residue formula, plus the top-mode residue series.

    The bracket Res_{x1} of the two kernels against p(x1/x2) a(x1) b(x2) w and
    the twisted reversed products is built once; the modes are its division
    by p(e^z), and ``top``, its z^0 slice (the z-free residue evaluation),
    equals (1/k!) p^(k)(1) (a_{k-1}^e b) w when p has a zero of order k at 1.
    """
    p = L.annihilator
    if not L.partners:
        raise ValueError("locality datum has no partners")
    prod = product_on_window(L.a, "x1", L.b, "x2", w, hi1, hi2)
    bracket = _residue_plus((laurent_annihilator(p) * prod).untagged(), zorder)
    for b_i, a_i, f_i in L.partners:
        rev = product_on_window(b_i, "x2", a_i, "x1", w, hi2, hi1)
        q = p * f_i.reciprocal_arg()  # q(y) = p(y) f_i(1/y), y = x1/x2
        s = -1 - int(rev.sup("x1")[0])  # kernel indices pair x1-exps <= -1
        qd = q.ratio_coeffs_ascending(max(s, q.mexp))
        bracket = bracket - _residue_minus_twisted(rev, qd, zorder)
    top = {(x,): c for (x, z), c in bracket.coeffs.items() if z == 0}
    top = TruncatedSeries(("x2",), top, {"x2": bracket.win("x2")}, {"x2": (NEG_INF, INF)})
    return _z_modes(bracket, p, zorder), top


def _mode_agree(s1: TruncatedSeries | None, s2: TruncatedSeries | None):
    """(ok, counterexample) for two mode series, None being a certified zero."""
    if s1 is None:
        return (True, None) if s2 is None else s2.is_zero_on_window()
    return s1.is_zero_on_window() if s2 is None else s1.eq_on_common(s2)


def modes_agree(y1: YeModes, y2: YeModes):
    """Compare two mode families on their common n-range and windows."""
    lo = max(y1.n_min, y2.n_min)
    for n in sorted(set(y1.modes) | set(y2.modes)):
        if n >= lo:
            ok, ce = _mode_agree(y1.mode(n), y2.mode(n))
            if not ok:
                return False, (n, ce)
    return True, None


def defect_series(
    L: LocalityDatum,
    w: FockVector,
    hi1: int,
    hi2: int,
    thm_region: bool = False,
    direct: TruncatedSeries | None = None,
) -> TruncatedSeries:
    """a(x1) b(x2) w minus the twisted reversed products sum_i f_i b_i(x2) a_i(x1) w,
    on the box, for locality and the commutator formula (:func:`residue_ye`
    folds the twist into its kernel instead).

    ``thm_region`` selects the commutator-theorem expansion of the twist
    (descending in x1/x2) instead of the locality-definition one (descending
    in x2/x1); the two coincide for constant twists.
    """
    if direct is None:
        direct = product_on_window(L.a, "x1", L.b, "x2", w, hi1, hi2)
    out = direct.untagged()
    for b_i, a_i, f_i in L.partners:
        rev = product_on_window(b_i, "x2", a_i, "x1", w, hi2, hi1)
        if f_i.factors or f_i.mexp:
            limits = {"x1": (NEG_INF, hi1), "x2": (NEG_INF, hi2)}
            if thm_region:
                tw = f_i.reciprocal_arg().ratio_series("x1", "x2", ("x1", "x2"), limits)
            else:
                tw = f_i.ratio_series("x2", "x1", ("x2", "x1"), limits)
            out = out - (tw.untagged() * rev).untagged()
        else:
            out = out.add_scaled(rev, -f_i.const)
    return out


def scaled_mode_extract(
    L: LocalityDatum,
    lambdas,
    w: FockVector,
    box: dict,
    zorder: int,
    hi1: int,
    hi2: int,
):
    """Fit the locality defect as delta terms and cross-check each coefficient
    against the exponential-substitution modes of the correspondingly scaled
    field: A_ij = j! * (fit coefficient), per the extraction identity.

    Returns (terms, agreements) where agreements[(lam, j)] is True/False per
    checked pair; raises NotDeltaSum when the defect is not a delta sum.
    """
    jmax = max((m for _, m in L.annihilator.factors), default=1) - 1
    D = defect_series(L, w, hi1, hi2).restricted(box)
    terms = delta_fit(D, list(lambdas), jmax)
    fitted = {(repr(t.lam), t.j): t for t in terms}
    agreements = {}
    for lam in lambdas:
        ye = ye_product(L.a.scaled(lam), L.b, L.annihilator.scale_arg(lam), zorder, w, hi1, hi2)
        for j in range(0, jmax + 1):
            t = fitted.get((repr(lam), j))
            expected = t.coeff.scaled(factorial(j)) if t is not None else None
            agreements[(repr(lam), j)] = _mode_agree(expected, ye.mode(j))[0]
    return terms, agreements


def _commutator_roots(p: FactoredRational, C: CovariantStructure) -> list:
    """[(shift, chi, k)] for each shift whose character chi is a root of p, of order k."""
    return [(n, chi, k) for n in C.shifts() for chi in (C.chi(n),)
            if (k := p.order_at(chi)) > 0]


def _check_zorder(roots: list, zorder: int):
    for n, _, k in roots:
        if k - 1 > zorder:
            raise InsufficientWindow(
                f"shift {n}: a zero of order {k} needs z-order {k - 1}, above the cap {zorder}"
            )


def _commutator_kernels(
    L: LocalityDatum, C: CovariantStructure, base: TruncatedSeries, zorder: int, margin: int
) -> list:
    """Delta kernels of the covariant commutator formula for the product
    ``base`` = a(x1) b(x2) w, as [(shift, character, (DeltaTerm, ...))].

    A shift carries kernels when its character chi is a root of p, of order
    k: the modes j < k of p(chi e^z)^(-1) F0 at x1 = chi x2 e^z, divided by
    j!, with F0 = p(x1/x2) base certified compatible.  They need z-order
    k - 1, which ``zorder`` caps; F0 is certified before the cap is read.
    """
    p = L.annihilator
    roots = _commutator_roots(p, C)
    F0 = _annihilated(base, p, margin)
    _check_zorder(roots, zorder)
    kernels = []
    for n, chi, k in roots:
        ye = _substituted_modes(F0, p.scale_arg(chi), k - 1, chi)
        terms = tuple(
            DeltaTerm(chi, j, ye.modes[j].scaled(Fraction(1, factorial(j))))
            for j in range(k)
            if not ye.modes[j].is_zero_series()
        )
        if terms:
            kernels.append((n, chi, terms))
    return kernels


def _product_coordinates(L: LocalityDatum, C: CovariantStructure):
    """(L', C', mu): the datum and the structure in X1 = lam x1, X2 = mu x2,
    with lam and mu the scales of a and b.

    a(x1), the unscaled field at lam x1, becomes that field at X1, and b
    likewise; a partner's fields keep their ratio to a and b; a twist
    f(x2/x1) becomes f((lam/mu) X2/X1), the annihilator p(x1/x2) becomes
    p((mu/lam) X1/X2), and a character chi becomes chi lam/mu, since
    delta(chi x2/x1) = delta(chi (lam/mu) X2/X1).  Only scalars change: a
    cell (i, j) in X is the cell in x times lam^-i mu^-j, so supports,
    windows and verdicts stay where they were.
    """
    lam, mu = L.a.scale, L.b.scale
    to_x1, to_x2 = power(lam, -1), power(mu, -1)
    ratio = lam * to_x2
    partners = tuple(
        (b_i.scaled(to_x2), a_i.scaled(to_x1), f_i.scale_arg(ratio))
        for b_i, a_i, f_i in L.partners
    )
    unscaled = LocalityDatum(replace(L.a, scale=1), replace(L.b, scale=1), partners,
                             L.annihilator.scale_arg(mu * to_x1))
    return unscaled, replace(C, chi=lambda n: C.chi(n) * ratio), mu


def commutator_formula_fit(
    L: LocalityDatum,
    C: CovariantStructure,
    w: FockVector,
    box: dict,
    zorder: int,
    hi1: int,
    hi2: int,
    margin: int = 2,
):
    """Covariant commutator formula on the box: the locality defect equals the
    group sum of delta kernels weighted by scaled-field mode products.

    The products, the defect, its delta fit and the kernels are built in the
    product's own coordinates (:func:`_product_coordinates`), where every
    flavor pair on one vector reads the same unscaled product, kernels and
    fit.  They are built only when ``FockModule._commutators`` has no entry
    for the product, the annihilator, the margin, the partners and their
    twists, the box and the roots, and are stored together; a defect that is
    no delta sum stores its message, and anything else raised stores
    nothing.  A hit only re-checks the z-order cap.  The fit and the
    kernels, a few delta terms, come back to the caller's coordinates to be
    compared there.

    Returns (ok, counterexample, contributing, fit): ``contributing`` lists
    (shift, C.chi(shift), the kernels' j) for the shifts with nonzero
    kernels, and ``fit`` is (the delta terms fitted to the defect, the
    window they were compared on), or None when the defect is no delta sum.
    """
    chis = [C.chi(n) for n in C.shifts()]
    if len(set(chis)) != len(chis):
        raise ValueError("character must be injective on the shift window")
    L1, C1, mu = _product_coordinates(L, C)
    module, key = _product_key(L1.a, L1.b, w, hi1, hi2)
    if any(g.module is not module for b, a, _ in L1.partners for g in (b, a)):
        raise ValueError("the commutator formula needs every field on one module")
    p = L1.annihilator
    roots = _commutator_roots(p, C1)
    memo_key = (key, p.mexp, p.factors, margin,
                tuple((b.flavor, b.scale, a.flavor, a.scale, f.const, f.mexp, f.factors)
                      for b, a, f in L1.partners),
                tuple((v, tuple(iv)) for v, iv in sorted(box.items())),
                tuple((chi, k) for _, chi, k in roots))
    entry = module._commutators.get(memo_key)
    if entry is None:
        base = product_on_window(L1.a, "x1", L1.b, "x2", w, hi1, hi2)
        kernels = {chi: terms
                   for _, chi, terms in _commutator_kernels(L1, C1, base, zorder, margin)}
        jmax = max((t.j for terms in kernels.values() for t in terms), default=0)
        lhs = defect_series(L1, w, hi1, hi2, thm_region=True, direct=base).restricted(box)
        try:
            fit = delta_fit(lhs, tuple(kernels), jmax)
            found = fit, fit_window(lhs, fit)
        except NotDeltaSum as exc:
            found = str(exc)
        entry = module._commutators[memo_key] = kernels, found
    else:
        _check_zorder(roots, zorder)
    kernels, found = entry
    reached = [(n, chi) for n, chi, _ in roots if chi in kernels]
    back = {chi: C.chi(n) for n, chi in reached}
    contributing = [(n, back[chi], [t.j for t in kernels[chi]]) for n, chi in reached]
    if isinstance(found, str):
        return False, ({}, found), contributing, None

    def in_caller_coordinates(t: DeltaTerm) -> DeltaTerm:
        return DeltaTerm(back[t.lam], t.j, var_scaled(t.coeff, "x2", mu))

    rhs = [in_caller_coordinates(t) for terms in kernels.values() for t in terms]
    fit, window = found
    fit = [in_caller_coordinates(t) for t in fit]
    ok, ce = fit_agree(fit, window, rhs)
    return ok, ce, contributing, (fit, window)


def commutator_formula_check(
    L: LocalityDatum,
    C: CovariantStructure,
    w: FockVector,
    box: dict,
    zorder: int,
    hi1: int,
    hi2: int,
    margin: int = 2,
):
    """:func:`commutator_formula_fit` without the fit: (ok, counterexample,
    contributing)."""
    return commutator_formula_fit(L, C, w, box, zorder, hi1, hi2, margin)[:3]


def assoc_check(
    u: FieldOperator,
    v: FieldOperator,
    p_inner: FactoredRational,
    p_outer: FactoredRational,
    w: FockVector,
    zorder: int,
    hi1: int,
    hi2: int,
    margin: int = 2,
):
    """p(e^z) Y(Y(u,z)v, x2) w == (p(x1/x2) u(x1) v(x2) w) at x1 = x2 e^z.

    The inner modes are produced by the exponential-substitution product with
    ``p_inner``; the right side uses ``p_outer`` directly, so running the two
    with different valid annihilators makes this a well-definedness check and
    not a tautology.
    """
    inner = ye_product(u, v, p_inner, zorder, w, hi1, hi2, margin=margin)
    k, unit = p_outer.exp_arg_dict(zorder)
    pe = TruncatedSeries(
        ("z",), {(e + k,): c for e, c in unit.items()}, {"z": (NEG_INF, zorder + k)}, {"z": (k, INF)}
    )
    lhs = pe * inner.generating()
    prod = product_on_window(u, "x1", v, "x2", w, hi1, hi2)
    rhs = subst_exp(_annihilated(prod, p_outer, margin), "x1", "x2", "z", zorder)
    return lhs.eq_on_common(rhs)


def covariance_check(
    C: CovariantStructure, r: int, shift: int, grade_bound: int, hi: int
):
    """Field of the shifted flavor == character-rescaled field, on all basis
    vectors of bounded grade."""
    f1 = C.realize(r + shift)
    f2 = C.realize(r).scaled(C.chi(shift))
    module = f1.module
    for w in module.basis(grade_bound):
        ok, ce = f1.series(w, hi).eq_on_common(f2.series(w, hi))
        if not ok:
            return False, (w, ce)
    return True, None


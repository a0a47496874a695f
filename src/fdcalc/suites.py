"""Named verification suites with machine-readable results.

Each check is a pure callable returning a :class:`CheckResult` (or a list of
them); a suite is an ordered list of named checks.  Every verdict comes from
one rule, :func:`dvir.verdict`: a check's body yields counterexamples, and the
first one decides.  Randomized instance checks use a fixed seed so identical
configurations produce identical reports.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import dvir as dv
from .distributions import (
    DeltaSum,
    DeltaTerm,
    annihilation_check,
    delta_agree,
    delta_decompose,
    delta_fit,
    fit_agree,
    shifted_delta_term,
    three_term_check,
    vanishing_order,
)
from .fock import FockModule, FockVector, e_spec, t_spec
from .fieldcalc import (
    CovariantStructure,
    FieldOperator,
    LocalityDatum,
    commutator_formula_fit,
    modes_agree,
    residue_ye,
    ye_product,
)
from .scalars import RatFunc, ScalarField, exact_fraction, power
from .series import (
    INF,
    NEG_INF,
    FactoredRational,
    InsufficientWindow,
    TruncatedSeries,
    diagonal_collapse,
    exp_z_dict,
    iota_expand,
    partial_fractions,
    var_scaled,
)


class ConfigError(ValueError):
    """Invalid suite configuration."""


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "all"
    p: object = "symbolic"  # "symbolic" or a Fraction
    grade: int = 5
    modes: int = 4
    flavor_lo: int = -2
    flavor_hi: int = 3
    zorder: int = 6
    margin: int = 2
    jobs: int = 1
    seed: int = 20240811

    def __post_init__(self):
        if self.grade < 1 or self.modes < 1 or self.zorder < 1 or self.margin < 1:
            raise ConfigError("all bounds must be positive")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if self.flavor_lo > self.flavor_hi:
            raise ConfigError("empty flavor window")
        if self.p != "symbolic":
            try:
                p0 = exact_fraction(self.p, "p")
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            if p0 in (0, 1, -1):
                raise ConfigError("rational p must have |p| not in {0, 1}")

    def scalar_field(self) -> ScalarField:
        if self.p == "symbolic":
            return ScalarField.rational_functions()
        return ScalarField.rationals(Fraction(self.p))

    def params(self) -> dv.DVirParams:
        return dv.DVirParams(self.scalar_field(), -1)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "p": "symbolic" if self.p == "symbolic" else str(Fraction(self.p)),
            "grade": self.grade,
            "modes": self.modes,
            "flavors": f"{self.flavor_lo}..{self.flavor_hi}",
            "zorder": self.zorder,
            "window_margin": self.margin,
            "jobs": self.jobs,
            "seed": self.seed,
        }


@dataclass
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail" | "undetermined"
    window: str | None = None
    counterexample: dict | None = None
    wall_ms: float = 0.0

    def payload(self) -> dict:
        return {
            "id": self.check_id,
            "status": self.status,
            "window": self.window,
            "counterexample": self.counterexample,
        }


def _render(x) -> str:
    if isinstance(x, RatFunc):
        return x.render()
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    return repr(x)


def _ce(exps=None, value=None, note=None) -> dict:
    out = {}
    if exps is not None:
        out["exponents"] = {k: int(v) for k, v in exps.items()}
    if value is not None:
        out["value"] = _render(value) if not isinstance(value, (tuple, list, str)) else str(value)
    if note is not None:
        out["note"] = str(note)
    return out


def _box(r: int) -> dict:
    return {"x1": (-r, r), "x2": (-r, r)}


def _rand_scalar(rng, fld):
    num = rng.randint(-6, 6)
    den = rng.randint(1, 4)
    if num == 0:
        num = 1
    return fld.coerce(Fraction(num, den))


_STATUS = {True: "pass", False: "fail", None: "undetermined"}


def _result(check_id: str, window, ok, detail) -> CheckResult:
    """The CheckResult of a :func:`dvir.verdict`.  A yielded ``_ce`` dict is
    the counterexample; any other detail (a dvir tuple, an exception's
    message) becomes its note."""
    if not ok and not isinstance(detail, dict):
        detail = _ce(note=detail)
    return CheckResult(check_id, _STATUS[ok], window, detail)


def _check(check_id: str, window=None):
    """Register a generator of ``_ce`` counterexamples as the check ``check_id``.

    The verdict is :func:`dvir.verdict`'s: the first counterexample decides,
    and the body is not resumed after it.  The body runs entirely inside the
    rule, so whatever it raises is reported under ``check_id``.  ``window``,
    a string or a function of the config, is reported with every verdict.
    """

    def register(failures):
        @functools.wraps(failures)
        def check(cfg: SuiteConfig) -> CheckResult:
            win = window(cfg) if callable(window) else window
            return _result(check_id, win, *dv.verdict(failures(cfg)))

        return check

    return register


# -- formal-calc checks --------------------------------------------------------


@_check("delta-annihilation-exhaustive", "radius 20")
def check_delta_annihilation(cfg: SuiteConfig):
    fld = cfg.scalar_field()
    lim = _box(20)
    lams = [Fraction(1), Fraction(2), Fraction(-3)]
    if fld.symbolic:
        lams.append(RatFunc.p())
    else:
        lams.append(fld.p_power(1))
    for lam in lams:
        for k in range(1, 5):
            for j in range(0, k):
                if not annihilation_check(lam, k, j, "x1", "x2", lim):
                    yield _ce(note=f"lambda={_render(lam)} k={k} j={j}")
    # negative control: j = k is not annihilated
    if annihilation_check(Fraction(1), 1, 1, "x1", "x2", lim):
        yield _ce(note="j = k control unexpectedly annihilated")


def _random_delta_sum(rng, fld):
    nlam = rng.randint(1, 3)
    pool = [Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5), Fraction(-1)]
    rng.shuffle(pool)
    lams = [fld.coerce(x) for x in pool[:nlam]]
    terms = []
    for lam in lams:
        for j in range(0, rng.randint(1, 4)):
            if rng.random() < 0.4:
                continue
            coeffs = {}
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(-5, 5)
                c = _rand_scalar(rng, fld)
                coeffs[(d,)] = c
            if coeffs:
                terms.append(DeltaTerm(lam, j, TruncatedSeries.exact(("x2",), coeffs)))
    return lams, DeltaSum(terms).merged()


@_check("delta-fit-roundtrip", "radius 18, 50 trials")
def check_delta_fit_roundtrip(cfg: SuiteConfig):
    fld = cfg.scalar_field()
    rng = random.Random(cfg.seed)
    lim = {"x1": (-18, 18), "x2": (-24, 24)}
    for trial in range(50):
        lams, ds = _random_delta_sum(rng, fld)
        expanded = ds.expand("x1", "x2", lim)
        jmax = max((t.j for t in ds.terms), default=0)
        ok, ce = delta_agree(expanded, lams, max(jmax, 1), ds.terms, "x1", "x2")
        if not ok:
            yield _ce(ce[0], None, f"trial {trial}: {ce[1]}")


@_check("delta-fit-zero", "radius 12")
def check_delta_fit_zero(cfg: SuiteConfig):
    zero = TruncatedSeries(("x1", "x2"), {}, _box(12), {"x1": (INF, NEG_INF), "x2": (INF, NEG_INF)})
    fit = delta_fit(zero, [Fraction(1), Fraction(2)], 3, "x1", "x2")
    if fit:
        yield _ce(note=f"{len(fit)} terms")


def _predicted_decomposition(p: FactoredRational) -> DeltaSum:
    """Delta terms predicted by partial fractions for the two expansions of
    1/p: each 1/(y-lam)^j contributes a derivative of the shifted kernel."""
    acc = DeltaSum()
    inv = p**-1
    for lam, j, a in partial_fractions(inv):
        if not a:
            continue
        base = DeltaSum([shifted_delta_term(lam, "x2")])
        for _ in range(j - 1):
            base = base.d_dv2("x2")
        coeff = a * power(lam, 1 - j) * Fraction(1, factorial(j - 1))
        shift = TruncatedSeries.exact(("x2",), {(j,): Fraction(1)})
        acc = acc + base.scaled_series(shift).scaled(coeff)
    return acc.merged()


@_check("delta-decompose-rational", "radius 16, 20 trials")
def check_delta_decompose(cfg: SuiteConfig):
    fld = cfg.scalar_field()
    rng = random.Random(cfg.seed + 1)
    lim = {"x1": (-16, 16), "x2": (-24, 24)}
    pool = [Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(3)]
    for trial in range(20):
        nroots = rng.randint(1, 2)
        rng.shuffle(pool)
        roots = [fld.coerce(x) for x in pool[:nroots]]
        facs = tuple((lam, rng.randint(1, 2)) for lam in roots)
        p = FactoredRational(fld.one(), 0, facs)
        inv = p**-1
        ab = iota_expand(inv, "x1", "x2", ("x1", "x2"), lim)
        K = iota_expand(inv, "x1", "x2", ("x2", "x1"), lim)
        terms = delta_decompose(ab, K, p, "x1", "x2")
        got = DeltaSum(terms).expand("x1", "x2", _box(10))
        want = _predicted_decomposition(p).expand("x1", "x2", _box(10))
        ok, ce = got.eq_on_common(want)
        if not ok:
            yield _ce(ce[0], ce[1], f"trial {trial}: p = {p.render()}")


@_check("vanishing-order", "30 trials")
def check_vanishing_order(cfg: SuiteConfig):
    fld = cfg.scalar_field()
    rng = random.Random(cfg.seed + 2)
    for trial in range(30):
        lam = _rand_scalar(rng, fld)
        k = rng.randint(0, 3)
        lin = TruncatedSeries.exact(("x1", "x2"), {(1, 0): fld.one(), (0, 1): -lam})
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(-3, 3), rng.randint(-3, 3))] = _rand_scalar(rng, fld)
        B = TruncatedSeries.exact(("x1", "x2"), terms)
        # ensure B(lam x2, x2) != 0 so the constructed order is exactly k
        if B.is_zero_series() or diagonal_collapse(B, "x1", "x2", lam).is_zero_series():
            B = B + TruncatedSeries.exact(("x1", "x2"), {(0, 0): fld.one()})
            if diagonal_collapse(B, "x1", "x2", lam).is_zero_series():
                continue
        A = B
        for _ in range(k):
            A = A * lin
        got = vanishing_order(A, lam, "x1", "x2")
        if got != k:
            yield _ce(note=f"trial {trial}: lambda={_render(lam)} expected {k} got {got}")


@_check("three-term-delta-log", "radius 7")
def check_three_term(cfg: SuiteConfig):
    one2 = TruncatedSeries(
        ("x1", "x2"), {(0, 0): Fraction(1)}, _box(7), {"x1": (0, 0), "x2": (0, 0)}
    )
    oneC = TruncatedSeries(
        ("x0", "x2"), {(0, 0): Fraction(1)},
        {"x0": (NEG_INF, 7), "x2": (-7, 7)}, {"x0": (0, 0), "x2": (0, 0)},
    )
    if not three_term_check(one2, one2, oneC, 4):
        yield _ce(note="kernel identity")
    # polynomial instance: A = B = x1 x2, so C = x2^2 e^(x0)
    AB = TruncatedSeries(
        ("x1", "x2"), {(1, 1): Fraction(1)}, _box(7), {"x1": (1, 1), "x2": (1, 1)}
    )
    C2 = TruncatedSeries(
        ("x0", "x2"), {(t, 2): c for t, c in exp_z_dict(1, 7).items()},
        {"x0": (NEG_INF, 7), "x2": (-7, 7)}, {"x0": (0, INF), "x2": (2, 2)},
    )
    if not three_term_check(AB, AB, C2, 4):
        yield _ce(note="monomial instance")
    bad = one2 + TruncatedSeries.exact(("x1", "x2"), {(2, 1): Fraction(1)})
    if three_term_check(one2, bad, oneC, 4):
        yield _ce(note="corrupted control passed")


# -- clifford checks -----------------------------------------------------------


@_check("car-anticommutators", lambda cfg: f"grade {min(cfg.grade, 4)}, |modes| <= 3")
def check_car_anticommutators(cfg: SuiteConfig):
    """The mode action against the CAR pairings in closed form, stated here
    apart from ``CarSpec.pairing``, which the action itself reads:
    {a(r)_m, a(s)_n} = 2 ell [|r - s| = 1] d_{m+n+1,0} and
    {T_m, T_n} = 2 (p^m + p^-m) d_{m+n,0}."""
    fld = cfg.scalar_field()
    modes = range(-3, 4)
    grade = min(cfg.grade, 4)
    for ell in (1, 2):
        E = FockModule(e_spec(fld, ell=ell, flavor_lo=0, flavor_hi=2))
        gens = [(r, m) for r in (0, 1, 2) for m in modes]
        for g1 in gens:
            for g2 in gens:
                (r, m), (s, n) = g1, g2
                pair = fld.from_int(2 * ell if abs(r - s) == 1 and m + n + 1 == 0 else 0)
                if not E.anticommutator_check(g1, g2, grade, pair):
                    yield _ce(note=f"E(ell={ell}) {g1} {g2}")
    M = FockModule(t_spec(fld))
    for m in modes:
        for n in modes:
            pair = 2 * (fld.p_power(m) + fld.p_power(-m)) if m + n == 0 else fld.zero()
            if not M.anticommutator_check(("T", m), ("T", n), grade, pair):
                yield _ce(note=f"T {m} {n}")


@_check("mode-square", lambda cfg: f"grade {min(cfg.grade, 4)}")
def check_mode_square(cfg: SuiteConfig):
    """T_m T_m = 2 d_{m,0} in closed form, half of {T_m, T_m}, stated here
    apart from ``CarSpec.pairing``, which the action itself reads."""
    fld = cfg.scalar_field()
    M = FockModule(t_spec(fld))
    for m in range(-4, 5):
        for w in M.basis(min(cfg.grade, 4)):
            got = M.apply_mode("T", m, M.apply_mode("T", m, w))
            want = 2 * w if m == 0 else FockVector()
            if got != want:
                yield _ce(note=f"T_{m} on {w!r}")


@_check("restriction-certificate", lambda cfg: f"grade {min(cfg.grade, 4)}")
def check_restriction(cfg: SuiteConfig):
    fld = cfg.scalar_field()
    M = FockModule(t_spec(fld))
    E = FockModule(e_spec(fld, flavor_lo=0, flavor_hi=1))
    for module, flavors in ((M, ["T"]), (E, [0, 1])):
        for w in module.basis(min(cfg.grade, 4)):
            bound = module.ann_bound(w)
            for r in flavors:
                for n in range(bound, bound + 5):
                    if module.apply_mode(r, n, w):
                        yield _ce(note=f"{r}_{n} on {w!r} nonzero beyond bound {bound}")


@_check("graded-dimensions", "grades 0..6")
def check_graded_dimensions(cfg: SuiteConfig):
    fld = cfg.scalar_field()
    M = FockModule(t_spec(fld))
    # distinct-part partition counts, doubled by the optional zero mode
    got = M.graded_dimensions(6)
    want = [2, 2, 2, 4, 4, 6, 8]
    if got != want:
        yield _ce(note=f"T: {got} != {want}")
    E1 = FockModule(e_spec(fld, flavor_lo=0, flavor_hi=0))
    got = E1.graded_dimensions(3)
    if got != [1, 1, 1, 2]:
        yield _ce(note=f"E1: {got}")


@_check("clifford-mode-products", "flavors -2..3")
def check_clifford_mode_products(cfg: SuiteConfig):
    fld = cfg.scalar_field()
    E = FockModule(e_spec(fld, flavor_lo=-2, flavor_hi=3))
    vac = E.vacuum()
    for r in range(-2, 4):
        for s in range(-2, 4):
            es = E.apply_mode(s, -1, vac)
            for n in range(0, 3):
                got = E.apply_mode(r, n, es)
                want = (2 * E.spec.ell) * vac if (n == 0 and abs(r - s) == 1) else FockVector()
                if got != want:
                    yield _ce(note=f"e({r})_{n} e({s})")
            if E.apply_mode(r, -1, E.apply_mode(r, -1, vac)):
                yield _ce(note=f"e({r})_-1 e({r}) != 0")


@_check("field-scaling", "hi 5")
def check_field_scaling(cfg: SuiteConfig):
    fld = cfg.scalar_field()
    M = FockModule(t_spec(fld))
    lam = fld.p_power(1)
    for w in M.basis(3):
        direct = M.apply_field("T", lam, w, 5)
        unscaled = M.apply_field("T", 1, w, 5)
        ok, ce = direct.eq_on_common(var_scaled(unscaled, "x", lam))
        if not ok:
            yield _ce(ce[0], None, repr(w))


# -- dvir checks ----------------------------------------------------------------


@_check("structure-series-closed-form", "order 12")
def check_structure_series(cfg: SuiteConfig):
    # The verdict depends on the values only; the check's time is in the
    # report's timings, and criterion 1 holds the 1 s bound.
    fs = dv.f_coefficients(dv.DVirParams.symbolic(), 12)
    if fs[0] != 1 or any(x != 2 for x in fs[1:]):
        yield _ce(note=f"[{', '.join(_render(x) for x in fs[:4])}, ...]")


@_check("central-term-hand-oracle", "vacuum, (m,n) = (1,-1) over Q(p)")
def check_central_term_oracle(cfg: SuiteConfig):
    ps = dv.DVirParams.symbolic()
    p = RatFunc.p()
    module = dv.t_fock(ps)
    vac = module.vacuum()
    # hand computation: l=0 gives T_1 T_-1 vac, l=1 gives 2 T_0^2 vac
    lhs = module.apply_mode("T", 1, module.apply_mode("T", -1, vac))
    lhs = lhs + 2 * module.apply_mode("T", 0, module.apply_mode("T", 0, vac))
    want = (2 * (p + p**-1) + 4) * vac
    if lhs != want:
        yield _ce(note=repr(lhs))
    c = dv.central_term(ps, 1)
    if c != 2 * (p + 2 + p**-1):
        yield _ce(value=c)
    if lhs != c * vac:
        yield _ce(note="sides differ")


@_check(
    "tfock-relations",
    lambda cfg: f"grade {cfg.grade}, |m|,|n| <= {cfg.modes}, truncation +5 stable",
)
def check_tfock_relations(cfg: SuiteConfig):
    params = cfg.params()
    module = dv.t_fock(params)
    for m, n, what in dv.relation_failures(module, params, cfg.modes, cfg.grade, 5):
        yield _ce(note=f"(m,n)=({m},{n}): {what}")


# -- phi-module / commutator checks ---------------------------------------------


def check_phi_module(cfg: SuiteConfig) -> list:
    results = dv.theorem58_suite(
        cfg.params(),
        flavor_lo=cfg.flavor_lo,
        flavor_hi=cfg.flavor_hi,
        grade_bound=cfg.grade,
        zorder=cfg.zorder,
        margin=cfg.margin,
    )
    fl, g, hi = f"flavors {cfg.flavor_lo}..{cfg.flavor_hi}", cfg.grade, cfg.grade + 3
    windows = {
        "trig-locality": f"{fl}, grade {g}, hi {hi}",
        "anticommutator-delta-kernel": f"{fl}, grade {g}, box {hi}, hi {hi + 2}",
        "covariance-rescaling": f"{fl}, grade {min(g, 3)}, hi {hi}",
        "exp-substitution-associativity": f"{fl}, grade {g} (first third, at least 4), hi {hi + 2}",
        "top-mode-identity": f"{fl}, grade {g}, hi {hi + 2}",
    }
    return [_result(cid, windows[cid], ok, detail) for cid, ok, detail in results]


@_check("mode-product-well-defined", lambda cfg: f"hi {min(cfg.grade, 3) + 4}, 20 trials")
def check_mode_product_well_defined(cfg: SuiteConfig):
    params = cfg.params()
    fld = params.field
    module = dv.t_fock(params)
    rng = random.Random(cfg.seed + 3)
    basis = module.basis(min(cfg.grade, 3))
    hi = min(cfg.grade, 3) + 4
    extra_roots = [Fraction(3), Fraction(-2), Fraction(5)]
    for trial in range(20):
        r = rng.randint(cfg.flavor_lo, cfg.flavor_hi)
        s = rng.randint(cfg.flavor_lo, cfg.flavor_hi)
        w = rng.choice(basis)
        a, b = dv.realized_field(module, r), dv.realized_field(module, s)
        p1 = dv.standard_annihilator(params, r, s, with_extra=False)
        mu = fld.coerce(extra_roots[trial % len(extra_roots)])
        p2 = p1 * FactoredRational(fld.one(), 0, ((mu, 1),))
        y1 = ye_product(a, b, p1, cfg.zorder, w, hi, hi, cfg.margin)
        y2 = ye_product(a, b, p2, cfg.zorder, w, hi + 1, hi + 1, cfg.margin)
        ok, det = modes_agree(y1, y2)
        if not ok:
            yield _ce(note=f"trial {trial} (r,s)=({r},{s}) mode {det[0]}")


def check_residue_agreement(cfg: SuiteConfig) -> list:
    params = cfg.params()
    fld = params.field
    module = dv.t_fock(params)
    rng = random.Random(cfg.seed + 4)
    basis = module.basis(min(cfg.grade, 3))
    hi = min(cfg.grade, 3) + 4
    flavors = (cfg.flavor_lo, cfg.flavor_hi)
    draws = [(rng.randint(*flavors), rng.randint(*flavors), rng.choice(basis)) for _ in range(20)]

    @functools.cache
    def trial(t):
        """Trial t's residue-formula disagreement and top-mode mismatch, each
        a counterexample or None; both verdicts read this one computation."""
        r, s, w = draws[t]
        L = dv.neighbor_locality(params, module, r, s)
        y1 = ye_product(L.a, L.b, L.annihilator, cfg.zorder, w, hi, hi, cfg.margin)
        y2, top = residue_ye(L, cfg.zorder, w, hi, hi)
        ok, det = modes_agree(y1, y2)
        if not ok:
            return _ce(note=f"trial {t} (r,s)=({r},{s}) mode {det[0]}"), None
        # top-mode closed form: (1/k!) p^(k)(1) a_(k-1) b
        k = y1.zero_order
        lead = L.annihilator.shifted_value_at(fld.one())
        if (k - 1) in y1.modes:
            ok, ce = top.eq_on_common(y1.mode(k - 1).scaled(lead))
            if not ok:
                return None, _ce(ce[0], None, f"trial {t} (r,s)=({r},{s})")
        return None, None

    def disagreements():
        for t in range(20):
            bad, _ = trial(t)
            if bad is not None:
                yield bad

    def top_mismatches():
        for t in range(20):
            bad, mismatch = trial(t)
            if bad is not None:
                # the trials from here on were never run: too few to decide
                raise InsufficientWindow(
                    f"stopped at trial {t} when residue-formula-agreement failed"
                )
            if mismatch is not None:
                yield mismatch

    return [
        _result("residue-formula-agreement", f"hi {hi}, 20 trials", *dv.verdict(disagreements())),
        _result("residue-top-mode", f"hi {hi}", *dv.verdict(top_mismatches())),
    ]


@_check(
    "commutator-formula-matrix",
    lambda cfg: f"flavors {cfg.flavor_lo}..{cfg.flavor_hi}, grade {min(cfg.grade, 3)}, "
    f"box {min(cfg.grade, 3) + 4}",
)
def check_commutator_matrix(cfg: SuiteConfig):
    params = cfg.params()
    module, C = dv.realization(params)
    grade = min(cfg.grade, 3)
    hi = grade + 5
    box = {"x1": (-hi + 1, hi - 1), "x2": (-hi + 1, hi - 1)}
    flavors = range(cfg.flavor_lo, cfg.flavor_hi + 1)
    for r, s, w, exps, what in dv.commutator_failures(
        params, C, flavors, module.basis(grade), box, cfg.zorder, hi, cfg.margin
    ):
        yield _ce(exps, None, f"(r,s)=({r},{s}) on {w!r}: {what}")


@_check(
    "adjoint-module-kernels",
    lambda cfg: f"flavors {cfg.flavor_lo}..{cfg.flavor_hi}, grade {min(cfg.grade, 2)}",
)
def check_adjoint_module_kernels(cfg: SuiteConfig):
    """Neighbor pairs on the loop-Clifford vacuum module produce the single
    unscaled delta kernel; non-neighbor pairs give zero defect and empty sum.
    A neighbor pair's defect is 2 ell x1^-1 delta(x2/x1) w with ell = 1, stated
    here apart from ``CarSpec.pairing``, which the action reads, and compared
    with the delta fit the commutator check made of the defect, on its window."""
    fld = cfg.scalar_field()
    E = FockModule(e_spec(fld, ell=1, flavor_lo=cfg.flavor_lo, flavor_hi=cfg.flavor_hi))
    one = fld.one()
    grade = min(cfg.grade, 2)
    hi = grade + 4
    box = {"x1": (-hi + 1, hi - 1), "x2": (-hi + 1, hi - 1)}
    trivial = CovariantStructure(lambda r: None, lambda n: one, 0, 0)
    basis = E.basis(grade)
    for r in range(cfg.flavor_lo, cfg.flavor_hi + 1):
        for s in range(cfg.flavor_lo, cfg.flavor_hi + 1):
            a = FieldOperator(E, r)
            b = FieldOperator(E, s)
            L = LocalityDatum(
                a, b, ((b, a, FactoredRational(-one)),),
                FactoredRational(one, 0, ((one, 1),)),
            )
            for w in basis:
                ok, ce, contrib, fit = commutator_formula_fit(
                    L, trivial, w, box, cfg.zorder, hi, hi, cfg.margin
                )
                if not ok:
                    yield _ce(ce[0] if ce else None, None, f"(r,s)=({r},{s})")
                neighbor = abs(r - s) == 1
                if bool(contrib) != neighbor:
                    yield _ce(note=f"(r,s)=({r},{s}): contributions {contrib}")
                if neighbor and fit is not None:
                    kernel = TruncatedSeries.exact(("x2",), {(-1,): 2 * w})
                    ok, ce = fit_agree(*fit, [DeltaTerm(one, 0, kernel)], "x2")
                    if not ok:
                        yield _ce(ce[0], None, f"(r,s)=({r},{s}): defect against 2 ell")


def check_theorem59(cfg: SuiteConfig) -> list:
    results = dv.theorem59_suite(
        cfg.params(), mode_bound=cfg.modes, grade_bound=cfg.grade, margin=cfg.margin
    )
    g, g4 = cfg.grade, min(cfg.grade, 4)
    windows = {
        "realized-field-relations": f"grade {g}, |m|,|n| <= {cfg.modes}, truncation +2 stable",
        "defect-factorization": f"grade {g4}, hi {3 * g4 + 9}, cap {g4 + 5}",
        "mode-extracted-pairing": f"grade {g4}, box {g + 3}, hi {g + 5}",
    }
    return [_result(cid, windows[cid], ok, detail) for cid, ok, detail in results]


SUITES = {
    "formal-calc": [
        check_delta_annihilation,
        check_delta_fit_roundtrip,
        check_delta_fit_zero,
        check_delta_decompose,
        check_vanishing_order,
        check_three_term,
    ],
    "clifford": [
        check_car_anticommutators,
        check_mode_square,
        check_restriction,
        check_graded_dimensions,
        check_clifford_mode_products,
        check_field_scaling,
    ],
    "dvir": [
        check_structure_series,
        check_central_term_oracle,
        check_tfock_relations,
        check_theorem59,
    ],
    "phi-module": [
        check_phi_module,
        check_mode_product_well_defined,
        check_residue_agreement,
    ],
    "commutator": [
        check_commutator_matrix,
        check_adjoint_module_kernels,
    ],
}
SUITES["all"] = (
    SUITES["formal-calc"]
    + SUITES["clifford"]
    + SUITES["dvir"]
    + SUITES["phi-module"]
    + SUITES["commutator"]
)


def _run_check(cfg: SuiteConfig, index: int) -> list:
    """Run check ``index`` of ``cfg.suite``; a raising check becomes a result.

    Workers receive only ``(cfg, index)`` and look the check up in their own
    copy of ``SUITES``, so no check function is ever pickled.  The suite's
    checks decide every verdict by :func:`dvir.verdict` and do not raise; the
    catch-all here is for any other callable put into ``SUITES``.
    """
    fn = SUITES[cfg.suite][index]
    t0 = time.perf_counter()
    try:
        res = fn(cfg)
    except Exception as exc:
        crash_id = fn.__name__.replace("check_", "crash-")
        res = CheckResult(crash_id, "fail", None, _ce(note=repr(exc)))
    elapsed = (time.perf_counter() - t0) * 1000.0
    results = res if isinstance(res, list) else [res]
    for r in results:
        r.wall_ms = elapsed / len(results)
    return results


def run_suite(cfg: SuiteConfig) -> list:
    """Execute the configured suite; returns CheckResults sorted by id.

    With ``jobs > 1`` the checks run in at most ``jobs`` forked worker
    processes.  ``fork`` makes each worker run the very function objects in
    the parent's ``SUITES``, including any wrapper put there at run time;
    fdcalc starts no threads, so forking it is safe.
    """
    if cfg.suite not in SUITES:
        raise ConfigError(f"unknown suite {cfg.suite!r}; choose from {sorted(SUITES)}")
    indices = range(len(SUITES[cfg.suite]))
    # a fork pool starts all its workers up front, so start no idle ones
    workers = min(cfg.jobs, len(indices))
    if workers > 1:
        # imported here so that `import fdcalc` stays cheap
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as ex:
            chunks = list(ex.map(_run_check, [cfg] * len(indices), indices))
    else:
        chunks = [_run_check(cfg, i) for i in indices]
    out = [r for chunk in chunks for r in chunk]
    return sorted(out, key=lambda r: r.check_id)


def report_document(cfg: SuiteConfig, results: list) -> dict:
    """The serializable report; wall times quarantined under "timings".

    A check that reports several ids (the theorem58 and theorem59 triples, the
    residue pair) has its wall time split evenly over them.
    """
    return {
        "config": cfg.as_dict(),
        "checks": [r.payload() for r in results],
        "summary": {
            "pass": sum(1 for r in results if r.status == "pass"),
            "fail": sum(1 for r in results if r.status == "fail"),
            "undetermined": sum(1 for r in results if r.status == "undetermined"),
        },
        "timings": {r.check_id: round(r.wall_ms, 3) for r in results},
    }


def exit_status(results: list) -> int:
    if any(r.status == "fail" for r in results):
        return 1
    if any(r.status == "undetermined" for r in results):
        return 2
    return 0

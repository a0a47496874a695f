"""Sparse multivariate Laurent series on explicit exponent windows.

A :class:`TruncatedSeries` stores finitely many coefficients together with

* a per-variable *window* ``[lo, hi]`` (``lo`` may be ``-inf``, ``hi`` may be
  ``+inf``): every true coefficient whose exponent vector lies in the window
  box is known exactly (stored iff nonzero); outside the box nothing is
  claimed;
* per-variable *support bounds* ``[slo, shi]``: certified bounds on the true
  support of the represented object, independent of the window (``-inf``/
  ``+inf`` when unknown, ``+inf``/``-inf`` sentinels for the zero series);
* an optional *region tag*, an ordered tuple of variable names recording
  which iota-expansion produced the series (outermost first; the last
  variable has globally lower-truncated exponents).

Every arithmetic operation computes the largest output window on which all
contributing input coefficients are certified.  Addition of two differently
tagged expansions is refused (that difference is delta-term territory and
must be requested explicitly via :meth:`TruncatedSeries.untagged`).

Coefficients ("payloads") may be exact scalars or module vectors; they only
need ``+``, unary ``-``, scalar multiplication, equality and truthiness.

The constructor drops zero coefficients and coefficients outside the window.
Every operation below relies on this: it accumulates into a plain dict and
leaves cancelled and out-of-window entries for the constructor to discard.

A scalar that multiplies every cell is folded into the pass that already
visits the cells, not applied in a separate scaled copy:
:meth:`TruncatedSeries.add_scaled` adds c * other in one pass (``+`` and
``-`` are its c = 1 and c = -1, which need no multiply), and
:func:`subst_exp`'s ``scale`` goes into its per-exponent weights.
``scaled(1)`` is the series itself, since series are never changed after
construction.

The product, :func:`subst_exp`, :func:`subst_log1p` and :func:`divide_linear`
accumulate with one rule instead: they group the contributing (factor,
factor) pairs by output exponent and sum each group once (:func:`_dot`).  A
group of vector payloads goes through the vector's ``lincomb``, which sums
into one dict and skips the multiply for unit coefficients, instead of
building a scaled vector per pair and copying a dict per addition; scalars get
a plain sum.  Payloads are told apart by duck typing (a ``lincomb``
attribute), so this module need not import the Fock layer.

Rational functions of a ratio y = v1/v2 (:class:`FactoredRational`) are
expanded in one direction only, ascending powers of y, one binomial series per
factor (``_factor_asc``).  The descending expansion of f(y) is the ascending
expansion of f(1/u) in u = 1/y, read back with y^t = u^-t; the exact
coefficients of a Laurent polynomial and the Taylor factors of
:func:`partial_fractions` are ascending expansions too.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .scalars import RatFunc, power

NEG_INF = float("-inf")
INF = float("inf")


class RegionMismatch(ValueError):
    """Two differently tagged expansions were combined without untagging."""


class InsufficientWindow(ValueError):
    """The certified window is too small to perform the requested check."""


class UnboundedExponent(InsufficientWindow):
    """A substitution needs coefficients beyond any certified support bound."""


class NonzeroConstantTerm(ValueError):
    """exp() of a series whose constant term is nonzero or uncertified."""


class OutsideWindow(LookupError):
    """Coefficient requested outside the certified window."""


def binom(n: int, i: int) -> Fraction:
    """Binomial coefficient C(n, i) for n in Z, i >= 0."""
    if i < 0:
        raise ValueError("lower index must be nonnegative")
    num = 1
    for j in range(i):
        num *= n - j
    den = 1
    for j in range(2, i + 1):
        den *= j
    return Fraction(num, den)


# -- window interval helpers -------------------------------------------------


def _isect(a: tuple, b: tuple) -> tuple:
    return (max(a[0], b[0]), min(a[1], b[1]))


def _support_add_lo(a, b):
    # +inf marks the zero series and dominates; then any unknown (-inf) wins.
    if a == INF or b == INF:
        return INF
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return a + b


def _support_add_hi(a, b):
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    if a == INF or b == INF:
        return INF
    return a + b


def _mul_interval(awin, asup, bwin, bsup) -> tuple:
    """Certified window of a product in one variable.

    A decomposition e = i + j contributes unknown data unless i lies in A's
    window and j in B's; possible i are confined to A's support bounds
    intersected with e - (B's support bounds).
    """
    alo, ahi = awin
    aslo, ashi = asup
    blo, bhi = bwin
    bslo, bshi = bsup
    lows = []
    if not aslo >= alo:
        lows.append(INF if bshi == INF else (NEG_INF if bshi == NEG_INF else alo + bshi))
    if not bslo >= blo:
        lows.append(INF if ashi == INF else (NEG_INF if ashi == NEG_INF else blo + ashi))
    highs = []
    if not ashi <= ahi:
        highs.append(NEG_INF if bslo == NEG_INF else (INF if bslo == INF else ahi + bslo))
    if not bshi <= bhi:
        highs.append(NEG_INF if aslo == NEG_INF else (INF if aslo == INF else bhi + aslo))
    return (max(lows, default=NEG_INF), min(highs, default=INF))


class TruncatedSeries:
    """Windowed sparse Laurent series; see the module docstring."""

    __slots__ = ("vars", "coeffs", "window", "support", "region")

    def __init__(self, vars, coeffs, window, support, region=None):
        self.vars = tuple(vars)
        self.window = {v: tuple(window.get(v, (NEG_INF, INF))) for v in self.vars}
        self.support = {v: tuple(support.get(v, (NEG_INF, INF))) for v in self.vars}
        bounds = [self.window[v] for v in self.vars]
        if all(w == (NEG_INF, INF) for w in bounds):
            bounds = []  # nothing to cut
        keep = {}
        for e, c in coeffs.items():
            if not c:
                continue
            for x, (lo, hi) in zip(e, bounds):
                if not lo <= x <= hi:
                    break
            else:
                keep[e] = c
        self.coeffs = keep
        self.region = tuple(region) if region else None

    # -- constructors --------------------------------------------------------

    @classmethod
    def exact(cls, vars, terms, region=None) -> "TruncatedSeries":
        """A Laurent polynomial: fully known everywhere."""
        vars = tuple(vars)
        coeffs = {tuple(e): c for e, c in terms.items() if c}
        support = {}
        for i, v in enumerate(vars):
            exps = [e[i] for e in coeffs]
            support[v] = (min(exps), max(exps)) if exps else (INF, NEG_INF)
        window = {v: (NEG_INF, INF) for v in vars}
        return cls(vars, coeffs, window, support, region)

    # -- bookkeeping ----------------------------------------------------------

    def is_zero_series(self) -> bool:
        return not self.coeffs

    def win(self, v) -> tuple:
        return self.window.get(v, (NEG_INF, INF))

    def sup(self, v) -> tuple:
        if v in self.support:
            return self.support[v]
        return (0, 0)  # absent variable appears only with exponent 0

    def _aligned(self, vars):
        """Coefficient dict re-indexed on a superset variable tuple (read only)."""
        if vars == self.vars:
            return self.coeffs
        idx = [self.vars.index(v) if v in self.vars else None for v in vars]
        out = {}
        for e, c in self.coeffs.items():
            out[tuple(e[i] if i is not None else 0 for i in idx)] = c
        return out

    def get(self, **exps):
        """Certified coefficient at the given exponents (0 where omitted)."""
        key = []
        for i, v in enumerate(self.vars):
            x = exps.pop(v, 0)
            lo, hi = self.window[v]
            if not lo <= x <= hi:
                raise OutsideWindow(f"{v}^{x} outside certified window {self.window[v]}")
            key.append(x)
        for v, x in exps.items():
            if x != 0:
                return 0
        return self.coeffs.get(tuple(key), 0)

    def support_min(self, v):
        i = self.vars.index(v)
        return min((e[i] for e in self.coeffs), default=INF)

    def support_max(self, v):
        i = self.vars.index(v)
        return max((e[i] for e in self.coeffs), default=NEG_INF)

    def untagged(self) -> "TruncatedSeries":
        if self.region is None:
            return self
        return TruncatedSeries(self.vars, self.coeffs, self.window, self.support, None)

    def restricted(self, limits: dict) -> "TruncatedSeries":
        """Shrink the window (limits: var -> (lo, hi))."""
        window = dict(self.window)
        for v, iv in limits.items():
            if v in window:
                window[v] = _isect(window[v], tuple(iv))
        return TruncatedSeries(self.vars, self.coeffs, window, self.support, self.region)

    def assert_support_floor(self, floors: dict) -> "TruncatedSeries":
        """Declare certified lower support bounds (var -> slo).

        Cells below a declared floor become known zeros, so the window opens
        to -inf there.  This is the explicit bridge from a window-certified
        quadrant verdict to a structural claim; callers record the window the
        verdict was obtained on.
        """
        window = dict(self.window)
        support = dict(self.support)
        for v, f in floors.items():
            i = self.vars.index(v)
            if any(e[i] < f for e in self.coeffs):
                raise ValueError(f"stored coefficients contradict the asserted {v}-floor {f}")
            slo, shi = support.get(v, (NEG_INF, INF))
            support[v] = (max(slo, f), shi)
            window[v] = (NEG_INF, window[v][1])
        return TruncatedSeries(self.vars, self.coeffs, window, support, self.region)

    # -- ring operations ------------------------------------------------------

    def _combine_region(self, other):
        if self.region is None:
            return other.region
        if other.region is None or self.region == other.region:
            return self.region
        raise RegionMismatch(
            f"cannot combine expansions tagged {self.region} and {other.region}; "
            "untag explicitly for coefficient-wise defect arithmetic"
        )

    def add_scaled(self, other: "TruncatedSeries", c) -> "TruncatedSeries":
        """self + c * other in one pass over other's cells: c = 1 adds and
        c = -1 subtracts without a multiply.  Windows, support bounds and
        region tags combine as for ``+`` (c * other has other's window, and
        its support unless c is 0)."""
        if not c:
            other, c = other.scaled(0), 1
        region = self._combine_region(other)
        vars = tuple(sorted(set(self.vars) | set(other.vars)))
        a, b = self._aligned(vars), other._aligned(vars)
        window, support = {}, {}
        for v in vars:
            window[v] = _isect(self.win(v), other.win(v))
            sa, sb = self.sup(v), other.sup(v)
            support[v] = (min(sa[0], sb[0]), max(sa[1], sb[1]))
        out = dict(a)
        if c == 1:
            for e, x in b.items():
                out[e] = out.get(e, 0) + x
        elif c == -1:
            for e, x in b.items():
                out[e] = out.get(e, 0) - x
        else:
            for e, x in b.items():
                out[e] = out.get(e, 0) + c * x
        return TruncatedSeries(vars, out, window, support, region)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.add_scaled(other, 1)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.vars, {e: -c for e, c in self.coeffs.items()}, self.window, self.support, self.region
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.add_scaled(other, -1)

    def scaled(self, c) -> "TruncatedSeries":
        if c == 1:
            return self
        if not c:
            z = {v: (INF, NEG_INF) for v in self.vars}
            return TruncatedSeries(self.vars, {}, self.window, z, self.region)
        return TruncatedSeries(
            self.vars,
            {e: c * x for e, x in self.coeffs.items()},
            self.window,
            self.support,
            self.region,
        )

    def shifted(self, **shifts) -> "TruncatedSeries":
        """Multiply by a monomial: exponents, window and support all shift."""
        vars = tuple(sorted(set(self.vars) | set(shifts)))
        coeffs = self._aligned(vars)
        window, support = {}, {}
        for v in vars:
            d = shifts.get(v, 0)
            lo, hi = self.win(v)
            slo, shi = self.sup(v)
            window[v] = (lo + d, hi + d)
            support[v] = (slo + d, shi + d)
        out = {}
        for e, c in coeffs.items():
            out[tuple(x + shifts.get(v, 0) for x, v in zip(e, vars))] = c
        return TruncatedSeries(vars, out, window, support, self.region)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        region = self._combine_region(other)
        vars = tuple(sorted(set(self.vars) | set(other.vars)))
        a, b = self._aligned(vars), other._aligned(vars)
        window, support = {}, {}
        for v in vars:
            window[v] = _mul_interval(self.win(v), self.sup(v), other.win(v), other.sup(v))
            sa, sb = self.sup(v), other.sup(v)
            support[v] = (_support_add_lo(sa[0], sb[0]), _support_add_hi(sa[1], sb[1]))
        bounds = [window[v] for v in vars]
        groups: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                for x, (lo, hi) in zip(e, bounds):
                    if not lo <= x <= hi:
                        break
                else:
                    groups.setdefault(e, []).append((ca, cb))
        return TruncatedSeries(
            vars, {e: _dot(pairs) for e, pairs in groups.items()}, window, support, region
        )

    # -- comparisons ----------------------------------------------------------

    def eq_on_common(self, other: "TruncatedSeries"):
        """Compare on the intersected window; return (bool, counterexample)."""
        vars = tuple(sorted(set(self.vars) | set(other.vars)))
        win = {v: _isect(self.win(v), other.win(v)) for v in vars}
        a, b = self._aligned(vars), other._aligned(vars)
        for e in sorted(set(a) | set(b)):
            if all(win[v][0] <= x <= win[v][1] for x, v in zip(e, vars)):
                ca, cb = a.get(e, 0), b.get(e, 0)
                if ca != cb:
                    return False, (dict(zip(vars, e)), ca, cb)
        return True, None

    def is_zero_on_window(self):
        """(bool, counterexample-or-None) over the certified window."""
        for e in sorted(self.coeffs):
            return False, (dict(zip(self.vars, e)), self.coeffs[e])
        return True, None

    def window_str(self) -> str:
        parts = []
        for v in self.vars:
            lo, hi = self.window[v]
            parts.append(f"{v}:[{lo},{hi}]")
        return " ".join(parts)

    def __repr__(self):
        n = len(self.coeffs)
        return f"TruncatedSeries({','.join(self.vars)}; {n} terms; {self.window_str()})"


def _dot(pairs):
    """Sum of ca * cb over the (ca, cb) pairs of one output cell.

    A vector payload (one with a ``lincomb`` classmethod, such as a Fock
    vector) is summed by its ``lincomb`` into one dict; scalars by a plain sum.
    At most one factor of a pair is a vector, and a series holds one kind of
    payload, so the first pair tells which.  A lone pair is its product.
    """
    ca, cb = pairs[0]
    if len(pairs) == 1:
        return ca * cb
    lincomb = getattr(cb, "lincomb", None)
    if lincomb is not None:
        return lincomb(pairs)
    lincomb = getattr(ca, "lincomb", None)
    if lincomb is not None:
        return lincomb([(y, x) for x, y in pairs])
    acc = ca * cb
    for ca, cb in pairs[1:]:
        acc = acc + ca * cb
    return acc


# -- one-variable series kernels (dicts exp -> scalar, exact arithmetic) -----


def mul_trunc_1v(a: dict, b: dict, hi, lo=NEG_INF) -> dict:
    """Product of two coefficient dicts, keeping the exponents in [lo, hi]."""
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            if lo <= i + j <= hi:
                out[i + j] = out.get(i + j, 0) + ca * cb
    return {t: c for t, c in out.items() if c}


def invert_unit_1v(u: dict, order: int) -> dict:
    """Inverse of a series with nonzero constant term, to the given order."""
    u0 = u.get(0, 0)
    if not u0:
        raise ZeroDivisionError("series has no constant term")
    inv0 = power(u0, -1)
    out = {0: inv0}
    for n in range(1, order + 1):
        acc = 0
        for k, uk in u.items():
            if 1 <= k <= n:
                acc = acc + uk * out.get(n - k, 0)
        if acc:
            out[n] = -inv0 * acc
    return out


def pow_unit_1v(u: dict, m: int, order: int) -> dict:
    if m < 0:
        u = invert_unit_1v(u, order)
        m = -m
    out = {0: Fraction(1)}
    base = dict(u)
    while m:
        if m & 1:
            out = mul_trunc_1v(out, base, order)
        base = mul_trunc_1v(base, base, order)
        m >>= 1
    return out


def exp_1v(g: dict, order: int) -> dict:
    """exp of a series with only positive exponents, to the given order."""
    out = {0: Fraction(1)}
    for n in range(1, order + 1):
        acc = 0
        for k, gk in g.items():
            if 1 <= k <= n:
                acc = acc + k * gk * out.get(n - k, 0)
        if acc:
            out[n] = acc / n if isinstance(acc, Fraction) else acc * Fraction(1, n)
    return out


def exp_z_dict(scale, order: int) -> dict:
    """e**(scale*z) as a dict, scale an integer or exact scalar."""
    out = {}
    fact = 1
    pw = 1
    for k in range(order + 1):
        if k:
            fact *= k
            pw = pw * scale
        c = pw * Fraction(1, fact)
        if c:
            out[k] = c
    return out


def log1p_dict(order: int) -> dict:
    return {n: Fraction((-1) ** (n - 1), n) for n in range(1, order + 1)}


def _one_var_series(d: dict, var: str, hi, slo=NEG_INF) -> TruncatedSeries:
    return TruncatedSeries(
        (var,), {(e,): c for e, c in d.items()}, {var: (NEG_INF, hi)}, {var: (slo, INF)}
    )


def log_series(order: int) -> TruncatedSeries:
    """log(1+z) = z - z^2/2 + z^3/3 - ... truncated at z**order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _one_var_series(log1p_dict(order), "z", order, slo=1)


def exp_of_series(g: TruncatedSeries, order: int) -> TruncatedSeries:
    """Exponential of a series with only positive exponents of its variable."""
    if len(g.vars) != 1:
        raise ValueError("exp_of_series expects a one-variable series")
    (v,) = g.vars
    lo, hi = g.win(v)
    if lo > 0:
        raise NonzeroConstantTerm("constant term of the exponent is not certified")
    if g.support_min(v) < 1 or any(e[0] < 1 for e in g.coeffs):
        raise NonzeroConstantTerm("exponent series has terms of degree < 1")
    order = int(min(order, hi))
    d = {e[0]: c for e, c in g.coeffs.items() if e[0] <= order}
    return _one_var_series(exp_1v(d, order), v, order, slo=0)


# -- factored rational functions ----------------------------------------------


class FactoredRational:
    """c * y**m * prod (y - root)**mult in one designated ratio variable.

    Roots are pairwise distinct nonzero exact scalars; multiplicities are
    nonzero integers (negative for denominator factors).  This is the only
    rational-function input format: roots are always given, never computed.
    Coefficients come from the ascending expansion around y = 0 alone: the
    descending one (around y = oo) is the ascending expansion of
    ``reciprocal_arg()``.
    """

    __slots__ = ("const", "mexp", "factors")

    def __init__(self, const, mexp: int = 0, factors=()):
        if not const:
            raise ValueError("zero constant; the zero function is not a FactoredRational")
        merged: dict = {}
        for root, mult in factors:
            if not root:
                raise ValueError("roots must be nonzero (use the monomial exponent)")
            # equal int, Fraction, Dyadic and RatFunc roots hash alike: the first is kept
            merged[root] = merged.get(root, 0) + mult
        self.const = const
        self.mexp = int(mexp)
        self.factors = tuple(
            (r, m) for r, m in sorted(merged.items(), key=lambda it: _root_key(it[0])) if m
        )

    def __mul__(self, other: "FactoredRational") -> "FactoredRational":
        return FactoredRational(
            self.const * other.const, self.mexp + other.mexp, self.factors + other.factors
        )

    def __pow__(self, n: int) -> "FactoredRational":
        return FactoredRational(
            power(self.const, n), self.mexp * n, tuple((r, m * n) for r, m in self.factors)
        )

    def roots(self):
        return tuple(r for r, _ in self.factors)

    def order_at(self, root) -> int:
        for r, m in self.factors:
            if r == root:
                return m
        return 0

    def value_at(self, y):
        out = self.const * power(y, self.mexp)
        for r, m in self.factors:
            out = out * power(y - r, m)
        return out

    def shifted_value_at(self, root):
        """Leading Taylor coefficient at ``root``: (f/(y-root)**k)(root)."""
        out = self.const * power(root, self.mexp)
        for r, m in self.factors:
            if r != root:
                out = out * power(root - r, m)
        return out

    def scale_arg(self, c) -> "FactoredRational":
        """f(c*y) as a FactoredRational in y."""
        total = self.mexp + sum(m for _, m in self.factors)
        const = self.const * power(c, total)
        return FactoredRational(
            const, self.mexp, tuple((r * power(c, -1), m) for r, m in self.factors)
        )

    def reciprocal_arg(self) -> "FactoredRational":
        """f(1/y) as a FactoredRational in y."""
        const = self.const
        factors = []
        total = 0
        for r, m in self.factors:
            const = const * power(-r, m)
            factors.append((power(r, -1), m))
            total += m
        return FactoredRational(const, -self.mexp - total, tuple(factors))

    def is_laurent(self) -> bool:
        return all(m > 0 for _, m in self.factors)

    def ratio_coeffs_exact(self) -> dict:
        """Coefficient dict of a Laurent-polynomial ratio function: its
        ascending expansion up to the top degree mexp + sum of mults."""
        if not self.is_laurent():
            raise ValueError("not a Laurent polynomial in the ratio")
        return self.ratio_coeffs_ascending(self.mexp + sum(m for _, m in self.factors))

    def ratio_coeffs_ascending(self, thi: int) -> dict:
        """Coefficients of the ascending (around 0) expansion up to y**thi."""
        span = int(thi - self.mexp)
        d = {self.mexp: self.const}
        for r, m in self.factors:
            d = mul_trunc_1v(d, _factor_asc(r, m, max(span, 0)), thi)
        return d

    def exp_arg_dict(self, order: int) -> tuple[int, dict]:
        """f(e**z) as z**k * unit: returns (k, unit coefficients to order)."""
        k = 0
        unit = exp_z_dict(self.mexp, order)
        unit = {e: self.const * c for e, c in unit.items()}
        ez = exp_z_dict(1, order)
        # (e^z - 1)/z, a unit: its z^order term comes from z^(order+1) of e^z
        h = {e - 1: c for e, c in exp_z_dict(1, order + 1).items() if e >= 1}
        for r, m in self.factors:
            if r == 1:
                k += m
                unit = mul_trunc_1v(unit, pow_unit_1v(h, m, order), order)
            else:
                f = dict(ez)
                f[0] = f.get(0, 0) - r
                unit = mul_trunc_1v(unit, pow_unit_1v(f, m, order), order)
        return k, unit

    def ratio_series(self, v1: str, v2: str, region, limits: dict) -> TruncatedSeries:
        """Expansion of f(v1/v2) in the given region, on a window.

        region (v1, v2): descending powers of the ratio (|v1| > |v2|);
        region (v2, v1): ascending powers (|v2| > |v1|).  The descending
        expansion of f(y) is the ascending expansion of f(1/u) in u = 1/y.
        """
        region = tuple(region)
        if region not in ((v1, v2), (v2, v1)):
            raise ValueError(f"region {region} does not name the pair ({v1}, {v2})")
        if self.is_laurent():
            # a Laurent polynomial in the ratio: the expansion is exact and
            # region-independent
            return TruncatedSeries.exact(*ratio_cells(self.ratio_coeffs_exact(), v1, v2), region)
        lo1, hi1 = limits.get(v1, (NEG_INF, INF))
        lo2, hi2 = limits.get(v2, (NEG_INF, INF))
        # exponent of the ratio: t -> v1^t v2^-t
        if region == (v1, v2):
            tmax = self.mexp + sum(m for _, m in self.factors)
            tlo = max(lo1, -hi2)
            if tlo == NEG_INF:
                raise InsufficientWindow(
                    "descending expansion needs a finite floor; "
                    f"limits {v1}:{(lo1, hi1)} {v2}:{(lo2, hi2)}"
                )
            u = self.reciprocal_arg().ratio_coeffs_ascending(-tlo)
            d = {-s: c for s, c in u.items()}
            window = {v1: (tlo, INF), v2: (NEG_INF, INF)}
            support = {v1: (NEG_INF, tmax), v2: (-tmax, INF)}
        else:
            thi = min(hi1, -lo2)
            if thi == INF:
                raise InsufficientWindow(
                    "ascending expansion needs a finite ceiling; "
                    f"limits {v1}:{(lo1, hi1)} {v2}:{(lo2, hi2)}"
                )
            d = self.ratio_coeffs_ascending(thi)
            window = {v1: (NEG_INF, thi), v2: (-thi, INF)}
            support = {v1: (self.mexp, INF), v2: (NEG_INF, -self.mexp)}
        return TruncatedSeries(*ratio_cells(d, v1, v2), window, support, region)

    def render(self) -> str:
        parts = []
        if self.const != 1 or (not self.factors and not self.mexp):
            parts.append(f"({self.const})" if isinstance(self.const, RatFunc) else str(self.const))
        if self.mexp:
            parts.append(f"y^{self.mexp}")
        for r, m in self.factors:
            sign, root = ("-", r) if _root_positive(r) else ("+", -r)
            base = f"(y {sign} {_root_term(root)})"
            parts.append(base + (f"^{m}" if m != 1 else ""))
        return "*".join(parts) or "1"

    def __repr__(self):
        return f"FactoredRational({self.render()})"

    def __eq__(self, other):
        return (
            isinstance(other, FactoredRational)
            and self.const == other.const
            and self.mexp == other.mexp
            and self.factors == other.factors
        )


def _root_key(r):
    return repr(r)


def _root_positive(r) -> bool:
    """Sign of a root for rendering; a Q(p) root takes the sign of its
    numerator's leading coefficient (its denominator is monic)."""
    if isinstance(r, RatFunc):
        return r.num.coeffs[-1] > 0
    return r >= 0


def _root_term(r) -> str:
    """A root rendered as one term: a Q(p) root that is a polynomial of
    several terms, such as p - 1, goes in parentheses."""
    s = str(r)
    if isinstance(r, RatFunc) and r.den.degree() == 0 and sum(1 for c in r.num.coeffs if c) > 1:
        return f"({s})"
    return s


def _factor_asc(root, mult: int, span: int) -> dict:
    """(y-root)**mult ascending: sum_i C(mult,i) (-root)^(mult-i) y^i for i in
    [0, span], and i <= mult when mult > 0 (the binomial vanishes beyond)."""
    top = min(span, mult) if mult > 0 else span
    neg = -root
    pw = power(neg, mult - top)
    out = {}
    for i in range(top, -1, -1):
        c = binom(mult, i) * pw
        if c:
            out[i] = c
        if i:
            pw = pw * neg
    return out


def ratio_cells(d: dict, v1: str, v2: str) -> tuple:
    """(vars, cells) of sum_t d[t] (v1/v2)**t: the cell v1^t v2^-t, with the
    variables in sorted order."""
    if v1 < v2:
        return (v1, v2), {(t, -t): c for t, c in d.items()}
    return (v2, v1), {(-t, t): c for t, c in d.items()}


# -- the iota / binomial expansion operations ---------------------------------


def binom_expand(n: int, v1: str, v2: str, region, limits: dict) -> TruncatedSeries:
    """(v1 - v2)**n expanded in the given region, nonnegative powers of the
    inner variable: region (v1, v2) gives sum_i C(n,i)(-1)^i v1^(n-i) v2^i.
    """
    f = FactoredRational(Fraction(1), 0, ((Fraction(1), n),))
    s = f.ratio_series(v1, v2, region, _shift_limits(limits, v2, -n))
    return s.shifted(**{v2: n})


def _shift_limits(limits: dict, v: str, d: int) -> dict:
    out = {k: tuple(iv) for k, iv in limits.items()}
    if v in out:
        lo, hi = out[v]
        out[v] = (lo + d, hi + d)
    return out


def iota_expand(f: FactoredRational, v1: str, v2: str, region, limits: dict) -> TruncatedSeries:
    """Expansion of f(v1/v2) in the region; multiplicative across factors."""
    return f.ratio_series(v1, v2, region, limits)


def _support_floor(s: TruncatedSeries, v: str):
    """Certified lower support bound of s in v: the declared bound, else the
    lowest stored exponent when the window is open below in v and every other
    variable's window is unbounded, so that every nonzero cell under v's window
    top is stored (hi + 1 when none is).  Unknown, it is -inf."""
    slo = s.sup(v)[0]
    lo, hi = s.win(v)
    if slo == NEG_INF and lo == NEG_INF and all(
        s.win(u) == (NEG_INF, INF) for u in s.vars if u != v
    ):
        slo = min(s.support_min(v), hi + 1)
    return slo


def _no_floor(s: TruncatedSeries, v: str, what: str) -> UnboundedExponent:
    return UnboundedExponent(f"{what} needs a certified {v} floor, window {s.window_str()}")


def subst_exp(
    s: TruncatedSeries, var: str, target: str, zvar: str, zorder: int, scale=1
) -> TruncatedSeries:
    """Substitute var = scale * target * e**zvar, exact to z-order ``zorder``.

    Each monomial var^m maps to scale^m * target^m * sum_k (m*zvar)^k / k!;
    scale^m goes into the per-m weights, so each cell is multiplied once.
    With a nonzero scale the result equals ``subst_exp(var_scaled(s, var,
    scale), ...)``, windows and support bounds included.

    When ``target`` is already a variable of ``s`` the substitution folds var
    into it: the cell target^e sums s[var^m, target^(e-m)] over var's support.
    The one certification rule for such a fold is a product's in one exponent
    (:func:`_mul_interval`): e <= hi_target + floor_var when target's support
    passes target's window top, e <= hi_var + floor_target when var's passes
    var's, and a floor under its window's bottom raises the result's bottom.
    Each floor it reads must be certified (:func:`_support_floor`).
    """
    if zvar in s.vars or target == zvar or var == zvar:
        raise ValueError("z-variable must be fresh")
    if var not in s.vars:
        raise ValueError(f"{var} is not a variable of the series")
    if not scale:
        raise ValueError("scale must be nonzero")
    if target in s.vars and target != var:
        (lo, hi), (lo2, hi2) = s.win(var), s.win(target)
        (slo, shi), (slo2, shi2) = ((_support_floor(s, v), s.sup(v)[1]) for v in (var, target))
        reads = ((var, slo, shi2 > hi2 or lo > NEG_INF), (target, slo2, shi > hi or lo2 > NEG_INF))
        for v, f, read in reads:  # whether _mul_interval reads v's floor
            if read and f == NEG_INF:
                raise _no_floor(s, v, "diagonal substitution")
        target_win = _mul_interval((lo, hi), (slo, shi), (lo2, hi2), (slo2, shi2))
        target_sup = (_support_add_lo(slo, slo2), _support_add_hi(shi, shi2))
    else:
        target_win, target_sup = s.win(var), s.sup(var)
    vi = s.vars.index(var)
    out_vars = tuple(sorted(set(s.vars) - {var} | {target, zvar}))
    # an output key: the cell's exponents at src, target's raised by m, z's at zi
    zi = out_vars.index(zvar)
    rest = out_vars[:zi] + out_vars[zi + 1 :]
    src = [s.vars.index(v) if v in s.vars and v != var else None for v in rest]
    ti = rest.index(target)
    exps: dict = {}  # m -> scale**m * e**(m z), shared by the cells with var-exponent m
    groups: dict = {}
    for e, c in s.coeffs.items():
        m = e[vi]
        key = [0 if i is None else e[i] for i in src]
        key[ti] += m
        if key[ti] > target_win[1]:
            continue
        ez = exps.get(m)
        if ez is None:
            ez = exp_z_dict(m, zorder)
            if scale != 1 and m:
                pw = power(scale, m)
                ez = {k: pw * w for k, w in ez.items()}
            exps[m] = ez
        pre, post = tuple(key[:zi]), tuple(key[zi:])
        for k, w in ez.items():
            groups.setdefault(pre + (k,) + post, []).append((w, c))
    coeffs = {t: _dot(pairs) for t, pairs in groups.items()}
    window = {v: s.win(v) for v in s.vars if v not in (var, target)}
    support = {v: s.sup(v) for v in s.vars if v not in (var, target)}
    window[target], support[target] = target_win, target_sup
    window[zvar], support[zvar] = (NEG_INF, zorder), (0, INF)
    return TruncatedSeries(out_vars, coeffs, window, support)


def subst_log1p(s: TruncatedSeries, var: str, zvar: str, zorder: int) -> TruncatedSeries:
    """Substitute var = log(1+zvar), exact to z-order ``zorder``.

    Requires finitely many certified var-exponents (log(1+z))^m = z^m * unit^m.
    """
    if var not in s.vars:
        raise ValueError(f"{var} is not a variable of the series")
    lo, hi = s.win(var)
    if lo != NEG_INF:
        raise UnboundedExponent(f"coefficients of {var} below {lo} are uncertified")
    vi = s.vars.index(var)
    unit = {e - 1: c for e, c in log1p_dict(zorder + 1).items()}
    powers: dict[int, dict] = {}
    out_vars = tuple(sorted(set(s.vars) - {var} | {zvar}))
    groups: dict = {}
    for e, c in s.coeffs.items():
        m = e[vi]
        if m not in powers:
            powers[m] = pow_unit_1v(unit, m, zorder - min(m, 0))
        key = {v: x for v, x in zip(s.vars, e) if v != var}
        for k, w in powers[m].items():
            if k + m > zorder:
                continue
            key[zvar] = k + m
            groups.setdefault(tuple(key[v] for v in out_vars), []).append((w, c))
    coeffs = {t: _dot(pairs) for t, pairs in groups.items()}
    window = {v: s.win(v) for v in s.vars if v != var}
    support = {v: s.sup(v) for v in s.vars if v != var}
    window[zvar] = (NEG_INF, min(zorder, hi))
    support[zvar] = (s.sup(var)[0], INF)
    return TruncatedSeries(out_vars, coeffs, window, support)


def diagonal_collapse(s: TruncatedSeries, var: str, target: str, lam=1) -> TruncatedSeries:
    """Substitute var = lam * target into a two-direction series.

    Output coefficient at target^e is sum_i lam^i * s[var^i, target^(e-i)]:
    the z^0 slice of :func:`subst_exp` with scale lam, certified by its rule.
    """
    if var == target or not lam or not {var, target} <= set(s.vars):
        raise ValueError(f"diagonal evaluation {var} = ({lam})*{target} needs distinct "
                         f"variables of {s.vars} and a nonzero scale")
    out = subst_exp(s, var, target, "\0z", 0, scale=lam)  # no caller names "\0z"; it sorts first
    coeffs = {e[1:]: c for e, c in out.coeffs.items()}
    return TruncatedSeries(out.vars[1:], coeffs, out.window, out.support)


def var_scaled(s: TruncatedSeries, var: str, c) -> TruncatedSeries:
    """Substitute var -> c * var: the cell at var-exponent i picks up c**i.

    Windows and support bounds are unchanged (c is a nonzero scalar).
    """
    if var not in s.vars:
        return s
    if not c:
        raise ValueError("scale must be nonzero")
    if c == 1:
        return s
    scales = tuple(c if v == var else 1 for v in s.vars)
    return TruncatedSeries(s.vars, scaled_cells(s.coeffs, scales), s.window, s.support, s.region)


def scaled_cells(coeffs: dict, scales) -> dict:
    """The cells rescaled by a character: the cell at exponents e is multiplied
    by prod_k scales[k]**e[k], each power computed once.  A scale of 1 leaves
    its variable alone; with every scale 1, ``coeffs`` itself is returned."""
    active = [(k, c, {}) for k, c in enumerate(scales) if c != 1]
    if not active:
        return coeffs
    out = {}
    for e, x in coeffs.items():
        f = None
        for k, c, powers in active:
            pw = powers.get(e[k])
            if pw is None:
                pw = powers[e[k]] = power(c, e[k])
            f = pw if f is None else f * pw
        out[e] = f * x
    return out


def divide_linear(d: TruncatedSeries, v1: str, v2: str, lam, hi2_cap=None) -> TruncatedSeries:
    """Exact quotient A with d = (v1 - lam*v2) * A on quadrant-supported data
    d, a series in exactly the variables v1 and v2.

    Unrolls A[a, j] = sum_{t>=0} lam^t d[a+t+1, j-t], terminating at the
    certified v2-support floor of d, and sums each cell once (:func:`_dot`);
    needs certified floors in both variables and finite window tops.
    ``hi2_cap`` trades v2-ceiling for v1-headroom: the quotient's v1 window
    shrinks by the v2 range actually kept.  A quotient cell at v1-exponent a
    reads d from v1-exponent a + 1 up, so a v1 window bottom lo1 above the
    floor cuts the quotient's v1 window to a >= lo1 - 1; every cell reads d
    down to the v2 floor, so the v2 window must reach it.  The caller is responsible for knowing the division is
    exact (validate by multiplying back where it matters).
    """
    if v1 == v2 or set(d.vars) != {v1, v2}:
        raise ValueError(f"division needs a series in exactly {v1} and {v2}, got {d.vars}")
    (lo1, hi1), (lo2, hi2) = d.win(v1), d.win(v2)
    if hi2_cap is not None and hi2_cap < hi2:
        hi2 = hi2_cap
    slo1, slo2 = (_support_floor(d, v) for v in (v1, v2))
    for v, f in ((v1, slo1), (v2, slo2)):
        if f == NEG_INF:
            raise _no_floor(d, v, "division")
    if slo2 == INF or slo1 == INF:  # zero series
        return TruncatedSeries(d.vars, {}, d.window, {v: (INF, NEG_INF) for v in d.vars}, None)
    if lo2 > slo2:
        raise InsufficientWindow(
            f"division reads {v2}^{slo2} cells below the {v2} window, window {d.window_str()}"
        )
    if lo1 > slo1 and hi2 == INF:
        # the stored cells miss v1-exponents slo1..lo1-1, so their v2 top
        # bounds nothing
        raise InsufficientWindow(
            f"division needs a finite {v2} top when the {v1} window starts above the "
            f"floor {slo1}, window {d.window_str()}"
        )
    a_lo = max(slo1, lo1 - 1)
    # beyond a fully known top the quotient is supported one step under the
    # input; an empty store has no cell at or above the floors
    top1, top2 = (d.support_max(v1), d.support_max(v2)) if d.coeffs else (slo1 - 1, slo2 - 1)
    enum_hi2 = top2 if hi2 == INF else hi2
    enum_hi1 = top1 - 1 if hi1 == INF else hi1
    depth = int(enum_hi2 - slo2 + 1)
    out_hi1 = hi1 - depth
    a_hi = enum_hi1 if hi1 == INF else out_hi1
    flip = d.vars[0] != v1  # keys are (v2, v1) exponents

    def at(x1, x2):
        return (x2, x1) if flip else (x1, x2)

    lams = [power(lam, t) for t in range(depth)]
    coeffs: dict = {}
    for j in range(int(slo2), int(enum_hi2) + 1):
        for a in range(int(a_lo), int(a_hi) + 1):
            pairs = []
            for t in range(j - int(slo2) + 1):
                cell = d.coeffs.get(at(a + t + 1, j - t))
                if cell is not None:
                    pairs.append((lams[t], cell))
            if pairs:
                coeffs[at(a, j)] = _dot(pairs)
    window = {v1: (a_lo if a_lo > slo1 else NEG_INF, out_hi1), v2: (NEG_INF, hi2)}
    support = {v1: (slo1, INF), v2: (slo2, INF)}
    return TruncatedSeries(d.vars, coeffs, window, support, None)


def partial_fractions(f: FactoredRational):
    """1/p(y) -> [(root, j, a)] with 1/p = sum a/(y-root)^j, j = 1..k per root.

    Requires a constant numerator: all multiplicities negative, no monomial
    part, pairwise distinct (guaranteed by construction) nonzero roots.
    """
    if f.mexp != 0:
        raise ValueError("monomial part not allowed in partial fractions")
    if not f.factors or any(m >= 0 for _, m in f.factors):
        raise ValueError("partial fractions need a constant numerator (all exponents < 0)")
    out = []
    for root, m in f.factors:
        k = -m
        # Taylor-expand c / prod_{other}(y-mu)^(k_mu) at y = root to order k-1
        taylor = {0: f.const}
        for mu, mm in f.factors:
            if mu != root:
                taylor = mul_trunc_1v(taylor, _factor_asc(mu - root, mm, k - 1), k - 1)
        for j in range(k, 0, -1):
            out.append((root, j, taylor.get(k - j, 0)))
    return out

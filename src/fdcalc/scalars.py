"""Exact coefficient fields: Q and the rational-function field Q(p).

Rationals are stdlib ``fractions.Fraction`` (exact, gcd-reduced, positive
denominator).  At a specialization point p0 whose numerator and denominator
are both powers of 2 up to sign (p0 = 2, -2, 1/2, 4, ...), every p0**n lies in
Z[1/2], and ``ScalarField`` builds its values as ``Dyadic``: a ``Fraction``
subclass whose invariant is a reduced denominator 2**k.  Sums, differences,
products and integer powers of dyadic operands reduce by stripping common
factors of 2 (``n & -n``) instead of taking a gcd, and stay ``Dyadic``.  An
operation whose result can leave Z[1/2] (division by an odd number, a
``Fraction`` such as 1/t! with an odd factor in its denominator) falls back to
``Fraction``'s own method and returns a plain ``Fraction``.  ``ScalarField``
is the only place that creates them (``zero``, ``one``, ``from_int``,
``p_power``, ``coerce``); every other p0 uses plain ``Fraction``.

``RatFunc`` implements Q(p), the field of rational functions in one formal
parameter ``p`` over Q.  At q = -1 the paper's denominators are powers of p
times cyclotomic polynomials Phi_n: characters give p^a - p^b =
p^b prod_{d | a-b} Phi_d, the f-coefficients divide by 1 + p^n and the
central term by 1 - p.  So a value is kept factored as
c * p^e * P / (prod Phi_n^k * r): a rational content c held as two ints, a
signed exponent e, a primitive integer polynomial P, the sorted cyclotomic
exponents of the denominator, and a residual primitive integer polynomial r
with no cyclotomic factor, which is 1 for every value the suites build (the
model is FLINT's ``fmpq_poly``: content times primitive integer part).  A
product adds exponents; a sum goes over the lcm of the denominators.  Both
cancel by exact integer division of P by the Phi_n the denominator carries,
so only a nontrivial r takes a gcd (``Poly.gcd``, Euclid over Q).  Moving a
numerator into the denominator (``inverse``, a negative power, the
constructor) splits off every Phi_n factor, so the form is canonical and
equality is syntactic.  Phi_n is built on first use.  ``num`` and ``den``
expand the value with a monic denominator, as ``render`` and reports read it.
``ScalarField`` selects between symbolic Q(p) work and evaluation at a
rational specialization point.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ZeroDenominator(ZeroDivisionError):
    """Denominator polynomial is identically zero."""


class PoleAtPoint(ZeroDivisionError):
    """Specialization point is a root of the denominator."""


class ZeroToNegativePower(ZeroDivisionError):
    """0**n requested with n < 0."""


def require_exact(x, name: str):
    """x itself, refusing a float or bool, whose Fraction would silently be its
    binary value (0.1 -> 3602879701896397/36028797018963968) or 0 / 1."""
    if isinstance(x, (float, bool)):
        raise ValueError(
            f"{name} must be exact (an int, a Fraction or a string such as '1/10'), got {x!r}"
        )
    return x


def exact_fraction(x, name: str) -> Fraction:
    """Fraction(x) for an exact x (see :func:`require_exact`), with a
    ValueError naming the value, not a stray ZeroDivisionError, for a string
    that is not a rational such as "abc" or "1/0"."""
    require_exact(x, name)
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{name} must be a rational, got {x!r}") from exc


class Dyadic(Fraction):
    """A rational in Z[1/2]: a ``Fraction`` whose reduced denominator is 2**k.

    Operands of ``+ - * / **`` count as dyadic when they are an ``int``, a
    ``Dyadic`` or a plain ``Fraction`` with a power-of-2 denominator (Python
    tries a subclass's reflected method first, so ``Fraction(1, 2) * d`` comes
    here too).  On dyadic operands the result is a ``Dyadic`` computed without
    a gcd: a product of two non-integers is already reduced (both numerators
    are odd), and otherwise the common factors of 2 are stripped with
    ``n & -n``.  Division needs a divisor ±2**j; a negative power needs a base
    ±2**j or 1/2**k.  Anything else falls back to ``Fraction``'s method and
    returns a plain ``Fraction``.  ``repr`` is ``Fraction``'s, so keys built
    from it do not depend on the subclass; the constructor (and so ``copy``
    and pickle, which go through it) refuses a value outside Z[1/2].
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        self = Fraction.__new__(cls, numerator, denominator)
        d = self._denominator
        if d & (d - 1):
            raise ValueError(f"{self} is not in Z[1/2]: its denominator is not a power of 2")
        return self

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    def __neg__(a):
        return _dy(-a._numerator, a._denominator)

    def __pow__(a, b):
        if type(b) is int:
            n, d = a._numerator, a._denominator
            if b >= 0:
                return _dy(n**b, d**b)
            m = -n if n < 0 else n
            if m and not m & (m - 1):
                # (n/d)**b = (±d/m)**-b, and d/m is reduced: one of them is 1
                return _dy((d if n > 0 else -d) ** -b, m**-b)
        return Fraction.__pow__(a, b)

    def __truediv__(a, b):
        nb, db = _dyadic_parts(b)
        m = -nb if nb < 0 else nb
        if not m or m & (m - 1):
            return Fraction.__truediv__(a, b)
        return _mul(a._numerator, a._denominator, db if nb > 0 else -db, m)

    def __rtruediv__(b, a):
        nb = b._numerator
        m = -nb if nb < 0 else nb
        na, da = _dyadic_parts(a)
        if not m or m & (m - 1) or not da:
            return Fraction.__rtruediv__(b, a)
        db = b._denominator
        return _mul(na, da, db if nb > 0 else -db, m)


_new = object.__new__


def _dy(n: int, d: int) -> Dyadic:
    """The Dyadic n/d, for n/d already in lowest terms with d = 2**k."""
    r = _new(Dyadic)
    r._numerator = n
    r._denominator = d
    return r


def _reduced(n: int, d: int) -> Dyadic:
    """The Dyadic n/d in lowest terms, for d = 2**k: strip the common 2s."""
    if d != 1:
        if not n:
            d = 1
        else:
            g = n & -n
            if g > 1:
                if g > d:
                    g = d
                n //= g
                d //= g
    r = _new(Dyadic)
    r._numerator = n
    r._denominator = d
    return r


def _dyadic_parts(x):
    """(numerator, denominator) of a dyadic operand, else (0, 0)."""
    t = type(x)
    if t is Dyadic:
        return x._numerator, x._denominator
    if t is int:
        return x, 1
    if t is Fraction:
        d = x._denominator
        if not d & (d - 1):
            return x._numerator, d
    return 0, 0


def _mul(na, da, nb, db):
    if da == 1 or db == 1:
        return _reduced(na * nb, da * db)
    return _dy(na * nb, da * db)


def _add(na, da, nb, db):
    if da == db:
        return _reduced(na + nb, da)
    # the larger denominator's numerator is odd, the shifted one even: reduced
    if da < db:
        return _dy(na * (db // da) + nb, db)
    return _dy(na + nb * (da // db), da)


def _sub(na, da, nb, db):
    return _add(na, da, -nb, db)


def _dyadic_operators(kernel, name):
    """Forward and reflected methods: ``kernel`` on dyadic operands, else
    ``Fraction``'s own method.  An operand that ``Fraction``'s operators do not
    take (anything but int, float, complex and Fraction), such as a module
    vector, gets NotImplemented at once, so Python moves on to its reflected
    method without ``Fraction``'s ABC instance checks."""
    forward_fallback = getattr(Fraction, f"__{name}__")
    reverse_fallback = getattr(Fraction, f"__r{name}__")

    def forward(a, b):
        t = type(b)
        if t is Dyadic:
            return kernel(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return kernel(a._numerator, a._denominator, b, 1)
        if t is Fraction:
            db = b._denominator
            if not db & (db - 1):
                return kernel(a._numerator, a._denominator, b._numerator, db)
        if isinstance(b, (int, float, complex)) or Fraction in t.__mro__:
            return forward_fallback(a, b)
        return NotImplemented

    def reverse(b, a):
        t = type(a)
        if t is int:
            return kernel(a, 1, b._numerator, b._denominator)
        if t is Fraction:
            da = a._denominator
            if not da & (da - 1):
                return kernel(a._numerator, da, b._numerator, b._denominator)
        return reverse_fallback(b, a)

    forward.__name__, reverse.__name__ = f"__{name}__", f"__r{name}__"
    return forward, reverse


Dyadic.__add__, Dyadic.__radd__ = _dyadic_operators(_add, "add")
Dyadic.__sub__, Dyadic.__rsub__ = _dyadic_operators(_sub, "sub")
Dyadic.__mul__, Dyadic.__rmul__ = _dyadic_operators(_mul, "mul")


def _is_dyadic_point(p0: Fraction) -> bool:
    """True when |numerator| and denominator of p0 are powers of 2, so every
    p0**n lies in Z[1/2]."""
    n = abs(p0.numerator)
    d = p0.denominator
    return not n & (n - 1) and not d & (d - 1)


def _dyadic_or_fraction(x) -> Fraction:
    """x as a Dyadic when its reduced denominator is a power of 2, else as a
    plain Fraction."""
    t = type(x)
    if t is Dyadic:
        return x
    if t is int:
        return _dy(x, 1)
    f = Fraction(x)
    d = f._denominator
    return f if d & (d - 1) else _dy(f._numerator, d)


class Poly:
    """Dense univariate polynomial over Q, coefficients ascending.

    The expanded form that ``RatFunc.num``/``den``, ``render``, ``specialize``
    and the residual gcd read; ``RatFunc`` computes on integer tuples.
    Invariant: ``coeffs`` is a tuple whose last entry is nonzero; an integral
    coefficient is an ``int``, any other a ``Fraction``.  The zero polynomial
    is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is int else _int_or_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return Fraction(self.coeffs[-1])

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def scale(self, c) -> "Poly":
        if c == 1:
            return self
        if c == 0:
            return Poly()
        return Poly(tuple(x * c for x in self.coeffs))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quo = [0] * (dq + 1)
        inv_lc = 1 / other.lc()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] * inv_lc
            quo[k] = c
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] -= c * oc
        return Poly(quo), Poly(rem)

    def monic(self) -> "Poly":
        if not self:
            return self
        return self.scale(1 / self.lc())

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd by the Euclidean algorithm (exact over Q)."""
        if not self:
            return other.monic()
        if not other:
            return self.monic()
        a, b = self, other
        while b:
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def eval_at(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(self.degree(), -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}p" + (f"^{e}" if e != 1 else ""))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self.render()})"


def _int_or_fraction(c):
    """A coefficient in stored form: int when integral, else Fraction."""
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# -- integer polynomials: tuples of int coefficients, ascending ---------------------------

_ONE = (1,)


def _imul(a, b):
    """The product of two integer polynomials."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(x * c for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for j, cb in enumerate(b):
        if cb:
            for i, ca in enumerate(a, j):
                out[i] += ca * cb
    return tuple(out)


def _divexact(a, b):
    """a / b when the integer polynomial b divides the nonzero a over Z, else None."""
    db = len(b) - 1
    nq = len(a) - db
    if nq <= 0:
        return None
    lb = b[-1]
    low = [(j, c) for j, c in enumerate(b[:db]) if c]
    rem = list(a)
    q = [0] * nq
    for k in range(nq - 1, -1, -1):
        c = rem[k + db]
        if c:
            if lb != 1:
                c, m = divmod(c, lb)
                if m:
                    return None
            q[k] = c
            for j, bc in low:
                rem[k + j] -= c * bc
    return None if any(rem[:db]) else tuple(q)


def _primitive(cs) -> tuple[int, tuple]:
    """(g, cs / g) for a nonzero integer polynomial: g is its content, signed
    so that cs / g has a positive leading coefficient."""
    g = math.gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return g, tuple(cs) if g == 1 else tuple(c // g for c in cs)


def _int_parts(cs) -> tuple[int, int, int, tuple]:
    """(n, d, v, a) with the nonzero rational polynomial cs = (n/d) * p^v * a in
    lowest terms, d > 0, a primitive with a(0) != 0 and a positive leading
    coefficient."""
    v = 0
    while not cs[v]:
        v += 1
    cs = cs[v:]
    m = math.lcm(*(c.denominator for c in cs))
    g, a = _primitive([c.numerator * (m // c.denominator) for c in cs])
    n, d = _q(g, m)
    return n, d, v, a


def _q(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms with a positive denominator."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return (n, d) if g == 1 else (n // g, d // g)


# -- the cyclotomic polynomials Phi_n, built on first use ---------------------------------

_CYCLOTOMIC: dict[int, tuple] = {}
_CANDIDATES: dict[int, tuple] = {}


def _cyclotomic(n: int) -> tuple:
    """Phi_n: p^n - 1 divided by Phi_d for each proper divisor d of n."""
    f = _CYCLOTOMIC.get(n)
    if f is None:
        f = (-1,) + (0,) * (n - 1) + (1,)
        for d in range(1, n // 2 + 1):
            if not n % d:
                f = _divexact(f, _cyclotomic(d))
        _CYCLOTOMIC[n] = f
    return f


def _candidates(deg: int) -> tuple:
    """(n, deg Phi_n) for every n with deg Phi_n = totient(n) <= deg, ascending."""
    c = _CANDIDATES.get(deg)
    if c is None:
        top = max(6, deg * deg)  # totient(n) >= sqrt(n) unless n is 2 or 6
        phi = list(range(top + 1))
        for i in range(2, top + 1):
            if phi[i] == i:
                for j in range(i, top + 1, i):
                    phi[j] -= phi[j] // i
        c = _CANDIDATES[deg] = tuple((n, phi[n]) for n in range(1, top + 1) if phi[n] <= deg)
    return c


def _divide_out(a, n: int, k: int):
    """Divide Phi_n out of a at most k times: (quotient, times divided)."""
    f = _cyclotomic(n)
    j = 0
    while j < k:
        q = _divexact(a, f)
        if q is None:
            break
        a, j = q, j + 1
    return a, j


def _split_cyclotomic(a) -> tuple[tuple, tuple]:
    """(phi, r) with a = prod Phi_n^k * r over (n, k) in phi and no Phi_n
    dividing r, for a primitive a with a(0) != 0."""
    phi = []
    for n, dn in _candidates(len(a) - 1):
        if dn < len(a):
            a, k = _divide_out(a, n, len(a))
            if k:
                phi.append((n, k))
    return tuple(phi), a


def _cancel_phi(a, phi: tuple):
    """Divide the numerator a by each Phi_n^k of the denominator phi as far as
    it goes: (a, what is left of phi)."""
    left = []
    for n, k in phi:
        a, j = _divide_out(a, n, k)
        if j < k:
            left.append((n, k - j))
    return a, tuple(left)


def _cancel_residual(a, r):
    """a and r divided by their gcd, for primitive a and r."""
    if len(a) == 1 or len(r) == 1:
        return a, r
    g = _int_parts(Poly(a).gcd(Poly(r)).coeffs)[3]
    return _divexact(a, g), _divexact(r, g)


def _lcm_residual(r, s):
    """(l, l / r, l / s) for l the least common multiple of primitive r and s."""
    g = _ONE if len(r) == 1 or len(s) == 1 else _int_parts(Poly(r).gcd(Poly(s)).coeffs)[3]
    mr, ms = _divexact(s, g), _divexact(r, g)
    return _imul(r, mr), mr, ms


def _expand(phi: tuple, a=_ONE):
    """a * prod Phi_n^k over (n, k) in phi."""
    for n, k in phi:
        f = _cyclotomic(n)
        for _ in range(k):
            a = _imul(a, f)
    return a


def _phi_merge(x: tuple, y: tuple, op) -> tuple:
    d = dict(x)
    for n, k in y:
        d[n] = op(d.get(n, 0), k)
    return tuple(sorted(d.items()))


def _lincomb(s: int, a, i: int, t: int, b, j: int) -> list:
    """s p^i a + t p^j b, without high zero coefficients."""
    out = [0] * max(len(a) + i, len(b) + j)
    for k, c in enumerate(a, i):
        out[k] = s * c
    for k, c in enumerate(b, j):
        out[k] += t * c
    while out and not out[-1]:
        out.pop()
    return out


def _coeffs(x) -> tuple:
    if not isinstance(x, Poly):
        x = Poly.const(x) if isinstance(x, (int, Fraction)) else Poly(x)
    return x.coeffs


class RatFunc:
    """Element of Q(p) in the factored canonical form

        c * p^e * P(p) / (prod Phi_n(p)^k * r(p))

    with c = cn / cd a reduced rational (cd > 0), e a signed exponent, P a
    primitive integer polynomial with P(0) != 0 and a positive leading
    coefficient, phi = ((n, k), ...) the cyclotomic exponents sorted by n and
    r a primitive integer polynomial with r(0) != 0, a positive leading
    coefficient and no cyclotomic factor.  P is coprime to the denominator.
    Zero is c = 0 with e = 0, P = r = 1 and no phi.  Every Q(p) value has one
    such form, so equality and hashing are syntactic (constants hash like
    their Fraction value so mixed Q / Q(p) keys agree).  ``num`` and ``den``
    give the expanded form with a monic denominator.
    """

    __slots__ = ("_cn", "_cd", "_e", "_prim", "_phi", "_res")

    def __init__(self, num, den=None):
        ncs = _coeffs(num)
        dcs = _ONE if den is None else _coeffs(den)
        if not dcs:
            raise ZeroDenominator("denominator polynomial is zero")
        if not ncs:
            self._cn, self._cd, self._e, self._prim, self._phi, self._res = 0, 1, 0, _ONE, (), _ONE
            return
        cn, cd, e, a = _int_parts(ncs)
        dn, dd, de, d = _int_parts(dcs)
        phi, res = _split_cyclotomic(d)
        a, phi = _cancel_phi(a, phi)
        a, res = _cancel_residual(a, res)
        self._cn, self._cd = _q(cn * dd, cd * dn)
        self._e, self._prim, self._phi, self._res = e - de, a, phi, res

    @classmethod
    def p(cls) -> "RatFunc":
        return _rf(1, 1, 1)

    @property
    def num(self) -> Poly:
        """The numerator over the monic denominator ``den``, expanded."""
        if not self._cn:
            return Poly()
        c = Fraction(self._cn, self._cd * self._res[-1])
        return Poly((0,) * max(self._e, 0) + tuple(x * c for x in self._prim))

    @property
    def den(self) -> Poly:
        """The monic denominator, expanded."""
        d = (0,) * max(-self._e, 0) + _expand(self._phi, self._res)
        lc = self._res[-1]
        return Poly(d if lc == 1 else tuple(Fraction(x, lc) for x in d))

    def _is_monomial(self) -> bool:
        """True for c p^e, zero and the constants included."""
        return len(self._prim) == 1 and not self._phi and len(self._res) == 1

    def is_constant(self) -> bool:
        return not self._e and self._is_monomial()

    def __bool__(self) -> bool:
        return bool(self._cn)

    def _key(self):
        return self._cn, self._cd, self._e, self._prim, self._phi, self._res

    def __eq__(self, other) -> bool:
        if type(other) is RatFunc:
            return self._key() == other._key()
        if type(other) is int:  # the c == 0 and c == 1 tests of the Fock layer
            return self._cn == other and self._cd == 1 and (not other or self.is_constant())
        if isinstance(other, (int, Fraction)):
            return (self.is_constant() and self._cn == other.numerator
                    and self._cd == other.denominator)
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(Fraction(self._cn, self._cd))
        return hash(self._key())

    def _scaled(self, n: int, d: int, k: int = 0) -> "RatFunc":
        """(n / d) p^k self, for n / d reduced with d > 0: only c and e change."""
        if not n or not self._cn:
            return _rf(0, 1, 0)
        cn, cd = _q(self._cn * n, self._cd * d)
        return _rf(cn, cd, self._e + k, self._prim, self._phi, self._res)

    def __add__(self, other):
        if type(other) is not RatFunc:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _rf(other.numerator, other.denominator, 0)
        a, b = self, other
        if not b._cn:
            return a
        if not a._cn:
            return b
        e = min(a._e, b._e)
        pa, pb, phi, res = a._prim, b._prim, a._phi, a._res
        if phi != b._phi:
            phi = _phi_merge(phi, b._phi, max)
            pa = _expand(_phi_merge(phi, a._phi, int.__sub__), pa)
            pb = _expand(_phi_merge(phi, b._phi, int.__sub__), pb)
        if len(res) > 1 or len(b._res) > 1:
            res, ra, rb = _lcm_residual(res, b._res)
            pa, pb = _imul(pa, ra), _imul(pb, rb)
        g = math.gcd(a._cd, b._cd)
        num = _lincomb(a._cn * (b._cd // g), pa, a._e - e, b._cn * (a._cd // g), pb, b._e - e)
        if not num:
            return _rf(0, 1, 0)
        v = 0
        while not num[v]:
            v += 1
        cn, prim = _primitive(num[v:] if v else num)
        cn, cd = _q(cn, a._cd // g * b._cd)
        prim, phi = _cancel_phi(prim, phi)
        prim, res = _cancel_residual(prim, res)
        return _rf(cn, cd, e + v, prim, phi, res)

    __radd__ = __add__

    def __neg__(self):
        return _rf(-self._cn, self._cd, self._e, self._prim, self._phi, self._res)

    def __sub__(self, other):
        if type(other) is not RatFunc and not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not RatFunc:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self._scaled(other.numerator, other.denominator)
        a, b = self, other
        if b._is_monomial():
            return a._scaled(b._cn, b._cd, b._e)
        if a._is_monomial():
            return b._scaled(a._cn, a._cd, a._e)
        pa, phi_b = _cancel_phi(a._prim, b._phi)
        pb, phi_a = _cancel_phi(b._prim, a._phi)
        pa, res_b = _cancel_residual(pa, b._res)
        pb, res_a = _cancel_residual(pb, a._res)
        cn, cd = _q(a._cn * b._cn, a._cd * b._cd)
        phi = _phi_merge(phi_a, phi_b, int.__add__) if phi_a and phi_b else phi_a or phi_b
        return _rf(cn, cd, a._e + b._e, _imul(pa, pb), phi, _imul(res_a, res_b))

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if not self._cn:
            raise ZeroDivisionError("inverse of zero in Q(p)")
        phi, res = _split_cyclotomic(self._prim)
        cn, cd = (self._cd, self._cn) if self._cn > 0 else (-self._cd, -self._cn)
        return _rf(cn, cd, -self._e, _expand(self._phi, self._res), phi, res)

    def __truediv__(self, other):
        if type(other) is not RatFunc and not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * power(other, -1)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, n: int):
        return power(self, n)

    def specialize(self, p0) -> Fraction:
        """Evaluate at p = p0 exactly; PoleAtPoint if the denominator vanishes."""
        p0 = Fraction(p0)
        d = self.den.eval_at(p0)
        if d == 0:
            raise PoleAtPoint(f"denominator vanishes at p = {p0}")
        return self.num.eval_at(p0) / d

    def render(self) -> str:
        """Canonical string: integer-coefficient polynomials without a common
        factor, descending degree.  cn p^max(e, 0) P and cd p^max(-e, 0)
        prod Phi_n^k r are those polynomials: P and prod Phi_n^k r are
        primitive and cn, cd coprime."""
        e = self._e
        n = Poly((0,) * max(e, 0) + tuple(self._cn * x for x in self._prim))
        d = Poly((0,) * max(-e, 0) + tuple(self._cd * x for x in _expand(self._phi, self._res)))
        if d.coeffs == _ONE:
            return n.render()

        def wrap(s: str) -> str:
            return s if (" " not in s and "*" not in s) else f"({s})"

        return f"{wrap(n.render())}/{wrap(d.render())}"

    def __repr__(self):
        return self.render()


def _rf(cn: int, cd: int, e: int, prim=_ONE, phi=(), res=_ONE) -> RatFunc:
    """The RatFunc with these parts, which must already be canonical."""
    f = _new(RatFunc)
    f._cn, f._cd, f._e, f._prim, f._phi, f._res = cn, cd, e, prim, phi, res
    return f


def specialize(f, p0) -> Fraction:
    """Evaluate a scalar at p = p0: RatFunc via substitution, Q unchanged."""
    if isinstance(f, RatFunc):
        return f.specialize(p0)
    return Fraction(f)


def power(f, n: int):
    """Exact n-th power for n in Z, valid for Fraction, RatFunc, and int.

    This is the one place that tells Q from Q(p): a negative power of an int
    or Fraction is a power of 1 / f, one of a RatFunc a power of its inverse.
    Squaring starts from f itself, so power(f, 1) is f and power(f, -1) is
    just the inverse."""
    if n >= 0:
        if isinstance(f, (int, Fraction)):
            return f**n
        out = None
        while n:
            if n & 1:
                out = f if out is None else out * f
            n >>= 1
            if n:
                f = f * f
        return RatFunc(1) if out is None else out
    if not f:
        raise ZeroToNegativePower(f"0**{n}")
    if isinstance(f, int):
        f = Fraction(f)
    if isinstance(f, Fraction):
        inv = 1 / f
        return inv if n == -1 else inv ** (-n)
    return power(f.inverse(), -n)


class ScalarField:
    """Coefficient-field selector: symbolic Q(p) or Q at a rational point p0.

    The specialization map p -> p0 is a field homomorphism away from poles;
    p0 must have |p0| not in {0, 1} so no power of p0 degenerates to +-1, and
    must be exact: a float or bool p0 is refused.  At a dyadic p0 (numerator
    and denominator powers of 2 up to sign) the field's values are ``Dyadic``.
    """

    __slots__ = ("symbolic", "p0", "_rational")

    def __init__(self, symbolic: bool, p0=None):
        self.symbolic = symbolic
        if symbolic:
            self.p0 = None
            self._rational = None
        else:
            p0 = exact_fraction(p0, "specialization point p0")
            if p0 in (0, 1, -1):
                raise ValueError("specialization point must have |p0| not in {0, 1}")
            self._rational = _dyadic_or_fraction if _is_dyadic_point(p0) else Fraction
            self.p0 = self._rational(p0)

    @classmethod
    def rationals(cls, p0) -> "ScalarField":
        return cls(False, p0)

    @classmethod
    def rational_functions(cls) -> "ScalarField":
        return cls(True)

    def zero(self):
        return RatFunc(0) if self.symbolic else self._rational(0)

    def one(self):
        return RatFunc(1) if self.symbolic else self._rational(1)

    def from_int(self, n: int):
        return RatFunc(n) if self.symbolic else self._rational(n)

    def p_power(self, n: int):
        """p**n in this field (p0**n when specialized)."""
        if self.symbolic:
            return _rf(1, 1, n)
        return self.p0**n

    def coerce(self, x):
        """Bring an int / Fraction / RatFunc into this field."""
        if self.symbolic:
            return x if isinstance(x, RatFunc) else RatFunc(x)
        if isinstance(x, RatFunc):
            return self._rational(x.specialize(self.p0))
        return self._rational(x)

    def __repr__(self):
        return "ScalarField(Qp)" if self.symbolic else f"ScalarField(Q, p0={self.p0})"

    def __eq__(self, other):
        return (
            isinstance(other, ScalarField)
            and self.symbolic == other.symbolic
            and self.p0 == other.p0
        )

    def __hash__(self):
        return hash((self.symbolic, self.p0))


QP = ScalarField.rational_functions()

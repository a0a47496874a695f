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

``RatFunc`` implements Q(p), the field of rational functions in
one formal parameter ``p`` over Q, in canonical form: the denominator is monic
and coprime to the numerator, so equality of field elements is syntactic
equality of the representation.  A Laurent polynomial is a ``RatFunc`` whose
denominator is p**k; sums and products of those are built without a gcd.
``ScalarField`` selects between symbolic Q(p) work and evaluation at a
rational specialization point.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction


Rational = Fraction


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

    @classmethod
    def gen(cls) -> "Poly":
        """The polynomial p."""
        return cls((0, 1))

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

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    def val(self) -> int:
        """Index of the lowest nonzero coefficient (0 for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def is_monomial(self) -> bool:
        cs = self.coeffs
        return bool(cs) and cs.count(0) == len(cs) - 1

    def scale(self, c) -> "Poly":
        if c == 1:
            return self
        if c == 0:
            return Poly()
        return Poly(tuple(x * c for x in self.coeffs))

    def shift(self, n: int) -> "Poly":
        """Multiply by p**n, n >= 0."""
        if not self.coeffs or not n:
            return self
        return Poly((0,) * n + self.coeffs)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_monomial():
            d = other.degree()
            return Poly(self.coeffs[d:]).scale(1 / other.lc()), Poly(self.coeffs[:d])
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
        """Monic gcd by the Euclidean algorithm (exact over Q).

        Monomial operands short-circuit: gcd(c p^k, f) = p^min(k, val f).
        """
        if not self:
            return other.monic()
        if not other:
            return self.monic()
        if self.is_monomial() or other.is_monomial():
            return _p_pow(min(self.val(), other.val()))
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


def _p_pow(k: int) -> Poly:
    """The monic monomial p**k, k >= 0."""
    return Poly((0,) * k + (1,))


def _p_order(den: Poly):
    """k when den is the monic monomial p**k, else None."""
    return den.degree() if den.coeffs[-1] == 1 and den.is_monomial() else None


def _clear_denominators(p: Poly) -> tuple[Poly, int]:
    """Return (integer-coefficient multiple of p, the multiplier)."""
    if not p:
        return p, 1
    m = math.lcm(*(c.denominator for c in p.coeffs))
    return p.scale(m), m


class RatFunc:
    """Element of Q(p) in canonical form: monic denominator, coprime to the
    numerator.  Equality and hashing are syntactic on the canonical form
    (constants hash like their Fraction value so mixed Q / Q(p) keys agree).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            num = Poly.const(num) if isinstance(num, (int, Fraction)) else Poly(num)
        if den is None:
            den = Poly.const(1)
        elif not isinstance(den, Poly):
            den = Poly.const(den) if isinstance(den, (int, Fraction)) else Poly(den)
        if not den:
            raise ZeroDenominator("denominator polynomial is zero")
        if not num:
            self.num, self.den = Poly(), Poly.const(1)
            return
        if den.is_monomial():
            # den = c p^k: cancelling p^min(val num, k) leaves num coprime to den
            k = den.degree()
            v = min(num.val(), k)
            c = den.coeffs[k]
            self.num = Poly(num.coeffs[v:]) if v else num
            if c != 1:
                self.num = self.num.scale(1 / den.lc())
            self.den = den if v == 0 and c == 1 else _p_pow(k - v)
            return
        g = num.gcd(den)
        if g.degree() > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lc = den.lc()
        self.num = num.scale(1 / lc)
        self.den = den.scale(1 / lc)

    @classmethod
    def p(cls) -> "RatFunc":
        return cls(Poly.gen())

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(Poly.const(x))
        return None

    def is_constant(self) -> bool:
        return self.num.degree() <= 0 and self.den.coeffs == (1,)

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self!r} is not a constant")
        return Fraction(self.num.coeffs[0]) if self.num else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            # the canonical form of the constant n is n / 1, and of 0 is () / 1
            return self.den.coeffs == (1,) and self.num.coeffs == ((other,) if other else ())
        o = RatFunc._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        if self.is_constant():
            return hash(self.as_fraction())
        return hash((self.num.coeffs, self.den.coeffs))

    def __add__(self, other):
        o = RatFunc._coerce(other)
        if o is None:
            return NotImplemented
        a, b = _p_order(self.den), _p_order(o.den)
        if a is not None and b is not None:
            k = max(a, b)
            return RatFunc(self.num.shift(k - a) + o.num.shift(k - b), _p_pow(k))
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        r = RatFunc.__new__(RatFunc)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        o = RatFunc._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = RatFunc._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = RatFunc._coerce(other)
        if o is None:
            return NotImplemented
        a, b = _p_order(self.den), _p_order(o.den)
        if a is not None and b is not None:
            if b == 0 and len(o.num.coeffs) == 1:
                return self._scaled(o.num.coeffs[0])
            if a == 0 and len(self.num.coeffs) == 1:
                return o._scaled(self.num.coeffs[0])
            return RatFunc(self.num * o.num, _p_pow(a + b))
        # cross-cancel before multiplying to keep degrees small
        g1 = self.num.gcd(o.den)
        g2 = o.num.gcd(self.den)
        n1 = self.num.divmod(g1)[0] if g1.degree() > 0 else self.num
        d2 = o.den.divmod(g1)[0] if g1.degree() > 0 else o.den
        n2 = o.num.divmod(g2)[0] if g2.degree() > 0 else o.num
        d1 = self.den.divmod(g2)[0] if g2.degree() > 0 else self.den
        return RatFunc(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def _scaled(self, k):
        """k * self for a nonzero rational k: (k num) / den is already canonical."""
        r = RatFunc.__new__(RatFunc)
        r.num, r.den = self.num.scale(k), self.den
        return r

    def inverse(self) -> "RatFunc":
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(p)")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        o = RatFunc._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = RatFunc._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

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
        """Canonical string: integer-coefficient polynomials, descending degree."""
        n, mn = _clear_denominators(self.num)
        d, md = _clear_denominators(self.den)
        # num/den == (n/mn)/(d/md) == (n*md)/(d*mn)
        n = n.scale(md)
        d = d.scale(mn)
        c = math.gcd(*(x.numerator for x in (*n.coeffs, *d.coeffs)))
        if c > 1:
            n, d = n.scale(Fraction(1, c)), d.scale(Fraction(1, c))
        if d.lc() < 0:
            n, d = n.scale(-1), d.scale(-1)
        if d == Poly.const(1):
            return n.render()

        def wrap(s: str) -> str:
            return s if (" " not in s and "*" not in s and "/" not in s) else f"({s})"

        return f"{wrap(n.render())}/{wrap(d.render())}"

    def __repr__(self):
        return self.render()


def normalize(f: RatFunc) -> RatFunc:
    """Canonical form of f (idempotent; construction already canonicalizes)."""
    return RatFunc(f.num, f.den)


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
            return RatFunc(_p_pow(n)) if n >= 0 else RatFunc(1, _p_pow(-n))
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

"""Generalized fermionic mode algebras and their universal vacuum modules.

Two specs are supported.  They differ only in their flavors, their field
offset nu and their pairing (see :class:`CarSpec`):

* "E", the loop Clifford algebra on a window of integer flavors, with
  ``{a(r)_m, a(s)_n} = 2*ell*(d_{r,s+1} + d_{r,s-1}) d_{m+n+1,0}`` and fields
  ``a(x) = sum a_n x^(-n-1)`` (nu = 1);
* "T", the single-flavor algebra with ``{T_m, T_n} = 2 (p^m + p^-m) d_{m+n,0}``
  and fields ``T(x) = sum T_n x^(-n)`` (nu = 0).

The module is the universal restricted vacuum module: basis monomials are
strictly ordered products of creation generators applied to the vacuum, with
T's zero mode kept as a basis-level generator (its square reduces to the
scalar ``{T_0,T_0}/2 = 2``), so all arithmetic stays inside the exact field.

A :class:`FockVector` is immutable: no operation changes ``terms`` after
construction, so operations may return an operand (``1 * v`` is ``v``) and
the mode-action memo may hand the same vector to every caller.  Linear
combinations are built by :meth:`FockVector.lincomb`, the one accumulate: it
sums into one dict and drops zero coefficients once, at the end.  ``+`` and
``-`` are its (1, 1) and (1, -1) combinations.

A :class:`FockModule` keeps five memos for its own lifetime, sharing no
entry with another module; its class docstring lists them.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ScalarField, power
from .series import INF, NEG_INF, TruncatedSeries


class FlavorOutOfWindow(ValueError):
    """A flavor outside the materialized window was requested."""


T_FLAVOR = "T"


class CarSpec:
    """One fermionic mode algebra as data: ``flavors`` (the integers
    ``flavor_lo..flavor_hi`` for "E", ``("T",)`` for "T"), the field offset
    ``nu`` (1 for "E", 0 for "T") and the pairing, the one rule that reads
    ``kind``.  Modes n >= ``threshold`` = 1 - nu annihilate the vacuum."""

    __slots__ = ("kind", "field", "ell", "flavors", "nu", "threshold")

    def __init__(self, kind, field: ScalarField, ell=None, flavor_lo=None, flavor_hi=None):
        self.kind = kind
        self.field = field
        if kind == "E":
            self.ell = field.coerce(ell)
            self.flavors = range(flavor_lo, flavor_hi + 1)
            self.nu = 1
        elif kind == "T":
            self.ell = None
            self.flavors = (T_FLAVOR,)
            self.nu = 0
        else:
            raise ValueError(f"unknown spec kind {kind!r}")
        self.threshold = 1 - self.nu

    def check_flavor(self, r):
        # a range also holds a float or Fraction equal to one of its ints
        if not (isinstance(r, (int, str)) and r in self.flavors):
            raise FlavorOutOfWindow(f"flavor {r!r} is not one of {list(self.flavors)}")

    def pairing(self, r, m, s, n):
        """The anticommutator scalar {a(r)_m, a(s)_n}."""
        if m + n + self.nu != 0:
            return self.field.zero()
        if self.kind == "T":
            return 2 * (self.field.p_power(m) + self.field.p_power(-m))
        return 2 * self.ell if abs(r - s) == 1 else self.field.zero()

    @staticmethod
    def order_key(gen):
        r, n = gen
        return (str(r), -n)

    @staticmethod
    def weight(gen) -> int:
        return -gen[1]


def e_spec(field: ScalarField, ell=1, flavor_lo=-4, flavor_hi=5) -> CarSpec:
    return CarSpec("E", field, ell=ell, flavor_lo=flavor_lo, flavor_hi=flavor_hi)


def t_spec(field: ScalarField) -> CarSpec:
    return CarSpec("T", field)


class FockVector:
    """Finite linear combination of basis monomials with exact coefficients.

    Immutable: ``terms`` maps each monomial to its nonzero coefficient and is
    never changed after construction, so results may share it with operands.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                if c:
                    self.terms[m] = c

    @classmethod
    def _wrap(cls, terms):
        """A vector over ``terms``, which must hold no zero coefficient."""
        v = cls.__new__(cls)
        v.terms = terms
        return v

    @classmethod
    def lincomb(cls, pairs):
        """Sum of c * v over the (c, v) pairs.

        Sums into one dict; v's coefficients go in unmultiplied when c == 1,
        and zero coefficients are dropped once, at the end.
        """
        out = {}
        for c, v in pairs:
            unit = c == 1
            for m, x in v.terms.items():
                if not unit:
                    x = c * x
                y = out.get(m)
                out[m] = x if y is None else y + x
        return cls._wrap({m: x for m, x in out.items() if x})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if isinstance(other, FockVector):
            return FockVector.lincomb(((1, self), (1, other)))
        if not other:
            return self
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return FockVector._wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, FockVector):
            return FockVector.lincomb(((1, self), (-1, other)))
        if not other:
            return self
        return NotImplemented

    def __rsub__(self, other):
        if not other:
            return -self
        return NotImplemented

    def __rmul__(self, c):
        if isinstance(c, FockVector):
            return NotImplemented
        if not c:
            return FockVector()
        if c == 1:
            return self
        return FockVector._wrap({m: c * x for m, x in self.terms.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        if isinstance(other, FockVector):
            return self.terms == other.terms
        if not other:
            return not self.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items(), key=lambda it: (len(it[0]), it[0])):
            mono = "*".join(f"a[{r},{n}]" for r, n in m) or "vac"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)


_ZERO = FockVector()  # every zero two-mode word in every module shares it


class FockModule:
    """Universal restricted vacuum module over a :class:`CarSpec`.

    Five memos live as long as the module.  Each maps a key to a value that
    callers share and never change, and none is ever evicted or shared
    between modules:

    * ``_memo``, owned by :meth:`_apply_gen`: (gen, monomial) -> gen applied
      to the monomial.  It holds every result, zero ones included.
    * ``_words``, owned by :meth:`apply_word`: (outer gen, inner gen,
      monomial) -> outer inner monomial.  It holds a word only when the
      inner gen leaves something nonzero.  A zero first step is already
      answered by ``_memo``, and most words are zero after one mode (5,040
      of the 6,272 distinct words in criterion 2's grid), so storing them
      would grow the module by more than it saves.  Stored words that come
      out zero all hold one shared zero vector.
    * ``_products``, owned by :func:`fieldcalc.product_on_window`: (outer
      flavor, inner flavor, vector, the two window tops) -> the unscaled
      product cells and the inner floor.
    * ``_commutators``, owned by :func:`fieldcalc.commutator_formula_fit`:
      (the ``_products`` key of a product P, the annihilator p's monomial
      exponent and factors, the quadrant margin, each partner's two flavors
      and scales with its twist's constant, monomial exponent and factors,
      the box, the ordered roots (chi, k) of p that the shifts reach) ->
      ({chi: the nonzero delta kernel terms of p(x1/x2) P at chi}, the fit of
      the defect of P and its window, or the message of the ``NotDeltaSum``
      raised when the defect is no delta sum).  Everything is in the
      product's own coordinates, where every flavor pair on one vector reads
      one entry.  A check that raises anything else stores nothing.  No key
      holds a field, which would hold the module itself.
    * ``_monomials``, owned by :meth:`_basis_monomials`: grade bound -> the
      tuple of basis monomials, so that checks which loop over generator
      pairs enumerate the basis once.
    """

    def __init__(self, spec: CarSpec):
        self.spec = spec
        self._memo = {}
        self._words = {}
        self._products = {}
        self._commutators = {}
        self._monomials = {}

    @property
    def field(self):
        return self.spec.field

    def vacuum(self) -> FockVector:
        return FockVector({(): self.field.one()})

    def basis_monomial(self, gens) -> FockVector:
        gens = tuple(sorted(gens, key=CarSpec.order_key))
        return FockVector({gens: self.field.one()})

    # -- mode action -----------------------------------------------------------

    def apply_mode(self, r, n: int, w: FockVector) -> FockVector:
        self.spec.check_flavor(r)
        gen = (r, n)
        return FockVector.lincomb((c, self._apply_gen(gen, mono)) for mono, c in w.terms.items())

    def apply_word(self, outer, inner, mono) -> FockVector:
        """The word a(r)_m a(s)_n applied to the basis monomial ``mono``, for
        the generators ``outer = (r, m)`` and ``inner = (s, n)``."""
        key = (outer, inner, mono)
        hit = self._words.get(key)
        if hit is not None:
            return hit
        self.spec.check_flavor(outer[0])
        self.spec.check_flavor(inner[0])
        first = self._apply_gen(inner, mono)
        if not first:
            return _ZERO
        res = self.apply_mode(outer[0], outer[1], first) or _ZERO
        self._words[key] = res
        return res

    def _apply_gen(self, gen, mono) -> FockVector:
        key = (gen, mono)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        spec = self.spec
        r, n = gen
        creation = n < spec.threshold
        if creation and (not mono or CarSpec.order_key(gen) < CarSpec.order_key(mono[0])):
            res = FockVector({(gen,) + mono: spec.field.one()})
        elif not mono:
            res = FockVector()
        elif creation and gen == mono[0]:
            half = spec.pairing(r, n, r, n) * Fraction(1, 2)
            res = FockVector({mono[1:]: half}) if half else FockVector()
        else:
            h, rest = mono[0], mono[1:]
            pair = spec.pairing(r, n, h[0], h[1])
            # (h,) + m never equals rest, whose first generator follows h, so
            # no two terms share a monomial
            terms = {rest: pair} if pair else {}
            for m, c in self._apply_gen(gen, rest).terms.items():
                terms[(h,) + m] = -c
            res = FockVector._wrap(terms)
        self._memo[key] = res
        return res

    # -- structure helpers -------------------------------------------------------

    def ann_bound(self, w: FockVector) -> int:
        """N with a(r)_n w = 0 certified for every flavor and every n >= N."""
        return self.spec.threshold + max((-n for mono in w.terms for _, n in mono), default=0)

    # -- fields: a(x) = sum_e a_{-e-nu} x^e --------------------------------------

    def field_coeff(self, r, e: int, w: FockVector) -> FockVector:
        """The coefficient of x**e in a(r)(x) w: the mode -e - nu applied to w."""
        return self.apply_mode(r, -e - self.spec.nu, w)

    def field_floor(self, w: FockVector) -> int:
        """Exponents below -ann_bound(w) - nu + 1 vanish in a(x) w."""
        return -self.ann_bound(w) - self.spec.nu + 1

    def apply_field(self, r, scale, w: FockVector, hi: int) -> TruncatedSeries:
        """a(scale * x) w = sum_e scale^e (a_{-e-nu} w) x^e, a series in x up
        to x**hi, open below :meth:`field_floor`."""
        floor = self.field_floor(w)
        coeffs = {}
        for e in range(floor, hi + 1):
            vec = self.field_coeff(r, e, w)
            if vec:
                if scale != 1:
                    vec = power(scale, e) * vec
                coeffs[(e,)] = vec
        return TruncatedSeries(("x",), coeffs, {"x": (NEG_INF, hi)}, {"x": (floor, INF)})

    def anticommutator_check(self, g1, g2, grade_bound: int, pair) -> bool:
        """{g1, g2} w == pair * w on every basis monomial of grade <= N.

        The two words g1 g2 w and g2 g1 w are read from the word memo."""
        for mono in self._basis_monomials(grade_bound):
            a = self.apply_word(g1, g2, mono)
            b = self.apply_word(g2, g1, mono)
            if a is _ZERO and b is _ZERO and not pair:
                continue
            want = {mono: pair} if pair else {}
            if (a + b).terms != want:
                return False
        return True

    # -- basis enumeration --------------------------------------------------------

    def creation_generators(self, max_weight: int):
        """Every flavor times the creation modes threshold - 1 down to
        -max_weight."""
        spec = self.spec
        modes = range(spec.threshold - 1, -max_weight - 1, -1)
        return sorted(((r, n) for r in spec.flavors for n in modes), key=CarSpec.order_key)

    def basis_monomials(self, grade_bound: int) -> list:
        """The basis monomials of grade <= ``grade_bound``, as a new list."""
        return list(self._basis_monomials(grade_bound))

    def _basis_monomials(self, grade_bound: int) -> tuple:
        hit = self._monomials.get(grade_bound)
        if hit is not None:
            return hit
        if grade_bound < 0:
            raise ValueError(f"grade bound must be >= 0, got {grade_bound}")
        gens = self.creation_generators(grade_bound)
        out = []

        def rec(start, acc, weight):
            out.append(tuple(acc))
            for i in range(start, len(gens)):
                wgt = CarSpec.weight(gens[i])
                if weight + wgt <= grade_bound:
                    acc.append(gens[i])
                    rec(i + 1, acc, weight + wgt)
                    acc.pop()

        rec(0, [], 0)
        res = self._monomials[grade_bound] = tuple(
            tuple(sorted(m, key=CarSpec.order_key))
            for m in sorted(out, key=lambda m: (sum(CarSpec.weight(g) for g in m), m))
        )
        return res

    def basis(self, grade_bound: int):
        one = self.field.one()
        return [FockVector({m: one}) for m in self._basis_monomials(grade_bound)]

    def graded_dimensions(self, grade_bound: int):
        counts = [0] * (grade_bound + 1)
        for m in self._basis_monomials(grade_bound):
            counts[sum(CarSpec.weight(g) for g in m)] += 1
        return counts

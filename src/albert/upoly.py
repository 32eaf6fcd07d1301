"""Univariate polynomials and rational function fields.

``UPoly`` is a dense coefficient-list polynomial over any field of the scalar
tower.  ``RationalFunctionField(base, var)`` has ``RatFunc`` elements kept in
canonical form: numerator and denominator coprime, denominator monic.  That
makes pole detection at a point a purely syntactic test on the denominator.

Canonical operands keep the gcds few, by Henrici's rules (P. Henrici,
J. ACM 3 (1956) 6-9; Knuth, TAOCP vol. 2, 4.5.1): a sum computes
gcd(den_a, den_b) and, only where that is not 1, its gcd with the cross
sum; a product or quotient computes gcd(num_a, den_b) and gcd(num_b, den_a);
a zero operand, a constant side or equal denominators compute none of the
gcds they make trivial, and an inverse computes none.  The reducing
constructor computes one gcd, unless a side is constant.
"""

from __future__ import annotations

from .errors import AlbertError, DivisionByZero, ParentMismatch
from .scalars import Ring


class UPoly:
    """Dense univariate polynomial; coeffs ascending, no trailing zeros."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and field.is_zero(coeffs[n - 1]):
            n -= 1
        self.coeffs = coeffs[:n]
        self.field = field

    @classmethod
    def const(cls, c, field):
        return cls((c,), field)

    @classmethod
    def x(cls, field):
        return cls((field.zero(), field.one()), field)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def lead(self):
        if not self.coeffs:
            raise AlbertError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return self.coeffs and self.coeffs[-1] == self.field.one()

    def _coerce(self, other):
        if isinstance(other, UPoly):
            if other.field != self.field:
                raise ParentMismatch("mixed polynomial coefficient fields")
            return other
        if isinstance(other, int):
            return UPoly((self.field.from_int(other),), self.field)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UPoly(out, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return UPoly([-c for c in self.coeffs], self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return UPoly((), self.field)
        z = self.field.zero()
        out = [z] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if self.field.is_zero(ca):
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return UPoly(out, self.field)

    __rmul__ = __mul__

    def scale(self, c):
        return UPoly([c * x for x in self.coeffs], self.field)

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.degree < 0:
            raise DivisionByZero("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        q = [field.zero()] * max(0, len(rem) - len(o.coeffs) + 1)
        inv_lead = field.inv(o.lead())
        for i in range(len(rem) - len(o.coeffs), -1, -1):
            c = rem[i + len(o.coeffs) - 1]
            if field.is_zero(c):
                continue
            f = c * inv_lead
            q[i] = f
            for j, oc in enumerate(o.coeffs):
                rem[i + j] = rem[i + j] - f * oc
        return UPoly(q, field), UPoly(rem, field)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if r:
            raise AlbertError("inexact polynomial division")
        return q

    def monic(self):
        if self.degree < 0:
            return self
        return self.scale(self.field.inv(self.lead()))

    def derivative(self):
        f = self.field
        return UPoly([f.from_int(i) * c for i, c in enumerate(self.coeffs)][1:], f)

    def __call__(self, point):
        """Evaluate by Horner; ``point`` may live in any extension ring."""
        if not self.coeffs:
            return point - point if not isinstance(point, int) else self.field.zero()
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * point + c
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def format(self, var="t"):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if self.field.is_zero(c):
                continue
            cs = self.field.format(c)
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(f"{cs}*{var}")
            else:
                parts.append(f"{cs}*{var}^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return self.format()


def poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm."""
    while b:
        a, b = b, a % b
    return a.monic() if a else a


def poly_lcm(a, b):
    if not a or not b:
        return UPoly((), a.field)
    return (a * b).exact_div(poly_gcd(a, b)).monic()


def is_separable(f):
    """Separability of a polynomial: gcd(f, f') = 1.

    Works uniformly in every characteristic, including the degenerate cases
    where the formal derivative drops degree or vanishes.
    """
    fp = f.derivative()
    if not fp:
        return False
    return poly_gcd(f, fp).degree == 0


class RatFunc:
    """Canonical fraction of univariate polynomials.

    ``+ - * /`` reduce by Henrici's rules (see the module docstring), so a
    result is canonical without a gcd of its whole numerator and
    denominator.
    """

    __slots__ = ("num", "den", "ring")

    def __init__(self, num, den, ring, _canonical=False):
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not _canonical:
            if num:
                num, den = _cancel(num, den)
            else:
                den = UPoly.const(ring.base.one(), ring.base)
            lead_inv = ring.base.inv(den.lead())
            if den.lead() != ring.base.one():
                num = num.scale(lead_inv)
                den = den.scale(lead_inv)
        self.num = num
        self.den = den
        self.ring = ring

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.ring != self.ring:
                raise ParentMismatch("mixed rational function fields")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        if isinstance(other, UPoly) and other.field == self.ring.base:
            return self.ring.from_poly(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self.ring, self.num, self.den, o.num, o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self.ring, self.num, self.den, -o.num, o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _product(self.ring, self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _product(self.ring, self.num, self.den, *_inverse(self.ring, o))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return RatFunc(-self.num, self.den, self.ring, _canonical=True)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __bool__(self):
        return bool(self.num)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        v = self.ring.var
        if self.den.degree == 0:
            return self.num.format(v)
        return f"({self.num.format(v)})/({self.den.format(v)})"


def _sum(ring, an, ad, bn, bd):
    """an/ad + bn/bd for canonical operands.  With d1 = gcd(ad, bd) and
    t = an (bd/d1) + bn (ad/d1), the sum is t/d2 over (ad/d1)(bd/d2) for
    d2 = gcd(t, d1); a constant denominator (it is 1) makes d1 = 1.  Only
    t can vanish where a denominator other than 1 would remain."""
    if not an:
        return RatFunc(bn, bd, ring, _canonical=True)
    if not bn:
        return RatFunc(an, ad, ring, _canonical=True)
    if ad.degree == 0:
        return RatFunc(an * bd + bn if bd.degree else an + bn, bd, ring, _canonical=True)
    if bd.degree == 0:
        return RatFunc(an + bn * ad, ad, ring, _canonical=True)
    d1 = ad if ad == bd else poly_gcd(ad, bd)
    if d1.degree == 0:
        return RatFunc(an * bd + bn * ad, ad * bd, ring, _canonical=True)
    ad1 = ad.exact_div(d1)
    t = an * bd.exact_div(d1) + bn * ad1
    if not t:
        return ring.zero()
    d2 = poly_gcd(t, d1)
    if d2.degree > 0:
        t, bd = t.exact_div(d2), bd.exact_div(d2)
    return RatFunc(t, ad1 * bd, ring, _canonical=True)


def _product(ring, an, ad, bn, bd):
    """(an/ad)(bn/bd) for canonical operands: each numerator is divided by
    its gcd with the other denominator, gcd(an, bd) and gcd(bn, ad); a
    constant side skips its gcd."""
    if not an or not bn:
        return ring.zero()
    an, bd = _cancel(an, bd)
    bn, ad = _cancel(bn, ad)
    return RatFunc(an * bn, ad * bd, ring, _canonical=True)


def _cancel(a, b):
    """a and b divided by their monic gcd; no gcd is taken when either is
    constant, since it is then 1."""
    if a.degree > 0 and b.degree > 0:
        g = poly_gcd(a, b)
        if g.degree > 0:
            return a.exact_div(g), b.exact_div(g)
    return a, b


def _inverse(ring, v):
    """(num, den) of 1/v for a canonical v, canonical with no gcd."""
    if not v.num:
        raise DivisionByZero("division by zero rational function")
    lead = v.num.lead()
    if lead == ring.base.one():
        return v.den, v.num
    lead_inv = ring.base.inv(lead)
    return v.den.scale(lead_inv), v.num.scale(lead_inv)


class RationalFunctionField(Ring):
    """base(var): the field of univariate rational functions."""

    is_field = True

    def __init__(self, base, var="t"):
        if not getattr(base, "is_field", False):
            raise AlbertError("rational functions need field coefficients")
        self.base = base
        self.var = var

    def zero(self):
        return RatFunc(UPoly((), self.base), UPoly.const(self.base.one(), self.base),
                       self, _canonical=True)

    def one(self):
        o = UPoly.const(self.base.one(), self.base)
        return RatFunc(o, o, self, _canonical=True)

    def from_int(self, n):
        return self.from_poly(UPoly.const(self.base.from_int(n), self.base))

    def from_base(self, value):
        return self.from_poly(UPoly.const(value, self.base))

    def from_poly(self, p):
        return RatFunc(p, UPoly.const(self.base.one(), self.base), self, _canonical=True)

    def gen(self):
        return self.from_poly(UPoly.x(self.base))

    def characteristic(self):
        return self.base.characteristic()

    def sample(self, rng, bound=9):
        num = UPoly([self.base.sample(rng, bound) for _ in range(rng.randint(1, 3))], self.base)
        den = UPoly((), self.base)
        while not den:
            den = UPoly([self.base.sample(rng, bound) for _ in range(rng.randint(1, 3))], self.base)
        return RatFunc(num, den, self)

    def inv(self, v):
        return RatFunc(*_inverse(self, v), self, _canonical=True)

    def format(self, v):
        num = ",".join(self.base.format(c) for c in v.num.coeffs) or "0"
        den = ",".join(self.base.format(c) for c in v.den.coeffs)
        return f"{num}|{den}"

    def parse(self, text):
        return RatFunc(*self.parse_pair(text), self)

    def parse_pair(self, text):
        """The numerator and denominator polynomials written in ``num|den``
        (``|den`` may be left out), before any reduction."""
        if "|" in text:
            ntext, dtext = text.split("|", 1)
        else:
            ntext, dtext = text, self.base.format(self.base.one())
        num = UPoly([self.base.parse(c) for c in ntext.split(",")], self.base)
        den = UPoly([self.base.parse(c) for c in dtext.split(",")], self.base)
        return num, den

    def spec_string(self):
        return f"{self.base.spec_string()}({self.var})"

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunctionField)
            and other.base == self.base
            and other.var == self.var
        )

    def __hash__(self):
        return hash(("ratfunc", self.base, self.var))

"""Univariate polynomials and rational function fields.

``UPoly`` is a dense polynomial over any field of the scalar tower, coded by
the field's one :class:`~albert.multipoly.Coding`, which ``PolyRing`` and
the Q contraction of :mod:`albert.linalg` share: ``coded`` is the ascending
tuple of coded coefficients, no trailing zero, over the denominator
``den``.  Over Q they are ``int`` numerators over one positive ``den`` with
gcd 1 (den = 1 for zero), over F_p ``int``s in [0, p), over any other field
its payloads with ``den`` = 1.  Every loop runs on the coded values;
``coeffs``, ``lead`` and ``format`` decode.  A polynomial is evaluated only
at an ``int`` or a value of its base field, by one Horner loop on the
coded coefficients.  Over Q ``divmod`` is a pseudo-division and
:func:`poly_gcd` a primitive remainder sequence on the numerators (Geddes,
Czapor and Labahn, *Algorithms for Computer Algebra*, ch. 7): each
pseudo-remainder is divided by its content, so coefficients do not grow
from step to step.  Over every other field the
gcd is Euclid on the coded values.

``RationalFunctionField(base, var)`` has ``RatFunc`` elements kept in
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

from math import gcd, lcm

from .errors import AlbertError, DivisionByZero, ParentMismatch
from .multipoly import coding, foreign
from .scalars import Ring


def _normal(k, c, den):
    """The canonical (coded, den) of the coded list ``c`` over ``den``:
    reduced mod p, trailing zeros dropped, the gcd with ``den`` divided out."""
    if k.p:
        c = [x % k.p for x in c]
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    del c[n:]
    if den != 1:
        g = gcd(den, *c) if n else den
        if g != 1:
            c = [x // g for x in c]
            den //= g
    return tuple(c), den


def _raw(k, coded, den=1):
    f = object.__new__(UPoly)
    f.coded, f.den, f._k = coded, den, k
    return f


def _make(k, c, den=1):
    return _raw(k, *_normal(k, c, den))


class UPoly:
    """Dense univariate polynomial: ``coded`` ascending over ``den``, no
    trailing zeros (see the module docstring); ``coeffs`` decodes."""

    __slots__ = ("coded", "den", "_k")

    def __init__(self, coeffs, field):
        k = coding(field)
        try:
            ratios = list(map(k.encode, coeffs))
        except AttributeError:
            raise foreign() from None
        self.coded, self.den = _normal(k, *k.common(ratios))
        self._k = k

    @classmethod
    def const(cls, c, field):
        return cls((c,), field)

    @classmethod
    def x(cls, field):
        return cls((field.zero(), field.one()), field)

    @property
    def field(self):
        return self._k.field

    @property
    def coeffs(self):
        decode, den = self._k.decode, self.den
        return tuple(decode(x, den) for x in self.coded)

    @property
    def degree(self):
        return len(self.coded) - 1

    def lead(self):
        if not self.coded:
            raise AlbertError("zero polynomial has no leading coefficient")
        return self._k.decode(self.coded[-1], self.den)

    def is_monic(self):
        k = self._k
        return bool(self.coded) and self.coded[-1] == (self.den if k.rational else k.one)

    def _coerce(self, other):
        if isinstance(other, UPoly):
            if other._k is not self._k:
                raise ParentMismatch("mixed polynomial coefficient fields")
            return other
        if isinstance(other, int):
            return UPoly((self.field.from_int(other),), self.field)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, da, db = self.coded, o.coded, self.den, o.den
        den = da
        if da != db:
            den = lcm(da, db)
            a, b = [x * (den // da) for x in a], [x * (den // db) for x in b]
        out = list(a) + [self._k.zero] * (len(b) - len(a))
        for i, y in enumerate(b):
            out[i] += y
        return _make(self._k, out, den)

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
        p = self._k.p
        if p:
            return _raw(self._k, tuple(-x % p for x in self.coded))
        return _raw(self._k, tuple(-x for x in self.coded), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = self._k
        a, b = self.coded, o.coded
        if not a or not b:
            return _raw(k, ())
        if len(a) > len(b):
            a, b = b, a
        out = [k.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _make(k, out, self.den * o.den)

    __rmul__ = __mul__

    def scale(self, c):
        k = self._k
        try:
            n, d = k.encode(c)
        except AttributeError:
            raise foreign() from None
        if not n:
            return _raw(k, ())
        return _make(k, [x * n for x in self.coded], self.den * d)

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.coded:
            raise DivisionByZero("polynomial division by zero")
        k = self._k
        if k.rational:
            # s*A = Q*B + R on the numerators, so self = Q db/(s da) * o + R/(s da)
            q, r, s = _pseudo_divmod(self.coded, o.coded)
            den = s * self.den
            return _make(k, [x * o.den for x in q], den), _make(k, r, den)
        p, b = k.p, o.coded
        n = len(b)
        rem = list(self.coded)
        q = [k.zero] * max(0, len(rem) - n + 1)
        inv = pow(b[-1], -1, p) if p else k.field.inv(b[-1])
        for i in range(len(rem) - n, -1, -1):
            c = rem[i + n - 1] % p if p else rem[i + n - 1]
            if not c:
                continue
            f = c * inv % p if p else c * inv
            q[i] = f
            for j, y in enumerate(b, i):
                rem[j] -= f * y
        return _make(k, q), _make(k, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if r:
            raise AlbertError("inexact polynomial division")
        return q

    def monic(self):
        k, c = self._k, self.coded
        if not c or self.is_monic():
            return self
        if k.rational:
            if c[-1] < 0:
                c = [-x for x in c]
            return _make(k, list(c), c[-1])
        return self.scale(k.field.inv(self.lead()))

    def derivative(self):
        return _make(self._k, [i * x for i, x in enumerate(self.coded)][1:], self.den)

    def __call__(self, point):
        """Evaluate by Horner on the coded coefficients at ``point``, an
        ``int`` or a value of the base field."""
        k = self._k
        # sum x_i (n/d)^i = (sum x_i n^i d^(K-i)) / d^K for K = deg
        try:
            n, d = (point, 1) if type(point) is int else k.encode(point)
        except AttributeError:
            raise foreign() from None
        acc, dk = k.zero, 1
        for x in reversed(self.coded):
            acc = acc * n + x * dk
            dk *= d
        return k.decode(acc * d, self.den * dk)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coded == o.coded and self.den == o.den

    def __bool__(self):
        return bool(self.coded)

    def __hash__(self):
        return hash((self.coded, self.den))

    def format(self, var="t"):
        if not self.coded:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if self.field.is_zero(c):
                continue
            cs = self.field.format(c)
            parts.append(cs if i == 0 else f"{cs}*{var}" if i == 1 else f"{cs}*{var}^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return self.format()


def _pseudo_divmod(a, b):
    """(q, r, s) with s*a = q*b + r, deg r < deg b and s > 0, for ``int``
    lists, b nonzero.  A step multiplies by lead(b)/g only, g the gcd of
    lead(b) and the remainder's leading term."""
    n, lead = len(b), b[-1]
    r = list(a)
    q = [0] * max(0, len(r) - n + 1)
    s = 1
    for i in range(len(r) - n, -1, -1):
        c = r[i + n - 1]
        if not c:
            continue
        g = gcd(c, lead) if lead > 0 else -gcd(c, lead)
        m, c = lead // g, c // g
        if m != 1:
            s *= m
            r = [x * m for x in r]
            q = [x * m for x in q]
        q[i] = c
        for j, y in enumerate(b, i):
            r[j] -= c * y
    del r[n - 1:]
    while r and not r[-1]:
        r.pop()
    return q, r, s


def _primitive(c):
    g = gcd(*c)
    return [x // g for x in c] if g != 1 else list(c)


def poly_gcd(a, b):
    """Monic gcd: over Q a primitive remainder sequence on the integer
    numerators, over every other field Euclid on the coded coefficients."""
    k = a._k
    if not k.rational or not a or not b:
        while b:
            a, b = b, a % b
        return a.monic() if a else a
    x, y = _primitive(a.coded), _primitive(b.coded)
    if len(x) < len(y):
        x, y = y, x
    while len(y) > 1:
        r = _pseudo_divmod(x, y)[1]
        if not r:
            break
        x, y = y, _primitive(r)
    return _make(k, y).monic()


def poly_lcm(a, b):
    if not a or not b:
        return _raw(a._k, ())
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
                den = ring.unit
            if not den.is_monic():
                num = num.scale(ring.base.inv(den.lead()))
                den = den.monic()
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
    if v.num.is_monic():
        return v.den, v.num
    return v.den.scale(ring.base.inv(v.num.lead())), v.num.monic()


class RationalFunctionField(Ring):
    """base(var): the field of univariate rational functions."""

    is_field = True

    def __init__(self, base, var="t"):
        if not getattr(base, "is_field", False):
            raise AlbertError("rational functions need field coefficients")
        self.base = base
        self.var = var
        # ``RatFunc`` values are immutable, so the constants are built once
        self.unit = UPoly.const(base.one(), base)
        self._zero = RatFunc(UPoly((), base), self.unit, self, _canonical=True)
        self._one = RatFunc(self.unit, self.unit, self, _canonical=True)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return self.from_poly(UPoly.const(self.base.from_int(n), self.base))

    def from_base(self, value):
        return self.from_poly(UPoly.const(value, self.base))

    def from_poly(self, p):
        return RatFunc(p, self.unit, self, _canonical=True)

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
        (``|den`` may be left out), before any reduction.  Over Q each
        coefficient literal is read by ``QQ.parse_ratio`` straight into the
        coded form; over any other field by ``base.parse``."""
        if "|" in text:
            ntext, dtext = text.split("|", 1)
        else:
            ntext, dtext = text, self.base.format(self.base.one())
        k = coding(self.base)
        read = self.base.parse_ratio if k.rational else lambda c: k.encode(self.base.parse(c))
        return tuple(_make(k, *k.common([read(c) for c in t.split(",")]))
                     for t in (ntext, dtext))

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

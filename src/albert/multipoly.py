"""Sparse multivariate polynomials with canonical normal forms.

Monomials are packed into a single integer key, 8 bits of exponent per
variable, so monomial multiplication is integer addition and the coefficient
dictionary gives a canonical sparse normal form for free.  Two polynomial
expressions built by ring operations are equal exactly when their normal
forms are equal, in every characteristic, because comparison happens at the
coefficient level rather than the function level.

Coefficients are stored in a form native to the coefficient field, so the
multiply and merge loops run on plain Python ``int``s where they can:

* over ``PrimeField(p)`` each coefficient is an ``int`` in [1, p);
* over ``QQ`` each coefficient is a nonzero ``int`` numerator over one
  positive common denominator ``MPoly.den``, with gcd(den, every numerator)
  = 1 and den = 1 for the zero polynomial;
* over any other field the coefficients are the field's own payloads and
  ``den`` stays 1.

There is one :class:`Coding` per field, built by :func:`coding` and shared
by :class:`PolyRing`, :class:`~albert.upoly.UPoly` and the Q contraction of
:mod:`albert.linalg`: ``encode(payload) -> (int, den)``, ``decode(int,
den) -> payload``, ``normalize(dict, den, changed) -> (terms, den)``, which
reduces mod p or divides out the gcd, and drops zeros, and ``common``, the
one step that puts coded values over their lcm denominator.  There is one
pair loop, :meth:`PolyRing.dot`, the sum of products sum a_i*b_i: every
product accumulates into one unreduced dict over one common denominator,
normalized once, so a sum of products costs no intermediate normal forms
and no copies of a growing accumulator.  ``MPoly.__mul__`` is its one-pair
case.  The module-level :func:`dot` is the one entry point for sums of
products over every ring, and only dispatches: polynomial pairs go to
:meth:`PolyRing.dot`, scalars to their ring's ``dot`` in
:mod:`albert.scalars` (integer-coded over Q and F_p, base-ring dots over a
quadratic or split centre, the plain ``acc + a*b`` loop otherwise).  The
one add/sub merge loop also normalizes once per result; a merge names the
keys it changed, so a small summand does not cost a pass over a large
accumulator.  Field payloads appear only at the boundary: the constructors
encode, and :meth:`MPoly.coefficient`, :meth:`MPoly.part`, ``repr`` and
:func:`proportionality` decode.

Limit: the 8-bit packing caps every exponent, and every total degree a
product may reach, at 255.  Every polynomial carries a conservative degree
bound, and multiplication refuses with a ``LimitExceeded`` error rather than
overflow the packing.  Only this module knows the key layout: other modules
build polynomials with the :class:`PolyRing` constructors and read them
through ``unpack``, :meth:`MPoly.coefficient` and :meth:`MPoly.part`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import attrgetter

from .errors import LimitExceeded, ParentMismatch
from .scalars import FpElement, PrimeField, QuadElement, RationalField, Ring, SplitElement

_BITS = 8
_MASK = (1 << _BITS) - 1
_MAXDEG = _MASK


class MPoly:
    """Element of :class:`PolyRing`; immutable normal form.

    ``terms`` maps packed monomials to encoded coefficients and ``den`` is
    their common denominator (see the module docstring).
    """

    __slots__ = ("terms", "den", "ring", "degbound")

    def __init__(self, terms, den, ring, degbound):
        self.terms = terms
        self.den = den
        self.ring = ring
        self.degbound = degbound

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.ring != self.ring:
                raise ParentMismatch("mixed polynomial rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def _merge(self, o, sign):
        """self + sign*o, both brought to the lcm of their denominators."""
        a, b = self.terms, o.terms
        da, db = self.den, o.den
        if da == db:
            den, fa, fb = da, 1, sign
        else:
            den = lcm(da, db)
            fa, fb = den // da, sign * (den // db)
        if fa == fb == 1 and len(a) < len(b):
            a, b = b, a
        out = dict(a) if fa == 1 else {k: c * fa for k, c in a.items()}
        get = out.get
        zero = self.ring.coding.zero
        for k, c in b.items():
            out[k] = get(k, zero) + c * fb
        terms, den = self.ring.coding.normalize(out, den, b)
        return MPoly(terms, den, self.ring, max(self.degbound, o.degbound))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._merge(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._merge(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        terms, den = self.ring.coding.normalize({k: -c for k, c in self.terms.items()}, self.den)
        return MPoly(terms, den, self.ring, self.degbound)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring.dot(((self, o),))

    __rmul__ = __mul__

    def scale(self, c):
        ring = self.ring
        try:
            n, d = ring.coding.encode(c)
        except AttributeError:
            raise foreign() from None
        if not n:
            return ring.zero()
        terms, den = ring.coding.normalize({k: v * n for k, v in self.terms.items()}, self.den * d)
        return MPoly(terms, den, ring, self.degbound)

    def __truediv__(self, other):
        field = self.ring.field
        if isinstance(other, int):
            return self.scale(field.inv(field.from_int(other)))
        return self.scale(field.inv(other))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.terms == o.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.den, frozenset(self.terms.items())))

    def nterms(self):
        return len(self.terms)

    def coefficient(self, exponents):
        ring = self.ring
        c = self.terms.get(ring.pack(exponents))
        return ring.field.zero() if c is None else ring.coding.decode(c, self.den)

    def part(self, degree):
        """The terms of total degree ``degree`` as {monomial: coefficient};
        a monomial is the ascending tuple of its variable indices with
        multiplicity, x0^2*x3 as (0, 0, 3)."""
        decode, den = self.ring.coding.decode, self.den
        out = {}
        for key, c in self.terms.items():
            idx = []
            while key and len(idx) <= degree:
                i = ((key & -key).bit_length() - 1) // _BITS
                idx.append(i)
                key -= 1 << (_BITS * i)
            if not key and len(idx) == degree:
                out[tuple(idx)] = decode(c, den)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        ring = self.ring
        parts = []
        for k in sorted(self.terms):
            c = ring.coding.decode(self.terms[k], self.den)
            exps = ring.unpack(k)
            mono = "*".join(
                f"{ring.names[i]}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            cs = ring.field.format(c)
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)


class Coding:
    """How the coefficients over one field are coded (see the module
    docstring); :func:`coding` gives the one instance per field.

    The closures are specialized to the field: ``int`` numerators over a
    denominator over Q, residues over F_p (a value of another prime field
    is refused), the field's own payloads over denominator 1 elsewhere.
    A value of another kind of field lacks the attribute that ``encode``
    reads, and the callers that encode a value given from outside turn
    that ``AttributeError`` into :func:`foreign`; no closure wraps the Q
    ``attrgetter`` for it.
    ``normalize`` rebuilds the whole dict, or, given ``changed``, works in
    place on the promise that only the keys of ``changed`` may hold
    unreduced or zero values.  ``zero`` and ``one`` are coded, ``p`` is the
    modulus over F_p (else 0) and ``rational`` tells Q.
    """

    __slots__ = ("field", "encode", "decode", "normalize", "zero", "one", "p", "rational")

    def __init__(self, field):
        self.field = field
        self.p = p = field.p if isinstance(field, PrimeField) else 0
        self.rational = isinstance(field, RationalField)
        self.zero = 0
        if self.rational:
            encode = attrgetter("numerator", "denominator")

            def normalize(terms, den, changed=None):
                if changed is not None:
                    for k in changed:
                        if not terms[k]:
                            del terms[k]
                elif 0 in terms.values():
                    terms = {k: v for k, v in terms.items() if v}
                if not terms:
                    return terms, 1
                if den != 1:
                    g = gcd(den, *terms.values())
                    if g != 1:
                        terms = {k: v // g for k, v in terms.items()}
                        den //= g
                return terms, den

            decode = Fraction
        elif p:
            def encode(c):
                if c.p != p:
                    raise ParentMismatch("mixed prime fields")
                return c.val, 1

            def decode(n, den):
                return FpElement(n if den == 1 else n * pow(den, -1, p), p)

            def normalize(terms, den, changed=None):
                if changed is None:
                    return {k: r for k, v in terms.items() if (r := v % p)}, 1
                for k in changed:
                    r = terms[k] % p
                    if r:
                        terms[k] = r
                    else:
                        del terms[k]
                return terms, 1
        else:
            def encode(c):
                return c, 1

            def decode(n, den):
                return n if den == 1 else n / den

            def normalize(terms, den, changed=None):
                if changed is None:
                    return {k: v for k, v in terms.items() if v}, 1
                for k in changed:
                    if not terms[k]:
                        del terms[k]
                return terms, 1

            self.zero = field.zero()
        self.encode, self.decode, self.normalize = encode, decode, normalize
        self.one = encode(field.one())[0]

    @staticmethod
    def common(ratios):
        """(codes, den) for the values n/d over (n, d) in the sequence
        ``ratios``, d > 0: den is the lcm of the d and each code n*(den/d);
        nothing is reduced."""
        den = lcm(*[d for _, d in ratios])
        return [n if d == den else n * (den // d) for n, d in ratios], den


#: the one :class:`Coding` of each field, shared by every ring over it
coding = cache(Coding)


def foreign():
    """The error for a value of another kind of field given to a coding."""
    return ParentMismatch("value of another kind of field")


class PolyRing(Ring):
    """Multivariate polynomial ring over a field of the scalar tower."""

    def __init__(self, field, names):
        if isinstance(names, int):
            names = [f"x{i+1}" for i in range(names)]
        self.field = field
        self.base = field
        self.names = list(names)
        self.nvars = len(self.names)
        self.coding = coding(field)

    def pack(self, exponents):
        key = 0
        for i, e in enumerate(exponents):
            if e:
                if e > _MAXDEG:
                    raise LimitExceeded(f"exponent {e} exceeds packing limit {_MAXDEG}")
                key |= e << (_BITS * i)
        return key

    def unpack(self, key):
        exps = []
        for _ in range(self.nvars):
            exps.append(key & _MASK)
            key >>= _BITS
        return exps

    def _make(self, payloads, degbound):
        """sum_k payloads[k] times the monomial k, over one common denominator."""
        try:
            ratios = list(map(self.coding.encode, payloads.values()))
        except AttributeError:
            raise foreign() from None
        return self._make_coded(payloads, ratios, degbound)

    def _make_coded(self, keys, ratios, degbound):
        """sum n/d times the monomial k over k in ``keys`` and the (n, d) at
        the same place in ``ratios``."""
        codes, den = self.coding.common(ratios)
        terms, den = self.coding.normalize(dict(zip(keys, codes)), den)
        return MPoly(terms, den, self, degbound)

    def dot(self, pairs):
        """sum a*b over ``pairs`` of polynomials of this ring (ints coerce).

        Pairs with a zero side are skipped.  The sum has one denominator,
        the lcm of the a.den * b.den, and each pair's smaller side is scaled
        to it; every product accumulates into one unreduced dict, which the
        coding normalizes once.  A pair whose degree bound passes the packing
        limit is refused.
        """
        jobs = []
        den, bound = 1, 0
        for a, b in pairs:
            if type(a) is not MPoly or a.ring is not self:
                a = self._own(a)
            if type(b) is not MPoly or b.ring is not self:
                b = self._own(b)
            ta, tb = a.terms, b.terms
            if not ta or not tb:
                continue
            deg = a.degbound + b.degbound
            if deg > _MAXDEG:
                raise LimitExceeded(
                    f"polynomial degree bound {deg} exceeds packing limit {_MAXDEG}")
            bound = max(bound, deg)
            d = a.den * b.den
            if d != den:
                den = lcm(den, d)
            jobs.append((ta, tb, d) if len(ta) >= len(tb) else (tb, ta, d))
        out = {}
        get = out.get
        zero = self.coding.zero
        for ta, tb, d in jobs:
            if d != den:
                f = den // d
                tb = {k: c * f for k, c in tb.items()}
            for kb, cb in tb.items():
                for ka, ca in ta.items():
                    k = ka + kb
                    out[k] = get(k, zero) + ca * cb
        terms, den = self.coding.normalize(out, den)
        return MPoly(terms, den, self, bound)

    def _own(self, p):
        """p as an element of this ring: ints coerce, other rings refuse."""
        if isinstance(p, MPoly):
            if p.ring == self:
                return p
            raise ParentMismatch("mixed polynomial rings")
        if isinstance(p, int):
            return self.from_int(p)
        raise TypeError(f"not a polynomial of {self.spec_string()}: {p!r}")

    def zero(self):
        return MPoly({}, 1, self, 0)

    def one(self):
        return self._make({0: self.field.one()}, 0)

    def from_int(self, n):
        return self._make({0: self.field.from_int(n)}, 0)

    def from_base(self, value):
        return self._make({0: value}, 0)

    def gen(self, i):
        return self._make({1 << (_BITS * i): self.field.one()}, 1)

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

    def monomial(self, coeff, exponents):
        if self.field.is_zero(coeff):
            return self.zero()
        return self._make({self.pack(exponents): coeff}, sum(exponents))

    def univariate(self, coeffs):
        """sum_d coeffs[d] x_0^d, coefficients in ascending powers."""
        if len(coeffs) > _MAXDEG + 1:
            raise LimitExceeded(f"exponent {len(coeffs) - 1} exceeds packing limit {_MAXDEG}")
        return self._make(dict(enumerate(coeffs)), max(len(coeffs) - 1, 0))

    def linear_form(self, coeffs, first=0, dens=None):
        """The form sum_j p_j(x_0) x_{first+j}.

        ``coeffs[j]`` lists the coefficients of p_j in ascending powers of
        x_0, which is a parameter when ``first`` > 0.  Constant p_j give the
        plain linear form sum_j c_j x_{first+j}.  Given ``dens``, the
        coefficients of p_j come coded as this ring's :class:`Coding` codes
        them (the form ``UPoly.coded`` keeps), over the denominator
        ``dens[j]``.
        """
        is_zero, encode = self.field.is_zero, self.coding.encode
        keys, ratios = [], []
        deg = 0
        for j, poly in enumerate(coeffs):
            var = 1 << (_BITS * (first + j))
            den = None if dens is None else dens[j]
            for d, c in enumerate(poly):
                if not is_zero(c):
                    keys.append(var + d)
                    ratios.append((c, den) if den else encode(c))
                    if d > deg:
                        deg = d
        if deg >= _MAXDEG:
            raise LimitExceeded(f"linear form degree {deg + 1} exceeds packing limit {_MAXDEG}")
        return self._make_coded(keys, ratios, deg + 1)

    def characteristic(self):
        return self.field.characteristic()

    def is_zero(self, v):
        return not v.terms

    def sample(self, rng, bound=9):
        nterms = rng.randint(1, 3)
        acc = self.zero()
        for _ in range(nterms):
            exps = [rng.randint(0, 2) for _ in range(self.nvars)]
            acc = acc + self.monomial(self.field.sample(rng, bound), exps)
        return acc

    def spec_string(self):
        return f"{self.field.spec_string()}[{','.join(self.names)}]"

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.names == self.names
        )

    def __hash__(self):
        return hash(("mpoly", self.field, tuple(self.names)))


def proportionality(p, q):
    """If p == c*q for a scalar c, return c; otherwise None.

    Zero q matches only zero p (with c undefined; None is returned unless both
    are zero, in which case the field's one is returned).  The test is exact
    cross-multiplication against one reference monomial k0 of q,
    p_k * q_k0 == q_k * p_k0 for every k, on the encoded coefficients.
    """
    ring = p.ring
    if not q.terms:
        return ring.field.one() if not p.terms else None
    if len(p.terms) != len(q.terms):
        return None
    key = next(iter(q.terms))
    pc = p.terms.get(key)
    if pc is None:
        return None
    qc = q.terms[key]
    get = p.terms.get
    coding = ring.coding
    cross = {k: get(k, coding.zero) * qc - c * pc for k, c in q.terms.items()}
    if coding.normalize(cross, 1)[0]:
        return None
    if p.den != q.den:
        pc, qc = pc * q.den, qc * p.den
    return coding.decode(pc, qc)


def dot(pairs):
    """sum a*b over a nonempty sequence of pairs of one ring's elements.

    Told by the type of the first operand that is not an int (ints
    coerce), the sum goes to its ring's ``dot``: :meth:`PolyRing.dot`, the
    integer-coded sums over Q and F_p, or the base-ring dots of a quadratic
    or split centre.  Every other ring (k(t), the elements of a degree-3
    algebra) runs the plain ``acc + a*b`` loop of :meth:`Ring.dot`.
    """
    a, b = pairs[0]
    x = b if type(a) is int else a
    kind = type(x)
    if kind is Fraction:
        return RationalField.dot(pairs)
    if kind is FpElement:
        return PrimeField.dot(pairs)
    if kind is MPoly or kind is QuadElement or kind is SplitElement:
        return x.ring.dot(pairs)
    return Ring.dot(pairs)

"""Sparse multivariate polynomials with canonical normal forms.

Monomials are packed into a single integer key, 8 bits of exponent per
variable, so monomial multiplication is integer addition and the coefficient
dictionary gives a canonical sparse normal form for free.  Two polynomial
expressions built by ring operations are equal exactly when their normal
forms are equal, in every characteristic, because comparison happens at the
coefficient level rather than the function level.

The 8-bit packing caps total degree at 255; every polynomial carries a
conservative degree bound and multiplication refuses to overflow the packing.
Only this module knows the key layout: other modules build polynomials with
the :class:`PolyRing` constructors and read them through ``unpack`` and
:meth:`MPoly.coefficient`.
"""

from __future__ import annotations

from .errors import AlbertError, ParentMismatch
from .scalars import Ring

_BITS = 8
_MASK = (1 << _BITS) - 1
_MAXDEG = _MASK


class MPoly:
    """Element of :class:`PolyRing`; immutable normal form."""

    __slots__ = ("terms", "ring", "degbound")

    def __init__(self, terms, ring, degbound):
        self.terms = terms
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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.terms, o.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            v = out.get(k)
            if v is None:
                out[k] = c
            else:
                s = v + c
                if s:
                    out[k] = s
                else:
                    del out[k]
        return MPoly(out, self.ring, max(self.degbound, o.degbound))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.terms, o.terms
        out = dict(a)
        for k, c in b.items():
            v = out.get(k)
            if v is None:
                out[k] = -c
            else:
                s = v - c
                if s:
                    out[k] = s
                else:
                    del out[k]
        return MPoly(out, self.ring, max(self.degbound, o.degbound))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return MPoly({k: -c for k, c in self.terms.items()}, self.ring, self.degbound)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.terms, o.terms
        if not a or not b:
            return self.ring.zero()
        bound = self.degbound + o.degbound
        if bound > _MAXDEG:
            raise AlbertError(f"polynomial degree bound {bound} exceeds packing limit")
        if len(a) < len(b):
            a, b = b, a
        out = {}
        get = out.get
        for kb, cb in b.items():
            for ka, ca in a.items():
                k = ka + kb
                v = get(k)
                if v is None:
                    out[k] = ca * cb
                else:
                    out[k] = v + ca * cb
        out = {k: c for k, c in out.items() if c}
        return MPoly(out, self.ring, bound)

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return self.ring.zero()
        out = {k: c * v for k, v in self.terms.items()}
        out = {k: v for k, v in out.items() if v}
        return MPoly(out, self.ring, self.degbound)

    def __truediv__(self, other):
        field = self.ring.field
        if isinstance(other, int):
            return self.scale(field.inv(field.from_int(other)))
        return self.scale(field.inv(other))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def nterms(self):
        return len(self.terms)

    def coefficient(self, exponents):
        key = self.ring.pack(exponents)
        return self.terms.get(key, self.ring.field.zero())

    def evaluate(self, values):
        """Evaluate at payloads of the coefficient field."""
        field = self.ring.field
        acc = field.zero()
        for k, c in self.terms.items():
            term = c
            i = 0
            while k:
                e = k & _MASK
                if e:
                    v = values[i]
                    for _ in range(e):
                        term = term * v
                k >>= _BITS
                i += 1
            acc = acc + term
        return acc

    def __repr__(self):
        if not self.terms:
            return "0"
        ring = self.ring
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            exps = ring.unpack(k)
            mono = "*".join(
                f"{ring.names[i]}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            )
            cs = ring.field.format(c)
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)


class PolyRing(Ring):
    """Multivariate polynomial ring over a field of the scalar tower."""

    def __init__(self, field, names):
        if isinstance(names, int):
            names = [f"x{i+1}" for i in range(names)]
        self.field = field
        self.base = field
        self.names = list(names)
        self.nvars = len(self.names)

    def pack(self, exponents):
        key = 0
        for i, e in enumerate(exponents):
            if e:
                if e > _MAXDEG:
                    raise AlbertError("exponent exceeds packing limit")
                key |= e << (_BITS * i)
        return key

    def unpack(self, key):
        exps = []
        for _ in range(self.nvars):
            exps.append(key & _MASK)
            key >>= _BITS
        return exps

    def zero(self):
        return MPoly({}, self, 0)

    def one(self):
        return MPoly({0: self.field.one()}, self, 0)

    def from_int(self, n):
        c = self.field.from_int(n)
        return MPoly({0: c} if c else {}, self, 0)

    def from_base(self, value):
        return MPoly({0: value} if value else {}, self, 0)

    from_coeff = from_base

    def gen(self, i):
        return MPoly({1 << (_BITS * i): self.field.one()}, self, 1)

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

    def monomial(self, coeff, exponents):
        if self.field.is_zero(coeff):
            return self.zero()
        return MPoly({self.pack(exponents): coeff}, self, sum(exponents))

    def univariate(self, coeffs):
        """sum_d coeffs[d] x_0^d, coefficients in ascending powers."""
        if len(coeffs) > _MAXDEG + 1:
            raise AlbertError("exponent exceeds packing limit")
        terms = {d: c for d, c in enumerate(coeffs) if not self.field.is_zero(c)}
        return MPoly(terms, self, max(len(coeffs) - 1, 0))

    def linear_form(self, coeffs, first=0):
        """The form sum_j p_j(x_0) x_{first+j}.

        ``coeffs[j]`` lists the coefficients of p_j in ascending powers of
        x_0, which is a parameter when ``first`` > 0.  Constant p_j give the
        plain linear form sum_j c_j x_{first+j}.
        """
        is_zero = self.field.is_zero
        terms = {}
        deg = 0
        for j, poly in enumerate(coeffs):
            var = 1 << (_BITS * (first + j))
            for d, c in enumerate(poly):
                if not is_zero(c):
                    terms[var + d] = c
                    if d > deg:
                        deg = d
        if deg >= _MAXDEG:
            raise AlbertError("exponent exceeds packing limit")
        return MPoly(terms, self, deg + 1)

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
    are zero, in which case the field's one is returned).
    """
    field = p.ring.field
    if not q.terms:
        return field.one() if not p.terms else None
    if len(p.terms) != len(q.terms):
        return None
    key = next(iter(q.terms))
    pc = p.terms.get(key)
    if pc is None:
        return None
    c = pc / q.terms[key]
    for k, qc in q.terms.items():
        if p.terms.get(k) != c * qc:
            return None
    return c

"""Exact scalar arithmetic for the ring tower every other module computes over.

Supported rings:

* ``QQ`` - rational numbers, elements are ``fractions.Fraction``;
* ``PrimeField(p)`` - integers mod a prime, elements are ``FpElement``;
* ``QuadraticExtension(base, d)`` - base[s] with s^2 = d, elements ``QuadElement``;
* ``SplitQuadratic(base)`` - the split etale algebra base x base, elements
  ``SplitElement`` (honest component pairs, valid in every characteristic);
* ``RationalFunctionField(base, var)`` - univariate rational functions, see
  :mod:`albert.upoly`.

Elements are plain payload objects carrying native Python operators; rings are
lightweight parent objects providing construction, sampling, canonical
formatting and characteristic data.  All values are immutable after
construction and every representation is canonical, so ``==`` is mathematical
equality.

Two rings are equal when they are of one type and print the same
``spec_string()``, the text that rebuilds them (a certificate header names
its field by it); the hash is that string's.  A ring formats its spec once.

The two quadratic etale centres share one base, ``QuadraticEtale``: their
elements are ``PairElement`` pairs (a;b) that share every operator but the
product, and ``QuadraticEtale.base_part`` reads the base component of a value
that conjugation fixes.  Code that accepts either centre tests for
``QuadraticEtale``.

Every ring has a sum of products ``dot(pairs)``, which
:func:`albert.multipoly.dot` dispatches to: the plain ``acc + a*b`` loop of
``Ring.dot`` by default; over Q ``int`` numerators over one running lcm
denominator and one ``Fraction`` for the result; over F_p one ``int`` sum of
the ``val`` products, reduced once; over a quadratic or split centre base-ring
dots of the components.  Ints coerce in each, and elements of another prime
field or centre raise ``ParentMismatch``, as the operators do.

:func:`lift` is the one way a scalar moves to a larger ring: up the extension
chain through ``from_base``, or into the base change ``K.extend(S)`` of a
quadratic or split centre K along an extension S of its base, componentwise.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import lcm

from .errors import AlbertError, DivisionByZero, ParentMismatch


#: the literals ``RationalField.parse`` reads without ``Fraction(text)``
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")

#: prime field moduli must lie below this bound: Miller-Rabin with the
#: prime bases 2..37 decides primality exactly there
MAX_MODULUS = 1 << 64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin for n < ``MAX_MODULUS``."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Ring:
    """Common parent interface.

    ``base`` points one level down the extension tower (None at the bottom).
    ``from_base`` lifts one level; :func:`lift` walks the whole chain and
    also lifts into base changes of quadratic and split rings.
    """

    base = None
    is_field = False

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    def from_base(self, value):
        raise NotImplementedError

    def is_zero(self, v):
        return not v

    def characteristic(self):
        raise NotImplementedError

    def sample(self, rng, bound=9):
        raise NotImplementedError

    def inv(self, v):
        raise NotImplementedError

    def format(self, v):
        return str(v)

    @staticmethod
    def dot(pairs):
        """sum a*b over a nonempty sequence of pairs of this ring's
        elements (ints coerce): the plain ``acc + a*b`` loop, which rings
        with a cheaper sum of products override."""
        a, b = pairs[0]
        acc = a * b
        for a, b in pairs[1:]:
            acc = acc + a * b
        return acc

    def spec_string(self):
        raise NotImplementedError

    @functools.cached_property
    def _spec(self):
        """``spec_string()``, formatted once: rings are immutable.  It is
        also the repr, through which a ring's spec reads its base's."""
        return self.spec_string()

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and other._spec == self._spec)

    def __hash__(self):
        return hash(self._spec)

    def __repr__(self):
        return self._spec


class RationalField(Ring):
    """The rationals; elements are ``fractions.Fraction`` used directly."""

    is_field = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def characteristic(self):
        return 0

    def sample(self, rng, bound=9):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    def inv(self, v):
        if v == 0:
            raise DivisionByZero("division by zero in Q")
        return 1 / v

    def format(self, v):
        return str(v)

    @staticmethod
    def dot(pairs):
        """sum a*b on ``int`` numerators over one running lcm denominator,
        with one ``Fraction`` for the result (ints coerce)."""
        num, den = 0, 1
        for a, b in pairs:
            an, ad = a.as_integer_ratio()
            bn, bd = b.as_integer_ratio()
            d = ad * bd
            if d == den:
                num += an * bn
            else:
                m = lcm(den, d)
                num = num * (m // den) + an * bn * (m // d)
                den = m
        return Fraction(num, den)

    def parse(self, text):
        """A ``Fraction`` literal, read by :meth:`parse_ratio`."""
        num, den = self.parse_ratio(text)
        return Fraction(num, den) if den != 1 else Fraction(num)

    @staticmethod
    def parse_ratio(text):
        """(n, d), d > 0, with n/d the value of a ``Fraction`` literal, not
        necessarily in lowest terms.  A plain ASCII integer or n/d with d
        not zero is read by ``int``; every other text goes to ``Fraction``,
        which keeps its syntax and its error."""
        try:
            plain = _PLAIN_RATIONAL.fullmatch(text)
            if plain:
                num, den = plain.groups()
                return int(num), int(den) if den else 1
            return Fraction(text).as_integer_ratio()
        except (ValueError, ZeroDivisionError) as exc:
            raise AlbertError(f"bad rational literal {text!r}") from exc

    def spec_string(self):
        return "Q"


QQ = RationalField()


class FpElement:
    """An element of a prime field, reduced representative in [0, p)."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def _check(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ParentMismatch("mixed prime fields")
            return other.val
        if isinstance(other, int):
            return other
        return None

    def __add__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val - v, self.p)

    def __rsub__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        return FpElement(v - self.val, self.p)

    def __mul__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        return FpElement(self.val * v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __truediv__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        v %= self.p
        if v == 0:
            raise DivisionByZero(f"division by zero in F{self.p}")
        return FpElement(self.val * pow(v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        v = self._check(other)
        if v is None:
            return NotImplemented
        if self.val == 0:
            raise DivisionByZero(f"division by zero in F{self.p}")
        return FpElement(v * pow(self.val, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.val != 0

    def __hash__(self):
        return hash((self.p, self.val))

    def __repr__(self):
        return f"{self.val}"


class PrimeField(Ring):
    is_field = True

    def __init__(self, p):
        if p >= MAX_MODULUS:
            raise AlbertError("prime field modulus must be below 2^64")
        if not _is_prime(p):
            raise AlbertError(f"{p} is not prime")
        self.p = p

    def zero(self):
        return FpElement(0, self.p)

    def one(self):
        return FpElement(1, self.p)

    def from_int(self, n):
        return FpElement(n, self.p)

    def characteristic(self):
        return self.p

    def sample(self, rng, bound=9):
        return FpElement(rng.randrange(self.p), self.p)

    def inv(self, v):
        return self.one() / v

    def format(self, v):
        return str(v.val)

    @staticmethod
    def dot(pairs):
        """sum a*b as one ``int`` sum of ``val`` products, reduced once.
        The modulus is the first operand's that is not an int; ints coerce,
        and another prime field's elements raise ``ParentMismatch``."""
        a, b = pairs[0]
        x = b if type(a) is int else a
        check = x._check
        total = 0
        for a, b in pairs:
            total += check(a) * check(b)
        return FpElement(total, x.p)

    def parse(self, text):
        try:
            return FpElement(int(text), self.p)
        except ValueError as exc:
            raise AlbertError(f"bad F{self.p} literal {text!r}") from exc

    def spec_string(self):
        return f"F{self.p}"


class PairElement:
    """A pair (a, b) over the base of a quadratic etale ring.

    Sums, differences, quotients and equality are shared; each kind defines
    only its product.  Ints coerce through ``ring.from_int``.
    """

    __slots__ = ("a", "b", "ring")

    def __init__(self, a, b, ring):
        self.a = a
        self.b = b
        self.ring = ring

    def _coerce(self, other):
        if isinstance(other, (PairElement, int)):
            return self.ring._own(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__class__(self.a + o.a, self.b + o.b, self.ring)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__class__(self.a - o.a, self.b - o.b, self.ring)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__class__(o.a - self.a, o.b - self.b, self.ring)

    def __neg__(self):
        return self.__class__(-self.a, -self.b, self.ring)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * self.ring.inv(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.ring.inv(self)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return self.ring.format(self)


class QuadElement(PairElement):
    """a + b*s with s^2 = d, components in the base ring."""

    __slots__ = ()

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.ring.d
        return QuadElement(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            self.ring,
        )

    __rmul__ = __mul__


class SplitElement(PairElement):
    """A pair over the base ring with componentwise operations."""

    __slots__ = ()

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SplitElement(self.a * o.a, self.b * o.b, self.ring)

    __rmul__ = __mul__


class QuadraticEtale(Ring):
    """A rank-2 etale algebra over ``base`` with elements stored as pairs.

    Subclasses fix the element class, ``from_base``, the product, the
    conjugation and the norm; construction from pairs, sampling, formatting
    as ``(a;b)`` and parsing are shared.
    """

    def make(self, a, b):
        """The element with components (a, b); ``element`` is the subclass's
        ``PairElement`` kind."""
        return self.element(a, b, self)

    def components(self, v):
        return (v.a, v.b)

    def zero(self):
        return self.make(self.base.zero(), self.base.zero())

    def one(self):
        return self.from_base(self.base.one())

    def from_int(self, n):
        return self.from_base(self.base.from_int(n))

    def characteristic(self):
        return self.base.characteristic()

    def sample(self, rng, bound=9):
        return self.make(self.base.sample(rng, bound), self.base.sample(rng, bound))

    def _own_pairs(self, pairs):
        own = self._own
        return [(own(x), own(y)) for x, y in pairs]

    def _own(self, v):
        """v as an element of this ring: ints coerce, another ring's
        elements raise ``ParentMismatch``."""
        if isinstance(v, PairElement):
            if v.ring is self or v.ring == self:
                return v
            raise ParentMismatch("mixed quadratic etale rings")
        if isinstance(v, int):
            return self.from_int(v)
        raise TypeError(f"not an element of {self.spec_string()}: {v!r}")

    def base_part(self, v):
        """The base component of a value that conjugation fixes."""
        if self.conj(v) != v:
            raise AlbertError("value is not conjugation invariant")
        return v.a

    def format(self, v):
        return f"({self.base.format(v.a)};{self.base.format(v.b)})"

    def parse(self, text):
        if text.startswith("(") and text.endswith(")") and ";" in text:
            a, b = text[1:-1].split(";")
            return self.make(self.base.parse(a), self.base.parse(b))
        return self.from_base(self.base.parse(text))


class QuadraticExtension(QuadraticEtale):
    """base[s] / (s^2 - d).

    A field when d is a non-square in the base; for square d this is the
    split etale algebra base x base in disguise (callers needing a field must
    check the non-square condition themselves).  Characteristic 2 bases are
    rejected: s^2 - d is inseparable there, so the extension is never etale.
    """

    element = QuadElement

    def __init__(self, base, d):
        if base.is_zero(d):
            raise AlbertError("quadratic extension needs d != 0")
        if base.characteristic() == 2:
            raise AlbertError("s^2 = d is inseparable in characteristic 2")
        self.base = base
        self.d = d
        self.is_field = base.is_field

    def from_base(self, value):
        return QuadElement(value, self.base.zero(), self)

    def conj(self, v):
        return QuadElement(v.a, -v.b, self)

    def norm_to_base(self, v):
        return v.a * v.a - self.d * v.b * v.b

    def dot(self, pairs):
        """sum x*y as three base-ring dots: for x = a + b s and y = c + e s,
        the parts sum a c + d sum b e and sum (a e + b c)."""
        ps = self._own_pairs(pairs)
        dot = self.base.dot
        return QuadElement(
            dot([(x.a, y.a) for x, y in ps] + [(self.d, dot([(x.b, y.b) for x, y in ps]))]),
            dot([(x.a, y.b) for x, y in ps] + [(x.b, y.a) for x, y in ps]),
            self,
        )

    def trace_to_base(self, v):
        return v.a + v.a

    def inv(self, v):
        n = self.norm_to_base(v)
        if self.base.is_zero(n):
            raise DivisionByZero("not invertible in quadratic extension")
        ninv = self.base.inv(n)
        return QuadElement(v.a * ninv, -v.b * ninv, self)

    def extend(self, new_base):
        """Same extension with its base changed to ``new_base``."""
        return QuadraticExtension(new_base, lift(new_base, self.base, self.d))

    def spec_string(self):
        return f"{self.base!r}[s]/(s^2-({self.base.format(self.d)}))"


class SplitQuadratic(QuadraticEtale):
    """The split quadratic etale algebra base x base.

    The exchange of the two factors is the nontrivial automorphism, the genuine
    analogue of conjugation on a quadratic field extension, and the
    representation works in every characteristic.  Not a field: elements with
    exactly one zero component are zero divisors.
    """

    element = SplitElement

    def __init__(self, base):
        self.base = base

    def from_base(self, value):
        return SplitElement(value, value, self)

    def conj(self, v):
        return SplitElement(v.b, v.a, self)

    def norm_to_base(self, v):
        return v.a * v.b

    def dot(self, pairs):
        """sum x*y as two base-ring dots, one per component."""
        ps = self._own_pairs(pairs)
        return SplitElement(self.base.dot([(x.a, y.a) for x, y in ps]),
                            self.base.dot([(x.b, y.b) for x, y in ps]), self)

    def trace_to_base(self, v):
        return v.a + v.b

    def inv(self, v):
        if self.base.is_zero(v.a) or self.base.is_zero(v.b):
            raise DivisionByZero("zero divisor in split quadratic algebra")
        return SplitElement(self.base.inv(v.a), self.base.inv(v.b), self)

    def extend(self, new_base):
        """The split algebra over ``new_base``."""
        return SplitQuadratic(new_base)

    def spec_string(self):
        return f"{self.base!r}xx"


def lift(target, source, value):
    """Lift ``value`` from ``source`` into ``target``.

    ``target`` is either a ring up the extension chain from ``source``, or the
    quadratic or split ring ``source`` with its base changed to
    ``target.base``; in the second case the components are lifted into
    ``target.base``.  A quadratic ring built over ``source`` itself lifts
    through ``from_base``.
    """
    if target == source:
        return value
    if target.base is None:
        raise ParentMismatch(f"cannot lift from {source!r} into {target!r}")
    if _is_base_change(target, source):
        return target.make(*(lift(target.base, source.base, c) for c in source.components(value)))
    return target.from_base(lift(target.base, source, value))


def _is_base_change(target, source):
    return (
        type(target) is type(source)
        and isinstance(source, QuadraticEtale)
        and target.base != source
        and target == source.extend(target.base)
    )

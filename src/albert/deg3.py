"""Degree-3 associative coordinate algebras with reduced norm, trace, adjoint.

Four kinds are provided:

* ``CubicEtale(field, f)`` - field[x]/(f) for a monic separable cubic f;
* ``Matrix3(ring)`` - 3x3 matrices over a commutative ring of the tower;
* ``Cyclic(L, rho_image, b)`` - L + Lz + Lz^2 with z*l = rho(l)*z, z^3 = b;
* ``ProductWithOpposite(D)`` - D x D^op over the split quadratic algebra.

All structural operations (multiplication, characteristic data, adjoint,
involutions) are generic programs: they take an explicit scalar ring S and
coordinate tuples over S, so the same code runs numerically over the base
ring, symbolically over polynomial rings, and along one-parameter families
over rational function fields.

Characteristic data is one division-free program in ``Deg3Algebra``: each
kind supplies ``char_matrix(S, a)``, a 3x3 matrix over a commutative ring
whose characteristic polynomial is the reduced one of a (the regular
representation of ``CubicEtale``, the matrix itself for ``Matrix3``, left
multiplication on 1, z, z^2 over L for ``Cyclic``), whose diagonal sum,
principal minors and determinant are the trace, second coefficient and norm.
``_scalar`` brings a value of that matrix ring back to S; for ``Cyclic`` it
checks that the value lies in the base field.  The adjoint is
a^2 - T(a) a + S(a) 1, except for ``Matrix3``, whose adjoint is the
adjugate.  ``ProductWithOpposite`` runs the inner algebra's characteristic
matrix and adjoint over its split centre, whose arithmetic is componentwise.
Prime characteristics 2 and 3 work unchanged.

Each entry of a ``Matrix3`` product, each minor of the adjugate, the sum of
the principal minors, the determinant and each coordinate of a ``CubicEtale``
product is one :func:`multipoly.dot`: over Q and F_p it builds one
canonical value, not one per product and per sum.  The norm and the trace
of a product are also given as pairs, so that a sum of them is one
:func:`multipoly.dot`: ``norm_pairs`` are the first-row cofactor pairs of
the characteristic matrix (the one pair (1, N(a)) for ``Cyclic``), and
``trace_pairs`` the pairs (a_i, (G b)_i) against the trace Gram matrix G.

The per-algebra tables come from one evaluation at a generic pair X, Y
whose coordinates are variables over the bottom field, not from loops over
basis pairs: the trace Gram matrix is read off T(XY), and an involution is
checked on X and XY.

Two membership predicates serve the second-construction maps:
:func:`is_unitary` (g sigma(g) = 1) and :func:`similitude_multiplier`
(the bottom-field lambda with g sigma(g) = lambda 1, or None).

Elements are thin immutable wrappers (algebra, ring, coords) with operator
syntax on top of the generic programs.

Two algebras are equal when they are of one type and print the same
``descriptor_string()``, the text that rebuilds them; the hash is that
string's.  An attached involution is not part of the descriptor.
"""

from __future__ import annotations

import copy
import functools

from .errors import (
    AlbertError,
    ConstraintError,
    InvolutionError,
    NotInvertible,
    ParentMismatch,
)
from .multipoly import PolyRing, dot
from .scalars import QuadraticEtale, SplitQuadratic, lift
from .upoly import UPoly, is_separable
from . import linalg


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vneg(a):
    return tuple(-x for x in a)


def vscale(c, a):
    return tuple(c * x for x in a)


def _mat3(coords):
    return [list(coords[0:3]), list(coords[3:6]), list(coords[6:9])]


def _flat3(m):
    return tuple(m[i][j] for i in range(3) for j in range(3))


class Deg3Algebra:
    """Shared interface for the four coordinate algebra kinds."""

    base_ring = None
    dim = 0
    kind = "?"
    involution = None

    def one_coords(self, S):
        raise NotImplementedError

    def zero_coords(self, S):
        z = S.zero()
        return (z,) * self.dim

    def lift_coords(self, S, coords):
        """Lift base-ring coordinates into the extension ring S."""
        if S == self.base_ring:
            return tuple(coords)
        return tuple(lift(S, self.base_ring, c) for c in coords)

    def extend_ring(self, S_base):
        """The coefficient ring for coordinates base-changed along S_base.

        For algebras over a quadratic etale center K this is K with its own
        base extended; otherwise it is S_base itself.
        """
        K = self.base_ring
        if isinstance(K, QuadraticEtale):
            return K.extend(S_base)
        return S_base

    def mul(self, S, a, b):
        raise NotImplementedError

    def char_matrix(self, S, a):
        """A 3x3 matrix over a commutative ring whose characteristic
        polynomial is the reduced characteristic polynomial of a."""
        raise NotImplementedError

    def _scalar(self, S, v):
        """A value of the ``char_matrix`` ring as a scalar of S."""
        return v

    def char_data(self, S, a):
        """(T(a), S(a), N(a)) from X^3 - T X^2 + S X - N, division-free."""
        m = self.char_matrix(S, a)
        t, s = _trace_s3(m)
        return self._scalar(S, t), self._scalar(S, s), self._scalar(S, _det3(m))

    def norm(self, S, a):
        return self._scalar(S, _det3(self.char_matrix(S, a)))

    def norm_pairs(self, S, a):
        """Pairs over S whose sum of products is N(a): the first-row
        cofactor pairs of the characteristic matrix, so a sum of norms is
        one :func:`dot` that never forms them one by one."""
        return _cofactor_pairs(self.char_matrix(S, a))

    def trace(self, S, a):
        """Reduced trace: the diagonal sum of the characteristic matrix."""
        m = self.char_matrix(S, a)
        return self._scalar(S, m[0][0] + m[1][1] + m[2][2])

    def _generic_pair(self):
        """(S, X, Y): two generic elements over S = ``extend_ring`` of a
        polynomial ring in 2*dim variables over the bottom field k (the
        base of a quadratic centre, else the base ring); X has the first
        dim variables as coordinates and Y the rest."""
        K = self.base_ring
        R = PolyRing(K.base if isinstance(K, QuadraticEtale) else K, 2 * self.dim)
        S = self.extend_ring(R)
        gens = [lift(S, R, g) for g in R.gens()]
        return S, tuple(gens[:self.dim]), tuple(gens[self.dim:])

    @functools.cached_property
    def trace_gram(self):
        """dim x dim matrix of T(e_i e_j) over the base ring.

        T(XY) is k-bilinear, so one evaluation at the generic pair holds
        every T(e_i e_j) as its x_i y_j coefficient; over a quadratic
        centre each component of the value gives one component of G."""
        K, n = self.base_ring, self.dim
        S, X, Y = self._generic_pair()
        value = self.trace(S, self.mul(S, X, Y))
        quadratic = isinstance(K, QuadraticEtale)
        tables = []
        for part in S.components(value) if quadratic else (value,):
            table = [[part.ring.field.zero()] * n for _ in range(n)]
            for (i, j), c in part.part(2).items():
                table[i][j - n] = c
            tables.append(table)
        return [list(map(K.make, *rows)) for rows in zip(*tables)] if quadratic else tables[0]

    def trace_pairs(self, S, a, b):
        """The pairs (a_i, (G b)_i) against the cached trace Gram matrix G,
        zeros skipped: their sum of products is T(a*b), without forming
        the product for large symbolic operands."""
        gb = linalg.mat_vec(self.trace_gram, b, S, self.base_ring)
        return [(u, v) for u, v in zip(a, gb) if u and v]

    def trace_of_product(self, S, a, b):
        """T(a*b) as one :func:`dot` of ``trace_pairs``."""
        pairs = self.trace_pairs(S, a, b)
        return dot(pairs) if pairs else S.zero()

    def sharp(self, S, a):
        """Adjoint: a^2 - T(a) a + S(a) 1; satisfies a a^# = N(a) 1 exactly."""
        t, s = (self._scalar(S, v) for v in _trace_s3(self.char_matrix(S, a)))
        return self._adjoint(S, a, t, s)

    def _adjoint(self, S, a, t, s):
        """a^2 - t a + s 1 for the trace t and second coefficient s of a."""
        sq = self.mul(S, a, a)
        return vadd(vsub(sq, vscale(t, a)), vscale(s, self.one_coords(S)))

    def inverse_coords(self, S, a):
        """N(a)^{-1} a^#, with T, S and N from one characteristic matrix."""
        t, s, n = self.char_data(S, a)
        if S.is_zero(n):
            raise NotInvertible("element has reduced norm 0")
        return vscale(S.inv(n), self._adjoint(S, a, t, s))

    def trace_pairing(self, S, a, b):
        """T(a*b), the reduced trace of the associative product."""
        return self.trace(S, self.mul(S, a, b))

    def attach_involution(self, involution):
        involution.validate(self)
        alg = self.clone()
        alg.involution = involution
        return alg

    def clone(self):
        return copy.copy(self)

    def involution_apply(self, S, a):
        if self.involution is None:
            raise InvolutionError("algebra has no involution attached")
        return self.involution.apply(self, S, a)

    # elements over the base ring

    def element(self, coords, ring=None):
        """An element from coordinates; an element of this algebra is
        returned unchanged, one of another algebra is refused."""
        if isinstance(coords, Element):
            if coords.algebra is not self and coords.algebra != self:
                raise ParentMismatch("elements of different algebras")
            return coords
        ring = ring or self.base_ring
        return Element(self, ring, tuple(coords))

    def one(self, ring=None):
        ring = ring or self.base_ring
        return Element(self, ring, self.one_coords(ring))

    def zero(self, ring=None):
        ring = ring or self.base_ring
        return Element(self, ring, self.zero_coords(ring))

    def basis(self, ring=None):
        ring = ring or self.base_ring
        z, o = ring.zero(), ring.one()
        out = []
        for i in range(self.dim):
            coords = [z] * self.dim
            coords[i] = o
            out.append(Element(self, ring, tuple(coords)))
        return out

    def sample(self, rng, bound=9, ring=None):
        ring = ring or self.base_ring
        return Element(self, ring, tuple(ring.sample(rng, bound) for _ in range(self.dim)))

    def sample_invertible(self, rng, bound=9):
        for _ in range(1000):
            a = self.sample(rng, bound)
            if not self.base_ring.is_zero(a.norm()):
                return a
        raise AlbertError("failed to sample an invertible element")

    def descriptor_string(self):
        raise NotImplementedError

    def __eq__(self, other):
        return self is other or (type(other) is type(self)
                                 and other.descriptor_string() == self.descriptor_string())

    def __hash__(self):
        return hash(self.descriptor_string())

    def __repr__(self):
        return self.descriptor_string()


class Element:
    """Immutable algebra element: coordinates over a scalar ring."""

    __slots__ = ("algebra", "ring", "coords")

    def __init__(self, algebra, ring, coords):
        self.algebra = algebra
        self.ring = ring
        self.coords = tuple(coords)

    def _coerce(self, other):
        if isinstance(other, Element):
            other = self.algebra.element(other)
            if other.ring != self.ring:
                raise ParentMismatch("elements over different scalar rings")
            return other
        if isinstance(other, int):
            return Element(
                self.algebra,
                self.ring,
                vscale(self.ring.from_int(other), self.algebra.one_coords(self.ring)),
            )
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Element(self.algebra, self.ring, vadd(self.coords, o.coords))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Element(self.algebra, self.ring, vsub(self.coords, o.coords))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Element(self.algebra, self.ring, vneg(self.coords))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Element(self.algebra, self.ring, self.algebra.mul(self.ring, self.coords, o.coords))

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def scale(self, c):
        return Element(self.algebra, self.ring, vscale(c, self.coords))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def __bool__(self):
        return any(not self.ring.is_zero(c) for c in self.coords)

    def __hash__(self):
        return hash((self.algebra.kind, self.coords))

    def char_data(self):
        return self.algebra.char_data(self.ring, self.coords)

    def norm(self):
        return self.algebra.norm(self.ring, self.coords)

    def trace(self):
        return self.algebra.trace(self.ring, self.coords)

    def sharp(self):
        return Element(self.algebra, self.ring, self.algebra.sharp(self.ring, self.coords))

    def inverse(self):
        return Element(self.algebra, self.ring, self.algebra.inverse_coords(self.ring, self.coords))

    def conj(self):
        return Element(
            self.algebra, self.ring, self.algebra.involution_apply(self.ring, self.coords)
        )

    def is_invertible(self):
        return not self.ring.is_zero(self.norm())

    def __repr__(self):
        return f"<{self.algebra.kind} elt {list(self.coords)!r}>"


class CubicEtale(Deg3Algebra):
    """field[x]/(f) for a monic separable cubic; basis 1, x, x^2."""

    kind = "cubic-etale"
    dim = 3

    def __init__(self, field, f):
        if isinstance(f, (list, tuple)):
            f = UPoly(list(f), field)
        if f.degree != 3 or not f.is_monic():
            raise ConstraintError("minimal polynomial must be a monic cubic")
        if not is_separable(f):
            raise ConstraintError("inseparable cubic", code="inseparable-cubic")
        self.base_ring = field
        self.f = f
        # x^3 and x^4 reduced mod f, as coordinate triples
        f0, f1, f2 = f.coeffs[0], f.coeffs[1], f.coeffs[2]
        self._x3 = (-f0, -f1, -f2)
        x4 = vadd(vscale(-f2, self._x3), (field.zero(), -f0, -f1))
        self._x4 = x4
        self._lifted = {}

    def _reductions(self, S):
        """x^3 and x^4 mod f lifted into S.  The lifts are kept per ring,
        so an equal ring built afresh finds them; past eight rings the
        store starts over.  Without it a scenario's thousand or so ``mul``
        calls each lift again: ``scenarios`` ran 11% fewer ops/s."""
        got = self._lifted.get(S)
        if got is None:
            if len(self._lifted) >= 8:
                self._lifted.clear()
            got = self._lifted[S] = (self.lift_coords(S, self._x3), self.lift_coords(S, self._x4))
        return got

    def one_coords(self, S):
        return (S.one(), S.zero(), S.zero())

    def mul(self, S, a, b):
        """Coordinate j is one :func:`dot`: the raw coefficient of x^j of
        a(x) b(x), plus those of x^3 and x^4 times their reductions mod f."""
        a0, a1, a2 = a
        b0, b1, b2 = b
        c3 = dot([(a1, b2), (a2, b1)])
        c4 = a2 * b2
        x3, x4 = self._reductions(S)
        low = ([(a0, b0)], [(a0, b1), (a1, b0)], [(a0, b2), (a1, b1), (a2, b0)])
        return tuple(dot(pairs + [(c3, r3), (c4, r4)]) for pairs, r3, r4 in zip(low, x3, x4))

    def char_matrix(self, S, a):
        """The regular representation: columns a*1, a*x, a*x^2."""
        basis = [
            (S.one(), S.zero(), S.zero()),
            (S.zero(), S.one(), S.zero()),
            (S.zero(), S.zero(), S.one()),
        ]
        return linalg.transpose([self.mul(S, a, b) for b in basis])

    def descriptor_string(self):
        coeffs = ",".join(self.base_ring.format(c) for c in self.f.coeffs)
        return f"cubic_etale({self.base_ring.spec_string()},f=[{coeffs}])"


def _cofactor_pairs(m):
    """The pairs (m[0][j], cofactor j) of the expansion of det m along the
    first row, each cofactor a two-pair minor :func:`dot`; a zero entry or
    a zero minor gives no pair."""
    (a, b, c), (d, e, f), (g, h, i) = m
    pairs = []
    for r, p, q, s, t in ((a, e, i, f, h), (b, f, g, d, i), (c, d, h, e, g)):
        if r:
            minor = dot([(p, q), (-s, t)])
            if minor:
                pairs.append((r, minor))
    return pairs


def _det3(m):
    """det m as one :func:`dot` of its cofactor pairs; with no pair, the
    zero of the entries' ring."""
    pairs = _cofactor_pairs(m)
    return dot(pairs) if pairs else m[0][0] - m[0][0]


def _trace_s3(m):
    """Trace and sum of principal 2x2 minors of a 3x3 matrix; the minors
    are one six-pair :func:`dot`."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a + e + i, dot([(a, e), (-b, d), (a, i), (-c, g), (e, i), (-f, h)])


def _adjugate3(m):
    """The adjugate of a 3x3 matrix; each entry is a two-pair minor
    :func:`dot`."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return [
        [dot([(e, i), (-f, h)]), dot([(c, h), (-b, i)]), dot([(b, f), (-c, e)])],
        [dot([(f, g), (-d, i)]), dot([(a, i), (-c, g)]), dot([(c, d), (-a, f)])],
        [dot([(d, h), (-e, g)]), dot([(b, g), (-a, h)]), dot([(a, e), (-b, d)])],
    ]


class Matrix3(Deg3Algebra):
    """3x3 matrices over a commutative ring; coordinates row-major."""

    kind = "matrix3"
    dim = 9

    def __init__(self, ring):
        self.base_ring = ring

    def one_coords(self, S):
        z, o = S.zero(), S.one()
        return (o, z, z, z, o, z, z, z, o)

    def mul(self, S, a, b):
        """Each entry is one three-pair :func:`dot` of a row and a column."""
        cols = [b[j::3] for j in range(3)]
        return tuple(dot(list(zip(a[i:i + 3], col))) for i in (0, 3, 6) for col in cols)

    def char_matrix(self, S, a):
        return _mat3(a)

    def sharp(self, S, a):
        return _flat3(_adjugate3(_mat3(a)))

    def diag(self, entries, ring=None):
        ring = ring or self.base_ring
        z = ring.zero()
        coords = [z] * 9
        for i, e in enumerate(entries):
            coords[4 * i] = e
        return Element(self, ring, tuple(coords))

    def transvection(self, i, j, alpha, ring=None):
        """E_ij(alpha) = 1 + alpha*e_ij, indices 1-based, i != j."""
        ring = ring or self.base_ring
        if i == j:
            raise ConstraintError("transvection needs i != j")
        e = self.one(ring)
        coords = list(e.coords)
        coords[3 * (i - 1) + (j - 1)] = coords[3 * (i - 1) + (j - 1)] + alpha
        return Element(self, ring, tuple(coords))

    def descriptor_string(self):
        return f"matrix3({self.base_ring.spec_string()})"


class Cyclic(Deg3Algebra):
    """Cyclic algebra on the left module basis L + Lz + Lz^2.

    ``rho_image`` is the image of the generator of L under an order-3
    automorphism rho, given explicitly as an L-coordinate triple.  Cyclicity
    of the user's data is verified structurally: rho must be a well-defined
    algebra automorphism with rho^3 = id, rho != id, and fixed subring k.
    Whether the resulting algebra is division (b outside the norms of L) is
    the caller's own assertion and is never checked here.
    """

    kind = "cyclic"
    dim = 9

    def __init__(self, L, rho_image, b, division_asserted=False):
        if not isinstance(L, CubicEtale):
            raise ConstraintError("cyclic algebra needs a cubic etale L")
        field = L.base_ring
        if field.is_zero(b):
            raise ConstraintError("cyclic algebra needs b != 0", code="zero-parameter")
        self.base_ring = field
        self.L = L
        self.b = b
        self.division_asserted = division_asserted
        rho_image = L.element(rho_image).coords
        # rho as a 3x3 matrix over k: columns are rho(1), rho(x), rho(x^2)
        one = L.one_coords(field)
        rx = rho_image
        rx2 = L.mul(field, rx, rx)
        self._rho = [[one[i], rx[i], rx2[i]] for i in range(3)]
        self._validate_rho(field, rx)
        rho2 = linalg.mat_mul(self._rho, self._rho)
        self._rho_pows = [linalg.identity(field, 3), self._rho, rho2]

    def _validate_rho(self, field, rx):
        L = self.L
        # rho(x) must again be a root of f, so the substitution map is an
        # algebra endomorphism
        img = Element(L, field, rx)
        acc = L.zero()
        power = L.one()
        for c in L.f.coeffs:
            acc = acc + power.scale(c)
            power = power * img
        if acc:
            raise ConstraintError("rho image is not a root of the minimal polynomial")
        rho3 = linalg.mat_mul(self._rho, linalg.mat_mul(self._rho, self._rho))
        if not linalg.mat_eq(rho3, linalg.identity(field, 3)):
            raise ConstraintError("rho does not have order dividing 3")
        if linalg.mat_eq(self._rho, linalg.identity(field, 3)):
            raise ConstraintError("rho must be nontrivial")
        fixed = linalg.kernel(field, linalg.mat_sub(self._rho, linalg.identity(field, 3)))
        if len(fixed) != 1:
            raise ConstraintError("rho does not have fixed subring k")

    def one_coords(self, S):
        z = S.zero()
        return (S.one(), z, z, z, z, z, z, z, z)

    def _lparts(self, a):
        return a[0:3], a[3:6], a[6:9]

    def _rho_apply(self, S, power, ell):
        return tuple(linalg.mat_vec(self._rho_pows[power % 3], ell, S, self.base_ring))

    def mul(self, S, a, bb):
        L = self.L
        a0, a1, a2 = self._lparts(a)
        b0, b1, b2 = self._lparts(bb)
        bconst = lift(S, self.base_ring, self.b)
        r = self._rho_apply
        m = lambda u, v: L.mul(S, u, v)
        g0 = vadd(
            m(a0, b0),
            vscale(bconst, vadd(m(a1, r(S, 1, b2)), m(a2, r(S, 2, b1)))),
        )
        g1 = vadd(vadd(m(a0, b1), m(a1, r(S, 1, b0))), vscale(bconst, m(a2, r(S, 2, b2))))
        g2 = vadd(vadd(m(a0, b2), m(a1, r(S, 1, b1))), m(a2, r(S, 2, b0)))
        return g0 + g1 + g2

    def char_matrix(self, S, a):
        """Left multiplication on the right-L-module basis 1, z, z^2, with
        entries in L over S."""
        a0, a1, a2 = self._lparts(a)
        bconst = lift(S, self.base_ring, self.b)
        r = self._rho_apply
        rows = [
            [a0, vscale(bconst, a2), vscale(bconst, a1)],
            [r(S, 2, a1), r(S, 2, a0), vscale(bconst, r(S, 2, a2))],
            [r(S, 1, a2), r(S, 1, a1), r(S, 1, a0)],
        ]
        return [[Element(self.L, S, v) for v in row] for row in rows]

    def _scalar(self, S, v):
        c0, c1, c2 = v.coords
        if not (S.is_zero(c1) and S.is_zero(c2)):
            raise AlbertError("characteristic data did not land in the base field")
        return c0

    def norm_pairs(self, S, a):
        """The one pair (1, N(a)): the characteristic matrix has entries in
        L, and only its determinant lands in the base field."""
        return [(S.one(), self.norm(S, a))]

    def descriptor_string(self):
        f = self.base_ring.format
        rho_col = [self._rho[i][1] for i in range(3)]
        rho = ",".join(f(c) for c in rho_col)
        return (
            f"cyclic({self.L.descriptor_string()},rho=[{rho}],b={f(self.b)})"
        )


class ProductWithOpposite(Deg3Algebra):
    """D x D^op as a 9-dimensional algebra over the split quadratic center.

    Coordinates are split pairs (first component from D, second from D^op) on
    the diagonal basis, so the exchange involution is coordinatewise
    conjugation of the center.  The characteristic matrix and the adjoint
    are the inner algebra's programs run over the split center itself: its
    arithmetic is componentwise, and D^op has D's norm, trace, second
    coefficient and adjoint.  Only the product needs the split.
    """

    kind = "prodop"

    def __init__(self, inner):
        if isinstance(inner.base_ring, QuadraticEtale):
            raise ConstraintError("inner algebra of prodop must be over the bottom field")
        self.inner = inner
        self.base_ring = SplitQuadratic(inner.base_ring)
        self.dim = inner.dim

    def one_coords(self, S):
        return self.inner.one_coords(S)

    def _split(self, S, a):
        xs = tuple(v.a for v in a)
        ys = tuple(v.b for v in a)
        return xs, ys

    def _join(self, S, xs, ys):
        return tuple(S.make(x, y) for x, y in zip(xs, ys))

    def mul(self, S, a, b):
        """The inner products x1 x2 and y2 y1: D^op reverses the order."""
        Sb = S.base
        ax, ay = self._split(S, a)
        bx, by = self._split(S, b)
        zx = self.inner.mul(Sb, ax, bx)
        zy = self.inner.mul(Sb, by, ay)
        return self._join(S, zx, zy)

    def char_matrix(self, S, a):
        return self.inner.char_matrix(S, a)

    def _scalar(self, S, v):
        return self.inner._scalar(S, v)

    def sharp(self, S, a):
        return self.inner.sharp(S, a)

    def descriptor_string(self):
        return f"prodop({self.inner.descriptor_string()})"


class Involution:
    kind = "?"

    def validate(self, algebra):
        """Structural checks on the generic pair X, Y of the algebra, whose
        coordinates are bottom-field variables: first sigma(sigma(X)) = X,
        then sigma(XY) = sigma(Y) sigma(X).  For a k-linear program each
        holds exactly when it holds on every basis element, or every pair
        of basis elements."""
        S, X, Y = algebra._generic_pair()
        sx = self.apply(algebra, S, X)
        if self.apply(algebra, S, sx) != X:
            raise ConstraintError(f"{self.kind} is not involutive")
        sy = self.apply(algebra, S, Y)
        if self.apply(algebra, S, algebra.mul(S, X, Y)) != algebra.mul(S, sy, sx):
            raise ConstraintError(f"{self.kind} is not an anti-homomorphism")

    def apply(self, algebra, S, a):
        raise NotImplementedError

    def descriptor_string(self):
        return self.kind


class ConjugateTranspose(Involution):
    """Entrywise center conjugation composed with transposition, on matrix3."""

    kind = "conjtrans"

    def validate(self, algebra):
        if not isinstance(algebra, Matrix3) or not isinstance(
            algebra.base_ring, QuadraticEtale
        ):
            raise ConstraintError("conjtrans needs matrix3 over a quadratic etale center")
        super().validate(algebra)

    def apply(self, algebra, S, a):
        m = _mat3(a)
        return tuple(S.conj(m[j][i]) for i in range(3) for j in range(3))


class Switch(Involution):
    """The exchange involution on D x D^op: coordinatewise center conjugation."""

    kind = "switch"

    def validate(self, algebra):
        if not isinstance(algebra, ProductWithOpposite):
            raise ConstraintError("switch involution lives on prodop algebras")
        super().validate(algebra)

    def apply(self, algebra, S, a):
        return tuple(S.conj(v) for v in a)


class UTwist(Involution):
    """sigma_u = Int(u) o sigma for an invertible u with sigma(u) = u."""

    kind = "utwist"

    def __init__(self, inner, u):
        self.inner = inner
        self.u = u

    def validate(self, algebra):
        self.inner.validate(algebra)
        base = algebra.base_ring
        u = self.u
        if not u.is_invertible():
            raise ConstraintError("utwist element must be invertible")
        if Element(algebra, base, self.inner.apply(algebra, base, u.coords)) != u:
            raise ConstraintError("utwist element must be sigma-hermitian")
        self._u_inv = u.inverse()
        super().validate(algebra)

    def apply(self, algebra, S, a):
        inner = self.inner.apply(algebra, S, a)
        u = algebra.lift_coords(S, self.u.coords)
        uinv = algebra.lift_coords(S, self._u_inv.coords)
        return algebra.mul(S, u, algebra.mul(S, inner, uinv))

    def descriptor_string(self):
        coords = ",".join(
            self.u.algebra.base_ring.format(c) for c in self.u.coords
        )
        return f"utwist(u=[{coords}])"


def is_unitary(g):
    """Whether g sigma(g) = 1 for the involution sigma of g's algebra."""
    return g * g.conj() == g.algebra.one(g.ring)


def similitude_multiplier(g):
    """The bottom-field lambda with g sigma(g) = lambda 1, or None.

    The algebra has an involution of the second kind over its quadratic
    etale centre K; lambda must be nonzero and fixed by the conjugation of K,
    which also makes g invertible.
    """
    K = g.ring
    gs = (g * g.conj()).coords
    lam = gs[0]
    if K.is_zero(lam) or K.conj(lam) != lam or gs != vscale(lam, g.algebra.one_coords(K)):
        return None
    return K.components(lam)[0]


def transvection_factorization(d):
    """Factor a norm-one 3x3 matrix into transvections E_ij(alpha).

    Returns a list of 1-based triples (i, j, alpha) whose ordered product is
    exactly d.  Gauss-Jordan elimination by row transvections only; length is
    at most 12.
    """
    alg = d.algebra
    field = d.ring
    if not isinstance(alg, Matrix3) or not field.is_field:
        raise ConstraintError("transvection factorization needs matrix3 over a field")
    if d.norm() != field.one():
        raise ConstraintError("element must have reduced norm 1", code="not-norm-one")
    m = [list(d.coords[0:3]), list(d.coords[3:6]), list(d.coords[6:9])]
    ops = []  # applied row operations (i, j, alpha): row_i += alpha * row_j

    def row_op(i, j, alpha):
        if field.is_zero(alpha):
            return
        m[i] = [x + alpha * y for x, y in zip(m[i], m[j])]
        ops.append((i, j, alpha))

    one = field.one()
    for k in range(2):
        if m[k][k] != one:
            # fix the pivot to exactly 1 using a row strictly below it, so
            # already finished columns are never disturbed
            src = None
            for i in range(k + 1, 3):
                if not field.is_zero(m[i][k]):
                    src = i
                    break
            if src is None:
                src = k + 1
                row_op(src, k, one)
            row_op(k, src, (one - m[k][k]) / m[src][k])
        for i in range(3):
            if i != k and not field.is_zero(m[i][k]):
                row_op(i, k, -m[i][k])
    # after elimination the lower-right entry equals det = 1; clear above it
    for i in range(2):
        if not field.is_zero(m[i][2]):
            row_op(i, 2, -m[i][2])
    factors = [(i + 1, j + 1, -alpha) for (i, j, alpha) in ops]
    if len(factors) > 12:
        raise AlbertError("factorization exceeded the 12-factor bound")
    check = alg.one(field)
    for (i, j, alpha) in factors:
        check = check * alg.transvection(i, j, alpha, field)
    if check != d:
        raise AlbertError("transvection factorization failed to reassemble")
    return factors


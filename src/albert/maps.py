"""Verified norm similarities and automorphisms.

The central operation is :func:`certify`: given a square matrix f over the
base field of a cubic norm structure, it expands N(f(X)) and N(X) as sparse
normal forms in generic coordinates and succeeds exactly when the first is a
nonzero scalar multiple nu of the second.  That comparison is coefficient
level, hence rigorous in every characteristic.  A map is an automorphism
exactly when nu = 1 and it fixes the base point.  The one map admitted
without that expansion is one whose multiplier its caller has already decided
at the coefficient level: an endpoint of a path, read off the path's identity
over k[t, X] (see :func:`albert.rpaths.path_certify`).

Every explicit constructor in this module builds its matrix from the defining
formula and then runs certify on the result; constructors never self-certify
by fiat.  Side conditions are checked up front and violations are rejected,
never repaired.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import (
    AlbertError,
    ConstraintError,
    NotInvertible,
    ParentMismatch,
    SimilarityError,
)
from .multipoly import PolyRing, proportionality
from .deg3 import Element, is_unitary, similitude_multiplier
from .tits import FirstTits, SecondTits
from . import linalg


class SimilarityMap:
    """An invertible linear map with a certified norm multiplier.

    ``parent`` is the source structure; ``target`` differs from it only for
    identification maps between two constructions.
    """

    __slots__ = ("parent", "target", "matrix", "multiplier", "is_automorphism")

    def __init__(self, parent, target, matrix, multiplier, is_automorphism):
        self.parent = parent
        self.target = target
        self.matrix = matrix
        self.multiplier = multiplier
        self.is_automorphism = is_automorphism

    def apply(self, vec):
        return tuple(linalg.mat_vec(self.matrix, list(vec)))

    def __eq__(self, other):
        if not isinstance(other, SimilarityMap):
            return NotImplemented
        return self.parent is other.parent and linalg.mat_eq(self.matrix, other.matrix)

    def is_identity(self):
        field = self.parent.field
        return linalg.mat_eq(self.matrix, linalg.identity(field, self.parent.dim))

    def __repr__(self):
        kind = "automorphism" if self.is_automorphism else "similarity"
        return (
            f"<{kind} of {self.parent.label}, "
            f"multiplier {self.parent.field.format(self.multiplier)}>"
        )


def certify_between(target, source, matrix):
    """Certify a linear map from ``source`` to ``target`` coordinates as a
    norm similarity: N_target(M X) = nu N_source(X) at the coefficient level.
    """
    if target.field != source.field:
        raise ParentMismatch("source and target over different fields")
    n = source.dim
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise AlbertError("matrix has wrong shape")
    return _similarity(target, source, matrix)


def _similarity(target, source, matrix, nu=None):
    """The map of a square ``matrix``: its rank is checked first, then, unless
    the caller gives a multiplier ``nu`` it has proved, N_target(M X) =
    nu N_source(X) is decided by expanding both norms."""
    field = source.field
    n = source.dim
    if linalg.rank(field, matrix) != n:
        raise SimilarityError("matrix is singular", code="singular-matrix")
    if nu is None:
        ring = PolyRing(field, n)
        fX = [ring.linear_form([(c,) for c in row]) for row in matrix]
        composed = target.norm_program(ring, fX)
        plain = source.norm_program(ring, ring.gens())
        nu = proportionality(composed, plain)
        if nu is None or field.is_zero(nu):
            raise SimilarityError("norm forms are not proportional")
    img_unit = linalg.mat_vec(matrix, list(source.unit))
    is_auto = nu == field.one() and tuple(img_unit) == tuple(target.unit)
    return SimilarityMap(source, target, [list(r) for r in matrix], nu, is_auto)


_scope = ContextVar("the maps certified in the open certification scope", default=None)


@contextmanager
def certifying():
    """A certification scope, also usable as a decorator: inside it,
    :func:`certify` certifies each distinct matrix of a structure once.  A
    scope opened inside another joins it; each thread has its own."""
    token = _scope.set([] if _scope.get() is None else _scope.get())
    try:
        yield
    finally:
        _scope.reset(token)


def certify(J, matrix, multiplier=None):
    """Certify an endomorphism matrix of J as a norm similarity, once per scope.

    A ``multiplier`` is a nonzero nu for which the caller has already decided
    N(M X) = nu N(X) at the coefficient level, as
    :func:`albert.rpaths.path_certify` has for the endpoints of a path; the
    norm is then not expanded again.  The map already in the scope for an
    equal matrix is returned as it is."""
    scope = _scope.get()
    for f in scope or ():
        if f.parent is J and linalg.mat_eq(f.matrix, matrix):
            return f
    if multiplier is None:
        f = certify_between(J, J, matrix)
    else:
        f = _similarity(J, J, matrix, multiplier)
    if scope is not None:
        scope.append(f)
    return f


def u_similarity(J, a):
    """The U-operator of an invertible a as a certified similarity; its
    multiplier is N(a)^2."""
    if J.field.is_zero(J.norm(a)):
        raise NotInvertible("U-operator of a norm-zero element is singular")
    return certify(J, J.u_matrix(a))


def first_tits_map(J, images, ring):
    """Matrix over ``ring`` of a block-wise map on the carrier D + D + D.

    ``images`` holds three functions.  ``images[i]`` takes a basis element e
    of D over ``ring`` and returns the image of e in block i as an element of
    D over ``ring``; that image lands in block i again.  ``ring`` is the base
    field for a single map and k(t) for a one-parameter family.
    """
    basis = J.D.basis(ring)
    return linalg.transpose(
        [J.embed(image(e), block) for block, image in enumerate(images) for e in basis]
    )


def aut_conj_I(J, d):
    """Coordinatewise conjugation (x,y,z) -> (d x d^{-1}, d y d^{-1}, d z d^{-1})."""
    if not isinstance(J, FirstTits):
        raise AlbertError("conjugation map lives on a first construction")
    d = J.D.element(d)
    if not d.is_invertible():
        raise NotInvertible("conjugating element must be invertible")
    dinv = d.inverse()
    conj = lambda e: d * e * dinv
    return certify(J, first_tits_map(J, [conj, conj, conj], J.field))


def aut_J(J, c_elt, variant):
    """The two printed one-parameter stabilizer maps for norm-one c.

    variant "A": (x, y, z) -> (x, y c, c^{-1} z c)
    variant "B": (x, y, z) -> (x, y c, c^{-1} z)

    Exactly one of them survives certification in general; the oracle
    decides, and :func:`jmap_disambiguation` reports the outcome.
    """
    if not isinstance(J, FirstTits):
        raise AlbertError("J-maps live on a first construction")
    c_elt = J.D.element(c_elt)
    if c_elt.norm() != J.field.one():
        raise ConstraintError("J-map needs a norm-one element", code="not-norm-one")
    cinv = c_elt.inverse()
    if variant == "A":
        third = lambda e: cinv * e * c_elt
    elif variant == "B":
        third = lambda e: cinv * e
    else:
        raise AlbertError(f"unknown J-map variant {variant!r}")
    images = [lambda e: e, lambda e: e * c_elt, third]
    return certify(J, first_tits_map(J, images, J.field))


def jmap_disambiguation(J, c_elt):
    """Try both J-map variants; return {variant: SimilarityMap | error message}."""
    out = {}
    for variant in ("A", "B"):
        try:
            out[variant] = aut_J(J, c_elt, variant)
        except SimilarityError as exc:
            out[variant] = f"rejected: {exc}"
    return out


def aut_ext_D(J, g, h):
    """(x, y, z) -> (g x g^{-1}, g y h^{-1}, h z g^{-1}) for N(g) = N(h).

    Extends conjugation by g on the first summand to an automorphism of the
    whole first construction.
    """
    if not isinstance(J, FirstTits):
        raise AlbertError("extension map lives on a first construction")
    g, h = J.D.element(g), J.D.element(h)
    if not g.is_invertible() or not h.is_invertible():
        raise NotInvertible("g and h must be invertible")
    if g.norm() != h.norm():
        raise ConstraintError("requires N(g) = N(h)", code="norm-mismatch")
    ginv, hinv = g.inverse(), h.inverse()
    images = [lambda e: g * e * ginv, lambda e: g * e * hinv, lambda e: h * e * ginv]
    return certify(J, first_tits_map(J, images, J.field))


def str_ext_D(J, gamma, a, b, c):
    """(x, y, z) -> gamma (a x b, b^# y c, c^{-1} z a^#) with N(a) = N(b)N(c).

    Certified similarity; its multiplier obeys nu = gamma^3 N(a) N(b), a law
    first confirmed by the certify oracle and then asserted by the tests.
    """
    if not isinstance(J, FirstTits):
        raise AlbertError("extension map lives on a first construction")
    field = J.field
    if field.is_zero(gamma):
        raise ConstraintError("gamma must be nonzero", code="norm-constraint-violated")
    a, b, c = (J.D.element(v) for v in (a, b, c))
    if not all(v.is_invertible() for v in (a, b, c)):
        raise NotInvertible("a, b, c must be invertible")
    if a.norm() != b.norm() * c.norm():
        raise ConstraintError(
            "requires N(a) = N(b)N(c)", code="norm-constraint-violated"
        )
    bsharp = b.sharp()
    asharp = a.sharp()
    cinv = c.inverse()
    images = [
        lambda e: (a * e * b).scale(gamma),
        lambda e: (bsharp * e * c).scale(gamma),
        lambda e: (cinv * e * asharp).scale(gamma),
    ]
    return certify(J, first_tits_map(J, images, J.field))


def _second_tits_map(J, herm_image, free_image):
    """Matrix of a map on a second construction given by an image function on
    hermitian elements and one on the free block."""
    B = J.B
    K = J.K
    m = B.dim
    cols = []
    for i in range(m):
        b = Element(B, K, J._herm_K[i])
        cols.append(list(J.embed_hermitian(herm_image(b))))
    for i in range(m):
        for comp in range(2):
            coords = [K.zero()] * m
            coords[i] = K.make(J.field.one(), J.field.zero()) if comp == 0 else \
                K.make(J.field.zero(), J.field.one())
            x = Element(B, K, tuple(coords))
            img = free_image(x)
            cols.append(list(J.embed_b(img)))
    return linalg.transpose(cols)


def _unitary_twisted(J, q):
    """q in U(B, sigma_u) with sigma_u = Int(u) o sigma."""
    B = J.B
    s_u_q = J.u * q.conj() * J.u_inv
    return (q * s_u_q) == B.one()


def aut_ext_second(J, g, q):
    """(a, b) -> (g a g^{-1}, lam^{-1} sigma(g)^# b q), for g a similitude of
    (B, sigma) with multiplier lam and q in U(B, sigma_u) with
    N(q) = conj(nu)^{-1} nu, nu = N(g).
    """
    if not isinstance(J, SecondTits):
        raise AlbertError("extension map lives on a second construction")
    B, K = J.B, J.K
    g = B.element(g)
    q = B.element(q)
    lam = similitude_multiplier(g)
    if lam is None:
        raise ConstraintError("g is not a similitude", code="not-a-similitude")
    nu = g.norm()
    if not _unitary_twisted(J, q) or q.norm() != K.inv(K.conj(nu)) * nu:
        raise ConstraintError(
            "q must be twisted-unitary with N(q) = conj(N(g))^{-1} N(g)",
            code="bad-q-norm",
        )
    ginv = g.inverse()
    sg_sharp = g.conj().sharp()
    lam_inv = K.from_base(J.field.inv(lam))
    herm_image = lambda b: g * b * ginv
    free_image = lambda x: (sg_sharp * x * q).scale(lam_inv)
    return certify(J, _second_tits_map(J, herm_image, free_image))


def aut_stab_second(J, p, q):
    """(a, b) -> (p a p^{-1}, p b q) for p in U(B, sigma), q in U(B, sigma_u)
    and N(p)N(q) = 1."""
    if not isinstance(J, SecondTits):
        raise AlbertError("stabilizer map lives on a second construction")
    B, K = J.B, J.K
    p = B.element(p)
    q = B.element(q)
    if not is_unitary(p):
        raise ConstraintError("p is not unitary", code="not-a-similitude")
    if not _unitary_twisted(J, q):
        raise ConstraintError("q is not twisted-unitary", code="bad-q-norm")
    if p.norm() * q.norm() != K.one():
        raise ConstraintError("requires N(p)N(q) = 1", code="norm-mismatch")
    pinv = p.inverse()
    herm_image = lambda a: p * a * pinv
    free_image = lambda x: p * x * q
    return certify(J, _second_tits_map(J, herm_image, free_image))


def str_ext_second(J, gamma, g, q):
    """(b, x) -> gamma (g b sigma(g), sigma(g)^# x q) for invertible g and
    q in U(B, sigma_u) with N(q) = N(sigma(g)^{-1} g)."""
    if not isinstance(J, SecondTits):
        raise AlbertError("extension map lives on a second construction")
    B, K = J.B, J.K
    field = J.field
    if field.is_zero(gamma):
        raise ConstraintError("gamma must be nonzero", code="norm-constraint-violated")
    g = B.element(g)
    q = B.element(q)
    if not g.is_invertible():
        raise NotInvertible("g must be invertible")
    sg = g.conj()
    if not _unitary_twisted(J, q) or q.norm() != (sg.inverse() * g).norm():
        raise ConstraintError(
            "q must be twisted-unitary with N(q) = N(sigma(g)^{-1} g)",
            code="bad-q-norm",
        )
    sg_sharp = sg.sharp()
    gamma_K = K.from_base(gamma)
    herm_image = lambda b: (g * b * sg).scale(gamma_K)
    free_image = lambda x: (sg_sharp * x * q).scale(gamma_K)
    return certify(J, _second_tits_map(J, herm_image, free_image))


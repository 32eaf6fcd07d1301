"""One-parameter rational families of norm similarities and equivalence
certificates.

An :class:`RPath` is an n x n matrix over k(t) that is a norm similarity at
the generic fiber (N(f(X)) = nu(t) N(X) at the coefficient level in k(t)),
with every entry and the multiplier regular and the multiplier nonvanishing
at t = 0 and t = 1.  Its endpoints are read off that identity: specializing
t -> p is a ring map k[t, X] -> k[X], so each endpoint is a similarity with
the family's multiplier at p; only its rank and base point are checked.  A
build and a check each run in their own certification scope
(:func:`albert.maps.certifying`), so each certifies every distinct matrix
once, and a check shares nothing with the builder.  The one norm expansion
over k[X] is the target's: a check makes it for the stored target and a
build for the automorphism it contracts.

An :class:`RCertificate` chains paths from a target automorphism to the
identity: the first path starts at the target, consecutive endpoints agree,
and the last path ends at the identity map.  Inside the scope equal matrices
are one map, so the start and each link compare certified maps with ``is``
and this module compares no matrix itself.  Certificates are built here for
the explicitly parameterized stabilizer maps of a split first construction;
paths are stored as plain matrices over k(t), never as symbolic compositions,
precisely so the independent checker re-derives everything from the stored
entries.
"""

from __future__ import annotations

from .errors import AlbertError, ConstraintError, LimitExceeded, NotInvertible, PathError
from .upoly import UPoly, RatFunc, RationalFunctionField, poly_lcm
from .multipoly import PolyRing
from .deg3 import CubicEtale, Matrix3, transvection_factorization
from .tits import FirstTits
from .maps import aut_conj_I, aut_ext_D, aut_J, certify, certifying, str_ext_D
from .report import Report
from . import linalg


class RPath:
    """A certified one-parameter family of norm similarities."""

    __slots__ = ("parent", "matrix", "multiplier", "start", "end")

    def __init__(self, parent, matrix, multiplier, start, end):
        self.parent = parent
        self.matrix = matrix
        self.multiplier = multiplier
        self.start = start
        self.end = end

    def is_automorphism_family(self):
        """Whether the multiplier is identically 1 in k(t)."""
        Rt = self.multiplier.ring
        return self.multiplier == Rt.one()

    def __repr__(self):
        return f"<RPath on {self.parent.label}>"


def function_field(J):
    return RationalFunctionField(J.field, "t")


def _toward_one(Rt, a):
    """a_t = (1-t) a + t over k(t): a at t = 0, the unit at t = 1."""
    t = Rt.gen()
    D = a.algebra
    lifted = D.element(D.lift_coords(Rt, a.coords), Rt)
    return lifted.scale(Rt.one() - t) + D.one(Rt).scale(t)


def path_certify(J, matrix):
    """Certify a matrix over k(t) as a one-parameter family of similarities.

    Denominators are cleared, the generic-fiber similarity identity
    N(q g(t) X) = w(t) N(X) is decided at the coefficient level in k[t, X],
    and regularity and nonvanishing of the multiplier at 0 and 1 are checked
    syntactically on canonical forms (q(p) and w(p) nonzero).  Each endpoint
    g(p) is then the specialization t -> p of that identity, so it is a
    similarity with multiplier w(p) q(p)^-3: it is admitted with that
    multiplier after a rank check, with no second norm expansion, unless the
    certification scope already holds it, in which case :func:`maps.certify`
    checks that the two multipliers agree.
    """
    field = J.field
    n = J.dim
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise AlbertError("path matrix has wrong shape")
    Rt = matrix[0][0].ring
    # common denominator q (the monic lcm of the distinct canonical
    # denominators) and cleared numerators; t - p is prime, so an entry has a
    # pole at p exactly when q(p) = 0, a cheap test run before the symbolic work
    q = UPoly.const(field.one(), field)
    dens = dict.fromkeys(v.den for row in matrix for v in row)
    for den in dens:
        q = poly_lcm(q, den)
    endpoints = ((field.zero(), "0"), (field.one(), "1"))
    q_at = [q(point) for point, _ in endpoints]
    for qp, (_, name) in zip(q_at, endpoints):
        if field.is_zero(qp):
            raise PathError(
                f"matrix entry has a pole at t = {name}",
                code="pole-at-endpoint",
            )
    # a zero entry stays the zero numerator, and an entry over q itself is
    # not multiplied
    cofactor = {den: q.exact_div(den) for den in dens if den != q}
    cleared = [[v.num * cofactor[v.den] if v and v.den in cofactor else v.num
                for v in row] for row in matrix]
    # generic fiber check in k[t, X1..Xn]: variable 0 is t
    ring = PolyRing(field, ["t"] + [f"x{i+1}" for i in range(n)])
    fX = [ring.linear_form([p.coded for p in row], first=1, dens=[p.den for p in row])
          for row in cleared]
    composed = J.norm_program(ring, fX)
    plain = J.norm_program(ring, ring.gens()[1:])
    if not plain:
        raise AlbertError("norm form vanished; invalid structure")
    # the multiplier is the t-profile of the composed form at a reference
    # X-monomial of the plain one, divided by the plain coefficient there
    x_exps = ring.unpack(next(iter(plain.terms)))[1:]
    binv = field.inv(plain.coefficient([0] + x_exps))
    w = UPoly([composed.coefficient([d] + x_exps) * binv
               for d in range(composed.degbound + 1)], field)
    w_mp = ring.univariate(w.coeffs)
    if composed != plain * w_mp:
        raise PathError(
            "family is not a norm similarity at the generic fiber",
            code="generic-fiber-failure",
        )
    if not w:
        raise PathError(
            "multiplier vanishes identically", code="generic-fiber-failure"
        )
    nu = RatFunc(w, q * q * q, Rt)
    # the canonical denominator of w/q^3 divides q^3, which is nonzero at both
    # endpoints, so the multiplier has no pole there; it vanishes at p exactly
    # when w(p) = 0, and its value there is w(p) q(p)^-3
    nu_at = []
    for qp, (point, name) in zip(q_at, endpoints):
        wp = w(point)
        if field.is_zero(wp):
            raise PathError(
                f"multiplier vanishes at t = {name}",
                code="multiplier-vanishes-at-endpoint",
            )
        nu_at.append(wp * field.inv(qp * qp * qp))
    # each endpoint matrix g(p) is the cleared numerators at p times q(p)^-1;
    # t -> p is a ring map k[t, X] -> k[X], so the identity decided above
    # gives N(g(p) X) = w(p) q(p)^-3 N(X) with no second expansion
    zero = field.zero()
    ends = []
    for qp, nup, (point, _) in zip(q_at, nu_at, endpoints):
        qinv = field.inv(qp)
        ends.append(certify(J, [[p(point) * qinv if p else zero for p in row]
                                for row in cleared], nup))
    return RPath(J, [list(r) for r in matrix], nu, *ends)


def compose_path_with_map(path, simmap):
    """The family t -> f(g(t)) for a constant certified f; used to shift a
    contraction so it starts at a composite map."""
    J = path.parent
    Rt = path.matrix[0][0].ring
    lifted = [[Rt.from_base(v) for v in row] for row in simmap.matrix]
    product = linalg.mat_mul(lifted, path.matrix)
    return path_certify(J, product)


@certifying()
def conj_path(J, a):
    """The contraction of coordinatewise conjugation: conjugate every block by
    a_t = (1-t) a + t.  Starts at the conjugation map of a, ends at the
    identity; denominators divide powers of N(a_t), which is nonzero at both
    endpoints."""
    if not isinstance(J, FirstTits):
        raise AlbertError("conjugation paths live on a first construction")
    a = J.D.element(a)
    if not a.is_invertible():
        raise NotInvertible("conjugating element must be invertible")
    Rt = function_field(J)
    a_t = _toward_one(Rt, a)
    a_t_inv = a_t.inverse()
    conj = lambda e: a_t * e * a_t_inv
    path = path_certify(J, J.map_matrix([conj, conj, conj], Rt))
    if path.start is not aut_conj_I(J, a):
        raise AlbertError("conjugation path start mismatch")
    if not path.end.is_identity():
        raise AlbertError("conjugation path end is not the identity")
    return path


def transvection_path(alg, d):
    """gamma(t): scale each transvection factor E_ij(alpha) of d to
    E_ij((1-t) alpha); polynomial in t, gamma(0) = d, gamma(1) = 1 and
    N(gamma(t)) = 1 identically."""
    factors = transvection_factorization(d)
    field = alg.base_ring
    Rt = RationalFunctionField(field, "t")
    t = Rt.gen()
    one_mt = Rt.one() - t
    acc = alg.one(Rt)
    for (i, j, alpha) in factors:
        acc = acc * alg.transvection(i, j, one_mt * Rt.from_base(alpha), Rt)
    return acc


@certifying()
def sl1_path_split(J, d):
    """The J-map family of a norm-one d over split coordinates:
    (x, y, z) -> (x, y gamma(t), gamma(t)^{-1} z), which starts at variant
    "B" of :func:`albert.maps.aut_J` and ends at the identity.

    The coordinate algebra must be split (3x3 matrices over the base field):
    the elementary factorization that realizes the family constructively does
    not exist for division coordinate algebras, which is a documented
    limitation.
    """
    if not isinstance(J, FirstTits):
        raise AlbertError("SL1 paths live on a first construction")
    D = J.D
    if not isinstance(D, Matrix3) or not D.base_ring.is_field or \
            D.base_ring != J.field:
        raise ConstraintError(
            "SL1 path needs split matrix coordinates", code="non-split-coordinates"
        )
    d = D.element(d)
    if d.norm() != J.field.one():
        raise ConstraintError("element must have reduced norm 1", code="not-norm-one")
    gamma = transvection_path(D, d)
    gamma_inv = gamma.inverse()
    images = [lambda e: e, lambda e: e * gamma, lambda e: gamma_inv * e]
    path = path_certify(J, J.map_matrix(images, gamma.ring))
    if path.start is not aut_J(J, d, "B"):
        raise AlbertError("SL1 path start mismatch")
    if not path.end.is_identity():
        raise AlbertError("SL1 path end is not the identity")
    return path


@certifying()
def str_path(J, a, b, d):
    """The contraction of a first-summand-stabilizing similarity:

        (x, y, z) -> (a_t x b_t, b_t^# y c_t, c_t^{-1} z a_t^#)

    with a_t = (1-t)a + t, b_t = (1-t)b + t, c_t = a_t b_t^{-1} gamma(t) and
    gamma a norm-one family contracting d.  Starts at
    :func:`albert.maps.str_ext_D` of (1, a, b, a b^{-1} d) and ends at the
    identity; both ends are checked."""
    if not isinstance(J, FirstTits):
        raise AlbertError("structure paths live on a first construction")
    D = J.D
    a, b, d = D.element(a), D.element(b), D.element(d)
    if not a.is_invertible() or not b.is_invertible():
        raise NotInvertible("a and b must be invertible")
    if d.norm() != J.field.one():
        raise ConstraintError("d must have reduced norm 1", code="not-norm-one")
    gamma = transvection_path(D, d)
    Rt = gamma.ring
    a_t, b_t = _toward_one(Rt, a), _toward_one(Rt, b)
    c_t = a_t * b_t.inverse() * gamma
    c_t_inv = c_t.inverse()
    a_t_sharp, b_t_sharp = a_t.sharp(), b_t.sharp()
    images = [
        lambda e: a_t * e * b_t,
        lambda e: b_t_sharp * e * c_t,
        lambda e: c_t_inv * e * a_t_sharp,
    ]
    path = path_certify(J, J.map_matrix(images, Rt))
    if path.start is not str_ext_D(J, J.field.one(), a, b, a * b.inverse() * d):
        raise AlbertError("structure path start mismatch")
    if not path.end.is_identity():
        raise AlbertError("structure path end is not the identity")
    return path


def chi_map(J, a, middle="element-scaled"):
    """The norm similarity chi = (homothety by N(a)) o U_{(0,0,1)} o U_{(0,m,0)}
    on a first construction over a commutative cubic coordinate algebra.

    Two middle operands are exposed: ``unit-scaled`` takes m = N(a)^{-1} 1 and
    ``element-scaled`` takes m = N(a)^{-1} a.  With this module's sign and
    pairing conventions the element-scaled choice satisfies chi((a,0,0)) =
    (1,0,0); the unit-scaled one sends it to (N(a)^{-1} a, 0, 0) instead.  The
    disambiguation is decided by :func:`chi_unit_check`, not presumed.
    """
    if not isinstance(J, FirstTits) or not isinstance(J.D, CubicEtale):
        raise AlbertError("chi lives on a first construction over a cubic etale algebra")
    E = J.D
    field = J.field
    a = E.element(a)
    na = a.norm()
    if field.is_zero(na):
        raise NotInvertible("element must be invertible")
    na_inv = field.inv(na)
    if middle == "unit-scaled":
        m_elem = E.one().scale(na_inv)
    elif middle == "element-scaled":
        m_elem = a.scale(na_inv)
    else:
        raise AlbertError(f"unknown middle operand choice {middle!r}")
    w1 = J.embed(m_elem, 1)
    w2 = J.embed(E.one(), 2)
    u1 = J.u_matrix(w1)
    u2 = J.u_matrix(w2)
    hom = [[na if i == j else field.zero() for j in range(J.dim)] for i in range(J.dim)]
    matrix = linalg.mat_mul(hom, linalg.mat_mul(u2, u1))
    return certify(J, matrix)


def chi_check(J, a, middle="element-scaled"):
    """(chi, whether chi((a,0,0)) is the base point) for one middle operand."""
    a = J.D.element(a)
    f = chi_map(J, a, middle)
    return f, tuple(f.apply(J.embed(a, 0))) == tuple(J.unit)


def chi_unit_check(J, a):
    """Evaluate chi((a,0,0)) for both middle-operand choices.

    Returns {choice: (SimilarityMap, maps_to_unit: bool)}."""
    return {choice: chi_check(J, a, choice) for choice in ("unit-scaled", "element-scaled")}


class RCertificate:
    """A chain of one-parameter families connecting a target automorphism to
    the identity.

    Only raw matrices are stored: the target over the base field and one
    matrix over k(t) per path.  The checker re-derives everything from them.
    """

    __slots__ = ("parent", "target_matrix", "path_matrices")

    def __init__(self, parent, target_matrix, path_matrices):
        self.parent = parent
        self.target_matrix = [list(row) for row in target_matrix]
        self.path_matrices = [[list(row) for row in m] for m in path_matrices]

    def __repr__(self):
        return f"<RCertificate on {self.parent.label}, {len(self.path_matrices)} paths>"


@certifying()
def cert_build_stab(J, a, b):
    """Certificate contracting the stabilizer automorphism of the pair (a, b)
    with N(a) = N(b) on a split first construction.

    The map factors through the J-map of a b^{-1} composed with conjugation by
    a; the conjugation factor is contracted by ``conj_path`` and the J-map
    factor by the elementary ``sl1_path_split`` family, giving a chain of
    length two.  The chain is checked as :func:`cert_check` checks it, on the
    maps and paths certified here rather than a second time."""
    if not isinstance(J, FirstTits):
        raise AlbertError("certificates built here live on a first construction")
    a, b = J.D.element(a), J.D.element(b)
    phi = aut_ext_D(J, a, b)
    theta = conj_path(J, a)
    second = sl1_path_split(J, a * b.inverse())
    first = compose_path_with_map(theta, second.start)
    if not _check_chain(phi, [first, second]).all_pass:
        raise AlbertError("freshly built certificate failed its own check")
    return RCertificate(J, phi.matrix, [first.matrix, second.matrix])


@certifying()
def cert_check(cert):
    """Independent validation of a certificate.

    Re-certifies the target, re-certifies every path from its raw matrix,
    and verifies the endpoint chain from the target to the identity.  Nothing
    the builder computed is trusted; only matrices are read, and each
    distinct matrix is certified once.
    A stated limit reached on the way (``LimitExceeded``) is raised, not
    recorded: it says nothing about the certificate."""
    J = cert.parent
    try:
        target = certify(J, cert.target_matrix)
    except LimitExceeded:
        raise
    except AlbertError as exc:
        report = Report()
        report.record("target-certified", False, str(exc))
        return report
    return _check_chain(target, (path_certify(J, m) for m in cert.path_matrices))


def _check_chain(target, paths):
    """The report of :func:`cert_check` on a certified target map and the
    certified paths that the iterable ``paths`` yields, first to last.  An
    ``AlbertError`` raised while drawing path k fails path k and ends the
    report; ``LimitExceeded`` is raised.  The target and the paths come from
    the caller's certification scope, where equal matrices are one map, so
    the chain start and each link compare maps with ``is``."""
    report = Report()
    report.record("target-certified", True)
    if not target.is_automorphism:
        report.record("target-automorphism", False, "multiplier or base point off")
    else:
        report.record("target-automorphism", True)
    chain = []
    try:
        for path in paths:
            chain.append(path)
            report.record(f"path-{len(chain)}-certified", True)
            if target.is_automorphism:
                one = path.is_automorphism_family()
                report.record(f"path-{len(chain)}-multiplier-one", one,
                              "" if one else "multiplier varies")
    except LimitExceeded:
        raise
    except AlbertError as exc:
        report.record(f"path-{len(chain)+1}-certified", False, f"{exc.code}: {exc}")
        return report
    if not chain:
        report.record("chain-nonempty", False, "certificate has no paths")
        return report
    report.record("chain-start-matches-target", chain[0].start is target)
    for idx in range(len(chain) - 1):
        report.record(f"chain-link-{idx+1}", chain[idx].end is chain[idx + 1].start)
    report.record("chain-ends-at-identity", chain[-1].end.is_identity())
    return report

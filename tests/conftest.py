"""Shared fixtures, and the builders and samplers that only the tests use."""

from fractions import Fraction as F

import pytest

from albert import linalg
from albert.errors import AlbertError, ConstraintError, LimitExceeded
from albert.maps import certify
from albert.multipoly import MPoly
from albert.report import Report
from albert.rpaths import path_certify
from albert.scalars import QQ, QuadraticExtension, Ring, lift
from albert.cubicnorm import CubicJordan
from albert.deg3 import ConjugateTranspose, Matrix3, vadd, vscale, vsub
from albert.tits import FirstTits, SecondTits
from albert.upoly import RatFunc, UPoly, poly_gcd


@pytest.fixture(scope="session")
def J27():
    """J(matrix3(Q), lambda=2): the workhorse 27-dimensional structure."""
    return FirstTits(Matrix3(QQ), F(2))


@pytest.fixture(scope="session")
def Qi():
    return QuadraticExtension(QQ, F(-1))


@pytest.fixture(scope="session")
def B_conj(Qi):
    return Matrix3(Qi).attach_involution(ConjugateTranspose())


@pytest.fixture(scope="session")
def J_second(B_conj, Qi):
    """J(matrix3(Q(i)), conjugate-transpose, u=1, mu=1)."""
    return SecondTits(B_conj, B_conj.one(), Qi.one())


# ---- builders shared by the tests --------------------------------------------


def matrix_unit(alg, i, j, ring=None):
    """The matrix unit e_ij (0-based) of a matrix3 algebra."""
    ring = ring or alg.base_ring
    coords = [ring.zero()] * 9
    coords[3 * i + j] = ring.one()
    return alg.element(coords, ring)


def prodop_pair(P, x, y):
    """The element (x, y) of D x D^op from two elements of D."""
    K = P.base_ring
    return P.element([K.make(a, b) for a, b in zip(x.coords, y.coords)])


def sample_nonzero(field, rng, bound=9):
    for _ in range(1000):
        v = field.sample(rng, bound)
        if not field.is_zero(v):
            return v
    raise AssertionError("could not sample a nonzero element")


def sample_invertible_vec(J, rng, bound=9):
    """A carrier vector of J with nonzero norm."""
    for _ in range(1000):
        x = J.sample_vec(rng, bound)
        if not J.field.is_zero(J.norm(x)):
            return x
    raise AssertionError("failed to sample an invertible carrier vector")


def random_norm_one(alg, rng, nfactors=3, bound=4):
    """A random product of transvections; reduced norm exactly 1."""
    field = alg.base_ring
    acc = alg.one()
    for _ in range(nfactors):
        i = rng.randint(1, 3)
        j = rng.randint(1, 3)
        while j == i:
            j = rng.randint(1, 3)
        acc = acc * alg.transvection(i, j, field.sample(rng, bound))
    return acc


def random_norm_equal_pair(alg, rng, bound=4):
    """(g, h) invertible with N(g) = N(h), via h = g * (norm-one factor)."""
    g = alg.sample_invertible(rng, bound)
    h = g * random_norm_one(alg, rng, bound=bound)
    return g, h


def ratfunc_at(r, point):
    """r(point) in the base field, for a canonical rational function r that
    is regular at ``point``."""
    den = r.den(point)
    assert den != 0, f"pole at {point}"
    return r.num(point) / den


# ---- references for the fused sum of products ---------------------------------
#
# The expressions that ``multipoly.dot`` replaced: each product is formed and
# normalized on its own and added into a growing accumulator.


def ref_dot(pairs):
    """sum a*b over a nonempty list of pairs by the plain loop, one product
    and one sum at a time, with the ring's own operators."""
    a, b = pairs[0]
    acc = a * b
    for a, b in pairs[1:]:
        acc = acc + a * b
    return acc


def ref_poly_mul(a, b):
    """a*b by the per-pair loop of the kernel before ``PolyRing.dot``."""
    ring = a.ring
    ta, tb = a.terms, b.terms
    if not ta or not tb:
        return ring.zero()
    bound = a.degbound + b.degbound
    if bound > 255:
        raise AlbertError(f"polynomial degree bound {bound} exceeds packing limit")
    if len(ta) < len(tb):
        ta, tb = tb, ta
    out = {}
    get = out.get
    zero = ring.coding.zero
    for kb, cb in tb.items():
        for ka, ca in ta.items():
            k = ka + kb
            out[k] = get(k, zero) + ca * cb
    terms, den = ring.coding.normalize(out, a.den * b.den)
    return MPoly(terms, den, ring, bound)


def ref_poly_dot(ring, pairs):
    """sum a*b over the pairs, one :func:`ref_poly_mul` at a time."""
    acc = ring.zero()
    for a, b in pairs:
        acc = acc + ref_poly_mul(a, b)
    return acc


def old_det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def old_matrix3_mul(a, b):
    """The entries of a 3x3 product, each as A*B + A*B + A*B."""
    A, B = [a[0:3], a[3:6], a[6:9]], [b[0:3], b[3:6], b[6:9]]
    return tuple(A[i][0] * B[0][j] + A[i][1] * B[1][j] + A[i][2] * B[2][j]
                 for i in range(3) for j in range(3))


def old_trace_s3(m):
    t = m[0][0] + m[1][1] + m[2][2]
    s = (m[0][0] * m[1][1] - m[0][1] * m[1][0] + m[0][0] * m[2][2]
         - m[0][2] * m[2][0] + m[1][1] * m[2][2] - m[1][2] * m[2][1])
    return t, s


def old_adjugate3(m):
    """Entry (i, j) is the signed minor of m without row j and column i."""
    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [x for x in range(3) if x != j]
            c = [x for x in range(3) if x != i]
            minor = m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
            out[i][j] = minor if (i + j) % 2 == 0 else -minor
    return out


def old_cubic_etale_mul(E, S, a, b):
    """The product of k[x]/(f) from raw coefficients c0..c4, with x^3 and
    x^4 reduced mod f by vector updates."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0 = a0 * b0
    c1 = a0 * b1 + a1 * b0
    c2 = a0 * b2 + a1 * b1 + a2 * b0
    c3 = a1 * b2 + a2 * b1
    c4 = a2 * b2
    out = vadd((c0, c1, c2), vscale(c3, E.lift_coords(S, E._x3)))
    return vadd(out, vscale(c4, E.lift_coords(S, E._x4)))


def old_first_tits_norm(J, S, coords):
    """N(x) + lam N(y) + lam^-1 N(z) - T(xyz) for J = J(D, lam), each term
    added into one accumulator; the norms are :func:`old_det3` of the
    characteristic matrices and T(xyz) is sum_ij (xy)_i T(e_i e_j) z_j."""
    D = J.D
    x, y, z = J.blocks(coords)
    nx, ny, nz = (D._scalar(S, old_det3(D.char_matrix(S, v))) for v in (x, y, z))
    xy = D.mul(S, x, y)
    txyz = S.zero()
    for xi, row in zip(xy, D.trace_gram):
        for g, zj in zip(row, z):
            if g:
                txyz = txyz + xi * lift(S, D.base_ring, g) * zj
    lam, lam_inv = lift(S, J.field, J.lam), lift(S, J.field, J.lam_inv)
    return nx + lam * ny + lam_inv * nz - txyz


class BiDualElement:
    """a + b1*e1 + b2*e2 + c*e1*e2 with e1^2 = e2^2 = 0."""

    __slots__ = ("a", "b1", "b2", "c", "ring")

    def __init__(self, a, b1, b2, c, ring):
        self.a, self.b1, self.b2, self.c, self.ring = a, b1, b2, c, ring

    def _coerce(self, other):
        if isinstance(other, BiDualElement):
            return other
        return self.ring.from_int(other) if isinstance(other, int) else None

    def _map(self, other, op):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return BiDualElement(op(self.a, o.a), op(self.b1, o.b1), op(self.b2, o.b2),
                             op(self.c, o.c), self.ring)

    def __add__(self, other):
        return self._map(other, lambda u, v: u + v)

    __radd__ = __add__

    def __sub__(self, other):
        return self._map(other, lambda u, v: u - v)

    def __rsub__(self, other):
        return self._map(other, lambda u, v: v - u)

    def __neg__(self):
        return BiDualElement(-self.a, -self.b1, -self.b2, -self.c, self.ring)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return BiDualElement(self.a * o.a, self.a * o.b1 + self.b1 * o.a,
                             self.a * o.b2 + self.b2 * o.a,
                             self.a * o.c + self.c * o.a + self.b1 * o.b2 + self.b2 * o.b1,
                             self.ring)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b1, self.b2, self.c) == (o.a, o.b1, o.b2, o.c)

    def __bool__(self):
        return any((self.a, self.b1, self.b2, self.c))


class BiDualRing(Ring):
    """base[e1, e2] / (e1^2, e2^2), the reference ring of exact first and
    mixed second directional derivatives; independent of the polynomial
    reading that ``CubicJordan`` derives them with."""

    def __init__(self, base):
        self.base = base

    def from_base(self, value):
        z = self.base.zero()
        return BiDualElement(value, z, z, z, self)

    def zero(self):
        return self.from_base(self.base.zero())

    def one(self):
        return self.from_base(self.base.one())

    def from_int(self, n):
        return self.from_base(self.base.from_int(n))

    def characteristic(self):
        return self.base.characteristic()

    def spec_string(self):
        return f"{self.base.spec_string()}[e1,e2]"

    def __eq__(self, other):
        return isinstance(other, BiDualRing) and other.base == self.base

    def __hash__(self):
        return hash(("bidual", self.base))


def trace_bilinear(J, x, y, S=None):
    """Reference bilinear trace T(x,y) = T(x)T(y) - D2N(c; x, y), one pair at
    a time: T(x), T(y) and D2N(c; x, y) are the e1, e2 and e1*e2 coefficients
    of N(c + e1*x + e2*y) over the two-infinitesimal ring."""
    S = S or J.field
    BS = BiDualRing(S)
    z = S.zero()
    arg = tuple(BiDualElement(a, b1, b2, z, BS) for a, b1, b2 in zip(J.unit_vec(S), x, y))
    n = J.norm_program(BS, arg)
    return n.b1 * n.b2 - n.c


def u_matrix_by_columns(J, x):
    """Reference matrix of U_x, one column per basis vector e_j:
    T(x, e_j) x - ((x^# + e_j)^# - x^## - e_j^#), with T(x, e_j) from
    :func:`trace_bilinear`."""
    S = J.field
    z, o = S.zero(), S.one()
    xs = J.sharp_program(S, x)
    xs2 = J.sharp_program(S, xs)
    cols = []
    for j in range(J.dim):
        e = tuple(o if i == j else z for i in range(J.dim))
        t = trace_bilinear(J, x, e)
        cross = vsub(vsub(J.sharp_program(S, vadd(xs, e)), xs2), J.sharp_program(S, e))
        cols.append(vsub(vscale(t, x), cross))
    return [list(row) for row in zip(*cols)]


class MockCubicJordan(CubicJordan):
    """A cubic norm structure from explicit (norm, sharp) programs."""

    def __init__(self, field, dim, unit, norm_fn, sharp_fn, label="mock"):
        super().__init__(field, dim, unit, label)
        self.norm_program = norm_fn
        self.sharp_program = sharp_fn


# ---- references for the structure tables ---------------------------------------
#
# The basis loops that one evaluation at the generic pair replaced.


def ref_trace_gram(alg):
    """T(e_i e_j) over the base ring, one basis product at a time."""
    base = alg.base_ring
    basis = [e.coords for e in alg.basis()]
    return [[alg.trace(base, alg.mul(base, ei, ej)) for ej in basis] for ei in basis]


def ref_validate(involution, alg):
    """The involution's structural checks on the basis: sigma(sigma(e)) = e
    for every basis element, then sigma(e f) = sigma(f) sigma(e) for every
    pair, raising ``ConstraintError`` with the same messages."""
    base = alg.base_ring
    basis = alg.basis()
    images = [alg.element(involution.apply(alg, base, e.coords)) for e in basis]
    for e, se in zip(basis, images):
        if involution.apply(alg, base, se.coords) != e.coords:
            raise ConstraintError(f"{involution.kind} is not involutive")
    for e, se in zip(basis, images):
        for f, sf in zip(basis, images):
            if involution.apply(alg, base, (e * f).coords) != (sf * se).coords:
                raise ConstraintError(f"{involution.kind} is not an anti-homomorphism")


# ---- references for the k(t) kernel and the elimination -----------------------
#
# The formulas that Henrici's rules in ``upoly.RatFunc`` and the zero-skipping
# ``linalg.echelon`` replaced: each k(t) result is the naive fraction reduced
# by one full gcd, and each elimination step runs over whole rows.


def ref_ratfunc(num, den, ring):
    """num/den reduced by one full ``poly_gcd``, with a monic denominator."""
    base = ring.base
    if num:
        g = poly_gcd(num, den)
        num, den = num.exact_div(g), den.exact_div(g)
    else:
        den = UPoly.const(base.one(), base)
    lead_inv = base.inv(den.lead())
    return RatFunc(num.scale(lead_inv), den.scale(lead_inv), ring, _canonical=True)


def ref_ratfunc_op(op, a, b):
    """a op b for op in '+', '-', '*', '/' by the naive fraction."""
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    if op == "+":
        return ref_ratfunc(an * bd + bn * ad, ad * bd, a.ring)
    if op == "-":
        return ref_ratfunc(an * bd - bn * ad, ad * bd, a.ring)
    if op == "*":
        return ref_ratfunc(an * bn, ad * bd, a.ring)
    return ref_ratfunc(an * bd, ad * bn, a.ring)


def ref_echelon(field, M, track=None):
    """Row echelon with every row operation over whole rows."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    piv_cols = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if not field.is_zero(M[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            M[r], M[pivot] = M[pivot], M[r]
            if track is not None:
                track[r], track[pivot] = track[pivot], track[r]
        inv_p = field.inv(M[r][c])
        M[r] = [x * inv_p for x in M[r]]
        if track is not None:
            track[r] = [x * inv_p for x in track[r]]
        for i in range(rows):
            if i != r and not field.is_zero(M[i][c]):
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
                if track is not None:
                    track[i] = [x - f * y for x, y in zip(track[i], track[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return piv_cols


# ---- references for the integer-coded k[t] -------------------------------------
#
# ``upoly.UPoly`` as it was before its coefficients were coded, with field
# payloads (``Fraction`` over Q) in every loop, and ``upoly.poly_gcd`` as
# Euclid on them.


class RefUPoly:
    """Dense univariate polynomial; coeffs ascending, no trailing zeros."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and field.is_zero(coeffs[n - 1]):
            n -= 1
        self.coeffs = coeffs[:n]
        self.field = field

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def lead(self):
        return self.coeffs[-1]

    def _coerce(self, other):
        if isinstance(other, int):
            return RefUPoly((self.field.from_int(other),), self.field)
        return other

    def __add__(self, other):
        a, b = self.coeffs, self._coerce(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return RefUPoly(out, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __neg__(self):
        return RefUPoly([-c for c in self.coeffs], self.field)

    def __mul__(self, other):
        a, b = self.coeffs, self._coerce(other).coeffs
        if not a or not b:
            return RefUPoly((), self.field)
        z = self.field.zero()
        out = [z] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if self.field.is_zero(ca):
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return RefUPoly(out, self.field)

    __rmul__ = __mul__

    def scale(self, c):
        return RefUPoly([c * x for x in self.coeffs], self.field)

    def __divmod__(self, other):
        o = self._coerce(other)
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
        return RefUPoly(q, field), RefUPoly(rem, field)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.degree < 0:
            return self
        return self.scale(self.field.inv(self.lead()))

    def derivative(self):
        f = self.field
        return RefUPoly([f.from_int(i) * c for i, c in enumerate(self.coeffs)][1:], f)

    def __call__(self, point):
        if not self.coeffs:
            return point - point if not isinstance(point, int) else self.field.zero()
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * point + c
        return acc

    def __bool__(self):
        return bool(self.coeffs)


def ref_poly_gcd(a, b):
    """Monic gcd by the Euclidean algorithm."""
    while b:
        a, b = b, a % b
    return a.monic() if a else a


def ref_ratfunc_coeffs(op, a, b):
    """The (numerator, denominator) coefficients of a op b, for op in '+',
    '-', '*', '/', by the naive fraction of :class:`RefUPoly` reduced by one
    :func:`ref_poly_gcd`, with a monic denominator."""
    base = a.ring.base
    an, ad, bn, bd = (RefUPoly(p.coeffs, base) for p in (a.num, a.den, b.num, b.den))
    if op in "+-":
        num, den = an * bd + (bn * ad if op == "+" else -(bn * ad)), ad * bd
    elif op == "*":
        num, den = an * bn, ad * bd
    else:
        num, den = an * bd, ad * bn
    if num:
        g = ref_poly_gcd(num, den)
        num, den = divmod(num, g)[0], divmod(den, g)[0]
    else:
        den = RefUPoly((base.one(),), base)
    lead_inv = base.inv(den.lead())
    return num.scale(lead_inv).coeffs, den.scale(lead_inv).coeffs


# ---- reference certificate check -----------------------------------------------
#
# ``rpaths.cert_check`` as it was before a check reused certified maps: every
# path endpoint is certified from scratch, the target included, and the chain
# start, the links and the identity end compare raw matrices with
# ``linalg.mat_eq``.


def ref_cert_check(cert):
    """Report of a certificate check that certifies every matrix anew."""
    report = Report()
    J = cert.parent
    try:
        target = certify(J, cert.target_matrix)
        report.record("target-certified", True)
        if not target.is_automorphism:
            report.record("target-automorphism", False, "multiplier or base point off")
        else:
            report.record("target-automorphism", True)
    except LimitExceeded:
        raise
    except AlbertError as exc:
        report.record("target-certified", False, str(exc))
        return report
    paths = []
    for idx, matrix in enumerate(cert.path_matrices):
        try:
            fresh = path_certify(J, matrix)
            paths.append(fresh)
            report.record(f"path-{idx+1}-certified", True)
            if target.is_automorphism:
                report.record(
                    f"path-{idx+1}-multiplier-one",
                    fresh.is_automorphism_family(),
                    "" if fresh.is_automorphism_family() else "multiplier varies",
                )
        except LimitExceeded:
            raise
        except AlbertError as exc:
            report.record(f"path-{idx+1}-certified", False, f"{exc.code}: {exc}")
            return report
    if not paths:
        report.record("chain-nonempty", False, "certificate has no paths")
        return report
    report.record(
        "chain-start-matches-target",
        linalg.mat_eq(paths[0].start.matrix, cert.target_matrix),
    )
    for idx in range(len(paths) - 1):
        report.record(
            f"chain-link-{idx+1}",
            linalg.mat_eq(paths[idx].end.matrix, paths[idx + 1].start.matrix),
        )
    report.record(
        "chain-ends-at-identity",
        linalg.mat_eq(paths[-1].end.matrix, linalg.identity(J.field, J.dim)),
    )
    return report

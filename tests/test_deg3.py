import itertools
import random
from fractions import Fraction as F

import pytest

from albert.errors import AlbertError, ConstraintError, NotInvertible, ParentMismatch
from albert.multipoly import PolyRing
from albert.scalars import QQ, PrimeField, QuadraticEtale, QuadraticExtension
from albert.deg3 import (
    ConjugateTranspose,
    CubicEtale,
    Cyclic,
    Element,
    Involution,
    Matrix3,
    ProductWithOpposite,
    Switch,
    UTwist,
    is_unitary,
    similitude_multiplier,
    transvection_factorization,
    vneg,
)
from conftest import (matrix_unit, prodop_pair, random_norm_equal_pair, random_norm_one,
                      ref_trace_gram, ref_validate)

M3 = Matrix3(QQ)

# the worked cyclic example: L = Q[x]/(x^3-3x-1) with rho(x) = 2 - x^2
CYCLIC_F = [F(-1), F(-3), F(0), F(1)]
CYCLIC_RHO = (F(2), F(0), F(-1))


def char_poly_oracle(roots):
    """Coefficients (T, S, N) of prod (X - r) for explicit eigenvalues."""
    t = sum(roots)
    s = sum(a * b for a, b in itertools.combinations(roots, 2))
    n = roots[0] * roots[1] * roots[2]
    return (t, s, n)


def adjugate_oracle(elem):
    """Adjoint of a 3x3 matrix by explicit cofactor expansion."""
    m = [list(elem.coords[0:3]), list(elem.coords[3:6]), list(elem.coords[6:9])]
    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != j]
            cols = [c for c in range(3) if c != i]
            minor = m[rows[0]][cols[0]] * m[rows[1]][cols[1]] - \
                m[rows[0]][cols[1]] * m[rows[1]][cols[0]]
            out[i][j] = minor if (i + j) % 2 == 0 else -minor
    return elem.algebra.element([v for row in out for v in row])


# ---- construction ----------------------------------------------------------


def test_cubic_etale_splits():
    E = CubicEtale(QQ, [F(0), F(-1), F(0), F(1)])  # x^3 - x = x(x-1)(x+1)
    assert E.dim == 3
    # idempotents of the split algebra: x(x+1)/2 etc. square to themselves
    e = E.element([F(0), F(1, 2), F(1, 2)])
    assert e * e == e


def test_matrix3_unit():
    assert M3.one().coords == M3.diag([F(1), F(1), F(1)]).coords


def test_cyclic_zero_parameter():
    L = CubicEtale(QQ, CYCLIC_F)
    with pytest.raises(ConstraintError):
        Cyclic(L, CYCLIC_RHO, F(0))


def test_inseparable_cubic_rejected():
    with pytest.raises(ConstraintError):
        CubicEtale(QQ, [F(0), F(0), F(0), F(1)])
    F3 = PrimeField(3)
    with pytest.raises(ConstraintError):
        CubicEtale(F3, [F3.from_int(-1), F3.zero(), F3.zero(), F3.one()])


def test_cyclic_rho_validation():
    L = CubicEtale(QQ, CYCLIC_F)
    with pytest.raises(ConstraintError):
        Cyclic(L, (F(0), F(1), F(0)), F(2))  # identity map
    with pytest.raises(ConstraintError):
        Cyclic(L, (F(1), F(1), F(0)), F(2))  # not a root of f


# ---- multiplication --------------------------------------------------------


def test_matrix_units():
    assert matrix_unit(M3, 0, 1) * matrix_unit(M3, 1, 0) == matrix_unit(M3, 0, 0)


def test_cyclic_twist_rule():
    L = CubicEtale(QQ, CYCLIC_F)
    C = Cyclic(L, CYCLIC_RHO, F(2))
    z = C.element([F(0)] * 3 + [F(1), F(0), F(0)] + [F(0)] * 3)
    ell = C.element([F(0), F(1), F(0)] + [F(0)] * 6)
    rho_ell = C.element(list(CYCLIC_RHO) + [F(0)] * 6)
    assert z * ell == rho_ell * z
    assert z * z * z == C.one().scale(F(2))


def test_prodop_reversed_second_factor():
    P = ProductWithOpposite(M3)
    rng = random.Random(0)
    x1, y1, x2, y2 = (M3.sample(rng) for _ in range(4))
    assert prodop_pair(P, x1, y1) * prodop_pair(P, x2, y2) == prodop_pair(P, x1 * x2, y2 * y1)


def test_associativity_all_kinds():
    rng = random.Random(4)
    L = CubicEtale(QQ, CYCLIC_F)
    algebras = [M3, L, Cyclic(L, CYCLIC_RHO, F(2)), ProductWithOpposite(M3)]
    for alg in algebras:
        for _ in range(10):
            x, y, z = (alg.sample(rng, 3) for _ in range(3))
            assert (x * y) * z == x * (y * z)


# ---- characteristic data ---------------------------------------------------


def test_char_data_diag():
    a = M3.diag([F(1), F(2), F(3)])
    assert a.char_data() == char_poly_oracle([F(1), F(2), F(3)]) == (F(6), F(11), F(6))


def test_char_data_unit():
    assert M3.one().char_data() == (F(3), F(3), F(1))


def test_char_data_cubic_etale_generator():
    E = CubicEtale(QQ, [F(0), F(-1), F(0), F(1)])
    xbar = E.element([F(0), F(1), F(0)])
    assert xbar.char_data() == (F(0), F(-1), F(0))


def test_prodop_norm_componentwise():
    P = ProductWithOpposite(M3)
    rng = random.Random(1)
    x, y = M3.sample(rng), M3.sample(rng)
    n = prodop_pair(P, x, y).norm()
    assert P.base_ring.components(n) == (x.norm(), y.norm())


# ---- adjoint and inverse ---------------------------------------------------


F2 = PrimeField(2)
F5 = PrimeField(5)
# the worked cyclic example read mod 5, where x^3 - 3x - 1 is irreducible
CYCLIC_F5 = Cyclic(CubicEtale(F5, [F5.from_int(int(c)) for c in CYCLIC_F]),
                   tuple(F5.from_int(int(c)) for c in CYCLIC_RHO), F5.from_int(2))
GENERIC_ALGEBRAS = {
    "cubic_etale_Q": CubicEtale(QQ, CYCLIC_F),
    "cubic_etale_F2": CubicEtale(F2, [F2.one(), F2.one(), F2.zero(), F2.one()]),
    "cubic_etale_F5": CYCLIC_F5.L,
    "matrix3": M3,
    "matrix3_F5": Matrix3(F5),
    "cyclic": Cyclic(CubicEtale(QQ, CYCLIC_F), CYCLIC_RHO, F(2)),
    "cyclic_F5": CYCLIC_F5,
    "prodop_matrix3": ProductWithOpposite(M3),
    "prodop_matrix3_F5": ProductWithOpposite(Matrix3(F5)),
    "prodop_cyclic": ProductWithOpposite(Cyclic(CubicEtale(QQ, CYCLIC_F), CYCLIC_RHO, F(2))),
    "matrix3_Qi": Matrix3(QuadraticExtension(QQ, F(-1))),
}


@pytest.mark.parametrize("name", sorted(GENERIC_ALGEBRAS))
def test_char_data_identities_generic(name):
    """Cayley-Hamilton, a a^# = N(a) 1 and T(a) = the trace form, with one
    polynomial variable per coordinate (two over a quadratic etale centre)."""
    alg = GENERIC_ALGEBRAS[name]
    K, n = alg.base_ring, alg.dim
    if isinstance(K, QuadraticEtale):
        P = PolyRing(K.base, 2 * n)
        gens, S = P.gens(), alg.extend_ring(P)
        a = alg.element([S.make(gens[i], gens[n + i]) for i in range(n)], S)
    else:
        S = PolyRing(K, n)
        a = alg.element(S.gens(), S)
    t, s, nn = a.char_data()
    one = alg.one(S)
    assert a * a * a - (a * a).scale(t) + a.scale(s) - one.scale(nn) == alg.zero(S)
    assert a * a.sharp() == a.sharp() * a == one.scale(nn)
    assert nn == a.norm()
    assert t == a.trace()


@pytest.mark.parametrize("name", sorted(GENERIC_ALGEBRAS))
def test_trace_is_first_char_coefficient(name):
    """The reduced trace, the diagonal sum of the characteristic matrix, is
    T(a) of char_data, on seeded samples and on the generic element."""
    alg = GENERIC_ALGEBRAS[name]
    rng = random.Random(25)
    generic_ring, X, _ = alg._generic_pair()
    cases = [(alg.base_ring, alg.sample(rng, 4).coords) for _ in range(10)]
    for S, a in cases + [(generic_ring, X)]:
        assert alg.trace(S, a) == alg.char_data(S, a)[0]


def test_cyclic_char_data_must_land_in_base_field():
    alg = GENERIC_ALGEBRAS["cyclic"]
    assert alg._scalar(QQ, Element(alg.L, QQ, (F(5), F(0), F(0)))) == F(5)
    with pytest.raises(AlbertError, match="did not land in the base field"):
        alg._scalar(QQ, Element(alg.L, QQ, (F(5), F(1), F(0))))


def test_sharp_diag():
    a = M3.diag([F(1), F(2), F(3)])
    assert a.sharp() == M3.diag([F(6), F(3), F(2)]) == adjugate_oracle(a)


def test_sharp_unit():
    assert M3.one().sharp() == M3.one()


def test_sharp_reverses_products():
    rng = random.Random(7)
    L = CubicEtale(QQ, CYCLIC_F)
    for alg in (M3, Cyclic(L, CYCLIC_RHO, F(2))):
        for _ in range(10):
            x, y = alg.sample(rng, 3), alg.sample(rng, 3)
            assert (x * y).sharp() == y.sharp() * x.sharp()
            assert x.sharp().norm() == x.norm() * x.norm()
            assert x * x.sharp() == alg.one().scale(x.norm())
            assert x.sharp() * x == alg.one().scale(x.norm())


def test_norm_multiplicative_sampled():
    rng = random.Random(8)
    for alg in (M3, Matrix3(PrimeField(2)), Matrix3(PrimeField(3))):
        for _ in range(20):
            x, y = alg.sample(rng), alg.sample(rng)
            assert (x * y).norm() == x.norm() * y.norm()


@pytest.mark.parametrize("name", ["cubic_etale_Q", "cyclic"])
def test_inverse_builds_one_char_matrix(name, monkeypatch):
    alg = GENERIC_ALGEBRAS[name]
    a = alg.sample_invertible(random.Random(16), 3)
    calls = []
    char_matrix = alg.char_matrix
    monkeypatch.setattr(alg, "char_matrix", lambda S, x: calls.append(x) or char_matrix(S, x))
    inv = a.inverse()
    assert len(calls) == 1
    assert a * inv == inv * a == alg.one()


def test_inverse():
    a = M3.diag([F(1), F(2), F(3)])
    assert a.inverse() == M3.diag([F(1), F(1, 2), F(1, 3)])
    assert (M3.one().scale(F(2))).inverse() == M3.one().scale(F(1, 2))
    with pytest.raises(NotInvertible):
        matrix_unit(M3, 0, 1).inverse()


# ---- involutions -----------------------------------------------------------


def test_switch_involution():
    P = ProductWithOpposite(M3).attach_involution(Switch())
    rng = random.Random(2)
    x, y = M3.sample(rng), M3.sample(rng)
    assert prodop_pair(P, x, y).conj() == prodop_pair(P, y, x)


def test_conjugate_transpose():
    K = QuadraticExtension(QQ, F(-1))
    B = Matrix3(K).attach_involution(ConjugateTranspose())
    i = K.make(F(0), F(1))
    assert matrix_unit(B, 0, 1).scale(i).conj() == matrix_unit(B, 1, 0).scale(-i)


def test_utwist_with_unit_is_base():
    K = QuadraticExtension(QQ, F(-1))
    B = Matrix3(K).attach_involution(ConjugateTranspose())
    B2 = Matrix3(K).attach_involution(UTwist(ConjugateTranspose(), Matrix3(K).one()))
    rng = random.Random(3)
    s = B.sample(rng)
    assert s.conj().coords == B2.element(s.coords).conj().coords


def test_involution_properties_sampled():
    K = QuadraticExtension(QQ, F(-1))
    B = Matrix3(K).attach_involution(ConjugateTranspose())
    P = ProductWithOpposite(M3).attach_involution(Switch())
    rng = random.Random(5)
    for alg in (B, P):
        ring = alg.base_ring
        for _ in range(10):
            x, y = alg.sample(rng, 3), alg.sample(rng, 3)
            assert x.conj().conj() == x
            assert (x * y).conj() == y.conj() * x.conj()
            assert x.conj().norm() == ring.conj(x.norm())


class EntrywiseConjugation(Involution):
    """Centre conjugation of every entry without the transpose: involutive,
    but a homomorphism of matrix3 rather than an anti-homomorphism."""

    kind = "entrywise-conj"

    def apply(self, algebra, S, a):
        return tuple(S.conj(v) for v in a)


class TimesS(Involution):
    """Multiplication of every entry by s with s^2 = -1: sigma(sigma(a)) = -a."""

    kind = "times-s"

    def apply(self, algebra, S, a):
        s = S.make(S.base.zero(), S.base.one())
        return tuple(s * v for v in a)


@pytest.mark.parametrize("involution, message", [
    (EntrywiseConjugation(), "entrywise-conj is not an anti-homomorphism"),
    (TimesS(), "times-s is not involutive"),
], ids=["not-anti-homomorphism", "not-involutive"])
def test_involution_validate_refuses(involution, message):
    B = Matrix3(QuadraticExtension(QQ, F(-1)))
    with pytest.raises(ConstraintError, match=message):
        B.attach_involution(involution)


class Identity(Involution):
    kind = "identity"

    def apply(self, algebra, S, a):
        return tuple(a)


class Negation(Involution):
    kind = "negation"

    def apply(self, algebra, S, a):
        return vneg(a)


class Transpose(Involution):
    """The transpose of the 3x3 coordinate layout: an anti-automorphism of
    matrix3, and of each component of prodop."""

    kind = "transpose"

    def apply(self, algebra, S, a):
        return tuple(a[3 * j + i] for i in range(3) for j in range(3))


def _qi_algebra():
    K = QuadraticExtension(QQ, F(-1))
    B = Matrix3(K)
    u = B.diag([K.from_int(1), K.from_int(2), K.from_int(3)])
    return B, [Transpose(), ConjugateTranspose(), EntrywiseConjugation(), TimesS(),
               UTwist(ConjugateTranspose(), u)], {"transpose", "conjtrans", "utwist"}


# each entry returns a fresh algebra, so its trace Gram matrix is not yet
# cached, the involution programs tried on it besides identity and negation,
# and the kinds of those that are involutions; the cyclic algebra has none
TABLE_ALGEBRAS = {
    "matrix3_Q": lambda: (Matrix3(QQ), [Transpose()], {"transpose"}),
    "matrix3_F2": lambda: (Matrix3(PrimeField(2)), [Transpose()], {"transpose"}),
    "matrix3_F3": lambda: (Matrix3(PrimeField(3)), [Transpose()], {"transpose"}),
    "matrix3_Qi": _qi_algebra,
    "cubic_etale_Q": lambda: (CubicEtale(QQ, CYCLIC_F), [], {"identity"}),
    "cyclic_Q": lambda: (Cyclic(CubicEtale(QQ, CYCLIC_F), CYCLIC_RHO, F(2)), [], set()),
    "prodop_Q": lambda: (ProductWithOpposite(Matrix3(QQ)), [Transpose(), Switch()],
                         {"transpose", "switch"}),
}


def _verdict(check, alg):
    try:
        check(alg)
    except ConstraintError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(TABLE_ALGEBRAS))
def test_structure_tables_match_basis_loops(name):
    """The trace Gram matrix and the involution checks from the generic
    pair agree with the basis loops they replaced."""
    alg, programs, involutions = TABLE_ALGEBRAS[name]()
    assert alg.trace_gram == ref_trace_gram(alg)
    for inv in [Identity(), Negation(), *programs]:
        # the generic check runs first: it sets what utwist's apply needs
        got = _verdict(inv.validate, alg)
        assert got == _verdict(lambda a: ref_validate(inv, a), alg), inv.kind
        assert (got is None) == (inv.kind in involutions), inv.kind


def test_no_involution_error():
    from albert.errors import InvolutionError

    with pytest.raises(InvolutionError):
        M3.sample(random.Random(0)).conj()


# ---- membership ------------------------------------------------------------


def test_membership_unit_everything():
    K = QuadraticExtension(QQ, F(-1))
    B = Matrix3(K).attach_involution(ConjugateTranspose())
    one = B.one()
    assert one.norm() == K.one() and is_unitary(one)
    assert similitude_multiplier(one) == F(1)


def test_membership_transvection_sl1():
    assert M3.transvection(1, 2, F(5)).norm() == F(1)


def test_membership_unitary_diag():
    K = QuadraticExtension(QQ, F(-1))
    B = Matrix3(K).attach_involution(ConjugateTranspose())
    i = K.make(F(0), F(1))
    g = B.diag([i, -i, K.one()])
    assert is_unitary(g)
    assert g.norm() == K.one()  # so g is in SU


def test_membership_noninvertible_false():
    assert matrix_unit(M3, 0, 1).norm() != F(1)
    K = QuadraticExtension(QQ, F(-1))
    B = Matrix3(K).attach_involution(ConjugateTranspose())
    e01 = matrix_unit(B, 0, 1)
    assert not is_unitary(e01) and similitude_multiplier(e01) is None


def test_similitude_multiplier():
    K = QuadraticExtension(QQ, F(-1))
    B = Matrix3(K).attach_involution(ConjugateTranspose())
    i = K.make(F(0), F(1))
    assert similitude_multiplier(B.one().scale(K.make(F(1), F(1)))) == F(2)
    assert similitude_multiplier(B.diag([i, K.one(), K.one()]).scale(K.from_int(3))) == F(9)
    # g sigma(g) diagonal but not scalar
    assert similitude_multiplier(B.diag([K.one(), K.one(), K.from_int(2)])) is None
    # over the split centre a zero-divisor multiplier is refused
    P = ProductWithOpposite(M3).attach_involution(Switch())
    x = M3.diag([F(1), F(2), F(3)])
    assert similitude_multiplier(prodop_pair(P, x, x.inverse().scale(F(5)))) == F(5)
    assert similitude_multiplier(prodop_pair(P, x, M3.zero())) is None


# ---- transvection factorization --------------------------------------------


def test_factorization_identity_empty():
    assert transvection_factorization(M3.one()) == []


def test_factorization_single():
    assert transvection_factorization(M3.transvection(1, 2, F(7))) == [(1, 2, F(7))]


def test_factorization_diag():
    d = M3.diag([F(2), F(1, 2), F(1)])
    fac = transvection_factorization(d)
    assert 1 <= len(fac) <= 12
    acc = M3.one()
    for (i, j, alpha) in fac:
        acc = acc * M3.transvection(i, j, alpha)
    assert acc == d


def test_factorization_random_property():
    rng = random.Random(13)
    for nfac in (1, 2, 4, 6):
        for _ in range(10):
            d = random_norm_one(M3, rng, nfactors=nfac)
            fac = transvection_factorization(d)
            assert len(fac) <= 12
            acc = M3.one()
            for (i, j, alpha) in fac:
                acc = acc * M3.transvection(i, j, alpha)
            assert acc == d


def test_factorization_char2():
    F2 = PrimeField(2)
    M2 = Matrix3(F2)
    rng = random.Random(14)
    for _ in range(15):
        d = random_norm_one(M2, rng, nfactors=4)
        fac = transvection_factorization(d)
        acc = M2.one()
        for (i, j, alpha) in fac:
            acc = acc * M2.transvection(i, j, alpha)
        assert acc == d


def test_factorization_needs_norm_one():
    with pytest.raises(ConstraintError):
        transvection_factorization(M3.diag([F(2), F(1), F(1)]))


def test_norm_equal_pair_sampler():
    rng = random.Random(15)
    for _ in range(10):
        g, h = random_norm_equal_pair(M3, rng)
        assert g.norm() == h.norm()
        assert not QQ.is_zero(g.norm())


# ---- parents ----------------------------------------------------------------


def test_parent_mismatch_rejected():
    E = CubicEtale(QQ, [F(0), F(-1), F(0), F(1)])
    with pytest.raises(ParentMismatch):
        M3.one() + E.one()


def test_element_coercion():
    a = M3.diag([F(1), F(2), F(3)])
    assert M3.element(a) is a
    assert Matrix3(QQ).element(a) is a  # an equal algebra is the same parent
    assert M3.element(a.coords) == a
    E = CubicEtale(QQ, [F(0), F(-1), F(0), F(1)])
    with pytest.raises(ParentMismatch):
        M3.element(E.one())

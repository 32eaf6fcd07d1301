"""The one lift, the one matrix-vector contraction and the contractions built
on them, against references that lift and multiply by hand.

Lifting into the base change of a quadratic or split centre lifts the
components; ``mat_vec`` over an extension equals lifting the matrix first;
the Gram contractions ``trace_of_product`` and ``trace_pair`` agree with the
oracle ``trace_pairing`` and the per-pair reference ``conftest.trace_bilinear``
on generic coordinates; the directional derivative equals the e1 coefficient
over the reference two-infinitesimal ring ``conftest.BiDualRing``.

The call sites of the fused sum of products (``deg3._det3``,
``Matrix3.mul``, ``_adjugate3``, ``_trace_s3``, ``CubicEtale.mul`` and
``FirstTits.norm_program``) equal the expressions they replaced, kept in
``conftest``, on generic coordinates over a polynomial ring and on scalars
over Q, F_p, k(t) and the quadratic centres, where ``multipoly.dot`` runs each
ring's own ``dot``.  ``Deg3Algebra.norm_pairs`` sums to the norm of every
algebra kind, with part of the first row zero and for the zero element.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from albert import deg3, linalg
from albert.deg3 import (ConjugateTranspose, CubicEtale, Cyclic, Matrix3,
                         ProductWithOpposite, Switch)
from albert.multipoly import PolyRing, dot
from albert.scalars import QQ, PrimeField, QuadraticEtale, QuadraticExtension, SplitQuadratic, lift
from albert.tits import FirstTits, SecondTits
from albert.upoly import RationalFunctionField, UPoly
from conftest import (BiDualElement, BiDualRing, old_adjugate3, old_cubic_etale_mul, old_det3,
                      old_first_tits_norm, old_matrix3_mul, old_trace_s3, trace_bilinear)

F7 = PrimeField(7)
CENTRES = [QuadraticExtension(QQ, F(-1)), SplitQuadratic(QQ),
           QuadraticExtension(F7, F7.from_int(3)), SplitQuadratic(F7)]
EXTENSIONS = {
    "poly": lambda k: PolyRing(k, ["x", "y"]),
    "bidual": BiDualRing,
    "k(t)": lambda k: RationalFunctionField(k, "t"),
}
SCALARS = st.tuples(st.integers(-9, 9), st.integers(1, 9))


def scalar(k, pair):
    n, d = pair
    return F(n, d) if k is QQ else k.from_int(n)


@settings(max_examples=40, deadline=None)
@given(centre=st.sampled_from(CENTRES), ext=st.sampled_from(sorted(EXTENSIONS)),
       a=SCALARS, b=SCALARS)
def test_lift_into_base_change_lifts_components(centre, ext, a, b):
    k = centre.base
    S = EXTENSIONS[ext](k)
    KS = centre.extend(S)
    a, b = scalar(k, a), scalar(k, b)
    v = centre.make(a, b)
    assert lift(KS, centre, v) == KS.make(lift(S, k, a), lift(S, k, b))
    # lifting a bottom-field scalar still walks the tower
    assert lift(KS, k, a) == KS.from_base(lift(S, k, a))


@settings(max_examples=20, deadline=None)
@given(a=SCALARS, b=SCALARS)
def test_quadratic_over_quadratic_lifts_through_from_base(a, b):
    K = QuadraticExtension(QQ, F(-1))
    v = K.make(scalar(QQ, a), scalar(QQ, b))
    # K[s]/(s^2 - (-1)) is also K base-changed to K; it is built over K, so
    # K embeds as its base
    K2 = QuadraticExtension(K, K.from_base(F(-1)))
    assert K2 == K.extend(K)
    assert lift(K2, K, v) == K2.from_base(v)
    K3 = QuadraticExtension(K, K.from_int(2))
    assert lift(K3, K, v) == K3.from_base(v)


MATRICES = st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2, 3]), min_size=3, max_size=3),
                    min_size=1, max_size=4)


@settings(max_examples=30, deadline=None)
@given(rows=MATRICES, centre=st.sampled_from(CENTRES[:2]))
def test_mat_vec_over_extension_equals_lifting_first(rows, centre):
    P = PolyRing(QQ, ["x", "y", "z"])
    x, y, z = P.gens()
    v = [x * y + 1, z - 2, x]
    A = [[F(c) for c in row] for row in rows]
    lifted = [[lift(P, QQ, c) for c in row] for row in A]
    assert linalg.mat_vec(A, v, P, QQ) == linalg.mat_vec(lifted, v, P)
    # a matrix over the centre acting on coordinates over its base change
    KS = centre.extend(P)
    w = [KS.make(c, c * c - x) for c in v]
    AK = [[centre.make(c, 2 * c) for c in row] for row in A]
    liftedK = [[lift(KS, centre, c) for c in row] for row in AK]
    assert linalg.mat_vec(AK, w, KS, centre) == linalg.mat_vec(liftedK, w, KS)


def _generic(alg, S, P):
    """Two generic coordinate tuples of ``alg`` over S, built on P's gens."""
    gens = P.gens()
    n = alg.dim
    if S is P:
        return tuple(gens[:n]), tuple(gens[n:2 * n])
    return (tuple(S.make(gens[i], gens[n + i]) for i in range(n)),
            tuple(S.make(gens[2 * n + i], gens[3 * n + i]) for i in range(n)))


E = CubicEtale(QQ, [F(-1), F(-3), F(0), F(1)])
ALGEBRAS = {
    "cubic_etale": E,
    "matrix3": Matrix3(QQ),
    "cyclic": Cyclic(E, (F(2), F(0), F(-1)), F(2)),
    "prodop": ProductWithOpposite(Matrix3(QQ)),
    "matrix3_Qi": Matrix3(QuadraticExtension(QQ, F(-1))),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_trace_of_product_matches_trace_pairing(name):
    alg = ALGEBRAS[name]
    K = alg.base_ring
    if K is QQ:
        S = P = PolyRing(QQ, 2 * alg.dim)
    else:
        P = PolyRing(K.base, 4 * alg.dim)
        S = alg.extend_ring(P)
    a, b = _generic(alg, S, P)
    assert alg.trace_of_product(S, a, b) == alg.trace_pairing(S, a, b)


def _second_prodop():
    B = ProductWithOpposite(E).attach_involution(Switch())
    return SecondTits(B, B.one(), B.base_ring.make(F(2), F(1, 2)))


def _second_conjtrans():
    B = Matrix3(QuadraticExtension(QQ, F(-1))).attach_involution(ConjugateTranspose())
    return SecondTits(B, B.one(), B.base_ring.one())


@pytest.mark.parametrize("build", [lambda: FirstTits(E, F(3)), _second_prodop, _second_conjtrans],
                         ids=["first_E", "second_prodop_E", "second_conjtrans_Qi"])
def test_trace_pair_matches_trace_bilinear(build):
    J = build()
    ring, X, Y = J.generic_vectors(2)
    assert J.trace_pair(X, Y, S=ring) == trace_bilinear(J, X, Y, S=ring)


@pytest.mark.parametrize("build", [lambda: FirstTits(E, F(3)), _second_prodop],
                         ids=["first_E", "second_prodop_E"])
def test_directional_derivative_matches_bidual_reference(build):
    # the e coefficient of N(x + e*y) over S[e], on generic coordinates
    # (S itself a polynomial ring) and on samples over k
    J = build()
    ring, X, Y = J.generic_vectors(2)
    rng = random.Random(2)
    for S, x, y in [(ring, X, Y), (J.field, J.sample_vec(rng), J.sample_vec(rng))]:
        BS = BiDualRing(S)
        z = S.zero()
        arg = [BiDualElement(a, b, z, z, BS) for a, b in zip(x, y)]
        assert J.directional_norm_derivative(x, y, S) == J.norm_program(BS, arg).b1


# -- the fused call sites against the expressions they replaced ---------------

F2 = PrimeField(2)
Qt = RationalFunctionField(QQ, "t")


def _identical(got, want):
    assert got == want
    if hasattr(want, "terms"):
        assert (got.terms, got.den) == (want.terms, want.den)


def _scalar_cases(rng):
    """(ring, sampler) for Q, F2, F7 and Q(t): the integer-coded rings and
    one on the plain loop."""
    return [(k, lambda k=k: k.sample(rng, 5)) for k in (QQ, F2, F7, Qt)]


@pytest.mark.parametrize("field", [QQ, F2, F7], ids=["Q", "F2", "F7"])
def test_det3_matches_the_cofactor_expression(field):
    R = PolyRing(field, 9)
    g = R.gens()
    third = field.inv(field.from_int(3))
    generic = [[g[3 * i + j] for j in range(3)] for i in range(3)]
    shifted = [[g[3 * i + j].scale(third) + g[(3 * i + j + 4) % 9] - 1 for j in range(3)]
               for i in range(3)]
    for m in (generic, shifted):
        _identical(deg3._det3(m), old_det3(m))
    rng = random.Random(11)
    for k, sample in _scalar_cases(rng):
        for _ in range(10):
            m = [[sample() for _ in range(3)] for _ in range(3)]
            m[rng.randrange(3)][rng.randrange(3)] = k.zero()
            assert deg3._det3(m) == old_det3(m)


MATRIX_RINGS = {
    "Q": QQ, "F2": F2, "F7": F7, "Q(t)": Qt, "Q[x,y]": PolyRing(QQ, ["x", "y"]),
    "Q(i)": CENTRES[0], "QxQ": CENTRES[1], "F7(sqrt3)": CENTRES[2], "F7xF7": CENTRES[3],
    "Q(i)[x,y]": CENTRES[0].extend(PolyRing(QQ, ["x", "y"])),
}


@pytest.mark.parametrize("name", sorted(MATRIX_RINGS))
def test_matrix3_products_and_minors_match_the_expressions(name):
    S = MATRIX_RINGS[name]
    M = Matrix3(S)
    rng = random.Random(13)
    for _ in range(4):
        a, b = ([S.sample(rng, 4) for _ in range(9)] for _ in range(2))
        a[rng.randrange(9)] = S.zero()
        for got, want in zip(M.mul(S, a, b), old_matrix3_mul(a, b)):
            _identical(got, want)
        m = deg3._mat3(a)
        assert deg3._trace_s3(m) == old_trace_s3(m)
        assert deg3._adjugate3(m) == old_adjugate3(m)


@pytest.mark.parametrize("field", [QQ, F2, F7], ids=["Q", "F2", "F7"])
def test_cubic_etale_mul_matches_the_vector_updates(field):
    E3 = CubicEtale(field, [field.from_int(c) for c in (1, 1, 0, 1)])
    R = PolyRing(field, 6)
    g = R.gens()
    a, b = tuple(g[:3]), (g[3] * g[4] + 2, g[5] - g[0], g[1] * g[1])
    _identical(E3.mul(R, a, b), old_cubic_etale_mul(E3, R, a, b))
    rng = random.Random(12)
    for _ in range(10):
        a, b = (tuple(field.sample(rng, 5) for _ in range(3)) for _ in range(2))
        assert E3.mul(field, a, b) == old_cubic_etale_mul(E3, field, a, b)


F3, F5 = PrimeField(3), PrimeField(5)


def _etale(k, coeffs):
    return CubicEtale(k, [k.from_int(c) for c in coeffs])


@pytest.mark.parametrize("build", [
    lambda: FirstTits(E, F(1, 2)),
    lambda: FirstTits(_etale(F2, (1, 1, 0, 1)), F2.one()),
    lambda: FirstTits(_etale(F3, (1, -1, 0, 1)), F3.from_int(2)),
    lambda: FirstTits(_etale(F5, (-2, 0, 0, 1)), F5.from_int(3)),
    lambda: FirstTits(Matrix3(F7), F7.from_int(3)),
    lambda: FirstTits(Matrix3(QQ), F(2)),
    lambda: FirstTits(ALGEBRAS["cyclic"], F(3)),
], ids=["E_Q", "E_F2", "E_F3", "E_F5", "matrix3_F7", "matrix3_Q", "cyclic_Q"])
def test_first_tits_norm_matches_the_accumulated_expression(build):
    J = build()
    ring, X = J.generic_vectors(1)
    _identical(J.norm_program(ring, X), old_first_tits_norm(J, ring, X))
    rng = random.Random(13)
    for _ in range(5):
        x = J.sample_vec(rng, 5)
        assert J.norm_program(J.field, x) == old_first_tits_norm(J, J.field, x)
    # one or two blocks of zeros, or all three: the pair list is partly or
    # wholly empty
    m = J.D.dim
    for zero in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
        for S, v in ((ring, X), (J.field, x)):
            w = tuple(S.zero() if i // m in zero else c for i, c in enumerate(v))
            _identical(J.norm_program(S, w), old_first_tits_norm(J, S, w))
    if J.field is QQ:
        # coordinates over Q(t): a + b t with one coordinate over 1 + t
        xt = [Qt.from_poly(UPoly([QQ.sample(rng, 5), QQ.sample(rng, 5)], QQ))
              for _ in range(J.dim)]
        xt[0] = xt[0] / Qt.from_poly(UPoly([F(1), F(1)], QQ))
        assert J.norm_program(Qt, xt) == old_first_tits_norm(J, Qt, xt)


def _old_norm(alg, S, a):
    """N(a) by :func:`conftest.old_det3`, the inner norms paired for prodop."""
    if isinstance(alg, ProductWithOpposite):
        xs, ys = alg._split(S, a)
        return S.make(_old_norm(alg.inner, S.base, xs), _old_norm(alg.inner, S.base, ys))
    return alg._scalar(S, old_det3(alg.char_matrix(S, a)))


NORM_ALGEBRAS = dict(ALGEBRAS, cubic_etale_F2=_etale(F2, (1, 1, 0, 1)), matrix3_F7=Matrix3(F7),
                     prodop_E=ProductWithOpposite(E))


@pytest.mark.parametrize("name", sorted(NORM_ALGEBRAS))
def test_norm_pairs_sum_to_the_norm(name):
    # zeroing coordinate 1, or 1 and 2, or the second L-part of a cyclic
    # element, zeroes part of the characteristic matrix's first row
    alg = NORM_ALGEBRAS[name]
    K, n = alg.base_ring, alg.dim
    if isinstance(K, QuadraticEtale):
        P = PolyRing(K.base, 4 * n)
        S = alg.extend_ring(P)
    else:
        S = P = PolyRing(K, 2 * n)
    rng = random.Random(5)
    cases = [(S, _generic(alg, S, P)[0])] + [(K, alg.sample(rng, 5).coords) for _ in range(3)]
    for T, a in cases:
        for zero in [(), (1,), (1, 2), (3, 4, 5), tuple(range(1, n)), tuple(range(n))]:
            b = tuple(T.zero() if i in zero else c for i, c in enumerate(a))
            pairs = alg.norm_pairs(T, b)
            got = dot(pairs) if pairs else T.zero()
            assert got == alg.norm(T, b) == _old_norm(alg, T, b)

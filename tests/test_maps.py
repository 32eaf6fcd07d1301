import random
from fractions import Fraction as F

import pytest

from albert import linalg, maps
from albert.errors import AlbertError, ConstraintError, NotInvertible, SimilarityError
from albert.scalars import QQ, PrimeField
from albert.deg3 import Matrix3
from albert.tits import FirstTits
from conftest import matrix_unit, random_norm_equal_pair, random_norm_one, sample_nonzero

M3 = Matrix3(QQ)


def homothety(J, alpha):
    z = J.field.zero()
    return [[alpha if i == j else z for j in range(J.dim)] for i in range(J.dim)]


# ---- certify -----------------------------------------------------------------


def test_certify_homothety(J27):
    f = maps.certify(J27, homothety(J27, F(2)))
    assert f.multiplier == F(8)
    assert not f.is_automorphism


def test_certify_identity(J27):
    f = maps.certify(J27, linalg.identity(QQ, 27))
    assert f.multiplier == F(1) and f.is_automorphism


def test_certify_rejects_coordinate_swap(J27):
    m = linalg.identity(QQ, 27)
    # swapping a first-block coordinate with a second-block one breaks the norm
    m[0], m[9] = m[9], m[0]
    with pytest.raises(SimilarityError):
        maps.certify(J27, m)


def test_certify_rejects_singular(J27):
    m = linalg.identity(QQ, 27)
    m[5] = [QQ.zero()] * 27
    with pytest.raises(SimilarityError) as err:
        maps.certify(J27, m)
    assert err.value.code == "singular-matrix"


def test_certify_checks_a_given_multiplier_against_the_scope(J27):
    m = homothety(J27, F(2))
    with maps.certifying():
        f = maps.certify(J27, m)
        with pytest.raises(AlbertError, match="endpoint multipliers disagree"):
            maps.certify(J27, m, F(3))
        assert maps.certify(J27, m, F(8)) is f


def _changed(field, n, change):
    """The n x n identity over ``field`` with one change: "none", an
    off-diagonal 1, a 2 on the diagonal, or every entry zero."""
    m = linalg.identity(field, n)
    if change == "off-diagonal":
        m[0][1] = field.one()
    elif change == "diagonal-2":
        m[3][3] = field.one() + field.one()
    elif change == "zero":
        m = [[field.zero()] * n for _ in range(n)]
    return m


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("change", ["none", "off-diagonal", "diagonal-2", "zero"])
def test_is_identity(field, change):
    J = FirstTits(Matrix3(field), field.one())
    f = maps.SimilarityMap(J, J, _changed(field, J.dim, change), field.one(), False)
    assert f.is_identity() == (change == "none")


# ---- U-operator similarity ---------------------------------------------------


def test_u_similarity_unit(J27):
    f = maps.u_similarity(J27, J27.unit)
    assert f.is_identity() and f.multiplier == F(1)


def test_u_similarity_multiplier(J27):
    a = J27.embed(M3.diag([F(1), F(2), F(3)]), 0)
    f = maps.u_similarity(J27, a)
    assert f.multiplier == F(36)
    assert f.multiplier == J27.norm(a) ** 2


def test_u_similarity_norm_zero(J27):
    with pytest.raises(NotInvertible):
        maps.u_similarity(J27, J27.embed(matrix_unit(M3, 0, 1), 0))


# ---- conjugation and J-maps --------------------------------------------------


def test_aut_conj_identity(J27):
    assert maps.aut_conj_I(J27, M3.one()).is_identity()


def test_aut_conj_diag(J27):
    f = maps.aut_conj_I(J27, M3.diag([F(1), F(2), F(3)]))
    assert f.is_automorphism


def test_aut_conj_singular(J27):
    with pytest.raises(NotInvertible):
        maps.aut_conj_I(J27, matrix_unit(M3, 0, 1))


def test_jmap_variants_at_unit(J27):
    assert maps.aut_J(J27, M3.one(), "A").is_identity()
    assert maps.aut_J(J27, M3.one(), "B").is_identity()


def test_jmap_disambiguation(J27):
    c = M3.transvection(1, 2, F(1))
    out = maps.jmap_disambiguation(J27, c)
    assert isinstance(out["A"], str)
    assert out["B"].is_automorphism


def test_jmap_needs_norm_one(J27):
    with pytest.raises(ConstraintError):
        maps.aut_J(J27, M3.diag([F(2), F(1), F(1)]), "B")


# ---- first-construction extensions -------------------------------------------


def test_aut_ext_identity(J27):
    assert maps.aut_ext_D(J27, M3.one(), M3.one()).is_identity()


def test_aut_ext_diag_pair(J27):
    g = M3.diag([F(1), F(2), F(3)])
    h = M3.diag([F(6), F(1), F(1)])
    f = maps.aut_ext_D(J27, g, h)
    assert f.is_automorphism


def test_aut_ext_norm_mismatch(J27):
    with pytest.raises(ConstraintError) as err:
        maps.aut_ext_D(J27, M3.diag([F(1), F(2), F(3)]), M3.one())
    assert err.value.code == "norm-mismatch"


def test_aut_ext_restricts_to_conjugation(J27):
    rng = random.Random(41)
    g, h = random_norm_equal_pair(M3, rng)
    f = maps.aut_ext_D(J27, g, h)
    ginv = g.inverse()
    for e in M3.basis():
        assert f.apply(J27.embed(e, 0)) == J27.embed(g * e * ginv, 0)


def test_str_ext_examples(J27):
    f = maps.str_ext_D(J27, F(2), M3.one(), M3.one(), M3.one())
    assert f.multiplier == F(8)
    g = M3.diag([F(1), F(2), F(3)])
    f2 = maps.str_ext_D(J27, F(1), g, M3.one(), g)
    assert f2.multiplier == F(6)
    f3 = maps.str_ext_D(J27, F(1), M3.one(), g, M3.diag([F(1), F(1), F(1, 6)]))
    assert f3.multiplier == F(6)


def test_str_ext_multiplier_law(J27):
    rng = random.Random(42)
    for _ in range(10):
        gamma = sample_nonzero(QQ, rng, 5)
        b = M3.sample_invertible(rng, 3)
        c = M3.sample_invertible(rng, 3)
        a = b * c * random_norm_one(M3, rng)
        f = maps.str_ext_D(J27, gamma, a, b, c)
        assert f.multiplier == gamma ** 3 * a.norm() * b.norm()


def test_str_ext_constraint(J27):
    with pytest.raises(ConstraintError):
        maps.str_ext_D(J27, F(1), M3.diag([F(2), F(1), F(1)]), M3.one(), M3.one())


# ---- second-construction maps -------------------------------------------------


def test_aut_ext_second_identity(J_second, B_conj):
    f = maps.aut_ext_second(J_second, B_conj.one(), B_conj.one())
    assert f.is_identity()


def test_aut_ext_second_not_similitude(J_second, B_conj, Qi):
    with pytest.raises(ConstraintError) as err:
        maps.aut_ext_second(
            J_second, B_conj.diag([Qi.one(), Qi.one(), Qi.from_int(2)]), B_conj.one()
        )
    assert err.value.code == "not-a-similitude"


def test_aut_ext_second_worked_example(J_second, B_conj, Qi):
    i = Qi.make(F(0), F(1))
    g = B_conj.one().scale(i)
    q = B_conj.diag([Qi.from_int(-1), Qi.one(), Qi.one()])
    f = maps.aut_ext_second(J_second, g, q)
    assert f.is_automorphism


def test_aut_ext_second_restricts_to_conjugation(J_second, B_conj, Qi):
    i = Qi.make(F(0), F(1))
    g = B_conj.one().scale(i)
    q = B_conj.diag([Qi.from_int(-1), Qi.one(), Qi.one()])
    f = maps.aut_ext_second(J_second, g, q)
    rng = random.Random(43)
    h = B_conj.sample(rng, 3)
    h = h + h.conj()
    ginv = g.inverse()
    assert f.apply(J_second.embed_hermitian(h)) == \
        tuple(J_second.embed_hermitian(g * h * ginv))


def test_aut_stab_second(J_second, B_conj, Qi):
    assert maps.aut_stab_second(J_second, B_conj.one(), B_conj.one()).is_identity()
    i = Qi.make(F(0), F(1))
    p = B_conj.diag([i, -i, Qi.one()])
    f = maps.aut_stab_second(J_second, p, B_conj.one())
    assert f.is_automorphism
    with pytest.raises(ConstraintError):
        maps.aut_stab_second(J_second, B_conj.diag([i, Qi.one(), Qi.one()]),
                             B_conj.one())


def test_aut_stab_second_fixed_space(J_second, B_conj, Qi):
    i = Qi.make(F(0), F(1))
    p = B_conj.diag([i, -i, Qi.one()])
    f = maps.aut_stab_second(J_second, p, B_conj.one())
    # p commutes with the diagonal hermitian elements, which f therefore fixes
    for entries in ([F(1), F(0), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(3)]):
        h = J_second.embed_hermitian(B_conj.diag([Qi.from_base(v) for v in entries]))
        assert f.apply(h) == tuple(h)


def test_str_ext_second(J_second, B_conj, Qi):
    f = maps.str_ext_second(J_second, F(1), B_conj.one(), B_conj.one())
    assert f.is_identity()
    f2 = maps.str_ext_second(J_second, F(2), B_conj.one(), B_conj.one())
    assert f2.multiplier == F(8)
    g = B_conj.diag([Qi.one(), Qi.from_int(2), Qi.one()])
    f3 = maps.str_ext_second(J_second, F(1), g, B_conj.one())
    assert f3.multiplier == F(4)  # N(g) * conj(N(g))


# ---- factorization, composition -----------------------------------------------


def compose(f, g):
    """f after g, certified afresh from the product matrix."""
    return maps.certify(f.parent, linalg.mat_mul(f.matrix, g.matrix))


def test_factor_identity(J27):
    assert maps.aut_conj_I(J27, M3.one()).is_identity()
    assert maps.aut_J(J27, M3.one(), "B").is_identity()


def test_factor_diag_pair(J27):
    """aut_ext_D(a, b) is aut_J(a b^{-1}, "B") after aut_conj_I(a)."""
    a = M3.diag([F(1), F(2), F(3)])
    b = M3.diag([F(6), F(1), F(1)])
    with maps.certifying():
        i_part = maps.aut_conj_I(J27, a)
        j_part = maps.aut_J(J27, a * b.inverse(), "B")
        assert compose(j_part, i_part) is maps.aut_ext_D(J27, a, b)


def test_factor_equal_pair_gives_trivial_jpart(J27):
    a = M3.diag([F(1), F(2), F(3)])
    assert maps.aut_J(J27, a * a.inverse(), "B").is_identity()
    with maps.certifying():
        assert maps.aut_ext_D(J27, a, a) is maps.aut_conj_I(J27, a)


def test_compose_invert(J27):
    d = M3.diag([F(1), F(2), F(3)])
    f = maps.aut_conj_I(J27, d)
    assert compose(f, maps.aut_conj_I(J27, d.inverse())).is_identity()
    h2 = maps.certify(J27, homothety(J27, F(2)))
    h3 = maps.certify(J27, homothety(J27, F(3)))
    assert compose(h2, h3).multiplier == F(216)


def test_multiplier_multiplicative_random(J27):
    rng = random.Random(44)
    for _ in range(5):
        g, h = random_norm_equal_pair(M3, rng)
        f1 = maps.aut_ext_D(J27, g, h)
        alpha = sample_nonzero(QQ, rng, 4)
        f2 = maps.certify(J27, homothety(J27, alpha))
        assert compose(f1, f2).multiplier == f1.multiplier * f2.multiplier

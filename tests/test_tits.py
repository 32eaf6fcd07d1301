import random
from fractions import Fraction as F

import pytest

from albert import linalg
from albert.errors import ConstraintError
from albert.scalars import QQ
from albert.upoly import RationalFunctionField
from albert.deg3 import (
    CubicEtale,
    Cyclic,
    Matrix3,
    ProductWithOpposite,
    Switch,
)
from albert.tits import FirstTits, SecondTits, split_identify
from albert.maps import certify_between
from conftest import prodop_pair

M3 = Matrix3(QQ)


# ---- first construction ------------------------------------------------------


def test_first_tits_base_point(J27):
    assert J27.norm(J27.unit) == F(1)


def test_first_tits_block_norms(J27):
    assert J27.norm(J27.embed(M3.one(), 1)) == F(2)
    assert J27.norm(J27.embed(M3.one(), 2)) == F(1, 2)


def test_first_tits_sharp_of_third_block_unit(J27):
    assert J27.sharp(J27.embed(M3.one(), 2)) == \
        J27.embed(M3.one().scale(F(1, 2)), 1)


def test_first_tits_rejects_zero_lambda():
    with pytest.raises(ConstraintError):
        FirstTits(M3, F(0))


def test_first_tits_division_metadata():
    L = CubicEtale(QQ, [F(-1), F(-3), F(0), F(1)])
    C = Cyclic(L, (F(2), F(0), F(-1)), F(2), division_asserted=True)
    J = FirstTits(C, F(5), division_asserted=True)
    assert J.division_asserted
    assert "reduced-norm" in J.division_criterion


def test_first_tits_axioms_cyclic_coordinates():
    L = CubicEtale(QQ, [F(-1), F(-3), F(0), F(1)])
    C = Cyclic(L, (F(2), F(0), F(-1)), F(2), division_asserted=True)
    J = FirstTits(C, F(5))
    rep = J.axiom_suite(sample_count=6, seed=11)
    assert rep.all_pass, rep.render()


def test_scale_change_isomorphism(J27):
    # (x, y, z) -> (x, y d, d^{-1} z) identifies J(D, lam * N(d)) with J(D, lam)
    d = M3.diag([F(1), F(1), F(3)])
    nd = d.norm()
    J_big = FirstTits(M3, F(2) * nd)
    dinv = d.inverse()
    cols = []
    for block in range(3):
        for e in M3.basis():
            img = e if block == 0 else (e * d if block == 1 else dinv * e)
            cols.append(J27.embed(img, block))
    matrix = [[cols[j][i] for j in range(27)] for i in range(27)]
    assert matrix == J27.map_matrix([lambda e: e, lambda e: e * d, lambda e: dinv * e], QQ)
    fmap = certify_between(J27, J_big, matrix)
    assert fmap.multiplier == F(1)


def test_first_tits_map_matrix_of_identity_images(J27):
    keep = lambda e: e
    for ring in (QQ, RationalFunctionField(QQ, "t")):
        assert J27.map_matrix([keep, keep, keep], ring) == linalg.identity(ring, 27)


# ---- second construction -----------------------------------------------------


def test_second_tits_unit_norm(J_second):
    assert J_second.dim == 27
    assert J_second.norm(J_second.unit) == F(1)


def test_second_tits_admissible_example(B_conj, Qi):
    u = B_conj.diag([Qi.one(), Qi.one(), Qi.from_int(2)])
    mu = Qi.make(F(1), F(1))  # 1 + i with norm 2 = N(u)
    J = SecondTits(B_conj, u, mu)
    assert J.norm(J.unit) == F(1)


def test_second_tits_inadmissible(B_conj, Qi):
    with pytest.raises(ConstraintError) as err:
        SecondTits(B_conj, B_conj.one(), Qi.from_int(2))
    assert err.value.code == "inadmissible-pair"


def test_second_tits_nonhermitian_u_rejected(B_conj, Qi):
    i = Qi.make(F(0), F(1))
    with pytest.raises(ConstraintError):
        SecondTits(B_conj, B_conj.one().scale(i), Qi.make(F(0), F(1)))


def test_second_tits_map_matrix_of_identity_images(J_second):
    keep = lambda b: b
    assert J_second.map_matrix([keep, keep]) == linalg.identity(QQ, 27)


def test_second_tits_first_summand_norm_restriction(J_second, B_conj, Qi):
    # on hermitian elements the carrier norm equals N_B and the center trace
    # term contributes nothing
    rng = random.Random(31)
    for _ in range(10):
        h = B_conj.sample(rng, 3)
        h = h + h.conj()  # hermitian
        vec = J_second.embed_hermitian(h)
        n = h.norm()
        assert Qi.components(n)[1] == F(0)
        assert J_second.norm(vec) == Qi.components(n)[0]


def test_second_tits_hermitian_projection_round_trip(J_second, B_conj):
    rng = random.Random(32)
    for _ in range(10):
        h = B_conj.sample(rng, 3)
        h = h + h.conj()
        vec = J_second.embed_hermitian(h)
        _, b, x = J_second.parts(QQ, vec)
        assert b == h.coords and not any(x)


# ---- first summand embedding -------------------------------------------------


def test_embed_first_summand_norm_and_sharp(J27):
    """N and # restrict to N_D and D^# on the first block."""
    rng = random.Random(33)
    for _ in range(10):
        x = M3.sample(rng, 4)
        vec = J27.embed(x, 0)
        assert J27.norm(vec) == x.norm()
        assert J27.sharp(vec) == J27.embed(x.sharp(), 0)


def test_embed_first_summand_closure(J27):
    """D+ is closed under X: e X f = (e + f)^# - e^# - f^# on basis pairs."""
    basis = M3.basis()
    for e in basis:
        for f in basis:
            expected = (e + f).sharp() - e.sharp() - f.sharp()
            assert J27.cross(J27.embed(e, 0), J27.embed(f, 0)) == J27.embed(expected, 0)


def test_embed_first_summand_second_construction(J_second, B_conj, Qi):
    rng = random.Random(34)
    h = B_conj.sample(rng, 3)
    h = h + h.conj()
    vec = J_second.embed_hermitian(h)
    assert len(vec) == J_second.dim == 27
    assert J_second.norm(vec) == Qi.components(h.norm())[0]


# ---- split identification ----------------------------------------------------


def test_split_identify_certifies():
    fmap = split_identify(M3, (F(2), F(1, 2)))
    assert fmap.multiplier == F(1)
    assert fmap.target.lam == F(2)
    assert fmap.apply(fmap.parent.unit) == tuple(fmap.target.unit)


def test_split_identify_first_summands_correspond():
    fmap = split_identify(M3, (F(2), F(1, 2)))
    J2, J1 = fmap.parent, fmap.target
    prodop = J2.B
    rng = random.Random(35)
    d = M3.sample(rng, 3)
    diag = prodop_pair(prodop, d, d)
    vec = J2.embed_hermitian(diag)
    assert fmap.apply(vec) == tuple(J1.embed(d, 0))


def reference_split_identify_matrix(D, J2):
    """The identification matrix from hand-placed columns: the first
    components of the i-th hermitian basis element fill block 0, and the two
    components of the i-th free coordinate are unit vectors at positions
    m + i and 2m + i of J(D, lam)."""
    field = D.base_ring
    K = J2.B.base_ring
    m = D.dim
    n = 3 * m
    z = field.zero()
    cols = []
    for i in range(m):
        unit = [z] * n
        unit[i] = field.one()
        _, herm, _ = J2.parts(field, unit)
        cols.append([K.components(v)[0] for v in herm] + [z] * (2 * m))
    for i in range(m):
        col_a = [z] * n
        col_a[m + i] = field.one()
        col_b = [z] * n
        col_b[2 * m + i] = field.one()
        cols.append(col_a)
        cols.append(col_b)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("lam", [F(2), F(-3), F(5, 7)])
def test_split_identify_matches_hand_placed_columns(lam):
    fmap = split_identify(M3, (lam, 1 / lam))
    assert fmap.matrix == reference_split_identify_matrix(M3, fmap.parent)


def test_split_identify_respects_admissibility():
    with pytest.raises(ConstraintError):
        split_identify(M3, (F(2), F(2)))


def test_second_tits_switch_axioms_quick():
    prodop = ProductWithOpposite(M3).attach_involution(Switch())
    K = prodop.base_ring
    J = SecondTits(prodop, prodop.one(), K.make(F(2), F(1, 2)))
    rep = J.axiom_suite(sample_count=5, seed=7)
    assert rep.all_pass, rep.render()

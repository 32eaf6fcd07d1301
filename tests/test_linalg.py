import random
from fractions import Fraction as F

import pytest

from albert import linalg
from albert.errors import AlbertError, NotInvertible
from albert.scalars import QQ, PrimeField


def rand_matrix(field, rng, n):
    return [[field.sample(rng, 5) for _ in range(n)] for _ in range(n)]


def test_inverse_round_trip():
    rng = random.Random(1)
    for field in (QQ, PrimeField(7)):
        for _ in range(20):
            m = rand_matrix(field, rng, 4)
            try:
                inv = linalg.inverse(field, m)
            except NotInvertible:
                assert field.is_zero(linalg.det(field, m))
                continue
            assert linalg.mat_eq(linalg.mat_mul(m, inv), linalg.identity(field, 4))


def test_det_multiplicative():
    rng = random.Random(2)
    for _ in range(20):
        a, b = rand_matrix(QQ, rng, 3), rand_matrix(QQ, rng, 3)
        assert linalg.det(QQ, linalg.mat_mul(a, b)) == \
            linalg.det(QQ, a) * linalg.det(QQ, b)


def test_kernel_and_rank():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    ker = linalg.kernel(QQ, m)
    assert len(ker) == 1
    assert all(QQ.is_zero(v) for v in linalg.mat_vec(m, ker[0]))
    assert len(linalg.echelon(QQ, [list(row) for row in m])) == 2


def test_row_space_and_span():
    sub = linalg.Subspace(QQ, [[F(1), F(0), F(1)], [F(0), F(1), F(1)]])
    assert sub.coords(QQ, [F(2), F(3), F(5)]) == [F(2), F(3)]
    assert sub.vector(QQ, [F(2), F(3)]) == [F(2), F(3), F(5)]
    with pytest.raises(AlbertError, match="does not lie in the subspace"):
        sub.coords(QQ, [F(0), F(0), F(1)])
    with pytest.raises(AlbertError, match="rank deficient"):
        linalg.Subspace(QQ, [[F(1), F(0), F(1)], [F(2), F(0), F(2)]])

import random
from fractions import Fraction as F

import pytest

from albert import linalg
from albert.errors import AlbertError, NotInvertible
from albert.scalars import QQ, PrimeField
from albert.upoly import RationalFunctionField


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
                assert linalg.rank(field, m) < 4
                continue
            assert linalg.rank(field, m) == 4
            assert linalg.mat_eq(linalg.mat_mul(m, inv), linalg.identity(field, 4))


def test_kernel_and_rank():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    ker = linalg.kernel(QQ, m)
    assert len(ker) == 1
    assert all(QQ.is_zero(v) for v in linalg.mat_vec(m, ker[0]))
    assert linalg.rank(QQ, m) == 2
    assert m[1] == [F(2), F(4), F(6)]  # rank eliminates on a copy


def test_row_space_and_span():
    sub = linalg.Subspace(QQ, [[F(1), F(0), F(1)], [F(0), F(1), F(1)]])
    assert sub.coords(QQ, [F(2), F(3), F(5)]) == [F(2), F(3)]
    assert sub.vector(QQ, [F(2), F(3)]) == [F(2), F(3), F(5)]
    with pytest.raises(AlbertError, match="does not lie in the subspace"):
        sub.coords(QQ, [F(0), F(0), F(1)])
    with pytest.raises(AlbertError, match="rank deficient"):
        linalg.Subspace(QQ, [[F(1), F(0), F(1)], [F(2), F(0), F(2)]])


def naive_product(field, A, B):
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), field.zero())
             for j in range(len(B[0]))] for i in range(len(A))]


def sparse_matrix(field, rng, rows, cols):
    return [[field.sample(rng, 5) if rng.random() < 0.3 else field.zero()
             for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("field", [QQ, PrimeField(7), RationalFunctionField(QQ, "t")],
                         ids=["Q", "F7", "Q(t)"])
def test_mat_mul_sparse_matches_naive_sum(field):
    rng = random.Random(3)
    for _ in range(5):
        A, B = sparse_matrix(field, rng, 4, 5), sparse_matrix(field, rng, 5, 3)
        A[1] = [field.zero()] * 5             # an all-zero row of A
        for row in B:                         # an all-zero column of B
            row[2] = field.zero()
        product = linalg.mat_mul(A, B)
        assert product == naive_product(field, A, B)
        assert all(product[1][j] == field.zero() for j in range(3))
        assert all(product[i][2] == field.zero() for i in range(4))
        for row in product:
            for v in row:
                if field.is_zero(v):
                    assert v == field.zero() and type(v) is type(field.zero())

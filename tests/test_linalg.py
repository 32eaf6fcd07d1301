import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from albert import linalg
from albert.errors import AlbertError, NotInvertible
from albert.multipoly import PolyRing
from albert.scalars import QQ, PrimeField, lift
from albert.upoly import RationalFunctionField

from conftest import ref_echelon


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


def test_mat_eq_compares_shapes():
    assert linalg.mat_eq([[F(1), F(2)]], [[F(1), F(2)]])
    assert not linalg.mat_eq([[F(1)]], [[F(1), F(2)]])
    assert not linalg.mat_eq([[F(1), F(2)]], [[F(1)]])
    assert not linalg.mat_eq([[F(1)]], [[F(1)], [F(0)]])
    assert not linalg.mat_eq([[F(1)], [F(0)]], [[F(1)]])
    assert not linalg.mat_eq([[F(1), F(2)]], [[F(1), F(3)]])
    assert linalg.mat_eq([], [])


def test_mat_eq_accepts_tuple_rows():
    assert linalg.mat_eq([(F(1), F(2))], [[F(1), F(2)]])
    assert linalg.mat_eq([[F(1), F(2)]], ((F(1), F(2)),))
    assert not linalg.mat_eq([(F(1), F(2))], [(F(1),)])


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


@pytest.mark.parametrize("field", [QQ, PrimeField(7), RationalFunctionField(QQ, "t"),
                                   PolyRing(QQ, ["x", "y"])],
                         ids=["Q", "F7", "Q(t)", "Q[x,y]"])
def test_mat_mul_sparse_matches_naive_sum(field):
    rng = random.Random(3)
    for _ in range(5):
        A, B = sparse_matrix(field, rng, 4, 5), sparse_matrix(field, rng, 5, 3)
        v = [field.sample(rng, 5) if j % 2 else field.zero() for j in range(5)]
        assert linalg.mat_vec(A, v) == naive_mat_vec(A, v, field.zero())
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


# entries for the integer-coded contraction over Q: often zero, signed
# numerators, and denominators that include large pairwise coprime primes
QQ_ENTRIES = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-10**12, 10**12),
              st.sampled_from([1, 2, 3, 12, 10**9 + 7, 998244353, 2**61 - 1])),
)


def qq_matrix(rows, cols):
    return st.lists(st.lists(QQ_ENTRIES, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def naive_mat_vec(A, v, zero):
    return [sum((c * x for c, x in zip(row, v)), zero) for row in A]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), rows=st.integers(1, 5), inner=st.integers(1, 5),
       cols=st.integers(1, 4), zero_row=st.integers(0, 4), zero_col=st.integers(0, 3))
def test_qq_contraction_matches_fraction_reference(data, rows, inner, cols, zero_row, zero_col):
    A = data.draw(qq_matrix(rows, inner))
    B = data.draw(qq_matrix(inner, cols))
    A[zero_row % rows] = [F(0)] * inner
    for row in B:
        row[zero_col % cols] = F(0)
    product = linalg.mat_mul(A, B)
    assert product == naive_product(QQ, A, B)
    assert all(product[zero_row % rows][j] == 0 for j in range(cols))
    assert all(product[i][zero_col % cols] == 0 for i in range(rows))
    assert all(type(v) is F for row in product for v in row)
    for col in zip(*B):
        v = list(col)
        assert linalg.mat_vec(A, v) == linalg.mat_vec(A, v, QQ) == naive_mat_vec(A, v, F(0))
    assert linalg.mat_vec(A, [F(0)] * inner, QQ) == [F(0)] * rows


@settings(max_examples=30, deadline=None)
@given(data=st.data(), rows=st.integers(1, 4), inner=st.integers(1, 4))
def test_lifted_and_prime_field_contractions_match_reference(data, rows, inner):
    A = data.draw(qq_matrix(rows, inner))
    w = data.draw(qq_matrix(inner, 2))
    # k = Q, S = Q[x, y]: the entries of A are lifted
    P = PolyRing(QQ, ["x", "y"])
    x, y = P.gens()
    v = [lift(P, QQ, c) * x + lift(P, QQ, d) * y + 1 for c, d in w]
    lifted = [[lift(P, QQ, c) for c in row] for row in A]
    assert linalg.mat_vec(A, v, P, QQ) == naive_mat_vec(lifted, v, P.zero())
    # F_7
    F7 = PrimeField(7)
    Ap = [[F7.from_int(c.numerator) for c in row] for row in A]
    vp = [F7.from_int(c.numerator) for c, _ in w]
    want = naive_mat_vec(Ap, vp, F7.zero())
    assert linalg.mat_vec(Ap, vp) == linalg.mat_vec(Ap, vp, F7) == want
    assert linalg.mat_mul(Ap, [[c] for c in vp]) == [[c] for c in want]


FIELDS = [QQ, PrimeField(7), RationalFunctionField(QQ, "t")]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7", "Q(t)"])
def test_echelon_matches_dense_reference(field):
    """Same pivot columns, reduced matrix and ``track`` as the loop over
    whole rows, on sparse and dense matrices with zero rows, zero columns
    and pivot rows that are zero where other rows are not."""
    rng = random.Random(11)
    z, o = field.zero(), field.one()
    for trial in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice([0.2, 0.5, 1.0])
        M = [[field.sample(rng, 4) if rng.random() < density else z for _ in range(cols)]
             for _ in range(rows)]
        M[rng.randrange(rows)] = [z] * cols
        zero_col = rng.randrange(cols)
        for row in M:
            row[zero_col] = z
        if trial % 3 == 0 and cols > 1:
            # a unit-vector pivot row above rows that are dense past it
            M[0] = [o] + [z] * (cols - 1)
        track = ([[field.sample(rng, 4) if rng.random() < density else z for _ in range(3)]
                  for _ in range(rows)] if trial % 2 else linalg.identity(field, rows))
        M_ref, track_ref = [list(r) for r in M], [list(r) for r in track]
        assert linalg.echelon(field, M, track) == ref_echelon(field, M_ref, track_ref)
        assert M == M_ref and track == track_ref

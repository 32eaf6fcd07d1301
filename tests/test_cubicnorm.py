import random
import tracemalloc
from fractions import Fraction as F

import pytest

from albert import linalg
from albert.errors import NotInvertible
from albert.scalars import QQ, PrimeField, QuadraticExtension
from albert.deg3 import (ConjugateTranspose, CubicEtale, Cyclic, Matrix3, ProductWithOpposite,
                         Switch, vadd, vscale)
from albert.cubicnorm import AXIOM_IDS, DPlus
from albert.tits import FirstTits, SecondTits
from conftest import (MockCubicJordan, matrix_unit, sample_invertible_vec, trace_bilinear,
                      u_matrix_by_columns)

M3 = Matrix3(QQ)
DP = DPlus(M3)


# ---- linear trace ------------------------------------------------------------


def test_trace_of_unit_is_three_any_characteristic(J27):
    assert J27.trace_linear(J27.unit) == F(3)
    for p in (2, 3, 5):
        Fp = PrimeField(p)
        Jp = FirstTits(Matrix3(Fp), Fp.one())
        assert Jp.trace_linear(Jp.unit) == Fp.from_int(3)


def test_trace_of_first_tits_basis_vector(J27):
    x = J27.embed(matrix_unit(M3, 0, 0), 0)
    assert J27.trace_linear(x) == F(1)


def test_trace_of_zero(J27):
    assert J27.trace_linear((F(0),) * J27.dim) == F(0)


# ---- bilinear trace ----------------------------------------------------------


def test_bilinear_trace_examples():
    basis = [tuple(e) for e in linalg.identity(QQ, DP.dim)]
    e11 = basis[0]
    e22 = basis[4]
    assert trace_bilinear(DP, e11, e22) == F(0)
    assert trace_bilinear(DP, e11, e11) == F(1)
    assert trace_bilinear(DP, DP.unit, DP.unit) == F(3)


def test_bilinear_trace_matches_associative_pairing():
    rng = random.Random(21)
    for _ in range(50):
        x, y = DP.sample_vec(rng, 4), DP.sample_vec(rng, 4)
        assert trace_bilinear(DP, x, y) == M3.trace_pairing(QQ, x, y)


def test_gram_contraction_agrees_with_derivation(J27):
    rng = random.Random(22)
    for _ in range(10):
        x, y = J27.sample_vec(rng, 4), J27.sample_vec(rng, 4)
        assert J27.trace_pair(x, y) == trace_bilinear(J27, x, y)


def test_trace_linear_is_pairing_with_unit(J27):
    rng = random.Random(23)
    for _ in range(10):
        x = J27.sample_vec(rng, 4)
        assert J27.trace_linear(x) == trace_bilinear(J27, x, J27.unit)


# ---- cross product -----------------------------------------------------------


def test_cross_examples(J27):
    c = J27.unit
    assert J27.cross(c, c) == tuple(vscale(F(2), c))
    rng = random.Random(24)
    for _ in range(10):
        x = J27.sample_vec(rng, 4)
        expected = tuple(a - b for a, b in
                         zip(vscale(J27.trace_linear(x), c), x))
        assert J27.cross(c, x) == expected
    zero = (F(0),) * J27.dim
    assert J27.cross(J27.sample_vec(rng), zero) == zero


def test_cross_squares_to_twice_sharp_symbolically(J27):
    ring, X = J27.generic_vectors(1)
    lhs = J27.cross(X, X, S=ring)
    rhs = tuple(v * 2 for v in J27.sharp_program(ring, X))
    assert tuple(lhs) == rhs


# ---- U operators -------------------------------------------------------------


def test_u_of_unit_is_identity(J27):
    rng = random.Random(25)
    for _ in range(10):
        y = J27.sample_vec(rng, 4)
        assert J27.u_op(J27.unit, y) == tuple(y)


def test_u_at_unit_is_associative_square():
    rng = random.Random(26)
    for _ in range(10):
        x = DP.sample_vec(rng, 4)
        assert DP.u_op(x, DP.unit) == tuple(M3.mul(QQ, x, x))


def test_u_of_zero(J27):
    zero = (F(0),) * J27.dim
    assert J27.u_op(zero, J27.sample_vec(random.Random(1))) == zero


def test_fundamental_formula_sampled(J27):
    rng = random.Random(27)
    for _ in range(25):
        x, y = J27.sample_vec(rng, 3), J27.sample_vec(rng, 3)
        ux, uy = J27.u_matrix(x), J27.u_matrix(y)
        uxy = J27.u_matrix(J27.u_op(x, y))
        assert linalg.mat_eq(uxy, linalg.mat_mul(ux, linalg.mat_mul(uy, ux)))


def _second_conjtrans():
    Qi = QuadraticExtension(QQ, F(-1))
    B = Matrix3(Qi).attach_involution(ConjugateTranspose())
    return SecondTits(B, B.one(), Qi.one())


def _second_switch():
    """The split second construction: prodop(matrix3(Q)) with the switch
    involution, u = 1 and mu = (2; 1/2), of norm one."""
    P = ProductWithOpposite(M3).attach_involution(Switch())
    K = P.base_ring
    return SecondTits(P, P.one(), K.make(F(2), F(1, 2)))


F2, F3, F7 = PrimeField(2), PrimeField(3), PrimeField(7)
CYCLIC_L = CubicEtale(QQ, [F(-1), F(-3), F(0), F(1)])
U_MATRIX_CASES = {
    "first_M3_Q": lambda: FirstTits(M3, F(2)),
    "first_etale_Q": lambda: FirstTits(CYCLIC_L, F(3)),
    "first_M3_F2": lambda: FirstTits(Matrix3(F2), F2.one()),
    "first_M3_F3": lambda: FirstTits(Matrix3(F3), F3.from_int(2)),
    "first_M3_F7": lambda: FirstTits(Matrix3(F7), F7.from_int(3)),
    "first_cyclic_Q": lambda: FirstTits(Cyclic(CYCLIC_L, (F(2), F(0), F(-1)), F(2)), F(3)),
    "second_conjtrans_Qi": _second_conjtrans,
    "second_switch_Q": _second_switch,
}


@pytest.mark.parametrize("case", sorted(U_MATRIX_CASES))
def test_u_matrix_matches_column_reference(case):
    J = U_MATRIX_CASES[case]()
    rng = random.Random(11)
    zero = tuple(J.field.zero() for _ in range(J.dim))
    for x in [zero, J.unit_vec(), J.sample_vec(rng, 3)]:
        assert J.u_matrix(x) == u_matrix_by_columns(J, x)


# ---- inverses ----------------------------------------------------------------


def jordan_inverse(J, x):
    """N(x)^{-1} x^#."""
    return vscale(J.field.inv(J.norm(x)), J.sharp(x))


def test_jordan_inverse(J27):
    assert jordan_inverse(J27, J27.unit) == tuple(J27.unit)
    # on D+ the Jordan inverse is the associative inverse of D
    x = sample_invertible_vec(DP, random.Random(28))
    assert jordan_inverse(DP, x) == M3.element(x).inverse().coords
    d = tuple(M3.diag([F(1), F(2), F(3)]).coords)
    assert jordan_inverse(DP, d) == tuple(M3.diag([F(1), F(1, 2), F(1, 3)]).coords)
    e01 = matrix_unit(M3, 0, 1)
    assert DP.norm(e01.coords) == F(0)
    with pytest.raises(NotInvertible):
        e01.inverse()


def test_u_recovers_element_from_inverse(J27):
    """U_x(N(x)^{-1} x^#) = x."""
    rng = random.Random(29)
    for _ in range(10):
        x = sample_invertible_vec(J27, rng, 4)
        assert J27.u_op(x, jordan_inverse(J27, x)) == tuple(x)


# ---- axiom suite -------------------------------------------------------------


def test_axiom_suite_first_tits_passes(J27):
    rep = J27.axiom_suite(sample_count=10, seed=1)
    assert rep.all_pass
    assert [check_id for check_id, _, _ in rep.items] == list(AXIOM_IDS)


def test_axiom_suite_dplus_char2():
    Jp = DPlus(Matrix3(PrimeField(2)))
    rep = Jp.axiom_suite(sample_count=10, seed=2)
    assert rep.all_pass


def test_axiom_suite_zero_sharp_fails(J27):
    mock = MockCubicJordan(
        QQ, J27.dim, J27.unit, J27.norm_program,
        lambda S, c: tuple(S.zero() for _ in c),
    )
    rep = mock.axiom_suite(sample_count=5, seed=1)
    assert not rep.all_pass
    passed, details = next((p, d) for c, p, d in rep.items if c == "adjoint-double")
    assert not passed
    # the base point itself is the first counterexample tried
    assert details.startswith("counterexample x=(1,")


def test_adjoint_trace_counterexample_wraps_around():
    # x^# shifted by (x_1 - 1) c agrees with the adjugate at c only, so with
    # two samples (c, s) the pair (c, s) passes and the wrap-around (s, c)
    # is the counterexample
    mock = MockCubicJordan(
        QQ, DP.dim, DP.unit, DP.norm_program,
        lambda S, x: vadd(DP.sharp_program(S, x), vscale(x[0] - 1, DP.unit_vec(S))),
    )
    rep = mock.axiom_suite(sample_count=2, seed=4)
    s = DP.sample_vec(random.Random(4), 4)
    assert s[0] != 1

    def fmt(v):
        return "(" + ",".join(str(c) for c in v) + ")"

    assert rep.items[2] == ("adjoint-trace", False,
                            f"counterexample x={fmt(s)} y={fmt(DP.unit)}")


def test_axiom_suite_memory_does_not_grow_with_samples():
    # the samples are drawn as they are decided, never held as a list; a
    # first untraced run fills the caches and the interpreter's free lists
    Jp = DPlus(Matrix3(PrimeField(3)))
    Jp.axiom_suite(sample_count=400, seed=1)
    peaks = []
    for n in (40, 400):
        tracemalloc.start()
        try:
            Jp.axiom_suite(sample_count=n, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * 1024


def test_axiom_report_rendering(J27):
    rep = J27.axiom_suite(sample_count=5, seed=3)
    lines = rep.render_machine().splitlines()
    assert lines[-1] == "RESULT PASS"
    assert lines[:-1] == [f"CHECK {axiom_id} PASS" for axiom_id in AXIOM_IDS]


# ---- gram and nondegeneracy --------------------------------------------------


def test_gram_nondegenerate_dplus():
    assert DP.nondegenerate()
    assert linalg.rank(QQ, DP.gram()) == DP.dim


def test_gram_nondegenerate_27(J27):
    assert J27.nondegenerate()


def test_degenerate_mock_structure():
    # N = first coordinate cubed on a 2-dimensional carrier
    calls = []

    def norm_fn(S, c):
        calls.append(S)
        return c[0] * c[0] * c[0]

    def sharp_fn(S, c):
        return (c[0] * c[0], S.zero())

    mock = MockCubicJordan(QQ, 2, (F(1), F(0)), norm_fn, sharp_fn, "degenerate")
    assert not mock.nondegenerate()
    # the trace vector and the Gram matrix come from one evaluation of N(c + X)
    for _ in range(3):
        assert mock.trace_vector() == (F(3), F(0))
        assert mock.gram() == [[F(3), F(0)], [F(0), F(0)]]
    assert len(calls) == 1


# ---- degree identities -------------------------------------------------------


def test_norm_of_adjoint_symbolic(J27):
    ring, X = J27.generic_vectors(1)
    lhs = J27.norm_program(ring, J27.sharp_program(ring, X))
    n = J27.norm_program(ring, X)
    assert lhs == n * n


def test_norm_of_u_operator_symbolic_small():
    # 9-dimensional first construction over a cubic etale algebra: the same
    # identity as the 27-dimensional case at a fraction of the cost
    E = CubicEtale(QQ, [F(0), F(-1), F(0), F(1)])
    JE = FirstTits(E, F(5))
    ring, X, Y = JE.generic_vectors(2)
    u = JE.u_op(X, Y, S=ring)
    lhs = JE.norm_program(ring, u)
    nx = JE.norm_program(ring, X)
    ny = JE.norm_program(ring, Y)
    assert lhs == nx * nx * ny


# ---- the first summand -------------------------------------------------------


def test_closure_unit(J27):
    """The line through c is closed under # and X: c^# = c, c X c = 2c."""
    c = tuple(J27.unit)
    assert J27.sharp(c) == c
    assert J27.cross(c, c) == vscale(F(2), c)


def test_closure_first_summand(J27):
    """D+ in the first block is closed under # and X."""
    rng = random.Random(30)
    for _ in range(5):
        x, y = M3.sample(rng, 4), M3.sample(rng, 4)
        vx, vy = J27.embed(x, 0), J27.embed(y, 0)
        assert J27.sharp(vx) == J27.embed(x.sharp(), 0)
        assert J27.cross(vx, vy) == J27.embed((x + y).sharp() - x.sharp() - y.sharp(), 0)


def test_fixed_subspace_jmap(J27):
    """A J-map fixes D+ pointwise."""
    from albert.maps import aut_J

    f = aut_J(J27, M3.transvection(1, 2, F(1)), "B")
    for e in M3.basis():
        assert f.apply(J27.embed(e, 0)) == J27.embed(e, 0)


def test_fixed_subspace_aut_ext(J27):
    """An extension map of diagonal (g, h) fixes the diagonal of D+."""
    from albert.maps import aut_ext_D

    f = aut_ext_D(J27, M3.diag([F(2), F(1), F(1)]), M3.diag([F(1), F(2), F(1)]))
    for i in range(3):
        e = J27.embed(matrix_unit(M3, i, i), 0)
        assert f.apply(e) == e


def test_subspace_structure_is_axiom_clean(J27):
    """N and # on the first block are N_D and D^# in generic coordinates,
    so the first block carries the axiom-clean structure D+."""
    ring, X = DP.generic_vectors(1)
    z = ring.zero()
    vec = X + (z,) * (2 * DP.dim)
    assert J27.norm_program(ring, vec) == DP.norm_program(ring, X)
    assert J27.sharp_program(ring, vec) == DP.sharp_program(ring, X) + (z,) * (2 * DP.dim)
    assert DP.axiom_suite(sample_count=8, seed=4).all_pass

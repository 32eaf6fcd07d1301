import random
from fractions import Fraction as F

import pytest

from albert.errors import AlbertError, DivisionByZero, PoleAtPoint
from albert.scalars import (
    QQ,
    BiDualRing,
    PrimeField,
    QuadraticExtension,
    SplitQuadratic,
    lift,
)
from albert.scenario import evaluate_descriptor
from albert.upoly import RationalFunctionField


def test_rational_arithmetic():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert QQ.sample(random.Random(0)).denominator >= 1


def test_char2_addition():
    F2 = PrimeField(2)
    assert F2.one() + F2.one() == F2.zero()


def test_ratfunc_cancellation():
    Rt = RationalFunctionField(QQ, "t")
    t = Rt.gen()
    r = (t * t - 1) / (t - 1)
    assert r == t + 1
    assert r.den.degree == 0


def test_ratfunc_eval_and_poles():
    Rt = RationalFunctionField(QQ, "t")
    t = Rt.gen()
    r = Rt.one() / (t - 2)
    assert Rt.evaluate(r, F(0)) == F(-1, 2)
    with pytest.raises(PoleAtPoint):
        Rt.evaluate(r, F(2))
    # cancellation happens before evaluation
    r2 = (t * t - 1) / (t - 1)
    assert Rt.evaluate(r2, F(1)) == F(2)


def test_division_by_zero_is_distinct_error():
    with pytest.raises(DivisionByZero):
        QQ.inv(F(0))
    F7 = PrimeField(7)
    with pytest.raises(DivisionByZero):
        F7.one() / F7.zero()


def test_parent_mismatch():
    from albert.errors import ParentMismatch

    with pytest.raises(ParentMismatch):
        PrimeField(5).one() + PrimeField(7).one()


def _law_check(field, rng, trials=1000):
    for _ in range(trials):
        a, b, c = (field.sample(rng, 6) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not field.is_zero(a):
            assert a * field.inv(a) == field.one()


@pytest.mark.parametrize("spec", ["Q", "F2", "F7", "Q[s]/(s^2-(-1))", "Q(t)"])
def test_field_laws_random(spec):
    field = evaluate_descriptor(spec)
    _law_check(field, random.Random(42), trials=1000)


def test_canonical_idempotence():
    rng = random.Random(3)
    Rt = RationalFunctionField(QQ, "t")
    for _ in range(50):
        r = Rt.sample(rng)
        # re-normalizing the canonical form must change nothing
        again = type(r)(r.num, r.den, Rt)
        assert again == r and again.den == r.den


def test_quadratic_extension_split_and_field():
    K = QuadraticExtension(QQ, F(-1))
    i = K.make(F(0), F(1))
    assert i * i == K.from_int(-1)
    assert K.norm_to_base(K.make(F(3), F(4))) == F(25)
    assert K.trace_to_base(i) == F(0)
    # square d gives the split algebra: zero divisors exist
    Ksplit = QuadraticExtension(QQ, F(1))
    e = Ksplit.make(F(1, 2), F(1, 2))
    assert e * e == e
    with pytest.raises(DivisionByZero):
        Ksplit.inv(e)


def test_quadratic_extension_rejects_char2():
    with pytest.raises(AlbertError):
        QuadraticExtension(PrimeField(2), PrimeField(2).one())


def test_split_quadratic_any_characteristic():
    S2 = SplitQuadratic(PrimeField(2))
    e = S2.make(S2.base.one(), S2.base.zero())
    assert e * e == e
    assert S2.conj(e) == S2.make(S2.base.zero(), S2.base.one())
    assert S2.trace_to_base(S2.one()) == S2.base.zero()  # 1+1 in F2


def test_field_spec_round_trip():
    specs = ["Q", "F2", "F7", "Q(t)", "Q[s]/(s^2-(-1))", "Q[s]/(s^2-(1/2))", "F7[s]/(s^2-(3))"]
    for spec in specs:
        field = evaluate_descriptor(spec)
        assert field.spec_string() == spec
        assert evaluate_descriptor(field.spec_string()) == field


def test_tower_depth_limit():
    with pytest.raises(AlbertError):
        evaluate_descriptor("Q[s]/(s^2-(-1))(t)(u)")


def test_scalar_format_parse_round_trip():
    rng = random.Random(9)
    for spec in ["Q", "F7", "Q[s]/(s^2-(-1))", "Q(t)"]:
        field = evaluate_descriptor(spec)
        for _ in range(25):
            v = field.sample(rng)
            assert field.parse(field.format(v)) == v


def test_dual_numbers_derivative():
    B = BiDualRing(QQ)
    x = B.from_base(F(3)) + B.e1()
    cube = x * x * x
    assert cube.a == F(27) and cube.b1 == F(27)  # d/dx x^3 at 3
    assert cube.b2 == F(0) and cube.c == F(0)


def test_bidual_mixed_term():
    B = BiDualRing(QQ)
    x = B.from_base(F(2)) + B.e1()
    y = B.from_base(F(5)) + B.e2()
    assert (x * y).c == F(1)
    assert (x * y).a == F(10)


def test_lift_chain():
    Rt = RationalFunctionField(QQ, "t")
    B = BiDualRing(Rt)
    v = lift(B, QQ, F(7))
    assert v == B.from_int(7)

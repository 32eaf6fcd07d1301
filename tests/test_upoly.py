import random
from fractions import Fraction as F

import pytest

from albert.errors import AlbertError
from albert.scalars import QQ, PrimeField
from albert.upoly import (
    RationalFunctionField,
    UPoly,
    is_separable,
    poly_gcd,
    poly_lcm,
)


def up(*coeffs):
    return UPoly([F(c) for c in coeffs], QQ)


def test_divmod_and_gcd():
    f = up(-1, 0, 1)  # x^2 - 1
    g = up(-1, 1)     # x - 1
    q, r = divmod(f, g)
    assert q == up(1, 1) and not r
    assert poly_gcd(f, g) == up(-1, 1)
    assert poly_lcm(g, up(1, 1)) == f


def test_exact_div_raises_on_remainder():
    with pytest.raises(AlbertError):
        up(1, 0, 1).exact_div(up(-1, 1))


def test_eval_horner():
    f = up(1, 2, 3)
    assert f(F(2)) == F(17)


def test_separability():
    assert is_separable(up(0, -1, 0, 1))      # x^3 - x
    assert not is_separable(up(0, 0, 0, 1))   # x^3
    assert is_separable(up(-1, -3, 0, 1))     # x^3 - 3x - 1
    F3 = PrimeField(3)
    # x^3 - 1 = (x-1)^3 in characteristic 3
    h = UPoly([F3.from_int(-1), F3.zero(), F3.zero(), F3.one()], F3)
    assert not is_separable(h)
    # x^3 - x + 1 is separable over F3 (derivative is -1)
    h2 = UPoly([F3.one(), F3.from_int(-1), F3.zero(), F3.one()], F3)
    assert is_separable(h2)
    F2 = PrimeField(2)
    # x^3 + x + 1 is irreducible over F2; x^3 + x = x (x + 1)^2 is not squarefree
    assert is_separable(UPoly([F2.one(), F2.one(), F2.zero(), F2.one()], F2))
    assert not is_separable(UPoly([F2.zero(), F2.one(), F2.zero(), F2.one()], F2))


def test_ratfunc_field_ops():
    Rt = RationalFunctionField(QQ, "t")
    t = Rt.gen()
    rng = random.Random(5)
    for _ in range(100):
        a, b = Rt.sample(rng, 4), Rt.sample(rng, 4)
        assert a + b == b + a
        assert (a + b) - b == a
        if b:
            assert (a / b) * b == a
    # denominator stays monic
    r = Rt.one() / (t * 2 - 4)
    assert r.den.is_monic()
    assert r.num == Rt.parse("1/2").num


def test_ratfunc_format_parse():
    Rt = RationalFunctionField(QQ, "t")
    t = Rt.gen()
    r = (t * t + 1) / (t * 3 - 2)
    assert Rt.parse(Rt.format(r)) == r

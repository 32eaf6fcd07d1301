"""The characteristic data (T, S, N) of the degree-3 algebras against sympy.

sympy's arithmetic shares nothing with albert's kernel: for a cubic étale
algebra k[x]/(f) the oracle is the characteristic polynomial
Res_x(f(x), y - a(x)) = y^3 - T y^2 + S y - N, taken with ``modulus=p``
over F_p; for 3x3 matrices it is ``Matrix.trace()``, the sum of the principal
2x2 minors and ``Matrix.det()`` over the integers or rationals, reduced mod p
over F_p.
"""

import random
from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from albert.deg3 import CubicEtale, Matrix3  # noqa: E402
from albert.scalars import QQ, PrimeField  # noqa: E402

X, Y = sp.symbols("x y")
CUBIC = [-1, -1, 0, 1]  # x^3 - x - 1, discriminant -23: separable mod 2, 3, 5, 7
FIELDS = {"Q": QQ, **{f"F{p}": PrimeField(p) for p in (2, 3, 5, 7)}}
SAMPLES = 4


def _rational(c):
    """A value of Q or F_p as a sympy rational (its representative over F_p)."""
    if isinstance(c, Fraction):
        return sp.Rational(c.numerator, c.denominator)
    return sp.Integer(c.val)


def _reduce(values, p):
    return tuple(sp.Rational(v) % p if p else sp.Rational(v) for v in values)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_cubic_etale_char_data_is_the_resultant(name):
    field = FIELDS[name]
    p = field.characteristic()
    E = CubicEtale(field, [field.from_int(c) for c in CUBIC])
    f = sum(c * X ** i for i, c in enumerate(CUBIC))
    rng = random.Random(25)
    for _ in range(SAMPLES):
        a = E.sample(rng, 9)
        ax = sum(_rational(c) * X ** i for i, c in enumerate(a.coords))
        extra = {"modulus": p} if p else {}
        res = sp.Poly(sp.resultant(f, Y - ax, X, Y, **extra), Y)
        one, t, s, n = res.all_coeffs()
        assert one == 1
        assert tuple(map(_rational, a.char_data())) == _reduce((-t, s, -n), p)


@pytest.mark.parametrize("name", ["Q", "F5"])
def test_matrix3_char_data_is_trace_minors_det(name):
    field = FIELDS[name]
    p = field.characteristic()
    M3 = Matrix3(field)
    rng = random.Random(26)
    for _ in range(SAMPLES):
        a = M3.sample(rng, 9)
        m = sp.Matrix(3, 3, [_rational(c) for c in a.coords])
        oracle = (m.trace(), sum(m.minor(i, i) for i in range(3)), m.det())
        assert tuple(map(_rational, a.char_data())) == _reduce(oracle, p)

"""Shared fixtures, and the builders and samplers that only the tests use."""

from fractions import Fraction as F

import pytest

from albert.scalars import QQ, BiDualElement, BiDualRing, QuadraticExtension
from albert.cubicnorm import CubicJordan
from albert.deg3 import ConjugateTranspose, Matrix3
from albert.tits import FirstTits, SecondTits


@pytest.fixture(scope="session")
def J27():
    """J(matrix3(Q), lambda=2): the workhorse 27-dimensional structure."""
    return FirstTits(Matrix3(QQ), F(2))


@pytest.fixture(scope="session")
def Qi():
    return QuadraticExtension(QQ, F(-1))


@pytest.fixture(scope="session")
def B_conj(Qi):
    return Matrix3(Qi).attach_involution(ConjugateTranspose())


@pytest.fixture(scope="session")
def J_second(B_conj, Qi):
    """J(matrix3(Q(i)), conjugate-transpose, u=1, mu=1)."""
    return SecondTits(B_conj, B_conj.one(), Qi.one())


# ---- builders shared by the tests --------------------------------------------


def matrix_unit(alg, i, j, ring=None):
    """The matrix unit e_ij (0-based) of a matrix3 algebra."""
    ring = ring or alg.base_ring
    coords = [ring.zero()] * 9
    coords[3 * i + j] = ring.one()
    return alg.element(coords, ring)


def prodop_pair(P, x, y):
    """The element (x, y) of D x D^op from two elements of D."""
    K = P.base_ring
    return P.element([K.make(a, b) for a, b in zip(x.coords, y.coords)])


def sample_nonzero(field, rng, bound=9):
    for _ in range(1000):
        v = field.sample(rng, bound)
        if not field.is_zero(v):
            return v
    raise AssertionError("could not sample a nonzero element")


def sample_invertible_vec(J, rng, bound=9):
    """A carrier vector of J with nonzero norm."""
    for _ in range(1000):
        x = J.sample_vec(rng, bound)
        if not J.field.is_zero(J.norm(x)):
            return x
    raise AssertionError("failed to sample an invertible carrier vector")


def random_norm_one(alg, rng, nfactors=3, bound=4):
    """A random product of transvections; reduced norm exactly 1."""
    field = alg.base_ring
    acc = alg.one()
    for _ in range(nfactors):
        i = rng.randint(1, 3)
        j = rng.randint(1, 3)
        while j == i:
            j = rng.randint(1, 3)
        acc = acc * alg.transvection(i, j, field.sample(rng, bound))
    return acc


def random_norm_equal_pair(alg, rng, bound=4):
    """(g, h) invertible with N(g) = N(h), via h = g * (norm-one factor)."""
    g = alg.sample_invertible(rng, bound)
    h = g * random_norm_one(alg, rng, bound=bound)
    return g, h


def ratfunc_at(r, point):
    """r(point) in the base field, for a canonical rational function r that
    is regular at ``point``."""
    den = r.den(point)
    assert den != 0, f"pole at {point}"
    return r.num(point) / den


def trace_bilinear(J, x, y, S=None):
    """Reference bilinear trace T(x,y) = T(x)T(y) - D2N(c; x, y), one pair at
    a time: T(x), T(y) and D2N(c; x, y) are the e1, e2 and e1*e2 coefficients
    of N(c + e1*x + e2*y) over the two-infinitesimal ring."""
    S = S or J.field
    BS = BiDualRing(S)
    z = S.zero()
    arg = tuple(BiDualElement(a, b1, b2, z, BS) for a, b1, b2 in zip(J.unit_vec(S), x, y))
    n = J.norm_program(BS, arg)
    return n.b1 * n.b2 - n.c


class MockCubicJordan(CubicJordan):
    """A cubic norm structure from explicit (norm, sharp) programs."""

    def __init__(self, field, dim, unit, norm_fn, sharp_fn, label="mock"):
        super().__init__(field, dim, unit, label)
        self.norm_program = norm_fn
        self.sharp_program = sharp_fn

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from albert.errors import AlbertError, DivisionByZero, ParentMismatch
from albert.scalars import (
    QQ,
    PrimeField,
    QuadraticExtension,
    SplitQuadratic,
    lift,
)
from albert.scenario import evaluate_descriptor
from albert.upoly import RationalFunctionField
from conftest import BiDualElement, BiDualRing, ratfunc_at


def test_rational_arithmetic():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert QQ.sample(random.Random(0)).denominator >= 1


def test_char2_addition():
    F2 = PrimeField(2)
    assert F2.one() + F2.one() == F2.zero()


def test_prime_modulus_decided_exactly_below_2_64():
    def trial(n):
        return n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    for n in range(-1, 3000):
        if trial(n):
            assert PrimeField(n).p == n
        else:
            with pytest.raises(AlbertError, match="is not prime"):
                PrimeField(n)
    # Carmichael numbers and strong pseudoprimes to the small bases
    for n in (561, 41041, 3215031751, 3825123056546413051, 2 ** 61 + 1):
        with pytest.raises(AlbertError, match="is not prime"):
            PrimeField(n)
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert PrimeField(2 ** 64 - 59).p == 2 ** 64 - 59  # the largest prime below 2^64
    with pytest.raises(AlbertError, match="below 2\\^64"):
        PrimeField(2 ** 127 - 1)


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
    assert ratfunc_at(r, F(0)) == F(-1, 2)
    # the pole is a zero of the canonical denominator
    assert r.den(F(2)) == 0
    # cancellation happens before evaluation
    r2 = (t * t - 1) / (t - 1)
    assert ratfunc_at(r2, F(1)) == F(2)


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
    specs = ["Q", "F2", "F7", "Q(t)", "F5(t)", "Q[s]/(s^2-(-1))", "Q[s]/(s^2-(1/2))",
             "F7[s]/(s^2-(3))", "Q[s]/(s^2-(-1))(t)"]
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


LITERALS = st.one_of(
    st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,4})?", fullmatch=True),
    st.from_regex(r"[-+ ]?[0-9_]{0,3}[./eE]?[-0-9_]{0,3}[ \n]?", fullmatch=True),
    st.text(alphabet="0123456789-+/_. e\n\u0663\u00b2", max_size=10),
    st.text(max_size=6),
)


def _read(parse, text, refusals):
    try:
        return parse(text)
    except refusals:
        return "refused"


@settings(max_examples=300, deadline=None)
@given(text=LITERALS)
@example(text="1" * 5000)
@example(text="7/0")
@example(text="-0/0003")
@example(text="\u0663/4")
def test_rational_parse_agrees_with_fraction(text):
    """The integer fast path of ``QQ.parse`` reads what ``Fraction`` reads
    and refuses what it refuses, non-ASCII digits and digit limits too."""
    got = _read(QQ.parse, text, AlbertError)
    assert got == _read(F, text, (ValueError, ZeroDivisionError))
    assert got == "refused" or type(got) is F


def test_dual_numbers_derivative():
    B = BiDualRing(QQ)
    x = BiDualElement(F(3), F(1), F(0), F(0), B)  # 3 + e1
    cube = x * x * x
    assert cube.a == F(27) and cube.b1 == F(27)  # d/dx x^3 at 3
    assert cube.b2 == F(0) and cube.c == F(0)


def test_bidual_mixed_term():
    B = BiDualRing(QQ)
    x = BiDualElement(F(2), F(1), F(0), F(0), B)  # 2 + e1
    y = BiDualElement(F(5), F(0), F(1), F(0), B)  # 5 + e2
    assert (x * y).c == F(1)
    assert (x * y).a == F(10)


def test_lift_chain():
    Rt = RationalFunctionField(QQ, "t")
    B = BiDualRing(Rt)
    v = lift(B, QQ, F(7))
    assert v == B.from_int(7)


F2, F5 = PrimeField(2), PrimeField(5)
# (ring, a ring whose elements must not mix with it)
PAIR_RINGS = {
    "Q(i)": (QuadraticExtension(QQ, F(-1)), SplitQuadratic(QQ)),
    "F5(sqrt2)": (QuadraticExtension(F5, F5.from_int(2)), QuadraticExtension(F5, F5.from_int(3))),
    "F2xF2": (SplitQuadratic(F2), SplitQuadratic(PrimeField(3))),
}
COMPONENT = st.tuples(st.integers(-9, 9), st.integers(1, 9))


def _component(k, pair):
    n, d = pair
    return F(n, d) if k == QQ else k.from_int(n)


def _explicit(K):
    """The product, inverse and int embedding of (a;b) by the formulas of
    each kind, on plain component pairs."""
    if isinstance(K, SplitQuadratic):
        mul = lambda x, y: (x[0] * y[0], x[1] * y[1])
        inv = lambda x: (K.base.inv(x[0]), K.base.inv(x[1]))
        from_int = lambda n: (K.base.from_int(n),) * 2
    else:
        d = K.d
        mul = lambda x, y: (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

        def inv(x):
            n = K.base.inv(x[0] * x[0] - d * x[1] * x[1])
            return (x[0] * n, -x[1] * n)

        from_int = lambda n: (K.base.from_int(n), K.base.zero())
    return mul, inv, from_int


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(PAIR_RINGS)),
       xs=st.lists(COMPONENT, min_size=4, max_size=4), n=st.integers(-6, 6))
def test_pair_elements_match_explicit_formulas(name, xs, n):
    K, foreign = PAIR_RINGS[name]
    k = K.base
    mul, inv, from_int = _explicit(K)
    a1, b1, a2, b2 = (_component(k, c) for c in xs)
    x, y = K.make(a1, b1), K.make(a2, b2)
    pair = K.components
    assert pair(x + y) == (a1 + a2, b1 + b2)
    assert pair(x - y) == (a1 - a2, b1 - b2)
    assert pair(-x) == (-a1, -b1)
    assert pair(x * y) == mul((a1, b1), (a2, b2))
    # an int operand on either side is the ring's embedded integer
    m = from_int(n)
    assert pair(K.from_int(n)) == m
    assert pair(x + n) == pair(n + x) == (a1 + m[0], b1 + m[1])
    assert pair(x - n) == (a1 - m[0], b1 - m[1])
    assert pair(n - x) == (m[0] - a1, m[1] - b1)
    assert pair(x * n) == pair(n * x) == mul((a1, b1), m)
    assert (x == n) == ((a1, b1) == m)
    try:
        y_inv = inv((a2, b2))
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            x / y
        with pytest.raises(DivisionByZero):
            1 / y
    else:
        assert pair(x / y) == mul((a1, b1), y_inv)
        assert pair(1 / y) == pair(K.one() / y) == y_inv
        assert pair(n / y) == mul(m, y_inv)
    z = foreign.make(*(_component(foreign.base, c) for c in xs[:2]))
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v,
               lambda u, v: u == v):
        with pytest.raises(ParentMismatch):
            op(x, z)
        with pytest.raises(ParentMismatch):
            op(z, x)


@pytest.mark.parametrize("K", [QuadraticExtension(QQ, F(-1)), SplitQuadratic(QQ)],
                         ids=["quadratic", "split"])
def test_base_part_needs_a_conjugation_fixed_value(K):
    fixed = K.from_base(F(3))
    assert K.base_part(fixed) == F(3)
    assert K.base_part(fixed * K.conj(fixed)) == F(9)
    moved = K.make(F(3), F(1))
    assert K.conj(moved) != moved
    with pytest.raises(AlbertError, match="not conjugation invariant"):
        K.base_part(moved)

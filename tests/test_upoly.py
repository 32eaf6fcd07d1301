import random
from fractions import Fraction as F
from math import gcd
from operator import add, mul, sub, truediv

import pytest
from hypothesis import given, settings, strategies as st

from albert.errors import AlbertError, DivisionByZero, ParentMismatch
from albert.multipoly import PolyRing
from albert.scalars import QQ, PrimeField, QuadraticExtension
from albert.upoly import (
    RatFunc,
    RationalFunctionField,
    UPoly,
    is_separable,
    poly_gcd,
    poly_lcm,
)

from conftest import RefUPoly, ref_poly_gcd, ref_ratfunc, ref_ratfunc_coeffs, ref_ratfunc_op


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
    # the constants are built once per field
    assert Rt.zero() is Rt.zero() and Rt.one() is Rt.one()
    # denominator stays monic
    r = Rt.one() / (t * 2 - 4)
    assert r.den.is_monic()
    assert r.num == Rt.parse("1/2").num


def test_ratfunc_format_parse():
    Rt = RationalFunctionField(QQ, "t")
    t = Rt.gen()
    r = (t * t + 1) / (t * 3 - 2)
    assert Rt.parse(Rt.format(r)) == r


# ---- path entries read straight into the coded form ----------------------------

ODD_LITERALS = ["0", "-0", "00", "0/7", "2/4", "-3/6", "6/3", "12/0004", "+1", " 1", "1 ",
                "1_0", "1e2", "1.5", "-.5", "7/0", "1/-2", "", "-", "/", "\u0663", "1" * 5000]
COEFF_LITERAL = st.one_of(
    st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,4})?", fullmatch=True),
    st.sampled_from(ODD_LITERALS),
    st.text(alphabet="0123456789-+/_. e", max_size=6),
)
COEFF_LIST = st.lists(COEFF_LITERAL, min_size=1, max_size=4).map(",".join)


def _read_pair(read, Rt, text):
    """(num, den) as (coded, den) pairs by ``read``, or its refusal text."""
    try:
        return tuple((f.coded, f.den) for f in read(Rt, text))
    except AlbertError as exc:
        return "refused", str(exc)


def _literal(base, text):
    """A coefficient literal read by ``Fraction`` over Q, refused with the
    message of ``QQ.parse``; by ``base.parse`` over any other field."""
    if base is not QQ:
        return base.parse(text)
    try:
        return F(text)
    except (ValueError, ZeroDivisionError):
        raise AlbertError(f"bad rational literal {text!r}") from None


def _old_parse_pair(Rt, text):
    """Each coefficient literal read on its own, then ``UPoly``."""
    ntext, dtext = text.split("|", 1) if "|" in text else (text, "1")
    return tuple(UPoly([_literal(Rt.base, c) for c in t.split(",")], Rt.base)
                 for t in (ntext, dtext))


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from([QQ, PrimeField(5)]), num=COEFF_LIST,
       den=st.one_of(st.none(), COEFF_LIST))
def test_parse_pair_matches_the_literal_route(base, num, den):
    Rt = RationalFunctionField(base, "t")
    text = num if den is None else f"{num}|{den}"
    got = _read_pair(RationalFunctionField.parse_pair, Rt, text)
    assert got == _read_pair(_old_parse_pair, Rt, text)


def test_parse_pair_matches_the_literal_route_on_odd_literals():
    Rt = RationalFunctionField(QQ, "t")
    for a in ODD_LITERALS:
        for b in ["2/4", "-1"]:
            for text in (a, f"{a},{b}", f"{b},{a}", f"{b}|{a}", f"{a}|{b},{a}"):
                got = _read_pair(RationalFunctionField.parse_pair, Rt, text)
                assert got == _read_pair(_old_parse_pair, Rt, text)


# ---- Henrici's rules against the naive fraction -------------------------------

def _prime_base(p):
    field = PrimeField(p)
    return field, st.integers(0, p - 1).map(field.from_int)


QS2 = QuadraticExtension(QQ, F(2))
# (base field, strategy for its elements)
BASES = [
    (QQ, st.builds(F, st.integers(-4, 4), st.integers(1, 3))),
    _prime_base(2),
    _prime_base(5),
    _prime_base(7),
    (QS2, st.builds(QS2.make, st.integers(-3, 3).map(F), st.integers(-2, 2).map(F))),
]
CASES = ["random", "zero_left", "zero_right", "equal_den", "coprime_den", "shared",
         "to_zero", "to_poly", "int_left", "int_right"]


def _canonical(r):
    return r.num.coeffs, r.den.coeffs


@st.composite
def ratfunc_cases(draw):
    """(Rt, case, op, a, b): canonical operands built with the reference
    reduction so that the case holds; an int operand stays an int."""
    base, coeff = draw(st.sampled_from(BASES))
    Rt = RationalFunctionField(base, "t")

    def poly(min_size=0, max_size=3):
        return UPoly(draw(st.lists(coeff, min_size=min_size, max_size=max_size)), base)

    def nonzero_poly(max_size=3):
        p = poly(1, max_size)
        return p if p else UPoly.const(base.one(), base)

    def frac(num, den):
        return ref_ratfunc(num, den, Rt)

    case = draw(st.sampled_from(CASES))
    op = draw(st.sampled_from("+-*/"))
    a = frac(poly(), nonzero_poly())
    b = frac(poly(), nonzero_poly())
    if case == "zero_left":
        a = Rt.zero()
    elif case == "zero_right":
        b = Rt.zero()
    elif case == "equal_den":
        b = frac(poly(), a.den)
    elif case == "coprime_den":
        t = UPoly.x(base)
        a, b = frac(poly(), t * t), frac(poly(), t + 1)
    elif case == "shared":
        g, h = nonzero_poly(), nonzero_poly()
        a = frac(g * poly(), h * nonzero_poly())
        b = frac(h * poly(), g * h * nonzero_poly())
    elif case == "to_zero":
        op = draw(st.sampled_from("+-"))
        b = a if op == "-" else -a
    elif case == "to_poly":
        b = frac(poly() * a.den - a.num, a.den)
        op = "+"
    elif case == "int_left":
        a = draw(st.integers(-3, 3))
    elif case == "int_right":
        b = draw(st.integers(-3, 3))
    return Rt, case, op, a, b


OPS = {"+": add, "-": sub, "*": mul, "/": truediv}


@settings(max_examples=400, deadline=None)
@given(ratfunc_cases())
def test_ratfunc_ops_match_naive_fraction(example):
    """Every operation, with an int on either side too, gives the fraction
    that one full gcd reduces, coprime and with a monic denominator."""
    Rt, case, op, a, b = example
    ra = Rt.from_int(a) if isinstance(a, int) else a
    rb = Rt.from_int(b) if isinstance(b, int) else b
    if op == "/" and not rb:
        with pytest.raises(DivisionByZero):
            OPS[op](a, b)
        return
    got = OPS[op](a, b)
    assert isinstance(got, RatFunc)
    assert _canonical(got) == _canonical(ref_ratfunc_op(op, ra, rb))
    assert _canonical(got) == ref_ratfunc_coeffs(op, ra, rb)
    assert poly_gcd(got.num, got.den).degree == 0 if got.num else got.den.degree == 0
    assert got.den.is_monic()
    if case == "to_zero":
        assert not got
    if case == "to_poly":
        assert got.den.degree == 0


# ---- the integer-coded UPoly against the Fraction-coefficient reference --------

@st.composite
def poly_cases(draw):
    """(base, a, b, point): coefficient lists over one base field, and half
    the time a common factor drawn into both, so that the gcd is not 1."""
    base, coeff = draw(st.sampled_from(BASES))
    a = draw(st.lists(coeff, max_size=6))
    b = draw(st.lists(coeff, max_size=5))
    if draw(st.booleans()):
        g = RefUPoly(draw(st.lists(coeff, min_size=1, max_size=3)), base)
        a, b = (RefUPoly(a, base) * g).coeffs, (RefUPoly(b, base) * g).coeffs
    return base, a, b, draw(coeff)


@settings(max_examples=300, deadline=None)
@given(poly_cases())
def test_coded_upoly_matches_reference(case):
    base, ca, cb, point = case
    a, b = UPoly(ca, base), UPoly(cb, base)
    ra, rb = RefUPoly(ca, base), RefUPoly(cb, base)
    assert a.coeffs == ra.coeffs and a.degree == ra.degree
    pairs = [(a + b, ra + rb), (a - b, ra - rb), (b - a, rb - ra), (a * b, ra * rb),
             (-a, -ra), (a + 2, ra + 2), (3 - a, 3 - ra), (a * 2, ra * 2),
             (a.scale(point), ra.scale(point)), (a.monic(), ra.monic()),
             (a.derivative(), ra.derivative()), (poly_gcd(a, b), ref_poly_gcd(ra, rb))]
    if b:
        q, r = divmod(a, b)
        rq, rr = divmod(ra, rb)
        pairs += [(q, rq), (r, rr)]
    for got, want in pairs:
        assert got.coeffs == want.coeffs
        if base == QQ and got:
            assert got.den > 0 and gcd(got.den, *got.coded) == 1
    assert a(point) == ra(point)
    assert a(2) == ra(2)
    same = UPoly(ra.coeffs, base)
    assert a == same and hash(a) == hash(same)
    assert (a == b) == (ra.coeffs == rb.coeffs)
    assert a.is_monic() == (bool(ra) and ra.lead() == base.one())


def test_dense_gcd_matches_euclid():
    """Degree-30 pairs over Q with a degree-8 common factor: the primitive
    remainder sequence gives Euclid's monic gcd, and coprime cofactors give 1."""
    rng = random.Random(3)

    def dense(degree):
        return [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)] + [F(1)]

    g = RefUPoly(dense(8), QQ)
    for _ in range(3):
        ra, rb = RefUPoly(dense(22), QQ) * g, RefUPoly(dense(22), QQ) * g
        a, b = UPoly(ra.coeffs, QQ), UPoly(rb.coeffs, QQ)
        assert poly_gcd(a, b).coeffs == ref_poly_gcd(ra, rb).coeffs
        assert poly_gcd(a.exact_div(poly_gcd(a, b)), b.exact_div(poly_gcd(a, b))).degree == 0


# ---- one coding per field, shared with PolyRing ------------------------------

@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from([b for b in BASES if b[0] in (QQ, PrimeField(7), QS2)])
       .flatmap(lambda b: st.tuples(st.just(b[0]), st.lists(b[1], max_size=6))))
def test_upoly_and_univariate_mpoly_hold_the_same_codes(case):
    """In one variable a monomial's key is its exponent, so ``UPoly`` and
    ``PolyRing(F, 1).univariate`` of one list hold the same codes over the
    same denominator, the zero codes that only the dense list keeps aside."""
    base, cs = case
    u, m = UPoly(cs, base), PolyRing(base, 1).univariate(cs)
    assert u._k is m.ring.coding
    assert {i: c for i, c in enumerate(u.coded) if c} == m.terms
    assert u.den == m.den


def test_a_value_of_another_prime_field_is_refused():
    F5, F7 = PrimeField(5), PrimeField(7)
    ring = PolyRing(F5, 1)
    x = ring.gen(0)
    u = UPoly([F5.one(), F5.one()], F5)
    calls = [
        lambda: ring.from_base(F7.from_int(6)),
        lambda: x.scale(F7.from_int(3)),
        lambda: UPoly([F7.from_int(6)], F5),
        lambda: u.scale(F7.from_int(3)),
        lambda: u(F7.from_int(3)),
    ]
    for call in calls:
        with pytest.raises(ParentMismatch, match="mixed prime fields"):
            call()


@pytest.mark.parametrize("field, value", [
    (PrimeField(5), F(1, 2)),
    (QQ, PrimeField(5).one()),
])
def test_a_value_of_another_kind_of_field_is_refused(field, value):
    ring = PolyRing(field, 1)
    x = ring.gen(0)
    u = UPoly([field.one(), field.one()], field)
    calls = [
        lambda: ring.from_base(value),
        lambda: x.scale(value),
        lambda: UPoly([value], field),
        lambda: u.scale(value),
        lambda: u(value),
    ]
    for call in calls:
        with pytest.raises(ParentMismatch, match="value of another kind of field"):
            call()

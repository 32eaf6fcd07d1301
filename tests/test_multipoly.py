import itertools
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from albert.errors import AlbertError, ParentMismatch
from albert.scalars import QQ, PrimeField, QuadraticExtension, SplitQuadratic
from albert.multipoly import MPoly, PolyRing, dot, proportionality
from albert.deg3 import CubicEtale
from albert.tits import FirstTits
from albert.upoly import RationalFunctionField, UPoly
from conftest import ref_dot, ref_poly_dot, ref_poly_mul


def det3_permutation_oracle(entries):
    """det of a 3x3 matrix of ring values by full permutation expansion."""
    total = None
    for perm in itertools.permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        term = entries[0][perm[0]] * entries[1][perm[1]] * entries[2][perm[2]]
        term = term if sign > 0 else -term
        total = term if total is None else total + term
    return total


def test_binomial_square():
    R = PolyRing(QQ, ["x1", "x2"])
    x1, x2 = R.gens()
    p = (x1 + x2) * (x1 + x2) - x1 * x1 - x2 * x2
    assert p == R.monomial(F(2), [1, 1])


def test_binomial_square_char2():
    R = PolyRing(PrimeField(2), 2)
    x1, x2 = R.gens()
    assert not ((x1 + x2) * (x1 + x2) - x1 * x1 - x2 * x2)


def test_generic_det_is_six_monomials():
    R = PolyRing(QQ, 9)
    g = R.gens()
    m = [[g[3 * i + j] for j in range(3)] for i in range(3)]
    # cofactor expansion
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    assert det.nterms() == 6
    assert det == det3_permutation_oracle(m)


def test_ring_homomorphism_property():
    rng = random.Random(17)
    R = PolyRing(QQ, 3)
    for _ in range(50):
        a, b, c = (R.sample(rng, 5) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_proportionality():
    R = PolyRing(QQ, 2)
    x1, x2 = R.gens()
    p = x1 * x1 + x2 * 3
    assert proportionality(p * 5, p) == F(5)
    assert proportionality(p, x1) is None
    assert proportionality(R.zero(), R.zero()) == F(1)
    assert proportionality(p + x1, p) is None


def test_coefficient_lookup():
    R = PolyRing(QQ, 3)
    x1, x2, x3 = R.gens()
    p = x1 * x2 * x3 * 4 + x1 * x1
    assert p.coefficient([1, 1, 1]) == F(4)
    assert p.coefficient([2, 0, 0]) == F(1)
    assert p.coefficient([0, 1, 0]) == F(0)


def test_degree_guard():
    R = PolyRing(QQ, 1)
    (x,) = R.gens()
    p = x
    for _ in range(7):
        p = p * p  # degree 128
    with pytest.raises(AlbertError):
        p * p  # would be 256


# -- property test against a naive reference ----------------------------------
#
# The reference keeps a polynomial as a dict {exponent tuple: field payload}
# built with the field's own arithmetic; the kernel's encoded coefficients
# must agree with it through every public operation.

NVARS = 3
FIELDS = {
    "Q": QQ,
    "F2": PrimeField(2),
    "F3": PrimeField(3),
    "F5": PrimeField(5),
    "F7": PrimeField(7),
    "Q(sqrt2)": QuadraticExtension(QQ, F(2)),
}
RINGS = {name: PolyRing(k, NVARS) for name, k in FIELDS.items()}
EXPS = st.tuples(*[st.integers(0, 2)] * NVARS)


def scalars(field):
    small = st.integers(-6, 6)
    rational = st.builds(F, small, st.integers(1, 6))
    if field == QQ:
        return rational
    if isinstance(field, PrimeField):
        return small.map(field.from_int)
    if isinstance(field, RationalFunctionField):
        # (a + b t) / (1 + c t)
        return st.builds(lambda a, b, c: field.from_poly(UPoly([a, b], QQ))
                         / field.from_poly(UPoly([F(1), c], QQ)), rational, rational, rational)
    return st.builds(field.make, scalars(field.base), scalars(field.base))


def reference(field, pairs):
    ref = {}
    for c, e in pairs:
        ref[e] = ref.get(e, field.zero()) + c
    return {e: c for e, c in ref.items() if not field.is_zero(c)}


@st.composite
def polys(draw, ring):
    """(MPoly, reference) drawn through one of the public constructors."""
    field = ring.field
    sc = scalars(field)
    kind = draw(st.sampled_from(["monomials", "univariate", "linear_form", "from_base"]))
    if kind == "monomials":
        pairs = draw(st.lists(st.tuples(sc, EXPS), max_size=5))
        poly = ring.zero()
        for c, e in pairs:
            poly = poly + ring.monomial(c, list(e))
    elif kind == "univariate":
        cs = draw(st.lists(sc, max_size=4))
        poly = ring.univariate(cs)
        pairs = [(c, (d,) + (0,) * (NVARS - 1)) for d, c in enumerate(cs)]
    elif kind == "linear_form":
        forms = draw(st.lists(st.lists(sc, max_size=3), max_size=NVARS - 1))
        poly = ring.linear_form(forms, first=1)
        pairs = [(c, (d,) + tuple(int(i == j) for i in range(NVARS - 1)))
                 for j, form in enumerate(forms) for d, c in enumerate(form)]
    else:
        c = draw(sc)
        poly = ring.from_base(c)
        pairs = [(c, (0,) * NVARS)]
    return poly, reference(field, pairs)


def assert_canonical(poly):
    field, terms, den = poly.ring.field, poly.terms, poly.den
    if field == QQ:
        assert den > 0 and all(isinstance(c, int) and c for c in terms.values())
        assert gcd(den, *terms.values()) == 1 if terms else den == 1
    elif isinstance(field, PrimeField):
        assert den == 1 and all(isinstance(c, int) and 0 < c < field.p for c in terms.values())
    else:
        assert den == 1 and all(terms.values())


def assert_matches(poly, ref):
    assert_canonical(poly)
    assert poly.nterms() == len(ref)
    for e, c in ref.items():
        assert poly.coefficient(list(e)) == c


def ref_mul(field, a, b):
    return reference(field, [(ca * cb, tuple(x + y for x, y in zip(ea, eb)))
                             for ea, ca in a.items() for eb, cb in b.items()])


def ref_proportionality(field, p, q):
    if not q:
        return field.one() if not p else None
    if p.keys() != q.keys():
        return None
    e0 = next(iter(q))
    c = p[e0] * field.inv(q[e0])
    return c if all(p[e] == c * q[e] for e in q) else None


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(RINGS)))
    ring = RINGS[name]
    sc = scalars(ring.field)
    return ring, draw(polys(ring)), draw(polys(ring)), draw(sc)


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_operations_match_reference(case):
    ring, (a, ra), (b, rb), c = case
    field = ring.field
    assert_matches(a, ra)
    assert_matches(a + b, reference(field, [(v, e) for r in (ra, rb) for e, v in r.items()]))
    assert_matches(a - b, reference(field, [(v, e) for e, v in ra.items()]
                                    + [(-v, e) for e, v in rb.items()]))
    assert_matches(-a, {e: -v for e, v in ra.items()})
    assert_matches(a * b, ref_mul(field, ra, rb))
    assert_matches(a.scale(c), reference(field, [(c * v, e) for e, v in ra.items()]))
    assert proportionality(a, b) == ref_proportionality(field, ra, rb)
    scaled = reference(field, [(c * v, e) for e, v in rb.items()])
    assert proportionality(b.scale(c), b) == ref_proportionality(field, scaled, rb)
    if b and not field.is_zero(c):
        assert proportionality(b.scale(c), b) == c
    # the same polynomial reached two ways has one normal form
    left, right = (a + b) * b, a * b + b * b
    assert (left.terms, left.den, hash(left)) == (right.terms, right.den, hash(right))


def test_canonical_denominator():
    x = RINGS["Q"].gen(0)
    half = x.scale(F(1, 2))
    assert (half.den, half.terms) == (2, {1: 1})
    back = half * 2
    assert back.den == 1 and back == x and hash(back) == hash(x)
    assert (half - half).den == 1
    assert proportionality(x, half) == F(2)


def _norm_squared(field):
    """N(X)^2 over k[X1..X9] for J(k[x]/(x^3 - x - 1), lambda = 1)."""
    E = CubicEtale(field, UPoly([field.from_int(c) for c in (-1, -1, 0, 1)], field))
    J = FirstTits(E, field.one())
    ring, X = J.generic_vectors(1)
    n = J.norm_program(ring, X)
    return n * n


@pytest.mark.parametrize("name", ["Q", "F2", "F3", "F5", "F7"])
def test_refutes_scalar_multiples(name):
    field = FIELDS[name]
    n2 = _norm_squared(field)
    assert n2 + 1 != n2
    if field == QQ:
        multiples = [F(1, 2), F(3, 2), F(-1)]
    else:
        multiples = [field.from_int(c) for c in range(2, field.p)] + [field.from_int(field.p + 1)]
    for c in multiples:
        other = n2.scale(c)
        assert (other != n2) == (c != field.one())
        assert proportionality(other, n2) == c


@pytest.mark.parametrize("field", [QQ, PrimeField(5), QuadraticExtension(QQ, F(-1))],
                         ids=["Q", "F5", "Q(i)"])
def test_part_reads_the_homogeneous_components(field):
    R = PolyRing(field, 4)
    x = R.gens()
    half = field.inv(field.from_int(2))
    p = (x[0] + 2) * (x[1] - x[3].scale(half)) * (x[0] * x[2] + 3) + x[0] * x[0] * x[3] + 4
    assert p.part(0) == {(): field.from_int(4)}
    assert p.part(1) == {(1,): field.from_int(6), (3,): field.from_int(-3)}
    assert p.part(2) == {(0, 1): field.from_int(3), (0, 3): -3 * half}
    assert p.part(3) == {(0, 1, 2): field.from_int(2), (0, 2, 3): -field.one(),
                         (0, 0, 3): field.one()}
    total = R.zero()
    for d in range(5):
        for mono, c in p.part(d).items():
            assert len(mono) == d and list(mono) == sorted(mono)
            exps = [mono.count(i) for i in range(4)]
            assert c == p.coefficient(exps) and c
            total = total + R.monomial(c, exps)
    assert total == p
    assert R.zero().part(0) == {}


# -- the fused sum of products against the per-pair reference -------------------

DOT_RINGS = dict(RINGS, **{"Q(t)": PolyRing(RationalFunctionField(QQ, "t"), NVARS)})


def assert_same_poly(got, want):
    assert_canonical(got)
    assert (got.terms, got.den, got.degbound) == (want.terms, want.den, want.degbound)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_dot_matches_per_pair_reference(data):
    ring = DOT_RINGS[data.draw(st.sampled_from(sorted(DOT_RINGS)))]
    drawn = data.draw(st.lists(st.tuples(polys(ring), polys(ring)), max_size=4))
    pairs = [(a, b) for (a, _), (b, _) in drawn]
    assert_same_poly(ring.dot(pairs), ref_poly_dot(ring, pairs))
    if pairs:
        assert_same_poly(dot(pairs), ref_poly_dot(ring, pairs))
        a, b = pairs[0]
        assert_same_poly(a * b, ref_poly_mul(a, b))


@pytest.mark.parametrize("name", ["Q", "F2", "F7", "Q(sqrt2)", "Q(t)"])
def test_dot_edge_cases(name):
    ring = DOT_RINGS[name]
    field = ring.field
    x, y, z = ring.gens()
    # 1/5 and 1/3: distinct denominators over Q, invertible in F2 and F7
    fifth, third = field.inv(field.from_int(5)), field.inv(field.from_int(3))
    empty = ring.dot([])
    assert (empty.terms, empty.den) == ({}, 1) and empty == ring.zero()
    # zero operands are skipped; ints coerce
    p, q = x.scale(fifth) + 1, y.scale(third) - z
    pairs = [(ring.zero(), p), (p, q), (q, ring.zero()), (2, z)]
    assert_same_poly(ring.dot(pairs), ref_poly_dot(ring, [(p, q), (ring.from_int(2), z)]))
    # total cancellation leaves the canonical zero, den 1
    gone = ring.dot([(p, q), (-p, q), (x.scale(fifth), y.scale(third)),
                     (x.scale(-third), y.scale(fifth))])
    assert (gone.terms, gone.den) == ({}, 1)
    with pytest.raises(ParentMismatch):
        ring.dot([(x, PolyRing(field, ["u", "v", "w"]).gen(0))])


def test_dot_over_q_with_distinct_denominators():
    ring = DOT_RINGS["Q"]
    x, y, z = ring.gens()
    pairs = [(x.scale(F(1, 2)), y.scale(F(1, 3))), (x.scale(F(3, 5)), z.scale(F(2, 7))),
             (z.scale(F(1, 4)), z.scale(F(5, 6))), (ring.from_base(F(1, 9)), x + y)]
    got = ring.dot(pairs)
    assert_same_poly(got, ref_poly_dot(ring, pairs))
    assert got.den == 2520 and got.coefficient([1, 1, 0]) == F(1, 6)


def test_dot_refuses_a_pair_past_the_degree_bound():
    ring = DOT_RINGS["F7"]
    x, y, _ = ring.gens()
    p = x
    for _ in range(7):
        p = p * p  # degree 128
    with pytest.raises(AlbertError, match="degree bound 256 exceeds packing limit"):
        ring.dot([(x, y), (p, p)])
    with pytest.raises(AlbertError, match="degree bound 256 exceeds packing limit"):
        ref_poly_mul(p, p)
    # a zero side is skipped before the bound is checked
    assert ring.dot([(p, p.scale(ring.field.zero())), (x, y)]) == x * y


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(7), RationalFunctionField(QQ, "t"),
                                   QuadraticExtension(QQ, F(-1))], ids=["Q", "F2", "F7", "Q(t)", "Q(i)"])
def test_dot_of_scalars_is_the_plain_sum(field):
    rng = random.Random(5)
    for size in (1, 2, 5):
        pairs = [(field.sample(rng, 5), field.sample(rng, 5)) for _ in range(size)]
        want = field.zero()
        for a, b in pairs:
            want = want + a * b
        assert dot(pairs) == want


# -- the module-level dot against the plain loop, on every scalar ring ----------

F5 = PrimeField(5)
SCALAR_RINGS = {
    "Q": QQ,
    "F2": PrimeField(2),
    "F7": PrimeField(7),
    "Q(i)": QuadraticExtension(QQ, F(-1)),
    "QxQ": SplitQuadratic(QQ),
    "F5(sqrt2)": QuadraticExtension(F5, F5.from_int(2)),
    "F5xF5": SplitQuadratic(F5),
    "Q(t)": RationalFunctionField(QQ, "t"),
    "Q[x1,x2,x3]": RINGS["Q"],
}


def operands(ring):
    """An element of ``ring``, its zero or a small int."""
    if isinstance(ring, PolyRing):
        elements = polys(ring).map(lambda drawn: drawn[0])
    else:
        elements = scalars(ring)
    return st.one_of(elements, st.just(ring.zero()), st.integers(-3, 3))


def assert_same_value(got, want, case=None):
    """Equal and of the same type: a Fraction stays a Fraction, never an int."""
    assert type(got) is type(want) and got == want, case
    if isinstance(got, MPoly):
        assert_canonical(got)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dot_matches_the_plain_loop_on_every_ring(data):
    ring = SCALAR_RINGS[data.draw(st.sampled_from(sorted(SCALAR_RINGS)))]
    x = operands(ring)
    pairs = data.draw(st.lists(st.tuples(x, x), min_size=1, max_size=5))
    assert_same_value(dot(pairs), ref_dot(pairs))


def inverse_of(ring, n):
    if isinstance(ring, PolyRing):
        return ring.from_base(ring.field.inv(ring.field.from_int(n)))
    return ring.inv(ring.from_int(n))


@pytest.mark.parametrize("name", sorted(SCALAR_RINGS))
def test_dot_cases_on_every_ring(name):
    ring = SCALAR_RINGS[name]
    zero = ring.zero()
    # 1/3 and 1/11: unequal denominators over Q, nonzero in F2, F5 and F7
    x, y = inverse_of(ring, 3), inverse_of(ring, 11)
    if isinstance(ring, PolyRing):
        x, y = x + ring.gen(0), y * ring.gen(1)
    cases = {
        "single pair": [(x, y)],
        "zero sides": [(zero, x), (x, y), (y, zero)],
        "all zero": [(zero, zero), (x, zero)],
        "ints": [(2, x), (y, -3), (x, y)],
        "int first": [(1, 1), (x, y)],
        "unequal denominators": [(x, x), (y, y), (x, y)],
        "cancellation": [(x, y), (-x, y), (y, x), (x, -y)],
    }
    for case, pairs in cases.items():
        assert_same_value(dot(pairs), ref_dot(pairs), case)
    assert dot(cases["cancellation"]) == zero
    assert type(dot(cases["cancellation"])) is type(zero)


def test_dot_over_q_cancels_to_a_fraction():
    pairs = [(F(1, 2), F(1, 3)), (F(-1, 6), 1), (F(2, 7), F(7, 4)), (-1, F(1, 2))]
    got = dot(pairs)
    assert type(got) is F and got == 0
    got = dot([(F(1, 6), F(3, 5)), (F(1, 10), 1)])
    assert type(got) is F and (got.numerator, got.denominator) == (1, 5)


def test_dot_refuses_mixed_moduli_and_mixed_centres():
    F2, F7 = PrimeField(2), PrimeField(7)
    Qi, QxQ, F5i = SCALAR_RINGS["Q(i)"], SCALAR_RINGS["QxQ"], SCALAR_RINGS["F5(sqrt2)"]
    mixed = [
        [(F7.one(), F2.one())],
        [(F7.one(), F7.one()), (F2.one(), F2.one())],
        [(3, F7.one()), (F7.one(), F2.one())],
        [(Qi.one(), QxQ.one())],
        [(Qi.one(), Qi.one()), (QxQ.one(), QxQ.one())],
        [(Qi.one(), F5i.one())],
        [(QxQ.one(), SCALAR_RINGS["F5xF5"].one())],
    ]
    for pairs in mixed:
        with pytest.raises(ParentMismatch):
            dot(pairs)
        with pytest.raises(ParentMismatch):
            ref_dot(pairs)

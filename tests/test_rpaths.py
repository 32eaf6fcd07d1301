import random
import sys
import threading
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from albert import linalg, maps, rpaths
from albert.certfile import load_certificate
from albert.errors import ConstraintError, NotInvertible, PathError
from albert.scalars import QQ
from albert.upoly import UPoly, poly_gcd
from albert.deg3 import CubicEtale, Matrix3
from albert.tits import FirstTits
from albert.rpaths import (
    RCertificate,
    cert_build_stab,
    cert_check,
    chi_map,
    chi_unit_check,
    conj_path,
    function_field,
    path_certify,
    sl1_path_split,
    str_path,
    transvection_path,
)
from conftest import (
    matrix_unit,
    random_norm_equal_pair,
    random_norm_one,
    ratfunc_at,
    ref_cert_check,
)

M3 = Matrix3(QQ)


def rt_identity(J, Rt):
    z, o = Rt.zero(), Rt.one()
    return [[o if i == j else z for j in range(J.dim)] for i in range(J.dim)]


# ---- path certification --------------------------------------------------------


def test_constant_identity_path(J27):
    p = path_certify(J27, rt_identity(J27, function_field(J27)))
    assert p.start.is_identity() and p.end.is_identity()
    assert p.is_automorphism_family()


@pytest.mark.parametrize("point", [0, 1])
def test_pole_at_endpoint_detected(J27, point):
    Rt = function_field(J27)
    t = Rt.gen()
    m = rt_identity(J27, Rt)
    m[0][0] = Rt.one() / (t - Rt.from_int(point))
    with pytest.raises(PathError) as err:
        path_certify(J27, m)
    assert err.value.code == "pole-at-endpoint"
    assert str(err.value) == f"matrix entry has a pole at t = {point}"


def test_homothety_family(J27):
    Rt = function_field(J27)
    t = Rt.gen()
    m = rt_identity(J27, Rt)
    scale = Rt.one() + t
    m = [[scale * v for v in row] for row in m]
    p = path_certify(J27, m)
    assert p.start.multiplier == F(1)
    assert p.end.multiplier == F(8)
    assert ratfunc_at(p.multiplier, F(1, 2)) == F(27, 8)


def test_generic_fiber_failure(J27):
    Rt = function_field(J27)
    t = Rt.gen()
    m = rt_identity(J27, Rt)
    m[0][9] = t  # couples blocks in a norm-breaking way
    with pytest.raises(PathError) as err:
        path_certify(J27, m)
    assert err.value.code == "generic-fiber-failure"


def test_multiplier_vanishes_at_endpoint(J27):
    Rt = function_field(J27)
    t = Rt.gen()
    m = [[t if i == j else Rt.zero() for j in range(27)] for i in range(27)]
    with pytest.raises(PathError) as err:
        path_certify(J27, m)
    assert err.value.code == "multiplier-vanishes-at-endpoint"


def test_specialization_commutes(J27):
    a = M3.diag([F(1), F(2), F(3)])
    p = conj_path(J27, a)
    Rt = p.matrix[0][0].ring
    rng = random.Random(51)
    points = [F(0), F(1)]
    while len(points) < 7:
        cand = QQ.sample(rng, 5)
        den = J27.field.one()
        # skip candidate poles: all entries must be regular there
        if all(v.den(cand) != 0 for row in p.matrix for v in row):
            points.append(cand)
    for t0 in points:
        m = [[ratfunc_at(v, t0) for v in row] for row in p.matrix]
        fresh = maps.certify(J27, m)
        assert fresh.multiplier == ratfunc_at(p.multiplier, t0)


# ---- conjugation path -----------------------------------------------------------


def test_conj_path_unit_is_constant(J27):
    p = conj_path(J27, M3.one())
    assert p.start.is_identity() and p.end.is_identity()


def test_conj_path_diag(J27):
    a = M3.diag([F(1), F(2), F(3)])
    p = conj_path(J27, a)
    assert linalg.mat_eq(p.start.matrix, maps.aut_conj_I(J27, a).matrix)
    assert p.end.is_identity()
    assert p.is_automorphism_family()
    # interpolated norm (2-t)(3-2t): poles avoid 0 and 1
    Rt = p.matrix[0][0].ring
    a_t_norm = UPoly([F(6), F(-7), F(2)], QQ)
    for row in p.matrix:
        for v in row:
            g = poly_gcd(v.den, a_t_norm)
            assert v.den.degree == 0 or g.degree >= 1


def test_conj_path_not_invertible(J27):
    with pytest.raises(NotInvertible):
        conj_path(J27, matrix_unit(M3, 0, 1))


# ---- elementary SL1 path ---------------------------------------------------------


def test_transvection_path_contracts():
    d = M3.diag([F(2), F(1, 2), F(1)])
    gamma = transvection_path(M3, d)
    Rt = gamma.ring
    # norm identically one as a rational function
    assert gamma.norm() == Rt.one()
    at0 = [ratfunc_at(v, F(0)) for v in gamma.coords]
    at1 = [ratfunc_at(v, F(1)) for v in gamma.coords]
    assert tuple(at0) == d.coords
    assert tuple(at1) == M3.one().coords


def test_sl1_path_unit(J27):
    p = sl1_path_split(J27, M3.one())
    assert p.start.is_identity() and p.end.is_identity()


def test_sl1_path_single_transvection(J27):
    d = M3.transvection(1, 2, F(7))
    p = sl1_path_split(J27, d)
    assert linalg.mat_eq(p.start.matrix, maps.aut_J(J27, d, "B").matrix)
    assert p.end.is_identity()
    assert p.is_automorphism_family()
    # entries stay polynomial for a single elementary factor
    for row in p.matrix:
        for v in row:
            assert v.den.degree == 0


def test_sl1_path_diag(J27):
    p = sl1_path_split(J27, M3.diag([F(2), F(1, 2), F(1)]))
    assert p.end.is_identity()


def test_sl1_path_requires_norm_one(J27):
    with pytest.raises(ConstraintError) as err:
        sl1_path_split(J27, M3.diag([F(2), F(1), F(1)]))
    assert err.value.code == "not-norm-one"


def test_sl1_path_requires_split_coordinates():
    L = CubicEtale(QQ, [F(-1), F(-3), F(0), F(1)])
    from albert.deg3 import Cyclic

    C = Cyclic(L, (F(2), F(0), F(-1)), F(2), division_asserted=True)
    J = FirstTits(C, F(5))
    with pytest.raises(ConstraintError) as err:
        sl1_path_split(J, C.one())
    assert err.value.code == "non-split-coordinates"


# ---- structure path ---------------------------------------------------------------


def test_str_path_trivial(J27):
    p = str_path(J27, M3.one(), M3.one(), M3.one())
    assert p.start.is_identity() and p.end.is_identity()


def test_str_path_diag(J27):
    a = M3.diag([F(1), F(2), F(3)])
    p = str_path(J27, a, M3.one(), M3.one())
    assert p.end.is_identity()
    expected = maps.str_ext_D(J27, F(1), a, M3.one(), a)
    assert linalg.mat_eq(p.start.matrix, expected.matrix)


def test_str_path_starts_at_its_similarity_without_expanding(J27, monkeypatch):
    a, b, d = M3.diag([F(1), F(2), F(3)]), M3.diag([F(2), F(1), F(1)]), M3.transvection(1, 2, F(1))
    calls = _counting(monkeypatch)
    checked = []

    def recorded(*args):
        checked.append((args, maps.str_ext_D(*args)))
        return checked[-1][1]

    monkeypatch.setattr(rpaths, "str_ext_D", recorded)
    p = str_path(J27, a, b, d)
    # both ends are read off the path; the start check reuses the start
    assert len(calls["certify_between"]) == 0
    [(args, start)] = checked
    assert args == (J27, F(1), a, b, a * b.inverse() * d) and start is p.start


def test_str_path_reduces_to_sl1(J27):
    d = M3.transvection(1, 2, F(3))
    p = str_path(J27, M3.one(), M3.one(), d)
    q = sl1_path_split(J27, d)
    assert linalg.mat_eq(p.start.matrix, q.start.matrix)


# ---- chi --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def JE():
    E = CubicEtale(QQ, [F(0), F(-1), F(0), F(1)])
    return FirstTits(E, F(5))


def test_chi_at_unit_both_choices(JE):
    E = JE.D
    res = chi_unit_check(JE, E.one())
    assert res["unit-scaled"][1] and res["element-scaled"][1]


def test_chi_disambiguation(JE):
    E = JE.D
    a = E.element([F(1), F(2), F(3)])
    res = chi_unit_check(JE, a)
    assert res["element-scaled"][1] is True
    assert res["unit-scaled"][1] is False
    # the unit-scaled image is (N(a)^{-1} a, 0, 0)
    f = res["unit-scaled"][0]
    na = a.norm()
    assert f.apply(JE.embed(a, 0)) == tuple(JE.embed(a.scale(QQ.inv(na)), 0))


def test_chi_certified_as_similarity(JE):
    E = JE.D
    a = E.element([F(1), F(2), F(3)])
    f = chi_map(JE, a, "element-scaled")
    assert f.multiplier == QQ.inv(a.norm())


def test_chi_needs_invertible(JE):
    E = JE.D
    with pytest.raises(NotInvertible):
        chi_map(JE, E.element([F(0), F(0), F(0)]), "element-scaled")


def test_chi_seeded_elements(JE):
    rng = random.Random(52)
    for _ in range(5):
        a = JE.D.sample_invertible(rng, 4)
        assert chi_unit_check(JE, a)["element-scaled"][1]


# ---- certificates -----------------------------------------------------------------


def test_cert_trivial_pair(J27):
    cert = cert_build_stab(J27, M3.one(), M3.one())
    rep = cert_check(cert)
    assert rep.all_pass


def test_cert_diag_pair(J27):
    a = M3.diag([F(1), F(2), F(3)])
    b = M3.diag([F(6), F(1), F(1)])
    cert = cert_build_stab(J27, a, b)
    assert len(cert.path_matrices) == 2
    rep = cert_check(cert)
    assert rep.all_pass, rep.render()


def test_cert_rejects_norm_mismatch(J27):
    with pytest.raises(ConstraintError):
        cert_build_stab(J27, M3.diag([F(1), F(2), F(3)]), M3.one())


def test_cert_tamper_detected(J27):
    a = M3.diag([F(1), F(2), F(3)])
    b = M3.diag([F(6), F(1), F(1)])
    cert = cert_build_stab(J27, a, b)
    Rt = cert.path_matrices[0][0][0].ring
    bad = [[row[:] for row in m] for m in cert.path_matrices]
    bad[0][3][5] = bad[0][3][5] + Rt.one()
    rep = cert_check(RCertificate(J27, cert.target_matrix, bad))
    assert not rep.all_pass


def test_cert_swapped_chain_detected(J27):
    a = M3.diag([F(1), F(2), F(3)])
    b = M3.diag([F(6), F(1), F(1)])
    cert = cert_build_stab(J27, a, b)
    swapped = RCertificate(J27, cert.target_matrix, list(reversed(cert.path_matrices)))
    rep = cert_check(swapped)
    assert not rep.all_pass
    failed = [c for c, p, _ in rep.items if not p]
    assert any("chain" in c for c in failed)


def test_cert_random_pairs(J27):
    rng = random.Random(53)
    for _ in range(2):
        g, h = random_norm_equal_pair(M3, rng, bound=3)
        cert = cert_build_stab(J27, g, h)
        assert cert_check(cert).all_pass


# ---- certified maps reused within one build or check ------------------------------


def _dense_pair(lam, seed):
    """(lambda, a, b) with a dense and a b^-1 a dense norm-one product."""
    a = M3.element([F(v) for v in (2, 1, 1, 1, 3, -1, 0, 1, 1)])
    d = random_norm_one(M3, random.Random(seed), nfactors=4, bound=3)
    return lam, a, d.inverse() * a


PAIRS = {
    "diag-2": (F(2), M3.diag([F(1), F(2), F(3)]), M3.diag([F(6), F(1), F(1)])),
    "diag-1/2": (F(1, 2), M3.diag([F(2), F(-1), F(3)]), M3.diag([F(-3), F(1), F(2)])),
    "dense--1": _dense_pair(F(-1), 56),
    "dense-3": _dense_pair(F(3), 57),
}


@pytest.fixture(scope="module", params=sorted(PAIRS))
def built(request):
    lam, a, b = PAIRS[request.param]
    J = FirstTits(M3, lam)
    return J, cert_build_stab(J, a, b)


def _shifted(m, i, j, delta):
    out = [row[:] for row in m]
    out[i][j] = out[i][j] + delta
    return out


def _tampered(cert):
    J, target, (first, second) = cert.parent, cert.target_matrix, cert.path_matrices
    Rt = function_field(J)
    identity = linalg.identity(J.field, J.dim)
    return {
        "genuine": (target, [first, second]),
        "path-1-shifted": (target, [_shifted(first, 3, 5, Rt.one()), second]),
        "path-2-shifted": (target, [first, _shifted(second, 12, 0, Rt.from_int(-2))]),
        "paths-swapped": (target, [second, first]),
        "identity-target": (identity, [first, second]),
        "target-shifted": (_shifted(target, 0, 0, F(1)), [first, second]),
        "last-path-not-to-identity": (target, [first]),
        "no-paths": (target, []),
    }


def test_cert_check_matches_reference(built):
    J, cert = built
    verdicts = {}
    for name, (target, paths) in _tampered(cert).items():
        copy = RCertificate(J, target, paths)
        got = cert_check(copy)
        assert got.items == ref_cert_check(copy).items, name
        verdicts[name] = got.all_pass
    assert verdicts.pop("genuine") and not any(verdicts.values())


def test_path_certified_in_scope_reuses_target_and_previous_end(built):
    J, cert = built
    fresh = [path_certify(J, m) for m in cert.path_matrices]
    with maps.certifying():
        target = maps.certify(J, cert.target_matrix)
        scoped = [path_certify(J, m) for m in cert.path_matrices]
    assert scoped[0].start is target
    assert scoped[1].start is scoped[0].end
    assert maps.certify(J, cert.target_matrix) is not target  # the scope has ended
    for got_path, want_path in zip(scoped, fresh):
        assert got_path.multiplier == want_path.multiplier
        for got, want in ((got_path.start, want_path.start),
                          (got_path.end, want_path.end)):
            assert linalg.mat_eq(got.matrix, want.matrix)
            assert got.multiplier == want.multiplier
            assert got.is_automorphism == want.is_automorphism


def test_map_of_another_structure_or_matrix_is_not_reused(J27):
    other = FirstTits(M3, F(3))
    Rt = function_field(J27)
    identity = linalg.identity(QQ, J27.dim)
    with maps.certifying():
        foreign = maps.certify(other, identity)
        moved = maps.aut_conj_I(J27, M3.diag([F(1), F(2), F(3)]))
        p = path_certify(J27, rt_identity(J27, Rt))
        own = maps.certify(J27, identity)
    for end in (p.start, p.end):
        assert end is not foreign and end is not moved
        assert end.parent is J27 and end.is_identity() and end.is_automorphism
    assert p.start is own and p.end is own


def test_nested_scope_joins_the_outer_one(J27):
    identity = linalg.identity(QQ, J27.dim)
    with maps.certifying():
        outer = maps.certify(J27, identity)
        with maps.certifying():
            assert maps.certify(J27, identity) is outer
        assert maps.certify(J27, identity) is outer
        # another thread is outside this scope
        seen = []
        thread = threading.Thread(target=lambda: seen.append(maps.certify(J27, identity)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and seen[0] is not outer
    with pytest.raises(PathError):
        with maps.certifying():
            inner = maps.certify(J27, identity)
            raise PathError("leaves the scope")
    assert maps.certify(J27, identity) is not inner


# ---- endpoints read off the path identity --------------------------------------


GOLDEN_CERT = load_certificate(Path(__file__).resolve().parent / "golden" / "certificate.cert")


@pytest.mark.parametrize("source", ["golden", "dense-3", "str-path"])
def test_path_endpoints_match_certify_between(J27, source):
    if source == "golden":
        J, matrices = GOLDEN_CERT.parent, GOLDEN_CERT.path_matrices
    elif source == "dense-3":
        lam, a, b = PAIRS[source]
        J = FirstTits(M3, lam)
        matrices = cert_build_stab(J, a, b).path_matrices
    else:
        # a similarity family: its start has a multiplier other than 1
        J = J27
        matrices = [str_path(J, M3.diag([F(1), F(2), F(3)]), M3.diag([F(2), F(1), F(1)]),
                             M3.one()).matrix]
    for matrix in matrices:
        path = path_certify(J, matrix)
        for end in (path.start, path.end):
            reference = maps.certify_between(J, J, end.matrix)
            assert end.multiplier == reference.multiplier
            assert end.is_automorphism == reference.is_automorphism
    if source == "str-path":
        assert path.start.multiplier != J.field.one() and not path.start.is_automorphism


@settings(max_examples=100, deadline=None)
@given(path_index=st.integers(0, len(GOLDEN_CERT.path_matrices) - 1),
       i=st.integers(0, 26), j=st.integers(0, 26),
       delta=st.fractions(-3, 3, max_denominator=3).filter(bool))
def test_golden_certificate_with_one_entry_shifted_fails(path_index, i, j, delta):
    Rt = function_field(GOLDEN_CERT.parent)
    paths = list(GOLDEN_CERT.path_matrices)
    paths[path_index] = _shifted(paths[path_index], i, j, Rt.from_base(delta))
    tampered = RCertificate(GOLDEN_CERT.parent, GOLDEN_CERT.target_matrix, paths)
    assert not cert_check(tampered).all_pass


def test_cert_check_compares_matrices_only_in_certify(monkeypatch):
    callers = []
    mat_eq = linalg.mat_eq

    def recorded(A, B):
        callers.append(sys._getframe(1).f_code)
        return mat_eq(A, B)

    monkeypatch.setattr(linalg, "mat_eq", recorded)
    assert cert_check(GOLDEN_CERT).all_pass
    # the scope lookup; the chain checks compare maps and is_identity reads
    # entries
    assert callers and set(callers) == {maps.certify.__code__}


def _counting(monkeypatch):
    calls = {"certify_between": [], "path_certify": []}

    def wrap(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    wrap(maps, "certify_between")
    wrap(rpaths, "path_certify")
    return calls


def test_cert_check_certifies_each_distinct_matrix_once(J27, monkeypatch):
    a = M3.diag([F(1), F(2), F(3)])
    cert = cert_build_stab(J27, a, M3.diag([F(6), F(1), F(1)]))
    calls = _counting(monkeypatch)
    assert cert_check(cert).all_pass
    # the target; every path endpoint is read off its path's identity
    assert len(calls["certify_between"]) == 1
    assert len(calls["path_certify"]) == 2


def test_cert_build_certifies_each_path_once(J27, monkeypatch):
    _, a, b = _dense_pair(F(2), 58)
    calls = _counting(monkeypatch)
    cert = cert_build_stab(J27, a, b)
    for matrix in cert.path_matrices:
        assert sum(linalg.mat_eq(args[1], matrix)
                   for args in calls["path_certify"]) == 1
    # the target; the J-map, conjugation by a and the identity are path ends
    assert len(calls["certify_between"]) == 1


def test_conj_path_certifies_each_matrix_once(J27, monkeypatch):
    calls = _counting(monkeypatch)
    conj_path(J27, M3.element([F(v) for v in (2, 1, 1, 1, 3, -1, 0, 1, 1)]))
    # both ends are read off the path; the start check reuses the start
    assert len(calls["certify_between"]) == 0

"""Seeded inputs, operations and known-answer gates of the three workloads.

Every input is a pure function of (workload, seed, op index), so the same
seed regenerates byte-identical inputs (compare ``Input.text``).  The
expected verdict of an op follows from how its input was built, never from
the checker under test:

* ``scenarios``: a generated scenario file states only true facts (norm
  constraints, invertibility and norm-one conditions are arranged by
  construction with this module's own 3x3 arithmetic), so the CLI must exit 0
  with every ``CHECK`` line ``PASS`` and every ``run`` directive reported;
* ``certificates``: a certificate built from a norm-equal pair must pass
  ``cert_check``; a copy with one path-matrix entry shifted by a constant
  changes an endpoint matrix, so it must be rejected;
* ``identities``: N(X#) = N(X)^2 and N(U_X Y) = N(X)^2 N(Y) hold in every
  cubic norm structure, so both decisions must be true.

An op returns its verdict records as (check id, passed) pairs; the gate
compares them with the input's known answer.  Free-text details are dropped,
so the verdict digest covers ids and verdicts only.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time
from fractions import Fraction as F

from albert import certfile, cli, rpaths
from albert.deg3 import CubicEtale, Matrix3
from albert.scalars import QQ, PrimeField
from albert.tits import FirstTits
from albert.upoly import RationalFunctionField, UPoly


class Input:
    """One generated op input; ``text`` is its canonical serialization."""

    def __init__(self, index, text, props, **data):
        self.index = index
        self.text = text
        self.props = props
        self.__dict__.update(data)


# -- exact 3x3 helpers over Fraction, independent of the program -----------


def _mul3(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _det3(A):
    return (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
            - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
            + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))


def _ident3():
    return [[F(int(i == j)) for j in range(3)] for i in range(3)]


def _transvection(i, j, alpha):
    m = _ident3()
    m[i][j] = F(alpha)
    return m


def _unimodular(rng):
    """d = E12(a) E23(b) E31(ab) with seeded signs a, b, and d^-1.

    det d = 1 and d != 1; tying the third sign to the first two keeps the
    corner entry 1 + a*b*(ab) = 2 nonzero, so all such d share one sparsity
    pattern."""
    alpha, beta = rng.choice((-1, 1)), rng.choice((-1, 1))
    d, d_inv = _ident3(), _ident3()
    for i, j, v in ((0, 1, alpha), (1, 2, beta), (2, 0, alpha * beta)):
        d = _mul3(d, _transvection(i, j, v))
        d_inv = _mul3(_transvection(i, j, -v), d_inv)
    return d, d_inv


def _diag3(entries):
    return [[F(entries[i]) if i == j else F(0) for j in range(3)] for i in range(3)]


def _invertible(rng, dense):
    """A seeded invertible 3x3 matrix: all nine entries in {+-1, +-2} when
    dense, a diagonal with entries in {+-1, +-2, +-3} otherwise."""
    while True:
        if dense:
            m = [[F(rng.choice((-2, -1, 1, 2))) for _ in range(3)] for _ in range(3)]
        else:
            m = _diag3([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)])
        if _det3(m):
            return m


def _q(v):
    v = F(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _mat_text(m):
    return "[" + ",".join("[" + ",".join(_q(v) for v in row) + "]" for row in m) + "]"


def _nonzeros(matrix):
    return sum(1 for row in matrix for v in row if v)


# A run is whole cycles of CYCLE ops; op i's class is fixed by i mod CYCLE,
# so every run does the same mix of classes whatever its seed and length.
CYCLE = 4


def _dense_class(index):
    # one class in four keeps the mix well off 50/50, so no median falls
    # between the two cost modes
    return index % CYCLE != 0


# -- scenarios ---------------------------------------------------------------

_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # +-1, +-s in Q[s]/(s^2+1)
_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
_MU_NORM_ONE = ("(1;0)", "(-1;0)", "(0;1)", "(3/5;4/5)", "(-4/5;3/5)")


def _perm_sign(p):
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
    return -1 if inversions % 2 else 1


def _gauss_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _gauss_text(u):
    return f"({_q(u[0])};{_q(u[1])})"


def _monomial_text(perm, units, scale=1):
    rows = []
    for i in range(3):
        row = ["0"] * 3
        u = units[i]
        row[perm[i]] = _gauss_text((u[0] * scale, u[1] * scale))
        rows.append("[" + ",".join(row) + "]")
    return "[" + ",".join(rows) + "]"


def _monomial_det(perm, units):
    acc = (_perm_sign(perm), 0)
    for u in units:
        acc = _gauss_mul(acc, u)
    return acc


def _second_construction_map(rng):
    """g = c U with U a monomial unitary over the Gaussian rationals, so g is
    a similitude of (M3(K), conjugate transpose) with multiplier c^2; q is a
    monomial unitary with det q = det(U)^2 = N(g) / conj(N(g))."""
    perm_g = rng.choice(_PERMS)
    units_g = [rng.choice(_UNITS) for _ in range(3)]
    det_u = _monomial_det(perm_g, units_g)
    target = _gauss_mul(det_u, det_u)
    perm_q = rng.choice(_PERMS)
    q1, q2 = rng.choice(_UNITS), rng.choice(_UNITS)
    partial = _monomial_det(perm_q, [q1, q2, (1, 0)])
    # units are closed under inverse: partial^-1 = conj(partial)
    q3 = _gauss_mul(target, (partial[0], -partial[1]))
    scale = F(rng.choice((1, 2, -1, 3)), rng.choice((1, 2)))
    return (_monomial_text(perm_g, units_g, scale),
            _monomial_text(perm_q, [q1, q2, q3]))


def scenario_input(seed, index, small=False):
    """A scenario file exercising every directive the workload names."""
    rng = random.Random(f"scenarios:{seed}:{index}")
    dense = _dense_class(index)
    lam = rng.choice((1, 2, -1, 3, F(1, 2)))
    g = _invertible(rng, dense)
    h = _mul3(_unimodular(rng)[0], g)    # N(h) = N(g)
    b = _invertible(rng, dense)
    c = _invertible(rng, dense)
    a = _mul3(_mul3(b, c), _unimodular(rng)[0])   # N(a) = N(b) N(c)
    gamma = F(rng.choice((1, 2, -1)), rng.choice((1, 2)))
    # a diagonal conjugator keeps the k(t) path small: this workload's time
    # is meant to be linear algebra over Q and certify, not rpaths
    conj_a = _invertible(rng, False)
    jmap_c, _ = _unimodular(rng)         # norm one and not the identity
    g2, q2 = _second_construction_map(rng)
    mu = _MU_NORM_ONE[rng.randrange(len(_MU_NORM_ONE))]
    split = F(rng.choice((2, 3, -1, -2)), rng.choice((1, 2, 3)))
    m = rng.choice((1, 2, 3))            # E = Q[x]/(x^3 - m^2 x), roots 0, +-m
    lam_e = rng.choice((1, 5, -2, 3))
    c1 = rng.choice((1, -1, 2))
    c0 = rng.choice([v for v in range(-4, 5) if v not in (0, m * c1, -m * c1)])
    samples, pairs, trials = (2, 1, 1) if small else (4, 3, 2)
    seeds = [rng.randrange(1, 10**6) for _ in range(4)]
    lines = [
        f"# seeded scenario {seed}/{index} ({'dense' if dense else 'diagonal'})",
        "D = matrix3(Q)",
        f"J = first_tits(D, lambda={_q(lam)})",
        f"M = aut_ext_D(J, g={_mat_text(g)}, h={_mat_text(h)})",
        f"S = str_ext_D(J, gamma={_q(gamma)}, a={_mat_text(a)}, b={_mat_text(b)}, c={_mat_text(c)})",
        f"P = conj_path(J, a={_mat_text(conj_a)})",
        "K = Q[s]/(s^2-(-1))",
        "B = matrix3(K)",
        f"J2 = second_tits(B, conjtrans, u=[[1,0,0],[0,1,0],[0,0,1]], mu={mu})",
        f"M2 = aut_ext_second(J2, g={g2}, q={q2})",
        f"E = Q[x]/(x^3-{m * m}*x)",
        f"JE = first_tits(E, lambda={lam_e})",
        f"run axioms(J, samples={samples}, seed={seeds[0]})",
        f"run fundamental(J, pairs={pairs}, seed={seeds[1]})",
        f"run trace_oracle(D, samples=10, seed={seeds[2]})",
        "run verify_map(M)",
        "run verify_map(S)",
        "run verify_map(M2)",
        f"run jmap_choice(J, c={_mat_text(jmap_c)})",
        "run check_path(P)",
        f"run split_identity(D, mu=({_q(split)};{_q(1 / split)}))",
        f"run chi_suite(JE, a=[{c0},{c1},0], trials={trials}, seed={seeds[3]})",
    ]
    text = "\n".join(lines) + "\n"
    runs = [f"L{n}:{line[4:].split('(')[0]}" for n, line in enumerate(lines, 1)
            if line.startswith("run ")]
    props = {"field": "Q", "dim": 27, "class": "dense" if dense else "diagonal"}
    return Input(index, text, props, runs=runs)


class Scenarios:
    name = "scenarios"
    cycle = CYCLE

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self):
        pass  # the CLI builds every structure from the file, inside the op

    def make_input(self, seed, index):
        return scenario_input(seed, index)

    def warmup_input(self):
        return scenario_input("warmup", 0, small=True)

    def run(self, inp):
        path = os.path.join(self.workdir, "scenario.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inp.text)
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            status = cli.main(["check-axioms", path, "--format", "machine"])
        elapsed = time.perf_counter() - t0
        records = [("exit-status", status == 0)]
        for line in out.getvalue().splitlines():
            parts = line.split(" ", 3)
            if parts[0] == "CHECK":
                records.append((parts[1], parts[2] == "PASS"))
        return records, {"op": elapsed}

    @staticmethod
    def gate(inp, records):
        if not all(passed for _, passed in records):
            return False
        return all(any(cid.startswith(run + ":") for cid, _ in records) for run in inp.runs)


# -- certificates ------------------------------------------------------------

_CERT_LAMBDAS = (F(2), F(1), F(-1), F(3), F(1, 2))


def certificate_input(seed, index):
    rng = random.Random(f"certificates:{seed}:{index}")
    # one dense pair in four: a dense op costs about four diagonal ones, so
    # this keeps a run at a dozen ops and the median on the diagonal class
    dense = index % CYCLE == 3
    lam = _CERT_LAMBDAS[rng.randrange(len(_CERT_LAMBDAS))]
    if dense:
        a = _invertible(rng, True)
        _, d_inv = _unimodular(rng)
        b = _mul3(d_inv, a)              # a b^-1 = d has norm one
    else:
        a = _invertible(rng, False)
        b1 = rng.choice((-3, -2, -1, 1, 2, 3))
        b2 = rng.choice((-3, -2, -1, 1, 2, 3))
        b = _diag3([b1, b2, _det3(a) / (b1 * b2)])
    tamper = (rng.randrange(2), rng.randrange(27), rng.randrange(27),
              F(rng.choice((1, -1, 2))))
    text = (f"lambda={_q(lam)} a={_mat_text(a)} b={_mat_text(b)} "
            f"tamper=path{tamper[0] + 1}[{tamper[1]},{tamper[2]}]+{_q(tamper[3])}\n")
    props = {"field": "Q", "dim": 27, "class": "dense" if dense else "diagonal"}
    # expected cert_check verdict of each copy, from how the copy was made
    claims = {"genuine": True, "tampered": False}
    return Input(index, text, props, lam=lam, a=a, b=b, tamper=tamper, claims=claims)


def tamper_certificate(cert, tamper):
    """A copy of ``cert`` with one path-matrix entry shifted by a constant.

    The shift changes the path's value at t = 0 and at t = 1, so an endpoint
    of the chain no longer matches and the copy cannot pass."""
    path_idx, i, j, delta = tamper
    Rt = RationalFunctionField(cert.parent.field, "t")
    paths = [[list(row) for row in m] for m in cert.path_matrices]
    paths[path_idx][i][j] = paths[path_idx][i][j] + Rt.from_base(delta)
    return rpaths.RCertificate(cert.parent, cert.target_matrix, paths)


class Certificates:
    name = "certificates"
    cycle = CYCLE

    def setup(self):
        self.D = Matrix3(QQ)
        self.structures = {lam: FirstTits(self.D, lam) for lam in _CERT_LAMBDAS}

    def make_input(self, seed, index):
        return certificate_input(seed, index)

    def warmup_input(self):
        return certificate_input("warmup", 0)

    def run(self, inp):
        J = self.structures[inp.lam]
        a = self.D.element([v for row in inp.a for v in row])
        b = self.D.element([v for row in inp.b for v in row])
        t0 = time.perf_counter()
        cert = rpaths.cert_build_stab(J, a, b)
        t1 = time.perf_counter()
        reread = certfile.parse_certificate(certfile.render_certificate(cert))
        t2 = time.perf_counter()
        genuine = rpaths.cert_check(reread)
        t3 = time.perf_counter()
        tampered = tamper_certificate(reread, inp.tamper)
        t4 = time.perf_counter()
        forged = rpaths.cert_check(tampered)
        t5 = time.perf_counter()
        inp.props["path_nonzeros"] = sum(_nonzeros(m) for m in cert.path_matrices)
        records = [(f"genuine:{cid}", ok) for cid, ok, _ in genuine.items]
        records += [(f"tampered:{cid}", ok) for cid, ok, _ in forged.items]
        phases = {"cert_build": t1 - t0, "cert_check": t3 - t2,
                  "tamper_reject": t5 - t4, "op": t5 - t0}
        return records, phases

    @staticmethod
    def gate(inp, records):
        verdicts = {}
        for cid, ok in records:
            copy = cid.split(":", 1)[0]
            verdicts[copy] = verdicts.get(copy, True) and ok
        return verdicts == inp.claims


# -- identities --------------------------------------------------------------

# Sparse separable cubics, each over a field where it is separable (x^3 + 1
# is inseparable in char 3, x^3 - x in char 2), grouped by field into classes
# of near-equal op cost (measured on one 2.1 GHz Xeon vCPU): Q and F2 about
# 3.8 s, F5 and F7 2.5-3.4 s, F3 1.5 s.  Denser cubics cost far more:
# x^3 + x + 1 over Q takes 52-56 s, x^3 - x + 1 over F3 15-17 s.
_IDENTITY_CLASSES = {
    "Q": ((0, -1, 0, 1), (0, 1, 0, 1)),
    "F2": ((1, 1, 0, 1),),
    "F3": ((0, -1, 0, 1),),
    "F5": ((1, 0, 0, 1), (-2, 0, 0, 1), (2, 0, 0, 1)),
    "F7": ((1, 0, 0, 1), (-2, 0, 0, 1), (3, 0, 0, 1)),
}
_IDENTITY_STRUCTURES = tuple((field_name, coeffs) for field_name, members
                             in _IDENTITY_CLASSES.items() for coeffs in members)
# The field of op i is slot i mod 5, the same for every seed, and a run is
# whole cycles of the slots, so every run does the same mix of work; the seed
# picks the cubic within the field's class and lambda.  Of k cycles, k ops
# cost 1.5 s, 2k about 3 s and 2k about 3.8 s, so the op-time median lies
# inside the middle cost mode.
_IDENTITY_SLOTS = ("Q", "F5", "F3", "F7", "F2")
_IDENTITY_LAMBDAS = (1, -1, 2)


def _field(name):
    return QQ if name == "Q" else PrimeField(int(name[1:]))


def _cubic_text(coeffs):
    terms = ["x^3"]
    for power, c in ((2, coeffs[2]), (1, coeffs[1]), (0, coeffs[0])):
        if c:
            mono = {2: "x^2", 1: "x", 0: ""}[power]
            terms.append(f"{'+' if c > 0 else '-'}{abs(c) if abs(c) != 1 or not mono else ''}{mono}")
    return "".join(terms)


def identity_input(seed, index):
    """Op i works over the field of slot i mod 5; the seed picks the cubic
    from that field's class and lambda (nonzero in k)."""
    field_name = _IDENTITY_SLOTS[index % len(_IDENTITY_SLOTS)]
    rng = random.Random(f"identities:{seed}:{index}")
    coeffs = rng.choice(_IDENTITY_CLASSES[field_name])
    p = 0 if field_name == "Q" else int(field_name[1:])
    lam = rng.choice([v for v in _IDENTITY_LAMBDAS if not p or v % p])
    text = f"field={field_name} f={_cubic_text(coeffs)} lambda={lam}\n"
    return Input(index, text, {"field": field_name, "dim": 9},
                 key=(field_name, coeffs, lam))


class Identities:
    name = "identities"
    cycle = len(_IDENTITY_SLOTS)

    def setup(self):
        self.structures = {}
        for field_name, coeffs in _IDENTITY_STRUCTURES:
            k = _field(field_name)
            E = CubicEtale(k, UPoly([k.from_int(c) for c in coeffs], k))
            for lam in _IDENTITY_LAMBDAS:
                if field_name == "Q" or lam % int(field_name[1:]):
                    self.structures[(field_name, coeffs, lam)] = FirstTits(E, k.from_int(lam))

    def make_input(self, seed, index):
        return identity_input(seed, index)

    def warmup_input(self):
        # the cheapest structure (F3, x^3 - x), so set-up stays short
        return Input(-1, "field=F3 f=x^3-x lambda=1\n", {"field": "F3", "dim": 9},
                     key=("F3", (0, -1, 0, 1), 1))

    def run(self, inp):
        J = self.structures[inp.key]
        t0 = time.perf_counter()
        ring, X = J.generic_vectors(1)
        nx = J.norm_program(ring, X)
        adjoint = J.norm_program(ring, J.sharp_program(ring, X)) == nx * nx
        ring2, X2, Y2 = J.generic_vectors(2)
        lhs = J.norm_program(ring2, J.u_op(X2, Y2, S=ring2))
        nx2 = J.norm_program(ring2, X2)
        u_identity = lhs == nx2 * nx2 * J.norm_program(ring2, Y2)
        elapsed = time.perf_counter() - t0
        records = [("norm-of-adjoint", adjoint), ("norm-of-u-operator", u_identity)]
        return records, {"op": elapsed}

    @staticmethod
    def gate(inp, records):
        return len(records) == 2 and all(ok for _, ok in records)


def make(name, workdir):
    if name == "scenarios":
        return Scenarios(workdir)
    if name == "certificates":
        return Certificates()
    if name == "identities":
        return Identities()
    raise ValueError(f"unknown workload {name!r}")

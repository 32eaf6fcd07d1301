"""Scenario files: declarations plus verification directives.

Line oriented:

    # comment
    F = Q
    D = matrix3(F)
    J = first_tits(D, lambda=2)
    M = aut_ext_D(J, g=[[1,0,0],[0,2,0],[0,0,3]], h=[[6,0,0],[0,1,0],[0,0,1]])
    run axioms(J, samples=25, seed=1)
    run verify_map(M)

Every name is declared once, every reference must resolve to an earlier
declaration or a builtin, and directives run in file order; full syntax and
reference validation happens before any computation.  Sampled suites must
carry a seed (the --seed CLI flag can supply one globally), and identical
scenario plus seed yields a byte-identical machine report.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import ConstraintError, ScenarioParseError, UnresolvedReference
from .scalars import QuadraticExtension
from .upoly import RationalFunctionField
from .deg3 import (
    ConjugateTranspose,
    CubicEtale,
    Cyclic,
    Element,
    Matrix3,
    ProductWithOpposite,
    Switch,
    UTwist,
)
from .cubicnorm import CubicJordan, DPlus
from .tits import FirstTits, SecondTits, split_identify
from . import maps as maps_mod
from . import rpaths as rpaths_mod
from .report import Report
from .exprs import (
    coerce_scalar,
    eval_atom,
    free_names,
    is_builtin_name,
    parse_expression,
)
from . import linalg

SAMPLED_SUITES = {"axioms", "fundamental", "trace_oracle", "chi_suite"}

KNOWN_SUITES = SAMPLED_SUITES | {
    "verify_map",
    "degree_identities",
    "jmap_choice",
    "check_path",
    "check_cert",
    "split_identity",
}


class Directive:
    __slots__ = ("kind", "line", "name", "ast")

    def __init__(self, kind, line, name, ast):
        self.kind = kind
        self.line = line
        self.name = name
        self.ast = ast


class Scenario:
    def __init__(self, directives):
        self.directives = directives


def parse_scenario(text):
    """Parse and statically validate a scenario (syntax, references, simple
    parameter sanity).  No computation happens here."""
    directives = []
    declared = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("let "):
            line = line[4:].strip()
        if line.startswith("run "):
            ast = parse_expression(line[4:].strip(), line_no)
            if ast[0] != "call":
                raise ScenarioParseError("run needs a suite call", line_no)
            if ast[1] not in KNOWN_SUITES:
                raise ScenarioParseError(f"unknown suite {ast[1]!r}", line_no)
            directives.append(Directive("run", line_no, ast[1], ast))
        elif "=" in line:
            name, expr = line.split("=", 1)
            name = name.strip()
            if not name.isidentifier():
                raise ScenarioParseError(f"bad declaration name {name!r}", line_no)
            if name in declared:
                raise ScenarioParseError(f"{name!r} is already declared", line_no)
            ast = parse_expression(expr.strip(), line_no)
            directives.append(Directive("let", line_no, name, ast))
        else:
            raise ScenarioParseError("expected a declaration or a run directive", line_no)
        # reference resolution against everything declared so far
        d = directives[-1]
        for ref in free_names(d.ast):
            if ref not in declared and not is_builtin_name(ref):
                raise UnresolvedReference(
                    f"undefined name {ref!r} (line {d.line})"
                )
        _static_checks(d)
        if d.kind == "let":
            declared.add(d.name)
    return Scenario(directives)


def _static_checks(directive):
    """Cheap literal validation before any computation."""
    ast = directive.ast

    def walk(node):
        if node[0] == "call":
            if node[1] == "first_tits":
                lam = node[3].get("lambda")
                if lam is None and len(node[2]) > 1:
                    lam = node[2][1]
                if lam is not None and lam[0] == "scalar" and lam[1] == 0:
                    raise ConstraintError(
                        f"first_tits scale must be nonzero (line {directive.line})",
                        code="zero-lambda",
                    )
            if node[1] == "cyclic":
                b = node[3].get("b")
                if b is not None and b[0] == "scalar" and b[1] == 0:
                    raise ConstraintError(
                        f"cyclic algebra parameter b must be nonzero (line {directive.line})",
                        code="zero-parameter",
                    )
                rho = node[3].get("rho")
                if rho is not None and rho[0] == "scalar":
                    raise ScenarioParseError(
                        "rho must be the explicit image of the generator "
                        "(a coordinate list); generator indices are not supported",
                        directive.line,
                    )
            for a in node[2]:
                walk(a)
            for a in node[3].values():
                walk(a)
        elif node[0] in ("list",):
            for a in node[1]:
                walk(a)
        elif node[0] in ("pair",):
            walk(node[1])
            walk(node[2])
        elif node[0] in ("quotient", "ratfield"):
            walk(node[1])

    walk(ast)


# ---------------------------------------------------------------------------
# evaluation


def _as_int(value, what, line):
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    raise ScenarioParseError(f"{what} must be an integer", line)


def _coerce_element(alg, value, line):
    """Turn a literal list into an element of a degree-3 algebra."""
    if isinstance(value, Element):
        return value
    if not (isinstance(value, tuple) and value and value[0] == "list"):
        raise ScenarioParseError("expected an element literal", line)
    items = value[1]
    ring = alg.base_ring
    if items and isinstance(items[0], tuple) and items[0][0] == "list":
        if not isinstance(alg, Matrix3) or len(items) != 3:
            raise ScenarioParseError("nested rows only describe 3x3 matrices", line)
        flat = []
        for row in items:
            if len(row[1]) != 3:
                raise ScenarioParseError("matrix row must have 3 entries", line)
            flat.extend(coerce_scalar(ring, v, line) for v in row[1])
        return alg.element(flat)
    coords = [coerce_scalar(ring, v, line) for v in items]
    if len(coords) != alg.dim:
        raise ScenarioParseError(
            f"element needs {alg.dim} coordinates, got {len(coords)}", line
        )
    return alg.element(coords)


def _attach(alg, marker, line):
    kind = marker[1]
    if kind == "switch":
        return alg.attach_involution(Switch())
    if kind == "conjtrans":
        return alg.attach_involution(ConjugateTranspose())
    if kind == "utwist":
        inner = Switch() if isinstance(alg, ProductWithOpposite) else ConjugateTranspose()
        u = _coerce_element(alg, marker[2]["u"], line)
        return alg.attach_involution(UTwist(inner, u))
    raise ScenarioParseError(f"unknown involution {kind!r}", line)


class Evaluator:
    def __init__(self):
        self.env = {}

    def lookup(self, name, line):
        if name in self.env:
            return self.env[name]
        if is_builtin_name(name):
            return eval_atom(name, line)
        raise UnresolvedReference(f"undefined name {name!r} (line {line})")

    def eval(self, ast, line):
        kind = ast[0]
        if kind == "name":
            return self.lookup(ast[1], line)
        if kind == "scalar":
            return ast[1]
        if kind == "list":
            return ("list", [self.eval(a, line) for a in ast[1]])
        if kind == "pair":
            return ("pair", self.eval(ast[1], line), self.eval(ast[2], line))
        if kind == "quotient":
            base = self.eval(ast[1], line)
            coeffs = [coerce_scalar(base, c, line) for c in ast[3]]
            if ast[2] == "s":
                if len(coeffs) != 3 or base.is_zero(coeffs[2]):
                    raise ScenarioParseError("quadratic extension needs s^2 - d", line)
                one = base.one()
                if coeffs[2] != one or not base.is_zero(coeffs[1]):
                    raise ScenarioParseError(
                        "quadratic extension must be given as s^2 - d", line
                    )
                return QuadraticExtension(base, -coeffs[0])
            return CubicEtale(base, coeffs)
        if kind == "ratfield":
            base = self.eval(ast[1], line)
            return RationalFunctionField(base, ast[2])
        if kind == "call":
            return self.eval_call(ast, line)
        raise ScenarioParseError(f"cannot evaluate node {kind!r}", line)

    def eval_call(self, ast, line):
        _, name, arg_asts, kwarg_asts = ast
        if name == "utwist":
            return (
                "involution",
                "utwist",
                {k: self.eval(v, line) for k, v in kwarg_asts.items()},
            )
        args = [self.eval(a, line) for a in arg_asts]
        kwargs = {k: self.eval(v, line) for k, v in kwarg_asts.items()}
        builder = _CONSTRUCTORS.get(name)
        if builder is None:
            raise ScenarioParseError(f"unknown constructor {name!r}", line)
        return builder(self, args, kwargs, line)


# constructor registry -------------------------------------------------------


def _need(kwargs, key, line):
    if key not in kwargs:
        raise ScenarioParseError(f"missing argument {key!r}", line)
    return kwargs[key]


def _jordan_arg(args, line):
    if not args or not isinstance(args[0], CubicJordan):
        raise ScenarioParseError("first argument must be a cubic norm structure", line)
    return args[0]


def _build_matrix3(ev, args, kwargs, line):
    if len(args) != 1:
        raise ScenarioParseError("matrix3 takes one ring argument", line)
    return Matrix3(args[0])


def _build_cubic_etale(ev, args, kwargs, line):
    field = args[0]
    f = kwargs.get("f")
    if f is None or not (isinstance(f, tuple) and f[0] == "list"):
        raise ScenarioParseError("cubic_etale needs f=[c0,c1,c2,1]", line)
    coeffs = [coerce_scalar(field, c, line) for c in f[1]]
    return CubicEtale(field, coeffs)


def _build_cyclic(ev, args, kwargs, line):
    L = args[0]
    if not isinstance(L, CubicEtale):
        raise ScenarioParseError("cyclic needs a cubic etale first argument", line)
    rho = _need(kwargs, "rho", line)
    if not (isinstance(rho, tuple) and rho[0] == "list"):
        raise ScenarioParseError(
            "rho must be the explicit image of the generator "
            "(a coordinate list); generator indices are not supported",
            line,
        )
    rho_coords = [coerce_scalar(L.base_ring, c, line) for c in rho[1]]
    b = coerce_scalar(L.base_ring, _need(kwargs, "b", line), line)
    division = kwargs.get("division") == Fraction(1)
    return Cyclic(L, rho_coords, b, division_asserted=division)


def _build_prodop(ev, args, kwargs, line):
    return ProductWithOpposite(args[0])


def _build_dplus(ev, args, kwargs, line):
    return DPlus(args[0])


def _build_first_tits(ev, args, kwargs, line):
    D = args[0]
    lam_raw = kwargs.get("lambda")
    if lam_raw is None:
        if len(args) < 2:
            raise ScenarioParseError("first_tits needs a scale (lambda)", line)
        lam_raw = args[1]
    lam = coerce_scalar(D.base_ring, lam_raw, line)
    division = kwargs.get("division") == Fraction(1)
    return FirstTits(D, lam, division_asserted=division)


def _build_second_tits(ev, args, kwargs, line):
    B = args[0]
    if len(args) < 2 or not (isinstance(args[1], tuple) and args[1][0] == "involution"):
        raise ScenarioParseError(
            "second_tits needs an involution as its second argument", line
        )
    B = _attach(B, args[1], line)
    u = _coerce_element(B, _need(kwargs, "u", line), line)
    mu = coerce_scalar(B.base_ring, _need(kwargs, "mu", line), line)
    division = kwargs.get("division") == Fraction(1)
    return SecondTits(B, u, mu, division_asserted=division)


def _first_tits_elem(J, kwargs, key, line):
    if not isinstance(J, FirstTits):
        raise ScenarioParseError("this constructor needs a first construction", line)
    return _coerce_element(J.D, _need(kwargs, key, line), line)


def _second_tits_elem(J, kwargs, key, line):
    if not isinstance(J, SecondTits):
        raise ScenarioParseError("this constructor needs a second construction", line)
    return _coerce_element(J.B, _need(kwargs, key, line), line)


def _build_aut_conj_I(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    return maps_mod.aut_conj_I(J, _first_tits_elem(J, kwargs, "d", line))


def _build_aut_J_A(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    return maps_mod.aut_J(J, _first_tits_elem(J, kwargs, "c", line), "A")


def _build_aut_J_B(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    return maps_mod.aut_J(J, _first_tits_elem(J, kwargs, "c", line), "B")


def _build_aut_ext_D(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    return maps_mod.aut_ext_D(
        J,
        _first_tits_elem(J, kwargs, "g", line),
        _first_tits_elem(J, kwargs, "h", line),
    )


def _build_str_ext_D(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    gamma = coerce_scalar(J.field, _need(kwargs, "gamma", line), line)
    return maps_mod.str_ext_D(
        J,
        gamma,
        _first_tits_elem(J, kwargs, "a", line),
        _first_tits_elem(J, kwargs, "b", line),
        _first_tits_elem(J, kwargs, "c", line),
    )


def _build_aut_ext_second(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    return maps_mod.aut_ext_second(
        J,
        _second_tits_elem(J, kwargs, "g", line),
        _second_tits_elem(J, kwargs, "q", line),
    )


def _build_aut_stab_second(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    return maps_mod.aut_stab_second(
        J,
        _second_tits_elem(J, kwargs, "p", line),
        _second_tits_elem(J, kwargs, "q", line),
    )


def _build_str_ext_second(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    gamma = coerce_scalar(J.field, _need(kwargs, "gamma", line), line)
    return maps_mod.str_ext_second(
        J,
        gamma,
        _second_tits_elem(J, kwargs, "g", line),
        _second_tits_elem(J, kwargs, "q", line),
    )


def _build_u_similarity(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    vec_raw = _need(kwargs, "a", line)
    if isinstance(J, FirstTits) and isinstance(vec_raw, tuple) and vec_raw[0] == "list" \
            and len(vec_raw[1]) != J.dim:
        elem = _coerce_element(J.D, vec_raw, line)
        vec = J.embed(elem, 0)
    else:
        vec = tuple(coerce_scalar(J.field, v, line) for v in vec_raw[1])
    return maps_mod.u_similarity(J, vec)


def _build_certify(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    m_raw = _need(kwargs, "matrix", line)
    rows = []
    for row in m_raw[1]:
        rows.append([coerce_scalar(J.field, v, line) for v in row[1]])
    return maps_mod.certify(J, rows)


def _build_chi(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    a = _first_tits_elem(J, kwargs, "a", line)
    middle = kwargs.get("middle", "element-scaled")
    if isinstance(middle, tuple):
        raise ScenarioParseError("middle must be a bare name", line)
    return rpaths_mod.chi_map(J, a, middle)


def _build_conj_path(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    return rpaths_mod.conj_path(J, _first_tits_elem(J, kwargs, "a", line))


def _build_sl1_path(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    return rpaths_mod.sl1_path_split(J, _first_tits_elem(J, kwargs, "d", line))


def _build_str_path(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    return rpaths_mod.str_path(
        J,
        _first_tits_elem(J, kwargs, "a", line),
        _first_tits_elem(J, kwargs, "b", line),
        _first_tits_elem(J, kwargs, "d", line),
    )


def _build_stab_cert(ev, args, kwargs, line):
    J = _jordan_arg(args, line)
    return rpaths_mod.cert_build_stab(
        J,
        _first_tits_elem(J, kwargs, "a", line),
        _first_tits_elem(J, kwargs, "b", line),
    )


_CONSTRUCTORS = {
    "matrix3": _build_matrix3,
    "cubic_etale": _build_cubic_etale,
    "cyclic": _build_cyclic,
    "prodop": _build_prodop,
    "dplus": _build_dplus,
    "first_tits": _build_first_tits,
    "second_tits": _build_second_tits,
    "aut_conj_I": _build_aut_conj_I,
    "aut_J_A": _build_aut_J_A,
    "aut_J_B": _build_aut_J_B,
    "aut_ext_D": _build_aut_ext_D,
    "str_ext_D": _build_str_ext_D,
    "aut_ext_second": _build_aut_ext_second,
    "aut_stab_second": _build_aut_stab_second,
    "str_ext_second": _build_str_ext_second,
    "u_similarity": _build_u_similarity,
    "certify": _build_certify,
    "chi": _build_chi,
    "conj_path": _build_conj_path,
    "sl1_path": _build_sl1_path,
    "str_path": _build_str_path,
    "build_stab_cert": _build_stab_cert,
}


def evaluate_descriptor(text):
    """Evaluate a self-contained constructor expression (certificate headers)."""
    ev = Evaluator()
    return ev.eval(parse_expression(text), None)


# ---------------------------------------------------------------------------
# suites


def run_suite(name, ev, ast, line, report, seed_override=None, samples_override=None):
    args = [ev.eval(a, line) for a in ast[2]]
    kwargs = {k: ev.eval(v, line) for k, v in ast[3].items()}
    if samples_override is not None:
        kwargs["samples"] = Fraction(samples_override)
    prefix = f"L{line}:{name}"

    def seed_of():
        seed = seed_override if seed_override is not None else kwargs.get("seed")
        if seed is None:
            raise ConstraintError(
                f"suite {name!r} samples randomly and needs seed=... (line {line})"
            )
        return _as_int(Fraction(seed), "seed", line)

    if name == "axioms":
        J = _jordan_arg(args, line)
        samples = _as_int(kwargs.get("samples", Fraction(25)), "samples", line)
        report.extend(J.axiom_suite(sample_count=samples, seed=seed_of()), prefix)
        return

    if name == "fundamental":
        J = _jordan_arg(args, line)
        pairs = _as_int(kwargs.get("pairs", Fraction(25)), "pairs", line)
        rng = random.Random(seed_of())
        failures = 0
        for _ in range(pairs):
            x = J.sample_vec(rng, 3)
            y = J.sample_vec(rng, 3)
            ux, uy = J.u_matrix(x), J.u_matrix(y)
            uxy = J.u_matrix(J.u_op(x, y))
            if not linalg.mat_eq(uxy, linalg.mat_mul(ux, linalg.mat_mul(uy, ux))):
                failures += 1
        report.record(f"{prefix}:u-composition", failures == 0,
                      f"{pairs} pairs, {failures} failures")
        return

    if name == "degree_identities":
        J = _jordan_arg(args, line)
        ring, X = J.generic_vectors(1)
        lhs = J.norm_program(ring, J.sharp_program(ring, X))
        nx = J.norm_program(ring, X)
        report.record(f"{prefix}:norm-of-adjoint", lhs == nx * nx)
        ring2, X2, Y2 = J.generic_vectors(2)
        u = J.u_op(X2, Y2, S=ring2)
        lhs2 = J.norm_program(ring2, u)
        nx2 = J.norm_program(ring2, X2)
        ny2 = J.norm_program(ring2, Y2)
        report.record(f"{prefix}:norm-of-u-operator", lhs2 == nx2 * nx2 * ny2)
        return

    if name == "trace_oracle":
        target = args[0]
        if isinstance(target, CubicJordan):
            if not isinstance(target, DPlus):
                raise ConstraintError("trace oracle runs on a degree-3 carrier")
            Jp, alg = target, target.algebra
        else:
            alg = target
            Jp = DPlus(alg)
        samples = _as_int(kwargs.get("samples", Fraction(50)), "samples", line)
        rng = random.Random(seed_of())
        failures = 0
        for _ in range(samples):
            x = Jp.sample_vec(rng, 4)
            y = Jp.sample_vec(rng, 4)
            if Jp.trace_bilinear(x, y) != alg.trace_pairing(alg.base_ring, x, y):
                failures += 1
        report.record(f"{prefix}:derived-trace-matches-pairing", failures == 0,
                      f"{samples} pairs, {failures} failures")
        return

    if name == "verify_map":
        fmap = args[0]
        if not isinstance(fmap, maps_mod.SimilarityMap):
            raise ConstraintError("verify_map needs a similarity map")
        fresh = maps_mod.certify_between(fmap.target, fmap.parent, fmap.matrix)
        report.record(f"{prefix}:certified", True,
                      f"multiplier {fmap.parent.field.format(fresh.multiplier)}")
        kind = "automorphism" if fresh.is_automorphism else "similarity"
        report.record(f"{prefix}:kind", True, kind)
        return

    if name == "jmap_choice":
        J = _jordan_arg(args, line)
        c = _first_tits_elem(J, kwargs, "c", line)
        outcome = maps_mod.jmap_disambiguation(J, c)
        survivors = [v for v in ("A", "B")
                     if not isinstance(outcome[v], str) and outcome[v].is_automorphism]
        report.record(
            f"{prefix}:exactly-one-variant",
            len(survivors) == 1,
            f"surviving variant: {','.join(survivors) or 'none'}",
        )
        for v in ("A", "B"):
            detail = outcome[v] if isinstance(outcome[v], str) else "automorphism"
            report.record(f"{prefix}:variant-{v}", True, detail)
        return

    if name == "chi_suite":
        J = _jordan_arg(args, line)
        a = _first_tits_elem(J, kwargs, "a", line)
        trials = _as_int(kwargs.get("trials", Fraction(10)), "trials", line)
        res = rpaths_mod.chi_unit_check(J, a)
        hits = [choice for choice, (_, ok) in res.items() if ok]
        report.record(f"{prefix}:one-middle-operand-works", hits == ["element-scaled"],
                      f"unit reached by: {','.join(hits) or 'none'}")
        report.record(
            f"{prefix}:variant-discrepancy",
            res["unit-scaled"][1] != res["element-scaled"][1],
            "unit-scaled sends (a,0,0) to (N(a)^{-1}a,0,0); "
            "element-scaled sends it to the base point",
        )
        rng = random.Random(seed_of())
        failures = 0
        for _ in range(trials):
            cand = J.D.sample_invertible(rng, 4)
            if not rpaths_mod.chi_unit_check(J, cand)["element-scaled"][1]:
                failures += 1
        report.record(f"{prefix}:element-scaled-on-samples", failures == 0,
                      f"{trials} elements, {failures} failures")
        return

    if name == "check_path":
        path = args[0]
        if not isinstance(path, rpaths_mod.RPath):
            raise ConstraintError("check_path needs a path")
        fresh = rpaths_mod.path_certify(path.parent, path.matrix)
        report.record(f"{prefix}:generic-fiber", True)
        report.record(f"{prefix}:multiplier-one-identically",
                      fresh.is_automorphism_family(),
                      "" if fresh.is_automorphism_family() else "similarity family")
        report.record(f"{prefix}:ends-at-identity", fresh.end.is_identity())
        return

    if name == "check_cert":
        cert = args[0]
        if not isinstance(cert, rpaths_mod.RCertificate):
            raise ConstraintError("check_cert needs a certificate")
        report.extend(rpaths_mod.cert_check(cert), prefix)
        return

    if name == "split_identity":
        D = args[0]
        mu = _need(kwargs, "mu", line)
        if not (isinstance(mu, tuple) and mu[0] == "pair"):
            raise ScenarioParseError("mu must be a component pair (a;b)", line)
        fmap = split_identify(D, (mu[1], mu[2]))
        report.record(f"{prefix}:identification-certified", True,
                      f"lambda {D.base_ring.format(fmap.target.lam)}")
        report.record(f"{prefix}:multiplier-one",
                      fmap.multiplier == D.base_ring.one())
        img = fmap.apply(fmap.parent.unit)
        report.record(f"{prefix}:unit-preserved", tuple(img) == tuple(fmap.target.unit))
        return

    raise ScenarioParseError(f"unknown suite {name!r}", line)


def execute(scenario, seed_override=None, samples_override=None):
    """Run every directive in order; returns (Report, environment)."""
    ev = Evaluator()
    report = Report()
    for d in scenario.directives:
        if d.kind == "let":
            ev.env[d.name] = ev.eval(d.ast, d.line)
        else:
            run_suite(d.name, ev, d.ast, d.line, report, seed_override, samples_override)
    return report, ev.env

"""Scenario files: declarations plus verification directives.

Line oriented:

    # comment
    F = Q
    D = matrix3(F)
    J = first_tits(D, lambda=2)
    M = aut_ext_D(J, g=[[1,0,0],[0,2,0],[0,0,3]], h=[[6,0,0],[0,1,0],[0,0,1]])
    run axioms(J, samples=25, seed=1)
    run verify_map(M)

Every constructor and suite is one row of a signature table (``CONSTRUCTORS``,
``SUITES``): its callable and its parameters, each with a kind and maybe a
default.  :func:`parse_scenario` reads the table before any computation:
unknown names and keywords, wrong arity, missing arguments and literals of the
wrong shape are parse errors (exit 2); a literal zero ``lambda`` or ``b`` is a
validation error (exit 4).  At evaluation one binder checks each argument's
kind (a wrong kind is a parse error too) and coerces literals into the ring or
algebra of the row's first argument.  Names are declared once, before use;
directives run in file order; sampled suites need a seed (or --seed), and the
same scenario and seed give a byte-identical machine report.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .errors import ConstraintError, ScenarioParseError, UnresolvedReference
from .scalars import QuadraticExtension, Ring
from .upoly import RationalFunctionField
from .deg3 import (
    ConjugateTranspose,
    CubicEtale,
    Cyclic,
    Deg3Algebra,
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
    subexpressions,
)
from . import linalg


Directive = namedtuple("Directive", "kind line name ast")


Scenario = namedtuple("Scenario", "directives")


def parse_scenario(text):
    """Parse and statically validate a scenario against the signature table.
    No computation happens here."""
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
            d = Directive("run", line_no, ast[1], ast)
        elif "=" in line:
            name, expr = line.split("=", 1)
            name = name.strip()
            if not name.isidentifier():
                raise ScenarioParseError(f"bad declaration name {name!r}", line_no)
            if name in declared:
                raise ScenarioParseError(f"{name!r} is already declared", line_no)
            d = Directive("let", line_no, name, parse_expression(expr.strip(), line_no))
        else:
            raise ScenarioParseError("expected a declaration or a run directive", line_no)
        _check(d.ast, d.line, SUITES if d.kind == "run" else CONSTRUCTORS)
        for ref in free_names(d.ast):
            if ref not in declared and not is_builtin_name(ref):
                raise UnresolvedReference(f"undefined name {ref!r} (line {d.line})")
        directives.append(d)
        if d.kind == "let":
            declared.add(d.name)
    return Scenario(directives)


# ---------------------------------------------------------------------------
# the signature table

#: ``shapes``: the argument forms the static pass admits, literal nodes
#: ("scalar", "list", "pair") or "value" for anything computed; bare names are
#: checked once evaluated.  ``coerce(value, owner)`` checks an evaluated
#: argument and converts literals into the ring or algebra of ``owner``, the
#: row's first argument.
Kind = namedtuple("Kind", "what shapes coerce")


def _is(what, classes, test=lambda value: True):
    """The kind of computed values that are instances of ``classes``."""
    def coerce(value, owner):
        if not (isinstance(value, classes) and test(value)):
            raise ScenarioParseError(f"must be {what}")
        return value
    return Kind(what, ("value",), coerce)


def _ring(owner):
    """Scalars of a row's first argument: a ring itself, an algebra's base
    ring, or a cubic norm structure's field."""
    if isinstance(owner, CubicJordan):
        return owner.field
    return owner.base_ring if isinstance(owner, Deg3Algebra) else owner


def _parts(value, tag):
    """The parts of an evaluated literal or marker tagged ``tag``."""
    if not (isinstance(value, tuple) and value[0] == tag):
        raise ScenarioParseError(f"must be of kind {tag}")
    return value[1:]


def _items(value):
    return _parts(value, "list")[0]


def _coerce_element(alg, value):
    """Turn a literal list into an element of a degree-3 algebra; a 3x3
    matrix may be given as nested rows."""
    items = _items(value)
    if items and isinstance(items[0], tuple) and items[0][0] == "list":
        if not isinstance(alg, Matrix3) or [len(_items(row)) for row in items] != [3, 3, 3]:
            raise ScenarioParseError("nested rows only describe 3x3 matrices")
        items = [v for row in items for v in row[1]]
    if len(items) != alg.dim:
        raise ScenarioParseError(f"element needs {alg.dim} coordinates, got {len(items)}")
    return alg.element([coerce_scalar(alg.base_ring, v) for v in items])


def _coeffs(value, owner):
    return [coerce_scalar(_ring(owner), c) for c in _items(value)]


def _vector(value, J):
    """Carrier coordinates; on a first construction an element of J.D
    stands for its copy in the first block."""
    if isinstance(J, FirstTits) and len(_items(value)) != J.dim:
        return J.embed(_coerce_element(J.D, value), 0)
    if len(_items(value)) != J.dim:
        raise ScenarioParseError(f"must have {J.dim} coordinates")
    return tuple(_coeffs(value, J))


def _involution(value, B):
    """An involution for the algebra B; a utwist's u is an element of B."""
    name, u = _parts(value, "involution")
    if name == "switch":
        return Switch()
    if name == "conjtrans":
        return ConjugateTranspose()
    inner = Switch() if isinstance(B, ProductWithOpposite) else ConjugateTranspose()
    return UTwist(inner, _coerce_element(B, u))


#: the largest count a suite accepts (``samples``, ``pairs``, ``trials``)
MAX_COUNT = 10**6


def _integer(value, least=None, most=None):
    if not (isinstance(value, Fraction) and value.denominator == 1):
        raise ScenarioParseError("must be an integer")
    if least is not None and value < least:
        raise ConstraintError(f"must be at least {least}", code="bad-count")
    if most is not None and value > most:
        raise ConstraintError(f"must be at most {most}", code="bad-count")
    return int(value)


def _seed(value, owner):
    if value is None:
        raise ConstraintError("the suite samples randomly and needs seed=... or --seed")
    return _integer(value)


def _flag(value, owner):
    if not (isinstance(value, Fraction) and value in (0, 1)):
        raise ScenarioParseError("must be 0 or 1")
    return value == 1


_ALGEBRA = _is("a degree-3 algebra", Deg3Algebra)

KINDS = {
    "ring": _is("a ring of scalars", Ring),
    "field": _is("a field", Ring, lambda ring: ring.is_field),
    "algebra": _ALGEBRA,
    "etale": _is("a cubic etale algebra", CubicEtale),
    "carrier": Kind("a degree-3 algebra or its dplus", ("value",), lambda v, owner:
                    _ALGEBRA.coerce(v.algebra if isinstance(v, DPlus) else v, owner)),
    "first": _is("a first construction", FirstTits),
    "second": _is("a second construction", SecondTits),
    "jordan": _is("a cubic norm structure", CubicJordan),
    "map": _is("a similarity map", maps_mod.SimilarityMap),
    "path": _is("a path", rpaths_mod.RPath),
    "cert": _is("a certificate", rpaths_mod.RCertificate),
    "involution": Kind("an involution", ("value",), _involution),
    "elem": Kind("an element", ("list",), lambda v, alg: _coerce_element(alg, v)),
    "elem_D": Kind("an element of J.D", ("list",), lambda v, J: _coerce_element(J.D, v)),
    "elem_B": Kind("an element of J.B", ("list",), lambda v, J: _coerce_element(J.B, v)),
    "vector": Kind("a carrier vector", ("list",), _vector),
    "matrix": Kind("a list of rows", ("list",),
                   lambda v, J: [_coeffs(row, J) for row in _items(v)]),
    "scalar": Kind("a scalar", ("scalar", "pair"), lambda v, o: coerce_scalar(_ring(o), v)),
    "coeffs": Kind("a coefficient list", ("list",), _coeffs),
    "list": Kind("a list", ("list",), lambda v, owner: ("list", _items(v))),
    "pair": Kind("a pair (a;b)", ("pair",), lambda v, owner:
                 tuple(coerce_scalar(_ring(owner), c) for c in _parts(v, "pair"))),
    "count": Kind("a count", ("scalar",),
                  lambda v, owner: _integer(v, least=1, most=MAX_COUNT)),
    "seed": Kind("an integer seed", ("scalar",), _seed),
    "flag": Kind("0 or 1", ("scalar",), _flag),
}

_REQUIRED = object()
Param = namedtuple("Param", "kind default")


class Sig:
    """One row of the signature table: a callable and its parameters.

    ``spec`` reads like a Python signature, ``name: kind [= default]`` per
    parameter and keyword-only ones after ``*``; a seed is optional, as --seed
    may supply it.  A literal zero for a parameter in ``nonzero`` fails at
    parse time with the error code given there."""

    def __init__(self, fn, spec, nonzero=None):
        self.fn, self.spec, self.nonzero = fn, spec, nonzero or {}
        self.params = {}
        self.positional = spec.partition("*")[0].count(":")
        for item in spec.replace("*, ", "").split(", "):
            head, _, default = item.partition(" = ")
            name, kind = head.split(": ")
            if default:
                default = Fraction(default)
            else:
                default = None if kind == "seed" else _REQUIRED
            self.params[name] = Param(KINDS[kind], default)


def _late(module, name, *extra):
    """Call ``module.name`` looked up at call time, so a wrapper installed on
    the module after import (by a profiler, say) is the one that runs."""
    return lambda *args: getattr(module, name)(*args, *extra)


def _second_tits(B, sigma, u, mu, division):
    B = B.attach_involution(sigma)
    return SecondTits(B, B.element(u.coords), mu, division)


CONSTRUCTORS = {
    "matrix3": Sig(Matrix3, "ring: ring"),
    "cubic_etale": Sig(CubicEtale, "field: field, *, f: coeffs"),
    "cyclic": Sig(Cyclic, "L: etale, *, rho: elem, b: scalar, division: flag = 0",
                  nonzero={"b": "zero-parameter"}),
    "prodop": Sig(ProductWithOpposite, "D: algebra"),
    "dplus": Sig(DPlus, "D: algebra"),
    "first_tits": Sig(FirstTits, "D: algebra, lambda: scalar, *, division: flag = 0",
                      nonzero={"lambda": "zero-lambda"}),
    "utwist": Sig(lambda u: ("involution", "utwist", u), "*, u: list"),
    "second_tits": Sig(_second_tits, "B: algebra, sigma: involution, *, u: elem, "
                       "mu: scalar, division: flag = 0"),
    "aut_conj_I": Sig(_late(maps_mod, "aut_conj_I"), "J: first, *, d: elem_D"),
    "aut_J_A": Sig(_late(maps_mod, "aut_J", "A"), "J: first, *, c: elem_D"),
    "aut_J_B": Sig(_late(maps_mod, "aut_J", "B"), "J: first, *, c: elem_D"),
    "aut_ext_D": Sig(_late(maps_mod, "aut_ext_D"), "J: first, *, g: elem_D, h: elem_D"),
    "str_ext_D": Sig(_late(maps_mod, "str_ext_D"),
                     "J: first, *, gamma: scalar, a: elem_D, b: elem_D, c: elem_D"),
    "aut_ext_second": Sig(_late(maps_mod, "aut_ext_second"),
                          "J: second, *, g: elem_B, q: elem_B"),
    "aut_stab_second": Sig(_late(maps_mod, "aut_stab_second"),
                           "J: second, *, p: elem_B, q: elem_B"),
    "str_ext_second": Sig(_late(maps_mod, "str_ext_second"),
                          "J: second, *, gamma: scalar, g: elem_B, q: elem_B"),
    "u_similarity": Sig(_late(maps_mod, "u_similarity"), "J: jordan, *, a: vector"),
    "certify": Sig(_late(maps_mod, "certify"), "J: jordan, *, matrix: matrix"),
    "chi": Sig(_late(rpaths_mod, "chi_map"), "J: first, *, a: elem_D"),
    "conj_path": Sig(_late(rpaths_mod, "conj_path"), "J: first, *, a: elem_D"),
    "sl1_path": Sig(_late(rpaths_mod, "sl1_path_split"), "J: first, *, d: elem_D"),
    "str_path": Sig(_late(rpaths_mod, "str_path"),
                    "J: first, *, a: elem_D, b: elem_D, d: elem_D"),
    "build_stab_cert": Sig(_late(rpaths_mod, "cert_build_stab"),
                           "J: first, *, a: elem_D, b: elem_D"),
}


def _row(table, name, line):
    if name not in table:
        what = "suite" if table is SUITES else "constructor"
        raise ScenarioParseError(f"unknown {what} {name!r}", line)
    return table[name]


def _match(sig, name, args, kwargs, line):
    """The argument AST given for each parameter, by parameter name."""
    if len(args) > sig.positional:
        raise ScenarioParseError(f"{name} takes {sig.positional} positional argument(s)", line)
    given = dict(zip(sig.params, args))
    for key, arg in kwargs.items():
        if key not in sig.params:
            raise ScenarioParseError(f"{name} has no argument {key!r}", line)
        if key in given:
            raise ScenarioParseError(f"{name} got argument {key!r} twice", line)
        given[key] = arg
    for key, param in sig.params.items():
        if key not in given and param.default is _REQUIRED:
            raise ScenarioParseError(f"{name} is missing argument {key!r}", line)
    return given


def _check(ast, line, table):
    """Static pass over one expression: calls against ``table`` (nested ones
    against CONSTRUCTORS), literal shapes, literal zeros where forbidden."""
    if ast[0] == "call":
        name = ast[1]
        sig = _row(table, name, line)
        for key, arg in _match(sig, name, ast[2], ast[3], line).items():
            kind = sig.params[key].kind
            shape = arg[0] if arg[0] in ("scalar", "list", "pair") else "value"
            if arg[0] != "name" and shape not in kind.shapes:
                raise ScenarioParseError(f"argument {key!r} of {name}: must be {kind.what}", line)
            if key in sig.nonzero and arg == ("scalar", 0):
                raise ConstraintError(f"argument {key!r} of {name} must be nonzero "
                                      f"(line {line})", code=sig.nonzero[key])
    for sub in subexpressions(ast):
        _check(sub, line, CONSTRUCTORS)


def _bind(ev, sig, ast, line, overrides):
    """Evaluate a call's arguments in parameter order, each checked and
    coerced by its kind; ``overrides`` replace arguments by name."""
    _, name, args, kwargs = ast
    given = _match(sig, name, args, kwargs, line)
    values = []
    for key, param in sig.params.items():
        if overrides.get(key) is not None:
            value = Fraction(overrides[key])
        else:
            value = ev.eval(given[key], line) if key in given else param.default
        try:
            values.append(param.kind.coerce(value, values[0] if values else None))
        except ScenarioParseError as exc:
            raise ScenarioParseError(f"argument {key!r} of {name}: {exc}", line) from None
        except ConstraintError as exc:
            raise ConstraintError(f"argument {key!r} of {name}: {exc} (line {line})",
                                  code=exc.code) from None
    return values


# ---------------------------------------------------------------------------
# evaluation


class Evaluator:
    def __init__(self):
        self.env = {}

    def lookup(self, name, line):
        if name in self.env:
            return self.env[name]
        if is_builtin_name(name):
            return eval_atom(name, line)
        where = "" if line is None else f" (line {line})"
        raise UnresolvedReference(f"undefined name {name!r}{where}")

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
                if len(coeffs) != 3 or coeffs[2] != base.one() or not base.is_zero(coeffs[1]):
                    raise ScenarioParseError("quadratic extension must be given as s^2 - d", line)
                return QuadraticExtension(base, -coeffs[0])
            return CubicEtale(base, coeffs)
        if kind == "ratfield":
            base = self.eval(ast[1], line)
            return RationalFunctionField(base, ast[2])
        if kind == "call":
            sig = _row(CONSTRUCTORS, ast[1], line)
            return sig.fn(*_bind(self, sig, ast, line, {}))
        raise ScenarioParseError(f"cannot evaluate node {kind!r}", line)


def evaluate_descriptor(text):
    """Evaluate a self-contained constructor expression (certificate headers)."""
    ast = parse_expression(text)
    _check(ast, None, CONSTRUCTORS)
    return Evaluator().eval(ast, None)


# ---------------------------------------------------------------------------
# suites: each takes the report, the line prefix, then its bound arguments


def _axioms(report, prefix, J, samples, seed):
    report.extend(J.axiom_suite(sample_count=samples, seed=seed), prefix)


def _fundamental(report, prefix, J, pairs, seed):
    rng = random.Random(seed)
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


def _degree_identities(report, prefix, J):
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


def _trace_oracle(report, prefix, alg, samples, seed):
    Jp = DPlus(alg)
    rng = random.Random(seed)
    failures = 0
    for _ in range(samples):
        x = Jp.sample_vec(rng, 4)
        y = Jp.sample_vec(rng, 4)
        if Jp.trace_pair(x, y) != alg.trace_pairing(alg.base_ring, x, y):
            failures += 1
    report.record(f"{prefix}:derived-trace-matches-pairing", failures == 0,
                  f"{samples} pairs, {failures} failures")


def _verify_map(report, prefix, fmap):
    fresh = maps_mod.certify_between(fmap.target, fmap.parent, fmap.matrix)
    report.record(f"{prefix}:certified", True,
                  f"multiplier {fmap.parent.field.format(fresh.multiplier)}")
    kind = "automorphism" if fresh.is_automorphism else "similarity"
    report.record(f"{prefix}:kind", True, kind)


def _jmap_choice(report, prefix, J, c):
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


def _chi_suite(report, prefix, J, a, trials, seed):
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
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        cand = J.D.sample_invertible(rng, 4)
        if not rpaths_mod.chi_check(J, cand)[1]:
            failures += 1
    report.record(f"{prefix}:element-scaled-on-samples", failures == 0,
                  f"{trials} elements, {failures} failures")


def _check_path(report, prefix, path):
    fresh = rpaths_mod.path_certify(path.parent, path.matrix)
    report.record(f"{prefix}:generic-fiber", True)
    report.record(f"{prefix}:multiplier-one-identically",
                  fresh.is_automorphism_family(),
                  "" if fresh.is_automorphism_family() else "similarity family")
    report.record(f"{prefix}:ends-at-identity", fresh.end.is_identity())


def _check_cert(report, prefix, cert):
    report.extend(rpaths_mod.cert_check(cert), prefix)


def _split_identity(report, prefix, D, mu):
    fmap = split_identify(D, mu)
    report.record(f"{prefix}:identification-certified", True,
                  f"lambda {D.base_ring.format(fmap.target.lam)}")
    # both decided by certify: an automorphism has multiplier 1 and fixes the unit
    report.record(f"{prefix}:multiplier-one", fmap.multiplier == D.base_ring.one())
    report.record(f"{prefix}:unit-preserved", fmap.is_automorphism)


SUITES = {
    "axioms": Sig(_axioms, "J: jordan, *, samples: count = 25, seed: seed"),
    "fundamental": Sig(_fundamental, "J: jordan, *, pairs: count = 25, seed: seed"),
    "degree_identities": Sig(_degree_identities, "J: jordan"),
    "trace_oracle": Sig(_trace_oracle, "D: carrier, *, samples: count = 50, seed: seed"),
    "verify_map": Sig(_verify_map, "M: map"),
    "jmap_choice": Sig(_jmap_choice, "J: first, *, c: elem_D"),
    "chi_suite": Sig(_chi_suite, "J: first, *, a: elem_D, trials: count = 10, seed: seed"),
    "check_path": Sig(_check_path, "P: path"),
    "check_cert": Sig(_check_cert, "C: cert"),
    "split_identity": Sig(_split_identity, "D: algebra, *, mu: pair"),
}


def run_suite(name, ev, ast, line, report, seed_override=None, samples_override=None):
    sig = _row(SUITES, name, line)
    overrides = {"seed": seed_override, "samples": samples_override}
    sig.fn(report, f"L{line}:{name}", *_bind(ev, sig, ast, line, overrides))


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

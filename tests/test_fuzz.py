"""Property tests of the CLI on malformed input.

Declaration-only scenarios built from the structure constructors and literal
atoms never make the CLI raise; they pass (0) or exit with a documented error
status.  A certificate with one token replaced by a malformed literal exits
with the parse-error status 2; one with a target or path entry replaced by a
valid literal of another value at t = 0 fails its check with status 1, and
one with a path entry of t-degree above 255 is refused with status 2 before
any gcd is taken.  Byte-level copies of the golden certificate and of the
scenario files, with bytes flipped, inserted, deleted or cut off, exit with a
documented status and never raise, and status 1 comes with a FAIL line.
"""

import io
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from albert.cli import main
from albert.scenario import SUITES

CONSTRUCTORS = ["matrix3", "cubic_etale", "cyclic", "prodop", "dplus",
                "first_tits", "second_tits", "utwist"]
KEYWORDS = ["lambda", "rho", "b", "f", "u", "mu", "division", "bogus"]

SCALARS = st.sampled_from(["0", "1", "-1", "2", "3", "1/2", "-3/2"])
LISTS = st.lists(SCALARS, max_size=10).map(lambda xs: "[" + ",".join(xs) + "]")
LITERALS = st.one_of(
    SCALARS,
    st.tuples(SCALARS, SCALARS).map(lambda p: f"({p[0]};{p[1]})"),
    LISTS,
    st.lists(LISTS, min_size=1, max_size=4).map(lambda rows: "[" + ",".join(rows) + "]"),
)
ATOMS = st.sampled_from([
    "Q", "F2", "F3", "F7", "F4", "Q(t)", "F5(t)", "switch", "conjtrans",
    "Q[s]/(s^2-(-1))", "F7[s]/(s^2-(3))", "Q[s]/(s^2-(1))", "F2[s]/(s^2-(1))",
    "Q[x]/(x^3-3*x-1)", "Q[x]/(x^3-x)", "F5[x]/(x^3-2)", "Q[x]/(x^3)",
    "Q[x]/(x^3-x)(t)", "Q[s]/(s^2-(-1))(t)",
])


@st.composite
def scenarios(draw):
    names, lines = [], []
    for i in range(draw(st.integers(1, 4))):
        arg = st.one_of(ATOMS, LITERALS, *([st.sampled_from(names)] if names else []))
        if draw(st.booleans()):
            args = draw(st.lists(arg, max_size=3))
            kwargs = draw(st.dictionaries(st.sampled_from(KEYWORDS), arg, max_size=3))
            parts = args + [f"{k}={v}" for k, v in kwargs.items()]
            expr = f"{draw(st.sampled_from(CONSTRUCTORS))}({', '.join(parts)})"
        else:
            expr = draw(arg)
        names.append(f"X{i}")
        lines.append(f"X{i} = {expr}")
    return "\n".join(lines) + "\n"


@settings(max_examples=500, deadline=None)
@given(text=scenarios())
def test_declarations_exit_with_documented_status(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "s.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["check-axioms", str(path)]) in (0, 2, 3, 4)


GOLDEN_CERT = (Path(__file__).resolve().parent / "golden" / "certificate.cert").read_text(
    encoding="utf-8").splitlines()
CERT_TOKENS = [(i, j) for i, line in enumerate(GOLDEN_CERT) for j in range(len(line.split()))]
MALFORMED = ["x", "1/0", "1//2", "--1", "(1;2)", "|", "1|", "1|0", "0|0", "1|1|1",
             "1,,2|1", "1|x", "matrix3(K)"]


@settings(max_examples=80, deadline=None)
@given(position=st.sampled_from(CERT_TOKENS), literal=st.sampled_from(MALFORMED))
def test_malformed_certificate_token_exits_parse_error(tmp_path_factory, position, literal):
    i, j = position
    lines = list(GOLDEN_CERT)
    tokens = lines[i].split()
    tokens[j] = literal
    lines[i] = " ".join(tokens)
    path = tmp_path_factory.mktemp("cert") / "c.cert"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["check-cert", str(path)]) == 2


def _entry_positions(first, last):
    return [(i, j) for i in range(first, last) for j in range(len(GOLDEN_CERT[i].split()))]


_MARKERS = [i for i, line in enumerate(GOLDEN_CERT) if line in ("target", "path", "end")]
TARGET_ENTRIES = _entry_positions(_MARKERS[0] + 1, _MARKERS[1])
PATH_ENTRIES = [pos for a, b in zip(_MARKERS[1:], _MARKERS[2:])
                for pos in _entry_positions(a + 1, b)]
Q_LITERALS = ["0", "1", "-1", "2", "1/2", "-3/2", "5"]
# num|den coefficient lists in t, all regular at t = 0; 1|-1,1 has a pole at 1
KT_LITERALS = Q_LITERALS + ["1,1", "-1|1,1", "2|3,-1", "1,0,1|2", "3|1,0,1",
                            "0,1|1,1", "1|-1,1"]


def value_at_zero(literal):
    num, _, den = literal.partition("|")
    return Fraction(num.split(",")[0]) / Fraction((den or "1").split(",")[0])


@settings(max_examples=40, deadline=None)
@given(mutation=st.one_of(
    st.tuples(st.sampled_from(TARGET_ENTRIES), st.sampled_from(Q_LITERALS)),
    st.tuples(st.sampled_from(PATH_ENTRIES), st.sampled_from(KT_LITERALS)),
))
def test_semantic_certificate_mutation_fails_check(tmp_path_factory, mutation):
    (i, j), literal = mutation
    lines = list(GOLDEN_CERT)
    tokens = lines[i].split()
    assume(value_at_zero(literal) != value_at_zero(tokens[j]))
    tokens[j] = literal
    lines[i] = " ".join(tokens)
    path = tmp_path_factory.mktemp("cert") / "c.cert"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["check-cert", str(path), "--format", "machine"]) == 1
    assert out.getvalue().endswith("RESULT FAIL\n")


# num|den sides of t-degree 256 to 5000: a sparse or a dense coefficient list
HIGH_DEGREE_SIDES = st.builds(
    lambda degree, dense: ",".join(["1" if dense or i in (0, degree) else "0"
                                    for i in range(degree + 1)]),
    st.integers(256, 5000), st.booleans())
HIGH_DEGREE_ENTRIES = st.one_of(
    HIGH_DEGREE_SIDES,
    HIGH_DEGREE_SIDES.map(lambda side: f"{side}|1,1"),
    HIGH_DEGREE_SIDES.map(lambda side: f"1,1|{side}"),
    st.tuples(HIGH_DEGREE_SIDES, HIGH_DEGREE_SIDES).map("|".join),
)


@settings(max_examples=15, deadline=None)
@given(position=st.sampled_from(PATH_ENTRIES), literal=HIGH_DEGREE_ENTRIES)
def test_high_degree_path_entry_exits_parse_error(tmp_path_factory, position, literal):
    i, j = position
    lines = list(GOLDEN_CERT)
    tokens = lines[i].split()
    tokens[j] = literal
    lines[i] = " ".join(tokens)
    path = tmp_path_factory.mktemp("cert") / "c.cert"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = io.StringIO()
    start = time.perf_counter()
    with redirect_stderr(err):
        assert main(["check-cert", str(path)]) == 2
    assert time.perf_counter() - start < 2
    assert "exceeds the limit 255" in err.getvalue()


# ---- run directives on 9-dimensional structures ------------------------------

LONG = "1" * 5000  # beyond the interpreter's 4300-digit integer-string limit
OVERSIZED = [f"X = first_tits(E, lambda={LONG})", f"X = matrix3(F{LONG})",
             "X = matrix3(F170141183460469231731687303715884105727)",
             "X = Q[x]/(x^3000000000-1)", "X = Q[s]/(s^3000000000-(-1))",
             f"X = cubic_etale(Q, f=[{LONG},0,0,1])", f"run axioms(P, samples=1, seed={LONG})"]
SMALL = st.sampled_from(["0", "1", "-1", "2", "1/2"])
VEC3 = st.lists(SMALL, min_size=3, max_size=3).map(lambda xs: "[" + ",".join(xs) + "]")
COUNT = st.sampled_from(["0", "1", "2"])
# arguments by the kind a SUITES parameter takes; names are declared below
ARGUMENTS = {
    "a cubic norm structure": st.sampled_from(["J", "P"]),
    "a first construction": st.just("J"),
    "a degree-3 algebra or its dplus": st.sampled_from(["P", "E"]),
    "a degree-3 algebra": st.just("E"),
    "a similarity map": st.just("M"),
    "a path": st.just("W"),
    "a certificate": st.just("M"),  # certificates need split coordinates, not 9 dims
    "an element of J.D": st.one_of(st.just("[1,0,0]"), VEC3),
    "a pair (a;b)": st.sampled_from(["(1;1)", "(2;1/2)", "(1;0)"]),
    "a count": COUNT,
    "an integer seed": st.sampled_from(["1", "2"]),
}


@st.composite
def run_scenarios(draw):
    """9-dimensional structures J = J(E, lambda) and P = dplus(matrix3(k)), a
    map and a path on J, then up to three ``run`` directives drawn from
    ``scenario.SUITES`` with counts of at most 2; one argument in ten is
    the wrong name, and one scenario in four also has a line with an
    over-long number, a modulus beyond 2^64 or a large exponent."""
    etale = ["Q[x]/(x^3-3*x-1)", "Q[x]/(x^3-x)", "F5[x]/(x^3-2)", "F7[x]/(x^3-3)"]
    fields = ["Q", "F2", "F3", "F2305843009213693951"]
    lines = [
        f"E = {draw(st.sampled_from(etale))}",
        f"J = first_tits(E, lambda={draw(st.sampled_from(['1', '2', '-3']))})",
        f"P = dplus(matrix3({draw(st.sampled_from(fields))}))",
        "M = aut_J_A(J, c=[1,0,0])",
        f"W = conj_path(J, a={draw(st.sampled_from(['[1,0,0]', '[2,1,0]', '[1,0,1]']))})",
    ]
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(SUITES)))
        parts = []
        for i, (key, param) in enumerate(SUITES[name].params.items()):
            if i >= SUITES[name].positional and not draw(st.integers(0, 3)):
                continue  # leave out a keyword: a default, or a missing argument
            value = draw(ARGUMENTS[param.kind.what])
            if not draw(st.integers(0, 9)):
                value = draw(st.sampled_from(["J", "P", "E", "M", "W", "Q", "[1,2]"]))
            parts.append(value if i < SUITES[name].positional else f"{key}={value}")
        lines.append(f"run {name}({', '.join(parts)})")
    if not draw(st.integers(0, 3)):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(OVERSIZED)))
    return "\n".join(lines) + "\n"


@settings(max_examples=30, deadline=None)
@given(text=run_scenarios())
def test_run_directives_exit_with_documented_status(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("runs") / "s.txt"
    path.write_text(text, encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert main(["check-axioms", str(path)]) in (0, 1, 2, 3, 4, 5)


ROOT = Path(__file__).resolve().parent.parent
BYTE_SOURCES = {
    path.relative_to(ROOT).as_posix(): path.read_bytes()
    for path in [ROOT / "tests" / "golden" / "certificate.cert",
                 *sorted((ROOT / "scenarios").glob("*.txt"))]
}


@st.composite
def byte_mutants(draw):
    """(source name, its bytes after one to three flips, insertions, deletions
    or truncations)."""
    name = draw(st.sampled_from(sorted(BYTE_SOURCES)))
    data = bytearray(BYTE_SOURCES[name])
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["flip", "insert", "delete", "truncate"]))
        if kind == "flip" and at < len(data):
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "insert":
            data[at:at] = bytes([draw(st.integers(0, 255))])
        elif kind == "delete":
            del data[at:at + 1]
        elif kind == "truncate":
            del data[at:]
    return name, bytes(data)


@settings(max_examples=40, deadline=None)
@given(mutant=byte_mutants())
def test_byte_mutants_exit_with_documented_status(tmp_path_factory, mutant):
    name, data = mutant
    path = tmp_path_factory.mktemp("bytes") / Path(name).name
    path.write_bytes(data)
    command = "check-cert" if name.endswith(".cert") else "check-axioms"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main([command, str(path), "--format", "machine", *(
            ["--samples", "1"] if command == "check-axioms" else [])])
    assert status in range(6)
    if status == 1:
        assert re.search(r"^CHECK \S+ FAIL", out.getvalue(), re.M)

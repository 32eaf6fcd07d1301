"""Property tests of the CLI on malformed input.

Declaration-only scenarios built from the structure constructors and literal
atoms never make the CLI raise; they pass (0) or exit with a documented error
status.  A certificate with one token replaced by a malformed literal exits
with the parse-error status 2; one with a target or path entry replaced by a
valid literal of another value at t = 0 fails its check with status 1.
"""

import io
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from albert.cli import main

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

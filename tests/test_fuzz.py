"""Property tests of the CLI on malformed input.

Declaration-only scenarios built from the structure constructors and literal
atoms never make the CLI raise; they pass (0) or exit with a documented error
status.  A certificate with one token replaced by a malformed literal exits
with the parse-error status 2.
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

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

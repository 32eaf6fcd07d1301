import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from albert.cli import main
from albert.scalars import QQ
from albert.scenario import MAX_COUNT
from albert.upoly import RationalFunctionField, poly_gcd

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

AXIOM_SCEN = """
D = matrix3(Q)
J = first_tits(D, lambda=2)
run axioms(J, samples=8, seed=1)
"""

CERT_SCEN = """
D = matrix3(Q)
J = first_tits(D, lambda=2)
C = build_stab_cert(J, a=[[1,0,0],[0,2,0],[0,0,3]], b=[[6,0,0],[0,1,0],[0,0,1]])
run check_cert(C)
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_check_axioms_exit_zero(tmp_path, capsys):
    scen = write(tmp_path, "s.txt", AXIOM_SCEN)
    assert main(["check-axioms", scen, "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("RESULT PASS\n")


def test_parse_error_exit_code(tmp_path, capsys):
    scen = write(tmp_path, "bad.txt", "J = first_tits(matrix3(Q), 2\n")
    assert main(["check-axioms", scen]) == 2


def test_unresolved_exit_code(tmp_path):
    scen = write(tmp_path, "bad.txt", "J = first_tits(D9, 2)\n")
    assert main(["check-axioms", scen]) == 3


def test_validation_exit_code(tmp_path):
    # missing seed without --seed
    scen = write(tmp_path, "s.txt", "D = matrix3(Q)\nJ = first_tits(D, 2)\nrun axioms(J, samples=4)\n")
    assert main(["check-axioms", scen]) == 4
    assert main(["check-axioms", scen, "--seed", "5"]) == 0


def test_redeclared_name_exit_code(tmp_path, capsys):
    # the run must not report the map declared after it under the same name
    text = (
        "D = matrix3(Q)\nJ = first_tits(D, lambda=2)\n"
        "M = aut_ext_D(J, g=[[1,0,0],[0,2,0],[0,0,3]], h=[[6,0,0],[0,1,0],[0,0,1]])\n"
        "run verify_map(M)\n"
        "M = str_ext_D(J, gamma=2, a=[[1,0,0],[0,2,0],[0,0,3]], "
        "b=[[1,0,0],[0,1,0],[0,0,1]], c=[[1,0,0],[0,2,0],[0,0,3]])\n"
    )
    assert main(["check-axioms", write(tmp_path, "s.txt", text)]) == 2
    assert "already declared" in capsys.readouterr().err


def test_io_exit_code():
    assert main(["check-axioms", "/nonexistent/path.txt"]) == 5


def test_undecodable_certificate_exits_parse_error(tmp_path, capsys):
    path = tmp_path / "c.cert"
    path.write_bytes(b"\x00\xff\xfe")
    assert main(["check-cert", str(path)]) == 2
    assert capsys.readouterr().err == (
        "certificate error: not UTF-8: byte 0xff at offset 1 does not decode\n")


def test_undecodable_scenario_exits_parse_error(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_bytes(AXIOM_SCEN.encode() + "# caf\u00e9\n".encode("latin-1"))
    offset = len(AXIOM_SCEN.encode()) + len("# caf")
    for command in (["check-axioms"], ["verify-map"], ["build-cert", "-o", str(tmp_path / "c")]):
        assert main([command[0], str(path), *command[1:]]) == 2
        assert capsys.readouterr().err == (
            f"parse error: not UTF-8: byte 0xe9 at offset {offset} does not decode\n")
    assert not (tmp_path / "c").exists()


def test_build_and_check_cert(tmp_path, capsys):
    scen = write(tmp_path, "c.txt", CERT_SCEN)
    out_path = str(tmp_path / "cert.out")
    assert main(["build-cert", scen, "-o", out_path, "--format", "machine"]) == 0
    assert main(["check-cert", out_path, "--format", "machine"]) == 0
    out = capsys.readouterr().out
    assert "RESULT PASS" in out


def test_check_cert_detects_tampering(tmp_path, capsys):
    scen = write(tmp_path, "c.txt", CERT_SCEN)
    out_path = tmp_path / "cert.out"
    assert main(["build-cert", scen, "-o", str(out_path)]) == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    for i, ln in enumerate(lines):
        if ln == "target":
            row = lines[i + 1].split()
            row[1] = "9"
            lines[i + 1] = " ".join(row)
            break
    bad_path = tmp_path / "cert_bad.out"
    bad_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["check-cert", str(bad_path), "--format", "machine"]) == 1


@pytest.mark.parametrize("field", ["Q(t)", "F7(t)"])
def test_certificate_over_rational_functions_is_refused(tmp_path, capsys, field):
    """A path entry's coefficients over k(t) would be written with the
    ``|`` and ``,`` that separate an entry: the build passes its own check,
    then the write is refused with the limit stated, and no file is left."""
    scen = write(tmp_path, "c.txt", CERT_SCEN.replace("matrix3(Q)", f"matrix3({field})"))
    out_path = tmp_path / "cert.out"
    assert main(["build-cert", scen, "-o", str(out_path)]) == 4
    err = capsys.readouterr().err
    assert "error (limit-exceeded)" in err and "without rational functions" in err
    assert not out_path.exists()


def swapped_paths(text):
    """Certificate text with its two path blocks in the other order."""
    lines = text.splitlines()
    first, second = [i for i, line in enumerate(lines) if line == "path"]
    end = lines.index("end")
    lines[first:end] = lines[second:end] + lines[first:second]
    return "\n".join(lines) + "\n"


SWAPPED_REPORT = """\
CHECK target-certified PASS
CHECK target-automorphism PASS
CHECK path-1-certified PASS
CHECK path-1-multiplier-one PASS
CHECK path-2-certified PASS
CHECK path-2-multiplier-one PASS
CHECK chain-start-matches-target FAIL
CHECK chain-link-1 FAIL
CHECK chain-ends-at-identity FAIL
RESULT FAIL
"""


def test_swapped_paths_fail_every_chain_check(tmp_path, capsys):
    # each path is valid on its own; only the chain checks see the order
    text = swapped_paths((GOLDEN / "certificate.cert").read_text(encoding="utf-8"))
    assert main(["check-cert", write(tmp_path, "s.cert", text), "--format", "machine"]) == 1
    assert capsys.readouterr().out == SWAPPED_REPORT


LONG = "1" * 5000  # beyond the interpreter's 4300-digit integer-string limit
P127 = str(2 ** 127 - 1)


@pytest.mark.parametrize("old, new", [
    ("lambda 2\n", "lambda x\n"),
    ("path\n1|1 ", "path\n1|0 "),
    ("algebra matrix3(Q)\n", "algebra matrix3(K)\n"),
    pytest.param("algebra matrix3(Q)\n", f"algebra matrix3(F{LONG})\n", id="long-modulus"),
    pytest.param("algebra matrix3(Q)\n", f"algebra matrix3(F{P127})\n", id="modulus-2^127"),
    pytest.param("algebra matrix3(Q)\n", "algebra Q[x]/(x^3000000000-1)\n", id="exponent-x"),
])
def test_malformed_certificate_exits_parse_error(tmp_path, capsys, old, new):
    text = (GOLDEN / "certificate.cert").read_text(encoding="utf-8")
    assert old in text
    path = write(tmp_path, "bad.cert", text.replace(old, new, 1))
    assert main(["check-cert", path]) == 2
    assert "certificate error" in capsys.readouterr().err


def _substitute(entry, k):
    """A ``num|den`` path entry with t replaced by t^k."""
    return "|".join(
        ",".join(",".join(["0"] * (k - 1) + [c]) if i else c for i, c in enumerate(side.split(",")))
        for side in entry.split("|"))


def reparametrized(text, k):
    """Certificate text with t -> t^k in every path entry: the endpoints at
    t = 0 and t = 1 do not move, so a valid certificate stays valid."""
    lines = text.splitlines()
    first = lines.index("path")
    for i in range(first, len(lines)):
        if lines[i] not in ("path", "end"):
            lines[i] = " ".join(_substitute(e, k) for e in lines[i].split())
    return "\n".join(lines) + "\n"


def with_first_entry(text, entry):
    """Certificate text with the first entry of the first path replaced."""
    lines = text.splitlines()
    i = lines.index("path") + 1
    lines[i] = " ".join([entry] + lines[i].split()[1:])
    return "\n".join(lines) + "\n"


def shifted_entry(text, path, row, by):
    """Certificate text with the first entry of ``row`` of path ``path``
    (both 1-based) shifted by the constant ``by``."""
    lines = text.splitlines()
    i = [j for j, line in enumerate(lines) if line == "path"][path - 1] + row
    tokens = lines[i].split()
    sides = [[F(c) for c in side.split(",")] for side in tokens[0].split("|")]
    width = max(map(len, sides))
    num, den = (side + [F(0)] * (width - len(side)) for side in sides)
    shifted = ",".join(str(n + by * d) for n, d in zip(num, den))
    tokens[0] = shifted + "|" + tokens[0].split("|")[1]
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k", [1, 12])
def test_reparametrized_certificate_passes(tmp_path, capsys, k):
    text = reparametrized((GOLDEN / "certificate.cert").read_text(encoding="utf-8"), k)
    assert main(["check-cert", write(tmp_path, "c.cert", text), "--format", "machine"]) == 0
    for tampered in (with_first_entry(text, "2|1"), shifted_entry(text, 2, 13, -2)):
        assert main(["check-cert", write(tmp_path, "t.cert", tampered), "--format", "machine"]) == 1
        assert "FAIL" in capsys.readouterr().out


def test_packing_limit_is_refused_not_failed(tmp_path, capsys):
    """At t -> t^13 the norm over k[t, X] passes the 8-bit exponent packing:
    the certificate is still valid, so the limit is stated (exit 4) and no
    check is reported as failed."""
    text = reparametrized((GOLDEN / "certificate.cert").read_text(encoding="utf-8"), 13)
    assert main(["check-cert", write(tmp_path, "c.cert", text), "--format", "machine"]) == 4
    out, err = capsys.readouterr()
    assert "FAIL" not in out
    assert "error (limit-exceeded)" in err and "exceeds packing limit 255" in err


def dense_entry(degree):
    """A ``num|den`` pair of dense coprime polynomials of t-degree
    ``degree`` with nonzero coefficients in [-9, 9], seeded by the degree."""
    rng = random.Random(degree)
    sides = [[str(rng.choice((1, -1)) * rng.randint(1, 9)) for _ in range(degree + 1)]
             for _ in range(2)]
    return "|".join(",".join(side) for side in sides)


@pytest.mark.parametrize("degree", [128, 255])
def test_dense_entry_is_reduced_then_refused(tmp_path, capsys, degree):
    """A dense coprime entry is reduced by the primitive remainder sequence
    in well under a second (Euclid on fractions took over a minute at
    degree 128), and its path then passes the packing limit: exit 4, well
    within 20 s."""
    Rt = RationalFunctionField(QQ, "t")
    num, den = Rt.parse_pair(dense_entry(degree))
    assert poly_gcd(num, den).degree == 0
    text = with_first_entry((GOLDEN / "certificate.cert").read_text(encoding="utf-8"),
                            dense_entry(degree))
    start = time.perf_counter()
    assert main(["check-cert", write(tmp_path, "c.cert", text), "--format", "machine"]) == 4
    assert time.perf_counter() - start < 20
    out, err = capsys.readouterr()
    assert "FAIL" not in out and "exceeds packing limit 255" in err


def test_machine_report_byte_identical(tmp_path, capsys):
    scen = write(tmp_path, "s.txt", AXIOM_SCEN)
    main(["check-axioms", scen, "--format", "machine"])
    first = capsys.readouterr().out
    main(["check-axioms", scen, "--format", "machine"])
    second = capsys.readouterr().out
    assert first == second


# outputs captured from the command line; "{cert}" stands for the -o path
GOLDEN_CASES = {
    "certificate.machine": ["check-axioms", str(ROOT / "scenarios/certificate.txt")],
    "char_p.machine": ["check-axioms", str(ROOT / "scenarios/char_p.txt")],
    "second_construction.machine":
        ["check-axioms", str(ROOT / "scenarios/second_construction.txt")],
    "verify.machine": ["check-axioms", str(ROOT / "scenarios/verify.txt")],
    "build_cert.machine":
        ["build-cert", str(ROOT / "scenarios/certificate.txt"), "-o", "{cert}"],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_CASES))
def test_output_matches_golden(golden, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.txt")
    argv = [cert_path if a == "{cert}" else a for a in GOLDEN_CASES[golden]]
    assert main(argv + ["--format", "machine"]) == 0
    out = capsys.readouterr().out.replace(cert_path, "{cert}")
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
    if "{cert}" in GOLDEN_CASES[golden]:
        assert Path(cert_path).read_bytes() == (GOLDEN / "certificate.cert").read_bytes()


@pytest.mark.parametrize("text", [
    "D = matrix3(Q)\nJ = first_tits(D, lambda=0)\n",
    "L = Q[x]/(x^3-3*x-1)\nC = cyclic(L, rho=[2,0,-1], b=0)\n",
])
def test_zero_parameter_exit_code(tmp_path, text):
    assert main(["check-axioms", write(tmp_path, "s.txt", text)]) == 4


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "albert.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "check-axioms" in proc.stdout


PRELUDE = """D = matrix3(Q)
J = first_tits(D, lambda=2)
E = Q[x]/(x^3-3*x-1)
JE = first_tits(Q[x]/(x^3-x), lambda=5)
"""


def _status(tmp_path, capsys, body):
    status = main(["check-axioms", write(tmp_path, "s.txt", PRELUDE + body + "\n")])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return status, out


# each of these ended in a Python traceback (exit 1) before arguments were
# checked against the signature table
@pytest.mark.parametrize("body", [
    "X = first_tits(Q, lambda=2)",
    "X = cyclic(E, rho=[1], b=2)",
    "run split_identity(Q, mu=(1;1))",
    "X = u_similarity(J, a=3)",
    "run trace_oracle(Q, samples=2, seed=1)",
    "run axioms(J, samples=2, seed=(1;2))",
    "X = prodop(Q)",
    "X = dplus(Q)",
])
def test_former_traceback_exits_parse_error(tmp_path, capsys, body):
    assert _status(tmp_path, capsys, body)[0] == 2


# cut off after a comma, an argument list ended in a traceback; a polynomial
# term that opens with neither a coefficient nor the variable looped forever
@pytest.mark.parametrize("body, message", [
    ("X = aut_ext_D(J,", "empty expression (line 5)"),
    ("X = F2[x]/(^3+x+1)", "unexpected token '^' in polynomial (line 5, col 8)"),
    ("X = Q[x]/(x^3,x)", "unexpected token ',' in polynomial (line 5, col 10)"),
])
def test_byte_mutant_exits_parse_error(tmp_path, capsys, body, message):
    assert main(["check-axioms", write(tmp_path, "s.txt", PRELUDE + body + "\n")]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


# an over-long number ended in a traceback; a modulus beyond 2^64 ran trial
# division without end; an exponent was allocated as a coefficient list
@pytest.mark.parametrize("body, status", [
    (f"X = first_tits(D, lambda={LONG})", 2),
    (f"X = matrix3(F{LONG})", 2),
    (f"X = matrix3(F{P127})", 4),
    (f"X = matrix3(F{2 ** 61 - 1})", 0),
    ("X = Q[s]/(s^3000000000-(-1))", 2),
    ("X = Q[x]/(x^3000000000-1)", 4),
    ("X = cubic_etale(Q, f=[1" + ",0" * 40000 + "])", 4),
], ids=["long-lambda", "long-modulus", "modulus-2^127", "modulus-2^61", "exponent-s",
        "exponent-x", "long-f"])
def test_large_literal_exits_with_documented_status(tmp_path, capsys, body, status):
    assert _status(tmp_path, capsys, body)[0] == status


def test_utwist_checks_its_inner_involution(tmp_path, capsys):
    # over matrix3(Q) there is no quadratic centre for conjtrans to conjugate
    status = main(["check-axioms", write(tmp_path, "s.txt", (
        "B = matrix3(Q)\n"
        "J = second_tits(B, utwist(u=[1,0,0,0,1,0,0,0,1]), u=[1,0,0,0,1,0,0,0,1], mu=1)\n"
    ))])
    err = capsys.readouterr().err
    assert status == 4
    assert "conjtrans needs matrix3 over a quadratic etale center" in err
    assert "Traceback" not in err


UTWIST_SCEN = """K = Q[s]/(s^2-(-1))
B = matrix3(K)
J = second_tits(B, utwist(u={u}), u=[1,0,0,0,1,0,0,0,1], mu=1)
run axioms(J, samples=2, seed=1)
"""


@pytest.mark.parametrize("u, message", [
    ("[1,0,0,0,0,0,0,0,0]", "utwist element must be invertible"),
    ("[1,(0;1),0,0,1,0,0,0,1]", "utwist element must be sigma-hermitian"),
    ("[[1,0,0],[0,2,0],[0,0,3]]", None),
], ids=["not-invertible", "not-hermitian", "hermitian"])
def test_utwist_validation_exit_status(tmp_path, capsys, u, message):
    status = main(["check-axioms", write(tmp_path, "s.txt", UTWIST_SCEN.format(u=u)),
                   "--format", "machine"])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if message is None:
        assert status == 0 and out.endswith("RESULT PASS\n")
    else:
        assert status == 4 and message in err


# wrong arity, unknown keywords and wrong argument kinds are parse errors
@pytest.mark.parametrize("body", [
    "X = first_tits(D, 2, 3)",
    "X = matrix3(Q, foo=1)",
    "X = matrix3(Q, ring=Q)",
    "X = first_tits(D, lambda=2, lambda=3)",
    "run axioms(J, samples=2, seed=1, bogus=1)",
    "X = chi(JE, a=[1,2,3], middle=D)",
    "run verify_map(J)",
    "run check_path(J)",
    "run check_cert(J)",
    "run trace_oracle(J, samples=2, seed=1)",
])
def test_signature_violation_exits_parse_error(tmp_path, capsys, body):
    assert _status(tmp_path, capsys, body)[0] == 2


def test_unknown_constructor_after_run_caught_before_computing(tmp_path, capsys):
    # the run has no seed: had it been computed first, it would exit 4
    status, out = _status(tmp_path, capsys, "run axioms(J, samples=2)\nX = bogus(J)")
    assert status == 2
    assert out == ""


@pytest.mark.parametrize("body", [
    "run axioms(J, samples=0, seed=1)",
    "run fundamental(J, pairs=-1, seed=1)",
    "run trace_oracle(D, samples=0, seed=1)",
    "run chi_suite(JE, a=[1,2,3], trials=0, seed=1)",
])
def test_count_below_one_exits_validation(tmp_path, capsys, body):
    assert _status(tmp_path, capsys, body)[0] == 4


def test_samples_flag_below_one_exits_validation(tmp_path, capsys):
    scen = write(tmp_path, "s.txt", PRELUDE + "run axioms(J, samples=2, seed=1)\n")
    assert main(["check-axioms", scen, "--samples", "0"]) == 4


HUGE = str(10**40)


@pytest.mark.parametrize("body", [
    f"run axioms(J, samples={HUGE}, seed=1)",
    f"run fundamental(J, pairs={HUGE}, seed=1)",
    f"run chi_suite(JE, a=[1,2,3], trials={MAX_COUNT + 1}, seed=1)",
])
def test_count_above_limit_exits_validation(tmp_path, capsys, body):
    # refused while binding, before any sample is drawn
    assert main(["check-axioms", write(tmp_path, "s.txt", PRELUDE + body + "\n")]) == 4
    assert f"must be at most {MAX_COUNT}" in capsys.readouterr().err


def test_samples_flag_above_limit_exits_validation(tmp_path, capsys):
    scen = write(tmp_path, "s.txt", PRELUDE + "run axioms(J, samples=2, seed=1)\n")
    assert main(["check-axioms", scen, "--samples", HUGE]) == 4
    assert f"must be at most {MAX_COUNT}" in capsys.readouterr().err


DEEP = "matrix3(" * 2000 + "Q" + ")" * 2000


def test_deep_nesting_in_scenario_exits_parse_error(tmp_path, capsys):
    status, _ = _status(tmp_path, capsys, f"X = {DEEP}")
    assert status == 2


def test_deep_nesting_in_certificate_exits_parse_error(tmp_path, capsys):
    text = (GOLDEN / "certificate.cert").read_text(encoding="utf-8")
    text = text.replace("algebra matrix3(Q)\n", f"algebra {DEEP}\n", 1)
    path = write(tmp_path, "deep.cert", text)
    assert main(["check-cert", path]) == 2
    err = capsys.readouterr().err
    assert "nested deeper than" in err and "Traceback" not in err


@pytest.mark.parametrize("old, new, fragments", [
    ("algebra matrix3(Q)\n", f"algebra {DEEP}\n",
     ["bad algebra 'matrix3(matrix3(", "(line 3): expression nested deeper than"]),
    ("lambda 2\n", "lambda " + "x" * 20000 + "\n",
     ["bad lambda 'xxx", "(line 4): bad rational literal 'xxx"]),
    ("\nend\n", "\n" + "e" * 20000 + "\n", ["expected path or end, found 'eee"]),
], ids=["algebra", "lambda", "marker"])
def test_oversized_value_error_is_bounded(tmp_path, capsys, old, new, fragments):
    text = (GOLDEN / "certificate.cert").read_text(encoding="utf-8")
    assert old in text
    path = write(tmp_path, "big.cert", text.replace(old, new, 1))
    assert main(["check-cert", path]) == 2
    err = capsys.readouterr().err
    assert all(f in err for f in fragments) and "characters)" in err
    assert len(err.encode("utf-8")) < 1024

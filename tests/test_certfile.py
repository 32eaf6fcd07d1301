from fractions import Fraction as F
from pathlib import Path

import pytest

from albert.errors import CertificateError
from albert.scalars import QQ
from albert.deg3 import Matrix3
from albert.upoly import RationalFunctionField
from albert.certfile import (
    load_certificate,
    parse_certificate,
    render_certificate,
    save_certificate,
)
from albert.rpaths import cert_build_stab, cert_check

M3 = Matrix3(QQ)


@pytest.fixture(scope="module")
def cert(J27):
    a = M3.diag([F(1), F(2), F(3)])
    b = M3.diag([F(6), F(1), F(1)])
    return cert_build_stab(J27, a, b)


def test_round_trip(cert, tmp_path):
    path = tmp_path / "cert.txt"
    save_certificate(cert, path)
    loaded = load_certificate(path)
    assert loaded.parent.dim == cert.parent.dim
    assert loaded.parent.lam == cert.parent.lam
    assert cert_check(loaded).all_pass


def test_undecodable_file_is_a_certificate_error(cert, tmp_path):
    path = tmp_path / "cert.txt"
    data = render_certificate(cert).encode()
    offset = data.index(b"target")
    path.write_bytes(data[:offset] + b"\xc3(" + data[offset:])
    with pytest.raises(CertificateError, match=f"byte 0xc3 at offset {offset} does not"):
        load_certificate(path)


def test_render_is_deterministic(cert):
    assert render_certificate(cert) == render_certificate(cert)


def test_parse_render_fixed_point(cert):
    text = render_certificate(cert)
    again = render_certificate(parse_certificate(text))
    assert text == again


def test_rejects_bad_header(cert):
    text = render_certificate(cert)
    with pytest.raises(CertificateError):
        parse_certificate(text.replace("ALBERT-CERT 1", "ALBERT-CERT 9", 1))
    with pytest.raises(CertificateError):
        parse_certificate("garbage\n")


def test_rejects_wrong_dimension(cert):
    text = render_certificate(cert)
    with pytest.raises(CertificateError):
        parse_certificate(text.replace("dim 27", "dim 26", 1))


def test_tampered_file_fails_check(cert, tmp_path):
    text = render_certificate(cert)
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if ln == "target":
            row = lines[i + 2].split()
            row[0] = "5/7"
            lines[i + 2] = " ".join(row)
            break
    bad = parse_certificate("\n".join(lines) + "\n")
    assert not cert_check(bad).all_pass


def test_truncated_file_rejected(cert):
    text = render_certificate(cert)
    with pytest.raises(CertificateError):
        parse_certificate(text[: len(text) // 2])


GOLDEN_CERT = Path(__file__).resolve().parent / "golden" / "certificate.cert"


@pytest.mark.parametrize("old, new", [
    ("field Q\n", "field Q[s]/(s^2-(-1))\n"),                   # not the algebra's field
    ("algebra matrix3(Q)\n", "algebra matrix3(F7)\n"),            # under field Q
    ("dim 27\n", "dim x\n"),                                      # not an integer
    ("algebra matrix3(Q)\n", "algebra first_tits(matrix3(Q), lambda=2)\n"),  # no algebra
])
def test_rejects_malformed_header(old, new):
    text = GOLDEN_CERT.read_text(encoding="utf-8")
    assert old in text
    with pytest.raises(CertificateError):
        parse_certificate(text.replace(old, new, 1))


@pytest.mark.parametrize("old, new, line", [
    ("lambda 2\n", "lambda x\n", 4),                            # malformed scalar
    ("target\n1 0", "target\n1/0 0", 7),                         # zero denominator
    ("path\n1|1 0|1", "path\n1|0 0|1", 35),                      # path entry over 0
    ("algebra matrix3(Q)\n", "algebra matrix3(K)\n", 3),         # undefined name
    ("end\n", "end\nend\n", 91),                                 # content after end
])
def test_rejects_malformed_body(old, new, line):
    text = GOLDEN_CERT.read_text(encoding="utf-8")
    assert old in text
    with pytest.raises(CertificateError, match=rf"\(line {line}\)"):
        parse_certificate(text.replace(old, new, 1))


def test_memoized_path_entries_equal_a_parse_per_entry():
    text = GOLDEN_CERT.read_text(encoding="utf-8")
    cert = parse_certificate(text)
    Rt = RationalFunctionField(cert.parent.field, "t")
    lines = text.splitlines()
    starts = [i + 1 for i, line in enumerate(lines) if line == "path"]
    assert len(starts) == len(cert.path_matrices)
    seen = {}
    for start, matrix in zip(starts, cert.path_matrices):
        for line, row in zip(lines[start:start + cert.parent.dim], matrix):
            tokens = line.split()
            assert row == [Rt.parse(token) for token in tokens]
            for token, value in zip(tokens, row):
                assert seen.setdefault(token, value) is value
    assert len(seen) < sum(len(m) * len(m[0]) for m in cert.path_matrices)


def test_repeated_malformed_path_entry_is_reported_at_its_first_line():
    lines = GOLDEN_CERT.read_text(encoding="utf-8").splitlines()
    rows = [i for i, line in enumerate(lines) if line == "path"]
    first, later = rows[0] + 3, rows[-1] + 1
    for i in (later, first):
        tokens = lines[i].split()
        tokens[2] = "1|x"
        lines[i] = " ".join(tokens)
    with pytest.raises(CertificateError, match=rf"bad entry of path 1 '1\|x' \(line {first + 1}\)"):
        parse_certificate("\n".join(lines) + "\n")

"""Textual certificate files.

Line-oriented format, all scalars exact, no floating point, so checker
verdicts are reproducible bit for bit:

    ALBERT-CERT 1
    field Q
    algebra matrix3(Q)
    lambda 2
    dim 27
    target
    <dim rows of dim whitespace-separated base-field scalars>
    path
    <dim rows of dim whitespace-separated entries  num|den , each side a
     comma-separated ascending coefficient list over the base field>
    path
    ...
    end

Nothing but blank lines may follow ``end``, so a concatenation of two
certificate files is refused, not checked as its first.
"""

from __future__ import annotations

from .errors import AlbertError, CertificateError, LimitExceeded, read_text
from .deg3 import Deg3Algebra
from .upoly import RatFunc, RationalFunctionField
from .tits import FirstTits
from .rpaths import RCertificate

FORMAT_VERSION = "1"

#: characters of an offending value, or of its cause, that an error quotes
QUOTE_LIMIT = 200

#: the highest t-degree of a path entry's numerator or denominator that is
#: read and reduced; ``path_certify`` refuses far lower degrees (about 85)
#: when its norm passes the exponent packing
MAX_PATH_DEGREE = 255


def _clip(text):
    """``text`` cut to a bounded prefix, so that a huge value read from the
    file cannot swamp the error message."""
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


def _quote(text):
    return _clip(repr(text))


def render_certificate(cert):
    J = cert.parent
    if not isinstance(J, FirstTits):
        raise CertificateError("only first-construction certificates are serialized")
    field = ring = J.field
    # a value over k(t) is written with the "|" and "," of a path entry
    while ring is not None and not isinstance(ring, RationalFunctionField):
        ring = ring.base
    if ring is not None:
        raise LimitExceeded(f"certificate files are limited to base fields without "
                            f"rational functions: a path entry over {field.spec_string()} "
                            f"would not read back")
    Rt = RationalFunctionField(field, "t")
    lines = [
        f"ALBERT-CERT {FORMAT_VERSION}",
        f"field {field.spec_string()}",
        f"algebra {J.D.descriptor_string()}",
        f"lambda {field.format(J.lam)}",
        f"dim {J.dim}",
        "target",
    ]
    for row in cert.target_matrix:
        lines.append(" ".join(field.format(v) for v in row))
    zero = Rt.format(Rt.zero())
    for matrix in cert.path_matrices:
        lines.append("path")
        for row in matrix:
            lines.append(" ".join(Rt.format(v) if v else zero for v in row))
    lines.append("end")
    return "\n".join(lines) + "\n"


def save_certificate(cert, path):
    text = render_certificate(cert)  # before the file exists: a refusal leaves none
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def parse_certificate(text):
    """Rebuild an RCertificate from its textual form.

    The construction named in the header is rebuilt from scratch; nothing in
    the body is trusted until :func:`albert.rpaths.cert_check` validates it.
    """
    from .scenario import evaluate_descriptor

    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    idx = 0

    def next_line():
        nonlocal idx
        while idx < len(lines) and not lines[idx].strip():
            idx += 1
        if idx >= len(lines):
            raise CertificateError("unexpected end of certificate file")
        ln = lines[idx]
        idx += 1
        return ln

    header = next_line().split()
    if header[:1] != ["ALBERT-CERT"] or len(header) != 2:
        raise CertificateError("missing certificate header")
    if header[1] != FORMAT_VERSION:
        raise CertificateError(f"unsupported certificate version {_quote(header[1])}")

    def expect_key(key):
        ln = next_line()
        if not ln.startswith(key + " "):
            raise CertificateError(f"expected {key!r} line, found {_quote(ln)}")
        return ln[len(key) + 1:].strip()

    def parse(read, text, where):
        """``read(text)``, with any error reported as a certificate error at
        the line just read."""
        try:
            return read(text)
        except AlbertError as exc:
            raise CertificateError(
                f"{where} {_quote(text)} (line {idx}): {_clip(str(exc))}"
            ) from None

    field_spec = expect_key("field")
    algebra = parse(evaluate_descriptor, expect_key("algebra"), "bad algebra")
    if not (isinstance(algebra, Deg3Algebra) and algebra.base_ring.is_field):
        raise CertificateError("algebra line must name a degree-3 algebra over a field")
    field = algebra.base_ring
    if field_spec != field.spec_string():
        raise CertificateError(
            f"field {field_spec!r} is not the algebra's base field {field.spec_string()!r}"
        )
    lam = parse(field.parse, expect_key("lambda"), "bad lambda")
    try:
        dim = int(expect_key("dim"))
    except ValueError:
        raise CertificateError("dim is not an integer") from None
    J = FirstTits(algebra, lam)
    if J.dim != dim:
        raise CertificateError(
            f"declared dimension {dim} does not match construction ({J.dim})"
        )
    if next_line().strip() != "target":
        raise CertificateError("expected target block")
    target = []
    for _ in range(dim):
        row = next_line().split()
        if len(row) != dim:
            raise CertificateError("target row has wrong length")
        target.append([parse(field.parse, v, "bad target entry") for v in row])
    Rt = RationalFunctionField(field, "t")

    def read_entry(text):
        """A path entry, its degree checked before it is reduced."""
        num, den = Rt.parse_pair(text)
        degree = max(num.degree, den.degree)
        if degree > MAX_PATH_DEGREE:
            raise AlbertError(f"t-degree {degree} exceeds the limit {MAX_PATH_DEGREE}")
        return RatFunc(num, den, Rt)

    # ``RatFunc`` values are immutable, so each distinct token is read once
    entries = {}

    def entry(text, where):
        value = entries.get(text)
        if value is None:
            value = entries[text] = parse(read_entry, text, where)
        return value

    paths = []
    while True:
        marker = next_line().strip()
        if marker == "end":
            break
        if marker != "path":
            raise CertificateError(f"expected path or end, found {_quote(marker)}")
        matrix = []
        for _ in range(dim):
            row = next_line().split()
            if len(row) != dim:
                raise CertificateError("path row has wrong length")
            where = f"bad entry of path {len(paths) + 1}"
            matrix.append([entry(v, where) for v in row])
        paths.append(matrix)
    for n, ln in enumerate(lines[idx:], idx + 1):
        if ln.strip():
            raise CertificateError(f"content after end {_quote(ln)} (line {n})")
    return RCertificate(J, target, paths)


def load_certificate(path):
    return parse_certificate(read_text(path, CertificateError))

"""Exception hierarchy.

Every exception carries a stable ``code`` slug so the CLI can map error
classes to distinct exit statuses and machine-readable report lines.
"""


class AlbertError(Exception):
    code = "error"

    def __init__(self, message, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ParentMismatch(AlbertError):
    """Operands belong to different rings or algebras."""

    code = "incompatible-parents"


class DivisionByZero(AlbertError):
    code = "division-by-zero"


class NotInvertible(AlbertError):
    code = "not-invertible"


class ConstraintError(AlbertError):
    """A constructor's side condition failed (bad parameters)."""

    code = "constraint-violated"


class InvolutionError(AlbertError):
    code = "no-involution-attached"


class SimilarityError(AlbertError):
    """A matrix failed multiplier certification."""

    code = "not-a-similarity"


class LimitExceeded(AlbertError):
    """A stated limit of the implementation was reached; the input may be
    valid, so this is a refusal, never a verdict."""

    code = "limit-exceeded"


class PathError(AlbertError):
    """A one-parameter family failed path certification."""

    code = "path-invalid"


class CertificateError(AlbertError):
    code = "certificate-invalid"


class ScenarioParseError(AlbertError):
    code = "parse-error"

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class UnresolvedReference(AlbertError):
    code = "unresolved-reference"


def read_text(path, error):
    """The text of the UTF-8 file at ``path``; a byte that does not decode
    raises ``error`` naming its offset in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start} "
                    f"does not decode") from None

"""The textual expression language shared by scenario files and certificate
headers.

Grammar (informal):

    expr     := primary
    primary  := NAME call? | NAME '[' NAME ']' '/' '(' poly ')' | literal
    call     := '(' [arg {',' arg}] ')'
    arg      := NAME '=' expr | expr
    literal  := scalar | '[' expr {',' expr} ']' | '(' scalar ';' scalar ')'
    scalar   := ['-'] NUMBER ['/' NUMBER]

Field and algebra sugar:

    Q                      rationals
    F7                     prime field
    Q[s]/(s^2-(-1))        quadratic extension (variable must be s)
    Q(t)                   rational function field
    Q[x]/(x^3-3*x-1)       cubic etale algebra (any variable other than s)

Calls, lists and parentheses nest at most ``MAX_DEPTH`` levels deep; deeper
input is a parse error.

Literals evaluate to raw Python data (Fraction, ("pair", a, b), lists); the
scenario signature table coerces them into payloads of the appropriate ring.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ConstraintError, ScenarioParseError, UnresolvedReference
from .scalars import PrimeField, QQ, QuadraticEtale
from .upoly import RationalFunctionField

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<punct>[()\[\],=;/^*+-]))"
)

#: deepest nesting of calls, lists and parentheses that an expression may have
MAX_DEPTH = 64


def _integer(digits, line=None, col=None):
    """The int written by a string of decimal digits; a literal beyond the
    interpreter's integer-string limit is a parse error."""
    try:
        return int(digits)
    except ValueError:
        raise ScenarioParseError(
            f"number literal of {len(digits)} digits is too long", line, col
        ) from None


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"{self.kind}:{self.text}"


def tokenize(text, line=None):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ScenarioParseError(
                f"unexpected character {text[pos:].strip()[0]!r}", line, pos + 1
            )
        if m.group("num"):
            tokens.append(Token("num", m.group("num"), m.start("num")))
        elif m.group("name"):
            tokens.append(Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(Token("punct", m.group("punct"), m.start("punct")))
        pos = m.end()
    return tokens


class Parser:
    def __init__(self, tokens, line=None):
        self.tokens = tokens
        self.i = 0
        self.line = line
        self.depth = 0

    def peek(self, offset=0):
        idx = self.i + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ScenarioParseError("unexpected end of expression", self.line)
        self.i += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise ScenarioParseError(
                f"expected {text!r}, found {tok.text!r}", self.line, tok.pos + 1
            )
        return tok

    def at_end(self):
        return self.i >= len(self.tokens)

    def error(self, message):
        tok = self.peek()
        col = tok.pos + 1 if tok else None
        raise ScenarioParseError(message, self.line, col)

    # ---- expressions -> AST ------------------------------------------------
    # AST nodes: ("name", str) | ("call", str, [args], {kwargs})
    #          | ("quotient", base_ast, var, poly_coeffs)
    #          | ("ratfield", base_ast, var)
    #          | ("scalar", Fraction) | ("pair", ast, ast) | ("list", [ast])

    def parse_expr(self):
        if self.depth == MAX_DEPTH:
            self.error(f"expression nested deeper than {MAX_DEPTH} levels")
        self.depth += 1
        node = self._parse_nested()
        self.depth -= 1
        return node

    def _parse_nested(self):
        tok = self.peek()
        if tok is None:
            self.error("empty expression")
        if tok.kind == "name":
            return self.parse_primary()
        if tok.text == "[":
            return self.parse_list()
        if tok.text == "(":
            return self.parse_paren()
        if tok.kind == "num" or tok.text == "-":
            return ("scalar", self.parse_number())
        self.error(f"unexpected token {tok.text!r}")

    def parse_primary(self):
        name = self.next().text
        if _is_field_atom(name):
            # rational function field sugar on a statically known field
            # atom, e.g. Q(t), F7(t)
            node = self._maybe_ratfield(("name", name))
            if node[0] == "ratfield":
                return node
        nxt = self.peek()
        if nxt is not None and nxt.text == "[":
            # quotient sugar: NAME [ var ] / ( poly )
            self.next()
            var = self.next()
            if var.kind != "name":
                self.error("expected a variable name inside brackets")
            self.expect("]")
            self.expect("/")
            self.expect("(")
            coeffs = self.parse_poly_literal(var.text)
            self.expect(")")
            node = ("quotient", ("name", name), var.text, coeffs)
            return self._maybe_ratfield(node)
        if nxt is not None and nxt.text == "(":
            self.next()
            args, kwargs = [], {}
            if self.peek() is not None and self.peek().text != ")":
                while True:
                    if (
                        self.peek() is not None
                        and self.peek().kind == "name"
                        and self.peek(1) is not None
                        and self.peek(1).text == "="
                    ):
                        key = self.next().text
                        if key in kwargs:
                            self.error(f"repeated keyword {key!r}")
                        self.next()
                        kwargs[key] = self.parse_expr()
                    else:
                        args.append(self.parse_expr())
                    if self.peek() is None:
                        self.error("unterminated argument list")
                    if self.peek().text == ",":
                        self.next()
                        continue
                    break
            self.expect(")")
            return ("call", name, args, kwargs)
        return ("name", name)

    def _maybe_ratfield(self, node):
        """Optional (var) trailer turning a field node into functions of var."""
        if (
            self.peek() is not None
            and self.peek().text == "("
            and self.peek(1) is not None
            and self.peek(1).kind == "name"
            and self.peek(2) is not None
            and self.peek(2).text == ")"
        ):
            self.next()
            var = self.next().text
            self.expect(")")
            return ("ratfield", node, var)
        return node

    def parse_number(self):
        sign = 1
        if self.peek() is not None and self.peek().text == "-":
            self.next()
            sign = -1
        tok = self.next()
        if tok.kind != "num":
            self.error("expected a number")
        value = Fraction(_integer(tok.text, self.line, tok.pos + 1))
        if self.peek() is not None and self.peek().text == "/":
            # lookahead: denominators are bare numbers
            if self.peek(1) is not None and self.peek(1).kind == "num":
                self.next()
                dtok = self.next()
                den = _integer(dtok.text, self.line, dtok.pos + 1)
                if den == 0:
                    self.error("zero denominator")
                value = value / den
        return sign * value

    def parse_list(self):
        self.expect("[")
        items = []
        if self.peek() is not None and self.peek().text != "]":
            while True:
                items.append(self.parse_expr())
                if self.peek() is None:
                    self.error("unterminated list")
                if self.peek().text == ",":
                    self.next()
                    continue
                break
        self.expect("]")
        return ("list", items)

    def parse_paren(self):
        self.expect("(")
        first = self.parse_expr()
        if self.peek() is not None and self.peek().text == ";":
            self.next()
            second = self.parse_expr()
            self.expect(")")
            return ("pair", first, second)
        self.expect(")")
        return first

    def parse_poly_literal(self, var):
        """Terms like s^2-(-1), x^3-3*x-1; returns ascending coefficients."""
        coeffs = {}
        sign = Fraction(1)
        while True:
            tok = self.peek()
            if tok is None or tok.text == ")":
                break
            if tok.text == "+":
                self.next()
                sign = Fraction(1)
                continue
            if tok.text == "-":
                self.next()
                sign = Fraction(-1)
                continue
            coef = Fraction(1)
            power = 0
            start = self.i
            if tok.text == "(":
                self.next()
                coef = self.parse_number()
                self.expect(")")
            elif tok.kind == "num":
                coef = self.parse_number()
            if self.peek() is not None and self.peek().text == "*":
                self.next()
            tok = self.peek()
            if tok is not None and tok.kind == "name":
                if tok.text != var:
                    self.error(f"unexpected variable {tok.text!r} in polynomial")
                self.next()
                power = 1
                if self.peek() is not None and self.peek().text == "^":
                    self.next()
                    ptok = self.next()
                    if ptok.kind != "num":
                        self.error("expected an exponent")
                    power = _integer(ptok.text, self.line, ptok.pos + 1)
                    if power > 3:
                        # refused before the coefficient list is allocated
                        if var == "s":
                            raise ScenarioParseError(
                                "quadratic extension must be given as s^2 - d", self.line)
                        raise ConstraintError("minimal polynomial must be a monic cubic")
            if self.i == start:
                self.error(f"unexpected token {tok.text!r} in polynomial")
            coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coef
            sign = Fraction(1)
        if not coeffs:
            self.error("empty polynomial")
        deg = max(coeffs)
        return [coeffs.get(i, Fraction(0)) for i in range(deg + 1)]


def parse_expression(text, line=None):
    parser = Parser(tokenize(text, line), line)
    ast = parser.parse_expr()
    if not parser.at_end():
        parser.error("trailing input after expression")
    return ast


def subexpressions(ast):
    """The direct subexpressions of an AST node."""
    kind = ast[0]
    if kind == "call":
        return list(ast[2]) + list(ast[3].values())
    if kind == "list":
        return ast[1]
    if kind == "pair":
        return [ast[1], ast[2]]
    if kind in ("quotient", "ratfield"):
        return [ast[1]]
    return []


def free_names(ast):
    """All bare identifiers referenced by an AST (call names excluded)."""
    if ast[0] == "name":
        return [ast[1]]
    return [name for sub in subexpressions(ast) for name in free_names(sub)]


_PRIME_FIELD_RE = re.compile(r"^F(\d+)$")


def _is_field_atom(name):
    return name == "Q" or _PRIME_FIELD_RE.match(name) is not None


#: names with fixed meanings that never need declaration
BUILTIN_ATOMS = ("Q", "switch", "conjtrans")


def is_builtin_name(name):
    return name in BUILTIN_ATOMS or _PRIME_FIELD_RE.match(name) is not None


def eval_atom(name, line=None):
    if name == "Q":
        return QQ
    m = _PRIME_FIELD_RE.match(name)
    if m:
        return PrimeField(_integer(m.group(1), line))
    if name in ("switch", "conjtrans"):
        return ("involution", name, {})
    raise UnresolvedReference(f"undefined name {name!r}")


def coerce_scalar(ring, value, line=None):
    """Turn a literal AST evaluation result into a payload of ``ring``."""
    if isinstance(value, tuple) and value and value[0] == "pair":
        if not isinstance(ring, QuadraticEtale):
            raise ScenarioParseError("pair literal outside a quadratic ring", line)
        return ring.make(
            coerce_scalar(ring.base, value[1], line),
            coerce_scalar(ring.base, value[2], line),
        )
    if isinstance(value, Fraction):
        if ring is QQ or ring == QQ:
            return value
        if isinstance(ring, PrimeField):
            num = ring.from_int(value.numerator)
            if value.denominator == 1:
                return num
            return num / ring.from_int(value.denominator)
        if isinstance(ring, QuadraticEtale):
            return ring.from_base(coerce_scalar(ring.base, value, line))
        if isinstance(ring, RationalFunctionField):
            return ring.from_base(coerce_scalar(ring.base, value, line))
        raise ScenarioParseError(f"cannot coerce scalar into {ring!r}", line)
    raise ScenarioParseError(f"not a scalar literal: {value!r}", line)

"""Problem files and the expression grammar.

A problem file is a sequence of `key = value` statements, one per line
(semicolons also separate statements; `#` starts a comment):

    vars    = [x, y, z]
    weights = [1, 1, 1]
    map     = ["x*z", "x^2 + y^2 - z^2"]
    form.w1 = "z*d[x] - x*d[z]"
    point.p = "1, 0"

Expressions use integers, rational literals a/b, the declared variable
names, + - * ^ and parentheses; differentials are written d[x,y] (the
name d is reserved).  `*` is the wedge product, so expressions denote
forms; a polynomial is a 0-form.  Printing sorts terms in decreasing
monomial order, so output is byte-stable and parses back to the same
object.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .polyform import KForm, Polynomial
from .groebner import MonomialOrder


class ParseError(ValueError):
    """Syntax or structural error in a problem file or expression."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", column {col}"
            super().__init__(f"{where}: {message}")
        else:
            super().__init__(message)


def _is_digits(s):
    """Nonempty and only 0-9 (str.isdigit accepts '²', which int rejects)."""
    return s.isascii() and s.isdigit()


def _int(digits, line=None, col=None):
    """int of an ASCII digit string, or a ParseError at (line, col) when it
    is longer than int() converts (4300 digits by default)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long",
                         line, col) from None


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(value):
    """Fraction of a string [+-]?digits[/digits] in ASCII digits, the form
    fibera prints, or of an int or a Fraction.  A bool (JSON true, false) is
    no number, and a float is refused: fibera writes none, and Fraction
    reads its binary value (0.1 is not 1/10).  Fraction would also read
    exponent notation, and Fraction('1e10000000') takes seconds.  Raises
    ValueError (a ParseError, which gives the digit count and not the
    digits, for an integer longer than int() converts) or ZeroDivisionError."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"bad rational {value!r}")
    if not isinstance(value, str):
        return Fraction(value)
    if not _RATIONAL.fullmatch(value):
        raise ValueError(f"bad rational {value!r}")
    num, _, den = value.lstrip("+-").partition("/")
    num = _int(num)
    return Fraction(-num if value[0] == "-" else num,
                    _int(den) if den else 1)


def _tokenize(src, line=1, col=1):
    tokens = []
    i = 0
    length = len(src)
    while i < length:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if _is_digits(ch):
            j = i
            while j < length and _is_digits(src[j]):
                j += 1
            tokens.append(("num", _int(src[i:j], line, col), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < length and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()[],/":
            tokens.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", None, line, col))
    return tokens


class _ExprParser:
    def __init__(self, tokens, var_map, n):
        self.tokens = tokens
        self.pos = 0
        self.var_map = var_map
        self.n = n

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def parse(self):
        value = self.expr()
        kind, _, line, col = self.peek()
        if kind != "end":
            self.error("unexpected trailing input")
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in "+-":
            op = self.advance()
            rhs = self.term()
            try:
                value = value + rhs if op[0] == "+" else value - rhs
            except ValueError:
                self.error("cannot add forms of different degree", op)
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = value.wedge(self.factor())
        return value

    def factor(self):
        sign = 1
        while self.peek()[0] in "+-":
            if self.advance()[0] == "-":
                sign = -sign
        value = self.atom()
        if self.peek()[0] == "^":
            caret = self.advance()
            kind, exp, _, _ = self.peek()
            if kind != "num":
                self.error("exponent must be a nonnegative integer")
            self.advance()
            if value.k > 0 and exp != 1:
                self.error("cannot raise a positive-degree form to a power", caret)
            if value.k == 0:
                value = KForm.from_polynomial(value.as_polynomial() ** exp)
        return value if sign > 0 else -value

    def atom(self):
        kind, val, line, col = self.peek()
        if kind == "num":
            self.advance()
            num = val
            if self.peek()[0] == "/":
                self.advance()
                dkind, den, dline, dcol = self.peek()
                if dkind != "num":
                    self.error("expected an integer denominator")
                self.advance()
                if den == 0:
                    raise ParseError("division by zero", dline, dcol)
                return KForm.from_polynomial(
                    Polynomial.constant(self.n, Fraction(num, den)))
            return KForm.from_polynomial(Polynomial.constant(self.n, num))
        if kind == "ident":
            self.advance()
            if val == "d":
                return self.differential(line, col)
            idx = self.var_map.get(val)
            if idx is None:
                raise ParseError(f"unknown variable {val!r}", line, col)
            return KForm.from_polynomial(Polynomial.variable(self.n, idx))
        if kind == "(":
            self.advance()
            value = self.expr()
            if self.peek()[0] != ")":
                self.error("expected ')'")
            self.advance()
            return value
        self.error("expected a number, variable, d[...], or '('")

    def differential(self, line, col):
        if self.peek()[0] != "[":
            raise ParseError("expected '[' after d", line, col)
        self.advance()
        value = KForm.from_polynomial(Polynomial.constant(self.n, 1))
        first = True
        while True:
            kind, val, vline, vcol = self.peek()
            if kind == "]" and first:
                self.advance()
                return value
            if kind != "ident":
                self.error("expected a variable name inside d[...]")
            idx = self.var_map.get(val)
            if idx is None:
                raise ParseError(f"unknown variable {val!r}", vline, vcol)
            self.advance()
            value = value.wedge(KForm.basis_form(self.n, (idx,)))
            first = False
            kind = self.peek()[0]
            if kind == ",":
                self.advance()
                continue
            if kind == "]":
                self.advance()
                return value
            self.error("expected ',' or ']' in d[...]")


def parse_form_expr(text, var_names, line=1, col=1):
    """Parse an expression to a KForm over the given variables."""
    var_map = {name: i for i, name in enumerate(var_names)}
    tokens = _tokenize(text, line=line, col=col)
    return _ExprParser(tokens, var_map, len(var_names)).parse()


def form_to_polynomial(form, line=None, col=None):
    """The polynomial a 0-form denotes; a zero form of any degree is 0."""
    if form.is_zero():
        return Polynomial.zero(form.n)
    if form.k != 0:
        raise ParseError("expected a polynomial, not a form of positive degree",
                         line, col)
    return form.as_polynomial()


def parse_polynomial_expr(text, var_names, line=1, col=1):
    """Parse an expression that must be a polynomial (0-form)."""
    return form_to_polynomial(parse_form_expr(text, var_names, line=line, col=col),
                              line, col)


class ProblemFile(namedtuple("ProblemFile", "source var_names weights "
                             "map_components forms points")):
    __slots__ = ()

    @property
    def n(self):
        return len(self.var_names)

    @property
    def q(self):
        return len(self.map_components)


def _split_top(s):
    """Split on top-level commas; yields (piece, offset) pairs."""
    depth = 0
    quote = None
    start = 0
    out = []
    for i, ch in enumerate(s):
        if quote:
            if ch == quote:
                quote = None
            continue
        if ch in "\"'":
            quote = ch
        elif ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append((s[start:i], start))
            start = i + 1
    out.append((s[start:], start))
    return out


def _strip_quotes(s, col):
    """Remove one layer of matching quotes; returns (text, column of text)."""
    t = s.strip()
    col += len(s) - len(s.lstrip())
    if len(t) >= 2 and t[0] in "\"'" and t[-1] == t[0]:
        return t[1:-1], col + 1
    return t, col


def _strip_brackets(s, col, line):
    t = s.strip()
    col += len(s) - len(s.lstrip())
    if not (t.startswith("[") and t.endswith("]")):
        raise ParseError("expected a bracketed list [...]", line, col)
    return t[1:-1], col + 1


_IDENT_OK = lambda s: s and (s[0].isalpha() or s[0] == "_") \
    and all(c.isalnum() or c == "_" for c in s)


def parse_point(text, q, line=None, col=None):
    """Parse "r_1, ..., r_q" to a tuple of q rationals."""
    coords = []
    for piece, off in _split_top(text):
        s = piece.strip()
        try:
            coords.append(parse_rational(s))
        except ParseError as exc:
            raise ParseError(f"{exc.message} in point", line,
                             None if col is None else col + off)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational {s!r} in point", line,
                             None if col is None else col + off)
    if len(coords) != q:
        raise ParseError(f"point has {len(coords)} coordinates, expected {q}",
                         line, col)
    return tuple(coords)


def parse_problem(text):
    """Parse a full problem file to a ProblemFile."""
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        offset = 0
        for piece in line.split(";"):
            if piece.strip():
                statements.append((lineno, offset + 1, piece))
            offset += len(piece) + 1
    seen = {}
    for lineno, col, stmt in statements:
        if "=" not in stmt:
            raise ParseError("expected 'key = value'", lineno, col)
        key, value = stmt.split("=", 1)
        key_str = key.strip()
        value_col = col + len(key) + 1
        if key_str in seen:
            raise ParseError(f"duplicate key {key_str!r}", lineno, col)
        seen[key_str] = (lineno, value_col, value)

    def take(name):
        if name not in seen:
            raise ParseError(f"missing required key {name!r}")
        return seen.pop(name)

    # vars
    lineno, col, value = take("vars")
    inner, icol = _strip_brackets(value, col, lineno)
    var_names = []
    for piece, off in _split_top(inner):
        name = piece.strip()
        pcol = icol + off + (len(piece) - len(piece.lstrip()))
        if not _IDENT_OK(name):
            raise ParseError(f"bad variable name {name!r}", lineno, pcol)
        if name == "d":
            raise ParseError("variable name 'd' is reserved for differentials",
                             lineno, pcol)
        if name in var_names:
            raise ParseError(f"duplicate variable {name!r}", lineno, pcol)
        var_names.append(name)
    if not var_names:
        raise ParseError("empty variable list", lineno, col)

    # weights
    lineno, col, value = take("weights")
    inner, icol = _strip_brackets(value, col, lineno)
    weights = []
    for piece, off in _split_top(inner):
        s = piece.strip()
        pcol = icol + off + (len(piece) - len(piece.lstrip()))
        w = _int(s, lineno, pcol) if _is_digits(s) else 0
        if w < 1:
            raise ParseError(f"weights must be positive integers, got {s!r}",
                             lineno, pcol)
        weights.append(w)
    if len(weights) != len(var_names):
        raise ParseError(f"{len(var_names)} variables but {len(weights)} weights",
                         lineno, col)

    # map
    lineno, col, value = take("map")
    inner, icol = _strip_brackets(value, col, lineno)
    components = []
    for piece, off in _split_top(inner):
        expr, ecol = _strip_quotes(piece, icol + off)
        if not expr.strip():
            raise ParseError("empty map component", lineno, ecol)
        components.append(parse_polynomial_expr(expr, var_names,
                                                line=lineno, col=ecol))
    q = len(components)
    if q == 0:
        raise ParseError("empty map", lineno, col)
    if q >= len(var_names):
        raise ParseError(
            f"map must have fewer components than variables "
            f"({q} components, {len(var_names)} variables)", lineno, col)

    forms = {}
    points = {}
    for key_str, (lineno, col, value) in sorted(seen.items()):
        if key_str.startswith("form."):
            name = key_str[5:]
            if not _IDENT_OK(name):
                raise ParseError(f"bad form name {name!r}", lineno, col)
            expr, ecol = _strip_quotes(value, col)
            forms[name] = parse_form_expr(expr, var_names, line=lineno, col=ecol)
        elif key_str.startswith("point."):
            name = key_str[6:]
            if not _IDENT_OK(name):
                raise ParseError(f"bad point name {name!r}", lineno, col)
            body, bcol = _strip_quotes(value, col)
            points[name] = parse_point(body, q, lineno, bcol)
        else:
            raise ParseError(f"unknown key {key_str!r}", lineno, col)

    return ProblemFile(source=text, var_names=var_names, weights=tuple(weights),
                       map_components=components, forms=forms, points=points)


def _monomial_str(e, names):
    bits = []
    for i, a in enumerate(e):
        if a == 1:
            bits.append(names[i])
        elif a > 1:
            bits.append(f"{names[i]}^{a}")
    return "*".join(bits)


def _term_str(e, c, names):
    mono = _monomial_str(e, names)
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return "-" + mono
    return f"{c}*{mono}"


def _join_terms(parts):
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def poly_str(P, names, weights=None):
    """Render a polynomial, terms in decreasing monomial order."""
    if P.is_zero():
        return "0"
    if weights is None:
        weights = (1,) * P.n
    order = MonomialOrder(tuple(weights))
    exps = order.sorted_exponents(P.terms)
    return _join_terms([_term_str(e, P.terms[e], names) for e in exps])


def form_str(omega, names, weights=None):
    """Render a form; 0 for the zero form."""
    if omega.is_zero():
        return "0"
    if omega.k == 0:
        return poly_str(omega.as_polynomial(), names, weights)
    if weights is None:
        weights = (1,) * omega.n
    order = MonomialOrder(tuple(weights))
    parts = []
    for S in sorted(omega.coeffs):
        P = omega.coeffs[S]
        dpart = "d[" + ",".join(names[i] for i in S) + "]"
        if len(P.terms) == 1:
            ((e, c),) = P.terms.items()
            term = _term_str(e, c, names)
            parts.append({"1": "", "-1": "-"}.get(term, term + "*") + dpart)
        else:
            parts.append(f"({poly_str(P, names, weights)})*{dpart}")
    return _join_terms(parts)

"""Parsing and printing for polynomial expressions and input documents.

The polynomial grammar is deliberately small: rational literals `a` or
`a/b`, identifiers, `+ - * ^`, parentheses.  `^` binds tighter than `*`,
which binds tighter than `+` and `-`; exponents are positive integer
literals; implicit multiplication is rejected; `/` is only legal inside a
rational literal.  Claim expressions may additionally use unary functions
(`transfer(...)`, `reynolds(...)`) when the caller supplies them.

Documents are line oriented: `[section]` headers followed by entries that
are either bare values or `key: value` pairs, with `#` comments.  Every
document starts with a [kind] section naming its type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .polyarith import Polynomial, VarTable


class ParseError(ValueError):
    """Input rejected, with 1-based line and column when known."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {col}" if col is not None else "")
        super().__init__(message + where)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*^(),;])
  | (?P<slash>/)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str  # num | ident | op | end
    value: object
    line: int
    col: int


def _tokenize(text, line0=1, col0=1):
    tokens = []
    line, col = line0, col0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        lexeme = m.group(0)
        if m.lastgroup == "ws":
            pass
        elif m.lastgroup == "num":
            if "/" in lexeme:
                a, b = lexeme.split("/")
                if int(b) == 0:
                    raise ParseError("zero denominator in rational literal", line, col)
                value = Fraction(int(a), int(b))
            else:
                value = Fraction(int(lexeme))
            tokens.append(_Token("num", value, line, col))
        elif m.lastgroup == "ident":
            tokens.append(_Token("ident", lexeme, line, col))
        elif m.lastgroup == "op":
            tokens.append(_Token("op", lexeme, line, col))
        elif m.lastgroup == "slash":
            raise ParseError(
                "'/' is only allowed inside a rational literal such as 1/2", line, col
            )
        else:
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
        for ch in lexeme:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(_Token("end", None, line, col))
    return tokens


class _ExprParser:
    """Recursive descent over the token list."""

    def __init__(self, tokens, context, env=None, functions=None):
        self.tokens = tokens
        self.pos = 0
        self.context = context
        self.env = env or {}
        self.functions = functions or {}

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op):
        t = self.take()
        if t.kind != "op" or t.value != op:
            raise ParseError(f"expected {op!r}", t.line, t.col)
        return t

    def parse(self):
        p = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected trailing input {self._show(t)}", t.line, t.col)
        return p

    @staticmethod
    def _show(t):
        return "end of input" if t.kind == "end" else repr(str(t.value))

    def expr(self):
        t = self.peek()
        p = self.term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.value in "+-":
                self.take()
                rhs = self.term()
                p = p + rhs if t.value == "+" else p - rhs
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            t = self.peek()
            if t.kind == "op" and t.value == "*":
                self.take()
                p = p * self.factor()
            elif t.kind in ("num", "ident") or (t.kind == "op" and t.value == "("):
                raise ParseError(
                    "implicit multiplication is not allowed; write '*'", t.line, t.col
                )
            else:
                return p

    def factor(self):
        t = self.peek()
        if t.kind == "op" and t.value in "+-":
            self.take()
            inner = self.factor()
            return inner if t.value == "+" else -inner
        return self.power()

    def power(self):
        base = self.primary()
        t = self.peek()
        if t.kind == "op" and t.value == "^":
            self.take()
            e = self.take()
            if e.kind != "num" or e.value.denominator != 1 or e.value <= 0:
                raise ParseError("exponent must be a positive integer", e.line, e.col)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.value == "^":
                raise ParseError("chained '^' needs parentheses", nxt.line, nxt.col)
            return base ** int(e.value)
        return base

    def primary(self):
        t = self.take()
        if t.kind == "num":
            return Polynomial.constant(self.context, t.value)
        if t.kind == "ident":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.value == "(":
                fn = self.functions.get(t.value)
                if fn is None:
                    raise ParseError(f"unknown function {t.value!r}", t.line, t.col)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return fn(arg)
            if t.value in self.env:
                val = self.env[t.value]
                if isinstance(val, (int, Fraction)):
                    return Polynomial.constant(self.context, val)
                return val
            if t.value in self.context._index:
                return Polynomial.variable(self.context, t.value)
            raise ParseError(f"unknown identifier {t.value!r}", t.line, t.col)
        if t.kind == "op" and t.value == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"expected a polynomial, found {self._show(t)}", t.line, t.col)


def parse_polynomial(text, context, env=None, functions=None, line=1, col=1):
    """Parse `text` into a Polynomial over `context`.

    `env` maps extra identifiers to already-built polynomials (or numbers);
    it is consulted before the variable table.  `functions` maps names to
    unary callables, enabling `name(expr)` syntax.
    """
    tokens = _tokenize(text, line, col)
    return _ExprParser(tokens, context, env, functions).parse()


def parse_rational(text, line=None):
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", text)
    if not m:
        raise ParseError(f"expected a rational number, got {text!r}", line)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ParseError("zero denominator in rational literal", line)
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# documents


@dataclass
class Entry:
    key: str | None
    value: str
    line: int


@dataclass
class Document:
    kind: str
    sections: list = field(default_factory=list)  # list of (name, [Entry])

    def all_sections(self, name):
        return [entries for n, entries in self.sections if n == name]

    def section(self, name, required=False):
        found = self.all_sections(name)
        if len(found) > 1:
            raise ParseError(f"section [{name}] appears more than once")
        if not found:
            if required:
                raise ParseError(f"missing required section [{name}]")
            return None
        return found[0]

    def single(self, name, required=True):
        entries = self.section(name, required=required)
        if entries is None:
            return None
        if len(entries) != 1:
            raise ParseError(f"section [{name}] must contain exactly one entry")
        return entries[0]


_SECTION_RE = re.compile(r"^\[([a-z0-9_]+)\]$")

KNOWN_KINDS = (
    "polynomial",
    "ideal",
    "presentation",
    "morphism",
    "action",
    "stratum",
    "claims",
)


def parse_document(text: str) -> Document:
    """Split a sectioned key-value document into raw entries.

    Structure only: values are kept as verbatim strings for the kind
    specific loaders to interpret.
    """
    sections = []
    current = None
    kind = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _SECTION_RE.match(line.strip())
        if m:
            current = (m.group(1), [])
            sections.append(current)
            continue
        if current is None:
            raise ParseError("content before the first [section] header", lineno)
        entry_text = line.strip()
        key = None
        if ":" in entry_text:
            head, tail = entry_text.split(":", 1)
            key = head.strip()
            entry_text = tail.strip()
        current[1].append(Entry(key, entry_text, lineno))
    if not sections:
        raise ParseError("empty document")
    name, entries = sections[0]
    if name != "kind":
        raise ParseError("document must start with a [kind] section", entries[0].line if entries else 1)
    if len(entries) != 1 or entries[0].key is not None:
        raise ParseError("[kind] must contain a single bare value")
    kind = entries[0].value
    if kind not in KNOWN_KINDS:
        raise ParseError(f"unknown document kind {kind!r}", entries[0].line)
    return Document(kind, sections[1:])


_NAME_WEIGHT_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((\d+)\))?$")


def parse_vartable(entries) -> VarTable:
    """Read `[vars]`-style entries: `name`, `name(weight)` or `name: weight`."""
    names, weights = [], []
    for e in entries:
        text = e.key if e.key is not None else e.value
        m = _NAME_WEIGHT_RE.match(text.strip())
        if not m:
            raise ParseError(f"bad variable declaration {text!r}", e.line)
        names.append(m.group(1))
        if m.group(2) is not None:
            w = int(m.group(2))
        elif e.key is not None:
            w = int(parse_rational(e.value, e.line))
        else:
            w = 1
        weights.append(w)
    try:
        return VarTable(names, weights)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def doc_vars(doc: Document) -> VarTable:
    """The `[vars]` table, with weights overridden by an optional
    `[weights]` section of `name: weight` entries."""
    table = parse_vartable(doc.section("vars", required=True))
    weight_entries = doc.section("weights")
    if not weight_entries:
        return table
    weights = list(table.weights)
    for entry in weight_entries:
        if entry.key is None:
            raise ParseError("entries in [weights] must look like `name: weight`",
                             entry.line)
        if entry.key not in table.names:
            raise ParseError(f"unknown variable {entry.key!r}", entry.line)
        value = parse_rational(entry.value, entry.line)
        if value.denominator != 1 or value <= 0:
            raise ParseError(f"weight of {entry.key} must be a positive integer",
                             entry.line)
        weights[table.index(entry.key)] = int(value)
    return VarTable(table.names, weights)


def doc_polynomials(doc: Document, section: str, table: VarTable) -> list:
    """The entries of `section`, each parsed over `table` from its own line."""
    return [parse_polynomial(e.value, table, line=e.line)
            for e in doc.section(section) or ()]


def parse_name_weight(text, line=None):
    """Split a `name(weight)` declaration, weight defaulting to 1."""
    m = _NAME_WEIGHT_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad declaration {text!r}", line)
    return m.group(1), int(m.group(2)) if m.group(2) else 1


def split_list(value):
    """Split a `;`-separated value list, dropping empty pieces."""
    return [piece.strip() for piece in value.split(";") if piece.strip()]


def parse_group(entries) -> list:
    """Read `[group]` entries, one generator each: `a -> b; b -> -a`.

    Returns one {source: image text} dict per generator; the images are
    interpreted by `GroupAction`.
    """
    generators = []
    for e in entries:
        generator = {}
        for piece in split_list(e.value if e.key is None else f"{e.key}: {e.value}"):
            if "->" not in piece:
                raise ParseError(f"bad group image {piece!r}", e.line)
            src, dst = piece.split("->", 1)
            generator[src.strip()] = dst.strip()
        generators.append(generator)
    return generators

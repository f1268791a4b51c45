"""Parsing and printing for polynomial expressions and input documents.

The polynomial grammar is deliberately small: rational literals `a` or
`a/b`, identifiers, `+ - * ^`, parentheses.  `^` binds tighter than `*`,
which binds tighter than `+` and `-`; exponents are positive integer
literals; implicit multiplication is rejected; `/` is only legal inside a
rational literal.  Claim expressions may additionally use unary functions
(`transfer(...)`, `reynolds(...)`) when the caller supplies them.

Documents are line oriented: `[section]` headers followed by entries that
are either bare values or `key: value` pairs, with `#` comments.  Every
document starts with a [kind] section naming its type.  Every data file is
read by `read_document`, so every input error in one names its file, every
variable declaration by `parse_declaration` and every map by `parse_map`.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .polyarith import NAME, Polynomial, VarTable


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
    rf"""
    (?P<ws>\s+)
  | (?P<num>\d+(?:/\d+)?)
  | (?P<ident>{NAME.pattern})
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
                return self.context.own(self.env[t.value])
            if t.value in self.context._position:
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
    col: int  # column of the line where `value` starts

    @property
    def text(self) -> str:
        """The entry as written, a `key: value` pair joined again."""
        return self.value if self.key is None else f"{self.key}: {self.value}"

    def pieces(self, sep=None) -> list:
        """The `;` items of the value that hold text, each an Entry at its own
        column; with `sep`, each `name <sep> value` item keyed by its name."""
        items = []
        for m in re.finditer(r"[^;\s](?:[^;]*[^;\s])?", self.value):  # stripped items
            key, text, start = None, m.group(), m.start()
            if sep is not None:
                key, found, value = text.partition(sep)
                if not found:
                    raise ParseError(f"item {text!r} has no {sep!r}", self.line)
                start += len(key) + len(sep) + len(value) - len(value.lstrip())
                key, text = key.strip(), value.strip()
            items.append(Entry(key, text, self.line, self.col + start))
        return items


@dataclass
class Document:
    kind: str
    sections: list = field(default_factory=list)  # list of (name, header line, [Entry])
    kind_line: int = 1
    source: str | None = None  # the file `read_document` read it from

    def section(self, name, required=False):
        found = [(line, entries) for n, line, entries in self.sections if n == name]
        if len(found) > 1:
            raise ParseError(f"section [{name}] appears more than once", found[1][0])
        if not found:
            if required:
                raise ParseError(f"missing required section [{name}]")
            return None
        return found[0][1]

    def single(self, name, required=True):
        entries = self.section(name, required=required)
        if entries is None:
            return None
        if len(entries) != 1:
            line = next(line for n, line, _ in self.sections if n == name)
            raise ParseError(f"section [{name}] must contain exactly one entry", line)
        return entries[0]

    def keyed(self, name, shape, required=False) -> dict:
        """Section `name` by key: every entry looks like `shape`, no key twice."""
        entries = self.section(name, required=required) or []
        for e in entries:
            if e.key is None:
                raise ParseError(f"entries in [{name}] must look like `{shape}`", e.line)
        return parse_map(((e.key, e, e.line) for e in entries), f"[{name}]")


_SECTION_RE = re.compile(r"^\[([a-z0-9_]+)\]$")

# the sections each kind of document may have after its [kind]
SECTIONS = {"ideal": ("vars", "weights", "relations"),
            "presentation": ("vars", "weights", "relations"),
            "morphism": ("source", "target", "images", "relations"),
            "action": ("vars", "weights", "group"), "claims": ("claim",),
            "stratum": ("label", "vars", "weights", "group", "defs", "ring", "top",
                        "restrict", "pairs", "new", "tags")}


def parse_document(text: str) -> Document:
    """Split a sectioned key-value document into raw entries.

    Structure only: values are kept as verbatim strings for the kind
    specific loaders to interpret.
    """
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _SECTION_RE.match(line.strip())
        if m:
            current = (m.group(1), lineno, [])
            sections.append(current)
            continue
        if current is None:
            raise ParseError("content before the first [section] header", lineno)
        entry_text = line.lstrip()
        start = len(line) - len(entry_text)  # where the value starts, 0-based
        key = None
        if ":" in entry_text:
            head, tail = entry_text.split(":", 1)
            key = head.strip()
            entry_text = tail.strip()
            start += len(head) + 1 + len(tail) - len(tail.lstrip())
        current[2].append(Entry(key, entry_text, lineno, start + 1))
    if not sections:
        raise ParseError("empty document")
    name, _, entries = sections[0]
    if name != "kind":
        raise ParseError("document must start with a [kind] section", entries[0].line if entries else 1)
    if len(entries) != 1 or entries[0].key is not None:
        raise ParseError("[kind] must contain a single bare value")
    kind = entries[0].value
    if kind not in SECTIONS:
        raise ParseError(f"unknown document kind {kind!r}", entries[0].line)
    return Document(kind, sections[1:], entries[0].line)


@contextmanager
def in_file(source):
    """A block whose every input error is raised again, of its type, as
    `source: message` (at its line and column); None changes nothing."""
    try:
        yield
    except ValueError as exc:
        if source is None:
            raise
        if isinstance(exc, ParseError):
            raise ParseError(f"{source}: {exc.message}", exc.line, exc.col) from None
        raise type(exc)(f"{source}: {exc}") from None


@contextmanager
def read_document(path, kinds: tuple):
    """The document in the file (or package resource) at `path`, of one of
    `kinds` and only its kind's sections, for the `with` block that reads it.
    An input error of the read or of the block names `path`, its `source`."""
    source = str(path)
    with in_file(source):
        path = Path(path) if isinstance(path, (str, os.PathLike)) else path
        try:
            doc = parse_document(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text at byte {exc.start}") from None
        if doc.kind not in kinds:
            article = "an" if kinds[0][0] in "aeiou" else "a"
            raise ParseError(f"expected {article} {' or '.join(kinds)} document, "
                             f"got {doc.kind!r}", doc.kind_line)
        for name, line, _ in doc.sections:
            if name not in SECTIONS[doc.kind]:
                raise ParseError(f"{doc.kind} documents have no section [{name}]", line)
        doc.source = source
        yield doc


_DECLARATION_RE = re.compile(rf"({NAME.pattern})\s*(?:\((.*)\)|:(.*))?")


def parse_declaration(text: str, line=None) -> tuple:
    """A variable declaration `name`, `name(w)` or `name: w` as (name, w):
    the weight w is a positive integer, 1 when none is given."""
    m = _DECLARATION_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(f"bad variable declaration {text!r}", line)
    name, *given = m.groups()  # the weight in parentheses, or after a colon
    weight = next((w.strip() for w in given if w is not None), "1")
    if not re.fullmatch(r"[0-9]+", weight) or int(weight) == 0:
        raise ParseError(f"weight of {name} must be a positive integer", line)
    return name, int(weight)


def parse_vartable(entries) -> VarTable:
    """The table of `[vars]`-style entries, one declaration each."""
    declared = [parse_declaration(e.text, e.line) for e in entries]
    try:
        return VarTable([name for name, _ in declared], [w for _, w in declared])
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def doc_vars(doc: Document) -> VarTable:
    """The `[vars]` table, with weights overridden by an optional
    `[weights]` section of `name: weight` entries."""
    table = parse_vartable(doc.section("vars", required=True))
    weights = dict(zip(table.names, table.weights))
    for name, entry in doc.keyed("weights", "name: weight").items():
        if name not in weights:
            raise ParseError(f"unknown variable {name!r}", entry.line)
        weights[name] = parse_declaration(entry.text, entry.line)[1]
    return VarTable(table.names, weights.values())


def doc_polynomials(doc: Document, section: str, table: VarTable) -> list:
    """The entries of `section`, each parsed over `table` from its own line."""
    return [parse_polynomial(e.value, table, line=e.line, col=e.col)
            for e in doc.section(section) or ()]


def split_list(value):
    """Split a `;`-separated value list, dropping empty pieces."""
    return [e.value for e in Entry(None, value, None, 1).pieces()]


def split_pairs(value, sep, line=None) -> list:
    """The `name <sep> value` items of a `;` list as (name, value, line)."""
    return [(e.key, e.value, line) for e in Entry(None, value, line, 1).pieces(sep)]


def parse_map(pairs, what, names=None) -> dict:
    """{name: value} of (name, value, line) triples, read as `what`: a name
    given twice, or outside `names` when given, or one of `names` left out
    is a ParseError."""
    found = {}
    for name, value, line in pairs:
        if name in found:
            raise ParseError(f"{what} gives {name} more than once", line)
        if names is not None and name not in names:
            raise ParseError(f"{what} names {name}, not one of {', '.join(names)}", line)
        found[name] = value
    missing = [name for name in names or () if name not in found]
    if missing:
        raise ParseError(f"{what} gives no value for {', '.join(missing)}")
    return found


def parse_group(entries) -> list:
    """One {source: image text} dict per `[group]` entry `a -> b; b -> -a`,
    for `GroupAction` to read."""
    return [parse_map(split_pairs(e.text, "->", e.line), "[group]") for e in entries]

"""Concrete syntax: a recursive-descent parser and a matching renderer.

Grammar summary (ASCII only):

* tense formulas: atoms ``[a-z][a-zA-Z0-9_]*``, ``false``, ``true``;
  prefix ``~ G H F P X`` bind tightest, then ``&``, then ``|``, then ``->``
  (right associative).
* relational formulas: ``x < y``, ``x = y``, ``x <. y``, ``empty``; prefix
  ``!``; ``/\\`` then ``\\/`` then ``=>`` (right associative);
  ``forall x. r`` and ``exists x. r`` scope as far right as possible.
* labeled formulas: ``x : A``.

Each sort has one precedence table of its binary connectives
(``_FORMULA_OPS``, ``_RWFF_OPS``), and one precedence-climbing loop,
``_binary``, parses both.  The renderer reads the same tables: the classes
of the two sorts are disjoint, so one table-driven ``_render`` serves both.

``parse(render(e)) == e`` for every entity ``e`` produced by this package.
"""

from __future__ import annotations

import re
from functools import partial

from .syntax import (
    And, Atom, Eq, Empty, Exists, F, Falsum, Forall, G, H, Implies, Less,
    Lwff, Not, Or, P, Prec, RAnd, RImplies, RNot, ROr, Top, X,
)

KEYWORDS = {"false", "true", "forall", "exists", "empty"}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[a-z][a-zA-Z0-9_]*)"
    r"|(?P<op>->|=>|<\.|/\\|\\/|[GHFPX~!&|()<=:.])"
    r")"
)


class ParseError(ValueError):
    """Syntax error with position and the tokens that would have been legal."""

    def __init__(self, text: str, pos: int, expected: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"line {line}, column {col}: expected {expected}")
        self.line = line
        self.column = col
        self.expected = expected


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise ParseError(text, len(text) - len(stripped), "a token")
            if m.group("ident"):
                word = m.group("ident")
                kind = word if word in KEYWORDS else "ident"
                self.toks.append((kind, word, m.start("ident")))
            else:
                self.toks.append((m.group("op"), m.group("op"), m.start("op")))
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def value(self) -> str:
        return self.toks[self.i][1]

    def pos(self) -> int:
        return self.toks[self.i][2] if self.i < len(self.toks) else len(self.text)

    def take(self, kind: str, expected: str | None = None) -> str:
        if self.peek() != kind:
            raise ParseError(self.text, self.pos(), expected or repr(kind))
        val = self.value()
        self.i += 1
        return val

    def done(self):
        if self.i < len(self.toks):
            raise ParseError(self.text, self.pos(), "end of input")


# ---------------------------------------------------------------------------
# Binary connectives: one precedence table per sort

# operator token -> (level, class); a higher level binds tighter, and every
# binary connective is right associative
_FORMULA_OPS = {"->": (0, Implies), "|": (1, Or), "&": (2, And)}
_RWFF_OPS = {"=>": (0, RImplies), "\\/": (1, ROr), "/\\": (2, RAnd)}


def _binary(levels: dict, unary, t: _Tokens, least: int = 0):
    """The longest formula at ``t`` whose binary connectives (in
    ``levels``) all have level ``least`` or more (precedence climbing)."""
    left = unary(t)
    while True:
        op = t.peek()
        entry = levels.get(op)
        if entry is None or entry[0] < least:
            return left
        t.take(op)
        level, cls = entry
        left = cls(left, _binary(levels, unary, t, level))


# ---------------------------------------------------------------------------
# Tense formulas

_PREFIX = {"~": Not, "G": G, "H": H, "F": F, "P": P, "X": X}


def _formula_unary(t: _Tokens):
    kind = t.peek()
    if kind in _PREFIX:
        t.take(kind)
        return _PREFIX[kind](_formula_unary(t))
    return _formula_primary(t)


def _formula_primary(t: _Tokens):
    kind = t.peek()
    if kind == "false":
        t.take("false")
        return Falsum()
    if kind == "true":
        t.take("true")
        return Top()
    if kind == "ident":
        return Atom(t.take("ident"))
    if kind == "(":
        t.take("(")
        phi = _formula(t)
        t.take(")", "')'")
        return phi
    raise ParseError(t.text, t.pos(), "an atom, 'false', 'true', prefix operator or '('")


_formula = partial(_binary, _FORMULA_OPS, _formula_unary)


# ---------------------------------------------------------------------------
# Relational formulas

_RELATIONS = {"<": Less, "=": Eq, "<.": Prec}

def _rwff_unary(t: _Tokens):
    kind = t.peek()
    if kind == "!":
        t.take("!")
        return RNot(_rwff_unary(t))
    if kind == "forall":
        t.take("forall")
        var = t.take("ident", "a bound label")
        t.take(".", "'.'")
        return Forall(var, _rwff(t))
    if kind == "exists":
        t.take("exists")
        var = t.take("ident", "a bound label")
        t.take(".", "'.'")
        return Exists(var, _rwff(t))
    return _rwff_primary(t)


def _rwff_primary(t: _Tokens):
    kind = t.peek()
    if kind == "empty":
        t.take("empty")
        return Empty()
    if kind == "(":
        t.take("(")
        rho = _rwff(t)
        t.take(")", "')'")
        return rho
    if kind == "ident":
        x = t.take("ident")
        op = t.peek()
        if op not in _RELATIONS:
            raise ParseError(t.text, t.pos(), "'<', '=' or '<.'")
        t.take(op)
        return _RELATIONS[op](x, t.take("ident", "a label"))
    raise ParseError(t.text, t.pos(), "'empty', '!', a quantifier, a label or '('")


_rwff = partial(_binary, _RWFF_OPS, _rwff_unary)


# ---------------------------------------------------------------------------
# Entry points

def parse_formula(text: str):
    t = _Tokens(text)
    phi = _formula(t)
    t.done()
    return phi


def parse_rwff(text: str):
    t = _Tokens(text)
    rho = _rwff(t)
    t.done()
    return rho


def parse_lwff(text: str) -> Lwff:
    t = _Tokens(text)
    label = t.take("ident", "a label")
    t.take(":", "':'")
    phi = _formula(t)
    t.done()
    return Lwff(label, phi)


def parse(kind: str, text: str):
    """Parse ``text`` as one of ``formula | rwff | lwff | any``.

    ``any`` sniffs an lwff by a top-level ``label :`` prefix and otherwise
    parses a relational formula.
    """
    if kind == "formula":
        return parse_formula(text)
    if kind == "rwff":
        return parse_rwff(text)
    if kind == "lwff":
        return parse_lwff(text)
    if kind == "any":
        t = _Tokens(text)
        if len(t.toks) >= 2 and t.toks[0][0] == "ident" and t.toks[1][0] == ":":
            return parse_lwff(text)
        return parse_rwff(text)
    raise ValueError(f"unknown parse kind {kind!r}")


# ---------------------------------------------------------------------------
# Rendering: the classes of the two sorts are disjoint, so one table serves

_UNARY = 3       # the level of the prefix operators, above every binary one
_BINARY = {cls: (level, op) for ops in (_FORMULA_OPS, _RWFF_OPS)
           for op, (level, cls) in ops.items()}
_PREFIX_TEXT = {Not: "~", G: "G ", H: "H ", F: "F ", P: "P ", X: "X ", RNot: "!"}
_CONSTANT = {Falsum: "false", Top: "true", Empty: "empty"}
_RELATION = {cls: op for op, cls in _RELATIONS.items()}
_BINDER = {Forall: "forall", Exists: "exists"}


def _render(e, context: int) -> str:
    """``e`` as text in a place that needs level ``context`` or tighter."""
    cls = e.__class__
    if cls in _BINARY:
        level, op = _BINARY[cls]
        text = f"{_render(e.left, level + 1)} {op} {_render(e.right, level)}"
        return f"({text})" if level < context else text
    if cls in _PREFIX_TEXT:
        return _PREFIX_TEXT[cls] + _render(e.body, _UNARY)
    if cls is Atom:
        return e.name
    if cls in _CONSTANT:
        return _CONSTANT[cls]
    if cls in _RELATION:
        return f"{e.x} {_RELATION[cls]} {e.y}"
    if cls in _BINDER:
        text = f"{_BINDER[cls]} {e.var}. {_render(e.body, 0)}"
        return f"({text})" if context > 0 else text
    raise TypeError(f"cannot render {e!r}")


def render(entity) -> str:
    """Surface text; derived forms keep their surface spelling."""
    if isinstance(entity, Lwff):
        return f"{entity.label} : {_render(entity.formula, 0)}"
    return _render(entity, 0)

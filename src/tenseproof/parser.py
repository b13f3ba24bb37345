"""Concrete syntax: a precedence-climbing parser and a matching renderer.

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
``_climb``, parses both.  The renderer reads the same tables: the classes
of the two sorts are disjoint, so one table-driven ``_render`` serves both.
Neither recurses, so formulas of any nesting depth parse and render.

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
# Precedence climbing, one loop for both sorts

# operator token -> (level, class); a higher level binds tighter, and every
# binary connective is right associative
_FORMULA_OPS = {"->": (0, Implies), "|": (1, Or), "&": (2, And)}
_RWFF_OPS = {"=>": (0, RImplies), "\\/": (1, ROr), "/\\": (2, RAnd)}

_CLIMB = (0, None, None)   # pending: a whole formula
_CLOSE = ")"               # pending: take the closing parenthesis


def _climb(levels: dict, operand, t: _Tokens):
    """The longest formula at ``t`` built from operands read by
    ``operand`` and the binary connectives in ``levels``.

    This is a recursive descent by precedence climbing whose pending calls
    sit on ``pending``, so nesting depth is not bounded by the Python
    stack.  An entry ``(least, left, cls)`` is a climb that accepts only
    connectives of level ``least`` or more; with ``cls`` set it awaits the
    right operand of ``cls`` after ``left``.  Any other entry wraps the
    value handed back: a prefix class, a binder, or ``_CLOSE``.
    ``operand(t, pending)`` either returns an atomic formula or consumes a
    prefix, a binder or an opening parenthesis and pushes what it owes."""
    pending: list = [_CLIMB]
    while pending:
        value = operand(t, pending)
        while value is not None and pending:
            frame = pending.pop()
            if frame is _CLOSE:
                t.take(")", "')'")
                continue
            if type(frame) is not tuple:
                value = frame(value)
                continue
            least, left, cls = frame
            if cls is not None:
                value = cls(left, value)
            entry = levels.get(t.peek())
            if entry is not None and entry[0] >= least:
                t.take(t.peek())
                pending += ((least, value, entry[1]), (entry[0], None, None))
                value = None
    return value


# ---------------------------------------------------------------------------
# Tense formulas

_PREFIX = {"~": Not, "G": G, "H": H, "F": F, "P": P, "X": X}


def _formula_operand(t: _Tokens, pending: list):
    kind = t.peek()
    if kind in _PREFIX:
        t.take(kind)
        pending.append(_PREFIX[kind])
        return None
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
        pending += (_CLOSE, _CLIMB)
        return None
    raise ParseError(t.text, t.pos(), "an atom, 'false', 'true', prefix operator or '('")


_formula = partial(_climb, _FORMULA_OPS, _formula_operand)


# ---------------------------------------------------------------------------
# Relational formulas

_RELATIONS = {"<": Less, "=": Eq, "<.": Prec}
_BINDERS = {"forall": Forall, "exists": Exists}


def _rwff_operand(t: _Tokens, pending: list):
    kind = t.peek()
    if kind == "!":
        t.take("!")
        pending.append(RNot)
        return None
    if kind in _BINDERS:
        t.take(kind)
        var = t.take("ident", "a bound label")
        t.take(".", "'.'")
        pending += (partial(_BINDERS[kind], var), _CLIMB)
        return None
    if kind == "empty":
        t.take("empty")
        return Empty()
    if kind == "(":
        t.take("(")
        pending += (_CLOSE, _CLIMB)
        return None
    if kind == "ident":
        x = t.take("ident")
        op = t.peek()
        if op not in _RELATIONS:
            raise ParseError(t.text, t.pos(), "'<', '=' or '<.'")
        t.take(op)
        return _RELATIONS[op](x, t.take("ident", "a label"))
    raise ParseError(t.text, t.pos(), "'empty', '!', a quantifier, a label or '('")


_rwff = partial(_climb, _RWFF_OPS, _rwff_operand)


# ---------------------------------------------------------------------------
# Entry points

def _lwff(t: _Tokens) -> Lwff:
    label = t.take("ident", "a label")
    t.take(":", "':'")
    return Lwff(label, _formula(t))


def _any(t: _Tokens):
    """An lwff if the tokens start with ``label :``, else an rwff."""
    if len(t.toks) >= 2 and t.toks[0][0] == "ident" and t.toks[1][0] == ":":
        return _lwff(t)
    return _rwff(t)


_READERS = {"formula": _formula, "rwff": _rwff, "lwff": _lwff, "any": _any}


def parse_formula(text: str):
    return parse("formula", text)


def parse_rwff(text: str):
    return parse("rwff", text)


def parse_lwff(text: str) -> Lwff:
    return parse("lwff", text)


def parse(kind: str, text: str):
    """Parse ``text``, tokenized once, as one of ``formula | rwff | lwff |
    any``.

    ``any`` sniffs an lwff by a top-level ``label :`` prefix and otherwise
    parses a relational formula.
    """
    read = _READERS.get(kind)
    if read is None:
        raise ValueError(f"unknown parse kind {kind!r}")
    t = _Tokens(text)
    e = read(t)
    t.done()
    return e


# ---------------------------------------------------------------------------
# Rendering: the classes of the two sorts are disjoint, so one table serves

_UNARY = 3       # the level of the prefix operators, above every binary one
_BINARY = {cls: (level, op) for ops in (_FORMULA_OPS, _RWFF_OPS)
           for op, (level, cls) in ops.items()}
_PREFIX_TEXT = {Not: "~", G: "G ", H: "H ", F: "F ", P: "P ", X: "X ", RNot: "!"}
_CONSTANT = {Falsum: "false", Top: "true", Empty: "empty"}
_RELATION = {cls: op for op, cls in _RELATIONS.items()}
_BINDER = {cls: word for word, cls in _BINDERS.items()}


def _render(e, context: int) -> str:
    """``e`` as text in a place that needs level ``context`` or tighter.
    Pending work is a stack of texts and ``(entity, context)`` pairs."""
    out: list = []
    todo: list = [(e, context)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        e, context = item
        cls = e.__class__
        if cls in _BINARY:
            level, op = _BINARY[cls]
            if level < context:
                out.append("(")
                todo.append(")")
            todo += ((e.right, level), f" {op} ", (e.left, level + 1))
        elif cls in _PREFIX_TEXT:
            out.append(_PREFIX_TEXT[cls])
            todo.append((e.body, _UNARY))
        elif cls is Atom:
            out.append(e.name)
        elif cls in _CONSTANT:
            out.append(_CONSTANT[cls])
        elif cls in _RELATION:
            out.append(f"{e.x} {_RELATION[cls]} {e.y}")
        elif cls in _BINDER:
            if context > 0:
                out.append("(")
                todo.append(")")
            out.append(f"{_BINDER[cls]} {e.var}. ")
            todo.append((e.body, 0))
        else:
            raise TypeError(f"cannot render {e!r}")
    return "".join(out)


def render(entity) -> str:
    """Surface text; derived forms keep their surface spelling."""
    if isinstance(entity, Lwff):
        return f"{entity.label} : {_render(entity.formula, 0)}"
    return _render(entity, 0)

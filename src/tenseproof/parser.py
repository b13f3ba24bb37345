"""Concrete syntax: a precedence-climbing parser and a matching renderer.

Grammar summary (ASCII only):

* tense formulas: atoms ``[a-z][a-zA-Z0-9_]*``, ``false``, ``true``;
  prefix ``~ G H F P X`` bind tightest, then ``&``, then ``|``, then ``->``
  (right associative).
* relational formulas: ``x < y``, ``x = y``, ``x <. y``, ``empty``; prefix
  ``!``; ``/\\`` then ``\\/`` then ``=>`` (right associative);
  ``forall x. r`` and ``exists x. r`` scope as far right as possible.
* labeled formulas: ``x : A``.

A text is scanned once, by one regular expression, into flat lists of
the tokens' kinds, texts and positions (``_scan``); the readers index
those lists.  Each sort has one precedence table of its binary connectives
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

# one token after optional whitespace: a word, an operator, or any other
# non-space character, which is no token
_TOKEN_RE = re.compile(
    r"(\s*)([a-z][a-zA-Z0-9_]*|->|=>|<\.|/\\|\\/|[GHFPX~!&|()<=:.]|\S)"
)
# token text -> kind, for every token but a label (kind ``"ident"``)
_KINDS = {word: word for word in (*KEYWORDS, "->", "=>", "<.", "/\\", "\\/",
                                  *"GHFPX~!&|()<=:.")}


class ParseError(ValueError):
    """Syntax error with position and the tokens that would have been legal."""

    def __init__(self, text: str, pos: int, expected: str):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"line {line}, column {col}: expected {expected}")
        self.line = line
        self.column = col
        self.expected = expected


def _scan(text: str) -> tuple:
    """``text`` in one scan as flat lists: ``(text, kinds, values,
    starts)``, the kind, text and position of each token.  Both ``kinds``
    and ``starts`` end with one more entry, the end of input: kind ``None``
    at position ``len(text)``, so a reader peeks past the last token
    without a bounds test."""
    kinds, values, starts, pos = [], [], [], 0
    # the scan stops before trailing whitespace, where a search would try
    # every start and so cost the square of its length
    for space, value in _TOKEN_RE.findall(text, 0, len(text.rstrip())):
        pos += len(space)
        kind = _KINDS.get(value)
        if kind is None:
            if not "a" <= value[0] <= "z":
                raise ParseError(text, pos, "a token")
            kind = "ident"
        kinds.append(kind)
        values.append(value)
        starts.append(pos)
        pos += len(value)
    kinds.append(None)
    starts.append(len(text))
    return text, kinds, values, starts


def _fail(t: tuple, i: int, expected: str):
    raise ParseError(t[0], t[3][i], expected)


def _take(t: tuple, i: int, kind: str, expected: str) -> int:
    """The index past token ``i``, which must be of ``kind``."""
    if t[1][i] != kind:
        _fail(t, i, expected)
    return i + 1


# ---------------------------------------------------------------------------
# Precedence climbing, one loop for both sorts

# operator token -> (level, class); a higher level binds tighter, and every
# binary connective is right associative
_FORMULA_OPS = {"->": (0, Implies), "|": (1, Or), "&": (2, And)}
_RWFF_OPS = {"=>": (0, RImplies), "\\/": (1, ROr), "/\\": (2, RAnd)}

_CLIMB = (0, None, None)   # pending: a whole formula
_CLOSE = ")"               # pending: take the closing parenthesis


def _climb(levels: dict, operand, t: tuple, i: int) -> tuple:
    """The longest formula at token ``i`` of ``t`` built from operands read
    by ``operand`` and the binary connectives in ``levels``, and the index
    past it.

    This is a recursive descent by precedence climbing whose pending calls
    sit on ``pending``, so nesting depth is not bounded by the Python
    stack.  An entry ``(least, left, cls)`` is a climb that accepts only
    connectives of level ``least`` or more; with ``cls`` set it awaits the
    right operand of ``cls`` after ``left``.  Any other entry wraps the
    value handed back: a prefix class, a binder, or ``_CLOSE``.
    ``operand(t, i, pending)`` returns ``(value, index)``: it either reads
    an atomic formula or consumes a prefix, a binder or an opening
    parenthesis, pushes what it owes and gives the value ``None``."""
    kinds = t[1]
    pending: list = [_CLIMB]
    while pending:
        value, i = operand(t, i, pending)
        while value is not None and pending:
            frame = pending.pop()
            if frame is _CLOSE:
                i = _take(t, i, ")", "')'")
                continue
            if type(frame) is not tuple:
                value = frame(value)
                continue
            least, left, cls = frame
            if cls is not None:
                value = cls(left, value)
            entry = levels.get(kinds[i])
            if entry is not None and entry[0] >= least:
                i += 1
                pending += ((least, value, entry[1]), (entry[0], None, None))
                value = None
    return value, i


# ---------------------------------------------------------------------------
# Tense formulas

_PREFIX = {"~": Not, "G": G, "H": H, "F": F, "P": P, "X": X}


def _formula_operand(t: tuple, i: int, pending: list) -> tuple:
    kind = t[1][i]
    if kind == "ident":
        return Atom(t[2][i]), i + 1
    if kind in _PREFIX:
        pending.append(_PREFIX[kind])
    elif kind == "(":
        pending += (_CLOSE, _CLIMB)
    elif kind == "false":
        return Falsum(), i + 1
    elif kind == "true":
        return Top(), i + 1
    else:
        _fail(t, i, "an atom, 'false', 'true', prefix operator or '('")
    return None, i + 1


_formula = partial(_climb, _FORMULA_OPS, _formula_operand)


# ---------------------------------------------------------------------------
# Relational formulas

_RELATIONS = {"<": Less, "=": Eq, "<.": Prec}
_BINDERS = {"forall": Forall, "exists": Exists}


def _rwff_operand(t: tuple, i: int, pending: list) -> tuple:
    kinds, values = t[1], t[2]
    kind = kinds[i]
    if kind == "ident":
        relation = _RELATIONS.get(kinds[i + 1])
        if relation is None:
            _fail(t, i + 1, "'<', '=' or '<.'")
        _take(t, i + 2, "ident", "a label")
        return relation(values[i], values[i + 2]), i + 3
    if kind == "!":
        pending.append(RNot)
    elif kind in _BINDERS:
        _take(t, i + 1, "ident", "a bound label")
        _take(t, i + 2, ".", "'.'")
        pending += (partial(_BINDERS[kind], values[i + 1]), _CLIMB)
        return None, i + 3
    elif kind == "(":
        pending += (_CLOSE, _CLIMB)
    elif kind == "empty":
        return Empty(), i + 1
    else:
        _fail(t, i, "'empty', '!', a quantifier, a label or '('")
    return None, i + 1


_rwff = partial(_climb, _RWFF_OPS, _rwff_operand)


# ---------------------------------------------------------------------------
# Entry points

def _lwff(t: tuple, i: int) -> tuple:
    _take(t, i, "ident", "a label")
    formula, j = _formula(t, _take(t, i + 1, ":", "':'"))
    return Lwff(t[2][i], formula), j


def _any(t: tuple, i: int) -> tuple:
    """An lwff if the tokens start with ``label :``, else an rwff."""
    if t[1][i] == "ident" and t[1][i + 1] == ":":
        return _lwff(t, i)
    return _rwff(t, i)


_READERS = {"formula": _formula, "rwff": _rwff, "lwff": _lwff, "any": _any}


def parse_formula(text: str):
    return parse("formula", text)


def parse_rwff(text: str):
    return parse("rwff", text)


def parse_lwff(text: str) -> Lwff:
    return parse("lwff", text)


def parse(kind: str, text: str):
    """Parse ``text``, scanned once, as one of ``formula | rwff | lwff |
    any``.

    ``any`` sniffs an lwff by a top-level ``label :`` prefix and otherwise
    parses a relational formula.
    """
    read = _READERS.get(kind)
    if read is None:
        raise ValueError(f"unknown parse kind {kind!r}")
    t = _scan(text)
    e, i = read(t, 0)
    if t[1][i] is not None:
        _fail(t, i, "end of input")
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

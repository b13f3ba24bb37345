"""The load path as the library wrote it before it read a derivation in
one loop, kept verbatim as the reference the new code is compared against:
the ``_Tokens`` parser, a token object with ``peek``/``take`` methods and
one regular-expression match per token, and ``from_json`` as a ``fold``
whose ``visit`` and ``build`` closures read each field through ``_field``.
It ignores a node field of any other name, where the library rejects it."""

from __future__ import annotations

import re
from functools import partial

from tenseproof.derivation import Conclusion, Derivation, brief_repr, fold
from tenseproof.parser import KEYWORDS, ParseError
from tenseproof.syntax import (
    And, Atom, Empty, Eq, Exists, F, Falsum, Forall, G, H, Implies, Less,
    Lwff, Not, Or, P, Prec, RAnd, RImplies, RNot, ROr, Top, X,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[a-z][a-zA-Z0-9_]*)"
    r"|(?P<op>->|=>|<\.|/\\|\\/|[GHFPX~!&|()<=:.])"
    r")"
)


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


def parse_conclusion(text: str) -> Conclusion:
    return parse("any", text)


def _field(obj: dict, key: str, kind: type):
    """``obj[key]`` if absent or exactly of ``kind`` (so no bool for int)."""
    value = obj.get(key)
    if value is not None and type(value) is not kind:
        raise ValueError(f"derivation field {key!r} must be {kind.__name__}, "
                         f"not {brief_repr(value)}")
    return value


def from_json(obj: dict) -> Derivation:
    """The derivation a JSON object describes.  A node's own fields are
    checked before its premises are read, its conclusion after.  Each
    distinct conclusion text is parsed once: equal texts are one formula."""
    from tenseproof.rules import RULES

    parsed: dict = {}

    def visit(obj) -> tuple:
        if not isinstance(obj, dict):
            raise ValueError(f"derivation node must be a JSON object, not {brief_repr(obj)}")
        rule = obj.get("rule")
        if not isinstance(rule, str):
            raise ValueError("derivation node lacks a 'rule' string")
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}")
        discharges = _field(obj, "discharges", list) or ()
        if not all(type(m) is int for m in discharges):
            raise ValueError(f"derivation field 'discharges' must list ints, "
                             f"not {brief_repr(discharges)}")
        return obj, _field(obj, "premises", list) or ()

    def build(obj: dict, premises: list) -> Derivation:
        rule = obj["rule"]
        text = _field(obj, "conclusion", str)
        if text is None:
            template = RULES[rule].axiom_template
            if template is None:
                raise ValueError(f"node for rule {rule!r} lacks a conclusion")
            conclusion: Conclusion = template
        else:
            conclusion = parsed.get(text)
            if conclusion is None:
                conclusion = parsed[text] = parse_conclusion(text)
        return Derivation(
            rule, conclusion, tuple(premises),
            marker=_field(obj, "marker", int),
            discharges=frozenset(obj.get("discharges") or ()),
            fresh=_field(obj, "fresh", str),
            position=_field(obj, "position", int),
        )

    return fold(obj, build, visit)

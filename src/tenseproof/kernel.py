"""The proof checker and the derived-rule expander.

``check`` validates a derivation tree node by node: premise/conclusion
patterns, discharge bookkeeping, freshness side conditions, and profile
gating for axiom rules.  It never raises on a bad proof; it collects
violations with node paths.

Each derived rule is stated once, as an expander that rewrites its node
into a core template, built once over the premises it is handed.  An
expander reads a derived connective's parts off its expansion
(``_unexpand``); a node whose formulas lack the shape its rule needs is a
``PatternMismatch``.  One expander serves the introductions of ``F``, ``P``
and ``exists`` and one their eliminations, opening the ``G``, ``H`` or
``forall`` they negate through ``_opening``.  ``expand_derived`` hands it
the expanded premises; ``check`` hands it stand-ins for them
(``_standin_template``), checks the template's core nodes in context and
reports every violation at the derived node.  A clean verdict is kept in two
places, neither outliving what it reads: on the node, in its ``_clean``
memo slot, since the verdict reads only the node's subtree; and for the
rest of the call, by the node up to a one-to-one renaming of its labels
(``_Checker._key``), since most derived nodes of a proof are label
renamings of one another.  Neither serves a node that discharges a leaf
lying outside it.  The module keeps no state between calls.

The calculus is two copies of one minimal propositional calculus, joined
only by uf1 and uf2: a labeled copy (``imp_i``, ``imp_e``, ``raa_bot``,
falsum ``x : false``) and a relational copy (``rimp_i``, ``rimp_e``,
``raa_empty``, falsum ``empty``).  A ``_Sort`` record (``LAB``, ``REL``)
holds what tells them apart, and each rule they share is written once over
it: one validator serves ``raa_bot`` and ``raa_empty``, one expander serves
``and_i`` and ``rand_i``, and so on.  ``_falsum_at`` carries a falsum
between the sorts and labels, and ``_conclude`` ends a case split by the
reductio of its conclusion's sort.

Every connective that is not atomic has one introduction and one
elimination: the implication of either sort, ``G``, ``H``, ``X`` and
``forall``, named in ``rules.CONNECTIVE_RULES``.  ``_CONNECTIVES`` adds the
sort of each, ``_TENSE`` the relation of each temporal operator, and
``_opening`` states the whole table once: for a formula, its connective's
rules, the hypothesis the introduction discharges, and what the elimination
concludes, opened at a label for a quantifier or temporal operator.  It is
the one table the checker, the normalizer's reductio restriction and its
mon transport read.  The checker has one validator for every introduction,
which opens the conclusion at the node's fresh label, and one for every
elimination, which opens the major premise at the conclusion's label (for
``all_e``, at the label the conclusion instantiates it with); each compares
the premises and the conclusion with the parts.  The eigenlabel condition
is one test: the fresh label is free neither in the conclusion nor in an
open assumption of the premise other than the hypotheses discharged.  One
validator, ``_axiom``, serves every axiom rule; ``_VALIDATOR`` is the
dispatch.

``check`` names a node by its number in the tree's index
(``derivation.index``) and spells its root path (``path_to``) only in a
report.  It validates the nodes in post-order and asks the index for the
open leaves that freshness and the open context need.  A derived node's
template gets its own index (``_Template``), whose stand-ins take their
open leaves from the premises' ranges in the outer tree.

``expand_derived`` builds the nodes in the index's post-order, each derived
node's expander given the leaves it discharges (``_held``).  A case split
may move the leaves of a marker it discharges in two places to a marker of
their own (``_split``), noting them by number.  Each leaf of a marker a
derived node discharges is built as an object of its own, so the moved
ones get their marker where they lie once every node is built.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import Callable

from .derivation import (
    ASSUME, Derivation, MarkerGen, all_markers, assume, index, node, path_to,
    with_premises,
)
from .rules import CONNECTIVE_RULES, KL, RULES, LogicProfile
from .syntax import (
    And, Atom, Empty, Eq, Exists, F, Falsum, Forall, G, H, Implies, Less,
    Lwff, Not, Or, P, Prec, ProofContext, RAnd, RImplies, RNot, ROr, X, canon,
    core_eq, expand, label_skeleton, labels_of, match_labels,
    substitute_label,
)

F_ = Falsum()
E_ = Empty()


@dataclass(frozen=True)
class _Sort:
    """One of the two copies of the minimal propositional calculus: its
    implication and falsum, its three rules, and how it states a formula
    ``a`` at a label ``x``.  ``LAB`` states ``x : a``; ``REL`` states ``a``
    itself, and its label is ``None``.  The rules the copies share are
    written once over this record; ``at``, ``split`` and ``neg`` are plain
    callables, as cheap as the constructors they stand for."""
    labeled: bool
    name: str          # "a {name} formula"
    imp: type          # Implies | RImplies
    falsum: object     # F_ | E_
    bottom: str        # the falsum's name in messages
    imp_e: str
    imp_i: str
    raa: str
    at: Callable       # at(x, a): ``a`` stated in this sort, at ``x`` if labeled
    split: Callable    # split(c): the label and the formula part of ``c``
    neg: Callable      # neg(a): ``a`` implies this sort's falsum
    not_: type         # its derived connectives: Not | RNot,
    and_: type         # And | RAnd
    or_: type          # Or | ROr


LAB = _Sort(True, "labeled", Implies, F_, "falsum",
            *CONNECTIVE_RULES[Implies], "raa_bot", Lwff,
            attrgetter("label", "formula"), lambda a: Implies(a, F_), Not,
            And, Or)
REL = _Sort(False, "relational", RImplies, E_, "empty",
            *CONNECTIVE_RULES[RImplies], "raa_empty", lambda x, a: a,
            lambda c: (None, c), lambda a: RImplies(a, E_), RNot, RAnd, ROr)
_SORT_OF_RULE = {s.raa: s for s in (LAB, REL)}

# each temporal operator: the relation from the label of the operator
# formula to the label of the body, and its elimination and introduction
# rules
_TENSE = {op: (rel, *CONNECTIVE_RULES[op]) for op, rel in (
    (G, Less), (H, lambda x, y: Less(y, x)), (X, Prec))}
# each connective that is not atomic: its sort, and its elimination and
# introduction rules; and each of those rules with its sort and connective
_CONNECTIVES = {op: (REL if op in (RImplies, Forall) else LAB, *rules)
                for op, rules in CONNECTIVE_RULES.items()}
_CONNECTIVE_OF = {rule: (s, op) for op, (s, *rules) in _CONNECTIVES.items()
                  for rule in rules}


def _opening(s, x, core, fresh) -> tuple:
    """``(elim, intro, hyp, body, z)`` for ``core``, not atomic, stated in
    sort ``s`` at ``x``: ``elim`` takes ``core``, and the minor premise
    ``hyp`` unless it is ``None`` (for ``forall``), to ``body``; ``intro``
    takes ``body`` back to ``core``, discharging ``hyp``.  A quantifier or
    temporal operator opens at ``z = fresh()``, which ``intro`` binds; an
    implication draws no label, and ``z`` is ``None``."""
    _, elim, intro = _CONNECTIVES[type(core)]
    if isinstance(core, s.imp):
        return elim, intro, s.at(x, core.left), s.at(x, core.right), None
    z = fresh()
    if isinstance(core, Forall):
        return elim, intro, None, substitute_label(core.body, z, core.var), z
    return elim, intro, _TENSE[type(core)][0](x, z), Lwff(z, core.body), z


def _sort(c) -> _Sort:
    return LAB if isinstance(c, Lwff) else REL


@dataclass(frozen=True)
class Violation:
    path: tuple
    kind: str      # StructuralError | PatternMismatch | BadDischarge |
                   # FreshnessViolation | AxiomNotInProfile
    message: str

    def __str__(self) -> str:
        where = "/".join(map(str, self.path)) or "root"
        return f"{self.kind} at {where}: {self.message}"


@dataclass(frozen=True)
class CheckReport:
    violations: tuple
    open: ProofContext
    conclusion: object
    is_theorem: bool

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def status(self) -> str:
        return "valid" if self.ok else "invalid"


def open_assumptions(d: Derivation) -> ProofContext:
    """Leaf formulas whose markers are never discharged on their root path,
    split into labeled and relational parts (set semantics)."""
    ix, gamma, delta = index(d), set(), set()
    for leaf in ix.open_leaves(0):
        c = ix.nodes[leaf].conclusion
        (gamma if isinstance(c, Lwff) else delta).add(c)
    return ProofContext.make(gamma, delta)


# rule of the node standing in for premise ``marker`` of a derived node
# while its template is checked; no rule name can equal it
_STANDIN = object()


# ---------------------------------------------------------------------------
# Matching helpers

def _xf(c) -> object:
    """Expanded core of a conclusion's formula part (labels untouched)."""
    return expand(c.formula) if isinstance(c, Lwff) else expand(c)


def match_instantiation(body, var, target):
    """A label ``w`` with ``body[w/var]`` core-equal to ``target``, or
    ``None``; if ``var`` is not free in ``body``, the least label of
    ``target`` and ``var``."""
    env = match_labels(body, target, {var})
    if env is None:
        return None
    return env.get(var) or min(labels_of(target) | {var})


def _atomic_positions(core, label):
    """Label positions (1-based) of ``label`` in an atomic formula."""
    if isinstance(core, Lwff) and isinstance(core.formula, (Atom, Falsum)):
        return [1] if core.label == label else []
    if isinstance(core, (Less, Eq)):
        out = []
        if core.x == label:
            out.append(1)
        if core.y == label:
            out.append(2)
        return out
    return None  # not atomic


def replace_position(core, pos: int, new: str):
    if isinstance(core, Lwff):
        return Lwff(new, core.formula)
    if isinstance(core, (Less, Eq)):
        cls = type(core)
        return cls(new, core.y) if pos == 1 else cls(core.x, new)
    raise ValueError("positional replacement needs an atomic formula")


def mon_positions(major, minor_eq, conclusion):
    """Which single atomic position could this mon application have used?
    Returns a list of positions, or None when only replace-all explains it."""
    core = expand(major)
    a = minor_eq.x
    b = minor_eq.y
    positions = _atomic_positions(core, a)
    if positions is None:
        return None
    return [p for p in positions
            if core_eq(replace_position(core, p, b), conclusion)]


# ---------------------------------------------------------------------------
# The checker

def check(d: Derivation, profile: LogicProfile = KL) -> CheckReport:
    checker = _Checker(profile, d)
    ix = checker.ix
    for k in sorted({k for ks in ix.dischargers.values() for k in ks[1:]}):
        for m in ix.nodes[k].discharges:
            if ix.dischargers[m][0] != k:
                checker.bad(k, "BadDischarge",
                            f"marker {m} already discharged at another node")
    for k in ix.post:
        checker.visit(k, ix.nodes[k])
    violations, open_ctx = tuple(checker.violations), open_assumptions(d)
    return CheckReport(violations, open_ctx, d.conclusion,
                       not violations and open_ctx.is_empty())


def _held(ix, k) -> list:
    """The numbers of the leaves that carry a marker node ``k`` of ``ix``
    discharges: in each of its premises, and last those outside it."""
    starts, end = ix.premises(k), k + ix.size[k]
    held: list = [[] for _ in range(len(starts) + 1)]
    for m in sorted(ix.nodes[k].discharges):
        for leaf in ix.leaves.get(m, ()):
            held[bisect_right(starts, leaf) - 1 if k < leaf < end else -1].append(leaf)
    return held


def _standin_template(n, held, mgen, moves) -> Derivation:
    """The template of derived node ``n`` over stand-ins for its premises,
    each carrying its premise's conclusion and, as premises, its ``held``
    leaves, whose moves it notes in ``moves`` (``_split``); ``_Mismatch``
    if ``n`` lacks the shape its rule needs."""
    return _EXPANDERS[n.rule](Derivation(n.rule, n.conclusion, tuple(
        Derivation(_STANDIN, p.conclusion, tuple(h), marker=i)
        for i, (p, h) in enumerate(zip(n.premises, held))), n.marker,
        n.discharges, n.fresh, n.position), mgen, held, moves)


class _Checker:
    """Validates the nodes of ``tree`` one at a time, each named by its
    number in the tree's index ``ix``; a report turns the number into a
    root path.  ``marker_leaves`` maps each marker to its leaves' numbers."""

    own = frozenset()       # the markers a template makes (``_Template``)

    def __init__(self, profile, tree):
        self.profile, self.tree, self.violations = profile, tree, []
        self.ix = ix = index(tree)
        self.marker_leaves = ix.leaves
        # the markers a template makes lie above ``top``, every marker of
        # the tree, so none closes a leaf of the tree by accident
        self.top = max(chain(ix.leaves, ix.dischargers), default=0)
        self.clean: set = set()     # keys whose template checked clean

    def bad(self, k, kind, message):
        self.violations.append(Violation(path_to(self.tree, k), kind, message))

    def _clash(self, z, n, p):
        """The first leaf ``(tree, number, leaf)`` of premise ``p`` of ``n``
        that is open in the subtree of ``n`` and in which ``z`` is free, or
        ``None``.  The index counts them first, so no leaf is scanned where
        there is none."""
        ix = self.ix
        if not ix.open_above(p, z):
            return None
        return next(((self.tree, k, ix.nodes[k]) for k in ix.open_leaves(ix.parent[p], z)
                     if p <= k < p + ix.size[p]), None)

    # -- traversal -----------------------------------------------------

    def visit(self, k, n) -> None:
        """Validate node ``n``, number ``k``."""
        if n.is_assumption():
            if n.premises:
                self.bad(k, "StructuralError", "assumption with premises")
            if n.discharges or n.fresh is not None or n.position is not None:
                self.bad(k, "StructuralError",
                         "assumption carries rule annotations")
            return

        schema = RULES.get(n.rule)
        if schema is None:
            self.bad(k, "StructuralError", f"unknown rule {n.rule!r}")
            return
        if len(n.premises) != schema.n_premises:
            self.bad(k, "StructuralError",
                     f"{n.rule} takes {schema.n_premises} premises, "
                     f"got {len(n.premises)}")
            return
        if n.marker is not None:
            self.bad(k, "StructuralError", "marker on a non-assumption node")
        if (n.fresh is None) == schema.fresh:
            what = "missing" if n.fresh is None else "unexpected"
            self.bad(k, "StructuralError", f"{what} fresh label on {n.rule}")
        if n.discharges and not schema.discharging:
            self.bad(k, "StructuralError", f"{n.rule} cannot discharge")
        if n.position is not None and n.rule != "mon":
            self.bad(k, "StructuralError", "position only applies to mon")
        if not self.profile.allows(n.rule):
            self.bad(k, "AxiomNotInProfile",
                     f"{n.rule} needs profile extra '{schema.requires}'")

        if schema.kind != "derived":
            self.core(k, n)
            return
        # a missing fresh label is reported above and leaves no template
        checked = ((n.fresh is not None or not schema.fresh)
                   and self._template(k, n))
        if not (checked and schema.discharging):
            # no template discharges the markers this node names
            self._check_discharges(k, n, {})

    def core(self, k, n) -> None:
        """Validate a core node (or a leaf) against its rule."""
        validator = _VALIDATOR.get(n.rule)
        allowed = validator(self, k, n) if validator is not None else None
        self._check_discharges(k, n, allowed or {})

    def _template(self, k, n) -> bool:
        """Check derived node ``n`` through its core template (``_expand``)
        unless it is known clean, on ``n`` (``_clean``) or on a node of its
        key (``_key``); never so while ``n`` discharges a leaf outside it.
        False when ``n`` lacks the shape its rule needs."""
        held = [[self.ix.nodes[j] for j in h] for h in _held(self.ix, k)]
        if held[-1]:
            return self._expand(k, n, held)
        if getattr(n, "_clean", False):
            return True
        key, count = self._key(n, held), len(self.violations)
        if not (key in self.clean and (n.fresh is None or not self._clash(
                n.fresh, n, self.ix.premises(k)[-1]))
                or self._expand(k, n, held)):
            return False
        if len(self.violations) == count:
            self.clean.add(key)
            object.__setattr__(n, "_clean", True)
        return True

    def _key(self, n, held) -> tuple:
        """Derived node ``n`` up to a one-to-one renaming of its labels: its
        rule, whether it has a fresh label, the ``label_skeleton`` of each
        canonical conclusion (node, then premises) and of each ``held`` leaf
        with its marker's rank, and the pattern of repeats in all of those
        labels and the fresh label.

        Soundness: nodes with equal keys are images of each other under the
        renaming ``ρ`` of one's label list to the other's, one to one since
        the patterns agree; ``canon`` names bound labels by position, so
        ``ρ`` takes alpha-variants to alpha-variants.  The expander and the
        template check read these formulas and ranks, and every test they
        make (connectives, sorts, ``core_eq``, equal labels, where a leaf
        lies) gives the same on the image under ``ρ``, but two reads.
        ``match_instantiation`` falls back to the least label by name, which
        ``ρ`` need not keep, only where the variable is not free in the
        body, so the instance is the same whichever label it picks.  And the
        eigenlabel condition of the template's ``g_i``, ``h_i`` or ``all_i``
        reads the minor premise's open leaves that ``n`` does not discharge,
        which the key leaves out: so once a node of its key checked clean,
        ``n`` checks clean if and only if ``_clash`` finds none.  The
        ``_clean`` slot needs no such test: the template check reads only
        ``n``'s immutable subtree, once no leaf of a marker ``n`` discharges
        lies outside it, which ``_template`` tests first on every call."""
        labels: list = []
        ranks = {m: i for i, m in enumerate(
            sorted({leaf.marker for h in held for leaf in h}))}
        key = (n.rule, n.fresh is None, tuple(
            label_skeleton(canon(t.conclusion), labels) for t in (n, *n.premises)),
            tuple(tuple((label_skeleton(canon(leaf.conclusion), labels),
                         ranks[leaf.marker]) for leaf in h) for h in held))
        labels.append(n.fresh)
        first: dict = {}
        return key + (tuple([first.setdefault(x, len(first)) for x in labels]),)

    def _expand(self, k, n, held) -> bool:
        """Check derived node number ``k`` through its core template over
        stand-ins that carry the ``held`` leaves (``_Template``)."""
        moves: dict = {}
        try:
            template = _standin_template(n, held, MarkerGen((self.top,)), moves)
        except _Mismatch as exc:
            self.bad(k, "PatternMismatch", f"{n.rule} needs {exc}")
            return False
        _Template(self, k, n, template, held, moves)
        return True

    def _check_discharges(self, k, n, allowed) -> None:
        """Every leaf carrying a marker ``n`` discharges must lie in a
        premise ``allowed`` names and have one of its shapes."""
        if not n.discharges:
            return
        nodes, starts, end = self.ix.nodes, self.ix.premises(k), k + self.ix.size[k]
        for m in sorted(n.discharges):
            kind = "PatternMismatch" if m in self.own else "BadDischarge"
            for lk in self.marker_leaves.get(m, ()):
                patterns = (allowed.get(bisect_right(starts, lk) - 1)
                            if k < lk < end else None)
                if patterns is None:
                    self.bad(k, kind,
                             f"marker {m} leaf lies outside the premise "
                             f"{n.rule} may discharge from")
                elif not any(core_eq(nodes[lk].conclusion, pat)
                             for pat in patterns):
                    self.bad(k, kind,
                             f"marker {m} leaf does not match the "
                             f"dischargeable shape of {n.rule}")

    # -- the rules both sorts share --------------------------------------

    def _of(self, s, k, c, role) -> bool:
        """Is ``c`` a formula of sort ``s``?  Reported if not."""
        if isinstance(c, Lwff) is not s.labeled:
            self.bad(k, "PatternMismatch", f"{role} must be a {s.name} formula")
            return False
        return True

    def _raa(self, k, n):
        s = _SORT_OF_RULE[n.rule]
        c, p0 = n.conclusion, n.premises[0].conclusion
        if not (self._of(s, k, c, "conclusion") and self._of(s, k, p0, "premise")):
            return {}
        if not isinstance(expand(s.split(p0)[1]), type(s.falsum)):
            self.bad(k, "PatternMismatch",
                     f"premise of {n.rule} must be {s.bottom}")
        x, a = s.split(c)
        return {0: [s.at(x, s.neg(a))]}

    # -- each connective's introduction and elimination ------------------

    def _intro(self, k, n):
        """The premise is the conclusion opened at the node's fresh label;
        the hypothesis of the opening is the shape the node discharges."""
        s, op = _CONNECTIVE_OF[n.rule]
        c, p0 = n.conclusion, n.premises[0].conclusion
        if not (self._of(s, k, c, "conclusion") and self._of(s, k, p0, "premise")):
            return {}
        x, a = s.split(c)
        core = expand(a)
        if not isinstance(core, op):
            self.bad(k, "PatternMismatch",
                     f"{n.rule} conclusion's connective must be {op.__name__}")
            return {}
        if n.fresh is None and RULES[n.rule].fresh:     # reported already
            return {}
        _, _, hyp, body, z = _opening(s, x, core, lambda: n.fresh)
        if not core_eq(p0, body):
            self.bad(k, "PatternMismatch",
                     f"{n.rule} premise must be its conclusion opened")
        if z is not None:
            self._fresh_ok(k, n, z)
        return {} if hyp is None else {0: [hyp]}

    def _fresh_ok(self, k, n, z) -> None:
        """Freshness: the eigenlabel ``z`` of ``n`` is free neither in its
        conclusion nor in an open assumption of its premise other than the
        leaves it discharges."""
        if z in labels_of(n.conclusion):
            self.bad(k, "FreshnessViolation",
                     f"fresh label {z} occurs in the conclusion")
            return
        clash = self._clash(z, n, k + 1)
        if clash is not None:
            tree, lk, _ = clash
            self.bad(k, "FreshnessViolation",
                     f"fresh label {z} occurs in the open assumption "
                     f"at {'/'.join(map(str, path_to(tree, lk)))}")

    def _elim(self, k, n):
        """The major premise opens to the conclusion and the minor premise,
        if any, at the conclusion's label, or for a universal at the label
        the conclusion instantiates it with."""
        s, op = _CONNECTIVE_OF[n.rule]
        c, p0 = n.conclusion, n.premises[0].conclusion
        if not (self._of(s, k, c, "conclusion")
                and self._of(s, k, p0, "major premise")):
            return {}
        x, a = s.split(p0)
        core = expand(a)
        if not isinstance(core, op):
            self.bad(k, "PatternMismatch",
                     f"{n.rule} major premise's connective must be {op.__name__}")
            return {}
        z = s.split(c)[0]
        if op is Forall:        # if no label fits, the body, which fails below
            z = match_instantiation(core.body, core.var, c) or core.var
        _, _, hyp, body, _ = _opening(s, x, core, lambda: z)
        if not (core_eq(c, body)
                and (hyp is None or core_eq(n.premises[1].conclusion, hyp))):
            self.bad(k, "PatternMismatch",
                     f"{n.rule} premises do not open to its conclusion")
        return {}

    def _axiom(self, k, n):
        template = RULES[n.rule].axiom_template
        if not core_eq(n.conclusion, template):
            self.bad(k, "PatternMismatch",
                     f"conclusion of {n.rule} must be its axiom template")
        return {}

    # -- general rules ----------------------------------------------------

    def _mon(self, k, n):
        c, p0, p1 = n.conclusion, n.premises[0].conclusion, n.premises[1].conclusion
        if not self._of(REL, k, p1, "minor premise"):
            return {}
        eq = expand(p1)
        if not isinstance(eq, Eq):
            self.bad(k, "PatternMismatch", "mon minor premise must be an equality")
            return {}
        if isinstance(c, Lwff) != isinstance(p0, Lwff):
            self.bad(k, "PatternMismatch", "mon preserves the formula kind")
            return {}
        if n.position is not None:
            positions = mon_positions(p0, eq, c)
            if positions is None or n.position not in positions:
                self.bad(k, "PatternMismatch",
                         f"mon at position {n.position} does not yield the conclusion")
            return {}
        if not (core_eq(substitute_label(expand(p0), eq.y, eq.x), c)
                or mon_positions(p0, eq, c)):
            self.bad(k, "PatternMismatch",
                     "mon conclusion is neither the full substitution nor a "
                     "single-position replacement")
        return {}

    def _uf(self, k, n):
        """uf1 carries the falsum of sort ``s`` (labeled) to that of sort
        ``t`` (relational); uf2 the other way, to any label."""
        s, t = (LAB, REL) if n.rule == "uf1" else (REL, LAB)
        c, p0 = n.conclusion, n.premises[0].conclusion
        if not (self._of(t, k, c, "conclusion") and self._of(s, k, p0, "premise")):
            return {}
        if not isinstance(expand(s.split(p0)[1]), type(s.falsum)):
            self.bad(k, "PatternMismatch", f"{n.rule} premise must be {s.bottom}")
        if not isinstance(expand(t.split(c)[1]), type(t.falsum)):
            where = " at some label" if t.labeled else ""
            self.bad(k, "PatternMismatch", f"{n.rule} concludes {t.bottom}{where}")
        return {}


# each core and axiom rule with the checker's validator for it
_VALIDATOR = {
    **{rule: validator for rules in CONNECTIVE_RULES.values()
       for rule, validator in zip(rules, (_Checker._elim, _Checker._intro))},
    **{rule: _Checker._axiom for rule, s in RULES.items() if s.kind == "axiom"},
    **dict.fromkeys(_SORT_OF_RULE, _Checker._raa),
    "mon": _Checker._mon, "uf1": _Checker._uf, "uf2": _Checker._uf,
}


class _Template(_Checker):
    """Checks the template of derived node ``n``, number ``at`` of the tree
    ``outer`` checks, and reports every violation at that node.  Its
    stand-ins, not entered, carry the ``held`` leaves, each indexed under
    the marker a split moves it to.  A leaf of one of the template's own
    markers that does not fit is a ``PatternMismatch``: the node's formulas
    do not fit its rule."""

    def __init__(self, outer, at, n, template, held, moves):
        ix = index(template)
        nodes, parent = ix.nodes, ix.parent
        table: dict = {}        # each marker's leaves, -1 outside the node
        for leaf in held[-1]:
            table.setdefault(leaf.marker, []).append(-1)
        for m, leaves in ix.leaves.items():
            for leaf in leaves:
                p = parent[leaf]    # a stand-in holds leaves only
                moved = (moves.get((nodes[p].marker, leaf - p - 1))
                         if nodes[p].rule is _STANDIN else None)
                table.setdefault(moved or m, []).append(leaf)
        self.profile, self.tree, self.violations = outer.profile, outer.tree, outer.violations
        self.ix, self.marker_leaves, self.starts = ix, table, outer.ix.premises(at)
        self.outer, self.at, self.template = outer, at, template
        self.own = set(ix.dischargers) - n.discharges - set(moves.values())
        for k in ix.post:
            t, p = nodes[k], parent[k]
            if t.rule is not _STANDIN and (p < 0 or nodes[p].rule is not _STANDIN):
                self.core(k, t)

    def bad(self, k, kind, message):
        super().bad(self.at, kind, f"in the core expansion: {message}")

    def _clash(self, z, n, p):
        """As ``_Checker._clash``: a stand-in gives the open leaves of its
        premise that ``n`` and the template nodes above it do not close."""
        ix, outer = self.ix, self.outer
        for k in range(p, p + ix.size[p]):
            t = ix.nodes[k]
            if t.rule is _STANDIN:
                for lk in outer.ix.open_leaves(self.starts[t.marker], z):
                    m = outer.ix.nodes[lk].marker
                    if m not in n.discharges and ix.closer(m, k) < p:
                        return outer.tree, lk, outer.ix.nodes[lk]
            elif (t.rule == ASSUME and ix.nodes[ix.parent[k]].rule is not _STANDIN
                  and t.marker not in n.discharges and z in labels_of(t.conclusion)
                  and ix.closer(t.marker, k) < p):
                return self.template, k, t
        return None


# ---------------------------------------------------------------------------
# Derived-rule expansion

def expand_derived(d: Derivation) -> Derivation:
    """Replace every derived-rule node by its core template.

    The result uses only core and axiom rules, checks valid whenever the
    input does, and has exactly the same conclusion and open assumptions.
    """
    ix = index(d)
    nodes, built = ix.nodes, [None] * len(ix.nodes)
    mgen = MarkerGen(all_markers(d))
    # the markers a derived node discharges, whose leaves a split may move
    movable = {m for m, ks in ix.dischargers.items()
               if any(nodes[k].rule in _EXPANDERS for k in ks)}
    moved: dict = {}        # number of each leaf a split moves -> marker
    for k in ix.post:
        n, premises = nodes[k], [built[p] for p in ix.premises(k)]
        if n.is_assumption() and n.marker in movable:   # an object of its own
            built[k] = Derivation(n.rule, n.conclusion, tuple(premises), n.marker,
                                  n.discharges, n.fresh, n.position)
        elif RULES[n.rule].kind != "derived":
            built[k] = with_premises(n, premises)
        else:
            held, moves = _held(ix, k), {}
            built[k] = _EXPANDERS[n.rule](with_premises(n, premises), mgen, [
                [nodes[j] for j in h] for h in held], moves)
            for (i, j), m in moves.items():
                moved.setdefault(held[i][j], m)
    for k, m in moved.items():      # where the leaf lies, in this result only
        object.__setattr__(built[k], "marker", m)
    return built[0]


class _Mismatch(Exception):
    """A derived node's formulas lack the shape its rule needs; the message
    names the shape."""


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise _Mismatch(what)


def _parts(s: _Sort, c) -> tuple:
    """Label and formula part of ``c``, which must be of sort ``s``."""
    _need(isinstance(c, Lwff) is s.labeled, f"a {s.name} formula")
    return s.split(c)


# each derived connective a derived rule opens: the text naming it, and
# where its parts sit in its expansion
_SHAPES = {
    Not: ("a negation", "left"), RNot: ("a relational negation", "left"),
    And: ("a conjunction", "left.left", "left.right.left"),
    RAnd: ("a relational conjunction", "left.left", "left.right.left"),
    Or: ("a disjunction", "left.left", "right"),
    ROr: ("a relational disjunction", "left.left", "right"),
    F: ("an F-formula", "left.body.left"), P: ("a P-formula", "left.body.left"),
    Exists: ("an existential", "left.var", "left.body.left"),
}


def _unexpand(cls, a) -> list:
    """The expanded parts of the ``cls`` formula whose expansion is that of
    ``a``; ``_Mismatch`` if there is none.  A ``cls`` formula gives its own
    parts.  Any other ``a`` has them read off where they sit in its
    expansion ``core``: expansions are interned, so one identity test
    checks the whole shape, and a part read off the wrong site can only
    fail it."""
    if type(a) is cls:
        return [p if type(p) is str else expand(p)
                for p in (getattr(a, f) for f in cls._fields)]
    core = expand(a)
    what, *sites = _SHAPES[cls]
    try:
        parts = [attrgetter(site)(core) for site in sites]
    except AttributeError:
        raise _Mismatch(what) from None
    _need(expand(cls(*parts)) is core, what)
    return parts


def _refutation(c, k: int) -> Derivation:
    """The leaf assuming the negation of ``c``, with marker ``k``."""
    s = _sort(c)
    x, a = s.split(c)
    return assume(s.at(x, s.neg(a)), k)


def _contradict(leaf_k: Derivation, t: Derivation) -> Derivation:
    """The falsum of ``leaf_k``'s sort, from the refutation leaf ``leaf_k``
    of what ``t`` derives."""
    s = _sort(leaf_k.conclusion)
    return node(s.imp_e, s.at(s.split(leaf_k.conclusion)[0], s.falsum),
                leaf_k, t)


def _falsum_at(t: Derivation, s: _Sort, x, always: bool = False) -> Derivation:
    """``t``, which derives the falsum of either sort, carried to the falsum
    of sort ``s`` at label ``x``: across the sorts by uf1 or uf2, across
    labels by raa_bot (``always``: from ``x`` too)."""
    c = t.conclusion
    if isinstance(c, Lwff) is not s.labeled:
        return node("uf2", Lwff(x, F_), t) if s.labeled else node("uf1", E_, t)
    if s.labeled and (always or c.label != x):
        return node("raa_bot", Lwff(x, F_), t)
    return t


def _conclude(c, t: Derivation, k: int) -> Derivation:
    """``c`` by the reductio of its sort from ``t``, which derives the
    falsum of either sort, discharging the refutation leaf ``k``.  raa_bot
    takes falsum at any label, so ``t`` only crosses sorts."""
    s = _sort(c)
    if isinstance(t.conclusion, Lwff) is not s.labeled:
        t = _falsum_at(t, s, s.split(c)[0])
    return node(s.raa, c, t, discharges={k})


def _split(markers, leaves, mgen, moves) -> tuple:
    """Split the ``markers`` a case split discharges in two places, its two
    minor branches or the two shapes of a two-pattern rule.  ``leaves``
    gives ``(place, marker, taken)`` for each leaf, its place ``(i, j)`` in
    ``held`` and ``taken`` if it lies in the second place.  The taken leaves
    of a marker with leaves in both places move to a marker of their own,
    noted in ``moves`` under their places.  Returns the markers of the
    taken leaves and of the others (a marker without leaves among them)."""
    kinds: dict = {}      # marker -> whether its leaves are taken
    for _, m, taken in leaves:
        kinds.setdefault(m, set()).add(taken)
    taken, others, renames = set(), set(), {}
    for m in sorted(markers):
        kind = kinds.get(m, ())
        if len(kind) == 2:
            renames[m] = mgen()
            taken.add(renames[m])
        (taken if kind == {True} else others).add(m)
    moves.update((place, renames[m]) for place, m, is_taken in leaves
                 if is_taken and m in renames)
    return frozenset(taken), frozenset(others)


def _exp_not_i(s: _Sort, n, mgen, held, moves):
    _unexpand(s.not_, _parts(s, n.conclusion)[1])
    return replace(n, rule=s.imp_i)


def _exp_not_e(s: _Sort, n, mgen, held, moves):
    _need(isinstance(expand(_parts(s, n.conclusion)[1]), type(s.falsum)),
          s.bottom)
    return replace(n, rule=s.imp_e)


def _exp_and_i(s: _Sort, n, mgen, held, moves):
    x, phi = _parts(s, n.conclusion)
    a, b = _unexpand(s.and_, phi)
    m = mgen()
    leaf = assume(s.at(x, s.imp(a, s.neg(b))), m)
    t1 = node(s.imp_e, s.at(x, s.neg(b)), leaf, n.premises[0])
    t2 = node(s.imp_e, s.at(x, s.falsum), t1, n.premises[1])
    return node(s.imp_i, n.conclusion, t2, discharges={m})


def _exp_and_e1(s: _Sort, n, mgen, held, moves):
    p0 = n.premises[0]
    x, phi = _parts(s, p0.conclusion)
    a, b = _unexpand(s.and_, phi)
    m1, m2 = mgen(), mgen()
    leaf_na = assume(s.at(x, s.neg(a)), m1)
    leaf_a = assume(s.at(x, a), m2)
    t1 = node(s.imp_e, s.at(x, s.falsum), leaf_na, leaf_a)
    t2 = node(s.raa, s.at(x, s.neg(b)), t1)
    t3 = node(s.imp_i, s.at(x, s.imp(a, s.neg(b))), t2, discharges={m2})
    t4 = node(s.imp_e, s.at(x, s.falsum), p0, t3)
    return node(s.raa, n.conclusion, t4, discharges={m1})


def _exp_and_e2(s: _Sort, n, mgen, held, moves):
    p0 = n.premises[0]
    x, phi = _parts(s, p0.conclusion)
    a, b = _unexpand(s.and_, phi)
    m1, m2 = mgen(), mgen()
    leaf_nb = assume(s.at(x, s.neg(b)), m1)
    t3 = node(s.imp_i, s.at(x, s.imp(a, s.neg(b))), leaf_nb, discharges={m2})
    t4 = node(s.imp_e, s.at(x, s.falsum), p0, t3)
    return node(s.raa, n.conclusion, t4, discharges={m1})


def _exp_or_i1(s: _Sort, n, mgen, held, moves):
    x, phi = _parts(s, n.conclusion)
    a, b = _unexpand(s.or_, phi)
    m = mgen()
    leaf = assume(s.at(x, s.neg(a)), m)
    t1 = node(s.imp_e, s.at(x, s.falsum), leaf, n.premises[0])
    t2 = node(s.raa, s.at(x, b), t1)
    return node(s.imp_i, n.conclusion, t2, discharges={m})


def _exp_or_i2(s: _Sort, n, mgen, held, moves):
    _unexpand(s.or_, _parts(s, n.conclusion)[1])
    m = mgen()
    return node(s.imp_i, n.conclusion, n.premises[0], discharges={m})


def _exp_or_e(s: _Sort, n, mgen, held, moves):
    x, phi = _parts(s, n.premises[0].conclusion)
    a, b = _unexpand(s.or_, phi)
    p0, p1, p2 = n.premises
    m2, m1 = _split(n.discharges, [((i, j), t.marker, i == 2) for i in (1, 2)
                                   for j, t in enumerate(held[i])], mgen, moves)
    c = n.conclusion
    leaf_k = _refutation(c, mgen())
    t3 = node(s.imp_i, s.at(x, s.neg(a)),
              _falsum_at(_contradict(leaf_k, p1), s, x), discharges=m1)
    t4 = node(s.imp_e, s.at(x, b), p0, t3)
    v3 = node(s.imp_i, s.at(x, s.neg(b)),
              _falsum_at(_contradict(leaf_k, p2), s, x), discharges=m2)
    v4 = node(s.imp_e, s.at(x, s.falsum), v3, t4)
    return _conclude(c, v4, leaf_k.marker)


def _exp_dual_i(s: _Sort, cls, n, mgen, held, moves):
    """``F a``, ``P a`` or ``exists v. a``: the ``G``, ``H`` or ``forall``
    formula ``q`` of ``~a`` that the conclusion negates is assumed, opened at
    the premise's label (for ``exists``, the label the premise instantiates
    the body with) and contradicted there by the premise."""
    x, phi = _parts(s, n.conclusion)
    *_, a = _unexpand(cls, phi)
    q = expand(phi).left
    if isinstance(q, Forall):
        z = match_instantiation(a, q.var, n.premises[0].conclusion)
        _need(z is not None, "a premise that instantiates the body")
    else:
        z = _parts(LAB, n.premises[0].conclusion)[0]
    elim, _, _, body, _ = _opening(s, x, q, lambda: z)
    m = mgen()
    t1 = node(elim, body, assume(s.at(x, q), m), *n.premises[1:])
    t2 = node(s.imp_e, s.at(z, s.falsum), t1, n.premises[0])
    return node(s.imp_i, n.conclusion, _falsum_at(t2, s, x, always=True),
                discharges={m})


def _exp_dual_e(s: _Sort, cls, n, mgen, held, moves):
    """From ``F a``, ``P a`` or ``exists v. a`` and a minor premise that
    derives the conclusion from ``a`` at the fresh label ``y``: the ``G``,
    ``H`` or ``forall`` formula ``q`` the major premise negates, introduced
    at ``y`` against a refutation of the conclusion.  ``exists`` splits no
    discharges, and its ``all_i`` concludes ``q`` over ``y``."""
    p0, p1 = n.premises
    x, phi = _parts(s, p0.conclusion)
    *_, a = _unexpand(cls, phi)
    q, y, c = expand(phi).left, n.fresh, n.conclusion
    _, intro, _, body, _ = _opening(s, x, q, lambda: y)
    if isinstance(q, Forall):
        m_body, m_rel, top = n.discharges, (), Forall(y, body)
    else:
        shape, top = s.at(y, a), s.at(x, q)
        m_body, m_rel = _split(n.discharges, [
            ((1, j), t.marker, core_eq(t.conclusion, shape))
            for j, t in enumerate(held[1])], mgen, moves)
    leaf_k = _refutation(c, mgen())
    # y is fresh, so it is not the label of ``c`` in a tree that checks;
    # the raa_bot stays in the others' expansions too
    t2 = _falsum_at(_contradict(leaf_k, p1), s, y, always=True)
    t3 = node(s.imp_i, body, t2, discharges=m_body)
    t4 = node(intro, top, t3, discharges=m_rel, fresh=y)
    t5 = node(s.imp_e, s.at(x, s.falsum), p0, t4)
    return _conclude(c, t5, leaf_k.marker)


# the derived rules both sorts share: ``rule`` and its relational twin
_SHARED = {
    "not_i": _exp_not_i, "not_e": _exp_not_e, "and_i": _exp_and_i,
    "and_e1": _exp_and_e1, "and_e2": _exp_and_e2, "or_i1": _exp_or_i1,
    "or_i2": _exp_or_i2, "or_e": _exp_or_e,
}
_EXPANDERS = {
    **{prefix + rule: partial(exp, s) for s, prefix in ((LAB, ""), (REL, "r"))
       for rule, exp in _SHARED.items()},
    **{f"{name}_{kind}": partial(exp, s, cls)
       for name, s, cls in (("f", LAB, F), ("p", LAB, P), ("ex", REL, Exists))
       for kind, exp in (("i", _exp_dual_i), ("e", _exp_dual_e))},
}

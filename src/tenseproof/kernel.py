"""The proof checker and the derived-rule expander.

``check`` validates a derivation tree node by node: premise/conclusion
patterns, discharge bookkeeping, freshness side conditions, and profile
gating for axiom rules.  It never raises on a bad proof; it collects
violations with node paths.

Each derived rule is stated once, as an expander that rewrites its node
into a core template.  ``expand_derived`` applies the expanders to the whole
tree, preserving conclusion and open assumptions.  ``check`` validates a
derived node through the same expander: it runs it over stand-ins for the
premises and checks the template's core nodes, reporting every violation at
the derived node.  A node whose formulas lack the shape its rule needs is a
``PatternMismatch``.

``check`` makes two passes over the tree, neither recursive.  A ``walk``
indexes each marker's leaves by root path and finds markers discharged at
two nodes.  Then ``_open_fold``, one post-order pass that keeps root paths,
computes each subtree's open leaves once (a leaf is closed by any ancestor
naming its marker) and validates each node with its premises' open leaves
in hand; the freshness conditions, the stand-ins and the report's open
context all read that result.  A derived node's template gets its own
``_open_fold``, which stops at the stand-ins and takes their open leaves
from the premises'.  ``expand_derived`` is a ``fold``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

from .derivation import (
    Derivation, MarkerGen, all_markers, assume, fold, map_leaves, node,
    with_premises,
)
from .rules import KL, RULES, LogicProfile
from .syntax import (
    Atom, Empty, Eq, Falsum, Forall, G, H, Implies, Less, Lwff, Prec,
    ProofContext, RImplies, X, core_eq, expand, labels_of, substitute_label,
)

F_ = Falsum()
E_ = Empty()


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
    return _context(_open_fold(d))


def _context(opens) -> ProofContext:
    gamma, delta = set(), set()
    for _, leaf in opens:
        c = leaf.conclusion
        (gamma if isinstance(c, Lwff) else delta).add(c)
    return ProofContext.make(gamma, delta)


# rule of the node standing in for premise ``marker`` of a derived node
# while its template is checked; no rule name can equal it
_STANDIN = object()


def _open_fold(d: Derivation, visit=None, standins=()) -> list:
    """The open leaves of ``d`` as ``(path, leaf)`` pairs.  Each subtree's
    open leaves are computed once, in post-order, premises left to right;
    ``visit(path, node, below)`` sees every node with the open leaves of
    each of its premises.  A stand-in is not entered: its open leaves are
    ``standins[stand-in.marker]``."""
    done: list = []
    stack = [((), d, False)]
    while stack:
        path, n, ready = stack.pop()
        if n.rule == _STANDIN:
            done.append(standins[n.marker])
            continue
        k = len(n.premises)
        if k and not ready:
            stack.append((path, n, True))
            for i in range(k - 1, -1, -1):
                stack.append((path + (i,), n.premises[i], False))
            continue
        below = done[len(done) - k:]
        del done[len(done) - k:]
        if visit is not None:
            visit(path, n, below)
        if n.is_assumption():
            opens = [(path, n)]
        else:
            opens = below[0] if k == 1 else list(chain.from_iterable(below))
            if n.discharges:
                opens = [e for e in opens if e[1].marker not in n.discharges]
        done.append(opens)
    return done[0]


# ---------------------------------------------------------------------------
# Matching helpers

def _xf(c) -> object:
    """Expanded core of a conclusion's formula part (labels untouched)."""
    return expand(c.formula) if isinstance(c, Lwff) else expand(c)


def match_instantiation(body, var, target):
    """Find a label ``w`` with ``body[w/var]`` core-equal to ``target``."""
    candidates = set(labels_of(target)) | {var}
    for w in sorted(candidates):
        if core_eq(substitute_label(body, w, var), target):
            return w
    return None


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
    core = _expand_entity(major)
    a = minor_eq.x
    b = minor_eq.y
    positions = _atomic_positions(core, a)
    if positions is None:
        return None
    return [p for p in positions
            if core_eq(replace_position(core, p, b), conclusion)]


def _expand_entity(c):
    return Lwff(c.label, expand(c.formula)) if isinstance(c, Lwff) else expand(c)


# ---------------------------------------------------------------------------
# The checker

def check(d: Derivation, profile: LogicProfile = KL) -> CheckReport:
    violations: list[Violation] = []
    marker_leaves: dict[int, list] = {}
    dischargers: set = set()
    for path, n in d.walk():
        if n.is_assumption() and n.marker is not None:
            marker_leaves.setdefault(n.marker, []).append((path, n))
        for m in n.discharges:
            if m in dischargers:
                violations.append(Violation(
                    path, "BadDischarge",
                    f"marker {m} already discharged at another node"))
            else:
                dischargers.add(m)

    top = max(chain(marker_leaves, dischargers), default=0)
    checker = _Checker(profile, violations, marker_leaves, top)
    open_ctx = _context(_open_fold(d, checker.visit))
    ok = not violations
    return CheckReport(tuple(violations), open_ctx, d.conclusion,
                       ok and open_ctx.is_empty())


class _Checker:
    """Validates nodes one at a time.  ``marker_leaves`` maps each marker to
    the ``(path, leaf)`` pairs of its leaves, path ``None`` for a leaf
    outside the tree being checked.  The checker of a derived node's
    template reports every violation at that node's path ``at``; a leaf of
    one of the template's ``own`` markers that does not fit is a
    ``PatternMismatch``, because the node's formulas do not fit its rule."""

    def __init__(self, profile, violations, marker_leaves, top=0,
                 at=None, own=frozenset()):
        self.profile = profile
        self.violations = violations
        self.marker_leaves = marker_leaves
        # the markers a template makes lie above ``top``, every marker of
        # the tree, so none closes a leaf of the tree by accident
        self.top = top
        self.at = at
        self.own = own
        self.below = ()      # open leaves of each premise of the node at hand

    def bad(self, path, kind, message):
        if self.at is not None:
            path, message = self.at, f"in the core expansion: {message}"
        self.violations.append(Violation(path, kind, message))

    # -- traversal -----------------------------------------------------

    def visit(self, path, n, below) -> None:
        """Validate one node; ``below`` holds its premises' open leaves."""
        if n.is_assumption():
            if n.premises:
                self.bad(path, "StructuralError", "assumption with premises")
            if n.discharges or n.fresh is not None or n.position is not None:
                self.bad(path, "StructuralError",
                         "assumption carries rule annotations")
            return

        schema = RULES.get(n.rule)
        if schema is None:
            self.bad(path, "StructuralError", f"unknown rule {n.rule!r}")
            return
        if len(n.premises) != schema.n_premises:
            self.bad(path, "StructuralError",
                     f"{n.rule} takes {schema.n_premises} premises, "
                     f"got {len(n.premises)}")
            return
        if n.marker is not None:
            self.bad(path, "StructuralError", "marker on a non-assumption node")
        if (n.fresh is None) == schema.fresh:
            what = "missing" if n.fresh is None else "unexpected"
            self.bad(path, "StructuralError", f"{what} fresh label on {n.rule}")
        if n.discharges and not schema.discharging:
            self.bad(path, "StructuralError", f"{n.rule} cannot discharge")
        if n.position is not None and n.rule != "mon":
            self.bad(path, "StructuralError", "position only applies to mon")
        if not self.profile.allows(n.rule):
            self.bad(path, "AxiomNotInProfile",
                     f"{n.rule} needs profile extra '{schema.requires}'")

        if schema.kind != "derived":
            self.core(path, n, below)
            return
        # a missing fresh label is reported above and leaves no template
        checked = ((n.fresh is not None or not schema.fresh)
                   and self._template(path, n, below))
        if not (checked and schema.discharging):
            # no template discharges the markers this node names
            self._check_discharges(path, n, {})

    def core(self, path, n, below) -> None:
        """Validate a core node (or a leaf) against its rule."""
        self.below = below
        validator = getattr(self, f"rule_{n.rule}", None)
        allowed = validator(path, n) if validator is not None else None
        self._check_discharges(path, n, allowed or {})

    def _template(self, path, n, below) -> bool:
        """Check derived node ``n`` through its core template.  Stand-ins
        for the premises carry their conclusions and, as premises, the
        leaves under them that ``n`` discharges; the template's core nodes
        are then checked as usual.  False when ``n`` lacks the shape its
        rule needs."""
        depth = len(path)
        held: list = [[] for _ in n.premises]
        index: dict = {}
        for m in sorted(n.discharges):
            for lp, leaf in self.marker_leaves.get(m, ()):
                if len(lp) > depth and lp[:depth] == path:
                    held[lp[depth]].append(leaf)
                else:
                    index.setdefault(m, []).append((None, leaf))
        standins = tuple(Derivation(_STANDIN, p.conclusion, tuple(h), marker=i)
                         for i, (p, h) in enumerate(zip(n.premises, held)))
        try:
            template = _EXPANDERS[n.rule](replace(n, premises=standins),
                                          MarkerGen((self.top,)))
        except _Mismatch as exc:
            self.bad(path, "PatternMismatch", f"{n.rule} needs {exc}")
            return False
        own, named = set(), set(n.discharges)
        for tp, t in template.walk():
            if t.is_assumption() and t.marker is not None:
                index.setdefault(t.marker, []).append((tp, t))
            if t.rule == _STANDIN:
                named.update(leaf.marker for leaf in t.premises)
            own |= t.discharges
        sub = _Checker(self.profile, self.violations, index, at=path,
                       own=own - named)
        _open_fold(template, sub.core, below)
        return True

    def _check_discharges(self, path, n, allowed) -> None:
        """Every leaf carrying a marker ``n`` discharges must lie in a
        premise ``allowed`` names and have one of its shapes."""
        depth = len(path)
        for m in sorted(n.discharges):
            kind = "PatternMismatch" if m in self.own else "BadDischarge"
            for lp, leaf in self.marker_leaves.get(m, ()):
                inside = lp is not None and len(lp) > depth and lp[:depth] == path
                patterns = allowed.get(lp[depth]) if inside else None
                if patterns is None:
                    self.bad(path, kind,
                             f"marker {m} leaf lies outside the premise "
                             f"{n.rule} may discharge from")
                elif not any(core_eq(leaf.conclusion, pat) for pat in patterns):
                    self.bad(path, kind,
                             f"marker {m} leaf does not match the "
                             f"dischargeable shape of {n.rule}")

    def _fresh_ok(self, path, n, y, minor_index, extra_forbidden=()):
        """Freshness: ``y`` differs from the given labels and occurs in no
        open assumption of the designated premise other than the leaves this
        node discharges."""
        for lbl in extra_forbidden:
            if y == lbl:
                self.bad(path, "FreshnessViolation",
                         f"fresh label {y} must differ from {lbl}")
                return
        for leaf_path, leaf in self.below[minor_index]:
            if leaf.marker is not None and leaf.marker in n.discharges:
                continue
            concl = leaf.conclusion
            free = ({concl.label} | labels_of(concl.formula)
                    if isinstance(concl, Lwff) else labels_of(concl))
            if y in free:
                self.bad(path, "FreshnessViolation",
                         f"fresh label {y} occurs in the open assumption "
                         f"at {'/'.join(map(str, leaf_path))}")
                return

    # -- labeled core rules ---------------------------------------------

    def _lwff(self, path, c, role) -> bool:
        if not isinstance(c, Lwff):
            self.bad(path, "PatternMismatch", f"{role} must be a labeled formula")
            return False
        return True

    def _rwff(self, path, c, role) -> bool:
        if isinstance(c, Lwff):
            self.bad(path, "PatternMismatch", f"{role} must be a relational formula")
            return False
        return True

    def rule_raa_bot(self, path, n):
        c, p0 = n.conclusion, n.premises[0].conclusion
        if not (self._lwff(path, c, "conclusion") and self._lwff(path, p0, "premise")):
            return {}
        if not isinstance(expand(p0.formula), Falsum):
            self.bad(path, "PatternMismatch", "premise of raa_bot must be falsum")
        return {0: [Lwff(c.label, Implies(c.formula, F_))]}

    def rule_imp_i(self, path, n):
        c, p0 = n.conclusion, n.premises[0].conclusion
        if not (self._lwff(path, c, "conclusion") and self._lwff(path, p0, "premise")):
            return {}
        core = _xf(c)
        if not isinstance(core, Implies):
            self.bad(path, "PatternMismatch", "imp_i concludes an implication")
            return {}
        if p0.label != c.label or not core_eq(p0.formula, core.right):
            self.bad(path, "PatternMismatch",
                     "imp_i premise must be the consequent at the same label")
        return {0: [Lwff(c.label, core.left)]}

    def rule_imp_e(self, path, n):
        c, p0, p1 = n.conclusion, n.premises[0].conclusion, n.premises[1].conclusion
        if not all(self._lwff(path, v, r) for v, r in
                   [(c, "conclusion"), (p0, "major premise"), (p1, "minor premise")]):
            return {}
        core = _xf(p0)
        if not isinstance(core, Implies):
            self.bad(path, "PatternMismatch", "imp_e major premise must be an implication")
            return {}
        if not (p1.label == p0.label == c.label
                and core_eq(p1.formula, core.left)
                and core_eq(c.formula, core.right)):
            self.bad(path, "PatternMismatch", "imp_e premises do not fit")
        return {}

    def _temporal_intro(self, path, n, op, discharged_rel):
        c, p0 = n.conclusion, n.premises[0].conclusion
        if not (self._lwff(path, c, "conclusion") and self._lwff(path, p0, "premise")):
            return {}
        core = _xf(c)
        if not isinstance(core, op):
            self.bad(path, "PatternMismatch",
                     f"{n.rule} concludes a {op.__name__}-formula")
            return {}
        y = n.fresh
        if y is None:
            return {}
        if p0.label != y or not core_eq(p0.formula, core.body):
            self.bad(path, "PatternMismatch",
                     f"{n.rule} premise must assert the body at the fresh label")
        self._fresh_ok(path, n, y, 0, extra_forbidden=[c.label])
        return {0: [discharged_rel(c.label, y)]}

    def rule_g_i(self, path, n):
        return self._temporal_intro(path, n, G, lambda x, y: Less(x, y))

    def rule_h_i(self, path, n):
        return self._temporal_intro(path, n, H, lambda x, y: Less(y, x))

    def rule_x_i(self, path, n):
        return self._temporal_intro(path, n, X, lambda x, y: Prec(x, y))

    def _temporal_elim(self, path, n, op, rel_of):
        c, p0, p1 = n.conclusion, n.premises[0].conclusion, n.premises[1].conclusion
        if not (self._lwff(path, c, "conclusion") and self._lwff(path, p0, "major premise")
                and self._rwff(path, p1, "minor premise")):
            return {}
        core = _xf(p0)
        if not isinstance(core, op):
            self.bad(path, "PatternMismatch",
                     f"{n.rule} major premise must be a {op.__name__}-formula")
            return {}
        if not core_eq(c.formula, core.body):
            self.bad(path, "PatternMismatch",
                     f"{n.rule} conclusion must be the operator body")
        if not core_eq(p1, rel_of(p0.label, c.label)):
            self.bad(path, "PatternMismatch",
                     f"{n.rule} minor premise must relate the two labels")
        return {}

    def rule_g_e(self, path, n):
        return self._temporal_elim(path, n, G, lambda x, y: Less(x, y))

    def rule_h_e(self, path, n):
        return self._temporal_elim(path, n, H, lambda x, y: Less(y, x))

    def rule_x_e(self, path, n):
        return self._temporal_elim(path, n, X, lambda x, y: Prec(x, y))

    # -- relational core rules -------------------------------------------

    def rule_raa_empty(self, path, n):
        c, p0 = n.conclusion, n.premises[0].conclusion
        if not (self._rwff(path, c, "conclusion") and self._rwff(path, p0, "premise")):
            return {}
        if not isinstance(expand(p0), Empty):
            self.bad(path, "PatternMismatch", "premise of raa_empty must be empty")
        return {0: [RImplies(c, E_)]}

    def rule_rimp_i(self, path, n):
        c, p0 = n.conclusion, n.premises[0].conclusion
        if not (self._rwff(path, c, "conclusion") and self._rwff(path, p0, "premise")):
            return {}
        core = expand(c)
        if not isinstance(core, RImplies):
            self.bad(path, "PatternMismatch", "rimp_i concludes a relational implication")
            return {}
        if not core_eq(p0, core.right):
            self.bad(path, "PatternMismatch", "rimp_i premise must be the consequent")
        return {0: [core.left]}

    def rule_rimp_e(self, path, n):
        c, p0, p1 = n.conclusion, n.premises[0].conclusion, n.premises[1].conclusion
        if not all(self._rwff(path, v, r) for v, r in
                   [(c, "conclusion"), (p0, "major premise"), (p1, "minor premise")]):
            return {}
        core = expand(p0)
        if not isinstance(core, RImplies):
            self.bad(path, "PatternMismatch", "rimp_e major premise must be an implication")
            return {}
        if not (core_eq(p1, core.left) and core_eq(c, core.right)):
            self.bad(path, "PatternMismatch", "rimp_e premises do not fit")
        return {}

    def rule_all_i(self, path, n):
        c, p0 = n.conclusion, n.premises[0].conclusion
        if not (self._rwff(path, c, "conclusion") and self._rwff(path, p0, "premise")):
            return {}
        v = n.fresh
        if v is None:
            return {}
        if not core_eq(c, Forall(v, p0)):
            self.bad(path, "PatternMismatch",
                     "all_i conclusion must generalize the premise over the "
                     "named variable")
        self._fresh_ok(path, n, v, 0)
        return {}

    def rule_all_e(self, path, n):
        c, p0 = n.conclusion, n.premises[0].conclusion
        if not (self._rwff(path, c, "conclusion") and self._rwff(path, p0, "premise")):
            return {}
        core = expand(p0)
        if not isinstance(core, Forall):
            self.bad(path, "PatternMismatch", "all_e premise must be universal")
            return {}
        if match_instantiation(core.body, core.var, c) is None:
            self.bad(path, "PatternMismatch",
                     "all_e conclusion is not an instance of the body")
        return {}

    def _axiom(self, path, n):
        template = RULES[n.rule].axiom_template
        if not core_eq(n.conclusion, template):
            self.bad(path, "PatternMismatch",
                     f"conclusion of {n.rule} must be its axiom template")
        return {}

    rule_refl_eq = rule_irrefl_lt = rule_trans_lt = rule_conn = _axiom
    rule_first = rule_final = rule_lser = rule_rser = _axiom
    rule_dens = rule_ldiscr = rule_rdiscr = _axiom

    # -- general rules ----------------------------------------------------

    def rule_mon(self, path, n):
        c, p0, p1 = n.conclusion, n.premises[0].conclusion, n.premises[1].conclusion
        if not self._rwff(path, p1, "minor premise"):
            return {}
        eq = expand(p1)
        if not isinstance(eq, Eq):
            self.bad(path, "PatternMismatch", "mon minor premise must be an equality")
            return {}
        if isinstance(c, Lwff) != isinstance(p0, Lwff):
            self.bad(path, "PatternMismatch", "mon preserves the formula kind")
            return {}
        if n.position is not None:
            positions = mon_positions(p0, eq, c)
            if positions is None or n.position not in positions:
                self.bad(path, "PatternMismatch",
                         f"mon at position {n.position} does not yield the conclusion")
            return {}
        replaced_all = substitute_label(_expand_entity(p0), eq.y, eq.x)
        if core_eq(replaced_all, c):
            return {}
        positions = mon_positions(p0, eq, c)
        if positions:
            return {}
        self.bad(path, "PatternMismatch",
                 "mon conclusion is neither the full substitution nor a "
                 "single-position replacement")
        return {}

    def rule_uf1(self, path, n):
        c, p0 = n.conclusion, n.premises[0].conclusion
        if not (self._rwff(path, c, "conclusion") and self._lwff(path, p0, "premise")):
            return {}
        if not isinstance(expand(p0.formula), Falsum):
            self.bad(path, "PatternMismatch", "uf1 premise must be falsum")
        if not isinstance(expand(c), Empty):
            self.bad(path, "PatternMismatch", "uf1 concludes empty")
        return {}

    def rule_uf2(self, path, n):
        c, p0 = n.conclusion, n.premises[0].conclusion
        if not (self._lwff(path, c, "conclusion") and self._rwff(path, p0, "premise")):
            return {}
        if not isinstance(expand(p0), Empty):
            self.bad(path, "PatternMismatch", "uf2 premise must be empty")
        if not isinstance(expand(c.formula), Falsum):
            self.bad(path, "PatternMismatch", "uf2 concludes falsum at some label")
        return {}



# ---------------------------------------------------------------------------
# Derived-rule expansion

def expand_derived(d: Derivation) -> Derivation:
    """Replace every derived-rule node by its core template.

    The result uses only core and axiom rules, checks valid whenever the
    input does, and has exactly the same conclusion and open assumptions.
    """
    mgen = MarkerGen(all_markers(d))

    def expand_node(n: Derivation, premises: list) -> Derivation:
        n = with_premises(n, premises)
        if RULES[n.rule].kind == "derived":
            return _EXPANDERS[n.rule](n, mgen)
        return n

    return fold(d, expand_node)


class _Mismatch(Exception):
    """A derived node's formulas lack the shape its rule needs; the message
    names the shape."""


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise _Mismatch(what)


def _labeled(c):
    """Label and expanded formula of a labeled conclusion."""
    _need(isinstance(c, Lwff), "a labeled formula")
    return c.label, expand(c.formula)


def _relational(c):
    _need(not isinstance(c, Lwff), "a relational formula")
    return expand(c)


def _and_parts(core):
    _need(isinstance(core, Implies) and isinstance(core.right, Falsum)
          and isinstance(core.left, Implies)
          and isinstance(core.left.right, Implies)
          and isinstance(core.left.right.right, Falsum), "a conjunction")
    return core.left.left, core.left.right.left


def _or_parts(core):
    _need(isinstance(core, Implies) and isinstance(core.left, Implies)
          and isinstance(core.left.right, Falsum), "a disjunction")
    return core.left.left, core.right


def _f_part(core):
    _need(isinstance(core, Implies) and isinstance(core.right, Falsum)
          and isinstance(core.left, G) and isinstance(core.left.body, Implies)
          and isinstance(core.left.body.right, Falsum), "an F-formula")
    return core.left.body.left


def _p_part(core):
    _need(isinstance(core, Implies) and isinstance(core.right, Falsum)
          and isinstance(core.left, H) and isinstance(core.left.body, Implies)
          and isinstance(core.left.body.right, Falsum), "a P-formula")
    return core.left.body.left


def _rand_parts(core):
    _need(isinstance(core, RImplies) and isinstance(core.right, Empty)
          and isinstance(core.left, RImplies)
          and isinstance(core.left.right, RImplies)
          and isinstance(core.left.right.right, Empty),
          "a relational conjunction")
    return core.left.left, core.left.right.left


def _ror_parts(core):
    _need(isinstance(core, RImplies) and isinstance(core.left, RImplies)
          and isinstance(core.left.right, Empty), "a relational disjunction")
    return core.left.left, core.right


def _exists_parts(core):
    _need(isinstance(core, RImplies) and isinstance(core.right, Empty)
          and isinstance(core.left, Forall)
          and isinstance(core.left.body, RImplies)
          and isinstance(core.left.body.right, Empty), "an existential")
    return core.left.var, core.left.body.left


def _refutation(c, k: int) -> Derivation:
    """The leaf assuming the negation of ``c``, with marker ``k``."""
    if isinstance(c, Lwff):
        return assume(Lwff(c.label, Implies(c.formula, F_)), k)
    return assume(RImplies(c, E_), k)


def _renamed(t: Derivation, renames: dict, only=lambda leaf: True) -> Derivation:
    """``t`` with each leaf that ``only`` admits renamed by ``renames``."""
    if not renames:
        return t
    return map_leaves(t, lambda leaf: replace(leaf, marker=renames[leaf.marker])
                      if leaf.marker in renames and only(leaf) else leaf)


def _split_marker_shapes(p1: Derivation, markers, first_shape, mgen):
    """Give leaves matching ``first_shape`` their own markers when a marker
    mixes the two dischargeable shapes of a two-pattern rule."""
    shapes: dict = {}     # marker -> which of the shapes its leaves have
    for t in p1.nodes():
        if t.is_assumption() and t.marker in markers:
            shapes.setdefault(t.marker, set()).add(
                core_eq(t.conclusion, first_shape))
    firsts, seconds, renames = set(), set(), {}
    for m in sorted(markers):
        kinds = shapes.get(m, ())
        if len(kinds) == 2:
            renames[m] = mgen()
            firsts.add(renames[m])
            seconds.add(m)
        elif True in kinds:
            firsts.add(m)
        else:
            seconds.add(m)
    tree = _renamed(p1, renames,
                    lambda leaf: core_eq(leaf.conclusion, first_shape))
    return tree, firsts, seconds


def _exp_not_i(n, mgen):
    core = _labeled(n.conclusion)[1]
    _need(isinstance(core, Implies) and isinstance(core.right, Falsum),
          "a negation")
    return replace(n, rule="imp_i")


def _exp_not_e(n, mgen):
    _need(isinstance(_labeled(n.conclusion)[1], Falsum), "falsum")
    return replace(n, rule="imp_e")


def _exp_rnot_i(n, mgen):
    core = _relational(n.conclusion)
    _need(isinstance(core, RImplies) and isinstance(core.right, Empty),
          "a relational negation")
    return replace(n, rule="rimp_i")


def _exp_rnot_e(n, mgen):
    _need(isinstance(_relational(n.conclusion), Empty), "empty")
    return replace(n, rule="rimp_e")


def _exp_and_i(n, mgen):
    x, core = _labeled(n.conclusion)
    a, b = _and_parts(core)
    m = mgen()
    leaf = assume(Lwff(x, Implies(a, Implies(b, F_))), m)
    t1 = node("imp_e", Lwff(x, Implies(b, F_)), leaf, n.premises[0])
    t2 = node("imp_e", Lwff(x, F_), t1, n.premises[1])
    return node("imp_i", n.conclusion, t2, discharges={m})


def _exp_and_e1(n, mgen):
    p0 = n.premises[0]
    x, core = _labeled(p0.conclusion)
    a, b = _and_parts(core)
    m1, m2 = mgen(), mgen()
    leaf_na = assume(Lwff(x, Implies(a, F_)), m1)
    leaf_a = assume(Lwff(x, a), m2)
    t1 = node("imp_e", Lwff(x, F_), leaf_na, leaf_a)
    t2 = node("raa_bot", Lwff(x, Implies(b, F_)), t1)
    t3 = node("imp_i", Lwff(x, Implies(a, Implies(b, F_))), t2, discharges={m2})
    t4 = node("imp_e", Lwff(x, F_), p0, t3)
    return node("raa_bot", n.conclusion, t4, discharges={m1})


def _exp_and_e2(n, mgen):
    p0 = n.premises[0]
    x, core = _labeled(p0.conclusion)
    a, b = _and_parts(core)
    m1, m2 = mgen(), mgen()
    leaf_nb = assume(Lwff(x, Implies(b, F_)), m1)
    t3 = node("imp_i", Lwff(x, Implies(a, Implies(b, F_))), leaf_nb, discharges={m2})
    t4 = node("imp_e", Lwff(x, F_), p0, t3)
    return node("raa_bot", n.conclusion, t4, discharges={m1})


def _exp_or_i1(n, mgen):
    x, core = _labeled(n.conclusion)
    a, b = _or_parts(core)
    m = mgen()
    leaf = assume(Lwff(x, Implies(a, F_)), m)
    t1 = node("imp_e", Lwff(x, F_), leaf, n.premises[0])
    t2 = node("raa_bot", Lwff(x, b), t1)
    return node("imp_i", n.conclusion, t2, discharges={m})


def _exp_or_i2(n, mgen):
    _or_parts(_labeled(n.conclusion)[1])
    m = mgen()
    return node("imp_i", n.conclusion, n.premises[0], discharges={m})


def _to_empty(t: Derivation, leaf_k: Derivation) -> Derivation:
    """Continue a minor branch to the relational falsum: against a labeled
    refutation leaf, contradict then export with uf1; against a relational
    one, contradict directly."""
    c = leaf_k.conclusion
    if isinstance(c, Lwff):
        t1 = node("imp_e", Lwff(c.label, F_), leaf_k, t)
        return node("uf1", E_, t1)
    return node("rimp_e", E_, leaf_k, t)


def _split_markers_by_branch(n: Derivation, mgen) -> tuple:
    """Case rules may reuse one marker across both minor branches; split so
    each branch's leaves carry their own marker.  Returns the rewritten
    premises tuple plus the marker sets for branch 1 and branch 2."""
    p1, p2 = n.premises[1], n.premises[2]
    in1, in2 = ({t.marker for t in p.nodes() if t.is_assumption()}
                for p in (p1, p2))
    m1, m2, renames = set(), set(), {}
    for m in sorted(n.discharges):
        if m in in1 and m in in2:
            renames[m] = mgen()
            m1.add(m)
            m2.add(renames[m])
        elif m in in2:
            m2.add(m)
        else:
            m1.add(m)
    return ((n.premises[0], p1, _renamed(p2, renames)),
            frozenset(m1), frozenset(m2))


def _branch_to_bottom(branch: Derivation, leaf_k: Derivation, x: str) -> Derivation:
    """From a minor branch concluding the case conclusion, reach ``x : false``
    via the discharged refutation leaf."""
    c = leaf_k.conclusion
    if isinstance(c, Lwff):
        t = node("imp_e", Lwff(c.label, F_), leaf_k, branch)
        if c.label == x:
            return t
        return node("raa_bot", Lwff(x, F_), t)
    t = node("rimp_e", E_, leaf_k, branch)
    return node("uf2", Lwff(x, F_), t)


def _exp_or_e(n, mgen):
    x, core = _labeled(n.premises[0].conclusion)
    a, b = _or_parts(core)
    (p0, p1, p2), m1, m2 = _split_markers_by_branch(n, mgen)
    c = n.conclusion
    leaf_k = _refutation(c, mgen())
    t3 = node("imp_i", Lwff(x, Implies(a, F_)),
              _branch_to_bottom(p1, leaf_k, x), discharges=m1)
    t4 = node("imp_e", Lwff(x, b), p0, t3)
    v3 = node("imp_i", Lwff(x, Implies(b, F_)),
              _branch_to_bottom(p2, leaf_k, x), discharges=m2)
    v4 = node("imp_e", Lwff(x, F_), v3, t4)
    if isinstance(c, Lwff):
        return node("raa_bot", c, v4, discharges={leaf_k.marker})
    t5 = node("uf1", E_, v4)
    return node("raa_empty", c, t5, discharges={leaf_k.marker})


def _exp_ror_e(n, mgen):
    a, b = _ror_parts(_relational(n.premises[0].conclusion))
    (p0, p1, p2), m1, m2 = _split_markers_by_branch(n, mgen)
    c = n.conclusion
    leaf_k = _refutation(c, mgen())
    t3 = node("rimp_i", RImplies(a, E_), _to_empty(p1, leaf_k), discharges=m1)
    t4 = node("rimp_e", b, p0, t3)
    v3 = node("rimp_i", RImplies(b, E_), _to_empty(p2, leaf_k), discharges=m2)
    v4 = node("rimp_e", E_, v3, t4)
    if isinstance(c, Lwff):
        t5 = node("uf2", Lwff(c.label, F_), v4)
        return node("raa_bot", c, t5, discharges={leaf_k.marker})
    return node("raa_empty", c, v4, discharges={leaf_k.marker})


def _exp_fp_intro(n, mgen, part_of, op_cls, elim_rule):
    p0, p1 = n.premises
    x, core = _labeled(n.conclusion)
    a = part_of(core)
    y = _labeled(p0.conclusion)[0]
    m = mgen()
    leaf = assume(Lwff(x, op_cls(Implies(a, F_))), m)
    t1 = node(elim_rule, Lwff(y, Implies(a, F_)), leaf, p1)
    t2 = node("imp_e", Lwff(y, F_), t1, p0)
    t3 = node("raa_bot", Lwff(x, F_), t2)
    return node("imp_i", n.conclusion, t3, discharges={m})


def _exp_f_i(n, mgen):
    return _exp_fp_intro(n, mgen, _f_part, G, "g_e")


def _exp_p_i(n, mgen):
    return _exp_fp_intro(n, mgen, _p_part, H, "h_e")


def _exp_fp_elim(n, mgen, part_of, op_cls, intro_rule):
    p0, p1 = n.premises
    x, core = _labeled(p0.conclusion)
    a = part_of(core)
    y = n.fresh
    c = n.conclusion
    body_shape = Lwff(y, a)
    p1, m_body, m_rel = _split_marker_shapes(p1, n.discharges, body_shape, mgen)
    leaf_k = _refutation(c, mgen())
    if isinstance(c, Lwff):
        t1 = node("imp_e", Lwff(c.label, F_), leaf_k, p1)
        t2 = node("raa_bot", Lwff(y, F_), t1)
    else:
        t1 = node("rimp_e", E_, leaf_k, p1)
        t2 = node("uf2", Lwff(y, F_), t1)
    t3 = node("imp_i", Lwff(y, Implies(a, F_)), t2, discharges=m_body)
    t4 = node(intro_rule, Lwff(x, op_cls(Implies(a, F_))), t3,
              discharges=m_rel, fresh=y)
    t5 = node("imp_e", Lwff(x, F_), p0, t4)
    if isinstance(c, Lwff):
        return node("raa_bot", c, t5, discharges={leaf_k.marker})
    t6 = node("uf1", E_, t5)
    return node("raa_empty", c, t6, discharges={leaf_k.marker})


def _exp_f_e(n, mgen):
    return _exp_fp_elim(n, mgen, _f_part, G, "g_i")


def _exp_p_e(n, mgen):
    return _exp_fp_elim(n, mgen, _p_part, H, "h_i")


def _exp_rand_i(n, mgen):
    a, b = _rand_parts(_relational(n.conclusion))
    m = mgen()
    leaf = assume(RImplies(a, RImplies(b, E_)), m)
    t1 = node("rimp_e", RImplies(b, E_), leaf, n.premises[0])
    t2 = node("rimp_e", E_, t1, n.premises[1])
    return node("rimp_i", n.conclusion, t2, discharges={m})


def _exp_rand_e1(n, mgen):
    p0 = n.premises[0]
    a, b = _rand_parts(_relational(p0.conclusion))
    m1, m2 = mgen(), mgen()
    leaf_na = assume(RImplies(a, E_), m1)
    leaf_a = assume(a, m2)
    t1 = node("rimp_e", E_, leaf_na, leaf_a)
    t2 = node("raa_empty", RImplies(b, E_), t1)
    t3 = node("rimp_i", RImplies(a, RImplies(b, E_)), t2, discharges={m2})
    t4 = node("rimp_e", E_, p0, t3)
    return node("raa_empty", n.conclusion, t4, discharges={m1})


def _exp_rand_e2(n, mgen):
    p0 = n.premises[0]
    a, b = _rand_parts(_relational(p0.conclusion))
    m1, m2 = mgen(), mgen()
    leaf_nb = assume(RImplies(b, E_), m1)
    t3 = node("rimp_i", RImplies(a, RImplies(b, E_)), leaf_nb, discharges={m2})
    t4 = node("rimp_e", E_, p0, t3)
    return node("raa_empty", n.conclusion, t4, discharges={m1})


def _exp_ror_i1(n, mgen):
    a, b = _ror_parts(_relational(n.conclusion))
    m = mgen()
    leaf = assume(RImplies(a, E_), m)
    t1 = node("rimp_e", E_, leaf, n.premises[0])
    t2 = node("raa_empty", b, t1)
    return node("rimp_i", n.conclusion, t2, discharges={m})


def _exp_ror_i2(n, mgen):
    _ror_parts(_relational(n.conclusion))
    m = mgen()
    return node("rimp_i", n.conclusion, n.premises[0], discharges={m})


def _exp_ex_i(n, mgen):
    var, body = _exists_parts(_relational(n.conclusion))
    w = match_instantiation(body, var, n.premises[0].conclusion)
    _need(w is not None, "a premise that instantiates the body")
    m = mgen()
    leaf = assume(Forall(var, RImplies(body, E_)), m)
    inst = substitute_label(RImplies(body, E_), w, var)
    t1 = node("all_e", inst, leaf)
    t2 = node("rimp_e", E_, t1, n.premises[0])
    return node("rimp_i", n.conclusion, t2, discharges={m})


def _exp_ex_e(n, mgen):
    p0, p1 = n.premises
    var, body = _exists_parts(_relational(p0.conclusion))
    y = n.fresh
    c = n.conclusion
    leaf_k = _refutation(c, mgen())
    t1 = _to_empty(p1, leaf_k)
    t2 = node("rimp_i", substitute_label(RImplies(body, E_), y, var), t1,
              discharges=n.discharges)
    t3 = node("all_i", Forall(y, substitute_label(RImplies(body, E_), y, var)),
              t2, fresh=y)
    t4 = node("rimp_e", E_, p0, t3)
    if isinstance(c, Lwff):
        t5 = node("uf2", Lwff(c.label, F_), t4)
        return node("raa_bot", c, t5, discharges={leaf_k.marker})
    return node("raa_empty", c, t4, discharges={leaf_k.marker})


_EXPANDERS = {
    "not_i": _exp_not_i, "not_e": _exp_not_e,
    "rnot_i": _exp_rnot_i, "rnot_e": _exp_rnot_e,
    "and_i": _exp_and_i, "and_e1": _exp_and_e1, "and_e2": _exp_and_e2,
    "or_i1": _exp_or_i1, "or_i2": _exp_or_i2, "or_e": _exp_or_e,
    "f_i": _exp_f_i, "f_e": _exp_f_e, "p_i": _exp_p_i, "p_e": _exp_p_e,
    "rand_i": _exp_rand_i, "rand_e1": _exp_rand_e1, "rand_e2": _exp_rand_e2,
    "ror_i1": _exp_ror_i1, "ror_i2": _exp_ror_i2, "ror_e": _exp_ror_e,
    "ex_i": _exp_ex_i, "ex_e": _exp_ex_e,
}

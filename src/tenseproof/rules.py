"""Rule registry: identifiers, schema descriptors, axiom templates, profiles.

The checker in :mod:`tenseproof.kernel` owns the actual matching logic;
this module is the single place that says which rules exist, how many
premises they take, whether they discharge, whether they carry a freshness
side condition, and which logic profile admits them.  Each relational axiom
is stated once, as its template in ``AXIOMS``, and each connective's
elimination and introduction once, in ``CONNECTIVE_RULES``; every other
table of them derives from these.
"""

from __future__ import annotations

from .syntax import (
    Eq, Exists, Forall, G, H, Implies, Less, RAnd, RFormula, RImplies, RNot,
    ROr, X, _Record, _set,
)

# ---------------------------------------------------------------------------
# Axiom templates (closed relational formulas)

# the relational axioms of Kl
_KL_AXIOMS: dict[str, RFormula] = {
    "refl_eq": Forall("x", Eq("x", "x")),
    "irrefl_lt": Forall("x", RNot(Less("x", "x"))),
    "trans_lt": Forall("x", Forall("y", Forall("z", RImplies(
        RAnd(Less("x", "y"), Less("y", "z")), Less("x", "z"))))),
    "conn": Forall("x", Forall("y", ROr(
        Less("x", "y"), ROr(Eq("x", "y"), Less("y", "x"))))),
}
# the axioms of the extensions, each the profile extra of its own name
_EXTENSION_AXIOMS: dict[str, RFormula] = {
    "first": Exists("x", Forall("y", RNot(Less("y", "x")))),
    "final": Exists("x", Forall("y", RNot(Less("x", "y")))),
    "lser": Forall("x", Exists("y", Less("y", "x"))),
    "rser": Forall("x", Exists("y", Less("x", "y"))),
    "dens": Forall("x", Forall("y", RImplies(
        Less("x", "y"), Exists("z", RAnd(Less("x", "z"), Less("z", "y")))))),
    "ldiscr": Forall("x", Forall("y", RImplies(
        Less("x", "y"),
        Exists("z", RAnd(Less("z", "y"),
                         RNot(Exists("u", RAnd(Less("z", "u"), Less("u", "y"))))))))),
    "rdiscr": Forall("x", Forall("y", RImplies(
        Less("x", "y"),
        Exists("z", RAnd(Less("x", "z"),
                         RNot(Exists("u", RAnd(Less("x", "u"), Less("u", "z"))))))))),
}
AXIOMS: dict[str, RFormula] = {**_KL_AXIOMS, **_EXTENSION_AXIOMS}

# the profile extras: the next-step fragment is the one that is no axiom
EXTRAS = (*_EXTENSION_AXIOMS, "mtl")
INFINITE_EXTRAS = frozenset({"lser", "rser", "dens", "mtl"})


class LogicProfile(_Record):
    """Base system plus a set of optional relational axioms / rules."""

    __slots__ = ("extras",)

    def __init__(self, extras: frozenset = frozenset()):
        _set(self, "extras", extras)

    @staticmethod
    def make(*extras: str) -> "LogicProfile":
        xs = set(extras)
        unknown = xs - set(EXTRAS)
        if unknown:
            raise ValueError(f"unknown profile extras: {sorted(unknown)}")
        if "mtl" in xs:
            # the next-step fragment presumes right-serial, right-discrete time
            xs |= {"rser", "rdiscr"}
        return LogicProfile(frozenset(xs))

    def allows(self, rule_id: str) -> bool:
        req = RULES[rule_id].requires
        return req is None or req in self.extras

    def finitely_modelable(self) -> bool:
        """Serial or dense profiles have no useful finite frames."""
        return not (self.extras & INFINITE_EXTRAS)


KL = LogicProfile.make()


def parse_profile(text: str) -> LogicProfile:
    text = text.strip().lower()
    if text == "kl":
        return KL
    if text == "mtl":
        return LogicProfile.make("mtl")
    if text.startswith("kl+"):
        return LogicProfile.make(*[p for p in text[3:].split("+") if p])
    raise ValueError(f"unknown profile {text!r}")


# ---------------------------------------------------------------------------
# Schemas

class RuleSchema(_Record):
    """A rule's ``name``; its ``kind``, "core", "axiom" or "derived"; its
    ``n_premises``; whether it is ``discharging`` (may close assumption
    markers) and ``fresh`` (introduces a fresh label); the profile extra it
    ``requires``, if any; and an axiom's ``axiom_template``."""

    __slots__ = ("name", "kind", "n_premises", "discharging", "fresh",
                 "requires", "axiom_template")

    def __init__(self, name: str, kind: str, n_premises: int,
                 discharging: bool = False, fresh: bool = False,
                 requires: str | None = None,
                 axiom_template: RFormula | None = None):
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "n_premises", n_premises)
        _set(self, "discharging", discharging)
        _set(self, "fresh", fresh)
        _set(self, "requires", requires)
        _set(self, "axiom_template", axiom_template)


def _schema(name, kind, n, disch=False, fresh=False, requires=None):
    return RuleSchema(name, kind, n, disch, fresh, requires, AXIOMS.get(name))


# The shapes each rule admits live in the checker (core and axiom rules)
# and in the expanders (derived rules) of :mod:`tenseproof.kernel`.
RULES: dict[str, RuleSchema] = {s.name: s for s in [
    _schema("assume", "core", 0),

    # labeled sub-system
    _schema("raa_bot", "core", 1, disch=True),
    _schema("imp_i", "core", 1, disch=True),
    _schema("imp_e", "core", 2),
    _schema("g_i", "core", 1, disch=True, fresh=True),
    _schema("g_e", "core", 2),
    _schema("h_i", "core", 1, disch=True, fresh=True),
    _schema("h_e", "core", 2),

    # relational sub-system
    _schema("raa_empty", "core", 1, disch=True),
    _schema("rimp_i", "core", 1, disch=True),
    _schema("rimp_e", "core", 2),
    _schema("all_i", "core", 1, fresh=True),
    _schema("all_e", "core", 1),
    *(_schema(a, "axiom", 0) for a in _KL_AXIOMS),

    # general rules bridging the two sub-systems
    _schema("mon", "core", 2),
    _schema("uf1", "core", 1),
    _schema("uf2", "core", 1),

    # relational axioms for extensions
    *(_schema(a, "axiom", 0, requires=a) for a in _EXTENSION_AXIOMS),

    # next-step rules (core once the profile enables them)
    _schema("x_i", "core", 1, disch=True, fresh=True, requires="mtl"),
    _schema("x_e", "core", 2, requires="mtl"),

    # derived labeled rules
    _schema("not_i", "derived", 1, disch=True),
    _schema("not_e", "derived", 2),
    _schema("and_i", "derived", 2),
    _schema("and_e1", "derived", 1),
    _schema("and_e2", "derived", 1),
    _schema("or_i1", "derived", 1),
    _schema("or_i2", "derived", 1),
    _schema("or_e", "derived", 3, disch=True),
    _schema("f_i", "derived", 2),
    _schema("f_e", "derived", 2, disch=True, fresh=True),
    _schema("p_i", "derived", 2),
    _schema("p_e", "derived", 2, disch=True, fresh=True),

    # derived relational rules
    _schema("rnot_i", "derived", 1, disch=True),
    _schema("rnot_e", "derived", 2),
    _schema("rand_i", "derived", 2),
    _schema("rand_e1", "derived", 1),
    _schema("rand_e2", "derived", 1),
    _schema("ror_i1", "derived", 1),
    _schema("ror_i2", "derived", 1),
    _schema("ror_e", "derived", 3, disch=True),
    _schema("ex_i", "derived", 1),
    _schema("ex_e", "derived", 2, disch=True, fresh=True),
]}


# each connective that is not atomic, with its elimination and
# introduction: the detour pairs the proper reductions eliminate; the
# next-step pair reduces exactly like the G/H ones
CONNECTIVE_RULES = {
    Implies: ("imp_e", "imp_i"),
    G: ("g_e", "g_i"),
    H: ("h_e", "h_i"),
    X: ("x_e", "x_i"),
    RImplies: ("rimp_e", "rimp_i"),
    Forall: ("all_e", "all_i"),
}
DETOUR_PAIRS = dict(CONNECTIVE_RULES.values())
INTRO_RULES = set(DETOUR_PAIRS.values())
ELIM_RULES = set(DETOUR_PAIRS)
FALSUM_RULES = {"raa_bot", "raa_empty", "uf1", "uf2"}


def rule_schema(rule_id: str) -> RuleSchema:
    try:
        return RULES[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule {rule_id!r}") from None

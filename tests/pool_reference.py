"""The subformula pool as the library wrote it before it filed each
subformula under its class and grade, kept verbatim as the reference the
new pool is compared against: a list of every subformula, a set of the
binder-free ones and a table by grade of the ones with a binder, where a
label-instance test calls ``match_labels`` on every subformula in turn."""

from __future__ import annotations

from tenseproof.syntax import (
    _formula_part, canon, expand, grade, is_formula, labels_of, match_labels,
    subformulas,
)


class SubformulaPool:
    """The subformulas of ``formulas``, for membership tests.

    ``has_variant(b)`` asks for ``b`` up to alpha-equivalence.  A
    subformula that holds no binder is its own canonical form, so for those
    this is set membership; one that holds a binder is canonicalized only
    when a formula of its grade is asked for.  ``b in pool`` also accepts a
    label instance of a subformula (``b`` obtained by substituting labels
    for its free labels) when ``b`` is relational with free labels."""

    def __init__(self, formulas):
        self.subformulas = list({s: None for f in formulas
                                 for s in subformulas(f)})
        self.plain = set()
        self.binding: dict = {}     # grade -> the subformulas with a binder
        for s in self.subformulas:
            if s._binder:
                self.binding.setdefault(grade(s), []).append(s)
            else:
                self.plain.add(s)

    def has_variant(self, b) -> bool:
        b = canon(_formula_part(b))
        if not b._binder:
            return b in self.plain
        return any(canon(s) is b for s in self.binding.get(grade(b), ()))

    def __contains__(self, b) -> bool:
        b = _formula_part(expand(b))
        if self.has_variant(b):
            return True
        return (not is_formula(b) and bool(labels_of(b))
                and any(match_labels(s, b, labels_of(s)) is not None
                        for s in self.subformulas))

"""Proof kernel, normalizer and bounded semantic oracle for labeled natural
deduction over linear tense logic and its relational extensions.

The public names resolve on first use (PEP 562): ``import tenseproof``
loads no submodule, and ``tenseproof.check`` imports only ``kernel`` and
what it needs.  The functions ``normalize`` and ``tracks`` share their
names with their modules; the package keeps the functions under those
names whichever submodule was imported first.
"""

import importlib
import sys

# each submodule with the public names it gives the package
_EXPORTS = {
    "syntax": "And Atom Empty Eq Exists F Falsum Forall G H Implies Less Lwff "
              "Not Or P Prec ProofContext RAnd RImplies RNot ROr Top X canon "
              "core_eq expand grade is_atomic is_subformula labels_of "
              "substitute_label",
    "parser": "ParseError parse parse_formula parse_lwff parse_rwff render",
    "rules": "AXIOMS KL LogicProfile RULES parse_profile rule_schema",
    "derivation": "Derivation assume from_json load node to_json",
    "kernel": "CheckReport Violation check expand_derived open_assumptions",
    "normalize": "NonTermination Redex find_redexes is_normal normalize "
                 "reduce_step restrict",
    "tracks": "AuditReport StructureViolation Track audit_subformula tracks",
    "semantics": "Countermodel FinitelyVacuous Interpretation Model "
                 "UnboundLabel check_frame entails eval_entity "
                 "find_countermodel soundness_probe",
    "corpus": "corpus_entries run_corpus",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
# the submodules that are public names themselves: all but the two whose
# names their functions take
_MODULES = frozenset(_EXPORTS) - frozenset(_HOME)

__all__ = sorted([*_HOME, *_MODULES])


def __getattr__(name):
    if name in _HOME:
        module = importlib.import_module(f"{__name__}.{_HOME[name]}")
        value = getattr(module, name)
    elif name in _MODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(type(sys)):
    """The package module: the import system binds a submodule on its
    package once it is loaded, which would put the modules ``normalize``
    and ``tracks`` where the functions of those names belong."""

    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, type(sys)):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

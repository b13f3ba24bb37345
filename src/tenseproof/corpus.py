"""Bundled corpus of transcribed derivations and the pipeline runner.

Each entry lives in ``corpus/<id>.json`` with its profile, a short source
note, the expected conclusion, and the derivation tree.  ``run_corpus``
drives every entry through the whole pipeline: check, expansion,
normalization, normal-form and track diagnostics, subformula audit, and the
finite semantic probe (skipped for profiles without finite frames).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .derivation import Derivation, from_json
from .kernel import check, open_assumptions
from .normalize import NonTermination, is_normal, normalize
from .parser import parse
from .rules import LogicProfile, parse_profile
from .semantics import soundness_probe
from .syntax import core_eq
from .tracks import StructureViolation, audit_subformula, tracks


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    profile: LogicProfile
    derivation: Derivation
    expected_conclusion: object
    source: str


def _corpus_files():
    root = resources.files(__package__) / "corpus"
    return sorted(p for p in root.iterdir() if p.name.endswith(".json"))


def corpus_entries(prefix: str | None = None) -> list:
    out = []
    for path in _corpus_files():
        obj = json.loads(path.read_text(encoding="utf-8"))
        if prefix and not obj["id"].startswith(prefix):
            continue
        out.append(CorpusEntry(
            obj["id"],
            parse_profile(obj["profile"]),
            from_json(obj["derivation"]),
            parse("any", obj["conclusion"]),
            obj.get("source", ""),
        ))
    return sorted(out, key=lambda e: e.id)


@dataclass(frozen=True)
class EntryResult:
    id: str
    stages: dict          # stage name -> "PASS" | "FAIL:..." | "SKIPPED-SEMANTICS"

    @property
    def ok(self) -> bool:
        return all(v == "PASS" or v.startswith("SKIPPED") for v in self.stages.values())


STAGES = ("check", "conclusion", "normalize", "normal_form", "tracks",
          "audit", "probe")


def run_entry(entry: CorpusEntry, max_worlds: int = 4) -> EntryResult:
    stages: dict = {}

    report = check(entry.derivation, entry.profile)
    if report.ok and report.is_theorem:
        stages["check"] = "PASS"
    elif report.ok:
        stages["check"] = "FAIL:not-a-theorem"
    else:
        stages["check"] = f"FAIL:{report.violations[0]}"
    stages["conclusion"] = (
        "PASS" if core_eq(entry.derivation.conclusion, entry.expected_conclusion)
        else "FAIL:conclusion-mismatch")

    nf = None
    if report.ok:
        try:
            nf = normalize(entry.derivation)
            preserved = nf.conclusion == entry.derivation.conclusion
            before = {c for c in open_assumptions(entry.derivation)}
            after = {c for c in open_assumptions(nf)}
            shrunk = all(any(core_eq(a, b) for b in before) for a in after)
            recheck = check(nf, entry.profile).ok
            if preserved and shrunk and recheck:
                stages["normalize"] = "PASS"
            else:
                stages["normalize"] = "FAIL:invariants"
        except NonTermination as exc:
            stages["normalize"] = f"FAIL:{exc}"
    else:
        stages["normalize"] = "FAIL:unchecked"

    if nf is not None:
        stages["normal_form"] = "PASS" if is_normal(nf).normal else "FAIL:redexes"
        try:
            tracks(nf)
            stages["tracks"] = "PASS"
        except (StructureViolation, ValueError) as exc:
            stages["tracks"] = f"FAIL:{exc}"
        audit = audit_subformula(nf)
        stages["audit"] = "PASS" if audit.ok else f"FAIL:{audit.violations[:3]}"
    else:
        stages["normal_form"] = stages["tracks"] = stages["audit"] = "FAIL:unchecked"

    if report.ok:
        probe = soundness_probe(entry.derivation, max_worlds, entry.profile)
        stages["probe"] = probe.status if probe.status != "FAIL" \
            else "FAIL:countermodel"
    else:
        stages["probe"] = "FAIL:unchecked"
    return EntryResult(entry.id, stages)


def run_corpus(prefix: str | None = None, max_worlds: int = 4,
               emit=None) -> tuple:
    """Run the pipeline over the corpus; returns (results, exit code)."""
    entries = corpus_entries(prefix)
    results = [run_entry(e, max_worlds) for e in entries]
    if emit is not None:
        width = max((len(r.id) for r in results), default=4)
        header = " ".join(s.rjust(11) for s in STAGES)
        emit(f"{'id'.ljust(width)} {header}")
        for r in results:
            row = " ".join(
                (r.stages[s].split(":")[0] if ":" in r.stages[s] else r.stages[s])
                .rjust(11) for s in STAGES)
            emit(f"{r.id.ljust(width)} {row}")
    code = 0
    for r in results:
        if r.stages["check"].startswith("FAIL") or r.stages["conclusion"].startswith("FAIL"):
            code = max(code, 1)
        elif any(r.stages[s].startswith("FAIL")
                 for s in ("normalize", "normal_form", "tracks", "audit")):
            code = max(code, 2)
        elif r.stages["probe"].startswith("FAIL"):
            code = max(code, 3)
    return results, code

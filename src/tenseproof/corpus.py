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
from .kernel import check
from .normalize import NonTermination, is_normal, normalize
from .parser import parse
from .rules import LogicProfile, parse_profile
from .semantics import soundness_probe
from .syntax import canon, core_eq
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
# the exit code of a failure at each stage: check, normalize, probe
_EXIT_CODES = dict(zip(STAGES, (1, 1, 2, 2, 2, 2, 3)))


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
            recheck = check(nf, entry.profile)
            before = {canon(b) for b in report.open}
            shrunk = all(canon(a) in before for a in recheck.open)
            if preserved and shrunk and recheck.ok:
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
        probe = soundness_probe(report, max_worlds, entry.profile)
        stages["probe"] = probe.status if probe.status != "FAIL" \
            else "FAIL:countermodel"
    else:
        stages["probe"] = "FAIL:unchecked"
    return EntryResult(entry.id, stages)


def run_corpus(prefix: str | None = None, max_worlds: int = 4,
               emit=None) -> tuple:
    """Run the pipeline over the corpus; returns (results, exit code).  The
    code is that of the earliest stage that fails, in any entry, or 0.
    ``ValueError`` if no entry id starts with ``prefix``."""
    entries = corpus_entries(prefix)
    if not entries:
        raise ValueError(f"no corpus entry id starts with {prefix!r}")
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
    code = min((_EXIT_CODES[s] for r in results for s in STAGES
                if r.stages[s].startswith("FAIL")), default=0)
    return results, code

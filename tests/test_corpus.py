import importlib.util
import pathlib
from dataclasses import replace

import pytest

from tenseproof import corpus
from tenseproof.corpus import corpus_entries, run_corpus, run_entry
from tenseproof.derivation import assume
from tenseproof.kernel import check, expand_derived
from tenseproof.normalize import NonTermination, canonical_form
from tenseproof.parser import parse_lwff as pl
from tenseproof.semantics import ProbeReport, find_countermodel
from tenseproof.syntax import ProofContext, core_eq
from tenseproof.tracks import StructureViolation

EXPECTED_IDS = {
    "g1", "g2", "g3", "g4", "h1", "h2",
    "first_point", "rser", "rdens", "rdiscr",
    "conn_canonical", "a2_fi", "a2_fe",
}


def test_registry_complete():
    entries = corpus_entries()
    assert {e.id for e in entries} == EXPECTED_IDS
    for e in entries:
        assert e.source


def test_prefix_filter():
    assert [e.id for e in corpus_entries("g")] == ["g1", "g2", "g3", "g4"]
    assert corpus_entries("nope") == []


def test_entries_check_and_match_conclusions():
    for e in corpus_entries():
        report = check(e.derivation, e.profile)
        assert report.ok, (e.id, [str(v) for v in report.violations])
        assert report.is_theorem, e.id
        assert core_eq(e.derivation.conclusion, e.expected_conclusion), e.id


def test_expansion_entries_are_the_expansions():
    by_id = {e.id: e for e in corpus_entries()}
    assert canonical_form(expand_derived(by_id["rser"].derivation)) == \
        canonical_form(by_id["a2_fi"].derivation)
    assert canonical_form(expand_derived(by_id["h2"].derivation)) == \
        canonical_form(by_id["a2_fe"].derivation)


def test_run_entry_stages():
    entry = [e for e in corpus_entries() if e.id == "g3"][0]
    result = run_entry(entry)
    assert result.ok
    assert result.stages["probe"] == "PASS"
    entry = [e for e in corpus_entries() if e.id == "rser"][0]
    result = run_entry(entry)
    assert result.stages["probe"] == "SKIPPED-SEMANTICS"
    assert result.ok


def test_run_entry_reports_failures():
    from tenseproof.corpus import CorpusEntry
    from tenseproof.derivation import assume, node
    from tenseproof.parser import parse_lwff as pl
    good = corpus_entries("g1")[0]
    broken = node("imp_e", pl("x : q"), assume(pl("x : p -> q")),
                  assume(pl("x : r")))
    entry = CorpusEntry("broken", good.profile, broken, broken.conclusion, "t")
    result = run_entry(entry)
    assert not result.ok
    assert result.stages["check"].startswith("FAIL")
    assert result.stages["normalize"].startswith("FAIL")
    open_entry = CorpusEntry("open", good.profile, assume(pl("x : p")),
                             pl("x : p"), "t")
    result = run_entry(open_entry)
    assert result.stages["check"] == "FAIL:not-a-theorem"


def test_probe_verdict_unchanged_by_normalize():
    from tenseproof.normalize import normalize
    from tenseproof.semantics import soundness_probe
    for e in corpus_entries():
        if not e.profile.finitely_modelable():
            continue
        nf = normalize(e.derivation)
        before = soundness_probe(check(e.derivation, e.profile), 3, e.profile).status
        after = soundness_probe(check(nf, e.profile), 3, e.profile).status
        assert before == after == "PASS", e.id


def test_run_corpus_summary():
    lines = []
    results, code = run_corpus(emit=lines.append)
    assert code == 0
    assert len(results) == len(EXPECTED_IDS)
    assert len(lines) == len(EXPECTED_IDS) + 1
    assert all(r.ok for r in results)


def test_bundled_files_are_what_the_builder_writes():
    # a kernel or serializer change that alters the corpus shows here
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "build_corpus", root / "tools" / "build_corpus.py")
    builder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(builder)
    texts = {entry_id: text for entry_id, _, _, text in builder.build_entries()}
    bundled = {p.stem: p.read_text(encoding="utf-8")
               for p in (root / "src" / "tenseproof" / "corpus").glob("*.json")}
    assert set(texts) == set(bundled) == EXPECTED_IDS
    for entry_id, text in texts.items():
        assert text == bundled[entry_id], entry_id


# ---------------------------------------------------------------------------
# Failure paths: each fault injected through a name ``corpus`` imports

def _refuting_probe(report, max_worlds=4, profile=None):
    """A probe result that found a countermodel: the one of ``x : p``."""
    cm = find_countermodel(ProofContext.make(), pl("x : p"), 1)
    assert cm is not None
    return ProbeReport("FAIL", max_worlds, cm)


def _stages(**patches):
    """The stages of entry g1 with the names ``corpus`` imports patched."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patches.items():
            mp.setattr(corpus, name, value)
        return run_entry(corpus_entries("g1")[0]).stages


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_a_wrong_expected_conclusion_fails_only_that_stage():
    entry = replace(corpus_entries("g1")[0], expected_conclusion=pl("x : p"))
    stages = run_entry(entry).stages
    assert stages["conclusion"] == "FAIL:conclusion-mismatch"
    assert all(v == "PASS" for s, v in stages.items() if s != "conclusion")


def test_a_normal_form_that_opens_an_assumption_breaks_the_invariants():
    stages = _stages(normalize=lambda d: assume(d.conclusion))
    assert stages["normalize"] == "FAIL:invariants"
    assert stages["check"] == stages["probe"] == "PASS"


def test_non_termination_is_a_failed_normalize_stage():
    exc = NonTermination(7)
    stages = _stages(normalize=_raise(exc))
    assert stages["normalize"] == f"FAIL:{exc}"
    assert stages["normal_form"] == stages["tracks"] == stages["audit"] \
        == "FAIL:unchecked"
    assert stages["check"] == stages["probe"] == "PASS"


def test_a_structure_violation_is_a_failed_tracks_stage():
    stages = _stages(tracks=_raise(StructureViolation("a track bends")))
    assert stages["tracks"] == "FAIL:a track bends"
    assert all(v == "PASS" for s, v in stages.items() if s != "tracks")


def test_a_countermodel_is_a_failed_probe_stage():
    stages = _stages(soundness_probe=_refuting_probe)
    assert stages["probe"] == "FAIL:countermodel"
    assert all(v == "PASS" for s, v in stages.items() if s != "probe")


def _code(failing: dict) -> int:
    """The exit code of ``run_corpus`` when entry ``id`` fails the stages
    ``failing[id]`` names and every other stage passes."""
    def run(entry, max_worlds):
        stages = dict.fromkeys(corpus.STAGES, "PASS")
        stages.update(dict.fromkeys(failing.get(entry.id, ()), "FAIL:injected"))
        return corpus.EntryResult(entry.id, stages)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "run_entry", run)
        return run_corpus()[1]


def test_run_corpus_exit_codes():
    assert _code({}) == 0
    assert _code({"g2": ["check"]}) == 1
    assert _code({"g2": ["conclusion"]}) == 1
    for stage in ("normalize", "normal_form", "tracks", "audit"):
        assert _code({"h1": [stage]}) == 2
    assert _code({"rser": ["probe"]}) == 3
    # an entry that fails check and probe counts as a check failure
    assert _code({"g3": ["check", "probe"]}) == 1
    assert _code({"g3": ["tracks", "probe"]}) == 2
    # across entries too the earliest stage's code wins, in whichever order
    # the entries come
    assert _code({"a2_fe": ["probe"], "h2": ["audit"]}) == 2
    assert _code({"a2_fe": ["check"], "h2": ["audit"]}) == 1
    assert _code({"a2_fe": ["check"], "g1": ["probe"], "h2": ["audit"]}) == 1
    assert _code({"rdiscr": ["check"], "g4": ["normalize"]}) == 1

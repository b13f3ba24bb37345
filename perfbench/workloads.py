"""The four workloads: how each loads its inputs, the call an item times,
how each output is verified, and what goes into the outputs digest.

Library functions are looked up on their module at call time, so a wrapper
installed from outside (the tracer, a test's delay) sees every call.

Run as ``python3 perfbench/workloads.py WORKLOAD WORKDIR`` (with ``src`` on
``PYTHONPATH``) to import ``tenseproof`` and load one workload's inputs in a
fresh process; ``setup_s`` times exactly that.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import oracle
from gen import NO_FINITE_FRAMES

PROBE_WORLDS = 4                 # ``tenseproof corpus`` default
STAGES = ("check", "conclusion", "normalize", "normal_form", "tracks",
          "audit", "probe")


def tp(module: str):
    return importlib.import_module(f"tenseproof.{module}")


class InputError(Exception):
    """An input the generator could not write; its item fails."""


def _read(workdir, name):
    with open(os.path.join(workdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _items(workdir, name, build):
    """``(name, payload)`` per entry of an inputs file; an entry the
    generator could not write becomes an item that fails."""
    return [(obj["name"], InputError(obj["error"]) if "error" in obj else build(obj))
            for obj in _read(workdir, name)]


def normal_form_problem(d, nf, profile, expect_nodes=None):
    """Why ``nf`` is not an acceptable normal form of ``d``, or None."""
    kernel, normalize, syntax = tp("kernel"), tp("normalize"), tp("syntax")
    if expect_nodes is not None and nf.node_count() != expect_nodes:
        return f"normal form has {nf.node_count()} nodes, expected {expect_nodes}"
    if nf.conclusion != d.conclusion:
        return "conclusion changed"
    if not kernel.check(nf, profile).ok:
        return "normal form does not check"
    if not normalize.is_normal(nf).normal:
        return "normal form has redexes"
    before = list(kernel.open_assumptions(d))
    for a in kernel.open_assumptions(nf):
        if not any(syntax.core_eq(a, b) for b in before):
            return "normal form opened a new assumption"
    return None


def _nf_record(nf, trace):
    derivation, normalize = tp("derivation"), tp("normalize")
    return {"normal_form": derivation.to_json(normalize.canonical_form(nf)),
            "trace": trace}


# ---------------------------------------------------------------------------

class Corpus:
    """The bundled entries through ``run_entry``: ``tenseproof corpus``."""

    name = "corpus"

    def load(self, workdir):
        return [(e.id, e) for e in tp("corpus").corpus_entries()]

    def run(self, entry):
        return tp("corpus").run_entry(entry, PROBE_WORLDS)

    def verify(self, entry, result):
        expected = dict.fromkeys(STAGES, "PASS")
        if entry.profile.extras & NO_FINITE_FRAMES:
            expected["probe"] = "SKIPPED-SEMANTICS"
        if result.stages != expected:
            return f"stages {result.stages}"
        return None

    def first(self, entry):
        result = self.run(entry)
        trace: list = []
        nf = tp("normalize").normalize(entry.derivation, trace=trace)
        problem = (self.verify(entry, result)
                   or normal_form_problem(entry.derivation, nf, entry.profile))
        return {"stages": result.stages, **_nf_record(nf, trace)}, problem

    def cli(self, workdir):
        def accept(code, out):
            rows = out.strip().splitlines()
            if code != 0 or len(rows) != 14 or "FAIL" in out:
                return f"exit {code}: {out[-200:]}"
            return None
        return ["corpus"], accept


class Detours:
    """Synthetic detour families through ``normalize``."""

    name = "detours"

    def load(self, workdir):
        derivation, rules = tp("derivation"), tp("rules")
        return _items(workdir, "detours.json", lambda obj: (
            derivation.from_json(obj["derivation"]),
            rules.parse_profile(obj["profile"]), obj["expect_nodes"]))

    def run(self, case):
        return tp("normalize").normalize(case[0])

    def verify(self, case, nf):
        return normal_form_problem(case[0], nf, case[1], case[2])

    def first(self, case):
        trace: list = []
        nf = tp("normalize").normalize(case[0], trace=trace)
        return _nf_record(nf, trace), self.verify(case, nf)

    def cli(self, workdir):
        spec = _read(workdir, "cli.json")

        def accept(code, out):
            lines = out.splitlines()
            steps = spec["steps"]
            try:
                trace = [json.loads(line) for line in lines[:steps]]
                nf = json.loads("\n".join(lines[steps:]))
            except ValueError:
                return f"exit {code}: unreadable output"
            if code != 0 or [r["step"] for r in trace] != list(range(1, steps + 1)) \
                    or nf.get("premises") or nf.get("conclusion") != spec["normal_form"]:
                return f"exit {code}: wrong normal form or trace"
            return None
        return ["normalize", os.path.join(workdir, "cli-input.json"), "--trace"], accept


class Check:
    """Derivations as JSON text through ``from_json`` and ``check``:
    ``tenseproof check FILE``."""

    name = "check"

    def load(self, workdir):
        rules = tp("rules")
        return _items(workdir, "check.json", lambda obj: (
            obj["text"], rules.parse_profile(obj["profile"]), obj["expect"]))

    def run(self, case):
        try:
            d = tp("derivation").from_json(json.loads(case[0]))
        except ValueError as exc:
            return exc
        return tp("kernel").check(d, case[1])

    def verify(self, case, report):
        expect = case[2]
        if expect == "reject":
            if isinstance(report, ValueError) or not report.ok:
                return None
            return "mutant accepted"
        if isinstance(report, ValueError):
            return f"rejected at load: {report}"
        if not report.ok:
            return f"rejected: {report.violations[0]}"
        if expect == "theorem" and not report.is_theorem:
            return "not a theorem"
        return None

    def first(self, case):
        report = self.run(case)
        if isinstance(report, ValueError):
            out = {"load_error": str(report)}
        else:
            out = {"ok": report.ok, "theorem": report.is_theorem,
                   "violations": [[v.kind, list(v.path)] for v in report.violations]}
        return out, self.verify(case, report)

    def cli(self, workdir):
        def accept(code, out):
            if code != 0 or "status: valid" not in out:
                return f"exit {code}: {out[-200:]}"
            return None
        return ["check", os.path.join(workdir, "cli-input.json")], accept


class Validity:
    """Bounded countermodel search on known theorems and planted
    non-theorems: ``tenseproof valid``."""

    name = "validity"

    def load(self, workdir):
        parser, rules = tp("parser"), tp("rules")
        return _items(workdir, "validity.json", lambda obj: (
            parser.parse("any", obj["formula"]), obj["worlds"],
            rules.parse_profile(obj["profile"]), obj["expect"]))

    def run(self, query):
        phi, worlds, profile, _ = query
        return tp("semantics").find_countermodel(
            tp("syntax").ProofContext.make(), phi, worlds, profile)

    def verify(self, query, cm):
        phi, worlds, _, expect = query
        if expect == "valid":
            return None if cm is None else "countermodel to a known theorem"
        if cm is None:
            return "no countermodel to a planted non-theorem"
        if not oracle.refutes(cm.to_json(), phi, worlds):
            return "countermodel does not refute the formula"
        return None

    def first(self, query):
        cm = self.run(query)
        return ("VALID" if cm is None else cm.to_json()), self.verify(query, cm)

    def cli(self, workdir):
        spec = _read(workdir, "cli.json")

        def accept(code, out):
            if code != 0 or out.strip() != f"VALID({spec['worlds']})":
                return f"exit {code}: {out[-200:]}"
            return None
        return ["valid", spec["formula"], "--max-worlds", str(spec["worlds"])], accept


WORKLOADS = {w.name: w for w in (Corpus(), Detours(), Check(), Validity())}


if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].load(sys.argv[2])

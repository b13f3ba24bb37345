"""Tests of the benchmark itself (not of tenseproof).

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps these out of the repository's default test run: several
tests time short benchmark runs, and the suite takes a minute or two.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tenseproof.kernel import check  # noqa: E402
from tenseproof.parser import parse  # noqa: E402
from tenseproof.rules import KL  # noqa: E402

SEEDS = (1, 2, 3)


def quick(workload, seed=1, trace=0):
    """One timed cycle, no fresh processes."""
    return run.run_workload(workload, seed, 0, trace, min_samples=1,
                            subprocesses=False)


def metric(result, name):
    return result["metrics"][name]["value"]


@contextlib.contextmanager
def replaced(module, name, make):
    """Swap a library function, everywhere it was imported, for
    ``make(original)``."""
    original = getattr(importlib.import_module(f"tenseproof.{module}"), name)
    undo = tracer.rebind(original, make(original))
    try:
        yield
    finally:
        tracer.restore(undo)


# ---------------------------------------------------------------------------
# Generators

def test_synthetic_inputs_check_and_mutants_are_rejected():
    for seed in SEEDS:
        rng = random.Random(seed)
        cases = gen.detour_cases(rng) + gen.derived_cases(rng)
        for case in cases:
            report = check(case.derivation, KL)
            assert report.ok, (seed, case.name, report.violations[:1])
            mutant = gen.mutate(case, rng)
            assert not check(mutant.derivation, KL).ok, (seed, mutant.name)


def _models(n, atoms):
    cells = [(a, w) for a in atoms for w in range(n)]
    for bits in itertools.product((False, True), repeat=len(cells)):
        valuation = {a: {w for (b, w), bit in zip(cells, bits) if bit and b == a}
                     for a in atoms}
        yield oracle.Frame(n, [(i, j) for i in range(n) for j in range(i + 1, n)],
                           valuation)


def test_validity_references_hold_in_the_reference_evaluator():
    rng = random.Random(1)
    queries = gen.validity_queries(rng, [])
    for q in queries:
        phi = parse("any", q.formula)
        if q.expect == "valid":
            # a theorem holds at every world of every chain up to 3 worlds
            atoms = sorted({c for c in q.formula if c in gen.ATOMS})
            for n in (1, 2, 3):
                for m in _models(n, atoms):
                    assert all(oracle.holds(m, {"x": w}, phi) for w in range(n)), q.name
        else:
            n, valuation = q.witness
            m = oracle.Frame(n, [(i, j) for i in range(n) for j in range(i + 1, n)],
                             valuation)
            assert not oracle.holds(m, {"x": 0}, phi), q.name
            for smaller in range(1, n):
                atoms = sorted(valuation)
                for m in _models(smaller, atoms):
                    assert all(oracle.holds(m, {"x": w}, phi)
                               for w in range(smaller)), q.name


def test_too_deep_input_is_a_failed_item_not_a_crash(tmp_path):
    entries = [gen._encode(c.name, c.derivation, profile="kl", expect_nodes=1)
               for c in (gen.Case("imp-10", gen.imp_detours(10, "p", "x")),
                         gen.Case("imp-700", gen.imp_detours(700, "p", "x")))]
    assert "error" in entries[1]
    (tmp_path / "detours.json").write_text(json.dumps(entries))
    wl = workloads.WORKLOADS["detours"]
    loop = run.Loop(wl, wl.load(str(tmp_path)))
    loop.warm_up()
    loop.measure(0, min_samples=1)
    assert (loop.attempted, loop.failed) == (4, 2)


# ---------------------------------------------------------------------------
# Verification

def test_untampered_runs_verify_every_output():
    for workload in workloads.WORKLOADS:
        result, detail = quick(workload)
        assert result["correct"] and result["failed"] == 0, detail["errors"]
        assert metric(result, "ok_frac") == 1.0


def test_wrong_verdict_is_counted_as_failed():
    with replaced("semantics", "find_countermodel", lambda f: lambda *a, **k: None):
        result, detail = quick("validity")
    planted = sum(1 for q in gen.validity_queries(random.Random(1), [])
                  if q.expect == "invalid")
    assert not result["correct"]
    # every planted non-theorem fails, in the warm-up and in the cycle
    assert result["failed"] == 2 * planted
    assert metric(result, "ok_frac") == 1 - result["failed"] / result["attempted"]


def test_non_normal_tree_is_counted_as_failed():
    with replaced("normalize", "normalize", lambda f: lambda d, *a, **k: d):
        result, _ = quick("detours")
    assert result["failed"] == result["attempted"]
    assert metric(result, "ok_frac") == 0.0


def test_outputs_digest_is_identical_across_processes():
    script = ("import sys, run; sys.path[:0] = [run.SRC]; "
              "print(run.run_workload(sys.argv[1], 5, 0, 0, min_samples=1, "
              "subprocesses=False)[1]['digest'])")

    def digest(workload, hash_seed):
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
        proc = subprocess.run([sys.executable, "-c", script, workload],
                              cwd=HERE, env=env, capture_output=True, text=True,
                              timeout=180)
        assert proc.returncode == 0, proc.stderr[-500:]
        return proc.stdout.strip()

    for workload in workloads.WORKLOADS:
        assert digest(workload, 1) == digest(workload, 2), workload


def test_without_sources_the_benchmark_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""


def test_reference_slice_is_independent_of_tenseproof():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, reference; reference.timed_slice(); "
         "print(any(m.startswith('tenseproof') for m in sys.modules))"],
        cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


# ---------------------------------------------------------------------------
# Metrics respond to the layer they measure

DELAY = 0.02


def _delayed(f):
    def slow(*args, **kwargs):
        time.sleep(DELAY)
        return f(*args, **kwargs)
    return slow


def scaled_delay(detail):
    """The delay as the run reports it, at reference speed."""
    return reference.scale(DELAY, detail["raw"]["slice_ms"] / 1e3)


def test_delay_in_semantics_moves_validity_and_not_check():
    base_validity, _ = quick("validity")
    base_check, _ = quick("check")
    with replaced("semantics", "find_countermodel", _delayed):
        slow_validity, slow_detail = quick("validity")
        slow_check, _ = quick("check")
        traced_validity, traced_detail = quick("validity", trace=1)
        traced_check, _ = quick("check", trace=1)
    # one search per validity item: every latency grows by the delay
    assert metric(slow_validity, "item_p50_ms") > (
        metric(base_validity, "item_p50_ms") + 0.75e3 * scaled_delay(slow_detail))
    assert metric(slow_validity, "items_per_s") < metric(base_validity, "items_per_s")
    assert metric(traced_validity, "semantics.find_countermodel_s") >= (
        0.9 * scaled_delay(traced_detail))
    # the check workload never searches
    assert metric(traced_check, "semantics.find_countermodel_s") == 0
    assert metric(slow_check, "item_p50_ms") < metric(base_check, "item_p50_ms") + 10


def test_traced_split_of_the_work():
    layers = {}
    for workload in workloads.WORKLOADS:
        result, detail = quick(workload, trace=1)
        assert result["correct"], detail["errors"]
        layers[workload] = {name[len("self."):-len("_s")]: v["value"]
                            for name, v in result["metrics"].items()
                            if name.startswith("self.")}
        assert "trace.overhead_frac" in result["metrics"]
        assert detail["spans"]["kept"] > 0

    def top(workload):
        return max(layers[workload], key=layers[workload].get)

    assert top("detours") == "normalize"
    assert top("validity") == "semantics"
    check_self = layers["check"]
    assert check_self["kernel"] + check_self["parser"] > 0.5 * sum(check_self.values())
    for workload in ("check", "validity"):
        assert layers[workload]["normalize"] == 0, workload
    for workload in ("detours", "check"):
        assert layers[workload]["semantics"] == 0, workload
    # three checks per corpus entry: run_entry twice, soundness_probe once
    corpus, _ = quick("corpus", trace=1)
    assert metric(corpus, "kernel.check_calls") == 3

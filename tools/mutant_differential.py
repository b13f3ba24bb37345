#!/usr/bin/env python3
"""Print the check report of 24 000 seeded mutants of small derivations.

Each mutant is a base tree with one to three fields changed by the
``_mutant`` of ``tools/output_digest.py`` (a rule, a conclusion, a label, a
marker, the discharges, the fresh label, the position, the order of the
premises, or a rule swapped with its twin of the other sort): 8000 mutants
at seed 2024, then 16 000 at seed 7.  The bases are the bundled corpus,
``DERIVED_TREES`` of the kernel tests, and the seed-1 detour and
derived-rule families of ``perfbench/gen.py`` of at most 400 nodes.
Mutants share every subtree they do not change with their base, so a
verdict the checker keeps on a node is met again in many trees.

One line per mutant gives its ``ok`` and ``is_theorem`` and a short hash of
its violations (kind, path, message); the last line counts the accepted
mutants.  Only the library comes from ``--src``; the bases and the mutation
come from this checkout, so two checkouts check the same mutants:

    python3 tools/mutant_differential.py --src ../old/src > old.txt
    python3 tools/mutant_differential.py --src src > new.txt
    diff old.txt new.txt

An identical output is the evidence that a change to the checker keeps
every verdict and every violation.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
ROUNDS = ((2024, 8000), (7, 16000))     # (seed, mutants)


def _bases(lib) -> list:
    """``(derivation, profile)`` for every base tree."""
    import gen
    from test_kernel import DERIVED_TREES

    KL = lib.rules.KL
    out = [(e.derivation, e.profile) for e in lib.corpus.corpus_entries()]
    out += [(tree(), KL) for _, tree in DERIVED_TREES]
    rng = random.Random(1)
    out += [(c.derivation, lib.rules.parse_profile(c.profile))
            for c in gen.detour_cases(rng) + gen.derived_cases(rng)
            if c.derivation.node_count() <= 400]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the tenseproof package to check")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(pathlib.Path(args.src).resolve()),
                    str(ROOT / "tests"), str(ROOT / "perfbench"),
                    str(ROOT / "tools")]
    from output_digest import _hash, _mutant
    lib = argparse.Namespace(**{
        m: importlib.import_module(f"tenseproof.{m}")
        for m in ("corpus", "derivation", "kernel", "rules", "syntax")})
    bases = _bases(lib)
    accepted = 0
    for seed, count in ROUNDS:
        rng = random.Random(seed)
        for i in range(count):
            d, profile = rng.choice(bases)
            for _ in range(rng.randint(1, 3)):
                d = _mutant(rng, d, lib) or d
            report = lib.kernel.check(d, profile)
            accepted += report.ok
            print(f"{seed}-{i} ok={report.ok} theorem={report.is_theorem} "
                  "violations=" + _hash([[v.kind, list(v.path), v.message]
                                         for v in report.violations]))
    print(f"accepted {accepted} of {sum(count for _, count in ROUNDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare every output of the library at a git revision with this checkout's.

Extracts ``src/`` of REV with ``git archive`` into a temporary directory
(nothing is written inside the repository), runs
``tools/output_digest.py --src`` and ``tools/mutant_differential.py --src``
on both sides, and prints for each tool "identical" or the count of
differing lines and the first few of them.  The generators and the
mutation come from this checkout, so both sides digest the same inputs.
Exits 1 on any difference, 2 if REV cannot be read.  It takes about twice
the two tools' time, some five minutes:

    python3 tools/compare_outputs.py HEAD~1
"""

from __future__ import annotations

import argparse
import io
import pathlib
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOLS = ("output_digest.py", "mutant_differential.py")
SHOWN = 5       # differing lines printed per tool


def _outputs(tool: str, src) -> list:
    """The lines ``tool`` prints with the library taken from ``src``."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / tool), "--src", str(src)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def differences(name: str, old: list, new: list) -> list:
    """The report lines for one tool: "identical", or the count of lines
    that differ (by position; a missing line counts too) and the first
    ``SHOWN`` of them, old then new."""
    missing = abs(len(old) - len(new))
    pairs = [(i, a, b) for i, (a, b) in enumerate(zip(old, new), 1) if a != b]
    if not pairs and not missing:
        return [f"{name}: identical ({len(new)} lines)"]
    out = [f"{name}: {len(pairs) + missing} of {max(len(old), len(new))} "
           f"lines differ"]
    for i, a, b in pairs[:SHOWN]:
        out += [f"  {i} - {a}", f"  {i} + {b}"]
    if missing:
        out.append(f"  {len(old)} lines before, {len(new)} after")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the git revision to compare with")
    args = ap.parse_args(argv)
    archive = subprocess.run(["git", "archive", "--format=tar", args.rev, "src"],
                             cwd=ROOT, capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode(errors="replace").strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        differ = False
        for tool in TOOLS:
            old = _outputs(tool, pathlib.Path(tmp) / "src")
            new = _outputs(tool, ROOT / "src")
            print("\n".join(differences(tool, old, new)), flush=True)
            differ |= old != new
    return int(differ)


if __name__ == "__main__":
    raise SystemExit(main())

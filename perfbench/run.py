"""tenseproof benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 12 --trace 0

Run from the repository root.  The run is single-process, single-thread and
closed-loop: the next item starts when the previous one ends, and every
output is verified outside the timed region.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
sample counts, raw (unscaled) timings, the outputs digest and the first
failures.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead.  Every timing
is scaled to the reference speed of perfbench/reference.py, so that drift
in the machine's speed cancels out.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_SAMPLES = 100        # so that at least 10 latencies lie above p90
FRESH_SAMPLES = 10        # setup_s and cli_s samples per run
FRESH_SLICES = 5          # reference slices before and after each of them
CHILD_TIMEOUT = 60


def child_env():
    return {**os.environ, "PYTHONPATH": SRC}


def wall(argv):
    """Wall time of a fresh process, scaled by the median reference slice
    timed just before and just after it; returns (scaled, raw, process)."""
    slices = [reference.timed_slice() for _ in range(FRESH_SLICES)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    dt = time.perf_counter() - t0
    slices += [reference.timed_slice() for _ in range(FRESH_SLICES)]
    return reference.scale(dt, statistics.median(slices)), dt, proc


class FreshProcesses:
    """``setup_s`` and ``cli_s`` samples, each a fresh process timed from
    spawn to exit.  Samples are spread over the measured cycles, so that a
    burst of load on the machine hits only some of them."""

    def __init__(self, wl, workload, workdir, n):
        self.n = n
        self.setup_argv = [sys.executable, os.path.join(HERE, "workloads.py"),
                           workload, workdir]
        cli_args, self.accept = wl.cli(workdir)
        self.cli_argv = [sys.executable, "-m", "tenseproof.cli", *cli_args]
        self.setup, self.cli = [], []
        self.raw = {"setup_s": [], "cli_s": []}
        self.problem = None
        self.spent = 0.0            # wall time inside these processes
        self._take(record=False)    # writes the bytecode caches

    def _take(self, record=True):
        t0 = time.perf_counter()
        dt_setup, raw_setup, proc = wall(self.setup_argv)
        if proc.returncode != 0:
            raise RuntimeError(f"loading inputs failed: {proc.stderr[-500:]}")
        dt_cli, raw_cli, proc = wall(self.cli_argv)
        self.problem = self.problem or self.accept(proc.returncode, proc.stdout)
        if record:
            self.setup.append(dt_setup)
            self.cli.append(dt_cli)
            self.raw["setup_s"].append(raw_setup)
            self.raw["cli_s"].append(raw_cli)
        self.spent += time.perf_counter() - t0

    def due(self, fraction):
        """Take the samples due once ``fraction`` of the run has passed."""
        while len(self.setup) < min(self.n, math.ceil(self.n * fraction)):
            self._take()


class Loop:
    """Closed-loop item runner with verification outside the timer."""

    def __init__(self, wl, items):
        self.wl = wl
        self.items = items
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _fail(self, name, reason):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{name}: {reason}")

    def warm_up(self):
        """One untimed pass that also verifies each output and returns the
        digest of every item's record."""
        h = hashlib.sha256()
        for name, payload in sorted(self.items, key=lambda it: it[0]):
            self.attempted += 1
            try:
                if isinstance(payload, Exception):
                    raise payload
                record, problem = self.wl.first(payload)
            except Exception as exc:  # an item that raises fails; the run goes on
                self._fail(name, f"{type(exc).__name__}: {exc}")
                h.update(f"{name}\tERROR\n".encode())
                continue
            if problem:
                self._fail(name, problem)
            h.update(f"{name}\t{json.dumps(record, sort_keys=True)}\n".encode())
        return h.hexdigest()

    def _call(self, payload):
        if isinstance(payload, Exception):
            raise payload
        if self.tracer is None:
            return self.wl.run(payload)
        return self.tracer.span("bench.item", "bench", self.wl.run, payload)

    def cycle(self):
        """Every item once, in order, with a reference slice before the
        first item and after each; returns ``(latency, slice time)`` per
        item, the slice time being the mean of the slices either side."""
        latencies = []
        tracer = self.tracer
        before = reference.timed_slice()
        for name, payload in self.items:
            self.attempted += 1
            if tracer:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out = self._call(payload)
            except Exception as exc:  # an item that raises fails; the run goes on
                out, problem = None, f"{type(exc).__name__}: {exc}"
            else:
                problem = None
            latency = time.perf_counter() - t0
            if tracer:
                tracer.enabled = False
            after = reference.timed_slice()
            latencies.append((latency, (before + after) / 2))
            before = after
            if problem is None:
                try:
                    problem = self.wl.verify(payload, out)
                except Exception as exc:
                    problem = f"verification raised {type(exc).__name__}: {exc}"
            if problem:
                self._fail(name, problem)
        return latencies

    def measure(self, seconds, min_samples=MIN_SAMPLES, fresh=None):
        """Whole cycles until they have taken ``seconds`` and ``min_samples``
        latencies are in, with the fresh-process samples in between;
        returns the latencies of each cycle."""
        cycles = []
        start = time.perf_counter()
        while True:
            cycles.append(self.cycle())
            elapsed = time.perf_counter() - start - (fresh.spent if fresh else 0)
            if fresh:
                fresh.due(elapsed / seconds if seconds else 1)
            if elapsed >= seconds and sum(map(len, cycles)) >= min_samples:
                break
        if fresh:
            fresh.due(1)
        return cycles

    def measure_traced(self, seconds, min_samples=MIN_SAMPLES):
        """Alternate untraced and traced cycles, so that drift on the
        machine hits both alike; returns (untraced cycles, traced cycles,
        tracer)."""
        from tracer import Tracer
        tracer = Tracer()
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline or not traced
               or sum(map(len, plain + traced)) < min_samples):
            plain.append(self.cycle())
            with tracer:
                self.tracer = tracer
                traced.append(self.cycle())
                self.tracer = None
        return plain, traced, tracer


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def scaled(cycles):
    """Item latencies at reference speed, each scaled by the slices timed
    either side of the item."""
    return [[reference.scale(lat, ref) for lat, ref in c] for c in cycles]


def items_per_s(cycles):
    """Items per second of item time, from each item's median latency over
    the cycles (every cycle runs the same items in the same order)."""
    return len(cycles[0]) / sum(map(statistics.median, zip(*cycles)))


def raw_timings(cycles):
    """The unscaled figures, for the detail line."""
    lat = sorted(lat for c in cycles for lat, _ in c)
    return {"items_per_s": items_per_s([[x for x, _ in c] for c in cycles]),
            "item_p50_ms": percentile(lat, 0.5) * 1e3,
            "item_p90_ms": percentile(lat, 0.9) * 1e3,
            "slice_ms": statistics.median(r for c in cycles for _, r in c) * 1e3}


def end_to_end(loop, cycles, setup, cli):
    cycles = scaled(cycles)
    lat = sorted(x for c in cycles for x in c)
    return {
        "items_per_s": (items_per_s(cycles), "1/s"),
        "item_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
        "item_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
        "ok_frac": (1 - loop.failed / loop.attempted, "frac"),
        "setup_s": (statistics.median(setup), "s"),
        "cli_s": (statistics.median(cli), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, plain, traced):
    from tracer import LAYERS
    n_traced = sum(map(len, traced))
    # span times are scaled at the traced cycles' median reference speed
    speed = reference.scale(1, statistics.median(r for c in traced for _, r in c))

    def per_item(x):
        return x / n_traced

    def per_item_s(x):
        return x * speed / n_traced

    def mean_latency(cycles):
        cycles = scaled(cycles)
        return sum(map(sum, cycles)) / sum(map(len, cycles))

    inc, calls = tracer.inclusive, tracer.calls
    nodes_in, nodes_out = tracer.expand_nodes
    steps = calls["normalize.reduce_step"]
    out = {
        "parser.from_json_s": (per_item_s(inc["parser.from_json"]), "s"),
        "kernel.check_s": (per_item_s(inc["kernel.check"]), "s"),
        "kernel.check_calls": (per_item(calls["kernel.check"]), "count"),
        "kernel.expand_s": (per_item_s(inc["kernel.expand"]), "s"),
        "kernel.expand_growth": (nodes_out / nodes_in if nodes_in else 0.0, "ratio"),
        "normalize.normalize_s": (per_item_s(inc["normalize.normalize"]), "s"),
        "normalize.find_redexes_s": (per_item_s(inc["normalize.find_redexes"]), "s"),
        "normalize.find_redexes_calls": (per_item(calls["normalize.find_redexes"]), "count"),
        "normalize.reduce_step_s": (per_item_s(inc["normalize.reduce_step"]), "s"),
        "normalize.reduce_step_calls": (per_item(steps), "count"),
        "normalize.scans_per_step": (
            calls["normalize.find_redexes"] / steps if steps else 0.0, "ratio"),
        "tracks.tracks_s": (per_item_s(inc["tracks.tracks"]), "s"),
        "tracks.audit_s": (per_item_s(inc["tracks.audit"]), "s"),
        "semantics.find_countermodel_s": (per_item_s(inc["semantics.find_countermodel"]), "s"),
        "semantics.entails_calls": (per_item(calls["semantics.entails"]), "count"),
        "semantics.entails_s": (per_item_s(inc["semantics.entails"]), "s"),
        "semantics.probe_s": (per_item_s(inc["semantics.probe"]), "s"),
    }
    for layer in LAYERS:
        out[f"self.{layer}_s"] = (per_item_s(tracer.self_time[layer]), "s")
    out["trace.overhead_frac"] = (mean_latency(traced) / mean_latency(plain) - 1,
                                  "frac")
    return out


def run_workload(workload, seed, seconds, trace, min_samples=MIN_SAMPLES,
                 subprocesses=True):
    """One benchmark run; returns (result line, detail line) as dicts.
    ``subprocesses=False`` skips the fresh-process timings (for tests)."""
    import gen
    import workloads

    wl = workloads.WORKLOADS[workload]
    workdir = os.path.join(HERE, ".work", f"{workload}-s{seed}")
    gen.write_inputs(workload, seed, workdir)
    detail = {"workload": workload, "seed": seed}
    items = wl.load(workdir)
    random.Random(seed).shuffle(items)
    loop = Loop(wl, items)
    detail["digest"] = loop.warm_up()

    problems = []
    if not trace:
        fresh = (FreshProcesses(wl, workload, workdir, FRESH_SAMPLES)
                 if subprocesses else None)
        cycles = loop.measure(seconds, min_samples, fresh)
        detail["raw"] = raw_timings(cycles)
        if fresh:
            detail["setup_samples"], detail["cli_samples"] = fresh.setup, fresh.cli
            detail["raw"].update({k: statistics.median(v)
                                  for k, v in fresh.raw.items()})
            if fresh.problem:
                problems.append(f"cli: {fresh.problem}")
        nan = [float("nan")]
        metrics = end_to_end(loop, cycles, fresh.setup if fresh else nan,
                             fresh.cli if fresh else nan)
        n = sum(map(len, cycles))
        above = sum(1 for c in scaled(cycles) for x in c
                    if x * 1e3 > metrics["item_p90_ms"][0])
        detail["samples"] = {"item_p50_ms": n, "item_p90_ms": n,
                             "above_p90": above, "cycles": len(cycles)}
    else:
        plain, traced, tracer = loop.measure_traced(seconds, min_samples)
        metrics = per_layer(tracer, plain, traced)
        spans_path = os.path.join(workdir, "spans.jsonl")
        tracer.write(spans_path)
        detail["spans"] = {"file": os.path.relpath(spans_path, ROOT),
                           "kept": len(tracer.spans), "dropped": tracer.dropped}
        detail["samples"] = {"untraced": sum(map(len, plain)),
                             "traced": sum(map(len, traced))}
        detail["raw"] = {"slice_ms": raw_timings(traced)["slice_ms"]}

    detail["errors"] = problems + loop.errors
    result = {
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "detours", "check", "validity"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tenseproof", "__init__.py")):
        print(f"no tenseproof sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and its children, so that each item and
        # the reference slice that scales it run on the same core.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result, detail = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

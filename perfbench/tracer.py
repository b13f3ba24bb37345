"""Span tracing from outside the library.

``Tracer.install`` wraps the public functions named in ``TARGETS`` and
rebinds every ``tenseproof`` module attribute that refers to one of them,
so calls made through a name a module imported (``corpus.normalize``, the
``find_redexes`` that ``reduce_step`` calls) are seen too.  Each span keeps
its name, start, end and parent; self time per layer is a span's duration
minus the time its child spans cover.  A function called again while its own
span is open (``from_json`` recursing) runs inside that span: its defining
module holds the unwrapped function meanwhile, so recursion costs no extra
stack frames and fails at the same depth as in an untraced run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# span name -> (module, function, layer)
TARGETS = {
    "parser.from_json": ("derivation", "from_json", "parser"),
    "kernel.check": ("kernel", "check", "kernel"),
    "kernel.expand": ("kernel", "expand_derived", "kernel"),
    "normalize.normalize": ("normalize", "normalize", "normalize"),
    "normalize.find_redexes": ("normalize", "find_redexes", "normalize"),
    "normalize.reduce_step": ("normalize", "reduce_step", "normalize"),
    "normalize.is_normal": ("normalize", "is_normal", "normalize"),
    "tracks.tracks": ("tracks", "tracks", "tracks"),
    "tracks.audit": ("tracks", "audit_subformula", "tracks"),
    "semantics.find_countermodel": ("semantics", "find_countermodel", "semantics"),
    "semantics.entails": ("semantics", "entails", "semantics"),
    "semantics.probe": ("semantics", "soundness_probe", "semantics"),
    "corpus.run_entry": ("corpus", "run_entry", "corpus"),
}

LAYERS = ("parser", "kernel", "normalize", "tracks", "semantics", "corpus",
          "bench")

MAX_KEPT_SPANS = 100_000


def rebind(original, replacement) -> list:
    """Point every ``tenseproof`` module attribute that is ``original`` at
    ``replacement``; returns ``(module, name, original)`` triples to undo."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "tenseproof" and not mod_name.startswith("tenseproof."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))
    return undo


def restore(undo) -> None:
    for mod, key, original in reversed(undo):
        setattr(mod, key, original)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans = []            # (id, name, start, end, parent id)
        self.dropped = 0
        self.inclusive = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.expand_nodes = [0, 0]  # nodes in, nodes out
        self._stack = []           # [span id, time covered by children]
        self._open = defaultdict(int)
        self._next_id = 0
        self._patched = []
        self._home = {}            # span name -> (module, attr, original, wrapper)

    # -- spans --------------------------------------------------------------

    def span(self, name, layer, fn, *args, **kwargs):
        if not self.enabled or self._open[name]:
            return fn(*args, **kwargs)
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        home = self._home.get(name)
        if home:
            setattr(home[0], home[1], home[2])
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if home:
                setattr(home[0], home[1], home[3])
            self._open[name] -= 1
            self._stack.pop()
            duration = end - start
            self.inclusive[name] += duration
            self.calls[name] += 1
            self.self_time[layer] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((sid, name, start, end, parent))
            else:
                self.dropped += 1
        if name == "kernel.expand":
            self._count_growth(args[0], result)
        return result

    def _count_growth(self, before, after):
        # node counting is tracing cost: hide it from the enclosing span
        t0 = time.perf_counter()
        self.expand_nodes[0] += before.node_count()
        self.expand_nodes[1] += after.node_count()
        if self._stack:
            self._stack[-1][1] += time.perf_counter() - t0

    # -- patching -----------------------------------------------------------

    def install(self):
        for name, (module, attr, layer) in TARGETS.items():
            home = importlib.import_module(f"tenseproof.{module}")
            original = getattr(home, attr)
            wrapper = self._wrapper(name, layer, original)
            self._home[name] = (home, attr, original, wrapper)
            self._patched += rebind(original, wrapper)

    def uninstall(self):
        restore(self._patched)
        self._patched.clear()
        self._home.clear()

    def _wrapper(self, name, layer, fn):
        def traced(*args, **kwargs):
            return self.span(name, layer, fn, *args, **kwargs)
        return traced

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output -------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

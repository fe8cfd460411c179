"""Outside-in call tracer for the nslocc modules.

The tracer wraps chosen public functions of the library without touching its
source.  ``from .x import f`` copies the binding of ``f`` into the importing
module, so patching the defining module alone would miss every call made
through such a copy; ``install`` therefore replaces the function in *every*
loaded ``nslocc`` namespace that bound it.  Spans are kept in memory and only
turned into numbers (or written out) after the traced work has returned.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Records one span per call of each target function.

    targets: metric prefixes such as ``"channels.symmetrize_channel"``, each
    naming ``nslocc.<module>.<function>``.  keep_results: targets whose return
    values are kept per iteration (the benchmark reads protocol provenance and
    grid sizes from them).
    """

    def __init__(self, targets: list[str], keep_results: tuple[str, ...] = ()):
        self.functions = {}
        for name in targets:
            module, attr = name.rsplit(".", 1)
            self.functions[name] = getattr(
                importlib.import_module(f"nslocc.{module}"), attr)
        self.keep_results = set(keep_results)
        self.spans: list[list] = []     # [name, start, end, parent, iteration]
        self.results: dict[str, list] = defaultdict(list)  # (iteration, value)
        self.iteration = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.bindings: dict[str, int] = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = name in self.keep_results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          self.iteration])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if keep:
                self.results[name].append((self.iteration, result))
            return result

        return traced

    def install(self) -> None:
        """Patch every nslocc namespace that holds one of the targets."""
        by_id = {id(fn): (name, self._wrap(name, fn))
                 for name, fn in self.functions.items()}
        self.bindings = dict.fromkeys(self.functions, 0)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "nslocc" and not mod_name.startswith("nslocc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
                    self.bindings[hit[0]] += 1

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write_spans(self, path) -> None:
        """Write every span as one JSON line, start and end in seconds."""
        with open(path, "w") as fh:
            for name, start, end, parent, it in self.spans:
                fh.write(json.dumps({"iteration": it, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")

    def per_iteration(self) -> dict[int, dict[str, tuple[float, int]]]:
        """{iteration: {target: (self seconds, calls)}}.

        Self time is a span's duration minus the durations of its direct
        child spans; calls are single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, list]] = defaultdict(
            lambda: {name: [0.0, 0] for name in self.functions})
        for i, (name, start, end, _, it) in enumerate(self.spans):
            entry = out[it][name]
            entry[0] += end - start - child[i]
            entry[1] += 1
        return {it: {k: (v[0], v[1]) for k, v in d.items()}
                for it, d in out.items()}

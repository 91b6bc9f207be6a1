"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper wherever a ``seifert`` module (or the package itself)
looks the original up, so ``seifert.lens.normalize`` and
``seifert.notation.decide_hvf`` are traced as well as the definitions.  Each
span records its name, start, end, parent span, the item it belongs to and
whether it raised; spans are kept in flat arrays and written out only when
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("exactmath", "orbifold", "invariant", "hvf", "lens", "homotopy", "notation", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.item = array("q")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.item_id = -1
        self._stack = [-1]
        self._patches: list[tuple[dict, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.item.append(self.item_id)
        self.end.append(0.0)
        self.raised.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span of its own (for the benchmark's
        own steps, such as the item root and JSON serialisation)."""
        idx = self.begin(self.name_id(name))
        try:
            return fn(*args)
        finally:
            self.finish(idx)

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        begin, finish, raised = self.begin, self.finish, self.raised

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                finish(idx)

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"seifert.{layer}")
            if mod is None:  # the cli module is imported only where it is used
                continue
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "seifert" and not mod_name.startswith("seifert."):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((namespace, attr, value))
                    namespace[attr] = hit[1]

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            namespace[attr] = original
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def write(self, path: Path) -> None:
        """Write the spans as ``<path>.json`` (names and column layout) and
        ``<path>.bin`` (the columns, one after another, native byte order)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name", "parent", "item", "start", "end", "raised")
        with open(path.with_suffix(".bin"), "wb") as out:
            for column in columns:
                getattr(self, column).tofile(out)
        layout = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [[c, getattr(self, c).typecode] for c in columns],
        }
        path.with_suffix(".json").write_text(json.dumps(layout))

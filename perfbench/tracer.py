"""Outside-in tracer: spans around the calls into each driventls layer.

The package's modules bind their dependencies with ``from .x import y``, so
wrapping ``driventls.x.y`` alone would miss every internal call.  The tracer
instead replaces each public function at every name a caller looks it up
by: each ``driventls`` module attribute that is a public function defined
in the package.  A layer is the defining module (``propagator``,
``floquet``, ...), except where ``LAYER_OVERRIDES`` names a finer one.

A call into a layer that is already the innermost open span passes
straight through (it is counted, but opens no span), so a layer's nested
helpers are timed once.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

PACKAGE = "driventls"

# rendering is the part of the cli layer a serialisation change moves
LAYER_OVERRIDES = {"driventls.cli.render": "cli.render"}


class Tracer:
    """Install with ``install()``, remove with ``uninstall()`` (or use as a
    context manager).  ``hooks`` maps a qualified function name to
    ``hook(arguments, counters)``, called with the bound arguments (defaults
    applied) before each call of it that opens a span; ``tag`` is stored on
    every span."""

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.spans = []  # (id, parent id, tag, layer, function, start ns, end ns)
        self.self_ns = Counter()
        self.calls = Counter()  # per qualified function, nested calls included
        self.counters = Counter()
        self.tag = None
        self._stack = []  # open spans: [id, layer, child ns]
        self._saved = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith(PACKAGE + "."):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, func):
        qualified = f"{func.__module__}.{func.__name__}"
        layer = LAYER_OVERRIDES.get(qualified, func.__module__[len(PACKAGE) + 1 :])
        hook = self.hooks.get(qualified)
        signature = inspect.signature(func) if hook else None
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.calls[qualified] += 1
            if stack and stack[-1][1] == layer:
                result = func(*args, **kwargs)
            else:
                if hook:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, self.counters)
                span_id = len(self.spans)
                parent = stack[-1][0] if stack else None
                self.spans.append(None)
                stack.append([span_id, layer, 0])
                start = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = clock()
                    _, _, child_ns = stack.pop()
                    self.spans[span_id] = (span_id, parent, self.tag, layer, qualified, start, end)
                    self.self_ns[layer] += end - start - child_ns
                    if stack:
                        stack[-1][2] += end - start
            return result

        return traced

    # -- results -------------------------------------------------------
    def wall_ns(self) -> int:
        """Time inside outermost spans."""
        return sum(s[6] - s[5] for s in self.spans if s is not None and s[1] is None)

    def layer_calls(self) -> Counter:
        """Spans opened per layer: calls into it from another layer."""
        return Counter(s[3] for s in self.spans if s is not None)

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        fields = ("id", "parent", "tag", "layer", "function", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(dict(zip(fields, span))) + "\n")


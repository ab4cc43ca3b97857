"""In-memory spans around the calls the benchmark makes into ldnc.

The tracer wraps ldnc's public functions where they are looked up: in
every ldnc module namespace that holds them, so a call the CLI makes into
``fileformat`` or ``search`` makes into ``coding`` is recorded too.  The
wrappers exist only inside :meth:`Tracer.patched`; untraced runs call
the original functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

# span name -> (module that defines the function, attribute)
TRACED = {
    "network.validate": ("ldnc.network", "validate"),
    "network.detect_layers": ("ldnc.network", "detect_layers"),
    "network.reciprocal": ("ldnc.network", "reciprocal"),
    "network.reciprocal_layered": ("ldnc.network", "reciprocal_layered"),
    "search.exhaustive_search": ("ldnc.search", "exhaustive_search"),
    "search.random_search": ("ldnc.search", "random_search"),
    "search.candidate_code": ("ldnc.search", "candidate_code"),
    "coding.transfer_matrices": ("ldnc.coding", "transfer_matrices"),
    "coding.simulate": ("ldnc.coding", "simulate"),
    "coding.is_solving": ("ldnc.coding", "is_solving"),
    "reciprocity.transpose_code": ("ldnc.reciprocity", "transpose_code"),
    "reciprocity.verify_reciprocity": ("ldnc.reciprocity", "verify_reciprocity"),
    "layering.unfold": ("ldnc.layering", "unfold"),
    "layering.lift_code": ("ldnc.layering", "lift_code"),
    "layering.project_code": ("ldnc.layering", "project_code"),
    "layering.simulate_unlayered": ("ldnc.layering", "simulate_unlayered"),
    "fileformat.parse_network": ("ldnc.fileformat", "parse_network"),
    "fileformat.serialize_network": ("ldnc.fileformat", "serialize_network"),
    "fileformat.parse_code": ("ldnc.fileformat", "parse_code"),
    "fileformat.serialize_code": ("ldnc.fileformat", "serialize_code"),
    "fileformat.parse_messages": ("ldnc.fileformat", "parse_messages"),
}

# text functions whose input or output size is counted, in characters
SIZED = {
    "fileformat.parse_network": "input",
    "fileformat.parse_code": "input",
    "fileformat.serialize_network": "output",
    "fileformat.serialize_code": "output",
}

_NAMESPACES = (
    "ldnc", "ldnc.network", "ldnc.search", "ldnc.coding", "ldnc.reciprocity",
    "ldnc.layering", "ldnc.fileformat", "ldnc.cli",
)


class Tracer:
    """Collects spans as (name, start, end, parent index, item id) tuples."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.item: str | None = None
        self.bytes: Counter = Counter()

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, name, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.item)

    @contextlib.contextmanager
    def span(self, name: str):
        idx, parent = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, parent, start)

    def wrap(self, name: str, fn):
        sized = SIZED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, parent, start)
            if sized is not None:
                self.bytes[name] += len(args[0] if sized == "input" else result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Swap every namespace reference to a traced function for a wrapper."""
        originals = {}
        for name, (module, attr) in TRACED.items():
            fn = getattr(importlib.import_module(module), attr)
            originals[id(fn)] = (fn, self.wrap(name, fn))
        swapped = []
        for ns_name in _NAMESPACES:
            ns = importlib.import_module(ns_name)
            for attr, value in list(vars(ns).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(ns, attr, originals[id(value)][1])
                    swapped.append((ns, attr, value))
        try:
            yield
        finally:
            for ns, attr, value in swapped:
                setattr(ns, attr, value)


def summarize(spans, items_s: float, sizes: Counter) -> dict:
    """Busy time, call count and self time per span name, plus layer self time.

    ``items_s`` is the pass's total item time, the base of the shares.

    A span's self time is its duration minus its direct children's
    durations; spans are properly nested because the benchmark is
    single-threaded.
    """
    busy = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layer_self = defaultdict(float)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        busy[name] += end - start
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += (end - start) - child_time[idx]
    return {
        "items_s": items_s,
        "busy_s": dict(busy),
        "calls": dict(calls),
        "layer_self_s": dict(layer_self),
        "bytes": dict(sizes),
    }

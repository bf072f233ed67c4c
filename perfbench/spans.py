"""Spans around the calls into each bianchisurf layer, and the per-layer
metrics computed from them.

The tracer wraps public functions of the library from outside: every loaded
bianchisurf module whose attribute *is* the original function gets the
wrapper, so calls are caught where the callers look the name up (census, for
example, imports compare_to_threshold, area_closed_form and prime_blocks by
name).  Each call records one span (name, start, end, parent).  Spans stay in
memory and are written out when the round ends.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import json
import sys
import time
from collections import Counter

import numpy as np

_now = time.perf_counter

# (span name, module, function, kind).  Kind "gen" wraps a generator so that
# each block it yields is one span; kind "array" also counts weight-array
# builds and the indices scans read from the array.
WRAPPED = (
    ("ntkernel.prime_blocks", "bianchisurf.ntkernel", "prime_blocks", "gen"),
    ("classgroup.is_admissible", "bianchisurf.classgroup", "is_admissible", "call"),
    ("hermitian.pullback_circle", "bianchisurf.hermitian", "pullback_circle", "call"),
    ("quatorder.build_order", "bianchisurf.quatorder", "build_order", "call"),
    ("quatorder.reduced_discriminant", "bianchisurf.quatorder", "reduced_discriminant", "call"),
    ("quatorder.bruteforce", "bianchisurf.quatorder", "eichler_symbol_bruteforce", "call"),
    ("quatorder.bruteforce", "bianchisurf.quatorder", "nrd_index_bruteforce", "call"),
    ("quatorder.closure_defect", "bianchisurf.quatorder", "closure_defect", "call"),
    ("volume.area_closed_form", "bianchisurf.volume", "area_closed_form", "call"),
    ("volume.area_via_order", "bianchisurf.volume", "area_via_order", "call"),
    ("volume.compare_to_threshold", "bianchisurf.volume", "compare_to_threshold", "call"),
    ("census.weight_array", "bianchisurf.census", "weight_ratio_array", "array"),
    ("census.scan", "bianchisurf.census", "xi", "call"),
    ("census.scan", "bianchisurf.census", "surface_counts", "call"),
    ("census.enumerate", "bianchisurf.census", "enumerate_surfaces", "call"),
    ("census.constant", "bianchisurf.census", "constant_C", "call"),
    ("census.constant", "bianchisurf.census", "leading_constant", "call"),
    ("census.count_F", "bianchisurf.census", "count_F_in_progression", "call"),
)

# spans whose reads of the weight array are scan candidates
_SCAN_SPANS = ("census.scan", "census.enumerate")


class Tracer:
    """Spans as [name, start, end, parent index] plus plain counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = _now()
        self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # --- wrappers -------------------------------------------------------

    def _wrap_call(self, name, fn):
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return wrapper

    def _wrap_gen(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            it = fn(*args, **kwargs)

            def blocks():
                while True:
                    i = tracer.open(name)
                    try:
                        block = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(i)
                    tracer.counts["ntkernel.primes"] += len(block)
                    yield block

            return blocks()

        return wrapper

    def _wrap_array(self, name, fn):
        """weight_ratio_array: a call that runs the prime sieve built the
        array; the caller gets a view that counts the indices it reads."""
        tracer = self

        def wrapper(*args, **kwargs):
            sieves = tracer.counts["ntkernel.prime_blocks.calls"]
            i = tracer.open(name)
            try:
                arr = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if tracer.counts["ntkernel.prime_blocks.calls"] > sieves:
                tracer.counts["census.weight_array_builds"] += 1
                tracer.counts["census.weight_array_bytes"] += arr.nbytes
            view = arr.view(_CountingArray)
            view.tracer = tracer
            return view

        return wrapper

    def install(self) -> None:
        """Patch every bianchisurf module attribute that is a wrapped function."""
        kinds = {"call": self._wrap_call, "gen": self._wrap_gen, "array": self._wrap_array}
        for name, modname, attr, kind in WRAPPED:
            orig = getattr(sys.modules[modname], attr)
            wrapped = kinds[kind](name, orig)
            for mod in list(sys.modules.values()):
                modn = getattr(mod, "__name__", "") or ""
                if modn.split(".")[0] == "bianchisurf" and getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
                    self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


class _CountingArray(np.ndarray):
    """A view of the weight array that adds the size of every integer index
    array read from it inside a scan span to census.candidates.  Reads return
    plain arrays, so the counting does not spread to derived values."""

    tracer: Tracer | None = None

    def __getitem__(self, key):
        out = np.ndarray.__getitem__(self.view(np.ndarray), key)
        tracer = self.tracer
        if tracer is not None and isinstance(key, np.ndarray) and tracer.current() in _SCAN_SPANS:
            tracer.counts["census.candidates"] += int(key.size)
        return out


class ImportTimer(importlib.abc.MetaPathFinder):
    """Times the execution of one module's body on import."""

    def __init__(self, fullname: str) -> None:
        self.fullname = fullname
        self.seconds = 0.0

    def find_spec(self, fullname, path, target=None):
        if fullname != self.fullname:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None:
            return None
        loader = spec.loader
        timer = self

        class _Timed(importlib.abc.Loader):
            def create_module(self, spec):
                return loader.create_module(spec)

            def exec_module(self, module):
                t0 = _now()
                loader.exec_module(module)
                timer.seconds += _now() - t0

        spec.loader = _Timed()
        return spec


# --- span arithmetic ------------------------------------------------------


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(children.get(i, []))
        for i, (_, start, end, _) in enumerate(spans)
    ]


def inclusive_times(spans: list[list]) -> Counter:
    """Per name, the total duration of its outermost spans (a span nested
    inside another of the same name is not counted twice)."""
    out: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] += end - start
    return out


def layer_metrics(tracer: Tracer, import_s: float, accepted: int) -> dict[str, float]:
    """Every per-layer metric (stats.LAYER_METRICS) from one traced round."""
    spans = tracer.spans
    incl = inclusive_times(spans)
    selfs: Counter = Counter()
    calls: Counter = Counter()
    for (name, *_), st in zip(spans, self_times(spans)):
        selfs[name] += st
        calls[name] += 1
    cnt = tracer.counts
    candidates = cnt["census.candidates"]
    return {
        "ntkernel.import_s": import_s,
        "ntkernel.prime_blocks_s": incl["ntkernel.prime_blocks"],
        "ntkernel.primes": cnt["ntkernel.primes"],
        "classgroup.is_admissible_s": incl["classgroup.is_admissible"],
        "classgroup.is_admissible_calls": calls["classgroup.is_admissible"],
        "hermitian.pullback_circle_s": incl["hermitian.pullback_circle"],
        "quatorder.build_order_s": incl["quatorder.build_order"],
        "quatorder.build_order_calls": calls["quatorder.build_order"],
        "quatorder.reduced_discriminant_s": incl["quatorder.reduced_discriminant"],
        "quatorder.reduced_discriminant_calls": calls["quatorder.reduced_discriminant"],
        "quatorder.bruteforce_s": incl["quatorder.bruteforce"],
        "quatorder.bruteforce_calls": calls["quatorder.bruteforce"],
        "quatorder.closure_defect_s": incl["quatorder.closure_defect"],
        "volume.area_closed_form_s": incl["volume.area_closed_form"],
        "volume.area_closed_form_calls": calls["volume.area_closed_form"],
        "volume.area_via_order_s": incl["volume.area_via_order"],
        "volume.compare_to_threshold_s": incl["volume.compare_to_threshold"],
        "volume.compare_to_threshold_calls": calls["volume.compare_to_threshold"],
        "census.weight_array_s": incl["census.weight_array"],
        "census.weight_array_builds": cnt["census.weight_array_builds"],
        "census.weight_array_mb": cnt["census.weight_array_bytes"] / 2**20,
        "census.scan_self_s": selfs["census.scan"] + selfs["census.enumerate"],
        "census.candidates": candidates,
        "census.accepted": accepted,
        "census.accept_ratio": accepted / candidates if candidates else 0.0,
        "census.enumerate_s": incl["census.enumerate"],
        "census.constant_self_s": selfs["census.constant"],
        "census.count_F_self_s": selfs["census.count_F"],
    }

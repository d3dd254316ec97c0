"""In-memory span tracer for the traced benchmark run.

The tracer wraps functions from outside the program: ``install_ergolab``
replaces every attribute of a loaded ``ergolab`` module or class that is the
same object as a traced function, so calls made through a name imported with
``from ... import`` are seen as well.  Each call records one span (name,
parent span, start, end) in flat arrays; nothing is written until ``dump``.

A span's self time is its duration minus the durations of its direct child
spans.  Calls in one thread nest, so the children never overlap and their sum
is the part of the parent's interval that they cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from math import lcm
from pathlib import Path
from typing import Callable

import numpy as np

#: observer(result, args, kwargs, counters) -> span-name suffix or None
Observer = Callable[[object, tuple, dict, Counter], "str | None"]


class Tracer:
    """Records nested spans of wrapped calls and counters set by observers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        """A function that calls ``fn`` inside a span and returns its result as is."""
        nid = self.name_id(name)
        clock, stack, counters = self._clock, self._stack, self.counters
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if observe is not None:
                suffix = observe(result, args, kwargs, counters)
                if suffix:
                    names[sid] = self.name_id(f"{name}.{suffix}")
            return result

        return traced

    def patch(self, owner, attr: str, name: str, modules,
              observe: Observer | None = None) -> int:
        """Wrap ``owner.attr`` and every alias of it; returns the number replaced.

        ``owner`` is a module or a class.  Aliases are attributes of ``owner``
        and of ``modules`` that are the very same object.
        """
        original = vars(owner)[attr]
        wrapper = self.wrap(name, original, observe)
        replaced = 0
        for target in [owner, *[m for m in modules if m is not owner]]:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, key, original))
                    setattr(target, key, wrapper)
                    replaced += 1
        return replaced

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and summed self time in seconds."""
        n = len(self.span_name)
        if n == 0:
            return {}
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        durations = (np.frombuffer(self.span_end, dtype=np.float64)
                     - np.frombuffer(self.span_start, dtype=np.float64))
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=durations[has_parent],
                                 minlength=n)
        self_time = durations - child_time
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self_time, minlength=len(self.names))
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def dump(self, path: Path) -> None:
        """Write every span (name index, parent index, start, end) and the names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(handle,
                     names=np.array(self.names),
                     span_name=np.frombuffer(self.span_name, dtype=np.int32),
                     span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
                     span_start=np.frombuffer(self.span_start, dtype=np.float64),
                     span_end=np.frombuffer(self.span_end, dtype=np.float64))


# ---------------------------------------------------------------------------
# the ergolab layers
# ---------------------------------------------------------------------------

def _is_zero_route(limit: int) -> Observer:
    def observe(result, args, kwargs, counters):
        q = lcm(*(a.denominator for a, _ in args[0].terms))
        counters["exact.is_zero." + ("cyclotomic_calls" if q <= limit else "numeric_calls")] += 1
    return observe


def _as_rational_decided(result, args, kwargs, counters):
    if result is not None:
        counters["exact.as_rational.decided"] += 1


def _correlation_path(result, args, kwargs, counters):
    # provenance is e.g. "affine-pullback" or "tower-level-counting (cyclic closure, ...)"
    return result.provenance.split(" (")[0]


def _eigenvalue_exact(result, args, kwargs, counters):
    if result.mass_squared_exact is not None:
        counters["spectral.detect_eigenvalue.exact_mass"] += 1


def _rank1_levels(result, args, kwargs, counters):
    counters["rank1.rank1_map.levels"] += result.length


def _consistency_characters(result, args, kwargs, counters):
    counters["joinings.product_consistency_test.characters"] += len(result.rows)


def _report_bytes(result, args, kwargs, counters):
    counters["experiments.emit_report.bytes"] += sum(p.stat().st_size for p in result)


def install_ergolab(tracer: Tracer) -> Tracer:
    """Wrap the traced functions of every ergolab layer; ergolab must be imported."""
    from ergolab import core, exact, experiments, joinings, rank1, spectral

    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "ergolab" or key.startswith("ergolab."))]
    targets = [
        (exact.PhaseSum, "__mul__", "exact.phasesum_mul", None),
        (exact.PhaseSum, "abs2", "exact.abs2", None),
        (exact.PhaseSum, "as_rational", "exact.as_rational", _as_rational_decided),
        (exact.PhaseSum, "is_zero", "exact.is_zero", _is_zero_route(exact.CYCLOTOMIC_LIMIT)),
        (core, "character_array", "core.character_array", None),
        (spectral, "correlation_sequence", "spectral.correlation_sequence", _correlation_path),
        (spectral, "detect_eigenvalue", "spectral.detect_eigenvalue", _eigenvalue_exact),
        (spectral, "wiener_atomic_mass", "spectral.wiener_atomic_mass", None),
        (spectral, "weak_mixing_test", "spectral.weak_mixing_test", None),
        (joinings, "product_consistency_test", "joinings.product_consistency_test",
         _consistency_characters),
        (joinings, "invariance_check", "joinings.invariance_check", None),
        (joinings.Joining, "product_integral", "joinings.product_integral", None),
        (joinings.Joining, "integrate", "joinings.integrate", None),
        (rank1.Rank1Map, "level_of", "rank1.Rank1Map.level_of", None),
        (rank1.Rank1Map, "apply", "rank1.Rank1Map.apply", None),
        (rank1, "rank1_map", "rank1.rank1_map", _rank1_levels),
        (experiments, "run_experiment", "experiments.run_experiment", None),
        (experiments, "emit_report", "experiments.emit_report", _report_bytes),
    ]
    for owner, attr, name, observe in targets:
        tracer.patch(owner, attr, name, modules, observe)
    return tracer

"""Instruments the benchmark puts around the twodiag layers.

Nothing here edits a program file.  Every hook replaces a module attribute
of the imported package at run time and is removed again by `restore`:

* `ResidueTap` collects every residue the per-point functions of `doubles`
  return, in traced and untraced runs alike, because the `verify` check
  compares residue counts with the grid sizes derived from N.
* `CacheControl` empties every `lru_cache` of the package before each
  operation, so no operation is served a value an earlier one computed,
  and sums the cache statistics of `families` for the traced run.
* `Tracer` records spans around the calls the benchmark makes into a layer
  and, when tracing is on, wraps the functions one layer calls in another
  (`families` evaluators, weights and norms, `exact.hyper_terminating`)
  with counting timers, and `matrices.charpoly` to read the bit size of
  its coefficients.  Spans stay in memory until
  `write_spans`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable, Dict, Iterator, List, Tuple


def package_modules() -> List[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "twodiag" or name.startswith("twodiag."))]


class _Patches:
    """Replaces a function everywhere the package binds it, and undoes it."""

    def __init__(self):
        self._undo: List[Tuple[ModuleType, str, object]] = []

    def replace(self, original: Callable, replacement: Callable) -> int:
        bound = 0
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)
                    bound += 1
        return bound

    def restore(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()


class ResidueTap(_Patches):
    """Collects the residues returned by `doubles.pair_residue_forward`,
    `doubles.pair_residue_backward` and `doubles.verify_requirements`."""

    def __init__(self):
        super().__init__()
        self.values: List = []
        from twodiag import doubles

        for name in ("pair_residue_forward", "pair_residue_backward"):
            self.replace(getattr(doubles, name), self._scalar(getattr(doubles, name)))
        self.replace(doubles.verify_requirements, self._listed(doubles.verify_requirements))

    def _scalar(self, fn):
        values = self.values

        @functools.wraps(fn)
        def tapped(*args, **kwargs):
            r = fn(*args, **kwargs)
            values.append(r)
            return r
        return tapped

    def _listed(self, fn):
        values = self.values

        @functools.wraps(fn)
        def tapped(*args, **kwargs):
            r = fn(*args, **kwargs)
            values.extend(r)
            return r
        return tapped

    def take(self) -> List:
        out = list(self.values)
        self.values.clear()
        return out


class CacheControl:
    """Clears every `lru_cache` of the package; sums `families` statistics."""

    def __init__(self):
        seen: Dict[int, Tuple[str, object]] = {}
        for module in package_modules():
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    seen.setdefault(id(value), (getattr(value, "__module__", ""), value))
        self._all = [fn for _, fn in seen.values()]
        self._families = [fn for mod, fn in seen.values() if mod == "twodiag.families"]
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        for fn in self._all:
            fn.cache_clear()

    def harvest(self) -> None:
        """Add the `families` statistics since the last clear."""
        for fn in self._families:
            info = fn.cache_info()
            self.hits += info.hits
            self.misses += info.misses


def _fraction_bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


class Tracer(_Patches):
    """Spans at layer boundaries plus counting timers on inner calls.

    With `enabled` false, `span` is a shared null context and nothing is
    wrapped, so untraced runs time the program alone.
    """

    def __init__(self, enabled: bool):
        super().__init__()
        self.enabled = enabled
        self.op_id = -1
        self.spans: List[Tuple[int, str, float, float]] = []
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.maxima: Dict[str, int] = defaultdict(int)
        self._null = contextlib.nullcontext()
        if enabled:
            self._wrap_inner_calls()

    def span(self, name: str):
        return self._record(name) if self.enabled else self._null

    @contextlib.contextmanager
    def _record(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.spans.append((self.op_id, name, t0, t1))
            self.seconds[name] += t1 - t0

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counts[name] += n

    def high(self, name: str, value: int) -> None:
        if self.enabled and value > self.maxima[name]:
            self.maxima[name] = value

    def _timed(self, fn: Callable, metric: str, on_result: Callable | None = None) -> Callable:
        seconds, counts = self.seconds, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                r = fn(*args, **kwargs)
            finally:
                seconds[metric] += clock() - t0
                counts[metric] += 1
            if on_result is not None:
                on_result(r)
            return r
        return timed

    def _wrap_inner_calls(self) -> None:
        from twodiag import exact, families, matrices

        def series_bits(value):
            self.high("exact.value_bits_max", _fraction_bits((value,)))

        def charpoly_bits(coefficients):
            self.high("matrices.charpoly_bits_max", _fraction_bits(coefficients))

        self.replace(exact.hyper_terminating,
                     self._timed(exact.hyper_terminating, "exact.series", series_bits))
        for name in ("hahn_eval", "dual_hahn_eval", "racah_eval", "krawtchouk_eval"):
            fn = getattr(families, name)
            self.replace(fn, self._timed(fn, "families.eval"))
        for name in ("hahn_weight", "hahn_norm", "dual_hahn_weight", "dual_hahn_norm",
                     "racah_weight", "racah_norm"):
            fn = getattr(families, name)
            self.replace(fn, self._timed(fn, "families.weight_norm"))
        charpoly = matrices.charpoly

        @functools.wraps(charpoly)
        def sized(*args, **kwargs):
            coefficients = charpoly(*args, **kwargs)
            charpoly_bits(coefficients)
            return coefficients
        self.replace(charpoly, sized)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for op_id, name, t0, t1 in self.spans:
                fh.write(json.dumps({"op": op_id, "span": name, "start": t0, "end": t1}) + "\n")

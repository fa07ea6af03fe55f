"""Spans around pyrstereo's public names, recorded from outside the package.

:class:`Tracer` replaces each traced name, wherever a pyrstereo module
binds it, with a wrapper that records a span (name, start, end, parent)
and the counts its arguments imply, then restores the originals.  Names a
refactor has removed are skipped and listed in ``absent``; nothing else in
the package is touched.  Spans stay in memory until :meth:`Tracer.dump`.

With ``memory=True`` the tracer also keeps, per span, the ``tracemalloc``
peak above the span's entry; ``tracemalloc`` must then be running.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
import weakref
from dataclasses import dataclass, field

import numpy as np

# (layer, module, qualified name): the public name at each module boundary.
TARGETS = [
    ("formats", "pyrstereo.formats", "read_pnm"),
    ("formats", "pyrstereo.formats", "read_pfm"),
    ("formats", "pyrstereo.formats", "read_calib"),
    ("formats", "pyrstereo.formats", "write_pfm"),
    ("formats", "pyrstereo.formats", "write_pgm"),
    ("pyramid", "pyrstereo.pyramid", "build_pyramid"),
    ("zncc", "pyrstereo.zncc", "CostEngine.__init__"),
    ("zncc", "pyrstereo.zncc", "CostEngine.plane"),
    ("zncc", "pyrstereo.zncc", "CostEngine.full_volume"),
    ("zncc", "pyrstereo.zncc", "CostEngine.at"),
    ("zncc", "pyrstereo.zncc", "CostEngine.dsi_rows"),
    ("matcher", "pyrstereo.matcher", "run_pipeline"),
    ("matcher", "pyrstereo.matcher", "match_coarsest"),
    ("matcher", "pyrstereo.matcher", "upsample_prior"),
    ("matcher", "pyrstereo.matcher", "select_with_prior"),
    ("matcher", "pyrstereo.matcher", "refine_level"),
    ("matcher", "pyrstereo.matcher", "selective_median"),
    ("baseline", "pyrstereo.baseline", "baseline_bm"),
    ("evaluation", "pyrstereo.evaluation", "evaluate"),
    ("cli", "pyrstereo.cli", "main"),
]


@dataclass
class Span:
    name: str
    parent: int
    start: int = 0
    end: int = 0
    counts: dict = field(default_factory=dict)
    peak_bytes: int | None = None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class _Coverage:
    """Which cost vectors one CostEngine (one level) has fully evaluated."""

    def __init__(self, height: int, width: int, d_max: int) -> None:
        self.full = np.zeros((height, width), dtype=bool)
        self.planes: set[int] = set()
        self.d_max = d_max

    def all_planes(self) -> bool:
        return len(self.planes) == self.d_max + 1


class Tracer:
    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[list[int]] = []  # [span index, peak bytes seen]
        self._patched: list[tuple[object, str, object]] = []
        self._coverage: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- installing ---------------------------------------------------------

    def install(self) -> "Tracer":
        self.absent = []
        for layer, module_name, qualname in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or (owner_name and attr not in vars(owner)):
                self.absent.append(f"{layer}.{qualname}")
                continue
            span_name = f"{layer}.{qualname}"
            wrapper = self._wrap(span_name, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
            else:
                # Rebind the function wherever a pyrstereo module imported it.
                for name, mod in list(sys.modules.items()):
                    if name == "pyrstereo" or name.startswith("pyrstereo."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, original):
        signature = inspect.signature(original)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            span = Span(name, self._stack[-1][0] if self._stack else -1)
            if before is not None:
                before(self, span, bound)
            self.spans.append(span)
            self._enter(len(self.spans) - 1, span)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(span)
            if after is not None:
                after(self, span, bound, result)
            return result

        return wrapper

    def _enter(self, index: int, span: Span) -> None:
        peak = 0
        if self.memory:
            current, peak_before = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], peak_before)
            tracemalloc.reset_peak()
            span.peak_bytes = -current  # entry level, turned into "above entry" on exit
            peak = current
        self._stack.append([index, peak])
        span.start = time.perf_counter_ns()

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        _, peak_seen = self._stack.pop()
        if self.memory:
            peak = max(peak_seen, tracemalloc.get_traced_memory()[1])
            span.peak_bytes += peak
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], peak)

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            json.dump({
                "absent": self.absent,
                "spans": [
                    {"name": s.name, "parent": s.parent, "start_ns": s.start,
                     "end_ns": s.end, "counts": s.counts, "peak_bytes": s.peak_bytes}
                    for s in self.spans
                ],
            }, fh)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total and self seconds, summed counts, max peak bytes."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = {}
        for s, kids in zip(self.spans, child_ns):
            agg = out.setdefault(s.name, {"total_s": 0.0, "self_s": 0.0, "peak_bytes": 0})
            agg["total_s"] += s.seconds
            agg["self_s"] += (s.end - s.start - kids) * 1e-9
            for key, value in s.counts.items():
                agg[key] = agg.get(key, 0) + value
            if s.peak_bytes is not None:
                agg["peak_bytes"] = max(agg["peak_bytes"], s.peak_bytes)
        return out


# -- argument-derived counts ------------------------------------------------

def _coverage(tracer: Tracer, engine) -> _Coverage:
    cov = tracer._coverage.get(engine)
    if cov is None:
        cov = _Coverage(engine.height, engine.width, engine.d_max)
        tracer._coverage[engine] = cov
    return cov


def _plane(tracer, span, args):
    engine = args["self"]
    span.counts["evals"] = engine.height * engine.width
    _coverage(tracer, engine).planes.add(int(args["z"]))


def _at(tracer, span, args):
    span.counts["evals"] = int(np.size(args["rows"]))


def _dsi_rows(tracer, span, args):
    engine = args["self"]
    rows = np.asarray(args["rows"], dtype=np.intp).ravel()
    cols = np.asarray(args["cols"], dtype=np.intp).ravel()
    cov = _coverage(tracer, engine)
    repeats = rows.size if cov.all_planes() else int(np.count_nonzero(cov.full[rows, cols]))
    cov.full[rows, cols] = True
    span.counts.update(evals=rows.size * (engine.d_max + 1), vectors=rows.size,
                       repeat_vectors=repeats)


def _wrote(tracer, span, args, result):
    span.counts["bytes"] = os.path.getsize(args["path"])


def _baseline(tracer, span, args):
    height, width = np.shape(args["left"])[:2]
    span.counts["evals"] = height * width * (int(args["d_max"]) + 1)


def _pipeline_done(tracer, span, args, result):
    try:
        levels = sorted(result[2].levels, key=lambda lt: lt.level)
        span.counts.update(
            trusted_l0=levels[0].trusted,
            pixels_l0=levels[0].pixels,
            fallback=sum(lt.full_search_pixels for lt in levels[:-1]),
            refined=sum(lt.refined for lt in levels),
        )
    except (AttributeError, IndexError, TypeError):
        if "matcher.PipelineTrace" not in tracer.absent:
            tracer.absent.append("matcher.PipelineTrace")


_BEFORE = {
    "zncc.CostEngine.plane": _plane,
    "zncc.CostEngine.at": _at,
    "zncc.CostEngine.dsi_rows": _dsi_rows,
    "baseline.baseline_bm": _baseline,
}
_AFTER = {
    "formats.write_pfm": _wrote,
    "formats.write_pgm": _wrote,
    "matcher.run_pipeline": _pipeline_done,
}

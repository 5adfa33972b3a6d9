"""Span tracer installed from outside the program.

The benchmark measures each layer by timing calls into its public
functions: :func:`installed` replaces those functions with wrappers
that record one span per call, and puts the originals back when the
block ends.  Nothing under ``src/`` knows it is being traced, and an
untraced repeat runs the original functions untouched.

Methods are wrapped on the class that defines them, so every instance
and subclass sees the wrapper.  Functions are wrapped at the name the
caller looks up: ``from … import`` binds names at import time, so
``repro.api.runner.simulate`` is patched, not ``repro.sim.engine``'s.

A span records its name, start, end, parent span and cell.  A cell
groups the spans of one piece of work (one method's simulation, one
cache's decode steps) so their self times can be checked against its wall
time, as timed by a stopwatch outside the tracer.  Spans live in flat
arrays until the repeat ends; a layer's self time is its spans'
durations minus the parts their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gc
from array import array
from time import perf_counter

import numpy as np

__all__ = ["NullTracer", "Tracer", "installed"]


class NullTracer:
    """Stands in for :class:`Tracer` in untraced repeats."""

    def cell(self, label: str):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Records nested spans into flat arrays (see module docstring).

    Cell labels are prefixed with :attr:`prefix`, which the harness sets
    to ``"<workload>/<repeat>/"`` before each repeat.
    """

    def __init__(self) -> None:
        self.prefix = ""
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._cells: list[str] = []
        self._cell_ids: dict[str, int] = {}
        self._cell = self._cell_id("unit")
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Drop every recorded span (between repeats)."""
        self._name = array("i")
        self._parent = array("i")
        self._span_cell = array("i")
        self._start = array("d")
        self._end = array("d")

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _cell_id(self, label: str) -> int:
        label = f"{self.prefix}{label}"
        if label not in self._cell_ids:
            self._cell_ids[label] = len(self._cells)
            self._cells.append(label)
        return self._cell_ids[label]

    # A span's clock starts before and stops after its own bookkeeping,
    # so the cost of recording it lands in its own self time rather than
    # in gaps between spans that no layer accounts for.

    def _open(self, name_id: int) -> int:
        start = perf_counter()
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._span_cell.append(self._cell)
        self._start.append(start)
        self._end.append(start)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self._end[idx] = perf_counter()

    def call(self, name_id: int, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span."""
        idx = self._open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def cell(self, label: str):
        """Attribute the spans opened inside the block to cell ``label``."""
        saved = self._cell
        self._cell = self._cell_id(label)
        try:
            yield
        finally:
            self._cell = saved

    # -- analysis ------------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        cell = np.frombuffer(self._span_cell, dtype=np.int32)
        dur = (np.frombuffer(self._end, dtype=np.float64)
               - np.frombuffer(self._start, dtype=np.float64))
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=len(dur))
        return name, parent, cell, dur, dur - covered

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` and ``total_s``."""
        name, _, _, dur, self_s = self._arrays()
        n = len(self._names)
        calls = np.bincount(name, minlength=n)
        selfs = np.bincount(name, weights=self_s, minlength=n)
        totals = np.bincount(name, weights=dur, minlength=n)
        return {self._names[i]: {"calls": int(calls[i]),
                                 "self_s": float(selfs[i]),
                                 "total_s": float(totals[i])}
                for i in range(n) if calls[i]}

    def cell_self_times(self) -> dict[str, float]:
        """Per cell label: the summed self times of its spans."""
        _, _, cell, _, self_s = self._arrays()
        n = len(self._cells)
        sums = np.bincount(cell, weights=self_s, minlength=n)
        used = np.bincount(cell, minlength=n)
        return {self._cells[i]: float(sums[i]) for i in range(n) if used[i]}

    def to_json(self) -> dict:
        """The recorded spans, times in ns from the first span's start."""
        name, parent, cell, _, _ = self._arrays()
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        origin = float(start.min()) if len(start) else 0.0

        def ns(t):
            return np.rint((t - origin) * 1e9).astype(np.int64).tolist()

        return {"names": list(self._names), "cells": list(self._cells),
                "spans": {"name": name.tolist(), "parent": parent.tolist(),
                          "cell": cell.tolist(), "start_ns": ns(start),
                          "end_ns": ns(end)}}


def _method_cell(config, *args, **kwargs) -> str:
    """Cell of one ``simulate(config, trace)`` call: its method."""
    return config.method.name


def _targets():
    """``(owner, attribute, span name, cell hook)`` of every traced call."""
    from repro.api import artifact, runner
    from repro.cluster.network import NetworkModel
    from repro.core import kv_cache
    from repro.kvstore.selection import selection_policies
    from repro.kvstore.store import TieredKVStore
    from repro.perfmodel.decode import BatchCostModel
    from repro.quant import (CacheGenCompressor, HackCompressor,
                             KVQuantCompressor, entropy, hack_adapter)
    from repro.sim.elastic import autoscaler_policies
    from repro.sim.engine import SimulationResult
    from repro.sim.recovery import recovery_policies
    from repro.sim.request import SimRequest
    from repro.sim.scheduling import dispatch_policies, placement_policies

    out = [
        (runner.Runner, "run", "api.runner.run", None),
        (runner, "resolve", "api.runner.resolve", None),
        (runner, "generate_trace", "workload.generate_trace", None),
        (runner, "simulate", "sim.engine.simulate", _method_cell),
        (SimulationResult, "summary", "sim.engine.summary", None),
        (artifact.RunArtifact, "from_results", "api.artifact.build", None),
        (artifact.RunArtifact, "save", "api.artifact.save", None),
        (artifact.RunArtifact, "load", "api.artifact.load", None),
        (artifact, "compare_artifacts", "api.artifact.compare", None),
        (SimRequest, "accrue_decode", "sim.request.accrue_decode", None),
        (SimRequest, "add_token_times", "sim.request.add_token_times", None),
        (BatchCostModel, "span", "perfmodel.span", None),
        (BatchCostModel, "span_cumlat", "perfmodel.span_cumlat", None),
        (BatchCostModel, "find_boundary", "perfmodel.find_boundary", None),
        (NetworkModel, "transfer_time", "cluster.network.transfer", None),
        (TieredKVStore, "lookup", "kvstore.lookup", None),
        (TieredKVStore, "put", "kvstore.put", None),
        (kv_cache, "quantize", "core.quantize", None),
        (hack_adapter, "quantize", "core.quantize", None),
        (kv_cache, "dequantize", "core.dequantize", None),
        (hack_adapter, "dequantize", "core.dequantize", None),
        (kv_cache, "homomorphic_matmul", "core.homomorphic_matmul", None),
        (kv_cache.HackKVCache, "append", "core.kv_cache.hack.append", None),
        (kv_cache.HackKVCache, "attention", "core.kv_cache.hack.attention",
         None),
        (kv_cache.DequantizingKVCache, "append",
         "core.kv_cache.dequant.append", None),
        (kv_cache.DequantizingKVCache, "attention",
         "core.kv_cache.dequant.attention", None),
        (entropy, "encode", "quant.entropy.encode", None),
        (entropy, "decode", "quant.entropy.decode", None),
    ]
    for cls in (HackCompressor, KVQuantCompressor, CacheGenCompressor):
        out.append((cls, "compress", f"quant.{cls.name}.compress", None))
        out.append((cls, "decompress", f"quant.{cls.name}.decompress", None))
    for registry, attr, name in (
            (dispatch_policies, "choose", "sim.scheduling.dispatch"),
            (placement_policies, "choose", "sim.scheduling.placement"),
            (selection_policies, "choose", "kvstore.selection"),
            (autoscaler_policies, "desired", "sim.elastic.autoscaler"),
            (recovery_policies, "delay", "sim.recovery.delay")):
        for cls in registry().values():
            # Wrap where the method is defined, once, so a subclass that
            # inherits it does not nest a second span.
            owner = next(c for c in cls.__mro__ if attr in c.__dict__)
            out.append((owner, attr, name, None))
    seen = set()
    for owner, attr, name, cell_of in out:
        if (id(owner), attr) not in seen:
            seen.add((id(owner), attr))
            yield owner, attr, name, cell_of


def _wrap(tracer: Tracer, name: str, raw, cell_of):
    if isinstance(raw, classmethod):
        return classmethod(_wrap(tracer, name, raw.__func__, cell_of))
    name_id = tracer.name_id(name)
    if cell_of is None:
        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            return tracer.call(name_id, raw, args, kwargs)
    else:
        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            with tracer.cell(cell_of(*args, **kwargs)):
                return tracer.call(name_id, raw, args, kwargs)
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every target call into ``tracer`` for the block's duration.

    Garbage-collector passes are traced too, as ``python.gc`` spans: a
    pass runs wherever an allocation triggers it, and without its own
    span its pause would land in an unrelated layer's self time, or in
    no span at all.
    """
    gc_id = tracer.name_id("python.gc")
    open_gc = []

    def on_gc(phase, info):
        if phase == "start":
            open_gc.append(tracer._open(gc_id))
        elif open_gc:
            tracer._close(open_gc.pop())

    patches = []
    try:
        for owner, attr, name, cell_of in _targets():
            raw = owner.__dict__[attr]
            patches.append((owner, attr, raw))
            setattr(owner, attr, _wrap(tracer, name, raw, cell_of))
        gc.callbacks.append(on_gc)
        yield tracer
    finally:
        if on_gc in gc.callbacks:
            gc.callbacks.remove(on_gc)
        for owner, attr, raw in reversed(patches):
            setattr(owner, attr, raw)

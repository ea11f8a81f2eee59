"""Spans around the program's layer entry points, recorded from outside.

The benchmark does not edit the program: :func:`install` rebinds the
public entry points of each layer (module functions and class
methods) to thin wrappers that record a span per call.  Spans stay in
memory and are written once per process, as ``spans-<pid>.json`` in
the trace directory, when the process's work ends: the root process
after its command returns, and forked pool workers after each task,
because a worker leaves through ``os._exit`` and never runs exit
hooks.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Thread-aware span store of one process (reset in forked children)."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.root_pid = os.getpid()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._stacks: dict[int, list[int]] = {}

    def add(self, name: str, start: int, end: int, attrs=None) -> None:
        """Record a finished span with explicit monotonic-ns bounds."""
        with self._lock:
            self.spans.append(self._record(name, start, end, None, attrs))

    def _record(self, name, start, end, parent, attrs) -> dict:
        return {
            "name": name,
            "start": start,
            "end": end,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "id": next(self._ids),
            "parent": parent,
            "attrs": attrs or {},
        }

    @contextmanager
    def span(self, name: str):
        """Time the block as a child of this thread's open span.

        Yields a dict the block may fill with numeric attributes.
        """
        stack = self._stacks.setdefault(threading.get_ident(), [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        attrs: dict = {}
        start = time.monotonic_ns()
        try:
            yield attrs
        finally:
            end = time.monotonic_ns()
            stack.pop()
            record = self._record(name, start, end, parent, attrs)
            record["id"] = span_id
            with self._lock:
                self.spans.append(record)

    def flush(self) -> None:
        """Write this process's spans (the whole list, replacing)."""
        with self._lock:
            payload = json.dumps(self.spans)
        path = self.directory / f"spans-{self.pid}.json"
        temporary = path.with_suffix(".tmp")
        temporary.write_text(payload)
        os.replace(temporary, path)

    def flush_if_worker(self) -> None:
        if os.getpid() != self.root_pid:
            self.flush()


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module name bound to ``original`` at ``wrapper``.

    Callers that imported a function by name hold their own binding,
    so each one is replaced; pickling still resolves the wrapper by
    the original's module and qualified name.
    """
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)


def _wrap_function(recorder, owner, attribute, span_name, around=None,
                   flush=False):
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        try:
            with recorder.span(span_name) as attrs:
                if around is None:
                    return original(*args, **kwargs)
                return around(original, attrs, args, kwargs)
        finally:
            if flush:
                recorder.flush_if_worker()

    _rebind(original, wrapper)


def _wrap_method(recorder, cls, attribute, span_name, around=None):
    original = cls.__dict__[attribute]

    if around is None:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(span_name):
                return original(*args, **kwargs)
    else:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(span_name) as attrs:
                return around(original, attrs, args, kwargs)

    setattr(cls, attribute, wrapper)


# -- per-layer hooks ----------------------------------------------------


def _engine_around(original, attrs, args, kwargs):
    result = original(*args, **kwargs)
    attrs["evaluations"] = result.evaluations
    attrs["generations"] = result.generations
    attrs["memo_hits"] = result.cache_hits
    return result


def _evaluate_batch_around(original, attrs, args, kwargs):
    fitness = args[0]
    caller_timings = kwargs.pop("timings", None)
    before = fitness.mv_cache_stats
    timings: dict = {}
    rates = original(*args, timings=timings, **kwargs)
    after = fitness.mv_cache_stats
    if caller_timings is not None:
        for stage, seconds in timings.items():
            caller_timings[stage] = caller_timings.get(stage, 0.0) + seconds
    genomes = args[1] if len(args) > 1 else kwargs["genomes"]
    attrs["genomes"] = len(genomes)
    for stage in ("pack", "match", "cover", "huffman"):
        attrs[f"{stage}_s"] = timings.get(stage, 0.0)
    attrs["dedup"] = int(after.rows_total > before.rows_total)
    attrs["mv_hits"] = after.hits - before.hits
    attrs["mv_misses"] = after.misses - before.misses
    return rates


def _map_around(original, attrs, args, kwargs):
    items = args[2] if len(args) > 2 else kwargs["items"]
    attrs["tasks"] = len(items)
    attrs["jobs"] = args[0].jobs
    return original(*args, **kwargs)


def _table_around(original, attrs, args, kwargs):
    result = original(*args, **kwargs)
    stats = result.fault_stats()
    attrs["retries"] = stats.get("retries", 0)
    attrs["failures"] = stats.get("timeouts", 0) + stats.get("crashes", 0)
    return result


def install(recorder: SpanRecorder, command: str) -> None:
    """Wrap the layer entry points that ``command`` reaches."""
    import repro.cli  # noqa: F401  (binds the names _rebind replaces)
    from repro.core import compressor, decompressor, nine_c, optimizer
    from repro.core import fitness as fitness_module
    from repro.core.kernels import base as kernel_base
    from repro.core.kernels import native
    from repro.ea import engine
    from repro.parallel import backends
    from repro.testdata import calibration, test_set

    if command == "table1":
        from repro.experiments import runner, tables

        _wrap_function(recorder, runner, "run_row", "experiments.run_row",
                       flush=True)
        _wrap_function(recorder, tables, "build_table1",
                       "experiments.build_table1", around=_table_around)
    if command == "serve":
        from repro.serve import daemon, service

        _wrap_method(recorder, daemon._Handler, "do_POST", "serve.http")
        _wrap_method(recorder, daemon.ServeDaemon, "handle_fitness",
                     "serve.handle_fitness")
        _wrap_method(recorder, service.CompressionService, "evaluate",
                     "serve.evaluate")

    _wrap_method(recorder, test_set.TestSet, "blocks", "testdata.blocks")
    _wrap_function(recorder, calibration, "calibrate_spec",
                   "testdata.calibrate")
    _wrap_function(recorder, nine_c, "compress_nine_c", "core.nine_c.compress")
    _wrap_function(recorder, native, "_load_library", "core.kernels.load")
    _wrap_function(recorder, optimizer, "execute_run_task", "parallel.task",
                   flush=True)
    _wrap_method(recorder, backends.SerialBackend, "map", "parallel.map",
                 around=_map_around)
    _wrap_method(recorder, backends._PoolBackend, "map", "parallel.map",
                 around=_map_around)
    _wrap_method(recorder, engine.EvolutionaryEngine, "run", "ea.engine.run",
                 around=_engine_around)
    _wrap_method(recorder, fitness_module.BatchCompressionRateFitness,
                 "evaluate_batch", "core.fitness.evaluate_batch",
                 around=_evaluate_batch_around)
    kernels = [kernel_base.CoveringKernel]
    while kernels:
        cls = kernels.pop()
        kernels.extend(cls.__subclasses__())
        for entry in ("cover_grid", "match_columns"):
            if entry in cls.__dict__:
                _wrap_method(recorder, cls, entry, f"core.kernels.{entry}")

    original_compress = compressor.compress_blocks

    @functools.wraps(original_compress)
    def compress_and_verify(*args, **kwargs):
        with recorder.span("core.compressor.compress_blocks"):
            result = original_compress(*args, **kwargs)
        # Decode every payload back to the specified bits; outside the
        # compressor's span so its busy time stays the program's own.
        with recorder.span("bench.verify") as attrs:
            try:
                decompressor.verify_roundtrip(result)
                attrs["verified"] = 1
            except AssertionError:
                attrs["verify_failed"] = 1
        return result

    _rebind(original_compress, compress_and_verify)

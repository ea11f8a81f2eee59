"""Execution backends: serial, thread-pool, and process-pool.

All backends implement one method —
``map(function, items, *, on_result=None, retry=None, timeout=None,
stats=None)`` — with the same contract:

* results come back as a list in **submission order**, regardless of
  which worker finished first;
* ``on_result(index, result)`` fires as units complete (completion
  order), always from the submitting thread, so callers can feed an
  :class:`repro.parallel.progress.OrderedProgress` without extra
  locking;
* the first failing unit (lowest submission index) has its exception
  re-raised after pending work is cancelled — where "failing" means
  *permanently* failing: with a :class:`~repro.parallel.retry.RetryPolicy`
  a retryable failure is re-attempted (on a fresh slot, after a
  deterministic backoff) and only counts once attempts are exhausted;
* ``KeyboardInterrupt`` and ``SystemExit`` are never buffered or
  retried — they cancel pending work and propagate immediately.

Fault tolerance
---------------
``retry`` takes a :class:`~repro.parallel.retry.RetryPolicy`
(``None`` = single attempt).  ``timeout`` bounds each *attempt* in
seconds on the pool backends: an overdue unit is abandoned (the slot
eventually frees; its result, if any, is discarded), charged a
:class:`~repro.parallel.retry.TaskTimeoutError` and — attempts
permitting — resubmitted on a fresh slot.  The serial backend cannot
preempt a running unit, so it honors ``retry`` but ignores
``timeout``.  A broken process pool (worker died: OOM kill, segfault,
``os._exit``) charges every in-flight unit a
:class:`~repro.parallel.retry.WorkerCrashError` and the pool is
replaced — first rebuilt in kind, then downgraded (process → thread →
serial) with a logged warning instead of aborting the whole map.
``stats`` (a :class:`~repro.parallel.retry.FaultToleranceStats`)
accumulates what was absorbed.

Because every work unit is a pure function of its item (the
self-seeded ``RunTask`` discipline), retries, timeouts and pool
downgrades can never change results — only the wall clock.

Backend choice
--------------
``SerialBackend`` is the default and the reference semantics.
``ThreadBackend`` suits kernel-bound fitness work: the covering
kernels release the GIL (native ctypes calls, numpy ufuncs), and
threads share the block table without copying.  ``ProcessBackend`` is for full-run
fan-out (whole EA runs, table rows): work units and their results must
be picklable, and each worker is marked via a pool initializer so any
*nested* backend inside a worker degrades to serial execution instead
of forking a pool-of-pools.

Fork safety: workers never rely on inherited global RNG state — every
work unit carries its own :class:`numpy.random.SeedSequence` (see
:mod:`repro.parallel.seeding`), which is also what makes results
identical across start methods (``fork`` vs ``spawn``).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import sys
import time
from collections.abc import Callable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Any, Protocol, runtime_checkable

from .retry import (
    NO_RETRY,
    FaultToleranceStats,
    RetryPolicy,
    TaskTimeoutError,
    WorkerCrashError,
    jitter_entropy,
)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "resolve_backend",
    "in_worker",
]

logger = logging.getLogger("repro.parallel")

OnResult = Callable[[int, Any], None]

# Set (via pool initializer) in process-pool workers; nested backends
# check it and run serially rather than forking a pool from a worker.
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    """True inside a :class:`ProcessBackend` worker process."""
    return _IN_WORKER


@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can run ``function`` over ``items`` in order."""

    jobs: int

    def map(
        self,
        function: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        on_result: OnResult | None = None,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
        stats: FaultToleranceStats | None = None,
    ) -> list[Any]:
        """Apply ``function`` to every item; results in input order."""
        ...


def _serial_unit(
    function: Callable[[Any], Any],
    item: Any,
    index: int,
    policy: RetryPolicy,
    stats: FaultToleranceStats,
) -> Any:
    """One unit, run inline with the retry policy applied."""
    attempt = 0
    while True:
        attempt += 1
        stats.attempts += 1
        if attempt > 1:
            stats.retries += 1
        try:
            return function(item)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as error:
            if not policy.is_retryable(error) or attempt >= policy.max_attempts:
                raise
            delay = policy.delay_before(
                attempt + 1, jitter_entropy(item, index)
            )
            logger.warning(
                "task %d failed (%s: %s); retrying (attempt %d/%d) in %.3fs",
                index, type(error).__name__, error,
                attempt + 1, policy.max_attempts, delay,
            )
            if delay > 0:
                time.sleep(delay)


def _serial_map(
    function: Callable[[Any], Any],
    items: Sequence[Any],
    on_result: OnResult | None,
    policy: RetryPolicy = NO_RETRY,
    stats: FaultToleranceStats | None = None,
) -> list[Any]:
    stats = stats if stats is not None else FaultToleranceStats()
    results = []
    for index, item in enumerate(items):
        result = _serial_unit(function, item, index, policy, stats)
        if on_result is not None:
            on_result(index, result)
        results.append(result)
    return results


class SerialBackend:
    """Run every unit inline — the default and reference semantics.

    Honors ``retry``; ``timeout`` is ignored (a single thread cannot
    preempt a running unit — use a pool backend to enforce deadlines).
    """

    jobs = 1

    def map(
        self,
        function: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        on_result: OnResult | None = None,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
        stats: FaultToleranceStats | None = None,
    ) -> list[Any]:
        return _serial_map(function, items, on_result, retry or NO_RETRY, stats)

    def __repr__(self) -> str:
        return "SerialBackend()"


class _FanOut:
    """One fault-tolerant ``map`` execution over a pool executor.

    Bookkeeping lives per submission index: attempt counts, scheduled
    retry times, the future currently owning the index.  A future that
    outlives its deadline is *abandoned* — dropped from the books so a
    fresh attempt can take a fresh slot; whatever the hung worker
    eventually produces is discarded.  Pool breakage replaces the
    executor along the backend's fallback chain (rebuild in kind →
    downgrade flavor → run the remainder inline).
    """

    def __init__(
        self,
        backend: "_PoolBackend",
        function: Callable[[Any], Any],
        items: list[Any],
        on_result: OnResult | None,
        policy: RetryPolicy,
        timeout: float | None,
        stats: FaultToleranceStats,
    ) -> None:
        self.backend = backend
        self.function = function
        self.items = items
        self.on_result = on_result
        self.policy = policy
        self.timeout = timeout
        self.stats = stats
        self.max_workers = min(backend.jobs, len(items))
        self.results: list[Any] = [None] * len(items)
        self.completed = [False] * len(items)
        self.attempts = [0] * len(items)
        self.failures: dict[int, BaseException] = {}
        self.retry_at: dict[int, float] = {}
        self.pending: dict[Future, int] = {}
        self.deadlines: dict[Future, float] = {}
        self.aborting = False
        self.fallback_level = 0
        self.executor: Executor | None = backend._executor(self.max_workers)

    # -- top level -----------------------------------------------------

    def run(self) -> list[Any]:
        try:
            for index in range(len(self.items)):
                if self.aborting:
                    break
                self._submit(index)
            self._loop()
        except (KeyboardInterrupt, SystemExit):
            # Never buffered into the failure dict: cancel pending
            # work and propagate immediately (prompt Ctrl-C).
            self._abort()
            raise
        finally:
            if self.executor is not None:
                self.executor.shutdown(wait=False, cancel_futures=True)
        if self.failures:
            raise self.failures[min(self.failures)]
        return self.results

    def _loop(self) -> None:
        while self.pending or self.retry_at:
            now = time.monotonic()
            self._launch_due_retries(now)
            if not self.pending:
                if self.aborting or not self.retry_at:
                    return
                pause = min(self.retry_at.values()) - time.monotonic()
                if pause > 0:
                    time.sleep(min(pause, 0.1))
                continue
            done, _ = wait(
                list(self.pending),
                timeout=self._wait_budget(now),
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                self._complete(future)
            if self.timeout is not None:
                self._expire_overdue()

    def _wait_budget(self, now: float) -> float | None:
        horizons = []
        if self.deadlines:
            horizons.append(min(self.deadlines.values()))
        if self.retry_at and not self.aborting:
            horizons.append(min(self.retry_at.values()))
        if not horizons:
            return None
        return max(0.0, min(horizons) - now) + 0.005

    # -- submission and completion ------------------------------------

    def _submit(self, index: int) -> None:
        if self.aborting or self.completed[index] or index in self.failures:
            return
        if self.executor is None:
            self._run_inline(index)
            return
        try:
            future = self.executor.submit(self.function, self.items[index])
        except (BrokenExecutor, RuntimeError) as error:
            # submit() on a broken/shut-down pool: replace it and retry
            # the submission on whatever the fallback chain provides.
            self._pool_broke(error)
            self._submit(index)
            return
        self.attempts[index] += 1
        self.stats.attempts += 1
        if self.attempts[index] > 1:
            self.stats.retries += 1
        self.pending[future] = index
        if self.timeout is not None:
            self.deadlines[future] = time.monotonic() + self.timeout

    def _launch_due_retries(self, now: float) -> None:
        if self.aborting:
            self.retry_at.clear()
            return
        due = sorted(
            index for index, when in self.retry_at.items() if when <= now
        )
        for index in due:
            del self.retry_at[index]
            self._submit(index)

    def _complete(self, future: Future) -> None:
        index = self.pending.pop(future, None)
        self.deadlines.pop(future, None)
        if index is None:
            return  # abandoned after a timeout, or pool-breakage victim
        try:
            result = future.result()
        except CancelledError:
            return
        except (KeyboardInterrupt, SystemExit):
            raise
        except BrokenExecutor as error:
            self._pool_broke(error, trigger=index)
            return
        except BaseException as error:
            self._failed(index, error)
            return
        self._succeeded(index, result)

    def _succeeded(self, index: int, result: Any) -> None:
        self.results[index] = result
        self.completed[index] = True
        if self.on_result is not None:
            self.on_result(index, result)

    def _failed(self, index: int, error: BaseException) -> None:
        if (
            not self.aborting
            and self.policy.is_retryable(error)
            and self.attempts[index] < self.policy.max_attempts
        ):
            delay = self.policy.delay_before(
                self.attempts[index] + 1,
                jitter_entropy(self.items[index], index),
            )
            logger.warning(
                "task %d failed (%s: %s); retrying (attempt %d/%d) in %.3fs",
                index, type(error).__name__, error,
                self.attempts[index] + 1, self.policy.max_attempts, delay,
            )
            self.retry_at[index] = time.monotonic() + delay
            return
        self.failures[index] = error
        self._abort()

    def _abort(self) -> None:
        if self.aborting:
            return
        self.aborting = True
        self.retry_at.clear()
        for future in list(self.pending):
            future.cancel()

    # -- timeouts ------------------------------------------------------

    def _expire_overdue(self) -> None:
        now = time.monotonic()
        overdue = [
            future for future, deadline in self.deadlines.items()
            if deadline <= now
        ]
        for future in overdue:
            if future.done():
                continue  # completed in the race window; next wait() reaps it
            future.cancel()  # only succeeds if not yet started
            index = self.pending.pop(future)
            del self.deadlines[future]
            self.stats.timeouts += 1
            error = TaskTimeoutError(
                f"task {index} exceeded the {self.timeout}s per-task "
                f"timeout on attempt {self.attempts[index]}; abandoning "
                "the slot"
            )
            logger.warning("%s", error)
            self._failed(index, error)

    # -- pool breakage and degradation ---------------------------------

    def _pool_broke(
        self, error: BaseException, trigger: int | None = None
    ) -> None:
        # Futures that finished with a real outcome before the pool
        # broke still hold good results (or genuine failures) — harvest
        # them; only futures poisoned by the breakage are crash victims.
        # ``trigger`` is the index whose future raised the breakage —
        # already popped from the books by the caller, but a victim
        # all the same.
        victims = [] if trigger is None else [trigger]
        survivors: list[tuple[int, Future]] = []
        for future, index in self.pending.items():
            if future.done() and not future.cancelled():
                outcome = future.exception()
                if not isinstance(outcome, BrokenExecutor):
                    survivors.append((index, future))
                    continue
            victims.append(index)
        victims = sorted(set(victims))
        self.pending.clear()
        self.deadlines.clear()
        broken, self.executor = self.executor, None
        if broken is not None:
            try:
                broken.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        self.stats.crashes += 1
        self.fallback_level += 1
        replacement, description = self.backend._fallback_executor(
            self.fallback_level, self.max_workers
        )
        self.executor = replacement
        if self.fallback_level <= self.backend._pool_rebuilds:
            self.stats.pool_rebuilds += 1
        else:
            self.stats.downgrades += 1
        logger.warning(
            "worker pool broke (%s: %s); continuing with %s "
            "(%d in-flight task(s) charged a crash attempt)",
            type(error).__name__, error, description, len(victims),
        )
        for index, future in sorted(survivors):
            outcome = future.exception()
            if outcome is None:
                self._succeeded(index, future.result())
            elif isinstance(outcome, (KeyboardInterrupt, SystemExit)):
                raise outcome
            else:
                self._failed(index, outcome)
        for index in victims:
            self._failed(
                index,
                WorkerCrashError(
                    f"worker pool broke while task {index} was in flight "
                    f"(attempt {self.attempts[index]}): {error}"
                ),
            )
        if self.executor is None and not self.aborting:
            self._drain_inline()

    def _drain_inline(self) -> None:
        """Finish every unfinished index serially (last-resort fallback)."""
        for index in range(len(self.items)):
            if self.aborting:
                return
            if self.completed[index] or index in self.failures:
                continue
            self.retry_at.pop(index, None)
            self._run_inline(index)

    def _run_inline(self, index: int) -> None:
        while True:
            self.attempts[index] += 1
            self.stats.attempts += 1
            if self.attempts[index] > 1:
                self.stats.retries += 1
            try:
                result = self.function(self.items[index])
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as error:
                if (
                    self.policy.is_retryable(error)
                    and self.attempts[index] < self.policy.max_attempts
                ):
                    delay = self.policy.delay_before(
                        self.attempts[index] + 1,
                        jitter_entropy(self.items[index], index),
                    )
                    if delay > 0:
                        time.sleep(delay)
                    continue
                self.failures[index] = error
                self._abort()
                return
            self._succeeded(index, result)
            return


class _PoolBackend:
    """Shared executor-driven map for thread and process pools."""

    jobs: int
    _flavor = "pool"
    _pool_rebuilds = 1  # same-flavor executor recreations before downgrading

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def _executor(self, max_workers: int) -> Executor:
        raise NotImplementedError

    def _fallback_executor(
        self, level: int, max_workers: int
    ) -> tuple[Executor | None, str]:
        """Replacement executor after ``level`` pool breakages.

        ``(None, ...)`` means "run the remainder inline" — the final
        rung of every fallback chain.
        """
        if level <= self._pool_rebuilds:
            return self._executor(max_workers), f"a rebuilt {self._flavor} pool"
        return None, "serial in-process execution (downgraded)"

    def map(
        self,
        function: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        on_result: OnResult | None = None,
        retry: RetryPolicy | None = None,
        timeout: float | None = None,
        stats: FaultToleranceStats | None = None,
    ) -> list[Any]:
        items = list(items)
        policy = retry or NO_RETRY
        if in_worker() or self.jobs == 1 or len(items) <= 1:
            return _serial_map(function, items, on_result, policy, stats)
        fan_out = _FanOut(
            self,
            function,
            items,
            on_result,
            policy,
            timeout,
            stats if stats is not None else FaultToleranceStats(),
        )
        return fan_out.run()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(jobs={self.jobs})"


class ThreadBackend(_PoolBackend):
    """Thread-pool backend for GIL-releasing (NumPy-bound) work."""

    _flavor = "thread"

    def _executor(self, max_workers: int) -> Executor:
        return ThreadPoolExecutor(max_workers=max_workers)


class ProcessBackend(_PoolBackend):
    """Process-pool backend for full-run fan-out.

    Work units (``function`` and each item) must be picklable —
    module-level callables over plain dataclasses.  ``fork`` is used
    on Linux (cheap workers, shared read-only block tables), the
    platform-default start method elsewhere; workers are marked so
    nested backends degrade to serial execution instead of spawning
    pools from within workers.

    A broken pool (a worker killed mid-task) is rebuilt once; a second
    breakage downgrades to a thread pool, a third to serial inline
    execution — each with a logged warning, never a silent abort.
    """

    _flavor = "process"

    def _executor(self, max_workers: int) -> Executor:
        # Prefer fork only on Linux (cheap workers, shared read-only
        # block tables).  macOS also *offers* fork but CPython made
        # spawn its default there for a reason — forked children can
        # abort inside Accelerate/Objective-C — so everywhere else we
        # take the platform default.
        context = (
            multiprocessing.get_context("fork")
            if sys.platform.startswith("linux")
            else multiprocessing.get_context()
        )
        return ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=context,
            initializer=_mark_worker,
        )

    def _fallback_executor(
        self, level: int, max_workers: int
    ) -> tuple[Executor | None, str]:
        if level <= self._pool_rebuilds:
            return self._executor(max_workers), "a rebuilt process pool"
        if level == self._pool_rebuilds + 1:
            return (
                ThreadPoolExecutor(max_workers=max_workers),
                "a thread pool (downgraded)",
            )
        return None, "serial in-process execution (downgraded)"


def resolve_backend(
    jobs: int | None = None, kind: str = "process"
) -> ExecutionBackend:
    """Backend for a ``--jobs`` value: 1/None = serial, 0 = all cores.

    ``kind`` selects the pool flavor used when ``jobs`` asks for
    parallelism: ``"process"`` (default; full-run fan-out) or
    ``"thread"`` (kernel-bound work, or platforms where fork is
    expensive).
    """
    if kind not in ("process", "thread"):
        raise ValueError(f"unknown backend kind {kind!r}")
    if jobs is None:
        return SerialBackend()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs == 1:
        return SerialBackend()
    if kind == "thread":
        return ThreadBackend(jobs)
    return ProcessBackend(jobs)

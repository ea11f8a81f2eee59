"""Pure arithmetic of the benchmark: percentiles, output checks, spans.

Nothing here launches a process or imports the program under test, so
``selftest.py`` can pin every rule at tiny sizes.
"""

from __future__ import annotations

import math
import re
import statistics

# Table rows end in a ``[  N.Ns]`` wall-clock suffix (and grouped
# progress lines in ``[t=  N.Ns]``); everything else a seeded command
# prints is byte-deterministic.
_TIMING_SUFFIX = re.compile(rb"\[\s*(?:t=\s*)?\d+(?:\.\d+)?s\]")
_COMPRESS_EA_RATE = re.compile(rb"^EA\s+rate:\s*(-?\d+\.\d+)% mean", re.M)
_TABLE1_EA_RATE = re.compile(rb"\bEA=\s*(-?\d+\.\d+)\(")
_MV_USAGE = re.compile(rb"^best MV usage: (\{.*\})$", re.M)

# A percentile q is trusted only when at least this many samples lie
# beyond it (so p99 needs >= 1000 samples).
MIN_SAMPLES_BEYOND = 10


def normalize_stdout(data: bytes) -> bytes:
    """Seeded stdout with every wall-clock suffix blanked."""
    return _TIMING_SUFFIX.sub(b"[time]", data)


def compress_ea_rate(stdout: bytes) -> float:
    """The ``EA rate: X% mean`` figure of ``repro compress``."""
    match = _COMPRESS_EA_RATE.search(stdout)
    if match is None:
        raise ValueError("no 'EA rate' line in compress output")
    return float(match.group(1))


def compress_usage_total(stdout: bytes) -> int:
    """Blocks encoded in the ``best MV usage`` map of ``repro compress``."""
    match = _MV_USAGE.search(stdout)
    if match is None:
        raise ValueError("no 'best MV usage' line in compress output")
    counts = re.findall(rb":\s*(\d+)", match.group(1))
    return sum(int(count) for count in counts)


def table1_ea_rate(stdout: bytes) -> float:
    """Mean of the measured EA column over the rows of ``repro table1``."""
    rates = [float(value) for value in _TABLE1_EA_RATE.findall(stdout)]
    if not rates:
        raise ValueError("no 'EA=' rows in table1 output")
    return statistics.fmean(rates)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def samples_beyond(n_samples: int, q: float) -> int:
    """How many of ``n_samples`` lie strictly above percentile ``q``."""
    return n_samples - math.ceil(n_samples * q / 100.0)


def percentile_valid(n_samples: int, q: float) -> bool:
    """The choosing-metrics rule: >= 10 samples beyond the percentile."""
    return samples_beyond(n_samples, q) >= MIN_SAMPLES_BEYOND


class OpLedger:
    """Attempted and failed operations of one run, with the reasons.

    Every failure is kept: a mismatching or timed-out op is counted,
    never dropped, so ``failed / attempted`` is the run's failure rate.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> bool:
        """Count one op; ``reason`` is ``None`` on success."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)
        return reason is None

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# -- spans --------------------------------------------------------------
#
# A span is a dict with ``name``, ``start`` and ``end`` (monotonic
# nanoseconds), ``pid``, ``tid``, ``id``, ``parent`` (the id of the
# enclosing span on the same thread, or None) and optional numeric
# ``attrs``.


def _covered(intervals: list[tuple[int, int]], low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, busy and self seconds, and summed attrs.

    Busy time adds the durations of a name's outermost spans (a span
    nested in a same-named ancestor is already inside it); self time
    is a span's duration minus the part its child spans cover.  Both
    add up across threads and processes, so a layer that runs in two
    workers at once can be busy for longer than the wall clock.
    """
    by_key = {(span["pid"], span["id"]): span for span in spans}
    children: dict[tuple, list[tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            children.setdefault(key, []).append((span["start"], span["end"]))

    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(
            span["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "attrs": {}}
        )
        duration = span["end"] - span["start"]
        row["calls"] += 1
        covered = _covered(
            children.get((span["pid"], span["id"]), []),
            span["start"],
            span["end"],
        )
        row["self_s"] += (duration - covered) / 1e9
        if not _has_ancestor_named(span, by_key):
            row["busy_s"] += duration / 1e9
        for key, value in span.get("attrs", {}).items():
            row["attrs"][key] = row["attrs"].get(key, 0) + value
    return table


def _has_ancestor_named(span: dict, by_key: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        ancestor = by_key.get((span["pid"], parent))
        if ancestor is None:
            return False
        if ancestor["name"] == span["name"]:
            return True
        parent = ancestor["parent"]
    return False


def nested_busy(spans: list[dict], inner: str, outer: str) -> float:
    """Seconds of outermost ``inner`` spans that run inside an ``outer`` span."""
    by_key = {(span["pid"], span["id"]): span for span in spans}
    total = 0
    for span in spans:
        if span["name"] != inner or _has_ancestor_named(span, by_key):
            continue
        parent = span["parent"]
        while parent is not None:
            ancestor = by_key.get((span["pid"], parent))
            if ancestor is None:
                break
            if ancestor["name"] == outer:
                total += span["end"] - span["start"]
                break
            parent = ancestor["parent"]
    return total / 1e9


def utilization(spans: list[dict]) -> float:
    """Task busy time over the capacity of the command's outermost maps.

    Capacity is each outermost ``parallel.map`` span of a command's
    own process (the one holding ``cli.main``) times its job count;
    busy time adds every ``parallel.task`` span, in any process.
    """
    by_key = {(span["pid"], span["id"]): span for span in spans}
    command_pids = {span["pid"] for span in spans if span["name"] == "cli.main"}
    capacity = sum(
        (span["end"] - span["start"]) * span["attrs"].get("jobs", 1)
        for span in spans
        if span["name"] == "parallel.map"
        and span["pid"] in command_pids
        and not _has_ancestor_named(span, by_key)
    )
    busy = sum(
        span["end"] - span["start"]
        for span in spans
        if span["name"] == "parallel.task"
        and not _has_ancestor_named(span, by_key)
    )
    return busy / capacity if capacity else 0.0

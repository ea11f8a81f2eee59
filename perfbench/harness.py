"""Launch, time and police the program's processes.

Every op runs as ``python -X faulthandler ...`` in a session of its
own under a wall-clock timeout.  On expiry the op gets SIGABRT, so
faulthandler dumps every thread's stack into the run log, then the
whole session is killed and the op counts as failed: a hang is a
counted failure, never a stalled benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"


def check_checkout() -> None:
    """Refuse to run anywhere but the root of a source checkout."""
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        raise SystemExit(
            "perfbench: run from the repository root (src/repro not found)"
        )


def build_dir() -> Path:
    """The private build and log area inside the checkout."""
    path = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path.mkdir(parents=True, exist_ok=True)
    return path


def child_env(cache_dir: Path) -> dict[str, str]:
    """The user's environment plus the source path and a private cache.

    Nothing that changes program behaviour (``OMP_NUM_THREADS``,
    ``REPRO_NATIVE_DISABLE``, ...) is set: the benchmark measures what
    a user runs.
    """
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + previous if previous else "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


@dataclass
class OpResult:
    """One finished (or killed) process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int | None
    stdout: bytes
    timed_out: bool
    launched_ns: int
    ended_ns: int

    def failure(self) -> str | None:
        """Why the process failed, or ``None``."""
        if self.timed_out:
            return "timeout"
        if self.returncode != 0:
            return f"exit {self.returncode}"
        return None


class Log:
    """The run log: stderr of every op, stack dumps, provenance."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def write(self, text: str) -> None:
        with self.path.open("a") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def reap_session(pgid: int, deadline: float) -> None:
    """SIGKILL what is left of a session and wait until it is gone."""
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def launch(
    argv: list[str],
    env: dict[str, str],
    workdir: Path,
    log: Log,
    label: str,
    timeout: float,
    launched_ns: int | None = None,
) -> OpResult:
    """Run ``python -X faulthandler ARGV`` to completion or timeout.

    CPU and peak RSS come from ``wait4`` and so cover every process of
    the tree the op waited for (pool workers included); peak RSS is
    that of the largest single process.
    """
    out_path = workdir / f"{label}.out"
    err_path = workdir / f"{label}.err"
    if launched_ns is None:
        launched_ns = time.monotonic_ns()
    with out_path.open("wb") as out, err_path.open("wb") as err:
        process = subprocess.Popen(
            [sys.executable, "-X", "faulthandler", *argv],
            stdout=out,
            stderr=err,
            stdin=subprocess.DEVNULL,
            env=env,
            cwd=ROOT,
            start_new_session=True,
        )
    outcome: dict = {}

    def reap() -> None:
        _, status, usage = os.wait4(process.pid, 0)
        outcome["ended_ns"] = time.monotonic_ns()
        outcome["status"] = status
        outcome["usage"] = usage

    waiter = threading.Thread(target=reap, daemon=True)
    waiter.start()
    waiter.join(timeout)
    timed_out = waiter.is_alive()
    if timed_out:
        log.write(f"[{label}] timed out after {timeout:.0f}s; SIGABRT for stacks")
        os.kill(process.pid, signal.SIGABRT)
        waiter.join(10.0)
        if waiter.is_alive():
            os.killpg(process.pid, signal.SIGKILL)
            waiter.join()
    reap_session(process.pid, time.monotonic() + 10.0)
    returncode = os.waitstatus_to_exitcode(outcome["status"])
    process.returncode = returncode
    usage = outcome["usage"]
    stdout = out_path.read_bytes()
    stderr = err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    if stderr:
        log.write(f"[{label}] stderr:\n{stderr.decode(errors='replace')}")
    return OpResult(
        wall_s=(outcome["ended_ns"] - launched_ns) / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=returncode,
        stdout=stdout,
        timed_out=timed_out,
        launched_ns=launched_ns,
        ended_ns=outcome["ended_ns"],
    )


def traced_op(command, env, workdir, log, label, timeout, trace_dir):
    """Run ``repro COMMAND`` under the span recorder."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    launched = time.monotonic_ns()
    return launch(
        [str(CHILD), "trace", str(trace_dir), str(launched), "--", *command],
        env, workdir, log, label, timeout, launched_ns=launched,
    )


def load_spans(trace_dir: Path) -> list[dict]:
    """Every process's spans of one traced op, merged.

    Process ids are qualified by the op's trace directory, so spans of
    different ops never share a key even when the OS reuses a pid.
    """
    spans: list[dict] = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        for span in json.loads(path.read_text()):
            span["pid"] = f"{trace_dir.name}/{span['pid']}"
            spans.append(span)
    return spans


def provenance(extra: dict) -> dict:
    """Machine and code identity recorded with every run."""
    record = {
        "cpu_count": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }
    record.update(extra)
    return record


def _commit() -> str:
    """The checked-out commit; a checkout without git metadata has none."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
    except OSError:
        return "none"
    return head


def _source_digest() -> str:
    """SHA-256 over the program's source files: identity without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]

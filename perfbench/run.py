"""End-to-end benchmark of ``repro`` at the EA's real shape.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {compress,serve} \
        --seed N --seconds S --trace {0,1}

The program under test is a black box run as separate processes:

``compress``  cold ``repro compress`` processes at CLI defaults on a
              300x128 synthetic pattern file made from the seed.
``serve``     a ``repro serve`` daemon at its defaults, driven by two
              closed-loop clients with 32-genome ``/fitness`` requests.

``--trace 0`` times whole operations with tracing off and prints the
end-to-end metrics; ``--trace 1`` adds ops run under the span recorder
(``tracer.py``) and prints the per-layer metrics.  The traced
``compress`` run also traces one serial and one ``--jobs 2`` ``repro
table1`` op, whose layers (engine, fan-out, calibration, 9C) no timed
workload measures: ``table1`` is too unsteady to time, see NOTES.md.
Every op's output is checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import harness
import measure

CIRCUITS = ("s1494", "s953", "s298", "s349")
COMPRESS_SHAPE = (300, 128)  # patterns x bits
BLOCK_LENGTH, N_VECTORS = 12, 64
DEDUP_FLOOR = 2048  # distinct blocks past which the MV-cache path engages
SERVE_BODIES, SERVE_GENOMES, SERVE_ELITE, SERVE_CLIENTS = 128, 32, 8, 2
SERVE_MUTATION = 0.01
P99_MIN_SAMPLES = 1000  # 10 samples beyond p99
MIN_TIMED_OPS = 3
SETUP_REPEATS = 9
OP_TIMEOUT = {"compress": 30.0, "table1": 40.0, "table1-jobs2": 80.0}
LOOP_LIMIT = 100.0  # no op starts this long after the timed window opened
RUN_BUDGET = 160.0  # no op's timeout reaches past this, from the run's start

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("evals_per_s", "1/s"),
    ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("rate_pct", "%"),
    ("ok_frac", "frac"), ("req_per_s", "1/s"), ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
]

# Per-layer metrics of the traced run: (name, unit, better).  Layer
# times that only some workloads have are shares of the op's wall
# clock, so no metric is a time that reads 0 on every run.
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("core.kernels.load_s", "s", "lower"),
    ("core.kernels.build_s", "s", "lower"),
    ("core.kernels.cover_grid_calls", "count", "lower"),
    ("core.kernels.cover_grid_share", "frac", "lower"),
    ("core.kernels.match_columns_calls", "count", "lower"),
    ("core.kernels.match_columns_share", "frac", "lower"),
    ("core.fitness.evaluate_batch_s", "s", "lower"),
    ("core.fitness.calls", "count", "lower"),
    ("core.fitness.genomes_per_call", "count", "higher"),
    ("core.fitness.pack_s", "s", "lower"),
    ("core.fitness.match_share", "frac", "lower"),
    ("core.fitness.cover_s", "s", "lower"),
    ("core.fitness.huffman_s", "s", "lower"),
    ("core.fitness.mv_cache_hit_rate", "frac", "higher"),
    ("core.fitness.dedup_call_share", "frac", "lower"),
    ("ea.engine.run_share", "frac", "lower"),
    ("ea.engine.self_share", "frac", "lower"),
    ("ea.engine.evaluations", "count", "higher"),
    ("ea.engine.generations", "count", "lower"),
    ("ea.engine.memo_hit_rate", "frac", "higher"),
    ("parallel.map_share", "frac", "lower"),
    ("parallel.task_busy_share", "frac", "lower"),
    ("parallel.utilization", "frac", "higher"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.cpu_per_task_busy", "x", "lower"),
    ("core.compressor.compress_blocks_share", "frac", "lower"),
    ("serve.evaluate_batch_share", "frac", "lower"),
    ("serve.net.body_wait_share", "frac", "lower"),
    ("serve.batch.mean_occupancy", "count", "higher"),
    ("serve.batch.flushes", "count", "lower"),
    ("serve.requests.errors", "count", "lower"),
    ("serve.requests.rejected", "count", "lower"),
    ("serve.requests.timeouts", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.named_share", "frac", "higher"),
    ("trace.cli_self_share", "frac", "lower"),
    # From the traced table1 ops of a traced compress run (0 on serve).
    ("table1.wall_s", "s", "lower"),
    ("table1.ea.engine.self_share", "frac", "lower"),
    ("table1.ea.engine.evaluations", "count", "higher"),
    ("table1.ea.engine.memo_hit_rate", "frac", "higher"),
    ("table1.core.fitness.genomes_per_call", "count", "higher"),
    ("table1.parallel.task_busy_share", "frac", "lower"),
    ("table1.parallel.tasks", "count", "lower"),
    ("table1.parallel.cpu_per_task_busy", "x", "lower"),
    ("table1.testdata.calibrate_share", "frac", "lower"),
    ("table1.core.nine_c.compress_share", "frac", "lower"),
    ("table1.experiments.run_row_share", "frac", "lower"),
    ("table1.jobs2.slowdown", "x", "lower"),
    ("table1.jobs2.cpu_ratio", "x", "lower"),
    ("table1.jobs2.row_busy_ratio", "x", "lower"),
    ("table1.jobs2.utilization", "frac", "higher"),
    ("table1.jobs2.retries", "count", "lower"),
    ("table1.jobs2.failures", "count", "lower"),
]
TABLE1_LAYERS = [name for name, _, _ in PER_LAYER if name.startswith("table1.")]


class Run:
    """State of one benchmark run: its directory, log, env and ledger."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        root = harness.build_dir()
        self.cache_dir = root / "repro-cache"
        self.dir = root / "perfbench" / f"{workload}-seed{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.log = harness.Log(self.dir / "run.log")
        self.env = harness.child_env(self.cache_dir)
        self.ledger = measure.OpLedger()
        self.report: list[str] = []
        self._labels = 0

    def label(self, kind: str) -> str:
        self._labels += 1
        return f"{self._labels:04d}-{kind}"

    def timeout(self, kind: str) -> float:
        """An op's timeout, cut so that the run ends within its budget."""
        left = self.started + RUN_BUDGET - time.monotonic()
        return max(1.0, min(OP_TIMEOUT[kind], left))

    def child(self, mode: str, args: list[str], timeout: float = 60.0):
        result = harness.launch(
            [str(harness.CHILD), mode, *args], self.env, self.dir, self.log,
            self.label(mode), timeout,
        )
        if result.failure():
            raise RuntimeError(f"helper '{mode}' failed: {result.failure()}")
        return result

    def warm(self, shape: tuple[int, int, int, int]) -> None:
        """Build (or warm-load) the native kernel before any timed op."""
        info = json.loads(self.child("warm", [str(v) for v in shape]).stdout)
        self.provenance = harness.provenance(info)

    def trace_dir(self) -> Path:
        return self.dir / f"trace-{self.label('spans')}"

    def finish(self) -> None:
        """Record provenance and drop inputs and spans; the log stays."""
        self.provenance["loadavg_after"] = os.getloadavg()
        self.log.write("provenance: " + json.dumps(self.provenance))
        for path in self.dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            elif path != self.log.path:
                path.unlink()


# -- inputs -------------------------------------------------------------


def _test_set(name: str, seed: int):
    from repro.testdata.synthetic import SyntheticSpec, synthetic_test_set

    return synthetic_test_set(
        SyntheticSpec(name, *COMPRESS_SHAPE, care_density=0.5, seed=seed)
    )


def _pattern_lines(test_set) -> list[str]:
    from repro.core.trits import format_trits

    return [format_trits(row, unspecified="X") for row in test_set.patterns]


# -- CLI workloads (compress, table1) -----------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(samples: list[float]) -> float:
    """p99 when at least 10 samples lie beyond it, else the median.

    A run of 5-15 CLI ops cannot support a p99; its largest op would
    stand in for one and swing with every slow second of the machine.
    """
    if not samples:
        return 0.0
    if measure.percentile_valid(len(samples), 99.0):
        return measure.percentile(samples, 99.0)
    return statistics.median(samples)


def _tail_note(n: int) -> str:
    if measure.percentile_valid(n, 99.0):
        return f"latency_p99_ms is the p99 of n={n}"
    return f"latency_p99_ms: n={n} cannot support a p99, reports the median"


def _setup_probe(run: Run, args: list[str]) -> dict:
    """One set-up-only process: its launch-to-exit wall and phase times."""
    result = run.child("setup", args)
    return dict(json.loads(result.stdout), setup_s=result.wall_s)


def _summarize_setup(samples: list[dict]) -> dict:
    return {key: _median([sample[key] for sample in samples])
            for key in ("setup_s", "import_s", "load_s", "parse_s")}


def _setup_probes(run: Run, args: list[str], repeats: int) -> dict:
    return _summarize_setup([_setup_probe(run, args) for _ in range(repeats)])


def _cli_workload(run: Run, command, setup_args, check_reference, rate_of):
    """Reference op, set-up probes, then timed ops until the deadline.

    The reference op runs under the span recorder (its spans give the
    evaluation count, fixed for a seed, and decode-check every
    compressed payload); every later op must print the same stdout
    once wall-clock suffixes are blanked.
    """
    trace_dir = run.trace_dir()
    reference = harness.traced_op(
        command, run.env, run.dir, run.log, run.label("reference"),
        run.timeout(run.workload), trace_dir,
    )
    spans = harness.load_spans(trace_dir)
    table = measure.layer_table(spans)
    failure = reference.failure() or check_reference(reference.stdout, table)
    run.ledger.record(failure)
    if failure:
        run.log.write(f"[reference] failed: {failure}")
    expected = measure.normalize_stdout(reference.stdout)
    evaluations = _attr(table, "ea.engine.run", "evaluations")
    # Set-up probes are spread over the timed window, one after each
    # op, so their median samples the same machine state as the ops.
    probes: list[dict] = []
    untraced, traced = [], [(reference, trace_dir)]
    opened = time.monotonic()
    # A traced run leaves half its time to the traced table1 ops.
    window = run.seconds / 2 if run.trace else run.seconds
    minimum = 1 if run.trace else MIN_TIMED_OPS
    while (
        time.monotonic() - opened < window or len(untraced) < minimum
    ) and time.monotonic() - opened < LOOP_LIMIT:
        if run.trace and len(untraced) >= len(traced):
            trace_dir = run.trace_dir()
            result = harness.traced_op(
                command, run.env, run.dir, run.log, run.label("traced"),
                run.timeout(run.workload), trace_dir,
            )
            traced.append((result, trace_dir))
        else:
            result = harness.launch(
                ["-m", "repro", *command], run.env, run.dir, run.log,
                run.label("op"), run.timeout(run.workload),
            )
            untraced.append(result)
        reason = result.failure()
        if reason is None and failure is not None:
            reason = "the run's first op failed, nothing to compare with"
        if reason is None and measure.normalize_stdout(result.stdout) != expected:
            reason = "stdout differs from the run's first op"
        run.ledger.record(reason)
        if reason is not None:
            run.log.write(f"[op] failed: {reason}")
        probes.append(_setup_probe(run, setup_args))
    while len(probes) < SETUP_REPEATS:
        probes.append(_setup_probe(run, setup_args))
    setup = _summarize_setup(probes)
    untraced = [r for r in untraced if r.failure() is None]

    walls = [r.wall_s for r in untraced]
    wall = _median(walls)
    metrics = {
        "setup_s": setup["setup_s"],
        "wall_s": wall,
        "evals_per_s": evaluations / wall if wall else 0.0,
        "cpu_s": _median([r.cpu_s for r in untraced]),
        "peak_rss_mb": _median([r.peak_rss_mb for r in untraced]),
        "rate_pct": rate_of(reference.stdout) if failure is None else 0.0,
        "ok_frac": 1.0 - run.ledger.failed_frac,
        "req_per_s": len(untraced) / sum(walls) if walls else 0.0,
        "latency_p50_ms": 1000.0 * wall,
        "latency_p99_ms": 1000.0 * _tail(walls),
    }
    run.report.append(
        "op walls (s): " + " ".join(f"{r.wall_s:.3f}" for r in untraced)
    )
    run.report.append(
        f"ops: {len(untraced)} untraced, {len(traced)} traced; "
        f"evaluations/op {evaluations}; " + _tail_note(len(walls))
    )
    return metrics, setup, traced, untraced


def _check_compress(n_blocks: int):
    def check(stdout: bytes, table: dict) -> str | None:
        try:
            rate = measure.compress_ea_rate(stdout)
            used = measure.compress_usage_total(stdout)
        except ValueError as error:
            return str(error)
        if not 0.0 < rate < 100.0:
            return f"EA rate {rate} out of range"
        if used != n_blocks:
            return f"MV usage covers {used} blocks, the input has {n_blocks}"
        verify = table.get("bench.verify", {}).get("attrs", {})
        if verify.get("verify_failed", 0) or not verify.get("verified", 0):
            return "compressed payload does not decode to the test set"
        return None

    return check


def _check_table1(stdout: bytes, table: dict) -> str | None:
    try:
        rate = measure.table1_ea_rate(stdout)
    except ValueError as error:
        return str(error)
    if stdout.count(b"EA=") != len(CIRCUITS):
        return "table1 printed the wrong number of rows"
    if not 0.0 < rate < 100.0:
        return f"EA rate {rate} out of range"
    if table.get("bench.verify", {}).get("attrs", {}).get("verify_failed", 0):
        return "a compressed payload does not decode to its test set"
    return None


def workload_compress(run: Run):
    test_set = _test_set("compress", run.seed)
    blocks = test_set.blocks(BLOCK_LENGTH)
    if blocks.n_distinct < DEDUP_FLOOR:
        raise RuntimeError(
            f"input has D={blocks.n_distinct} distinct blocks, below the "
            f"{DEDUP_FLOOR} dedup floor this workload exists to exercise"
        )
    run.warm((5, blocks.n_distinct, N_VECTORS, BLOCK_LENGTH))
    path = run.dir / "patterns.txt"
    path.write_text("\n".join(_pattern_lines(test_set)) + "\n")
    run.report.append(f"input: 300x128 patterns, D={blocks.n_distinct}")
    return _cli_workload(
        run, ["compress", str(path)], [str(path)],
        _check_compress(blocks.n_blocks), measure.compress_ea_rate,
    )


# -- serve ---------------------------------------------------------------


class Daemon:
    """A ``repro serve --port 0`` process, ready once its table is registered."""

    def __init__(self, run: Run, table_body: bytes, traced: bool) -> None:
        self.run = run
        self.trace_dir = run.trace_dir() if traced else None
        launched = time.monotonic_ns()
        if traced:
            self.trace_dir.mkdir(parents=True)
            argv = [str(harness.CHILD), "trace", str(self.trace_dir),
                    str(launched), "--", "serve", "--port", "0"]
        else:
            argv = ["-m", "repro", "serve", "--port", "0"]
        self.process = subprocess.Popen(
            [sys.executable, "-X", "faulthandler", *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            stdin=subprocess.DEVNULL, env=run.env, cwd=harness.ROOT,
            start_new_session=True,
        )
        self.port: int | None = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            if not self._ready.wait(60.0) or self.port is None:
                raise RuntimeError("serve daemon did not start listening")
            status, body = self.request("POST", "/tables", table_body)
            if status != 200:
                raise RuntimeError(f"table registration answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = (time.monotonic_ns() - launched) / 1e9
        self.digest = json.loads(body)["digest"]

    def _read_stderr(self) -> None:
        for raw in self.process.stderr:
            line = raw.decode(errors="replace")
            self.run.log.write(f"[serve] {line}")
            if self.port is None and "listening on http://" in line:
                address = line.split("http://", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()

    def request(self, method: str, path: str, body: bytes | None = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.process.pid}/stat").read_text().rsplit(")", 1)[1]
        utime, stime = fields.split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> bool:
        """SIGTERM (drain); stacks and SIGKILL if it does not exit."""
        clean = True
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(30.0)
            except subprocess.TimeoutExpired:
                clean = False
                self.run.log.write("[serve] no exit 30s after SIGTERM; SIGABRT")
                self.process.send_signal(signal.SIGABRT)
                try:
                    self.process.wait(10.0)
                except subprocess.TimeoutExpired:
                    os.killpg(self.process.pid, signal.SIGKILL)
                    self.process.wait()
        self._reader.join(10.0)
        harness.reap_session(self.process.pid, time.monotonic() + 10.0)
        return clean and self.process.returncode == 0


def _serve_inputs(run: Run):
    """The table and the request genomes, all made from the seed."""
    import numpy as np

    test_set = _test_set("serve", run.seed + 1000)
    rng = np.random.default_rng([run.seed, 2])
    length = N_VECTORS * BLOCK_LENGTH
    alphabet = np.array(list("01U"))
    elite = rng.integers(0, 3, size=(SERVE_ELITE, length))
    elite[:, -BLOCK_LENGTH:] = 2  # last MV all-U: every genome covers
    bodies = []
    for _ in range(SERVE_BODIES):
        genomes = elite[rng.integers(0, SERVE_ELITE, size=SERVE_GENOMES)]
        flip = rng.random(genomes.shape) < SERVE_MUTATION
        flip[:, -BLOCK_LENGTH:] = False
        shifted = (genomes + rng.integers(1, 3, size=genomes.shape)) % 3
        genomes = np.where(flip, shifted, genomes)
        bodies.append(["".join(alphabet[row]) for row in genomes])
    table = {"patterns": _pattern_lines(test_set),
             "block_length": BLOCK_LENGTH, "name": "perfbench"}
    return test_set, table, bodies


def _drive(daemon: Daemon, bodies: list[bytes], expected: list[bytes],
           seconds: float, min_requests: int, run: Run):
    """Closed-loop clients; returns latencies, body waits and elapsed time.

    A request's body wait is the time between its response headers and
    the end of its body: the daemon writes them separately, so on a
    kept-alive connection this is where TCP holds the body back.
    """
    latencies: list[float] = []
    body_waits: list[float] = []
    lock = threading.Lock()
    cursor = [0]
    start = time.monotonic()
    deadline, hard_stop = start + seconds, start + 3 * seconds

    def client() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=30)
        try:
            while True:
                with lock:
                    now = time.monotonic()
                    if now >= hard_stop or (
                        now >= deadline and cursor[0] >= min_requests
                    ):
                        return
                    index = cursor[0] % len(bodies)
                    cursor[0] += 1
                clock = time.monotonic()
                failure = None
                try:
                    connection.request(
                        "POST", "/fitness", body=bodies[index],
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    headers_at = time.monotonic()
                    payload = response.read()
                    if response.status != 200:
                        failure = f"status {response.status}"
                    elif payload != expected[index]:
                        failure = "response differs from repro request"
                except (OSError, http.client.HTTPException) as error:
                    failure = f"request error: {error}"
                    connection.close()
                done = time.monotonic()
                with lock:
                    run.ledger.record(failure)
                    if failure is None:
                        latencies.append(done - clock)
                        body_waits.append(done - headers_at)
                    else:
                        run.log.write(f"[client] body {index}: {failure}")
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, body_waits, time.monotonic() - start


def workload_serve(run: Run):
    test_set, table, genome_lists = _serve_inputs(run)
    blocks = test_set.blocks(BLOCK_LENGTH)
    run.warm((SERVE_GENOMES, blocks.n_distinct, N_VECTORS, BLOCK_LENGTH))
    table_path = run.dir / "table.json"
    table_path.write_text(json.dumps(table))
    patterns_path = run.dir / "patterns.txt"
    patterns_path.write_text("\n".join(table["patterns"]) + "\n")
    offline_path = run.dir / "offline-bodies.jsonl"
    offline_path.write_text("\n".join(
        json.dumps({"n_vectors": N_VECTORS, "genomes": genomes})
        for genomes in genome_lists
    ) + "\n")
    references = run.dir / "expected.jsonl"
    run.child("offline", [str(table_path), str(offline_path), str(references)])
    expected = references.read_bytes().splitlines(keepends=True)
    rate_pct = statistics.fmean(
        rate for line in expected for rate in json.loads(line)["rates"]
    )

    table_body = json.dumps(table).encode()
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        daemon = Daemon(run, table_body, traced=False)
        daemon.stop()
        setups.append(daemon.setup_s)
    phase = run.seconds / 2 if run.trace else run.seconds
    measured = _serve_phase(
        run, table_body, genome_lists, expected, phase,
        0 if run.trace else P99_MIN_SAMPLES, traced=False,
    )
    setups.append(measured["setup_s"])
    latencies, elapsed = measured["latencies"], measured["elapsed"]
    n = len(latencies)
    wall = _median(latencies)
    metrics = {
        "setup_s": _median(setups),
        "wall_s": wall,
        "evals_per_s": n * SERVE_GENOMES / elapsed,
        "cpu_s": measured["cpu_s"] / n if n else 0.0,
        "peak_rss_mb": measured["peak_rss_mb"],
        "rate_pct": rate_pct,
        "ok_frac": 1.0 - run.ledger.failed_frac,
        "req_per_s": n / elapsed,
        "latency_p50_ms": 1000.0 * wall,
        "latency_p99_ms": 1000.0 * _tail(latencies),
    }
    run.report.append(
        f"input: 300x128 table, D={blocks.n_distinct}; {n} requests in "
        f"{elapsed:.1f}s; " + _tail_note(n)
    )
    if not run.trace:
        return metrics, None
    traced = _serve_phase(
        run, table_body, genome_lists, expected, phase, 0, traced=True
    )
    traced["setup"] = _setup_probes(run, [str(patterns_path)], 3)
    traced["untraced_latencies"] = latencies
    return metrics, traced


def _serve_phase(run, table_body, genome_lists, expected, seconds,
                 min_requests, traced) -> dict:
    """Start a daemon, drive it, read its counters, drain it."""
    daemon = Daemon(run, table_body, traced=traced)
    try:
        bodies = [
            json.dumps({"table": daemon.digest, "n_vectors": N_VECTORS,
                        "genomes": genomes}).encode()
            for genomes in genome_lists
        ]
        cpu_before = daemon.cpu_s()
        latencies, body_waits, elapsed = _drive(
            daemon, bodies, expected, seconds, min_requests, run
        )
        result = {
            "setup_s": daemon.setup_s,
            "latencies": latencies,
            "body_waits": body_waits,
            "elapsed": elapsed,
            "cpu_s": daemon.cpu_s() - cpu_before,
            "peak_rss_mb": daemon.peak_rss_mb(),
        }
        status, stats_body = daemon.request("GET", "/stats")
        result["stats"] = json.loads(stats_body) if status == 200 else {}
    finally:
        if not daemon.stop():
            run.ledger.record("daemon did not drain and exit 0")
    if traced:
        result["spans"] = harness.load_spans(daemon.trace_dir)
    return result


# -- per-layer metrics ---------------------------------------------------


def _attr(table, name, key):
    return table.get(name, {}).get("attrs", {}).get(key, 0)


def _busy(table, name):
    return table.get(name, {}).get("busy_s", 0.0)


def _calls(table, name):
    return table.get(name, {}).get("calls", 0)


def _layer_metrics(table, spans, n_ops, op_wall):
    """Per-layer numbers shared by every workload, per op."""
    fit = "core.fitness.evaluate_batch"
    fit_calls = _calls(table, fit)
    lookups = _attr(table, fit, "mv_hits") + _attr(table, fit, "mv_misses")
    evaluations = _attr(table, "ea.engine.run", "evaluations")
    fitness_in_engine = measure.nested_busy(spans, fit, "ea.engine.run")

    def share(seconds):
        return seconds / n_ops / op_wall if op_wall else 0.0

    return {
        "core.kernels.cover_grid_calls": _calls(table, "core.kernels.cover_grid") / n_ops,
        "core.kernels.cover_grid_share": share(_busy(table, "core.kernels.cover_grid")),
        "core.kernels.match_columns_calls": _calls(table, "core.kernels.match_columns") / n_ops,
        "core.kernels.match_columns_share": share(_busy(table, "core.kernels.match_columns")),
        "core.fitness.evaluate_batch_s": _busy(table, fit) / n_ops,
        "core.fitness.calls": fit_calls / n_ops,
        "core.fitness.genomes_per_call": (
            _attr(table, fit, "genomes") / fit_calls if fit_calls else 0.0
        ),
        "core.fitness.pack_s": _attr(table, fit, "pack_s") / n_ops,
        "core.fitness.match_share": share(_attr(table, fit, "match_s")),
        "core.fitness.cover_s": _attr(table, fit, "cover_s") / n_ops,
        "core.fitness.huffman_s": _attr(table, fit, "huffman_s") / n_ops,
        "core.fitness.mv_cache_hit_rate": (
            _attr(table, fit, "mv_hits") / lookups if lookups else 0.0
        ),
        "core.fitness.dedup_call_share": (
            _attr(table, fit, "dedup") / fit_calls if fit_calls else 0.0
        ),
        "ea.engine.run_share": share(_busy(table, "ea.engine.run")),
        "ea.engine.self_share": share(
            _busy(table, "ea.engine.run") - fitness_in_engine
        ),
        "ea.engine.evaluations": evaluations / n_ops,
        "ea.engine.generations": _attr(table, "ea.engine.run", "generations") / n_ops,
        "ea.engine.memo_hit_rate": (
            _attr(table, "ea.engine.run", "memo_hits") / evaluations
            if evaluations else 0.0
        ),
        "parallel.map_share": share(_busy(table, "parallel.map")),
        "parallel.task_busy_share": share(_busy(table, "parallel.task")),
        "parallel.utilization": measure.utilization(spans),
        "parallel.tasks": _calls(table, "parallel.task") / n_ops,
        "testdata.calibrate_share": share(_busy(table, "testdata.calibrate")),
        "core.nine_c.compress_share": share(_busy(table, "core.nine_c.compress")),
        "experiments.run_row_share": share(_busy(table, "experiments.run_row")),
        "core.compressor.compress_blocks_share": share(
            _busy(table, "core.compressor.compress_blocks")
        ),
        # Filled in by the workloads that have these layers.
        **dict.fromkeys(TABLE1_LAYERS, 0.0),
        "parallel.cpu_per_task_busy": 0.0,
        "serve.evaluate_batch_share": 0.0,
        "serve.net.body_wait_share": 0.0,
        "serve.batch.mean_occupancy": 0.0,
        "serve.batch.flushes": 0,
        "serve.requests.errors": 0,
        "serve.requests.rejected": 0,
        "serve.requests.timeouts": 0,
        "trace.cli_self_share": 0.0,
    }


def _cli_per_layer(run: Run, setup, traced, untraced):
    """Per-layer metrics of the traced CLI ops, and their row busy time."""
    spans, walls = [], []
    for result, trace_dir in traced:
        op_spans = harness.load_spans(trace_dir)
        # Interpreter teardown after the command returned, seen from here.
        main_end = max(
            (s["end"] for s in op_spans if s["name"] == "cli.main"), default=None
        )
        if main_end is not None:
            op_spans.append({
                "name": "python.exit", "start": main_end,
                "end": result.ended_ns, "pid": f"{trace_dir.name}/exit",
                "tid": 0, "id": 0,
                "parent": None, "attrs": {},
            })
        spans.extend(op_spans)
        walls.append(result.wall_s)
    table = measure.layer_table(spans)
    n_ops = len(traced)
    traced_wall = _median(walls)
    metrics = _layer_metrics(table, spans, n_ops, traced_wall)
    glue = table.get("cli.main", {}).get("self_s", 0.0)
    exit_tail = _busy(table, "python.exit")
    untraced_wall = _median([r.wall_s for r in untraced])
    task_busy = _busy(table, "parallel.task")
    metrics.update({
        "cli.import_s": setup["import_s"],
        "core.kernels.load_s": setup["load_s"],
        "core.kernels.build_s": run.provenance["build_s"],
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.named_share": 1.0 - (glue + exit_tail) / sum(walls),
        "trace.cli_self_share": glue / sum(walls),
        "parallel.cpu_per_task_busy": (
            sum(result.cpu_s for result, _ in traced) / task_busy
            if task_busy else 0.0
        ),
    })
    _layer_report(run, table, n_ops, traced_wall)
    return metrics


def _traced_table1(run: Run, jobs: int):
    """One traced ``repro table1`` op, checked; its result and span table."""
    command = ["table1", "--circuits", *CIRCUITS, "--seed", str(run.seed)]
    kind = "table1"
    if jobs > 1:
        command += ["--jobs", str(jobs)]
        kind = f"table1-jobs{jobs}"
    trace_dir = run.trace_dir()
    result = harness.traced_op(
        command, run.env, run.dir, run.log, run.label(kind),
        run.timeout(kind), trace_dir,
    )
    spans = harness.load_spans(trace_dir)
    table = measure.layer_table(spans)
    failure = result.failure() or _check_table1(result.stdout, table)
    run.ledger.record(failure)
    if failure:
        run.log.write(f"[{kind}] failed: {failure}")
    return result, spans, table, failure


def _table1_layers(run: Run) -> dict:
    """Layers only ``repro table1`` exercises, from two traced ops.

    A serial op gives the engine, calibration and 9C split; a ``--jobs
    2`` op of the same table is set against it.  Ratios to the serial
    op separate fan-out cost from slower rows: if the rows themselves
    take longer inside the workers, the time goes to contention, not
    to the pool.
    """
    serial, spans, table, failure = _traced_table1(run, jobs=1)
    layers = _layer_metrics(table, spans, 1, serial.wall_s)
    task_busy = _busy(table, "parallel.task")
    layers["parallel.cpu_per_task_busy"] = (
        serial.cpu_s / task_busy if task_busy else 0.0
    )
    metrics = {"table1.wall_s": serial.wall_s}
    for name in TABLE1_LAYERS:
        if name.removeprefix("table1.") in layers:
            metrics[name] = layers[name.removeprefix("table1.")]
    _layer_report(run, table, 1, serial.wall_s, unit="serial table1 op")
    serial_busy = _busy(table, "experiments.run_row")

    fanned, spans, table, jobs_failure = _traced_table1(run, jobs=2)
    busy = _busy(table, "experiments.run_row")
    run.report.append(
        f"table1 traced ops: serial wall {serial.wall_s:.2f}s, cpu "
        f"{serial.cpu_s:.2f}s, row busy {serial_busy:.2f}s; --jobs 2 wall "
        f"{fanned.wall_s:.2f}s, cpu {fanned.cpu_s:.2f}s, row busy "
        f"{busy:.2f}s" + "".join(
            f"; FAILED: {reason}" for reason in (failure, jobs_failure) if reason
        )
    )
    metrics.update({
        "table1.jobs2.slowdown": fanned.wall_s / serial.wall_s,
        "table1.jobs2.cpu_ratio": fanned.cpu_s / serial.cpu_s,
        "table1.jobs2.row_busy_ratio": busy / serial_busy if serial_busy else 0.0,
        "table1.jobs2.utilization": busy / (2 * fanned.wall_s),
        "table1.jobs2.retries": _attr(table, "experiments.build_table1", "retries"),
        "table1.jobs2.failures": _attr(table, "experiments.build_table1", "failures"),
    })
    return metrics


def _serve_per_layer(run: Run, traced: dict):
    spans = traced["spans"]
    table = measure.layer_table(spans)
    n = len(traced["latencies"])
    latency_total = sum(traced["latencies"])
    metrics = _layer_metrics(table, spans, n, latency_total / n if n else 0.0)
    stats = traced["stats"]
    requests = stats.get("requests", {})
    batch = stats.get("batch", {})
    untraced = _median(traced["untraced_latencies"])
    metrics.update({
        "cli.import_s": traced["setup"]["import_s"],
        "core.kernels.load_s": traced["setup"]["load_s"],
        "core.kernels.build_s": run.provenance["build_s"],
        "serve.evaluate_batch_share": (
            _busy(table, "core.fitness.evaluate_batch") / latency_total
            if latency_total else 0.0
        ),
        "serve.batch.mean_occupancy": batch.get("mean_occupancy", 0.0),
        "serve.batch.flushes": batch.get("flushes", 0),
        "serve.requests.errors": requests.get("errors", 0),
        "serve.requests.rejected": requests.get("rejected", 0),
        "serve.requests.timeouts": requests.get("timeouts", 0),
        "trace.overhead_frac": _median(traced["latencies"]) / untraced - 1.0,
        "serve.net.body_wait_share": (
            sum(traced["body_waits"]) / latency_total if latency_total else 0.0
        ),
        "trace.named_share": (
            (_busy(table, "serve.http") + sum(traced["body_waits"]))
            / latency_total if latency_total else 0.0
        ),
    })
    _layer_report(run, table, n, latency_total / n if n else 0.0, unit="request")
    return metrics


def _layer_report(run: Run, table: dict, n_ops: int, wall: float, unit="op"):
    run.report.append(
        f"per-layer split, per traced {unit} (n={n_ops}, median wall "
        f"{wall:.4f}s); busy = outermost spans, self = minus child spans"
    )
    run.report.append(f"  {'layer':40s} {'calls':>9s} {'busy_s':>9s} {'self_s':>9s}")
    for name, row in sorted(table.items(), key=lambda item: -item[1]["busy_s"]):
        run.report.append(
            f"  {name:40s} {row['calls'] / n_ops:9.1f} "
            f"{row['busy_s'] / n_ops:9.4f} {row['self_s'] / n_ops:9.4f}"
        )


# -- entry point ---------------------------------------------------------


def execute(run: Run) -> dict:
    """The run's metrics: end-to-end, or per-layer with ``--trace 1``."""
    if run.workload == "serve":
        metrics, traced = workload_serve(run)
        if not run.trace:
            return metrics
        layers = _serve_per_layer(run, traced)
    else:
        metrics, setup, traced, untraced = workload_compress(run)
        if not run.trace:
            return metrics
        layers = _cli_per_layer(run, setup, traced, untraced)
        layers.update(_table1_layers(run))
    run.report.append("end-to-end (this traced run): " + ", ".join(
        f"{name}={metrics[name]:.4g}" for name, _ in END_TO_END
    ))
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("compress", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    harness.check_checkout()
    sys.path.insert(0, str(harness.ROOT / "src"))

    run = Run(arguments.workload, arguments.seed, arguments.seconds,
              bool(arguments.trace))
    values = execute(run)
    run.finish()
    names = [m[:2] for m in PER_LAYER] if run.trace else END_TO_END
    for key in ("cpu_count", "loadavg_before", "loadavg_after", "commit",
                "source_sha256",
                "python", "numpy", "cc", "auto_pick", "auto_shape",
                "auto_reason"):
        print(f"{key}: {run.provenance.get(key)}")
    for line in run.report:
        print(line)
    print(f"attempted {run.ledger.attempted}, failed {run.ledger.failed} "
          f"(failed_frac {run.ledger.failed_frac:.4f})")
    for reason in run.ledger.reasons:
        print(f"  failure: {reason}")
    for name, unit in names:
        print(f"{name:40s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

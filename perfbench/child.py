"""Helper processes the benchmark launches (never imported by run.py).

Modes (``python -X faulthandler perfbench/child.py MODE ...``):

``trace DIR T0 -- ARGS``
    Run ``repro ARGS`` under the span recorder; ``T0`` is the parent's
    monotonic-ns launch time, so interpreter start is a span too.
``setup PATTERNS``
    Do an op's set-up only — imports, native-library load, pattern
    parsing and block tables — print the phase times as JSON and exit.
``warm C D L K``
    Load (building on first use) the native kernel and print the
    run's provenance: versions, native status and the ``auto`` pick.
``offline TABLE BODIES OUT``
    Render every serve request body through ``repro request`` in one
    process and write the canonical responses, one per line.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from pathlib import Path


def _trace(argv: list[str]) -> int:
    directory, launched = Path(argv[0]), int(argv[1])
    command = argv[3:]
    started = time.monotonic_ns()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import SpanRecorder, install

    recorder = SpanRecorder(directory)
    recorder.add("python.start", launched, started)
    with recorder.span("cli.import"):
        import repro.cli
    with recorder.span("bench.install"):
        install(recorder, command[0])
    code = 1
    try:
        with recorder.span("cli.main"):
            code = repro.cli.main(command)
        sys.stdout.flush()
    finally:
        recorder.flush()
    return code


def _setup(argv: list[str]) -> int:
    phases = {}
    clock = time.monotonic()
    import repro.cli  # noqa: F401
    phases["import_s"] = time.monotonic() - clock

    clock = time.monotonic()
    from repro.core.kernels.native import native_status

    native_status()
    phases["load_s"] = time.monotonic() - clock

    clock = time.monotonic()
    from repro.testdata.test_set import TestSet

    lines = [
        line.strip()
        for line in Path(argv[0]).read_text().splitlines()
        if line.strip()
    ]
    test_set = TestSet.from_strings("setup", lines)
    test_set.blocks(12)
    test_set.blocks(8)
    phases["parse_s"] = time.monotonic() - clock
    sys.stdout.write(json.dumps(phases) + "\n")
    sys.stdout.flush()
    os._exit(0)


def _warm(argv: list[str]) -> int:
    import platform

    import numpy

    clock = time.monotonic()
    from repro.core.kernels.native import native_status

    available, reason = native_status()
    build_s = time.monotonic() - clock
    from repro.core.kernels import select_kernel_name
    from repro.core.kernels.build import NativeBuildError, find_compiler

    try:
        compiler = find_compiler()[1]
    except NativeBuildError as error:
        compiler = f"none ({error})"
    shape = [int(value) for value in argv]
    pick = select_kernel_name(*shape)
    print(json.dumps({
        "build_s": build_s,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": compiler,
        "native_available": available,
        "auto_pick": pick,
        "auto_shape": "C={},D={},L={},K={}".format(*shape),
        "auto_reason": (
            "native kernel built and loadable" if available
            else f"native unavailable: {reason}"
        ),
    }))
    return 0


def _offline(argv: list[str]) -> int:
    import repro.cli

    table = json.loads(Path(argv[0]).read_text())
    bodies = Path(argv[1]).read_text().splitlines()
    body_path = Path(argv[2]).with_suffix(".body.json")
    rendered = []
    real_stdout = sys.stdout
    for line in bodies:
        body = json.loads(line)
        body["table"] = table
        body_path.write_text(json.dumps(body))
        captured = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        sys.stdout = captured
        try:
            code = repro.cli.main(["request", str(body_path)])
            captured.flush()
        finally:
            sys.stdout = real_stdout
        if code != 0:
            return code
        rendered.append(captured.buffer.getvalue())
    body_path.unlink()
    Path(argv[2]).write_bytes(b"".join(rendered))
    return 0


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    return {"trace": _trace, "setup": _setup, "warm": _warm,
            "offline": _offline}[mode](argv)


if __name__ == "__main__":
    sys.exit(main())

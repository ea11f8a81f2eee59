"""Fork safety: native pricing in the parent, then a process pool.

``ProcessBackend`` forks its workers on Linux, and a forked child
inherits the parent's memory but none of its threads.  A covering
kernel that left a thread pool behind in the parent (as an OpenMP
build of the native kernel did) deadlocks the first child that enters
a parallel region.  The parent only builds that pool once it has
priced natively *and* sees more than one core, so the hang stayed
invisible on single-core machines.

This test prices with ``kernel="native"`` in-process first, then
builds the same seeded table through ``ProcessBackend(2)``: it must
terminate (the conftest watchdog turns a hang into a stack dump and a
failure) and render byte-identically to the serial table.
"""

import pytest

from repro.core.kernels import kernel_unavailable_reason
from repro.experiments.tables import build_table1, format_table
from repro.parallel import ProcessBackend

from ..experiments.test_runner import MICRO

pytestmark = pytest.mark.skipif(
    kernel_unavailable_reason("native") is not None,
    reason="native kernel unavailable (no C compiler)",
)


def test_native_in_parent_then_process_pool_matches_serial():
    arguments = dict(circuits=("s298",), budget=MICRO, seed=11, kernel="native")
    serial = format_table(build_table1(**arguments))
    pooled = format_table(build_table1(**arguments, backend=ProcessBackend(2)))
    assert pooled == serial

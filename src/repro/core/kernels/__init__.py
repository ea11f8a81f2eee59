"""Pluggable covering kernels and their selection registry.

Four interchangeable backends price the covering inner loop (see
:mod:`repro.core.kernels.base` for the shared contract):

* ``gemm``    — float32 bit matrices, one BLAS matrix product per
  genome chunk; strongest where BLAS compute density pays — wide
  blocks (multi-word lanes) over modest distinct-block tables;
* ``bitpack`` — fused integer conflict lanes with D-axis sharding;
  the fastest *array* kernel whenever the 2K-bit lane fits two uint64
  words and the block table is large enough to make the GEMM operands
  memory-bandwidth bound;
* ``native``  — the same fused-lane match test as a cc-compiled C
  loop (:mod:`repro.core.kernels.native`): no numpy temporaries,
  branch-free single-word matching, first-match early exit;
  single-threaded.  Compiled on first use and cached under
  ``$REPRO_CACHE_DIR/native/``; on machines without a C toolchain the
  registry reports it *unavailable* and every selection path below
  skips it;
* ``scalar``  — the original per-genome Python loop; the semantic
  reference and the cheapest option for tiny one-off coverings.

``auto`` picks per workload shape via :func:`select_kernel_name`,
keyed on ``(C, D, L, K)`` — consulting availability first, so a
missing compiler silently narrows the choice to the array kernels.
An *explicitly requested* kernel that is unavailable fails loudly in
:func:`resolve_kernel` instead: the caller asked for something this
machine cannot do, and silently substituting a different backend
would misattribute every downstream timing.  All kernels return
bit-identical results, so selection only ever moves the wall clock.
"""

from __future__ import annotations

from collections.abc import Callable

from .base import (
    CoveringKernel,
    PreparedBlocks,
    accumulate_complete_rows,
    covering_order,
    first_match_rank,
    rank_word_bits,
)
from .bitpack import BitpackKernel
from .build import NativeBuildError
from .gemm import GemmKernel, cover_bits_batch, unpack_mask_bits
from .native import NativeKernel, native_status
from .scalar import ScalarKernel, cover_masks

__all__ = [
    "AUTO_KERNEL",
    "KERNEL_CHOICES",
    "BitpackKernel",
    "CoveringKernel",
    "GemmKernel",
    "NativeBuildError",
    "NativeKernel",
    "PreparedBlocks",
    "ScalarKernel",
    "accumulate_complete_rows",
    "available_kernels",
    "cover_bits_batch",
    "cover_masks",
    "covering_order",
    "first_match_rank",
    "get_kernel",
    "kernel_availability",
    "kernel_unavailable_reason",
    "rank_word_bits",
    "register_kernel",
    "resolve_kernel",
    "select_kernel_name",
    "unpack_mask_bits",
    "usable_kernels",
]

AUTO_KERNEL = "auto"

_REGISTRY: dict[str, Callable[[], CoveringKernel]] = {
    GemmKernel.name: GemmKernel,
    BitpackKernel.name: BitpackKernel,
    ScalarKernel.name: ScalarKernel,
    NativeKernel.name: NativeKernel,
}

# Per-kernel availability probes: absent = always available.  A probe
# returns None (usable) or a human-readable unavailability reason.
# The native probe triggers the compile-on-first-use machinery, so
# availability is never asked at import time — only when a selection
# or listing actually needs the answer.
_AVAILABILITY: dict[str, Callable[[], str | None]] = {
    NativeKernel.name: lambda: native_status()[1],
}

# The names the CLI/config layer accepts, `auto` first.  Unavailable
# kernels stay listed — naming one is valid configuration; it fails
# with the reason at resolution time, not at parse time.
KERNEL_CHOICES = (AUTO_KERNEL, *sorted(_REGISTRY))

# Auto-selection thresholds for machines without the native kernel,
# calibrated on the workloads of ``benchmarks/bench_batch.py``.
# Bitpack's fused conflict lane holds 2K bits; while it fits in at
# most two uint64 words (K <= 64) the integer kernel measured
# 1.3–1.4× faster once the distinct table outgrows BLAS's
# cache-resident sweet spot (medium D≈860, large D≈3330), while tiny
# tables (small D≈150) stay GEMM territory.  Past two lane words the
# per-element AND loop grows with K while BLAS keeps its compute
# density — gemm wins there until the table is large enough that its
# 4-bytes-per-bit operands go bandwidth-bound.  The narrow crossover
# moves with L (GEMM amortizes its operand streaming over more MV
# rows); 256 is the value at the EA's real shape (L=64).  The wide
# crossover stayed beyond D=4096 on a single-core container, so 2048
# is a conservative bench-derived value.
BITPACK_MAX_LANE_WORDS = 2
BITPACK_MIN_DISTINCT = 256
BITPACK_WIDE_MIN_DISTINCT = 2048
# Below this many match tests (distinct blocks × MVs) a single
# uncached covering is cheaper as the plain Python loop than as
# batched tensor setup.
SCALAR_MAX_WORK = 512


def register_kernel(
    name: str,
    factory: Callable[[], CoveringKernel],
    availability: Callable[[], str | None] | None = None,
) -> None:
    """Register a covering-kernel factory under ``name``.

    Extension hook for out-of-tree kernels; ``auto`` never selects a
    registered-late kernel, but explicit configuration can.
    ``availability``, when given, is called lazily and returns ``None``
    (usable) or a human-readable unavailability reason — see
    :func:`kernel_unavailable_reason`.
    """
    if not name or name == AUTO_KERNEL:
        raise ValueError(f"invalid kernel name {name!r}")
    _REGISTRY[name] = factory
    if availability is not None:
        _AVAILABILITY[name] = availability
    else:
        _AVAILABILITY.pop(name, None)


def available_kernels() -> tuple[str, ...]:
    """Names of every registered kernel (without ``auto``).

    Registration, not usability: an unavailable kernel (e.g.
    ``native`` without a C compiler) is still listed here because its
    name is still valid configuration.  Use :func:`usable_kernels` or
    :func:`kernel_availability` for what can actually run.
    """
    return tuple(sorted(_REGISTRY))


def usable_kernels() -> tuple[str, ...]:
    """Names of every registered kernel that can run on this machine."""
    return tuple(
        name
        for name in sorted(_REGISTRY)
        if kernel_unavailable_reason(name) is None
    )


def kernel_unavailable_reason(name: str) -> str | None:
    """Why ``name`` cannot run here, or ``None`` when it can.

    Unknown names raise ``ValueError`` (matching :func:`get_kernel`);
    kernels without an availability probe are always usable.  For
    ``native`` this triggers the compile-on-first-use machinery, so
    the first call may take a moment (and warms the build cache).
    """
    if name not in _REGISTRY:
        known = ", ".join((AUTO_KERNEL, *available_kernels()))
        raise ValueError(
            f"unknown covering kernel {name!r}; choose one of: {known}"
        )
    probe = _AVAILABILITY.get(name)
    return None if probe is None else probe()


def kernel_availability() -> dict[str, str | None]:
    """Every registered kernel → its unavailability reason (or ``None``)."""
    return {name: kernel_unavailable_reason(name) for name in sorted(_REGISTRY)}


def get_kernel(name: str, **options) -> CoveringKernel:
    """Instantiate the kernel registered under ``name``.

    >>> get_kernel("bitpack").name
    'bitpack'
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join((AUTO_KERNEL, *available_kernels()))
        raise ValueError(
            f"unknown covering kernel {name!r}; choose one of: {known}"
        ) from None
    return factory(**options)


def select_kernel_name(
    n_genomes: int,
    n_distinct: int,
    n_vectors: int,
    block_length: int,
) -> str:
    """The ``auto`` rule, keyed on the workload shape (C, D, L, K).

    * The single-genome, tiny-covering corner (``D·L`` match tests
      under ``SCALAR_MAX_WORK``; interactive ``cover`` calls) goes to
      ``scalar``: batched tensor setup costs more than the loop.
    * Every other shape goes to the compiled ``native`` kernel when it
      is available — the C loop beat both array kernels at every
      batched shape measured.  Unavailable (no compiler) means this
      rule silently vanishes and the array rules below decide alone.
    * Narrow fused lanes (2K bits in at most two uint64 words) over a
      distinct table past ``BITPACK_MIN_DISTINCT`` go to ``bitpack``
      — measured 1.3–1.4× over GEMM there, growing with the table as
      GEMM goes memory-bandwidth bound.
    * Wider lanes (K > 64) go to ``gemm`` while the table is modest —
      BLAS keeps its compute density where the word loop cannot — and
      back to ``bitpack`` once the table is large enough that GEMM's
      4-bytes-per-bit operands dominate.
    * Everything else (tiny tables) stays with ``gemm``.
    """
    if n_genomes <= 1 and n_distinct * n_vectors <= SCALAR_MAX_WORK:
        return ScalarKernel.name
    if n_distinct >= 1 and kernel_unavailable_reason(NativeKernel.name) is None:
        return NativeKernel.name
    narrow = -(-2 * block_length // 64) <= BITPACK_MAX_LANE_WORDS
    if narrow and n_distinct >= BITPACK_MIN_DISTINCT:
        return BitpackKernel.name
    if n_distinct >= BITPACK_WIDE_MIN_DISTINCT:
        return BitpackKernel.name
    return GemmKernel.name


def resolve_kernel(
    choice: str | CoveringKernel,
    n_genomes: int,
    n_distinct: int,
    n_vectors: int,
    block_length: int,
) -> CoveringKernel:
    """Turn a kernel choice (name, ``auto`` or instance) into a kernel.

    Availability is threaded through both paths asymmetrically:
    ``auto`` only ever selects usable kernels (an unavailable
    ``native`` silently disappears from the choice), while an
    explicitly named kernel that is unavailable raises with the
    reason — substituting a different backend behind an explicit
    request would misattribute every downstream timing.
    """
    if isinstance(choice, CoveringKernel):
        return choice
    if choice == AUTO_KERNEL:
        choice = select_kernel_name(n_genomes, n_distinct, n_vectors, block_length)
    elif choice in _REGISTRY:
        reason = kernel_unavailable_reason(choice)
        if reason is not None:
            raise ValueError(
                f"covering kernel {choice!r} is unavailable on this "
                f"machine: {reason}"
            )
    return get_kernel(choice)

"""Native compiled covering kernel: cc-built AND+popcount match loop.

The match test is the same fused-lane identity the bitpack kernel
uses — concatenate each block's ones/zeros bits into one 2K-bit lane
``[b₁|b₀]`` and each MV's zeros/ones bits into ``[mvᴢ|mv₁]``, and the
lanes AND to zero exactly when the MV matches the block — but the
loop lives in a small C library compiled on first use
(:mod:`repro.core.kernels.build`) instead of numpy ufunc chains.  That
buys three things the array path cannot have:

* **no temporaries** — the ``(span, shard, L)`` conflict tensors and
  padded match booleans the bitpack kernel streams through memory
  simply do not exist; each ``(genome, block)`` pair is priced in
  registers;
* **first-match early exit** — the C loop stops at the first matching
  MV, pricing an average of ~L/2 candidates per block where the array
  kernels must materialize all L;
* **one fused pass** — conflict AND, ``__builtin_popcountll`` zero
  test, first-match rank and covered-weight accumulation happen in a
  single traversal per genome.

Lanes are always little-endian ``uint64`` words (the C ABI's one mask
type; see ``docs/native-kernel.md`` for the full contract).  The loop
is single-threaded: parallelism lives one level up, in the process
backends, which fork workers that must not inherit a thread pool.

Covering results are assembled from the C core's ``(first_rank,
covered)`` through the same
:func:`~repro.core.kernels.base.accumulate_complete_rows` helper the
bitpack kernel uses, so the backends cannot drift apart.
The fitness hot path, :meth:`NativeKernel.price_grid`, goes further:
one ``repro_price`` call takes the raw trit genomes and returns each
genome's compressed bit total, with MV ordering, lane packing,
covering, the Huffman merge and the fill bits all in C.  The
cross-kernel property suite pins bit-identity on both paths.
When the toolchain is missing the registry reports this kernel
unavailable and ``auto`` falls back to the bitpack kernel — a missing
compiler can cost speed, never a run.
"""

from __future__ import annotations

import ctypes
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .base import (
    CoveringKernel,
    PreparedBlocks,
    accumulate_complete_rows,
    fused_block_lanes,
    fused_mv_lanes,
)
from .build import NativeBuildError, load_native_library

__all__ = [
    "NATIVE_C_SOURCE",
    "NativeKernel",
    "native_status",
    "native_warning_emitted",
]

# Genome chunks bound the (chunk, D) rank matrix handed back by the C
# core (same budget as the bitpack kernel's chunking).
_CHUNK_TENSOR_ELEMENTS = 1 << 20

# The C ABI: one source, two entry points, one version probe.  Masks
# are little-endian uint64 word lanes exactly as numpy packs them
# (repro.core.blocks.pack_bits_to_words); all scalars are int64 so the
# ctypes signatures cannot truncate a large table.  `repro_cover`
# writes the covering rank of each (genome, block) first match, or
# n_vectors when nothing matches, and the exact integer covered weight
# per genome.  `repro_price` starts from the raw trit genomes and
# writes each genome's compressed bit total, or -1 when a block stays
# uncovered.  The popcount of the ANDed lane words is the match test:
# zero popcount ⇔ no conflicting care bit ⇔ match.
NATIVE_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_NATIVE_ABI 2

int64_t repro_native_abi_version(void) { return REPRO_NATIVE_ABI; }

/* Single-lane-word first match (2K <= 64, the paper's K = 12 regime):
 * a branch-free inner loop builds a 64-bit "which MVs match" mask per
 * chunk of 64 candidates — trivially auto-vectorized, no data-
 * dependent branches to mispredict — and the first match is one
 * count-trailing-zeros.  Measured ~5x over the early-exit scalar loop
 * on random (unpredictable-match) workloads. */
static int64_t repro_first_match_w1(uint64_t block,
                                    const uint64_t *mv,
                                    int64_t n_vectors)
{
    for (int64_t base = 0; base < n_vectors; base += 64) {
        int64_t n = n_vectors - base < 64 ? n_vectors - base : 64;
        uint64_t mask = 0;
        for (int64_t i = 0; i < n; ++i)
            mask |= (uint64_t)((block & mv[base + i]) == 0) << i;
        if (mask) return base + __builtin_ctzll(mask);
    }
    return n_vectors;
}

/* Multi-word lanes: fused AND + popcount accumulation across the lane
 * words — zero total popcount over every word means no conflicting
 * care bit anywhere, i.e. a match — with an early exit at the first
 * matching MV. */
static int64_t repro_first_match_wn(const uint64_t *block,
                                    const uint64_t *mv_rows,
                                    int64_t n_vectors,
                                    int64_t lane_words)
{
    for (int64_t l = 0; l < n_vectors; ++l) {
        const uint64_t *mv = mv_rows + l * lane_words;
        int conflict = 0;
        for (int64_t w = 0; w < lane_words; ++w)
            conflict += __builtin_popcountll(block[w] & mv[w]);
        if (conflict == 0) return l;
    }
    return n_vectors;
}

void repro_cover(const uint64_t *block_lanes,  /* D x W fused [b1|b0] */
                 const int64_t  *counts,       /* D block multiplicities */
                 const uint64_t *mv_lanes,     /* C x L x W fused [mvZ|mv1] */
                 int64_t n_genomes,
                 int64_t n_vectors,
                 int64_t n_distinct,
                 int64_t lane_words,
                 int64_t *first_rank,          /* C x D out; n_vectors = no match */
                 int64_t *covered)             /* C out; exact covered weight */
{
    for (int64_t c = 0; c < n_genomes; ++c) {
        const uint64_t *genome = mv_lanes + c * n_vectors * lane_words;
        int64_t *rank_row = first_rank + c * n_distinct;
        int64_t weight = 0;
        if (lane_words == 1) {
            for (int64_t d = 0; d < n_distinct; ++d) {
                int64_t rank = repro_first_match_w1(
                    block_lanes[d], genome, n_vectors);
                rank_row[d] = rank;
                if (rank < n_vectors) weight += counts[d];
            }
        } else {
            for (int64_t d = 0; d < n_distinct; ++d) {
                int64_t rank = repro_first_match_wn(
                    block_lanes + d * lane_words, genome,
                    n_vectors, lane_words);
                rank_row[d] = rank;
                if (rank < n_vectors) weight += counts[d];
            }
        }
        covered[c] = weight;
    }
}

/* Two-queue Huffman merge over ascending positive frequencies: merged
 * weights emerge in non-decreasing order, so the two smallest pending
 * nodes are always at the queue heads.  The total weighted code
 * length is the sum of every merged weight; a single active symbol
 * costs its frequency (a one-bit codeword). */
static int64_t repro_huffman_total(const int64_t *leaves,
                                   int64_t n_active,
                                   int64_t *merged)
{
    if (n_active == 0) return 0;
    if (n_active == 1) return leaves[0];
    int64_t leaf = 0, head = 0, tail = 0, total = 0;
    for (int64_t step = 0; step < n_active - 1; ++step) {
        int64_t pair = 0;
        for (int half = 0; half < 2; ++half) {
            if (head >= tail || (leaf < n_active && leaves[leaf] <= merged[head]))
                pair += leaves[leaf++];
            else
                pair += merged[head++];
        }
        merged[tail++] = pair;
        total += pair;
    }
    return total;
}

/* Whole-genome pricing: for every genome of the C x L x K trit matrix
 * (0, 1, 2 = U), order its MVs by unspecified count (stable counting
 * sort), build the fused [mvZ|mv1] lanes in pack_bits_to_words bit
 * order, cover every block with its first matching MV, and write the
 * compressed bit total (Huffman codeword bits + fill bits), or -1
 * when some block stays uncovered.  Returns 0, or -1 when the
 * L- and W-sized scratch cannot be allocated. */
int64_t repro_price(const int8_t   *genomes,      /* C x L x K trits */
                    const uint64_t *block_lanes,  /* D x W fused [b1|b0] */
                    const int64_t  *counts,       /* D block multiplicities */
                    int64_t n_genomes,
                    int64_t n_vectors,
                    int64_t block_length,
                    int64_t n_distinct,
                    int64_t lane_words,
                    int64_t *totals)              /* C out; -1 = uncovered */
{
    const int64_t n_scratch = n_vectors * lane_words + 5 * n_vectors
                              + block_length + 2;
    /* Cache-line aligned, so the vectorized match loop takes the same
     * path whatever address malloc hands back. */
    void *scratch = malloc((size_t)n_scratch * sizeof(uint64_t) + 64);
    if (scratch == NULL) return -1;
    uint64_t *lanes = (uint64_t *)(((uintptr_t)scratch + 63)
                                   & ~(uintptr_t)63);
    int64_t *n_unspecified = (int64_t *)(lanes + n_vectors * lane_words);
    int64_t *order = n_unspecified + n_vectors;
    int64_t *frequencies = order + n_vectors;
    int64_t *leaves = frequencies + n_vectors;
    int64_t *merged = leaves + n_vectors;
    int64_t *bucket = merged + n_vectors;       /* block_length + 2 */

    for (int64_t c = 0; c < n_genomes; ++c) {
        const int8_t *genome = genomes + c * n_vectors * block_length;
        memset(bucket, 0, (size_t)(block_length + 2) * sizeof(int64_t));
        for (int64_t l = 0; l < n_vectors; ++l) {
            const int8_t *mv = genome + l * block_length;
            int64_t unspecified = 0;
            for (int64_t k = 0; k < block_length; ++k)
                unspecified += mv[k] == 2;
            n_unspecified[l] = unspecified;
            ++bucket[unspecified + 1];
        }
        for (int64_t v = 1; v <= block_length + 1; ++v)
            bucket[v] += bucket[v - 1];
        for (int64_t l = 0; l < n_vectors; ++l)
            order[bucket[n_unspecified[l]]++] = l;

        /* Lane bit of trit position k: zeros half first, MSB first. */
        memset(lanes, 0, (size_t)(n_vectors * lane_words) * sizeof(uint64_t));
        for (int64_t r = 0; r < n_vectors; ++r) {
            const int8_t *mv = genome + order[r] * block_length;
            uint64_t *lane = lanes + r * lane_words;
            for (int64_t k = 0; k < block_length; ++k) {
                int64_t bit;
                if (mv[k] == 0) bit = 2 * block_length - 1 - k;
                else if (mv[k] == 1) bit = block_length - 1 - k;
                else continue;
                lane[bit >> 6] |= (uint64_t)1 << (bit & 63);
            }
        }

        memset(frequencies, 0, (size_t)n_vectors * sizeof(int64_t));
        int complete = 1;
        for (int64_t d = 0; d < n_distinct; ++d) {
            int64_t rank = lane_words == 1
                ? repro_first_match_w1(block_lanes[d], lanes, n_vectors)
                : repro_first_match_wn(block_lanes + d * lane_words, lanes,
                                       n_vectors, lane_words);
            if (rank == n_vectors) {
                if (counts[d] != 0) { complete = 0; break; }
                continue;
            }
            frequencies[rank] += counts[d];
        }
        if (!complete) { totals[c] = -1; continue; }

        int64_t n_active = 0, fill_bits = 0;
        for (int64_t r = 0; r < n_vectors; ++r) {
            int64_t freq = frequencies[r];
            if (freq <= 0) continue;
            fill_bits += freq * n_unspecified[order[r]];
            int64_t i = n_active++;
            while (i > 0 && leaves[i - 1] > freq) {
                leaves[i] = leaves[i - 1];
                --i;
            }
            leaves[i] = freq;
        }
        totals[c] = repro_huffman_total(leaves, n_active, merged) + fill_bits;
    }
    free(scratch);
    return 0;
}
"""

_SYMBOLS = ("repro_native_abi_version", "repro_cover", "repro_price")
_ABI_VERSION = 2

# Process-wide load state: (library or None, unavailability reason).
# One attempt per process — a compile failure is not going to heal
# between fitness calls — and ONE stderr warning when it fails, so a
# toolchain-less machine sees exactly one line, not one per command.
# The warning is additionally debounced across the whole process
# *tree* through an environment marker: a long-lived daemon (or a
# process-pool backend) respawns workers that inherit the parent's
# environment, and each respawn re-warning would turn one missing
# toolchain into a stderr flood.  The marker is set by whichever
# process warns first; children see it and stay quiet.  The
# unavailability reason itself stays queryable via
# :func:`native_status` (the serve daemon surfaces it in ``/stats``).
_LOADED: tuple[ctypes.CDLL | None, str | None] | None = None
_WARNED = False
_WARNED_MARKER_ENV = "REPRO_NATIVE_WARNED"


def _load_library() -> tuple[ctypes.CDLL | None, str | None]:
    global _LOADED, _WARNED
    if _LOADED is None:
        try:
            library = load_native_library(NATIVE_C_SOURCE, _SYMBOLS)
            library.repro_native_abi_version.restype = ctypes.c_int64
            abi = int(library.repro_native_abi_version())
            if abi != _ABI_VERSION:
                raise NativeBuildError(
                    f"ABI version {abi}, this build expects {_ABI_VERSION}"
                )
            library.repro_cover.restype = None
            library.repro_price.restype = ctypes.c_int64
            library.repro_price.argtypes = (
                [ctypes.c_void_p] * 3
                + [ctypes.c_int64] * 5
                + [ctypes.c_void_p]
            )
            _LOADED = (library, None)
        except NativeBuildError as error:
            _LOADED = (None, str(error))
            if not _WARNED and _WARNED_MARKER_ENV not in os.environ:
                _WARNED = True
                os.environ[_WARNED_MARKER_ENV] = "1"
                print(
                    f"warning: native kernel unavailable ({error}); "
                    "auto kernel selection falls back to the bitpack kernel",
                    file=sys.stderr,
                )
    return _LOADED


def native_status() -> tuple[bool, str | None]:
    """(available, unavailability reason) — compiles on first call.

    The registry's availability hook: ``auto`` selection and ``repro
    kernels`` both ask this instead of trying (and failing) to
    construct the kernel.
    """
    library, reason = _load_library()
    return library is not None, reason


def native_warning_emitted() -> bool:
    """Whether the unavailable warning fired in this process tree.

    True when this process warned or inherited the environment marker
    from an ancestor that did — the flag the serve daemon's ``/stats``
    reports so operators can see a swallowed warning.
    """
    return _WARNED or _WARNED_MARKER_ENV in os.environ


def _reset_native_state() -> None:
    """Forget the process-wide load attempt (tests only)."""
    global _LOADED, _WARNED
    _LOADED = None
    _WARNED = False
    os.environ.pop(_WARNED_MARKER_ENV, None)


def _as_uint64_pointer(array: np.ndarray):
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64))


def _as_int64_pointer(array: np.ndarray):
    return array.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


@dataclass(frozen=True)
class _NativePrepared(PreparedBlocks):
    """Adds C-contiguous ``(D, W)`` uint64 fused lanes ``[b₁|b₀]``."""

    block_lanes: np.ndarray = None


class NativeKernel(CoveringKernel):
    """Covering kernel backed by the cc-compiled AND+popcount loop.

    Construction loads (compiling on first use) the shared library;
    it raises :class:`~repro.core.kernels.build.NativeBuildError` when
    the toolchain is missing — resolve through the registry (which
    checks :func:`native_status` first) rather than constructing
    directly when the fallback chain matters.
    """

    name = "native"

    def __init__(self) -> None:
        library, reason = _load_library()
        if library is None:
            raise NativeBuildError(reason)
        self._library = library

    # ctypes.CDLL handles do not pickle; ProcessBackend workers rebuild
    # the kernel from the shared on-disk build cache instead (a dlopen,
    # not a recompile — compile-once is the build module's lock).
    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self.__init__()

    # -- preparation --------------------------------------------------

    def prepare_masks(
        self,
        block_ones: np.ndarray,
        block_zeros: np.ndarray,
        block_counts: np.ndarray,
        block_length: int,
    ) -> PreparedBlocks:
        base = self._base_prepared(
            block_ones, block_zeros, block_counts, block_length
        )
        block_lanes = fused_block_lanes(
            block_ones, block_zeros, block_length, np.dtype(np.uint64)
        )
        fields = vars(base) | {"counts": np.ascontiguousarray(base.counts)}
        return _NativePrepared(**fields, block_lanes=block_lanes)

    # -- kernel entry points ------------------------------------------

    def cover_grid(
        self,
        prepared: PreparedBlocks,
        ordered_grid: np.ndarray,
        orders: np.ndarray,
        want_assignment: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n_genomes, n_vectors = ordered_grid.shape[:2]
        n_distinct = prepared.n_distinct
        assignment, frequencies, uncovered = self._empty_results(
            n_genomes, n_vectors, n_distinct
        )
        if n_distinct == 0 or n_genomes == 0:
            return assignment, frequencies, uncovered
        mv_lanes = np.ascontiguousarray(fused_mv_lanes(ordered_grid, np.uint64))
        orders = np.atleast_2d(np.asarray(orders, dtype=np.int64))
        block_lanes = prepared.block_lanes
        lane_words = block_lanes.shape[-1]
        total_count = prepared.total_count
        cover = self._library.repro_cover
        chunk = max(1, _CHUNK_TENSOR_ELEMENTS // max(1, n_distinct))
        first_rank = np.empty((min(chunk, n_genomes), n_distinct), dtype=np.int64)
        covered = np.empty(min(chunk, n_genomes), dtype=np.int64)
        for start in range(0, n_genomes, chunk):
            stop = min(start + chunk, n_genomes)
            span = stop - start
            cover(
                _as_uint64_pointer(block_lanes),
                _as_int64_pointer(prepared.counts),
                _as_uint64_pointer(mv_lanes[start:stop]),
                ctypes.c_int64(span),
                ctypes.c_int64(n_vectors),
                ctypes.c_int64(n_distinct),
                ctypes.c_int64(lane_words),
                _as_int64_pointer(first_rank),
                _as_int64_pointer(covered),
            )
            uncovered[start:stop] = total_count - covered[:span]
            complete = uncovered[start:stop] == 0
            if not complete.any():
                continue
            sub = np.flatnonzero(complete)
            accumulate_complete_rows(
                assignment,
                frequencies,
                start,
                sub,
                first_rank[sub],
                orders,
                prepared.counts,
                want_assignment,
            )
        return assignment, frequencies, uncovered

    def price_grid(
        self,
        prepared: PreparedBlocks,
        grid: np.ndarray,
        mark: Callable[[str], None] | None = None,
    ) -> np.ndarray:
        # One C call per batch: MV ordering, lanes, covering, Huffman
        # totals and fill bits all happen in repro_price, so the
        # "cover" stage carries the Huffman merge too.
        grid = np.ascontiguousarray(grid, dtype=np.int8)
        n_genomes, n_vectors, block_length = grid.shape
        if block_length != prepared.block_length:
            raise ValueError(
                f"trit grid has K={block_length}, the block table "
                f"K={prepared.block_length}"
            )
        totals = np.empty(n_genomes, dtype=np.int64)
        if mark:
            mark("pack")
        status = self._library.repro_price(
            grid.ctypes.data,
            prepared.block_lanes.ctypes.data,
            prepared.counts.ctypes.data,
            n_genomes,
            n_vectors,
            block_length,
            prepared.n_distinct,
            prepared.block_lanes.shape[-1],
            totals.ctypes.data,
        )
        if status != 0:
            raise MemoryError("repro_price could not allocate its scratch")
        if mark:
            mark("cover")
        return totals

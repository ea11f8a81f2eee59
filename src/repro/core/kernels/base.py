"""The covering-kernel contract shared by every backend.

A *covering kernel* answers one batched question: given the fixed
distinct-block table of a :class:`~repro.core.blocks.BlockSet` and a
generation of ``C`` genomes — each an ordered list of ``L`` matching
vectors — which MV covers each block first, how often is each MV used,
and how many blocks stay uncovered?  Everything above this layer
(fitness pricing, the EA engine, the experiment protocol) is kernel
agnostic; everything below it (the compiled C loop, bit-packed integer
lanes, the scalar reference loop) is swappable per workload shape.

All kernels share one contract, pinned by the cross-kernel parity
suite: for identical inputs they return **bit-identical**
``(assignment, frequencies, uncovered)`` triples, including the
early-exit convention — a genome whose MVs cannot cover every block
reports an exact ``uncovered`` count but an all ``-1`` assignment row
and an all-zero frequency row.  Seeded experiments are therefore
byte-identical no matter which kernel priced them.

Kernels are stateless objects configured at construction; per-block-set
state lives in the *prepared* value returned by :meth:`prepare` (the
native and bitpack kernels add the fused ``[b₁|b₀]`` block lanes that
:func:`fused_block_lanes` builds, at their own word width).  Two entry
points take the EA's ``(C, L, K)`` trit grid:

* :meth:`cover_grid` — covering proper, on a grid whose MV axis is
  already in covering order (:func:`covering_order`);
* :meth:`price_grid` — the fitness hot path: the *unordered* grid in,
  each genome's compressed bit total (Huffman codeword bits plus fill
  bits) out, ``-1`` where a block stays uncovered.  The base
  implementation composes :func:`covering_order`, :meth:`cover_grid`
  and the batched Huffman totals; the native kernel does all of it in
  one C call.
"""

from __future__ import annotations

import abc
import tempfile
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ...coding.huffman import huffman_total_bits_batch
from ..blocks import (
    BlockSet,
    mask_word_count,
    masks_as_words,
    pack_bits_to_words,
    unpack_words_to_bits,
)
from ..trits import DC, ONE, ZERO

__all__ = [
    "CoveringKernel",
    "PreparedBlocks",
    "accumulate_complete_rows",
    "covering_order",
    "first_match_rank",
    "fused_block_lanes",
    "fused_mv_lanes",
    "rank_word_bits",
]

# Block lanes are built in D-axis chunks; the (chunk, 2K) unpacked-bit
# intermediate is preparation's RAM high-water mark, so bound it.
_LANE_CHUNK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class PreparedBlocks:
    """Kernel-ready view of one distinct-block table.

    ``counts_f`` is the float64 copy used in weighted dot products
    (exact up to 2**53, far beyond any test set); subclasses add the
    kernel's private representation of the block masks.
    """

    block_length: int
    word_count: int
    n_distinct: int
    counts: np.ndarray
    counts_f: np.ndarray
    total_count: int
    ones_words: np.ndarray
    zeros_words: np.ndarray


def fused_block_lanes(
    block_ones: np.ndarray,
    block_zeros: np.ndarray,
    block_length: int,
    dtype: np.dtype,
) -> np.ndarray:
    """The ``(D, LW)`` fused block lanes ``[b₁|b₀]`` in ``dtype`` words.

    Each block's ones bits and zeros bits concatenate into one 2K-bit
    lane, packed as :func:`~repro.core.blocks.pack_bits_to_words` packs
    (little-endian words, MSB first), then stored at ``dtype``: the
    bitpack kernel passes its narrowest width, the native kernel
    ``uint64``.  The result is C-contiguous.  Out-of-core tables
    (``np.memmap`` masks — see :mod:`repro.core.blocks_io`) get memmap
    lanes over an anonymous temp file, so covering streams them from
    disk page by page and preparation never holds a D-sized array in
    RAM.
    """
    ones_words = masks_as_words(block_ones)
    zeros_words = masks_as_words(block_zeros)
    lane_bits = 2 * block_length
    shape = (ones_words.shape[0], mask_word_count(lane_bits))
    if isinstance(block_ones, np.memmap) or isinstance(block_zeros, np.memmap):
        # The mapping keeps its own descriptor, so the spool can close.
        with tempfile.TemporaryFile() as spool:
            lanes = np.memmap(spool, dtype=dtype, mode="w+", shape=shape)
    else:
        lanes = np.empty(shape, dtype=dtype)
    chunk = max(1, _LANE_CHUNK_ELEMENTS // lane_bits)
    for start in range(0, shape[0], chunk):
        stop = start + chunk
        bits = np.concatenate(
            [
                unpack_words_to_bits(ones_words[start:stop], block_length),
                unpack_words_to_bits(zeros_words[start:stop], block_length),
            ],
            axis=1,
        )
        lanes[start:stop] = pack_bits_to_words(bits)
    return lanes


def fused_mv_lanes(ordered_grid: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The ``(C, L, LW)`` fused MV lanes ``[mvᴢ|mv₁]`` of a trit grid.

    The complement of :func:`fused_block_lanes` — zeros bits first —
    so a block lane and an MV lane AND to zero exactly when the MV
    matches the block.  Stored at ``dtype`` words, as the block lanes.
    """
    bits = np.concatenate([ordered_grid == ZERO, ordered_grid == ONE], axis=-1)
    return pack_bits_to_words(bits).astype(dtype, copy=False)


def covering_order(
    grid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Put every genome's MVs of a ``(C, L, K)`` trit grid in covering order.

    MVs are tried in ascending order of unspecified count, ties kept in
    declaration order (stable sort).  Returns ``(ordered_grid, orders,
    n_unspecified)``: the permuted grid, the ``(C, L)`` rank → MV index
    map and the ``(C, L)`` per-MV unspecified counts in declaration
    order.
    """
    n_unspecified = (grid == DC).sum(axis=2).astype(np.int64)
    orders = np.argsort(n_unspecified, axis=1, kind="stable")
    ordered_grid = grid[np.arange(grid.shape[0])[:, None], orders]
    return ordered_grid, orders, n_unspecified


def rank_word_bits(n_vectors: int) -> int:
    """Padded match-word width for ``n_vectors`` MVs (8/16/32/64·k)."""
    for width in (8, 16, 32, 64):
        if n_vectors <= width:
            return width
    return -(-n_vectors // 64) * 64


def first_match_rank(matches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First-true index along the padded last axis, via packed bits.

    ``matches`` is ``(..., Lp)`` bool with ``Lp`` a multiple of 8 from
    :func:`rank_word_bits` (padding columns all False).  Packing the
    axis into little-endian words turns "first match in covering
    order" into "lowest set bit": isolate it with ``w & -w`` and read
    its position from the float64 exponent — no index reduction over
    L.  Returns ``(rank, hit)``: ``rank`` is the first-true index
    (unspecified where ``hit`` is False), ``hit`` says whether any
    match exists.
    """
    packed = np.packbits(matches, axis=-1, bitorder="little")
    lane_bytes = packed.shape[-1]
    word_dtype = f"<u{min(lane_bytes, 8)}"
    words = packed.view(word_dtype)
    first_word = words[..., 0]
    hit = first_word != 0
    lowest = first_word & np.negative(first_word)
    rank = np.frexp(lowest.astype(np.float64))[1].astype(np.int64) - 1
    for index in range(1, words.shape[-1]):  # only for L > 64
        word = words[..., index]
        fresh = ~hit & (word != 0)
        if not fresh.any():
            hit |= word != 0
            continue
        lowest = word & np.negative(word)
        word_rank = (
            np.frexp(lowest.astype(np.float64))[1].astype(np.int64)
            - 1
            + 64 * index
        )
        rank = np.where(fresh, word_rank, rank)
        hit |= fresh
    return rank, hit


def accumulate_complete_rows(
    assignment: np.ndarray,
    frequencies: np.ndarray,
    start: int,
    sub: np.ndarray,
    sub_rank: np.ndarray,
    order: np.ndarray,
    counts: np.ndarray,
    want_assignment: bool,
) -> None:
    """Scatter one chunk's complete genomes into the result arrays.

    ``sub`` indexes the complete genomes within the chunk starting at
    global row ``start``; ``sub_rank`` is their ``(len(sub), D)``
    first-match covering ranks.  Block multiplicities are scatter-added
    per rank, then mapped from rank space back to MV index space
    through the genomes' ``order`` rows — shared verbatim by the
    bitpack and native kernels so their results cannot drift apart.
    """
    n_vectors = frequencies.shape[1]
    flat = np.arange(sub.size)[:, None] * n_vectors + sub_rank
    counts_tiled = np.broadcast_to(counts, sub_rank.shape)
    rank_frequencies = np.bincount(
        flat.ravel(),
        weights=counts_tiled.ravel(),
        minlength=sub.size * n_vectors,
    ).reshape(sub.size, n_vectors)
    sub_order = order[start + sub]
    frequencies[start + sub[:, None], sub_order] = rank_frequencies.astype(
        np.int64
    )
    if want_assignment:
        assignment[start + sub] = sub_order[
            np.arange(sub.size)[:, None], sub_rank
        ]


class CoveringKernel(abc.ABC):
    """Abstract covering kernel; see the module docstring for the contract."""

    name: str = "abstract"

    # -- preparation --------------------------------------------------

    @abc.abstractmethod
    def prepare_masks(
        self,
        block_ones: np.ndarray,
        block_zeros: np.ndarray,
        block_counts: np.ndarray,
        block_length: int,
    ) -> PreparedBlocks:
        """Build the kernel's per-block-set state from raw mask arrays."""

    def prepare(self, blocks: BlockSet) -> PreparedBlocks:
        """Build the kernel's per-block-set state from a :class:`BlockSet`."""
        return self.prepare_masks(
            blocks.ones, blocks.zeros, blocks.counts, blocks.block_length
        )

    def _base_prepared(
        self,
        block_ones: np.ndarray,
        block_zeros: np.ndarray,
        block_counts: np.ndarray,
        block_length: int,
    ) -> PreparedBlocks:
        ones_words = masks_as_words(block_ones)
        zeros_words = masks_as_words(block_zeros)
        counts = np.asarray(block_counts, dtype=np.int64)
        return PreparedBlocks(
            block_length=block_length,
            word_count=mask_word_count(block_length),
            n_distinct=ones_words.shape[0],
            counts=counts,
            counts_f=counts.astype(np.float64),
            total_count=int(counts.sum()),
            ones_words=ones_words,
            zeros_words=zeros_words,
        )

    # -- covering entry point -----------------------------------------

    @abc.abstractmethod
    def cover_grid(
        self,
        prepared: PreparedBlocks,
        ordered_grid: np.ndarray,
        orders: np.ndarray,
        want_assignment: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cover with a ``(C, L, K)`` trit grid in covering order.

        Row ``j`` of genome ``c`` is the MV tried ``j``-th; ``orders``
        ``(C, L)`` maps that rank back to declaration-order MV indices
        (both as :func:`covering_order` returns them).  Returns
        ``(assignment, frequencies, uncovered)`` of shapes ``(C, D)``,
        ``(C, L)`` and ``(C,)``; with ``want_assignment=False`` the
        assignment rows stay all ``-1``.
        """

    # -- pricing entry point ------------------------------------------

    def price_grid(
        self,
        prepared: PreparedBlocks,
        grid: np.ndarray,
        mark: Callable[[str], None] | None = None,
    ) -> np.ndarray:
        """Compressed bit total of every genome of a ``(C, L, K)`` trit grid.

        Orders each genome's MVs (:func:`covering_order`), covers the
        blocks, and adds the Huffman codeword bits of the MV use
        frequencies to the fill bits ``Σ freq·NU``.  Returns ``(C,)``
        int64 totals, ``-1`` for a genome whose MVs leave a block
        uncovered.  ``mark``, if given, is called with ``"pack"``,
        ``"cover"`` and ``"huffman"`` as each stage ends.
        """
        ordered_grid, orders, n_unspecified = covering_order(grid)
        if mark:
            mark("pack")
        _, frequencies, uncovered = self.cover_grid(
            prepared, ordered_grid, orders, want_assignment=False
        )
        if mark:
            mark("cover")
        totals = np.full(grid.shape[0], -1, dtype=np.int64)
        valid = uncovered == 0
        if valid.any():
            valid_freqs = frequencies[valid]
            codeword_bits = huffman_total_bits_batch(valid_freqs)
            fill_bits = (valid_freqs * n_unspecified[valid]).sum(axis=1)
            totals[valid] = codeword_bits + fill_bits
        if mark:
            mark("huffman")
        return totals

    # -- shared helpers -----------------------------------------------

    @staticmethod
    def _empty_results(
        n_genomes: int, n_vectors: int, n_distinct: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The all-uncovered result skeleton every kernel starts from."""
        return (
            np.full((n_genomes, n_distinct), -1, dtype=np.int64),
            np.zeros((n_genomes, n_vectors), dtype=np.int64),
            np.zeros(n_genomes, dtype=np.int64),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

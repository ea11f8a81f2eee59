"""Cross-kernel parity and registry tests for ``repro.core.kernels``.

The subsystem's contract is bit-identical results from every kernel:
``native`` ≡ ``bitpack`` ≡ ``scalar`` ≡ the reference ``cover_masks``
loop, including the batch early-exit convention (uncoverable genomes
report exact ``uncovered`` counts but all ``-1`` assignment rows and
zero frequencies) and multi-word masks (K > 64).  Seeded experiments
stay byte-identical no matter which kernel priced them — these tests
pin that property at the kernel, fitness, EA-run and compressor layers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockSet, mask_word_count, pack_bits_to_words
from repro.core.blocks_io import load_block_table, save_block_table
from repro.core.compressor import compress_blocks
from repro.core.config import CompressionConfig, EAParameters
from repro.core.covering import cover, cover_masks
from repro.core.decompressor import verify_roundtrip
from repro.core.encoding import EncodingStrategy, build_encoding_table
from repro.core.fitness import INVALID_FITNESS, BatchCompressionRateFitness
from repro.core.kernels import (
    BitpackKernel,
    CoveringKernel,
    NativeKernel,
    ScalarKernel,
    available_kernels,
    covering_order,
    get_kernel,
    kernel_unavailable_reason,
    resolve_kernel,
    select_kernel_name,
    usable_kernels,
)
from repro.core.matching import MVSet
from repro.core.optimizer import EAMVOptimizer
from repro.core.trits import DC, ONE, ZERO
from repro.testdata.synthetic import (
    WIDE_BLOCK_LENGTH,
    WIDE_BLOCK_SPEC,
    SyntheticSpec,
    synthetic_test_set,
    wide_block_test_set,
)

# The native kernel joins the parity suites only where it can run:
# asking availability here compiles on first use (warming the build
# cache for the whole session) and yields the skip reason otherwise.
NATIVE_UNAVAILABLE = kernel_unavailable_reason("native")
KERNEL_NAMES = ("bitpack", "scalar") + (
    ("native",) if NATIVE_UNAVAILABLE is None else ()
)
requires_native = pytest.mark.skipif(
    NATIVE_UNAVAILABLE is not None,
    reason=f"native kernel unavailable: {NATIVE_UNAVAILABLE}",
)


@pytest.fixture
def no_native(monkeypatch):
    """Force the no-compiler path for the duration of one test."""
    from repro.core.kernels import native as native_module

    monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
    native_module._reset_native_state()
    yield
    native_module._reset_native_state()


def random_workload(rng, block_length):
    """Random block masks + a ``(C, L, K)`` trit grid of genomes.

    Blocks carry random care bits; each genome's MVs draw trits at a
    per-genome don't-care density, and about half the genomes end in
    an all-U MV, so complete rows and early-exit rows both occur.
    """
    n_distinct = int(rng.integers(1, 60))
    n_vectors = int(rng.integers(1, 14))
    n_genomes = int(rng.integers(1, 9))
    bits = rng.integers(0, 2, size=(n_distinct, block_length))
    zero_bits = rng.integers(0, 2, size=(n_distinct, block_length)) & ~bits
    block_ones = pack_bits_to_words(bits)
    block_zeros = pack_bits_to_words(zero_bits)
    if mask_word_count(block_length) == 1:
        block_ones, block_zeros = block_ones[:, 0], block_zeros[:, 0]
    counts = rng.integers(1, 9, n_distinct).astype(np.int64)
    shape = (n_genomes, n_vectors, block_length)
    dc_density = rng.uniform(0.3, 1.0, size=(n_genomes, 1, 1))
    grid = np.where(
        rng.random(shape) < dc_density, DC, rng.integers(0, 2, shape)
    ).astype(np.int8)
    grid[rng.random(n_genomes) < 0.5, -1] = DC
    return block_ones, block_zeros, counts, grid


def cover_with(kernel, block_ones, block_zeros, counts, grid):
    """Batch covering as the fitness runs it: order, then ``cover_grid``."""
    if isinstance(kernel, str):
        kernel = get_kernel(kernel)
    prepared = kernel.prepare_masks(
        block_ones, block_zeros, counts, grid.shape[2]
    )
    ordered_grid, orders, _ = covering_order(grid)
    return kernel.cover_grid(prepared, ordered_grid, orders)


def assert_rows_match_reference(results, block_ones, block_zeros, counts, grid):
    """Every batch row against the reference loop on that genome alone."""
    assignment, frequencies, uncovered = results
    mv_ones = pack_bits_to_words(grid == ONE)
    mv_zeros = pack_bits_to_words(grid == ZERO)
    _, orders, _ = covering_order(grid)
    for row in range(grid.shape[0]):
        ref_assignment, ref_frequencies, ref_uncovered = cover_masks(
            block_ones,
            block_zeros,
            counts,
            mv_ones[row],
            mv_zeros[row],
            orders[row],
        )
        assert uncovered[row] == ref_uncovered
        if ref_uncovered == 0:
            assert (assignment[row] == ref_assignment).all()
            assert (frequencies[row] == ref_frequencies).all()
        else:  # the batch early-exit contract
            assert (assignment[row] == -1).all()
            assert (frequencies[row] == 0).all()


class TestCrossKernelParity:
    """native ≡ bitpack ≡ scalar, against the reference loop per row."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([3, 9, 14, 33, 64, 70, 96, 130]),
    )
    def test_kernels_match_reference_loop(self, seed, block_length):
        rng = np.random.default_rng(seed)
        workload = random_workload(rng, block_length)
        per_kernel = {name: cover_with(name, *workload) for name in KERNEL_NAMES}
        assert_rows_match_reference(per_kernel["scalar"], *workload)
        for name in KERNEL_NAMES:
            for ours, theirs in zip(per_kernel[name], per_kernel["scalar"]):
                assert (ours == theirs).all(), name

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_uncoverable_rows_early_exit_on_every_kernel(self, seed):
        rng = np.random.default_rng(seed)
        # Fully-specified complementary blocks and a single fully
        # specified MV: at most one block row can ever be covered.
        block_ones = np.asarray([0b111111, 0b000000], dtype=np.uint64)
        block_zeros = np.asarray([0b000000, 0b111111], dtype=np.uint64)
        counts = rng.integers(1, 5, 2).astype(np.int64)
        grid = rng.integers(0, 2, size=(3, 1, 6)).astype(np.int8)
        workload = (block_ones, block_zeros, counts, grid)
        results = {name: cover_with(name, *workload) for name in KERNEL_NAMES}
        assert_rows_match_reference(results["scalar"], *workload)
        for name in KERNEL_NAMES:
            assignment, frequencies, uncovered = results[name]
            assert (uncovered > 0).all(), name
            assert (assignment == -1).all(), name
            assert (frequencies == 0).all(), name
            for ours, theirs in zip(results[name], results["scalar"]):
                assert (ours == theirs).all(), name

    def test_single_genome_wide_grid(self):
        """A ``(1, L, 96)`` grid is one genome over two-word lanes."""
        rng = np.random.default_rng(8)
        trits = rng.integers(0, 3, size=96 * 11).astype(np.int8)
        blocks = BlockSet.from_trit_array(trits, 96)
        # All-U MVs: every block is covered by the first in order.
        grid = np.full((1, 4, 96), DC, dtype=np.int8)
        for name in KERNEL_NAMES:
            assignment, frequencies, uncovered = cover_with(
                name, blocks.ones, blocks.zeros, blocks.counts, grid
            )
            assert assignment.shape == (1, blocks.n_distinct), name
            assert frequencies.shape == (1, 4), name
            assert uncovered.tolist() == [0], name
            assert (assignment == 0).all(), name
            assert frequencies[0].tolist() == [blocks.n_blocks, 0, 0, 0], name

    def test_empty_blocks_and_empty_batch(self):
        empty_u64 = np.empty(0, dtype=np.uint64)
        no_counts = np.empty(0, dtype=np.int64)
        grid = np.full((3, 4, 4), DC, dtype=np.int8)
        rng = np.random.default_rng(2)
        workload = random_workload(rng, 12)
        for name in KERNEL_NAMES:
            assignment, frequencies, uncovered = cover_with(
                name, empty_u64, empty_u64, no_counts, grid
            )
            assert assignment.shape == (3, 0), name
            assert frequencies.shape == (3, 4), name
            assert (frequencies == 0).all(), name
            assert (uncovered == 0).all(), name
            assignment, frequencies, uncovered = cover_with(
                name, *workload[:3], workload[3][:0]
            )
            assert assignment.shape == (0, len(workload[0])), name
            assert frequencies.shape == (0, workload[3].shape[1]), name
            assert uncovered.shape == (0,), name


def price_workload(rng, block_length, n_vectors, n_genomes):
    """Block set + ``(C, L·K)`` genomes mixing the pricing edge cases.

    Row 0 is all-U, so its first MV covers every block (a one-symbol
    code); row 1 repeats one all-zero MV, which the table's all-one
    block makes uncoverable; the other rows draw trits at a per-row
    don't-care density.  Half the blocks repeat, so multiplicities and
    frequency ties vary.
    """
    n_blocks = int(rng.integers(1, 40))
    care = rng.random((n_blocks, block_length)) < rng.uniform(0.1, 0.6)
    trits = np.where(care, rng.integers(0, 2, care.shape), DC)
    trits = np.concatenate(
        [trits, trits[: n_blocks // 2], np.full((1, block_length), ONE)]
    ).astype(np.int8)
    blocks = BlockSet.from_trit_array(trits.ravel(), block_length)
    genome_length = n_vectors * block_length
    dc_density = rng.uniform(0.3, 1.0, size=(n_genomes, 1))
    genomes = np.where(
        rng.random((n_genomes, genome_length)) < dc_density,
        DC,
        rng.integers(0, 2, (n_genomes, genome_length)),
    ).astype(np.int8)
    if n_genomes > 0:
        genomes[0] = DC
    if n_genomes > 1:
        genomes[1] = ZERO
    return blocks, genomes


def reference_total(blocks, genome, block_length):
    """Compressed bits via the single-genome covering + encoding table."""
    mv_set = MVSet.from_genome(genome, block_length)
    covering = cover(blocks, mv_set)
    if covering.uncovered:
        return -1
    table = build_encoding_table(
        mv_set, covering.frequency_map(), EncodingStrategy.HUFFMAN
    )
    return table.total_bits


def rates_from_totals(blocks, totals):
    original = blocks.original_bits
    rates = np.full(totals.shape, INVALID_FITNESS)
    valid = totals >= 0
    rates[valid] = 100.0 * (original - totals[valid]) / original
    return rates


class TestPriceGrid:
    """``price_grid`` totals — one native C call or the composed array
    path — are identical on every kernel and price rates byte for
    byte like the scalar reference ``evaluate_batch``."""

    @pytest.mark.parametrize("block_length", [3, 12, 32, 33, 70])
    @pytest.mark.parametrize("n_vectors", [1, 5, 64, 65, 130])
    def test_totals_identical_across_kernels(self, block_length, n_vectors):
        rng = np.random.default_rng(block_length * 1000 + n_vectors)
        blocks, genomes = price_workload(rng, block_length, n_vectors, 9)
        grid = genomes.reshape(len(genomes), n_vectors, block_length)
        totals = {}
        for name in KERNEL_NAMES:
            kernel = get_kernel(name)
            totals[name] = kernel.price_grid(kernel.prepare(blocks), grid)
            assert totals[name].dtype == np.int64, name
        reference = totals["scalar"]
        assert reference[1] == -1  # the uncoverable all-zero row
        assert reference[0] == blocks.n_blocks * (1 + block_length)
        for name in KERNEL_NAMES:
            assert (totals[name] == reference).all(), name
        for row in range(len(genomes)):
            assert reference[row] == reference_total(
                blocks, genomes[row], block_length
            ), row
        scalar_rates = BatchCompressionRateFitness(
            blocks, n_vectors, block_length, kernel="scalar"
        ).evaluate_batch(genomes)
        assert rates_from_totals(blocks, reference).tobytes() == (
            scalar_rates.tobytes()
        )
        for name in KERNEL_NAMES:
            rates = BatchCompressionRateFitness(
                blocks, n_vectors, block_length, kernel=name
            ).evaluate_batch(genomes)
            assert rates.tobytes() == scalar_rates.tobytes(), name

    @pytest.mark.parametrize(
        "block_length, n_vectors", [(12, 64), (33, 5), (70, 130)]
    )
    def test_full_generation_of_256(self, block_length, n_vectors):
        rng = np.random.default_rng(n_vectors)
        blocks, genomes = price_workload(rng, block_length, n_vectors, 256)
        grid = genomes.reshape(256, n_vectors, block_length)
        totals = {
            name: get_kernel(name).price_grid(
                get_kernel(name).prepare(blocks), grid
            )
            for name in KERNEL_NAMES
        }
        for name in KERNEL_NAMES:
            assert (totals[name] == totals["scalar"]).all(), name
        assert (totals["scalar"] == -1).any()
        assert (totals["scalar"] >= 0).any()

    @pytest.mark.parametrize("n_genomes", [0, 1])
    def test_empty_and_single_genome_batches(self, n_genomes):
        rng = np.random.default_rng(n_genomes)
        blocks, genomes = price_workload(rng, 12, 5, n_genomes)
        grid = genomes.reshape(n_genomes, 5, 12)
        for name in KERNEL_NAMES:
            kernel = get_kernel(name)
            totals = kernel.price_grid(kernel.prepare(blocks), grid)
            assert totals.shape == (n_genomes,), name
            assert totals.dtype == np.int64, name
            if n_genomes:
                assert totals[0] == blocks.n_blocks * (1 + 12), name

    def test_frequency_ties(self):
        """Equal MV frequencies: every kernel lands on one total."""
        rng = np.random.default_rng(5)
        patterns = rng.integers(0, 2, size=(4, 12)).astype(np.int8)
        while len({row.tobytes() for row in patterns}) < 4:
            patterns = rng.integers(0, 2, size=(4, 12)).astype(np.int8)
        blocks = BlockSet.from_trit_array(np.tile(patterns, (3, 1)).ravel(), 12)
        # One MV per distinct block (3 uses each), then an unused all-U.
        genome = np.concatenate([patterns.ravel(), np.full(12, DC)])
        grid = genome.astype(np.int8).reshape(1, 5, 12)
        expected = reference_total(blocks, genome.astype(np.int8), 12)
        assert expected == 4 * 3 * 2  # four 2-bit codewords, no fill bits
        for name in KERNEL_NAMES:
            kernel = get_kernel(name)
            totals = kernel.price_grid(kernel.prepare(blocks), grid)
            assert totals.tolist() == [expected], name

    @pytest.mark.parametrize("block_length", [12, 70])
    def test_memmap_block_table(self, tmp_path, block_length):
        rng = np.random.default_rng(block_length)
        ram, genomes = price_workload(rng, block_length, 6, 16)
        save_block_table(ram, tmp_path / "table")
        mapped = load_block_table(tmp_path / "table")
        assert isinstance(mapped.ones, np.memmap)
        grid = genomes.reshape(16, 6, block_length)
        reference = get_kernel("scalar").price_grid(
            get_kernel("scalar").prepare(ram), grid
        )
        for name in KERNEL_NAMES:
            kernel = get_kernel(name)
            totals = kernel.price_grid(kernel.prepare(mapped), grid)
            assert (totals == reference).all(), name

    def test_stage_marks_in_order(self):
        rng = np.random.default_rng(1)
        blocks, genomes = price_workload(rng, 12, 5, 4)
        for name in KERNEL_NAMES:
            kernel = get_kernel(name)
            stages = []
            kernel.price_grid(
                kernel.prepare(blocks),
                genomes.reshape(4, 5, 12),
                mark=stages.append,
            )
            assert stages[:2] == ["pack", "cover"], name


class TestShardingKnobs:
    """Block-table sharding must never change results."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=17),
    )
    def test_shard_size_is_result_invariant(self, seed, shard_size):
        rng = np.random.default_rng(seed)
        workload = random_workload(rng, 11)
        baseline = cover_with("bitpack", *workload)
        sharded = cover_with(BitpackKernel(shard_size=shard_size), *workload)
        for ours, theirs in zip(baseline, sharded):
            assert (ours == theirs).all()

    def test_shard_size_validated(self):
        with pytest.raises(ValueError):
            BitpackKernel(shard_size=0)


class TestRegistry:
    def test_available_kernels(self):
        names = available_kernels()
        assert set(KERNEL_NAMES) <= set(names)

    def test_get_kernel_unknown_name(self):
        with pytest.raises(ValueError, match="unknown covering kernel"):
            get_kernel("nonsense")

    def test_auto_never_resolves_by_get(self):
        with pytest.raises(ValueError):
            get_kernel("auto")

    def test_resolve_passes_instances_through(self):
        kern = BitpackKernel()
        assert (
            resolve_kernel(
                kern, n_genomes=4, n_distinct=10, n_vectors=4, block_length=8
            )
            is kern
        )

    def test_auto_heuristic_shapes(self, no_native):
        # Without a compiler the rule has two outcomes.  Tiny one-off
        # covering → scalar; every batched shape → bitpack, the one
        # array fallback, whatever the table size or lane width.
        assert select_kernel_name(1, 8, 4, 8) == ScalarKernel.name
        for shape in (
            (256, 100, 64, 12),
            (256, 900, 64, 12),
            (256, 5000, 64, 64),
            (256, 400, 64, 96),
            (256, 4096, 64, 96),
            (5, 3200, 64, 12),
            (2, 8, 4, 8),
        ):
            assert select_kernel_name(*shape) == BitpackKernel.name, shape

    @requires_native
    def test_auto_prefers_native_when_available(self):
        # The compiled loop measured fastest on every batched shape on
        # this container class, so with a toolchain present the
        # default floors hand every non-scalar shape to it.
        assert select_kernel_name(1, 8, 4, 8) == ScalarKernel.name
        for shape in (
            (256, 100, 64, 12),
            (256, 900, 64, 12),
            (256, 5000, 64, 64),
            (256, 400, 64, 96),
            (256, 4096, 64, 96),
        ):
            assert select_kernel_name(*shape) == NativeKernel.name, shape

    def test_kernels_repr_names(self):
        for name in KERNEL_NAMES:
            kern = get_kernel(name)
            assert isinstance(kern, CoveringKernel)
            assert kern.name == name
            assert name in repr(kern)


class TestAvailabilityResolution:
    """Unavailable kernels: explicit requests fail, auto skips quietly."""

    def test_native_always_registered(self):
        # Registration is not usability: the name stays valid
        # configuration even on a toolchain-less machine.
        assert "native" in available_kernels()

    def test_explicit_unavailable_kernel_raises(self, no_native):
        with pytest.raises(ValueError, match="unavailable on this machine"):
            resolve_kernel(
                "native", n_genomes=32, n_distinct=900,
                n_vectors=32, block_length=12,
            )

    def test_auto_silently_skips_unavailable(self, no_native):
        kern = resolve_kernel(
            "auto", n_genomes=32, n_distinct=900,
            n_vectors=32, block_length=12,
        )
        assert kern.name == BitpackKernel.name
        assert "native" not in usable_kernels()
        assert kernel_unavailable_reason("native") is not None

    def test_unknown_name_still_raises(self):
        with pytest.raises(ValueError, match="unknown covering kernel"):
            kernel_unavailable_reason("nonsense")

    @requires_native
    def test_native_usable_with_compiler(self):
        assert "native" in usable_kernels()
        assert kernel_unavailable_reason("native") is None
        kern = resolve_kernel(
            "native", n_genomes=32, n_distinct=900,
            n_vectors=32, block_length=12,
        )
        assert kern.name == NativeKernel.name


class TestFitnessKernelChoice:
    @staticmethod
    def _blocks(rng, block_length=8, n_bits=400):
        care = rng.random(n_bits) < 0.5
        values = rng.random(n_bits) < 0.5
        trits = np.where(care, values.astype(np.int8), np.int8(2))
        return BlockSet.from_trit_array(trits.astype(np.int8), block_length)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_batch_rates_identical_across_kernels(self, seed):
        rng = np.random.default_rng(seed)
        blocks = self._blocks(rng)
        genomes = rng.integers(0, 3, size=(12, 5 * 8), dtype=np.int8)
        rates = {}
        for name in KERNEL_NAMES:
            fitness = BatchCompressionRateFitness(
                blocks, n_vectors=5, block_length=8, kernel=name
            )
            rates[name] = fitness.evaluate_batch(genomes)
            assert fitness.kernel_name == name
        for name in KERNEL_NAMES[1:]:
            assert (rates[KERNEL_NAMES[0]] == rates[name]).all(), name

    def test_auto_resolves_on_first_batch(self):
        rng = np.random.default_rng(3)
        blocks = self._blocks(rng)
        fitness = BatchCompressionRateFitness(
            blocks, n_vectors=5, block_length=8
        )
        assert fitness.kernel_name == "auto"
        fitness.evaluate_batch(rng.integers(0, 3, size=(4, 40), dtype=np.int8))
        assert fitness.kernel_name in available_kernels()

    def test_kernel_instance_accepted(self):
        rng = np.random.default_rng(4)
        blocks = self._blocks(rng)
        fitness = BatchCompressionRateFitness(
            blocks, n_vectors=5, block_length=8, kernel=BitpackKernel(shard_size=4)
        )
        assert fitness.kernel_name == "bitpack"
        rates = fitness.evaluate_batch(
            rng.integers(0, 3, size=(4, 40), dtype=np.int8)
        )
        assert rates.shape == (4,)


class TestSeededRunsAcrossKernels:
    """One seeded EA run must land on the same genome under any kernel."""

    def test_optimizer_results_kernel_invariant(self):
        rng = np.random.default_rng(11)
        care = rng.random(600) < 0.5
        values = rng.random(600) < 0.5
        trits = np.where(care, values.astype(np.int8), np.int8(2))
        blocks = BlockSet.from_trit_array(trits.astype(np.int8), 8)
        results = {}
        for kernel in KERNEL_NAMES:
            config = CompressionConfig(
                block_length=8,
                n_vectors=6,
                runs=2,
                kernel=kernel,
                ea=EAParameters(stagnation_limit=10, max_evaluations=300),
            )
            results[kernel] = EAMVOptimizer(config, seed=77).optimize(blocks)
        reference = results[KERNEL_NAMES[0]]
        for kernel in KERNEL_NAMES[1:]:
            result = results[kernel]
            assert result.mean_rate == reference.mean_rate
            assert result.best_rate == reference.best_rate
            for ours, theirs in zip(result.runs, reference.runs):
                assert ours.mv_set == theirs.mv_set

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_seeded_run_matches_auto(self, kernel):
        """Every run's rate and genome bytes match the ``auto`` run."""
        spec = SyntheticSpec(
            name="kernel-run-parity", n_patterns=30, pattern_bits=30,
            care_density=0.5, seed=5,
        )
        blocks = synthetic_test_set(spec).blocks(6)

        def digest(kernel):
            config = CompressionConfig(
                block_length=6, n_vectors=8, runs=2, kernel=kernel,
                ea=EAParameters(
                    population_size=6, children_per_generation=4,
                    stagnation_limit=8, max_evaluations=250,
                ),
            )
            result = EAMVOptimizer(config, seed=99).optimize(blocks)
            return [
                (run.rate, run.mv_set.to_genome().tobytes())
                for run in result.runs
            ]

        assert digest(kernel) == digest("auto")


class TestWideBlockEndToEnd:
    """K = 96 compresses and round-trips through every kernel."""

    def test_wide_workload_spans_two_words(self):
        blocks = wide_block_test_set().blocks(WIDE_BLOCK_LENGTH)
        assert WIDE_BLOCK_SPEC.pattern_bits % WIDE_BLOCK_LENGTH == 0
        assert blocks.word_count == 2
        assert blocks.n_distinct > 1

    def test_compress_decompress_roundtrip_all_kernels(self):
        blocks = wide_block_test_set().blocks(WIDE_BLOCK_LENGTH)
        payloads = []
        for kernel in KERNEL_NAMES:
            config = CompressionConfig(
                block_length=WIDE_BLOCK_LENGTH,
                n_vectors=6,
                runs=1,
                kernel=kernel,
                ea=EAParameters(stagnation_limit=5, max_evaluations=80),
            )
            optimizer = EAMVOptimizer(config, seed=9)
            compressed = optimizer.compress_best(blocks)
            decoded = verify_roundtrip(compressed)
            assert decoded.blocks_decoded == blocks.n_blocks
            payloads.append(compressed.payload)
        # Seeded search + emission is byte-identical across kernels.
        assert all(payload == payloads[0] for payload in payloads[1:])

    def test_wide_rate_prices_like_compressor(self):
        blocks = wide_block_test_set().blocks(WIDE_BLOCK_LENGTH)
        rng = np.random.default_rng(2)
        genomes = rng.integers(
            0, 3, size=(6, 4 * WIDE_BLOCK_LENGTH), dtype=np.int8
        )
        genomes[:, -WIDE_BLOCK_LENGTH:] = 2  # all-U tail: always coverable
        for name in KERNEL_NAMES:
            fitness = BatchCompressionRateFitness(
                blocks,
                n_vectors=4,
                block_length=WIDE_BLOCK_LENGTH,
                kernel=name,
            )
            rates = fitness.evaluate_batch(genomes)
            for row in range(len(genomes)):
                mv_set = MVSet.from_genome(genomes[row], WIDE_BLOCK_LENGTH)
                expected = compress_blocks(blocks, mv_set).rate
                assert rates[row] == pytest.approx(expected)

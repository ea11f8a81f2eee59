"""Unit and property tests for the EA fitness evaluation fast path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import BlockSet
from repro.core.compressor import compress_blocks
from repro.core.encoding import EncodingStrategy
from repro.core.fitness import INVALID_FITNESS, CompressionRateFitness
from repro.core.matching import MVSet

from ..conftest import mv_strings, trit_strings


class TestFitnessBasics:
    def test_docstring_example(self):
        blocks = BlockSet.from_string("111 000 111 111", 3)
        fitness = CompressionRateFitness(blocks, n_vectors=2, block_length=3)
        genome = MVSet.from_strings(["111", "UUU"]).to_genome()
        # 3 blocks x '0' (1 bit) + 1 block x ('1' + 3 fills) = 7 bits.
        assert fitness(genome) == pytest.approx(100 * (12 - 7) / 12)

    def test_uncoverable_gets_invalid_fitness(self):
        blocks = BlockSet.from_string("010", 3)
        fitness = CompressionRateFitness(blocks, n_vectors=1, block_length=3)
        genome = MVSet.from_strings(["111"]).to_genome()
        assert fitness(genome) == INVALID_FITNESS

    def test_invalid_fitness_below_any_valid_rate(self):
        """Even a horribly expanding encoding beats 'impossible'."""
        blocks = BlockSet.from_string("01", 2)
        fitness = CompressionRateFitness(blocks, n_vectors=1, block_length=2)
        expanding = fitness(MVSet.from_strings(["UU"]).to_genome())
        assert expanding > INVALID_FITNESS

    def test_evaluation_counter(self):
        blocks = BlockSet.from_string("111", 3)
        fitness = CompressionRateFitness(blocks, n_vectors=1, block_length=3)
        genome = MVSet.from_strings(["UUU"]).to_genome()
        fitness(genome)
        fitness(genome)
        assert fitness.evaluations == 2

    def test_block_length_mismatch_rejected(self):
        blocks = BlockSet.from_string("0101", 4)
        with pytest.raises(ValueError):
            CompressionRateFitness(blocks, n_vectors=2, block_length=3)

    def test_empty_test_set_rejected(self):
        blocks = BlockSet.from_string("", 3)
        with pytest.raises(ValueError):
            CompressionRateFitness(blocks, n_vectors=1, block_length=3)

    def test_fixed_strategy_rejected(self):
        blocks = BlockSet.from_string("111", 3)
        with pytest.raises(ValueError):
            CompressionRateFitness(
                blocks, n_vectors=1, block_length=3, strategy=EncodingStrategy.FIXED
            )


class TestFitnessMatchesCompressor:
    """The fast path must price exactly what compress_blocks emits."""

    @settings(max_examples=40)
    @given(
        trit_strings(min_size=1, max_size=160),
        st.lists(mv_strings(4), min_size=1, max_size=6),
    )
    def test_huffman_agreement(self, text, mv_texts):
        blocks = BlockSet.from_string(text, 4)
        mv_set = MVSet.from_strings(mv_texts + ["UUUU"])
        fitness = CompressionRateFitness(
            blocks, n_vectors=len(mv_set), block_length=4
        )
        predicted = fitness(mv_set.to_genome())
        actual = compress_blocks(blocks, mv_set).rate
        assert predicted == pytest.approx(actual)

    @settings(max_examples=25)
    @given(
        trit_strings(min_size=1, max_size=120),
        st.lists(mv_strings(4), min_size=1, max_size=5),
    )
    def test_subsumption_agreement(self, text, mv_texts):
        blocks = BlockSet.from_string(text, 4)
        mv_set = MVSet.from_strings(mv_texts + ["UUUU"])
        fitness = CompressionRateFitness(
            blocks,
            n_vectors=len(mv_set),
            block_length=4,
            strategy=EncodingStrategy.HUFFMAN_SUBSUME,
        )
        predicted = fitness(mv_set.to_genome())
        actual = compress_blocks(
            blocks, mv_set, EncodingStrategy.HUFFMAN_SUBSUME
        ).rate
        assert predicted == pytest.approx(actual)

    def test_evaluate_mv_set_convenience(self):
        blocks = BlockSet.from_string("111 000", 3)
        fitness = CompressionRateFitness(blocks, n_vectors=2, block_length=3)
        mv_set = MVSet.from_strings(["111", "000"])
        assert fitness.evaluate_mv_set(mv_set) == pytest.approx(
            fitness(mv_set.to_genome())
        )

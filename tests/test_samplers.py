import numpy as np
import pytest

from gtlab import samplers
from gtlab.samplers import RngStream


class TestStreams:
    def test_bit_identical_repetition(self):
        stream = RngStream(42, (7, 3))
        first = samplers.gue(stream.generator(), 4, 3)
        second = samplers.gue(RngStream(42, (7, 3)).generator(), 4, 3)
        assert np.array_equal(first, second)

    def test_distinct_indices_differ(self):
        # the same labels in another order name another stream
        stream = RngStream(42)
        a = samplers.ginibre(stream.child(0, 1).generator(), 3)
        b = samplers.ginibre(stream.child(1, 0).generator(), 3)
        assert not np.array_equal(a, b)

    def test_child_composes(self):
        stream = RngStream(5, (2,))
        assert stream.child(3).child(4) == stream.child(3, 4)
        assert stream.child(3, 4).path == (2, 3, 4)
        assert stream.child() == stream

    def test_blocks_draw_from_children(self):
        # instances of a quarter of the block's entries: four per block
        stream = RngStream(9, (1,))
        blocks = stream.blocks(10, samplers.BLOCK_ENTRIES // 4)
        for b, (start, count, rng) in enumerate(blocks):
            assert (start, count) == (4 * b, min(4, 10 - 4 * b))
            expected = stream.child(b).generator().standard_normal(3)
            assert np.array_equal(rng.standard_normal(3), expected)

    def test_an_instance_larger_than_a_block_is_drawn_alone(self):
        starts = [start for start, _, _ in RngStream(9).blocks(
            3, samplers.BLOCK_ENTRIES + 1)]
        assert starts == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(1 << 64)
        for label in (-1, 1.0, "0", True, 2 ** 32):
            with pytest.raises(ValueError):
                RngStream(0, (label,))
            with pytest.raises(ValueError):
                RngStream(0).child(label)
        with pytest.raises(ValueError):
            RngStream(0, 7)


class TestStreamSeparation:
    """Streams are SFC64 seeded by ``SeedSequence`` spawn keys: a path
    replays its bits, and distinct paths share no raw output."""

    def test_sfc64_replays_its_path(self):
        first, again = (RngStream(42, (7, 3)).generator().bit_generator
                        for _ in range(2))
        assert isinstance(first, np.random.SFC64)
        assert np.array_equal(first.random_raw(1024), again.random_raw(1024))

    def test_siblings_and_swapped_paths_share_no_output(self):
        stream = RngStream(1001, (5,))
        paths = [(i,) for i in range(2048)] + [(0, 1), (1, 0), (2, 7), (7, 2)]
        raw = np.concatenate([
            stream.child(*path).generator().bit_generator.random_raw(1024)
            for path in paths])
        assert np.unique(raw).size == raw.size == 1024 * len(paths)


class TestStandardComplex:
    @pytest.mark.parametrize("shape", [(), (3,), (8000, 16, 2), (0, 3)])
    def test_interleaved_normals_scaled_by_root_half(self, shape):
        # one (*shape, 2) block of normals scaled by sqrt(1/2): each
        # entry's real part, then its imaginary part
        drawn = samplers.standard_complex(np.random.default_rng(5), shape)
        parts = np.random.default_rng(5).standard_normal((*shape, 2))
        parts *= np.sqrt(0.5)
        expected = np.empty(shape, dtype=np.complex128)
        expected.real, expected.imag = parts[..., 0], parts[..., 1]
        assert drawn.shape == shape
        assert drawn.dtype == np.complex128
        assert drawn.tobytes() == expected.tobytes()


class TestMoments:
    def test_gue_trace_square_bookkeeping(self, rng):
        # construction: diagonal entries have variance 1/2, off-diagonal
        # mean square 1/2, so E Tr(M^2) = N^2 / 2
        n, trials = 4, 10000
        M = samplers.gue(rng, n, trials)
        values = np.einsum('tij,tji->t', M, M).real
        target = n * n / 2.0
        se = values.std(ddof=1) / np.sqrt(trials)
        assert abs(values.mean() - target) <= 3.0 * se

    def test_gue_exactly_hermitian(self, rng):
        M = samplers.gue(rng, 5, 4)
        assert np.array_equal(M, np.swapaxes(M, -1, -2).conj())
        assert samplers.gue(rng, 5).shape == (5, 5)

    def test_ginibre_complex_centered(self, rng):
        n, trials = 3, 10000
        draws = samplers.ginibre(rng, n, trials)
        mean = draws.mean(axis=0)
        se = 1.0 / np.sqrt(trials)  # unit complex variance per entry
        assert np.abs(mean).max() <= 4.0 * se

    def test_ginibre_complex_unit_variance(self, rng):
        trials = 10000
        draws = samplers.ginibre(rng, 2, trials)
        second = (np.abs(draws) ** 2).mean(axis=0)
        se = (np.abs(draws) ** 2).std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.abs(second - 1.0).max() <= 4.0 * np.max(se)

"""Property tests for the packed-word codecs (hypothesis).

The bit-parallel engines are only as trustworthy as the pack/unpack layer
under them: these properties pin the round-trips for arbitrary shapes —
``n_vectors`` not a multiple of 64, the empty batch, single lines — and the
integer bus decoders for arbitrary widths and signs.  The codecs run on
``np.packbits``; the shift-and-OR formula they replaced is kept below as
the reference they must equal word for word.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.bitsim import (
    pack_vectors,
    unpack_lanes,
    unpack_vectors,
    words_to_ints,
    words_to_signed_ints,
)

_BIT_POSITIONS = np.arange(64, dtype=np.uint64)
RAGGED_N_VECTORS = st.sampled_from([0, 1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193])


def _reference_pack(bits):
    """The original shift-and-OR packer: bit ``s`` of word ``w`` is vector ``64w+s``."""
    bits = np.asarray(bits)
    n_vectors, n_lines = bits.shape
    n_words = max((n_vectors + 63) // 64, 1)
    padded = np.zeros((n_words * 64, n_lines), dtype=np.uint64)
    padded[:n_vectors] = (bits != 0).astype(np.uint64)
    lanes = padded.T.reshape(n_lines, n_words, 64)
    return np.bitwise_or.reduce(lanes << _BIT_POSITIONS, axis=2)


def _reference_unpack(packed, n_vectors):
    packed = np.asarray(packed, dtype=np.uint64)
    bits = (packed[:, :, None] >> _BIT_POSITIONS) & np.uint64(1)
    return bits.reshape(packed.shape[0], -1).T[:n_vectors].astype(np.int64)


class TestPackbitsMatchesShiftAndOr:
    @given(
        n_vectors=st.one_of(RAGGED_N_VECTORS, st.integers(min_value=0, max_value=300)),
        n_lines=st.integers(min_value=0, max_value=20),
        low=st.integers(min_value=-5, max_value=0),
        high=st.integers(min_value=1, max_value=5),
        dtype=st.sampled_from([np.int64, np.int8, np.float64]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_pack_equals_reference_for_any_values(
        self, n_vectors, n_lines, low, high, dtype, seed
    ):
        """Any nonzero entry (negative, >1, fractional dtype) packs as 1."""
        rng = np.random.default_rng(seed)
        values = rng.integers(low, high + 1, size=(n_vectors, n_lines)).astype(dtype)
        packed, n = pack_vectors(values)
        expected = _reference_pack(values)
        assert n == n_vectors
        assert packed.dtype == np.uint64
        assert packed.shape == expected.shape
        assert np.array_equal(packed, expected)

    @given(
        n_vectors=st.one_of(RAGGED_N_VECTORS, st.integers(min_value=0, max_value=300)),
        n_lines=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_bool_and_transposed_inputs_pack_like_ints(self, n_vectors, n_lines, seed):
        rng = np.random.default_rng(seed)
        flags = rng.integers(0, 2, size=(n_vectors, n_lines)).astype(bool)
        expected = _reference_pack(flags)
        assert np.array_equal(pack_vectors(flags)[0], expected)
        # A column-major matrix (as SequentialSVMPorts.input_matrix builds)
        # packs to the same words as a row-major one.
        column_major = np.asfortranarray(flags.astype(np.uint8))
        assert np.array_equal(pack_vectors(column_major)[0], expected)

    @given(
        n_vectors=st.one_of(RAGGED_N_VECTORS, st.integers(min_value=0, max_value=300)),
        n_lines=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_unpack_equals_reference_on_arbitrary_words(self, n_vectors, n_lines, seed):
        """Unpacking reads every word bit, padding included, like the reference."""
        rng = np.random.default_rng(seed)
        n_words = max((n_vectors + 63) // 64, 1)
        words = rng.integers(0, 2**64, size=(n_lines, n_words), dtype=np.uint64)
        for n in (n_vectors, n_words * 64):
            got = unpack_vectors(words, n)
            expected = _reference_unpack(words, n)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)
        assert np.array_equal(
            unpack_lanes(words, n_vectors), expected[:n_vectors].T
        )

    def test_word_layout_is_little_endian_bit_order(self):
        """Vector ``64w + s`` sits at bit ``s`` of word ``w`` on every host."""
        bits = np.zeros((130, 1), dtype=np.uint8)
        bits[[0, 9, 63, 64, 129], 0] = 1
        packed, _ = pack_vectors(bits)
        assert packed.tolist() == [[(1 << 0) | (1 << 9) | (1 << 63), 1, 2]]


class TestPackUnpackRoundTrip:
    @given(
        n_vectors=st.integers(min_value=0, max_value=300),
        n_lines=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_any_shape(self, n_vectors, n_lines, seed):
        """unpack(pack(bits)) == bits for every shape, including ragged
        tails (n_vectors % 64 != 0) and the empty batch."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(n_vectors, n_lines))
        packed, n = pack_vectors(bits)
        assert n == n_vectors
        assert packed.shape == (n_lines, max((n_vectors + 63) // 64, 1))
        assert packed.dtype == np.uint64
        assert np.array_equal(unpack_vectors(packed, n), bits)

    @given(
        n_vectors=st.integers(min_value=1, max_value=200),
        n_lines=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_padding_bits_beyond_n_vectors_are_zero(self, n_vectors, n_lines, seed):
        """The ragged tail of the last word must be zero-padded — engines
        rely on this when masking is skipped."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(n_vectors, n_lines))
        packed, _ = pack_vectors(bits)
        n_words = packed.shape[1]
        full = unpack_vectors(packed, n_words * 64)
        assert np.array_equal(full[:n_vectors], bits)
        assert not full[n_vectors:].any()

    def test_empty_batch_packs_to_one_zero_word(self):
        packed, n = pack_vectors(np.zeros((0, 5), dtype=np.int64))
        assert n == 0
        assert packed.shape == (5, 1)
        assert not packed.any()
        assert unpack_vectors(packed, 0).shape == (0, 5)


class TestBusDecoders:
    @given(
        width=st.integers(min_value=1, max_value=16),
        n=st.integers(min_value=0, max_value=100),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_words_to_ints_inverts_binary_expansion(self, width, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << width, size=n, dtype=np.int64)
        bits = (values[:, None] >> np.arange(width)) & 1
        assert np.array_equal(words_to_ints(bits, range(width)), values)

    @given(
        width=st.integers(min_value=1, max_value=16),
        n=st.integers(min_value=0, max_value=100),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_words_to_signed_ints_inverts_twos_complement(self, width, n, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(-(1 << (width - 1)), 1 << (width - 1), size=n)
        codes = values & ((1 << width) - 1)  # two's-complement encode
        bits = (codes[:, None] >> np.arange(width)) & 1
        assert np.array_equal(words_to_signed_ints(bits, range(width)), values)

    @given(
        width=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_decoders_agree_on_nonnegative_values(self, width, seed):
        """Signed and unsigned decoding coincide whenever the sign bit is
        clear (and the full pack -> unpack -> decode chain round-trips)."""
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 1 << (width - 1), size=50, dtype=np.int64)
        bits = (values[:, None] >> np.arange(width)) & 1
        packed, n = pack_vectors(bits)
        decoded_bits = unpack_vectors(packed, n)
        assert np.array_equal(words_to_ints(decoded_bits, range(width)), values)
        assert np.array_equal(
            words_to_signed_ints(decoded_bits, range(width)), values
        )

    @given(
        width=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=0, max_value=100),
        extra=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_decoders_agree_across_bit_dtypes(self, width, n, extra, seed):
        """bool, uint8 and int64 bit planes decode to identical ints, also
        when the bus is a scattered subset of a wider plane."""
        rng = np.random.default_rng(seed)
        plane = rng.integers(0, 2, size=(n, width + extra))
        lanes = rng.permutation(width + extra)[:width]
        expected_unsigned = words_to_ints(plane.astype(np.int64), lanes)
        expected_signed = words_to_signed_ints(plane.astype(np.int64), lanes)
        assert expected_unsigned.dtype == np.int64
        for dtype in (bool, np.uint8):
            unsigned = words_to_ints(plane.astype(dtype), lanes)
            signed = words_to_signed_ints(plane.astype(dtype), lanes)
            assert unsigned.dtype == signed.dtype == np.int64
            assert np.array_equal(unsigned, expected_unsigned)
            assert np.array_equal(signed, expected_signed)

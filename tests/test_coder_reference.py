"""The word-at-a-time coder and bit I/O against bit-at-a-time references.

``reference_encode``/``reference_decode`` are the coder as it was before
renormalization was batched: one settled or pending bit per step, written to
a plain list and read back through ``BitStream.bit``.  They share no code with
``BitWriter``/``BitReader``, so the properties below pin the word-based
coder's output bit for bit on random KT, primed-KT, markov1 and fixed-frequency
models, and the word I/O against single-bit I/O at arbitrary widths and
positions.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ucdis import codec
from ucdis.codec import BitStream, BitReader, BitWriter, KTCoderModel
from ucdis.sources import SourceFamily, context_counts

from reference import FixedModel

_MASK = (1 << 64) - 1
_TOP = 1 << 63
_SECOND = _TOP >> 1
_HALF_MASK = _MASK >> 1


def pack_bits(bits) -> BitStream:
    padded = list(bits) + [0] * (-len(bits) % 8)
    data = bytes(
        int("".join(map(str, padded[i : i + 8])), 2) for i in range(0, len(padded), 8)
    )
    return BitStream(data, len(bits))


def reference_encode(model, symbols) -> BitStream:
    low, high, pending = 0, _MASK, 0
    out = []
    for s in symbols:
        t = model.total()
        lo, hi = model.interval(s)
        span = high - low + 1
        high = low + span * hi // t - 1
        low = low + span * lo // t
        while (low ^ high) & _TOP == 0:
            bit = low >> 63
            out.append(bit)
            out.extend([bit ^ 1] * pending)
            pending = 0
            low = (low << 1) & _MASK
            high = ((high << 1) & _MASK) | 1
        while low & ~high & _SECOND:
            pending += 1
            low = (low << 1) & _HALF_MASK
            high = ((high << 1) & _HALF_MASK) | _TOP | 1
        model.advance(s)
    pending += 1
    bit = 0 if low < _SECOND else 1
    out.append(bit)
    out.extend([bit ^ 1] * pending)
    return pack_bits(out)


def reference_decode(model, stream: BitStream, n: int, ends=None):
    """Decode ``n`` symbols with no framing check; ``ends``, if given, gets
    the number of bits read after each symbol."""
    pos = 64
    code = 0
    for i in range(64):
        code = (code << 1) | stream.bit(i)
    low, high = 0, _MASK
    out = []
    for _ in range(n):
        t = model.total()
        span = high - low + 1
        s, lo, hi = model.locate(((code - low + 1) * t - 1) // span)
        high = low + span * hi // t - 1
        low = low + span * lo // t
        while (low ^ high) & _TOP == 0:
            code = ((code << 1) & _MASK) | stream.bit(pos)
            pos += 1
            low = (low << 1) & _MASK
            high = ((high << 1) & _MASK) | 1
        while low & ~high & _SECOND:
            code = (code & _TOP) | ((code << 1) & _HALF_MASK) | stream.bit(pos)
            pos += 1
            low = (low << 1) & _HALF_MASK
            high = ((high << 1) & _HALF_MASK) | _TOP | 1
        model.advance(s)
        out.append(s)
        if ends is not None:
            ends.append(pos)
    return out


def _under_capacity(freqs):
    total = sum(freqs)
    if total <= codec._MAX_TOTAL:
        return freqs
    return [f * codec._MAX_TOTAL // total for f in freqs]


@st.composite
def coded_inputs(draw):
    """(model factory, symbols): KT from empty or primed counts, memoryless or
    markov1, or a fixed model whose frequencies may be tiny, huge or zero."""
    kind = draw(st.sampled_from(["kt", "kt-primed", "markov1", "fixed"]))
    if kind == "fixed":
        # Frequencies up to 2^61 reach narrowings that settle 62 to 64 bits;
        # lists over the coder's capacity are scaled down under it.
        freqs = draw(st.lists(
            st.one_of(st.integers(0, 3), st.integers(0, 1 << 61)), min_size=1, max_size=12,
        ).map(_under_capacity).filter(any))
        alphabet = [a for a, f in enumerate(freqs) if f]
        x = draw(st.lists(st.sampled_from(alphabet), max_size=400))
        return (lambda: FixedModel(freqs)), x
    k = draw(st.sampled_from([2, 3, 5, 16, 256]) | st.integers(2, 300))
    fam = SourceFamily("markov1" if kind == "markov1" else "memoryless", k)
    # Skewed draws: a few symbols, most of the time the first of them.
    favourites = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4))
    sym = st.one_of(st.sampled_from(favourites), st.integers(0, k - 1))
    x = draw(st.lists(sym, max_size=400))
    if kind != "kt-primed":
        return (lambda: KTCoderModel(fam)), x
    y = np.array(draw(st.lists(sym, max_size=2000)), dtype=np.int64)
    counts = context_counts(fam, y)
    return (lambda: codec._primed_state(fam, counts)), x


class TestCoderAgainstReference:
    @settings(max_examples=300)
    @given(coded_inputs())
    def test_same_stream_and_round_trip(self, case):
        model, x = case
        bits = codec.ac_encode(model(), x)
        assert bits == reference_encode(model(), x)
        assert codec.ac_decode(model(), bits, len(x)) == x
        assert reference_decode(model(), bits, len(x)) == x

    @settings(max_examples=300)
    @given(coded_inputs(), st.binary(max_size=64).flatmap(lambda data: st.tuples(
        st.just(data), st.integers(0, 8 * len(data)))), st.integers(0, 500))
    def test_forged_stream(self, case, payload, n):
        # Streams the encoder never wrote reach the zero-weight padding (k not
        # a power of two) and zero-frequency symbols.  The decoder returns
        # exactly when it reads bit_length + 62 bits, and then what the
        # reference decodes; otherwise it rejects the framing.
        model, _ = case
        stream = BitStream(*payload)
        ends = []
        ref = reference_decode(model(), stream, n, ends)
        limit = stream.bit_length + 62
        consumed = [64] + ends
        # n, and the shortest decode, if any, that reads exactly to the limit
        for m in {n, next((m for m, c in enumerate(consumed) if c == limit), n)}:
            try:
                out = codec.ac_decode(model(), stream, m)
            except codec.FramingError:
                assert consumed[m] != limit
            else:
                assert consumed[m] == limit and out == ref[:m]

    def test_long_pending_runs(self):
        # The middle symbol owns exactly the middle half: every symbol adds one
        # underflow bit and all of them stay pending until termination.
        for n in (0, 1, 63, 64, 65, 500):
            bits = codec.ac_encode(FixedModel([1, 2, 1]), [1] * n)
            assert bits == reference_encode(FixedModel([1, 2, 1]), [1] * n)
            assert bits.bit_length == n + 2
            assert codec.ac_decode(FixedModel([1, 2, 1]), bits, n) == [1] * n

    def test_renormalization_extremes(self):
        # A symbol of probability about 2^-62 settles 62 to 64 bits in one
        # narrowing: the last symbol of [0, 2, 0, 1] leaves low == high (64)
        # under the first model.  Other last steps settle some bits and
        # underflow the rest: [0, 0, 2, 1] settles 62 and underflows 1, and
        # [1, 1] settles 2 and underflows 60 under the first model, and
        # [1, 1, 0] settles 60 and underflows 2 under the second.  The
        # reference decoder's reads per symbol show the widest shifts reached.
        for freqs, widest in (([2**61, 1, 2**61], 64), ([1, 2**62], 63)):
            alphabet = [a for a, f in enumerate(freqs) if f]
            widths = set()
            for n in range(6):
                for x in map(list, itertools.product(alphabet, repeat=n)):
                    bits = codec.ac_encode(FixedModel(freqs), x)
                    assert bits == reference_encode(FixedModel(freqs), x)
                    assert codec.ac_decode(FixedModel(freqs), bits, n) == x
                    ends = []
                    assert reference_decode(FixedModel(freqs), bits, n, ends) == x
                    widths.update(b - a for a, b in zip([64] + ends, ends))
            assert max(widths) == widest and {62, 63} <= widths


class TestWordBitIO:
    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 200).flatmap(
        lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))), max_size=40))
    def test_write_uint_equals_bitwise_writes(self, fields):
        words, bitwise, bits = BitWriter(), BitWriter(), []
        for value, width in fields:
            words.write_uint(value, width)
            for shift in range(width - 1, -1, -1):
                bitwise.write_bit((value >> shift) & 1)
                bits.append((value >> shift) & 1)
        assert words.getvalue() == bitwise.getvalue() == pack_bits(bits)

    @settings(max_examples=300)
    @given(st.binary(max_size=40).flatmap(lambda data: st.tuples(
        st.just(data),
        st.integers(0, 8 * len(data)),
        st.lists(st.integers(0, 200), max_size=12),
    )))
    def test_read_uint_agrees_with_bit(self, case):
        # Random data leaves nonzero pad bits and whole extra bytes past
        # bit_length; the widths run past the end of the stream.
        data, nbits, widths = case
        stream = BitStream(data, nbits)
        r = BitReader(stream)
        pos = 0
        for width in widths:
            want = 0
            for i in range(pos, pos + width):
                want = (want << 1) | stream.bit(i)
            assert r.read_uint(width) == want
            pos += width
        assert r.read_bit() == stream.bit(pos)

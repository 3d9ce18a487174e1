"""Coder tests: strict losslessness, length bounds, determinism, container format."""

import bisect
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ucdis import codec
from ucdis.codec import (
    BitStream,
    Container,
    FramingError,
    KTCoderModel,
    ac_decode,
    ac_encode,
    pack_container,
    unpack_container,
)
from ucdis.sources import (
    MARKOV1,
    MEMORYLESS,
    SourceFamily,
    context_counts,
    markov1,
    memoryless,
    sample_sequence,
)

from reference import FixedModel, ideal_kt_bits, memory_counts
from test_coder_reference import coded_inputs

MEM2 = memoryless(2)
MEM4 = memoryless(4)


def kt_prob(model, symbol):
    """The model's current probability of ``symbol``: its interval over the total."""
    lo, hi = model.interval(symbol)
    return (hi - lo) / model.total()


def kt_cumulative(counts):
    """Reference cumulative frequencies 0, f(0), f(0) + f(1), ... with f = 2c + 1."""
    cum = [0]
    for c in counts:
        cum.append(cum[-1] + 2 * c + 1)
    return cum


@st.composite
def primed_kt_models(draw):
    """A family, a (contexts, k) priming count array with zero rows allowed,
    and up to 50 symbols to advance by."""
    kind = draw(st.sampled_from([MEMORYLESS, MARKOV1]))
    k = draw(st.sampled_from([2, 4, 128, 255, 256]) | st.integers(2, 300))
    contexts = k if kind == MARKOV1 else 1
    counts = draw(arrays(np.int64, (contexts, k), elements=st.integers(0, 10**6)))
    counts *= draw(arrays(np.bool_, (contexts, 1)))
    return SourceFamily(kind, k), counts, draw(st.lists(st.integers(0, k - 1), max_size=50))


class TestKTCoderModel:
    def test_fresh_probabilities(self):
        model = KTCoderModel(MEM2)
        assert kt_prob(model, 0) == 0.5
        assert kt_prob(model, 1) == 0.5

    def test_counted_probability(self):
        model = KTCoderModel(MEM2)
        for s in (0, 0, 0, 1):
            model.advance(s)
        assert kt_prob(model, 0) == 3.5 / 5.0

    def test_intervals_partition_total_exactly(self):
        # freq(a) = 2c+1 sum to 2N+k, so the cumulative intervals tile [0, total)
        rng = np.random.default_rng(0)
        for k in (2, 3, 7, 256):
            model = KTCoderModel(memoryless(k))
            for s in rng.integers(0, k, size=200):
                end = 0
                total = model.total()
                for a in range(k):
                    lo, hi = model.interval(a)
                    assert lo == end and hi > lo
                    end = hi
                assert end == total
                model.advance(int(s))

    def test_locate_matches_interval(self):
        rng = np.random.default_rng(1)
        model = KTCoderModel(memoryless(5))
        for s in rng.integers(0, 5, size=300):
            total = model.total()
            for target in (0, total // 3, total - 1):
                sym, lo, hi = model.locate(target)
                assert lo <= target < hi
                assert (lo, hi) == model.interval(sym)
            model.advance(int(s))

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            codec.encode_ucompm(MEM2, memory_counts(MEM2), [0, 2])

    @settings(max_examples=300)
    @given(primed_kt_models(), st.data())
    def test_matches_cumulative_sum_reference(self, case, data):
        fam, counts, symbols = case
        model = KTCoderModel(fam, counts)
        rows, ctx = counts.tolist(), 0
        for step in range(len(symbols) + 1):
            cum = kt_cumulative(rows[ctx])
            assert model.total() == cum[-1]
            assert [model.interval(a) for a in range(fam.k)] == list(zip(cum, cum[1:]))
            targets = data.draw(st.lists(st.integers(0, cum[-1] - 1), min_size=1, max_size=8))
            # every interval's first and last target, too
            for t in targets + cum[:-1] + [c - 1 for c in cum[1:]]:
                a = bisect.bisect_right(cum, t) - 1
                assert model.locate(t) == (a, cum[a], cum[a + 1])
            if step < len(symbols):
                s = symbols[step]
                model.advance(s)
                rows[ctx][s] += 1
                if fam.kind == MARKOV1:
                    ctx = s


class TestArithmeticCoder:
    def test_empty_sequence(self):
        bits = ac_encode(KTCoderModel(MEM2), [])
        assert bits.bit_length <= 2
        assert ac_decode(KTCoderModel(MEM2), bits, 0) == []

    def test_known_degenerate_model(self):
        bits = ac_encode(FixedModel([1, 0]), [0] * 100)
        assert bits.bit_length <= 2
        assert ac_decode(FixedModel([1, 0]), bits, 100) == [0] * 100

    def test_fixed_model_roundtrip(self):
        rng = np.random.default_rng(2)
        freqs = [5, 1, 9, 2]
        x = rng.integers(0, 4, size=4000).tolist()
        bits = ac_encode(FixedModel(freqs), x)
        assert ac_decode(FixedModel(freqs), bits, len(x)) == x

    def test_randomized_roundtrips_k4(self):
        # 100 seeds at n = 5000, exact reconstruction on each
        for seed in range(100):
            rng = np.random.default_rng(seed)
            theta = rng.dirichlet([0.5] * 4)
            x = rng.choice(4, size=5000, p=theta)
            bits = codec.encode_ucompm(MEM4, memory_counts(MEM4), x)
            assert np.array_equal(codec.decode_ucompm(MEM4, memory_counts(MEM4), bits, 5000), x), f"seed {seed}"

    @pytest.mark.parametrize("kind,k", [(MEMORYLESS, 3), (MARKOV1, 16)])
    def test_decoder_loop_makes_no_model_call(self, kind, k):
        class TablesOnly(KTCoderModel):
            __slots__ = ()

            def total(self):
                raise AssertionError("total() called")

            interval = locate = advance = total

        fam = SourceFamily(kind, k)
        rng = np.random.default_rng(k)
        x = rng.integers(0, k, size=2000).tolist()
        counts = None if kind == MARKOV1 else context_counts(fam, rng.integers(0, k, 3000))
        bits = ac_encode(KTCoderModel(fam, counts), x)
        model = TablesOnly(fam, counts)
        assert ac_decode(model, bits, len(x)) == x
        # the tables are left where advance() leaves them
        stepped = KTCoderModel(fam, counts)
        for s in x:
            stepped.advance(s)
        assert (model.trees, model.weights, model.ctx) == (stepped.trees, stepped.weights, stepped.ctx)

    @pytest.mark.parametrize("kind,k", [(MEMORYLESS, 3), (MEMORYLESS, 256), (MARKOV1, 16)])
    def test_coder_loops_make_no_bit_io_call(self, kind, k, monkeypatch):
        # Both loops keep their bits in locals: the encoder calls write_uint
        # once, for the termination, and the decoder never calls read_uint.
        calls = []

        def count(cls, name):
            original = getattr(cls, name)

            def counted(self, *args):
                calls.append(name)
                return original(self, *args)

            monkeypatch.setattr(cls, name, counted)

        count(codec.BitWriter, "write_uint")
        count(codec.BitReader, "read_uint")
        fam = SourceFamily(kind, k)
        x = np.random.default_rng(k).integers(0, k, size=2000).tolist()
        bits = ac_encode(KTCoderModel(fam), x)
        assert calls == ["write_uint"]
        assert ac_decode(KTCoderModel(fam), bits, len(x)) == x
        assert calls == ["write_uint"]

    def test_zero_frequency_symbol_rejected(self):
        with pytest.raises(ValueError):
            ac_encode(FixedModel([1, 0]), [1])

    def test_forged_length_overruns(self):
        # One zero byte claimed to carry 200000 symbols: the decoder reads past
        # bit_length + 62 bits after 1 symbol at k=256 and after 5215 at k=2.
        for k, after in ((256, 1), (2, 5215)):
            with pytest.raises(FramingError, match=f"overrun after {after} of 200000 symbols"):
                codec.decode_ucompm(memoryless(k), memory_counts(memoryless(k)), BitStream(b"\x00", 8), 200_000)

    def test_stream_must_be_consumed_exactly(self):
        x = sample_sequence(MEM4, [0.1, 0.2, 0.3, 0.4], 500, seed=3)
        bits = codec.encode_ucompm(MEM4, memory_counts(MEM4), x)
        with pytest.raises(FramingError):  # 8 extra trailing bits
            codec.decode_ucompm(MEM4, memory_counts(MEM4), BitStream(bits.data + b"\x00", bits.bit_length + 8), 500)
        with pytest.raises(FramingError):  # a header n one short
            codec.decode_ucompm(MEM4, memory_counts(MEM4), bits, 499)
        with pytest.raises(FramingError):  # no coded stream is shorter than 2 bits
            ac_decode(KTCoderModel(MEM2), BitStream(b"", 0), 0)


class TestSchedule:
    """``KTCoderModel.schedule``, which ``ac_encode`` reads, against the
    step-by-step total()/interval()/advance() walk that ``ac_decode`` mirrors."""

    @staticmethod
    def joined(model, x):
        blocks = list(model.schedule(x))
        assert all(len(lo) for lo, _, _ in blocks)
        return [tuple(map(int, row)) for block in blocks for row in zip(*block)]

    @staticmethod
    def walk(model, x):
        out = []
        for s in x:
            t = model.total()
            out.append((*model.interval(s), t))
            model.advance(s)
        return out

    @settings(max_examples=300)
    @given(coded_inputs().filter(lambda case: isinstance(case[0](), KTCoderModel)))
    def test_equals_step_by_step_walk(self, case):
        model, x = case
        assert self.joined(model(), x) == self.walk(model(), x)

    @pytest.mark.parametrize("kind,k", [(MEMORYLESS, 3), (MARKOV1, 16)])
    def test_across_blocks(self, kind, k):
        # three full blocks and a short one; memoryless k=3 is primed
        fam = SourceFamily(kind, k)
        rng = np.random.default_rng(k)
        x = rng.integers(0, k, size=3 * codec._BLOCK + 5)
        counts = None if kind == MARKOV1 else context_counts(fam, rng.integers(0, k, 3000))
        schedule = self.joined(KTCoderModel(fam, counts), x)
        assert schedule == self.walk(KTCoderModel(fam, counts), x.tolist())
        assert [len(b[0]) for b in KTCoderModel(fam, counts).schedule(x)] == [codec._BLOCK] * 3 + [5]
        bits = ac_encode(KTCoderModel(fam, counts), x)
        assert ac_decode(KTCoderModel(fam, counts), bits, x.size) == x.tolist()

    def test_coder_loop_makes_no_model_call(self):
        class ScheduleOnly(KTCoderModel):
            __slots__ = ()

            def total(self):
                raise AssertionError("total() called")

            interval = advance = total

        x = np.random.default_rng(6).integers(0, 5, size=400)
        bits = ac_encode(ScheduleOnly(memoryless(5)), x)
        assert bits == codec.encode_ucompm(memoryless(5), memory_counts(memoryless(5)), x)

    def test_total_over_capacity(self):
        # 2 * 2^62 + k would wrap in int64 and slip under the check unclipped
        for counts in ([[2**62, 0]], [[2**61, 0]], [[2**62 - 1, 2**62]]):
            with pytest.raises(ValueError, match="capacity"):
                ac_encode(KTCoderModel(MEM2, counts), [0, 1])

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_out_of_alphabet_symbol(self, k):
        # numpy indexing would wrap -1 to the last symbol without the check
        for fam in (memoryless(k), markov1(k)):
            for bad in (-1, k):
                with pytest.raises(ValueError):
                    ac_encode(KTCoderModel(fam), [bad])
                with pytest.raises(ValueError):
                    ac_encode(KTCoderModel(fam), [0, bad])


class TestUcomp:
    def test_length_bound_every_instance(self):
        rng = np.random.default_rng(3)
        for fam in (MEM2, memoryless(3), MEM4, memoryless(256)):
            for _ in range(60):
                n = int(rng.integers(0, 1200))
                x = rng.integers(0, fam.k, size=n)
                bits = codec.encode_ucompm(fam, memory_counts(fam), x)
                ideal = ideal_kt_bits(fam, x)
                assert bits.bit_length <= math.ceil(ideal) + 2
                assert bits.bit_length >= math.floor(ideal)  # termination never undercuts
                assert np.array_equal(codec.decode_ucompm(fam, memory_counts(fam), bits, n), x)

    def test_determinism(self):
        x = sample_sequence(MEM4, [0.1, 0.2, 0.3, 0.4], 2000, seed=17)
        a = codec.encode_ucompm(MEM4, memory_counts(MEM4), x)
        b = codec.encode_ucompm(MEM4, memory_counts(MEM4), x)
        assert a.data == b.data and a.bit_length == b.bit_length

    def test_ideal_matches_sequential_product(self):
        # closed-form gamma route against the step-by-step KT probabilities
        rng = np.random.default_rng(4)
        for fam in (memoryless(3), markov1(2)):
            x = rng.integers(0, fam.k, size=300)
            model, nats = KTCoderModel(fam), 0.0
            for s in x.tolist():
                nats -= math.log(kt_prob(model, s))
                model.advance(s)
            assert ideal_kt_bits(fam, x) == pytest.approx(nats / math.log(2), abs=1e-7)

    def test_fixed_theta_redundancy_band(self):
        # uniform binary source, n = 1000: mean emitted length minus entropy
        n, trials = 1000, 2000
        lens = np.empty(trials)
        for t in range(trials):
            x = sample_sequence(MEM2, [0.5, 0.5], n, seed=90_000 + t)
            lens[t] = codec.encode_ucompm(MEM2, memory_counts(MEM2), x).bit_length
        avg_red = lens.mean() - n
        assert 3.6 <= avg_red <= 7.6
        # converse: no code beats the entropy on average
        stderr = lens.std(ddof=1) / math.sqrt(trials)
        assert lens.mean() >= n - 3 * stderr


class TestUcompm:
    def test_empty_memory_matches_ucomp(self):
        x = sample_sequence(MEM2, [0.3, 0.7], 500, seed=21)
        a = codec.encode_ucompm(MEM2, np.zeros((1, 2), np.int64), x)
        b = codec.encode_ucompm(MEM2, memory_counts(MEM2, np.array([], dtype=np.int64)), x)
        assert a == b == ac_encode(KTCoderModel(MEM2), x)

    def test_priming_equivalence(self):
        # emitted length sits in (ideal primed KT codelength, ideal + 2]
        rng = np.random.default_rng(5)
        for fam in (MEM2, MEM4, markov1(3)):
            for _ in range(40):
                theta_flat = rng.dirichlet([0.6] * fam.k)
                theta = np.tile(theta_flat, (fam.k, 1)) if fam.kind == "markov1" else theta_flat
                y = sample_sequence(fam, theta, int(rng.integers(0, 2000)), seed=int(rng.integers(1 << 40)))
                x = sample_sequence(fam, theta, int(rng.integers(1, 800)), seed=int(rng.integers(1 << 40)))
                bits = codec.encode_ucompm(fam, memory_counts(fam, y), x)
                ideal = ideal_kt_bits(fam, x, memory=y)
                assert math.floor(ideal) <= bits.bit_length <= math.ceil(ideal) + 2
                assert np.array_equal(codec.decode_ucompm(fam, memory_counts(fam, y), bits, x.size), x)

    def test_decoder_total_over_capacity(self):
        # the decoder raises the encoder's error at the first symbol coded
        # against a context total above capacity, where it misread the
        # stream before; the markov1 stream starts in context 0, as coded
        big = 2**61
        for fam, counts, x in ((MEM2, [[big, 0]], [0, 1, 0, 1]),
                               (markov1(2), [[0, 0], [big, 0]], [1, 0, 1, 1])):
            counts = np.array(counts)
            with pytest.raises(ValueError, match="model total exceeds coder capacity"):
                codec.encode_ucompm(fam, counts, x)
            bits = codec.encode_ucompm(fam, np.zeros_like(counts), x)
            with pytest.raises(ValueError, match="model total exceeds coder capacity"):
                codec.decode_ucompm(fam, counts, bits, len(x))

    def test_unvisited_context_over_capacity_is_not_checked(self):
        # the encoder's rule is per symbol: a context no symbol is coded in
        # may exceed capacity on both sides
        fam, counts, x = markov1(2), np.array([[3, 1], [2**61, 0]]), [0, 0, 0]
        bits = codec.encode_ucompm(fam, counts, x)
        assert codec.decode_ucompm(fam, counts, bits, len(x)).tolist() == x

    def test_memory_shortens_matched_sequences(self):
        theta = [0.85, 0.1, 0.05]
        fam = memoryless(3)
        y = sample_sequence(fam, theta, 5000, seed=31)
        total_plain, total_primed = 0, 0
        for t in range(40):
            x = sample_sequence(fam, theta, 400, seed=600 + t)
            total_plain += codec.encode_ucompm(fam, memory_counts(fam), x).bit_length
            total_primed += codec.encode_ucompm(fam, memory_counts(fam, y), x).bit_length
        assert total_primed < total_plain


class TestBitStream:
    def test_writer_reader_roundtrip(self):
        w = codec.BitWriter()
        w.write_uint(0b1011, 4)
        w.write_uint(513, 10)
        bits = w.getvalue()
        assert bits.bit_length == 14
        r = codec.BitReader(bits)
        assert r.read_uint(4) == 0b1011
        assert r.read_uint(10) == 513
        assert r.read_bit() == 0  # zero padding past the end

    def test_trailing_pad_is_zero(self):
        w = codec.BitWriter()
        w.write_uint(0b111, 3)
        bits = w.getvalue()
        assert bits.data == bytes([0b11100000])

    def test_inconsistent_length(self):
        with pytest.raises(ValueError):
            BitStream(b"\x00", 9)


class TestContainer:
    def test_roundtrip(self):
        payload = BitStream(b"\xde\xad\xbe", 23)
        c = Container("ducompm", "memoryless", 256, 1000, 32768, 1e-6, payload)
        blob = pack_container(c)
        out = unpack_container(blob)
        assert out == c

    def test_bad_magic(self):
        payload = BitStream(b"", 0)
        blob = pack_container(Container("ucomp", "memoryless", 2, 0, 0, 0.0, payload))
        with pytest.raises(FramingError):
            unpack_container(b"XXXX" + blob[4:])

    @pytest.mark.parametrize("field, value", [
        ("k", 2**16), ("n", 2**32), ("m", 2**32), ("n", -1),
    ])
    def test_field_wider_than_the_header(self, field, value):
        fields = dict(strategy="ucomp", family_kind="memoryless", k=2, n=4, m=0, p_e=0.0,
                      payload=BitStream(b"", 0))
        fields[field] = value
        with pytest.raises(ValueError, match=f"field {field}={value} "):
            pack_container(Container(**fields))

    def test_payload_wider_than_the_header(self):
        # a stand-in payload claims 2^32 bits without a 512 MiB buffer
        payload = SimpleNamespace(data=b"", bit_length=2**32)
        with pytest.raises(ValueError, match="field bit_length="):
            pack_container(Container("ucomp", "memoryless", 2, 4, 0, 0.0, payload))

    def test_truncated_header(self):
        with pytest.raises(FramingError):
            unpack_container(b"UCDS\x01")

    def test_payload_length_mismatch(self):
        payload = BitStream(b"\xff\xff", 16)
        blob = pack_container(Container("ucomp", "memoryless", 2, 4, 0, 0.0, payload))
        with pytest.raises(FramingError):
            unpack_container(blob + b"\x00")
        with pytest.raises(FramingError):
            unpack_container(blob[:-1])

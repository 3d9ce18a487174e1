"""Strictly lossless coding core: integer arithmetic coder driven by KT counts.

The coder is a classic carry-free integer-interval coder (64-bit registers,
MSB-first bit output, the deferred-underflow renormalization of Witten, Neal
and Cleary, CACM 30(6), 1987).  Probability models feed it exact integer
frequency intervals; the Krichevsky-Trofimov model, ``KTCoderModel``, uses
freq(a) = 2*count(a) + 1 over total = 2*N + k so the implied probabilities
(count + 1/2)/(N + k/2) are exact rationals, keeping encoder and decoder
states identical bit for bit.

Each symbol renormalizes in one step, with no call and no loop.  After a
narrowing, low and high agree on their nb leading bits: those are settled and
shift out together.  The underflow doublings follow; the textbook coder makes
one while bit 62 is 1 in low and 0 in high (low in the second quarter, high
in the third).  A doubling shifts a 0 into low and a 1 into high, so the
doublings stop at the first original position, from bit 62 down, where that
pattern fails.  With e3 = low & ~high, their number is the count of leading
ones of e3 below bit 63, nu = 63 - ((e3 & _HALF_MASK) ^ _HALF_MASK).bit_length()
whenever e3 & _SECOND, and one shift by nu applies them all.  The settle
shifts nb zeros into e3's low bits, so nu <= 63 - nb when nb < 64, and
nb = 64 means low == high, which leaves no underflow: nb + nu <= 64.

The encoder knows its input, so it reads every interval from the model's
``schedule``, which computes them from counts with numpy ahead of the coder
loop.  The decoder learns each symbol only from the interval it locates, and
its loop makes no model call either: it reads and updates the model's tables,
a Fenwick tree over the interval weights per context, in place.

Coding with a shared memory (ucompm) starts that model from the memory's
counts on both sides, the memory y entering only as ``context_counts(family,
y)``; zero counts give universal coding without memory (ucomp).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .sources import MARKOV1, MEMORYLESS, SourceFamily, _validate_counts, _validate_sequence

_STATE_BITS = 64
_MASK = (1 << _STATE_BITS) - 1
_TOP = 1 << (_STATE_BITS - 1)
_SECOND = _TOP >> 1
_HALF_MASK = _MASK >> 1
_MAX_TOTAL = (_MASK >> 2) + 2  # totals above this could collapse an interval
_BLOCK = 1 << 14  # symbols per schedule block: bounds the schedule's memory


class FramingError(ValueError):
    """Bitstream or container is malformed (bad magic, truncated payload, ...)."""


@dataclass(frozen=True)
class BitStream:
    """Packed bits, MSB-first within bytes; trailing pad bits are zero."""

    data: bytes
    bit_length: int

    def __post_init__(self):
        if self.bit_length < 0 or self.bit_length > 8 * len(self.data):
            raise ValueError("bit_length inconsistent with byte count")

    def bit(self, i: int) -> int:
        """The i-th bit; positions past bit_length read as zero padding."""
        if i >= self.bit_length:
            return 0
        return (self.data[i >> 3] >> (7 - (i & 7))) & 1


class BitWriter:
    """Accumulates bits MSB-first in an integer word and flushes whole bytes
    once 64 or more bits are held."""

    __slots__ = ("buf", "acc", "nacc")

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nacc = 0

    def write_bit(self, b: int):
        self.write_uint(b, 1)

    def write_uint(self, value: int, nbits: int):
        """Append the low ``nbits`` bits of ``value``, most significant first."""
        acc = (self.acc << nbits) | (value & ((1 << nbits) - 1))
        nacc = self.nacc + nbits
        if nacc >= 64:
            keep = nacc & 7
            self.buf += (acc >> keep).to_bytes(nacc >> 3, "big")
            acc &= (1 << keep) - 1
            nacc = keep
        self.acc = acc
        self.nacc = nacc

    def getvalue(self) -> BitStream:
        nacc = self.nacc
        pad = -nacc & 7
        tail = (self.acc << pad).to_bytes((nacc + pad) >> 3, "big")
        return BitStream(bytes(self.buf) + tail, 8 * len(self.buf) + nacc)


class BitReader:
    """Reads bits MSB-first through a word window refilled 64 bits at a time.

    Positions at or past ``bit_length`` read as zero, also when the stream's
    pad bits or extra bytes are not.
    """

    __slots__ = ("data", "next", "window", "nwin")

    def __init__(self, stream: BitStream):
        nbits = stream.bit_length
        data = stream.data[: (nbits + 7) >> 3]
        if nbits & 7:
            data = data[:-1] + bytes([data[-1] & (0xFF00 >> (nbits & 7)) & 0xFF])
        self.data = data
        self.next = 0  # first byte not yet in the window
        self.window = 0  # its low nwin bits are the next bits to read
        self.nwin = 0

    def read_bit(self) -> int:
        return self.read_uint(1)

    def read_uint(self, nbits: int) -> int:
        nwin = self.nwin
        if nbits > nwin:
            nbytes = ((nbits - nwin + 63) >> 6) << 3
            i = self.next
            chunk = self.data[i : i + nbytes]
            word = int.from_bytes(chunk, "big") << ((nbytes - len(chunk)) << 3)
            self.window = ((self.window & ((1 << nwin) - 1)) << (nbytes << 3)) | word
            self.next = i + nbytes
            nwin += nbytes << 3
        nwin -= nbits
        self.nwin = nwin
        return (self.window >> nwin) & ((1 << nbits) - 1)


class KTCoderModel:
    """Adaptive KT model over a sequence; context = previous symbol for markov1.

    Symbol a's interval in a context has weight w(a) = 2*count(a) + 1.  Each
    context keeps its weight list and a Fenwick tree over the weights, padded
    with weight 0 up to a power-of-two size: ``tree[i]`` sums the weights of
    symbols i - (i & -i) .. i - 1, so the root ``tree[size]`` is the
    context's total 2N + k.  ``counts``, a (contexts, k) array such as
    ``sources.context_counts`` returns, primes the model; the initial context
    is fixed to symbol 0 on both sides, also after priming.

    ``ac_decode`` reads and updates ``trees`` and ``weights`` in place, with
    no method call: coding a adds ``inc`` to w(a) and to the tree nodes above
    it.  The tree size, ``len(tree) - 1``, fixes the descent and those nodes.
    """

    __slots__ = ("k", "markov", "ctx", "trees", "weights", "inc")

    def __init__(self, family: SourceFamily, counts=None):
        k = family.k
        self.k = k
        self.markov = family.kind == MARKOV1
        self.ctx = 0
        self.inc = 2
        size = 1 << (k - 1).bit_length()
        if counts is None:
            counts = np.zeros((k if self.markov else 1, k), np.int64)
        # Unsigned, so that 2*count + 1 is exact for every int64 count.  The
        # tree's nodes are differences of prefix sums over the padded weights.
        w = np.zeros((len(counts), size + 1), np.uint64)
        w[:, 1 : k + 1] = 2 * np.asarray(counts, np.int64).astype(np.uint64) + 1
        pref = w.cumsum(axis=1)
        idx = np.arange(size + 1)
        self.weights = w[:, 1 : k + 1].tolist()
        self.trees = (pref - pref[:, idx - (idx & -idx)]).tolist()

    def total(self) -> int:
        return self.trees[self.ctx][-1]

    def interval(self, symbol: int) -> tuple[int, int]:
        tree = self.trees[self.ctx]
        lo = 0
        i = symbol
        while i:
            lo += tree[i]
            i -= i & (-i)
        return lo, lo + self.weights[self.ctx][symbol]

    def locate(self, target: int) -> tuple[int, int, int]:
        tree = self.trees[self.ctx]
        pos = 0
        rem = target
        step = len(tree) >> 1  # size / 2, as len(tree) = size + 1
        while step:
            w = tree[pos + step]
            if w <= rem:
                rem -= w
                pos += step
            step >>= 1
        lo = target - rem
        return pos, lo, lo + self.weights[self.ctx][pos]

    def advance(self, symbol: int):
        tree = self.trees[self.ctx]
        inc = self.inc
        i = symbol + 1
        while i < len(tree):
            tree[i] += inc
            i += i & -i
        self.weights[self.ctx][symbol] += inc
        if self.markov:
            self.ctx = symbol

    def schedule(self, symbols):
        """Yield the coder intervals of ``symbols`` as int64 arrays (lo, hi, total),
        one block of up to ``_BLOCK`` symbols at a time.

        They are what ``total``, ``interval`` and ``advance`` give step by step
        from the model's current state, which is left as it is.  Symbol i in
        context c (0, or for markov1 the previous symbol) has
        lo = 2*below + x_i, hi = lo + 2*same + 1 and total = 2*N_c + k, where
        same, below and N_c count the symbols before it in context c (primed
        counts included) equal to x_i, smaller than x_i and in all.  Each
        count of earlier symbols that share a key is one stable sort; ``below``
        sums, over the bits b set in x_i, the earlier symbols whose key
        (c, x) agrees with (c, x_i) above bit b and has 0 at b.
        """
        x = _validate_sequence(symbols, self.k)
        k = self.k
        bits = (k - 1).bit_length()
        # the counts (w - 1) / 2, read as unsigned because w can pass 2^63
        rows = (np.array(self.weights, np.uint64) >> 1).astype(np.int64)
        # (c, x) packed as c << bits | x, in the narrowest unsigned type:
        # numpy's stable argsort is a radix sort on 8- and 16-bit keys
        key_type = np.min_scalar_type((len(rows) << bits) - 1)
        ctx = self.ctx
        for start in range(0, len(x), _BLOCK):
            xb = x[start : start + _BLOCK]
            if self.markov:
                cb = np.concatenate(([ctx], xb[:-1]))
                ctx = int(xb[-1])
            else:
                cb = 0
            cum = rows.cumsum(axis=1)
            key = ((cb << bits) | xb).astype(key_type)
            same, below, prev = _earlier_counts(key, bits)
            below += (cum - rows)[cb, xb]
            # prev counts the earlier symbols in the context.  Clipping keeps
            # 2*N_c + k inside int64 and still above _MAX_TOTAL.
            n_c = np.minimum(cum[:, -1][cb] + prev, _MAX_TOTAL >> 1)
            lo = 2 * below + xb
            yield lo, lo + 2 * (rows[cb, xb] + same) + 1, 2 * n_c + k
            rows += np.bincount(cb * k + xb, minlength=rows.size).reshape(rows.shape)


def _earlier_counts(key: np.ndarray, bits: int):
    """For each position i, the numbers of positions j < i whose key equals
    key[i] (same), agrees with key[i] above its low ``bits`` bits and is
    smaller in them (below), and agrees with key[i] above them (prev)."""
    same = prev = _earlier_equal(key)
    below = np.zeros_like(same)
    for b in range(bits):
        # earlier keys equal above bit b, less those equal through bit b
        cur = _earlier_equal(key >> (b + 1))
        below += ((key >> b) & 1) * (cur - prev)
        prev = cur
    return same, below, prev


def _earlier_equal(key: np.ndarray) -> np.ndarray:
    """For each position i, the number of positions j < i with key[j] == key[i]."""
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    pos = np.arange(len(key))
    first = np.ones(len(key), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    out = np.empty_like(pos)
    out[order] = pos - np.maximum.accumulate(pos * first)
    return out


def ac_encode(model, symbols) -> BitStream:
    """Arithmetic-encode ``symbols`` against a sequential integer-frequency model.

    The coder loop makes no model call: ``model.schedule(symbols)`` yields
    nonempty blocks of integer arrays (lo, hi, total), the interval and total
    of each symbol in turn, and the capacity check runs once per block.  The
    emitted length never exceeds the model's ideal codelength
    -log2 prod p(x_i | x^(i-1)) by more than 2 bits.

    Each symbol makes the one renormalization step of the module docstring
    and no call: it writes its settled bits, with the pending underflow bits
    spliced in after the first, into ``BitWriter``'s accumulator, which the
    loop keeps in locals and flushes in whole bytes as ``write_uint`` does,
    then adds its underflow count to ``pending``.  A ``BitWriter`` takes the
    accumulator back for the termination and ``getvalue``.
    """
    STATE_BITS, MASK, TOP, SECOND, HALF_MASK = _STATE_BITS, _MASK, _TOP, _SECOND, _HALF_MASK
    low = 0
    high = MASK
    pending = 0
    w = BitWriter()
    buf = w.buf
    acc = nacc = 0
    for los, his, totals in model.schedule(symbols):
        if totals.max() > _MAX_TOTAL:
            raise ValueError("model total exceeds coder capacity")
        for lo, hi, t in zip(los.tolist(), his.tolist(), totals.tolist()):
            span = high - low + 1
            high = low + span * hi // t - 1
            low = low + span * lo // t
            # low and high agree on their nb leading bits: those are settled.
            nb = STATE_BITS - (low ^ high).bit_length()
            if nb:
                if pending:
                    # The pending underflow bits are the inverse of the first
                    # settled bit and follow it; adding (2^pending - 1) << (nb - 1)
                    # splices them in for either value of that bit.
                    acc = (acc << (nb + pending)) | ((low >> (STATE_BITS - nb)) + (((1 << pending) - 1) << (nb - 1)))
                    nacc += pending
                    pending = 0
                else:
                    acc = (acc << nb) | (low >> (STATE_BITS - nb))
                nacc += nb
                if nacc >= 64:
                    keep = nacc & 7
                    buf += (acc >> keep).to_bytes(nacc >> 3, "big")
                    acc &= (1 << keep) - 1
                    nacc = keep
                low = (low << nb) & MASK
                high = ((high << nb) & MASK) | ((1 << nb) - 1)
            # nu underflow doublings in one shift; their bits stay pending
            e3 = low & ~high
            if e3 & SECOND:
                nu = 63 - ((e3 & HALF_MASK) ^ HALF_MASK).bit_length()
                pending += nu
                low = (low << nu) & HALF_MASK
                high = ((high << nu) & HALF_MASK) | TOP | ((1 << nu) - 1)
    w.acc = acc
    w.nacc = nacc
    # Quarter-disambiguation termination: two bits plus any pending underflow
    # bits pin a dyadic interval inside [low, high] regardless of how the
    # stream is padded afterwards.  The final window is wider than a quarter,
    # so the emitted total stays within ideal codelength + 2 on every input.
    # The first of the two bits is 0 if low < _SECOND else 1; the second and
    # the pending bits are its inverse, spliced in as above.
    pending += 1
    w.write_uint((low >> (STATE_BITS - 2)) + (1 << pending) - 1, pending + 1)
    return w.getvalue()


def ac_decode(model, bits: BitStream, n: int):
    """Decode ``n`` symbols; the model must mirror the encoder's updates.

    The coder loop makes no model call.  It reads the model's tables, as
    ``KTCoderModel`` lays them out, and updates them in place as ``advance``
    would: it keeps the current context's tree and weights in locals, finds
    each symbol by a Fenwick descent over the tree, whose root is the total,
    adds ``inc`` to its weight and to the tree nodes above it, and for
    markov1 switches to the decoded symbol's context.  The descent steps and
    the nodes above each symbol follow from the tree size, once per call.
    A symbol whose context total exceeds ``_MAX_TOTAL`` raises the encoder's
    ``ValueError``, by the encoder's rule: only the totals the stream's
    symbols are coded against are checked.

    The code register is kept as its offset ``v = code - low`` in the
    interval, so the target is ((v + 1) * total - 1) // span.  A settle shift
    and an underflow shift both double v and append a stream bit, so each
    symbol shifts ``nb + nu`` bits into v at once (module docstring), and
    ``nb + nu <= 64`` lets one 64-bit refill of a local window over
    ``BitReader(bits).data`` serve every symbol.  That data has its pad bits
    zeroed, and the window reads zeros past its end, so positions at or past
    ``bit_length`` read as zero as ``BitReader`` reads them.

    A stream the encoder wrote is consumed to exactly ``bit_length + 62``
    bits: the 64-bit preload and the renormalization reads match the encoder's
    output less its two termination bits.  Reading past that, or stopping
    short of it, means the stream or ``n`` is forged: FramingError.
    """
    STATE_BITS, MASK, TOP, SECOND, HALF_MASK = _STATE_BITS, _MASK, _TOP, _SECOND, _HALF_MASK
    data = BitReader(bits).data
    limit = bits.bit_length + STATE_BITS - 2
    used = STATE_BITS
    if used > limit:
        raise FramingError(f"payload of {bits.bit_length} bits is shorter than any coded stream")
    v = int.from_bytes(data[:8].ljust(8, b"\0"), "big")
    # the low nwin bits of window are the stream's next bits; data[pos:] follows
    pos = 8
    window = nwin = 0
    low = 0
    high = MASK
    out = []
    append = out.append
    trees, weight_rows, markov = model.trees, model.weights, model.markov
    inc, max_total = model.inc, _MAX_TOTAL
    tree = trees[model.ctx]
    weights = weight_rows[model.ctx]
    top = len(tree) - 1
    steps = [1 << b for b in reversed(range(top.bit_length() - 1))]
    # up[i]: i and the nodes above it, i + (i & -i), ... up to top
    up = [()] * (2 * top + 1)
    for i in range(top, 0, -1):
        up[i] = (i,) + up[i + (i & -i)]
    for _ in range(n):
        t = tree[top]
        if t > max_total:
            raise ValueError("model total exceeds coder capacity")
        span = high - low + 1
        target = ((v + 1) * t - 1) // span
        # s ends as the last symbol whose interval starts at or below target.
        # steps leave out top itself: target < t = tree[top] never takes it.
        s = 0
        rem = target
        for step in steps:
            w = tree[s + step]
            if w <= rem:
                rem -= w
                s += step
        lo = target - rem
        high = low + span * (lo + weights[s]) // t - 1
        a = span * lo // t
        low += a
        v -= a
        # sh = nb + nu bits shift into v: the settled ones, then the underflow ones
        sh = STATE_BITS - (low ^ high).bit_length()
        if sh:
            low = (low << sh) & MASK
            high = ((high << sh) & MASK) | ((1 << sh) - 1)
        e3 = low & ~high
        if e3 & SECOND:
            nu = 63 - ((e3 & HALF_MASK) ^ HALF_MASK).bit_length()
            low = (low << nu) & HALF_MASK
            high = ((high << nu) & HALF_MASK) | TOP | ((1 << nu) - 1)
            sh += nu
        if sh:
            used += sh
            if sh > nwin:
                chunk = data[pos : pos + 8]
                window = ((window & ((1 << nwin) - 1)) << 64) | int.from_bytes(chunk.ljust(8, b"\0"), "big")
                pos += 8
                nwin += 64
            nwin -= sh
            v = (v << sh) | ((window >> nwin) & ((1 << sh) - 1))
            if used > limit:
                raise FramingError(
                    f"payload of {bits.bit_length} bits overrun after {len(out) + 1} of {n} symbols"
                )
        for i in up[s + 1]:
            tree[i] += inc
        weights[s] += inc
        if markov:
            tree = trees[s]
            weights = weight_rows[s]
        append(s)
    if markov and out:
        model.ctx = out[-1]
    if used != limit:
        raise FramingError(
            f"{n} symbols used {used - STATE_BITS + 2} of {bits.bit_length} payload bits"
        )
    return out


def _primed_state(family: SourceFamily, counts) -> KTCoderModel:
    return KTCoderModel(family, _validate_counts(family, counts))


def encode_ucompm(family: SourceFamily, counts, x) -> BitStream:
    """Universal coding of x with the KT model primed by the shared memory's
    ``counts``, ``context_counts(family, y)`` of the memory y; all-zero
    counts (an empty memory) are ucomp."""
    return ac_encode(_primed_state(family, counts), x)


def decode_ucompm(family: SourceFamily, counts, bits: BitStream, n: int) -> np.ndarray:
    return np.array(ac_decode(_primed_state(family, counts), bits, n), dtype=np.int64)


# --- container format -------------------------------------------------------

MAGIC = b"UCDS"
VERSION = 1
STRATEGY_IDS = {"ucomp": 0, "ucompm": 1, "ducompm": 2}
FAMILY_IDS = {MEMORYLESS: 0, MARKOV1: 1}
_STRATEGY_NAMES = {v: k for k, v in STRATEGY_IDS.items()}
_FAMILY_NAMES = {v: k for k, v in FAMILY_IDS.items()}
_HEADER = struct.Struct(">4sBBBHIIdI")


@dataclass(frozen=True)
class Container:
    strategy: str
    family_kind: str
    k: int
    n: int
    m: int
    p_e: float
    payload: BitStream


def pack_container(c: Container) -> bytes:
    """Header plus payload; ValueError names a field too wide for the header."""
    # the widths of _HEADER's k, n, m and bit-length fields
    for name, value, bits in (("k", c.k, 16), ("n", c.n, 32), ("m", c.m, 32),
                              ("bit_length", c.payload.bit_length, 32)):
        if not 0 <= value < 1 << bits:
            raise ValueError(f"container field {name}={value} does not fit its "
                             f"{bits}-bit unsigned header field")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        STRATEGY_IDS[c.strategy],
        FAMILY_IDS[c.family_kind],
        c.k,
        c.n,
        c.m,
        c.p_e,
        c.payload.bit_length,
    )
    return header + c.payload.data


def unpack_container(blob: bytes) -> Container:
    if len(blob) < _HEADER.size:
        raise FramingError("container shorter than header")
    magic, version, strat, fam, k, n, m, p_e, bitlen = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FramingError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FramingError(f"unsupported version {version}")
    if strat not in _STRATEGY_NAMES or fam not in _FAMILY_NAMES:
        raise FramingError("unknown strategy or family id")
    payload = blob[_HEADER.size :]
    if len(payload) != (bitlen + 7) // 8:
        raise FramingError(
            f"payload length {len(payload)} bytes inconsistent with {bitlen} bits"
        )
    return Container(
        strategy=_STRATEGY_NAMES[strat],
        family_kind=_FAMILY_NAMES[fam],
        k=k,
        n=n,
        m=m,
        p_e=p_e,
        payload=BitStream(payload, bitlen),
    )

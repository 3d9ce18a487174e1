"""Reference models the tests compare the codec against.

``FixedModel`` is a non-adaptive integer-frequency model with the coder's
model interface (known-parameter coding); ``ideal_kt_bits`` is the ideal KT
codelength that the arithmetic coder's output must stay within 2 bits of;
``type_rank``/``type_unrank`` are the per-symbol enumerative rank and unrank
that ducompm's blocked ones must agree with (its rank builds the blocks with
a per-symbol loop for short sequences and with numpy product trees for long
ones; its unrank guesses blocks and checks them); ``reg_gamma_upper`` is the
chi-square tail mass that ``chi2_quantile_upper``'s quantiles are checked
against.
"""

import math

import numpy as np
from scipy.special import gammaincc

from ucdis.sources import SourceFamily, context_counts


class FixedModel:
    """Non-adaptive integer-frequency model (known-parameter coding).

    Besides the step-by-step ``total``/``interval``/``locate``/``advance``
    interface, it carries the tables that ``ac_decode``'s loop reads, laid
    out as ``KTCoderModel``'s: one context, a Fenwick tree over the
    frequencies padded with 0 to a power-of-two size, and an increment of 0,
    so no tree index changes as symbols are coded.
    """

    __slots__ = ("freqs", "cum", "trees", "weights", "inc", "markov", "ctx")

    def __init__(self, freqs):
        self.freqs = [int(f) for f in freqs]
        if any(f < 0 for f in self.freqs) or sum(self.freqs) < 1:
            raise ValueError("frequencies must be nonnegative with positive total")
        self.cum = [0]
        for f in self.freqs:
            self.cum.append(self.cum[-1] + f)
        size = 1 << (len(self.freqs) - 1).bit_length()
        tree = [0] * (size + 1)
        for a, f in enumerate(self.freqs):
            i = a + 1
            while i <= size:
                tree[i] += f
                i += i & -i
        self.trees = [tree]
        self.weights = [self.freqs]
        self.inc = 0
        self.markov = False
        self.ctx = 0

    def total(self) -> int:
        return self.cum[-1]

    def interval(self, symbol: int) -> tuple[int, int]:
        lo, hi = self.cum[symbol], self.cum[symbol + 1]
        if lo == hi:
            raise ValueError(f"symbol {symbol} has zero frequency")
        return lo, hi

    def locate(self, target: int) -> tuple[int, int, int]:
        # binary search for the interval containing target
        lo, hi = 0, len(self.freqs)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.cum[mid] <= target:
                lo = mid
            else:
                hi = mid
        return lo, self.cum[lo], self.cum[lo + 1]

    def advance(self, symbol: int):
        pass

    def schedule(self, symbols):
        """All of ``symbols``' intervals and totals as one block of int64 arrays."""
        x = np.asarray(symbols, dtype=np.int64)
        if not x.size:
            return
        if x.min() < 0 or x.max() >= len(self.freqs):
            raise ValueError("symbol outside the model's alphabet")
        cum = np.array(self.cum, dtype=np.int64)
        lo, hi = cum[x], cum[x + 1]
        if (lo == hi).any():
            raise ValueError("a symbol has zero frequency")
        yield lo, hi, np.full(x.size, self.cum[-1], dtype=np.int64)


def memory_counts(family: SourceFamily, memory=()) -> np.ndarray:
    """What the codecs read of a memory sequence: ``context_counts(family,
    memory)``, all zeros for the empty memory (ucomp)."""
    return context_counts(family, memory)


def ideal_kt_bits(family: SourceFamily, x, memory=None) -> float:
    """Ideal KT codelength -log2 prod (c+1/2)/(N+k/2), via gamma identities.

    With ``memory`` the product is taken with counts primed by the memory
    sequence, matching encode_ucompm's model.
    """
    k = family.k
    cx = context_counts(family, x)
    base = np.zeros_like(cx) if memory is None else context_counts(family, memory)
    nats = 0.0
    for ctx in range(cx.shape[0]):
        n0 = int(base[ctx].sum())
        n1 = int(cx[ctx].sum())
        if n1 == 0:
            continue
        nats += math.lgamma(n0 + 0.5 * k) - math.lgamma(n0 + n1 + 0.5 * k)
        for a in range(k):
            c0, c1 = int(base[ctx][a]), int(cx[ctx][a])
            if c1:
                nats += math.lgamma(c0 + c1 + 0.5) - math.lgamma(c0 + 0.5)
    return -nats / math.log(2.0)


def _class_size(counts) -> int:
    return math.factorial(sum(counts)) // math.prod(math.factorial(c) for c in counts)


def type_rank(x, k: int) -> int:
    """Lexicographic rank of x in its type class, one symbol at a time."""
    counts = np.bincount(np.asarray(x, dtype=np.int64), minlength=k).tolist()
    total = sum(counts)
    size = _class_size(counts)
    rank = 0
    for s in np.asarray(x).tolist():
        prefix = sum(counts[:s])
        if prefix:
            rank += size * prefix // total
        size = size * counts[s] // total
        counts[s] -= 1
        total -= 1
    return rank


def type_unrank(t, rank: int) -> list[int]:
    """The rank-th sequence of type t in lex order, one symbol at a time."""
    counts = [int(c) for c in t]
    total = sum(counts)
    size = _class_size(counts)
    out = []
    for _ in range(total):
        for a, c in enumerate(counts):
            if c == 0:
                continue
            w = size * c // total
            if rank < w:
                out.append(a)
                size = w
                counts[a] -= 1
                total -= 1
                break
            rank -= w
    return out


def reg_gamma_upper(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s).

    Q(s, 0) = 1 and Q decreases to 0 as x grows; this is the tail mass of a
    Gamma(s, 1) variable above x.
    """
    if s <= 0:
        raise ValueError(f"reg_gamma_upper requires s > 0, got s={s}")
    if x < 0:
        raise ValueError(f"reg_gamma_upper requires x >= 0, got x={x}")
    return float(gammaincc(s, x))

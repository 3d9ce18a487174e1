"""Almost-lossless distributed codec with decoder-only memory (memoryless sources).

The encoder never sees the memory sequence.  It sends a short universal hash
of its sequence's type (count vector) plus the enumerative rank of the
sequence within its type class.  The decoder builds an acceptance ellipsoid
around the memory's smoothed parameter estimate, enumerates every type inside
it, and keeps the ones matching the hash: exactly one survivor decodes, zero
or several is a declared failure.  Two parts of the error are sized, both
approximately: the ellipsoid, from the chi-square quantile at 1 - p_e, is
meant to miss the true type with probability about p_e (the quantile is
asymptotic; at k=3, n=300, m=3000, p_e=0.05 the exact miss averaged over
Jeffreys parameters is 0.051), and the hash, from the candidate count and a
collision budget beta, is meant to let a wrong candidate through with
probability about beta.  So the design's error budget is p_e + beta (2 p_e
by default), and no bound on the total is shown.

One rule decides which types are inside an ellipsoid: the float64 arithmetic
of one level step (``_level``), run by the Fincke-Pohst walk that lists them
(``_lines``) on chunks of prefixes and by ``ellipsoid_contains`` along one
type's path.  The encoder's hash width, the decoder's candidates and the
harness's coverage all use it.  The walk's work, its visited lattice points
plus 2 k per walk step, is bounded by ``candidate_cap``.

Markov sources are not supported here (type enumeration over transition
matrices with flow constraints is a different problem); the strictly lossless
paths in :mod:`ucdis.codec` handle them.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codec import (
    DEFAULT_HASH_SEED,
    BitReader,
    BitStream,
    BitWriter,
    FramingError,
    ResourceLimitError,
    _earlier_counts,
)
from .numerics import chi2_quantile_upper
from .rng import MASK64, mix64, mix64_array, split_seed
from .sources import (
    SourceFamily,
    _finite_integers,
    _validate_counts,
    _validate_sequence,
    context_counts,
    fisher_info,
    smoothed_estimate,
)

MERSENNE61 = (1 << 61) - 1

DEFAULT_CANDIDATE_CAP = 10_000_000


@dataclass(frozen=True)
class DucompmConfig:
    """Shared offline parameters (the wire carries none of these).

    ``collision_budget`` beta defaults to p_e and is the only hash-width
    knob: the encoder counts N candidate types around its own estimate and
    sends b = ceil(log2(N / beta)) hash bits.  That sizes the hash for about
    beta in total for wrong in-ellipsoid types surviving it, on top of the
    region's p_e.  It is approximate: N is the encoder's surrogate count,
    not the decoder's, and no collision bound is proven for the mixed,
    truncated hash, so beta is a heuristic, not a bound.
    """

    k: int
    m: int
    p_e: float
    hash_seed: int = DEFAULT_HASH_SEED
    collision_budget: float | None = None
    candidate_cap: int = DEFAULT_CANDIDATE_CAP

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not (0.0 < self.p_e < 1.0):
            raise ValueError(
                f"p_e must lie in (0,1), got {self.p_e}; "
                "for p_e = 0 use the strictly lossless ucomp path"
            )
        if self.collision_budget is not None and not (0.0 < self.collision_budget < 1.0):
            raise ValueError("collision_budget must lie in (0,1)")


class Ellipsoid:
    """Acceptance region {phi : r (phi - center)' I(center) (phi - center) <= q}.

    ``center`` is the smoothed (strictly interior) estimate from the observed
    sequence, ``fisher`` the natural-units per-symbol Fisher matrix at the
    center over the free coordinates, r = n m / (n + m), and q the
    chi-square_d quantile at 1 - p_e.  A = r * fisher is factored once, as
    A = M' diag(D) M with M unit lower triangular (Cholesky on the reversed
    coordinates), so the form is sum_i D_i (v_i + sum_(j<i) M_ij v_j)**2 and
    its i-th term depends on v_0..v_i only; ``_lines`` and
    ``ellipsoid_contains`` decide membership from D and M.
    """

    __slots__ = ("center", "r", "fisher", "chi2_threshold", "_center_free", "_d", "_piv", "_mult")

    def __init__(self, center: np.ndarray, r: float, fisher: np.ndarray, chi2_threshold: float):
        self.center = center
        self.r = r
        self.fisher = fisher
        self.chi2_threshold = chi2_threshold
        d = self._d = fisher.shape[0]
        self._center_free = [float(c) for c in center[:d]]
        a = [[float(r * fisher[i, j]) for j in range(d)] for i in range(d)]
        self._piv = [0.0] * d  # D
        self._mult: list[list[float]] = [[]] * d  # M below the diagonal, by row
        for i in reversed(range(d)):
            p = a[i][i]
            if not p > 0.0:
                raise ValueError("r * Fisher is not positive definite")
            self._piv[i] = p
            self._mult[i] = [a[i][j] / p for j in range(i)]
            for j, f in enumerate(self._mult[i]):
                row = a[j]
                for s in range(i):
                    row[s] -= f * a[i][s]


def type_of(x, k: int) -> np.ndarray:
    """Count vector of a sequence (its type)."""
    return context_counts(SourceFamily("memoryless", k), x)[0]


def _ellipsoid(counts, n: int, m: int, p_e: float, k: int) -> Ellipsoid:
    # the region's recipe, shared by the decoder (the memory's counts) and the
    # encoder's surrogate (its own sequence's type): smoothed center, Fisher
    # matrix there, r = n m / (n + m), chi-square_(k-1) quantile at 1 - p_e
    family = SourceFamily("memoryless", k)
    center = smoothed_estimate(family, counts)
    return Ellipsoid(
        center=center,
        r=n * m / (n + m),
        fisher=fisher_info(family, center),
        chi2_threshold=chi2_quantile_upper(k - 1, p_e),
    )


def build_ellipsoid(counts, n: int, p_e: float, k: int) -> Ellipsoid:
    """Decoder acceptance region for a length-n type, from the memory's
    counts, a (1, k) array; the memory length m is their sum."""
    m = int(_validate_counts(SourceFamily("memoryless", k), counts).sum())
    if m < 1:
        raise ValueError("memory must be nonempty: counts sum to 0")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 < p_e < 1.0):
        raise ValueError(f"p_e must lie in (0,1), got {p_e}")
    return _ellipsoid(counts, n, m, p_e, k)


# Prefixes the walk holds at once.  Its stack keeps one chunk of at most
# _CHUNK // d prefixes per level of the d-level walk; a prefix stores its last
# count, that coordinate's v and its parent's row, and a chunk gathers its
# prefixes' other counts only at the last level.  So walk memory is
# O(_CHUNK), whatever k is.
_CHUNK = 2**15


def _level(e: Ellipsoid, n: int, i: int, v, partial):
    """The region's rule at level i, for prefixes t_0..t_(i-1): a chunk as
    float64 arrays or one as float64 scalars, with v_j = t_j/n - c_j and
    partial forms P = sum_(j<i) D_j (t_j/n - mu_j)**2.  Returns the line's
    bounds ceil(mid - half) and floor(mid + half), mid = n mu_i with mu_i =
    c_i - sum_(j<i) M_ij v_j and half = n sqrt((q - P) / D_i), and
    ``child(t, p)``: for children t_i = t of the prefixes p (an index into
    the chunk, ``()`` for one prefix), the partial form with t's term added,
    v_i, and whether q minus it is >= 0, which a child needs to go on."""
    c, piv, thr = e._center_free[i], e._piv[i], e.chi2_threshold
    acc = np.zeros(np.shape(partial))
    for m_ij, v_j in zip(e._mult[i], v):
        acc = acc + m_ij * v_j
    mu = c - acc
    mid = n * mu
    half = n * np.sqrt((thr - partial) / piv)

    def child(t, p):
        x = t / n
        dx = x - mu[p]
        part = partial[p] + piv * (dx * dx)
        return part, x - c, thr - part >= 0.0

    return np.ceil(mid - half), np.floor(mid + half), child


def ellipsoid_contains(e: Ellipsoid, t, n: int) -> bool:
    """Membership of a type t (k nonnegative counts summing to n) in the
    acceptance region: the walk's level step (``_level``) run along t's own
    path, so it admits exactly the types the walk lists."""
    t = np.asarray(t)
    if t.shape != (e._d + 1,):
        raise ValueError(f"type has shape {t.shape}, expected ({e._d + 1},)")
    t = _validate_counts(SourceFamily("memoryless", t.size), [t])[0]
    if int(t.sum()) != n:
        raise ValueError(f"type counts sum to {int(t.sum())}, expected n={n}")
    v, partial, live = [], np.float64(0.0), e.chi2_threshold >= 0.0
    for i in range(e._d):
        if not live:
            return False
        lo, hi, child = _level(e, n, i, v, partial)
        # 0 <= t_i <= rest holds already
        if not lo <= t[i] <= hi:
            return False
        partial, v_i, live = child(t[i], ())
        v.append(v_i)
    return True


def _lines(e: Ellipsoid, n: int, k: int, cap: int):
    """Fincke-Pohst walk (Math. Comp. 44, 1985): the region's types as runs
    on integer lines.

    Yields ``(prefix, rest, t0, t1)`` arrays with one row per run: the types
    ``(*prefix[j], t, rest[j] - t)`` with t0[j] <= t <= t1[j] are the region's,
    each in one run, in ascending lexicographic order across the yields.
    ``prefix`` is the int64 matrix of the first k - 2 counts.

    Each level runs ``_level`` and keeps its bounds within [0, rest], rest =
    n - sum_(j<i) t_j; a type is inside if its path passes every level, and
    ``ellipsoid_contains`` runs the same step along that path.

    The walk is breadth-first within a chunk of prefixes, whose bounds at one
    level are computed as arrays, and depth-first over chunks.  Its work is
    the points it visits plus 2 k per step (one level over one chunk, whose
    O(k) array operations cost the same however few points it holds); it
    raises ResourceLimitError once the work passes ``cap``, checked before a
    level's children are made.
    """
    d = k - 1
    size = max(1, _CHUNK // d)
    # column j holds the chunk of prefixes of length j + 1 that the walk is
    # in: their count t_j, v_j = t_j/n - c_j, and their parent's row in
    # column j - 1
    tcol: list = [None] * d
    vcol: list = [None] * d
    par: list = [None] * d
    work = 0

    def walk(i, rest, partial):
        # the chunk of prefixes of length i, which column i - 1 holds; their
        # partial forms are within the threshold
        nonlocal work
        anc = [slice(None)] * i  # anc[j]: each prefix's row in column j
        for j in range(i - 1, 0, -1):
            anc[j - 1] = par[j][anc[j]]
        lo, hi, child = _level(e, n, i, (vcol[j][anc[j]] for j in range(i)), partial)
        lo = np.maximum(lo, 0.0)
        hi = np.minimum(hi, rest)
        cnt = np.maximum(hi - lo + 1.0, 0.0).astype(np.int64)
        ends = np.add.accumulate(cnt)
        total = int(ends[-1])
        work += total + 2 * k
        if work > cap:
            raise ResourceLimitError(
                f"ellipsoid walk's work passed candidate_cap={cap} (lattice points "
                f"visited plus 2k per walk step); n={n}, k={k}"
            )
        if i == d - 1:
            row = cnt.nonzero()[0]
            if row.size:
                prefix = np.empty((row.size, i), dtype=np.int64)
                for j in range(i):
                    prefix[:, j] = tcol[j][anc[j]][row]
                yield prefix, rest[row], lo[row].astype(np.int64), hi[row].astype(np.int64)
            return
        off = lo.astype(np.int64) - (ends - cnt)  # t = off[row] + child index
        # release this level's index and bound arrays before descending: anc
        # alone holds i arrays per level, O(d**2) chunks over the stack
        del anc, lo, hi, cnt
        for start in range(0, total, size):
            idx = np.arange(start, min(start + size, total))
            p = ends.searchsorted(idx, side="right")
            t = off[p] + idx
            part, v, live = child(t, p)
            live = live.nonzero()[0]
            if live.size < idx.size:
                p, t, part, v = p[live], t[live], part[live], v[live]
            if live.size:
                tcol[i], vcol[i], par[i] = t, v, p
                del idx, live
                yield from walk(i + 1, rest[p] - t, part)

    if e.chi2_threshold >= 0.0:
        yield from walk(0, np.array([n], dtype=np.int64), np.zeros(1))


def enumerate_types_in_ellipsoid(
    e: Ellipsoid, n: int, k: int, cap: int = DEFAULT_CANDIDATE_CAP
) -> list[tuple[int, ...]]:
    """All length-n types inside the region, in ascending lexicographic order.

    Membership is the walk's rule (``_lines``), which ``ellipsoid_contains``
    decides for one type.  Raises ResourceLimitError once the walk's work,
    its visited lattice points plus 2 k per walk step, passes ``cap``.
    """
    return [(*pre, t, m - t)
            for prefix, rest, t0, t1 in _lines(e, n, k, cap)
            for pre, m, a, b in zip(prefix.tolist(), rest.tolist(), t0.tolist(), t1.tolist())
            for t in range(a, b + 1)]


def count_types_in_ellipsoid(
    e: Ellipsoid, n: int, k: int, cap: int = DEFAULT_CANDIDATE_CAP
) -> int:
    """``len(enumerate_types_in_ellipsoid(e, n, k, cap))`` without the list:
    the walker's runs are added up."""
    return sum(int((t1 - t0).sum()) + t0.size for _, _, t0, t1 in _lines(e, n, k, cap))


# Points per numpy block in decode's hash filter: decode memory is O(_BLOCK),
# whatever the candidate count.
_BLOCK = 2**16

_P61 = np.uint64(MERSENNE61)

# Each thread's hash-filter buffers of _BLOCK points, made on its first decode
# and again when _BLOCK changes, then reused: a decode allocates no per-point
# arrays, and the pages stay mapped between calls.
_buffers = threading.local()


def _block_buffers() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's sums (uint64), scratch (uint64) and hit flags (bool)."""
    bufs = getattr(_buffers, "bufs", None)
    if bufs is None or bufs[0].size != _BLOCK:
        bufs = _buffers.bufs = (np.empty(_BLOCK, np.uint64), np.empty(_BLOCK, np.uint64),
                                np.empty(_BLOCK, np.bool_))
    return bufs


def _fold61(s: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``s mod 2^61 - 1`` in place, for uint64 s < 2 (2^61 - 1); ``scratch``
    is a uint64 array of s's shape."""
    np.subtract(s, _P61, out=scratch)  # where s < p, s - p wraps above s
    return np.minimum(s, scratch, out=s)


def _mulmod61(a: int, t: np.ndarray) -> np.ndarray:
    """``a * t mod 2^61 - 1`` as a new uint64 array, for 0 <= a < 2^61 and
    0 <= t < 2^32.

    With a = a1 2^32 + a0, the products a1 t < 2^61 and a0 t < 2^64 fit in
    uint64, and as 2^61 = 1 mod 2^61 - 1, a1 t 2^32 is congruent to
    (a1 t >> 29) + ((a1 t mod 2^29) << 32).  Three arrays of t's size.
    """
    lo = t.astype(np.uint64)
    hi = np.uint64(a >> 32) * lo
    lo *= np.uint64(a & 0xFFFFFFFF)
    s = hi >> np.uint64(29)
    hi &= np.uint64(2**29 - 1)
    hi <<= np.uint64(32)
    s += hi
    s += np.bitwise_and(lo, _P61, out=hi)
    s += np.right_shift(lo, np.uint64(61), out=lo)  # < 2^63
    np.bitwise_and(s, _P61, out=hi)
    s >>= np.uint64(61)
    s += hi  # < 2^61 + 4
    return _fold61(s, hi)


def _hash_hits(e: Ellipsoid, n: int, k: int, cap: int, mult, b: int, h: int):
    """The region's types whose b-bit hash is h, in ascending lexicographic order.

    Equal to keeping the types of ``enumerate_types_in_ellipsoid(e, n, k, cap)``
    with ``universal_hash(t, seed, b) == h``, where ``mult`` holds the seed's
    multipliers, but no candidate list is built.  The hash sum is linear mod
    2^61 - 1 and rest = n - sum(prefix), so at the walker's point ``(*prefix,
    t, rest - t)`` it is ``n mult[k-1] + sum_j prefix_j (mult[j] - mult[k-1])
    + t (mult[k-2] - mult[k-1])``.  A chunk of the walker's runs is laid out
    as rows of one width (a long run is cut across rows, and a row past its
    run's end is padding), and whole rows are packed into blocks of at most
    ``_BLOCK`` points.  A block's sums are its runs' sums at their first
    points plus the steps ``0..width-1`` times the last multiplier: one
    broadcast add into this thread's buffers (``_block_buffers``), where the
    fold, mix, mask and compare run in place.  Counts must lie below 2^32.
    """
    p = MERSENNE61
    w = [(mult[j] - mult[k - 1]) % p for j in range(k - 1)]
    const = np.uint64(n * mult[k - 1] % p)
    mask, want = np.uint64((1 << b) - 1), np.uint64(h)
    sums, scratch, hit = _block_buffers()
    hits: list[tuple[int, ...]] = []
    for prefix, rest, t0, t1 in _lines(e, n, k, cap):
        # rows as wide as the longest run, but at most _BLOCK and twice the
        # mean run, so that N points in R runs take under 3 N + 2 R slots
        lens = t1 - t0 + 1
        longest = int(lens.max())
        width = min(longest, _BLOCK, 2 * -(-int(lens.sum()) // lens.size))
        if longest > width:
            prefix, rest, t0, t1 = _cut_runs(prefix, rest, t0, t1, width)
        # a block's sum at (*prefix, t0 + c, rest - t0 - c) is the run's
        # at_t0 plus the column's steps[c], which holds the constant term
        steps = _mulmod61(w[-1], np.arange(width))
        steps = _fold61(steps + const, np.empty_like(steps))
        at_t0 = _mulmod61(w[-1], t0)
        for j in range(k - 2):
            term = _mulmod61(w[j], prefix[:, j])
            at_t0 += term
            _fold61(at_t0, term)
        per = _BLOCK // width  # rows per block
        for r0 in range(0, t0.size, per):
            r1 = min(r0 + per, t0.size)
            size = (r1 - r0) * width
            acc, tmp, hot = sums[:size], scratch[:size], hit[:size]
            np.add(at_t0[r0:r1, None], steps, out=acc.reshape(-1, width))
            _fold61(acc, tmp)
            mix64_array(acc, tmp)
            np.bitwise_and(acc, mask, out=acc)
            np.equal(acc, want, out=hot)
            for i in hot.nonzero()[0].tolist():
                q, col = divmod(i, width)
                r = r0 + q
                u = int(t0[r]) + col
                if u <= t1[r]:
                    hits.append((*prefix[r].tolist(), u, int(rest[r]) - u))
    return hits


def _cut_runs(prefix, rest, t0, t1, most: int):
    """The runs ``(prefix, rest, t0, t1)`` cut into consecutive runs of at most
    ``most`` points each, in the same order."""
    pieces = (t1 - t0) // most + 1
    run = np.arange(t0.size).repeat(pieces)
    first = np.add.accumulate(pieces) - pieces
    t = t0[run] + (np.arange(run.size) - first[run]) * most
    return prefix[run], rest[run], t, np.minimum(t + most - 1, t1[run])


@lru_cache(maxsize=64)
def _hash_multipliers(seed: int, k: int) -> tuple[int, ...]:
    return tuple(split_seed(seed, i) % MERSENNE61 for i in range(k))


def universal_hash(t, seed: int, b: int) -> int:
    """b low bits of a mixed multilinear hash of the count vector.

    Dot product with seed-derived multipliers over the prime field 2^61 - 1,
    passed through a bijective 64-bit mix, truncated to b bits.  Fully
    deterministic given (t, seed, b), so encoder and decoder agree exactly.
    """
    if not (1 <= b <= 64):
        raise ValueError(f"hash width must lie in [1, 64], got {b}")
    mult = _hash_multipliers(seed & MASK64, len(t))
    acc = 0
    for i, c in enumerate(t):
        acc = (acc + mult[i] * int(c)) % MERSENNE61
    return mix64(acc) & ((1 << b) - 1)


def hash_length(t, config: DucompmConfig) -> int:
    """Hash width chosen by the encoder without seeing the memory sequence,
    from the type t of its length-n sequence (k counts summing to n).

    The encoder builds a surrogate ellipsoid centered at its own smoothed
    estimate with the decoder's (r, threshold) recipe, counts the candidate
    types N inside, and uses b = ceil(log2(N / beta)) bits, beta being the
    collision budget (p_e unless set): each of about N wrong candidates
    survives the hash with probability 2^-b, at most beta / N.  A ratio
    N / beta above 2^64 (inf when a tiny beta overflows it) raises
    ``ValueError``.
    """
    counts = _validate_counts(SourceFamily("memoryless", config.k), [t])
    n = int(counts.sum())
    budget = config.p_e if config.collision_budget is None else config.collision_budget
    surrogate = _ellipsoid(counts, n, config.m, config.p_e, config.k)
    n_hat = max(1, count_types_in_ellipsoid(surrogate, n, config.k, cap=config.candidate_cap))
    ratio = n_hat / budget
    if ratio > 2.0**64:  # also catches inf, whose log2 has no integer ceiling
        raise ValueError(
            "required hash width exceeds 64 bits "
            f"(candidates={n_hat}, collision budget={budget:g})"
        )
    return max(1, math.ceil(math.log2(ratio)))


def _type_counts(t) -> list[int]:
    """The counts of a type as nonnegative Python ints.  Integers pass as
    they are; other values follow ``sources._validate_sequence``'s rule:
    integer-valued floats pass, and 2.5, NaN and +-inf raise ``ValueError``."""
    try:
        counts = list(map(operator.index, t))
    except TypeError:
        _finite_integers(np.asarray(t), "type counts")
        counts = [int(c) for c in t]
    if counts and min(counts) < 0:
        raise ValueError("counts must be nonnegative")
    return counts


def multinomial_count(counts) -> int:
    """Exact number of sequences sharing the type ``counts``."""
    return _class_size(_type_counts(counts))


# From _PRIME_MIN_N symbols on, a class size n! / prod c_i! is built from its
# factorisation into primes, with no division: by Legendre's formula the
# exponent of a prime p is sum_(j >= 1) (floor(n / p^j) - sum_i floor(c_i / p^j)),
# and the product of the p^e is taken over the bits of e from the top down
# (r = r^2 * the product of the primes whose e has that bit set), each
# product by a balanced tree.  math.comb divides big numbers: it is the
# slower from 2,048 symbols on at k <= 4, from 3,072 at k = 8 and from 4,096
# at k = 16, and the faster below (BENCH_19.json, "crossover").  The sieve
# holds O(n) bytes, so above _PRIME_MAX_N (a 1 MiB sieve) math.comb is used
# again, whatever n a container claims.
_PRIME_MIN_N = 4096
_PRIME_MAX_N = 2**20


def _class_size(counts: list[int]) -> int:
    """``multinomial_count`` of counts already checked by ``_type_counts``."""
    n = sum(counts)
    if _PRIME_MIN_N <= n <= _PRIME_MAX_N:
        return _class_size_from_primes(counts, n)
    total = 0
    size = 1
    for c in counts:
        total += c
        size *= math.comb(total, c)
    return size


@lru_cache(maxsize=None)
def _primes(bits: int) -> np.ndarray:
    """The primes up to 2^bits, by the sieve of Eratosthenes, as a read-only
    array shared by the callers (bits <= 20: 1.4 MB for all 21 tables)."""
    sieve = np.ones((1 << bits) + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(1 << bits) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    primes = sieve.nonzero()[0]
    primes.setflags(write=False)
    return primes


def _product(xs: np.ndarray) -> int:
    """Product of an int64 array of values below 2^31 by a balanced tree:
    the first level in int64, the others on Python ints."""
    if xs.size % 2:
        xs = np.append(xs, 1)
    xs = (xs[0::2] * xs[1::2]).tolist()
    while len(xs) > 1:
        odd = xs[-1:] if len(xs) % 2 else []
        xs = [a * b for a, b in zip(xs[0::2], xs[1::2])] + odd
    return xs[0] if xs else 1


def _class_size_from_primes(counts: list[int], n: int) -> int:
    """n! / prod c_i! for counts summing to n <= _PRIME_MAX_N, from its
    prime exponents.  Primes above sqrt(n) take one term of Legendre's sum
    (p^2 > n), as arrays; the others take the whole sum, in Python.  Equal
    counts are taken together, and counts below 2 add nothing."""
    primes = _primes((n - 1).bit_length())
    primes = primes[:primes.searchsorted(n, "right")]
    split = int(primes.searchsorted(math.isqrt(n), "right"))
    repeats = Counter(c for c in counts if c > 1).items()
    big = primes[split:]
    exps = n // big
    for c, times in repeats:
        j = big.searchsorted(c, "right")
        exps[:j] -= times * (c // big[:j])
    small = []
    for p in primes[:split].tolist():
        e, q = 0, n
        while q:
            q //= p
            e += q
        for c, times in repeats:
            while c:
                c //= p
                e -= times * c
        small.append(e)
    exps = np.concatenate((np.array(small, dtype=np.int64), exps))
    size = 1
    for bit in reversed(range(int(exps.max(initial=0)).bit_length())):
        size = size * size * _product(primes[(exps >> bit) & 1 == 1])
    return size


# Rank and unrank work on blocks of _RANK_BLOCK symbols (Cover's enumerative
# rank, IEEE Trans. IT 19, 1973, taken a block at a time).  For position i let
# T_i be the number of symbols from i to the end, num_i the count of x_i among
# them and pre_i the count of smaller symbols, and for a block let
#     P = prod num_i,   Q = prod T_i,
#     S = sum_i pre_i * prod_{j<i} num_j * prod_{j>i} T_j.
# With `start` and `end` the class sizes of the symbols left before and after
# the block, end = start * P / Q, and the block's symbols add
# start * S / Q = end * S / P to the rank (the ranks of the sequences that
# share the block's prefix form [start * S / Q, start * S / Q + end)).  All four
# divisions are exact, so the block costs one division of a class size and
# two multiplications (_block_step) in place of a multiply-divide per symbol;
# P, Q and S stay near 64 * log2(n) bits.  A run of symbols L followed by a
# run R has
#     S = S_L * Q_R + P_L * S_R,   P = P_L * P_R,   Q = Q_L * Q_R,
# and (S, P, Q) = (0, 1, 1) is the empty run.  From _VECTOR_MIN symbols on,
# type_rank builds every block with these products, pairwise over all blocks
# at once in numpy (_vector_blocks); shorter sequences take the per-symbol
# loop (_loop_blocks).  Either way one loop folds the blocks from the end.
_RANK_BLOCK = 64

# numpy's fixed cost, about 0.1 ms per type_rank call, outweighs the loop on
# short sequences: the numpy builder loses at n = 256 and wins at n = 512 for
# k = 2, 3, 4 and 8 (BENCH_17.json, "crossover").
_VECTOR_MIN = 512

# _vector_blocks works through the sequence from its end, _RANK_CHUNK blocks
# at a time, carrying the counts of the symbols after the chunk, so its
# arrays hold one chunk whatever n is.
_RANK_CHUNK = 128

# type_unrank guesses a block's symbols with the per-symbol loop run on the top
# bits of rank and size only, shifted so that size keeps the bits the block
# should use up (its share of size's bits) plus _GUESS_MARGIN, and accepts the
# guess only if the exact interval above holds the rank; otherwise it redoes
# the block with the exact loop.  Below _GUESS_MIN_BITS of class size the exact
# loop is the faster one: the guess costs about as much per symbol as an exact
# step at 1,000-1,500 bits (measured at k=2 to 16: BENCH_11.json, CHANGES.md on
# blocked rank/unrank), and the exact loop's cost falls with size while the
# guess's does not.
#
# At each position the per-symbol loops (_guess_block, _unrank_steps) give
# each smaller symbol c * size // total of the position's starting size and
# the last symbol with a nonzero count what those shares leave, so at k = 2 a
# position costs one multiply-divide.  In a window the shares round down, so
# the last symbol's is the larger by the rounding, and a guess never runs past
# its class once the window's rank is below its size.  k = 2 takes a branch of
# its own: the general loop's bookkeeping made k = 2 unranks 1.25-1.38x
# slower at n = 1,000 to 8,192 (BENCH_19.json, "two_symbol_branch").
_GUESS_MARGIN = 128
_GUESS_MIN_BITS = 1024


def _block_step(size: int, s: int, div: int, mul: int) -> tuple[int, int]:
    """``(size * s // div, size * mul // div)`` for a block whose two
    quotients are exact: the rank's fold (div = P, mul = Q) and the unrank's
    check (div = Q, mul = P), with one big division.  div divides size * s
    and size * mul, so it divides size * g with g = gcd(s, mul).  With
    u = gcd(div, s, mul) = gcd(div, g), div/u divides size * g/u and is
    prime to g/u, so it divides size: base = size // (div/u) is exact, and
    the two results are base * (s/u) and base * (mul/u)."""
    u = math.gcd(div, s, mul)
    base = size // (div // u)
    return base * (s // u), base * (mul // u)


def _loop_blocks(x: list, k: int):
    """Each block's (S, P, Q), from the end of x, one symbol at a time."""
    counts = [0] * k
    total = 0
    for end in range(len(x), 0, -_RANK_BLOCK):
        s_sum, num_prod, tot_prod = 0, 1, 1
        for s in reversed(x[max(0, end - _RANK_BLOCK):end]):
            total += 1
            num = counts[s] = counts[s] + 1
            s_sum = s_sum * num + sum(counts[:s]) * tot_prod if s else s_sum * num
            num_prod *= num
            tot_prod *= total
        yield s_sum, num_prod, tot_prod


def _vector_blocks(x: np.ndarray, k: int):
    """Each block's (S, P, Q), from the end of x, with no loop per symbol:
    numpy counts T_i, num_i and pre_i for a chunk of blocks and folds the
    chunk's blocks pairwise, all at once."""
    n = len(x)
    bits = (k - 1).bit_length()
    key_type = np.min_scalar_type(k - 1)
    after = np.zeros(k, np.int64)  # counts of the symbols after the chunk
    step = _RANK_CHUNK * _RANK_BLOCK
    for hi in range(n, 0, -step):
        lo = max(0, hi - step)
        back = x[lo:hi][::-1]
        same, below, _ = _earlier_counts(back.astype(key_type), bits)
        # leaves in position order, padded in front to whole blocks with the
        # empty run (0, 1, 1)
        pad = -(hi - lo) % _RANK_BLOCK
        v = np.ones((3, pad + hi - lo), np.int64)
        v[0, :pad] = 0
        v[0, pad:] = ((np.cumsum(after) - after)[back] + below)[::-1]
        v[1, pad:] = (after[back] + same + 1)[::-1]
        v[2, pad:] = np.arange(n - lo, n - hi, -1)
        after += np.bincount(back, minlength=k)
        s, p, q = v.reshape(3, -1, _RANK_BLOCK)
        # In a run pre + num <= T at a leaf and S + P <= Q at every node (its
        # ranks lie in [start * S / Q, start * (S + P) / Q], inside [0, start]),
        # so S_L * Q_R + P_L * S_R <= (S_L + P_L) * Q_R <= Q: every value and
        # partial sum of a fold is at most a product of its leaves' T, below
        # 2^(w * leaves) with w the bit length of T's largest value, n - lo.
        # The fold stays in int64 while w * leaves <= 63, then runs on Python
        # ints in object arrays.
        w = (n - lo).bit_length()
        leaves = 1
        while leaves < _RANK_BLOCK:
            leaves *= 2
            if w * leaves > 63 and s.dtype != object:
                s, p, q = s.astype(object), p.astype(object), q.astype(object)
            s = s[:, 0::2] * q[:, 1::2] + p[:, 0::2] * s[:, 1::2]
            p = p[:, 0::2] * p[:, 1::2]
            q = q[:, 0::2] * q[:, 1::2]
        yield from zip(s[::-1, 0].tolist(), p[::-1, 0].tolist(), q[::-1, 0].tolist())


def type_rank(x, k: int) -> tuple[int, int]:
    """Lexicographic rank of x among all sequences with the same type, and
    the size of that type class: ``(rank, size)``.

    Builds every block's (S, P, Q), with numpy from _VECTOR_MIN symbols on,
    and folds the blocks backward from the empty suffix, whose class size is
    1, so the fold ends holding the class size of x itself.
    """
    x = _validate_sequence(x, k)
    blocks = _vector_blocks(x, k) if len(x) >= _VECTOR_MIN else _loop_blocks(x.tolist(), k)
    rank = 0
    size = 1
    for s, p, q in blocks:
        part, size = _block_step(size, s, p, q)
        rank += part
    return rank, size


def _last_symbol(counts, a: int) -> int:
    """The largest symbol up to a with a nonzero count; 0, or a itself if it
    is negative, when no symbol above 0 has one."""
    while a > 0 and not counts[a]:
        a -= 1
    return a


def _unrank_steps(counts, total: int, rank: int, size: int, out: list, m: int) -> tuple[int, int]:
    """Exact per-symbol unrank of the next m symbols into ``out``; returns
    the rank within, and the size of, the class of the symbols left."""
    if len(counts) == 2:
        c0, c1 = counts
        for _ in range(m):
            w = size * c0 // total
            if rank < w:
                out.append(0)
                size = w
                c0 -= 1
            else:
                out.append(1)
                rank -= w
                size -= w
                c1 -= 1
            total -= 1
        counts[:] = c0, c1
        return rank, size
    last = _last_symbol(counts, len(counts) - 1)
    below = range(last)
    for _ in range(m):
        start = rank
        for a in below:
            c = counts[a]
            if c:
                w = size * c // total
                if rank < w:
                    break
                rank -= w
        else:
            a = last
            c = counts[a]
            w = size - start + rank
            if c == 1:
                last = _last_symbol(counts, a - 1)
                below = range(last)
        out.append(a)
        size = w
        counts[a] = c - 1
        total -= 1
    return rank, size


def _guess_block(counts, total: int, rank: int, size: int, m: int):
    """The per-symbol loop on a window of rank and size, building the block's
    S and P on the way: (symbols, S, P), or None if the window's rank is not
    below its size.  _unrank_steps stays separate: it runs on the whole tail
    of a class, where S and P would grow to the class size."""
    if rank >= size:
        return None
    symbols = []
    s_sum, num_prod = 0, 1
    if len(counts) == 2:
        c0, c1 = counts
        for _ in range(m):
            w = size * c0 // total
            if rank < w:
                symbols.append(0)
                s_sum *= total
                num_prod *= c0
                size = w
                c0 -= 1
            else:
                symbols.append(1)
                s_sum = s_sum * total + c0 * num_prod
                num_prod *= c1
                rank -= w
                size -= w
                c1 -= 1
            total -= 1
        counts[:] = c0, c1
        return symbols, s_sum, num_prod
    last = _last_symbol(counts, len(counts) - 1)
    below = range(last)
    for _ in range(m):
        start, pre = rank, 0
        for a in below:
            c = counts[a]
            if c:
                w = size * c // total
                if rank < w:
                    break
                rank -= w
                pre += c
        else:
            a = last
            c = counts[a]
            w = size - start + rank
            if c == 1:
                last = _last_symbol(counts, a - 1)
                below = range(last)
        s_sum = s_sum * total + pre * num_prod
        num_prod *= c
        symbols.append(a)
        size = w
        counts[a] = c - 1
        total -= 1
    return symbols, s_sum, num_prod


def type_unrank(t, rank: int, size: int | None = None) -> np.ndarray:
    """Inverse of type_rank: the rank-th sequence of type t in lex order.

    ``size`` is the class size ``multinomial_count(t)`` when the caller has it.
    """
    counts = _type_counts(t)
    total = sum(counts)
    if size is None:
        size = _class_size(counts)
    if not (0 <= rank < max(size, 1)):
        raise ValueError(f"rank {rank} out of range for class size {size}")
    out = []
    while (bits := size.bit_length()) > _GUESS_MIN_BITS:
        m = min(_RANK_BLOCK, total)
        sh = bits - m * bits // total - _GUESS_MARGIN
        guess = counts.copy()
        # sh <= 0: the window would be all of rank and size, so the exact loop
        # does the block
        g = _guess_block(guess, total, rank >> sh, size >> sh, m) if sh > 0 else None
        if g is not None:
            symbols, s_sum, num_prod = g
            part, end = _block_step(size, s_sum, math.perm(total, m), num_prod)
            offset = rank - part
            if 0 <= offset < end:
                out += symbols
                counts, total, rank, size = guess, total - m, offset, end
                continue
        rank, size = _unrank_steps(counts, total, rank, size, out, m)
        total -= m
    _unrank_steps(counts, total, rank, size, out, total)
    return np.array(out, dtype=np.int64)


@dataclass(frozen=True)
class DCodeword:
    """Wire object: hash width, hash of the type, in-class enumerative rank.

    The rank field's width, ceil log2 of the class size, is not written as a
    field: the decoder reads it off the payload's bit length (payload bits
    minus 16 minus b) and keeps only candidates whose class size gives that
    width.  ``coded_bits`` counts hash plus rank; the u16 width field and the
    container's bit-length field are framing and excluded from rate
    accounting, although the bit length also tells the decoder the width.
    """

    b: int
    hash_value: int
    rank: int
    rank_bit_length: int

    @property
    def coded_bits(self) -> int:
        return self.b + self.rank_bit_length

    def payload(self) -> BitStream:
        w = BitWriter()
        w.write_uint(self.b, 16)
        w.write_uint(self.hash_value, self.b)
        w.write_uint(self.rank, self.rank_bit_length)
        return w.getvalue()


@dataclass(frozen=True)
class DecodeOutcome:
    """Either a decoded sequence or a declared failure, never both.

    Silent mismatches (decoded != encoded) are invisible here by design; the
    experiment harness, which knows the ground truth, counts them as errors
    alongside declared failures.
    """

    sequence: np.ndarray | None = None
    failure_reason: str | None = None  # "no-candidate" or "ambiguous"

    def __post_init__(self):
        if (self.sequence is None) == (self.failure_reason is None):
            raise ValueError("exactly one of sequence/failure_reason must be set")

    @property
    def ok(self) -> bool:
        return self.sequence is not None


def encode_ducompm(x, config: DucompmConfig) -> DCodeword:
    """Encode x using only its own statistics and the known memory length."""
    t = type_of(x, config.k)
    if not t.any():
        raise ValueError("cannot encode an empty sequence")
    b = hash_length(t, config)
    rank, size = type_rank(x, config.k)
    return DCodeword(
        b=b,
        hash_value=universal_hash(t, config.hash_seed, b),
        rank=rank,
        rank_bit_length=(size - 1).bit_length(),
    )


def _may_have_width(t, n: int, w: int) -> bool:
    """False only if the class of type t (counts summing to n) cannot have
    rank-field width w, (|T| - 1).bit_length() == w, that is 2^(w-1) < |T| <=
    2^w (|T| = 1 for w = 0); decided from the float estimate
        L = (lgamma(n + 1) - sum_i lgamma(t_i + 1)) / ln 2
    of log2 |T|, which is within err of it, so that the exact class size is
    computed only where L is in [w - 1 - err, w + err] and has about w bits.

    The bound err: each lgamma(t_i + 1) lies in [0, G], G = lgamma(n + 1), and
    so does every partial difference (G minus part of the sum is at least
    log |T| >= 0).  With math.lgamma within 2^-40 (G + 1) of the true value
    (CPython's Lanczos lgamma is within a few ulps, about 2^-50 relative,
    here), the k + 1 terms err by at most (k + 1) 2^-40 (G + 1), the k
    subtractions round by at most k 2^-53 G, and the division by ln 2 scales
    the sum by 1.45 and rounds once more: err = (k + 1) (G + 1) 2^-38
    covers it with room."""
    g = math.lgamma(n + 1)
    nats = g
    for c in t:
        nats -= math.lgamma(c + 1)
    err = (len(t) + 1) * (g + 1) * 2**-38
    return w - 1 - err <= nats / math.log(2) <= w + err


def decode_ducompm(payload: BitStream, counts, n: int, config: DucompmConfig) -> DecodeOutcome:
    """Resolve the type inside the memory's acceptance ellipsoid and unrank.

    ``counts`` are the memory's symbol counts, a (1, k) array summing to m.

    A candidate survives only if its hash matches AND its class size implies
    exactly the transmitted rank-field width AND the transmitted rank is in
    range for it; the width and range checks are free filters that discard
    most hash collisions.  Zero survivors is a no-candidate failure, two or
    more is ambiguous.  A class size is computed exactly only for a hash hit
    whose estimated size leaves the width possible (``_may_have_width``), so
    the exact arithmetic is bounded by the rank field's length.
    """
    m = int(_validate_counts(SourceFamily("memoryless", config.k), counts).sum())
    if m != config.m:
        raise ValueError(f"memory length {m} != configured m={config.m}")
    if n >= 2**32:  # the hash filter's uint64 arithmetic needs counts below 2^32
        raise ValueError(f"n={n} does not fit the container's 32-bit length field")
    if payload.bit_length < 16:
        raise FramingError("payload shorter than the hash-width field")
    r = BitReader(payload)
    b = r.read_uint(16)
    if not (1 <= b <= 64) or payload.bit_length < 16 + b:
        raise FramingError(f"invalid hash width {b} for payload of {payload.bit_length} bits")
    h = r.read_uint(b)
    rank_field_bits = payload.bit_length - 16 - b
    rank = r.read_uint(rank_field_bits)

    ellipsoid = build_ellipsoid(counts, n, config.p_e, config.k)
    mult = _hash_multipliers(config.hash_seed & MASK64, config.k)
    survivors = []
    for t in _hash_hits(ellipsoid, n, config.k, config.candidate_cap, mult, b, h):
        if not _may_have_width(t, n, rank_field_bits):
            continue
        size = multinomial_count(t)
        if (size - 1).bit_length() != rank_field_bits or rank >= size:
            continue
        survivors.append((t, size))
    if not survivors:
        return DecodeOutcome(failure_reason="no-candidate")
    if len(survivors) > 1:
        return DecodeOutcome(failure_reason="ambiguous")
    t, size = survivors[0]
    return DecodeOutcome(sequence=type_unrank(t, rank, size))

"""Distributed codec tests: geometry, enumeration, hashing, ranking, end-to-end."""

import contextlib
import math
import struct
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucdis import ducompm, harness, sources
from ucdis.bounds import delta_d
from ucdis.codec import BitReader, BitStream
from ucdis.ducompm import (
    MERSENNE61,
    DCodeword,
    DecodeOutcome,
    DucompmConfig,
    Ellipsoid,
    ResourceLimitError,
    build_ellipsoid,
    count_types_in_ellipsoid,
    decode_ducompm,
    ellipsoid_contains,
    encode_ducompm,
    enumerate_types_in_ellipsoid,
    hash_length,
    multinomial_count,
    type_of,
    type_rank,
    type_unrank,
    universal_hash,
)
from ucdis.numerics import chi2_quantile_upper
from ucdis.rng import MASK64, mix64, mix64_array
from ucdis.sources import context_counts, fisher_info, memoryless, sample_sequence

import reference

MEM2 = memoryless(2)
MEM3 = memoryless(3)
MEM4 = memoryless(4)


def mem_counts(y, k):
    """What the ducompm decoder takes of a memory y: its counts."""
    return reference.memory_counts(memoryless(k), y)


def all_types(n, k):
    """Stars-and-bars enumeration, ascending lexicographic."""
    if k == 1:
        return [(n,)]
    out = []
    for first in range(n + 1):
        for rest in all_types(n - first, k - 1):
            out.append((first,) + rest)
    return sorted(out)


def qform(e, t, n):
    """The region's quadratic form r v' I v, v = t/n - center over the free
    coordinates, in plain numpy: within a few ulps of the walk's own
    arithmetic, which is what decides membership."""
    v = np.asarray(t[:-1]) / n - e.center[:-1]
    return float(v @ (e.r * e.fisher) @ v)


def bounding_box(e, n, k):
    """Per free coordinate, the integer range of the ellipsoid's axis-aligned
    bounding box, n * (center +- sqrt(q * A^-1_ii)) with A = r * Fisher,
    clipped to [0, n]."""
    a_inv = np.linalg.inv(e.r * e.fisher)
    half = np.sqrt(np.maximum(e.chi2_threshold * np.diag(a_inv), 0.0))
    c = e._center_free
    lo = [max(0, math.ceil(n * (c[i] - half[i]))) for i in range(k - 1)]
    hi = [min(n, math.floor(n * (c[i] + half[i]))) for i in range(k - 1)]
    return lo, hi


def box_scan_types(e, n, k):
    """Reference enumerator: every type in the bounding box, in lexicographic
    order, kept when ellipsoid_contains admits it."""
    d = k - 1
    lo, hi = bounding_box(e, n, k)
    out = []
    partial = [0] * d

    def recurse(i, remaining):
        if i == d:
            t = partial + [remaining]
            if ellipsoid_contains(e, t, n):
                out.append(tuple(t))
            return
        for v in range(lo[i], min(hi[i], remaining) + 1):
            partial[i] = v
            recurse(i + 1, remaining - v)

    if all(l <= h for l, h in zip(lo, hi)):
        recurse(0, n)
    return out


def region_types(e, n, k, on_boundary):
    """The region's types, listed without the walker: the box scan, or, when a
    type lies on the boundary (the rounded bounding box can cut such a type
    off at the box's extreme), every type filtered by ellipsoid_contains."""
    if on_boundary:
        return [t for t in all_types(n, k) if ellipsoid_contains(e, t, n)]
    return box_scan_types(e, n, k)


class TestTypeOf:
    def test_examples(self):
        assert type_of([0, 1, 1, 0, 1], 2).tolist() == [2, 3]
        assert type_of([], 3).tolist() == [0, 0, 0]

    def test_matches_ml_estimate(self):
        # the memoryless ML estimate is the one context row of counts over n,
        # so the type is that row
        x = np.array([0, 2, 2, 1, 0, 0])
        assert type_of(x, 3).tolist() == context_counts(MEM3, x)[0].tolist()


class TestEllipsoid:
    def test_balanced_memory_membership(self):
        # independent arithmetic: center is exactly (1/2, 1/2) for 500/500
        # counts, Fisher info is 4, r = 500, threshold is the chi-square(1)
        # quantile at 0.99
        e = build_ellipsoid([[500, 500]], 1000, 0.01, 2)
        assert e.center == pytest.approx([0.5, 0.5], abs=1e-12)
        assert e.r == pytest.approx(500.0)
        assert e.fisher[0, 0] == pytest.approx(4.0, abs=1e-12)
        assert e.chi2_threshold == pytest.approx(6.634896601021215, rel=1e-9)
        # oracle: Q(t) = 500 * 4 * (t/1000 - 0.5)^2
        assert 500 * 4 * 0.05**2 <= e.chi2_threshold  # (550, 450) inside
        assert ellipsoid_contains(e, [550, 450], 1000)
        assert 500 * 4 * 0.10**2 > e.chi2_threshold  # (600, 400) outside
        assert not ellipsoid_contains(e, [600, 400], 1000)

    def test_radius_bits_and_threshold_consistent(self):
        # the threshold in bits is the bounds engine's radius delta_d
        y = sample_sequence(MEM3, [0.3, 0.4, 0.3], 600, seed=9)
        e = build_ellipsoid(mem_counts(y, 3), 400, 0.05, 3)
        assert 2.0 * delta_d(2, 0.05) / math.log2(math.e) == pytest.approx(e.chi2_threshold, rel=1e-12)

    def test_center_interior_for_constant_memory(self):
        e = build_ellipsoid([[200, 0]], 100, 0.1, 2)
        assert 0.0 < e.center[1] < e.center[0] < 1.0

    def test_r_saturates_at_n(self):
        n = 250
        rs = [build_ellipsoid([[m, 0]], n, 0.1, 2).r for m in (250, 2500, 250_000)]
        assert rs[0] < rs[1] < rs[2] < n
        assert rs[2] == pytest.approx(n, rel=1e-2)

    def test_center_point_always_inside(self):
        center = np.array([0.3, 0.7])
        e = Ellipsoid(center, 100.0, fisher_info(MEM2, center), 1e-4)
        assert ellipsoid_contains(e, [30, 70], 100)

    def test_infinite_radius_accepts_all(self):
        center = np.array([0.5, 0.3, 0.2])
        e = Ellipsoid(center, 50.0, fisher_info(MEM3, center), 1e18)
        types = enumerate_types_in_ellipsoid(e, 20, 3)
        assert types == all_types(20, 3)

    def test_sum_mismatch_rejected(self):
        e = build_ellipsoid([[50, 50]], 100, 0.1, 2)
        with pytest.raises(ValueError):
            ellipsoid_contains(e, [50, 51], 100)

    def test_wrong_length_rejected(self):
        e = build_ellipsoid([[50, 50]], 100, 0.1, 2)
        with pytest.raises(ValueError, match="shape"):
            ellipsoid_contains(e, [50, 50, 0], 100)

    def test_negative_count_rejected(self):
        e = build_ellipsoid([[50, 50]], 100, 0.1, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            ellipsoid_contains(e, [150, -50], 100)

    @pytest.mark.parametrize("t", [[2.5, 7.5], [math.nan, 10.0]])
    def test_non_integer_count_rejected(self, t):
        # the walk lists integer types only, so its replay must not admit others
        e = build_ellipsoid([[5, 5]], 10, 0.05, 2)
        with pytest.raises(ValueError, match="integers"):
            ellipsoid_contains(e, t, 10)

    def test_infinite_threshold_holds_every_type(self):
        center = np.array([0.5, 0.3, 0.2])
        e = Ellipsoid(center, 50.0, fisher_info(MEM3, center), math.inf)
        assert all(ellipsoid_contains(e, t, 20) for t in all_types(20, 3))
        assert enumerate_types_in_ellipsoid(e, 20, 3) == all_types(20, 3)

    def test_pe_domain(self):
        with pytest.raises(ValueError):
            build_ellipsoid([[1, 1]], 10, 0.0, 2)
        with pytest.raises(ValueError):
            build_ellipsoid([[1, 1]], 10, 1.0, 2)


class TestEnumeration:
    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(12)
        for case in range(60):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(1, 31))
            fam = memoryless(k)
            center = rng.dirichlet([1.0] * k)
            scale = float(rng.uniform(0.2, 4.0))
            e = Ellipsoid(
                center,
                float(rng.uniform(5.0, 400.0)),
                fisher_info(fam, center),
                scale * chi2_quantile_upper(k - 1, 0.1),
            )
            fast = enumerate_types_in_ellipsoid(e, n, k)
            brute = [t for t in all_types(n, k) if ellipsoid_contains(e, t, n)]
            assert fast == brute, f"case {case}"

    def test_lexicographic_order(self):
        y = sample_sequence(MEM3, [0.4, 0.3, 0.3], 900, seed=2)
        e = build_ellipsoid(mem_counts(y, 3), 300, 0.2, 3)
        out = enumerate_types_in_ellipsoid(e, 300, 3)
        assert out == sorted(out)
        assert len(out) > 3

    def test_candidate_cap(self):
        y = sample_sequence(MEM3, [1 / 3] * 3, 3000, seed=3)
        e = build_ellipsoid(mem_counts(y, 3), 300, 0.05, 3)
        with pytest.raises(ResourceLimitError):
            enumerate_types_in_ellipsoid(e, 300, 3, cap=10)

    def test_cap_counts_visited_points_not_the_box(self):
        # 24,676 candidates; the walk visits about 26k lattice points, the
        # bounding box holds 87,906
        y = sample_sequence(MEM4, [0.4, 0.3, 0.2, 0.1], 2000, seed=1)
        e = build_ellipsoid(mem_counts(y, 4), 200, 0.01, 4)
        lo, hi = bounding_box(e, 200, 4)
        assert math.prod(h - l + 1 for l, h in zip(lo, hi)) > 50_000
        assert enumerate_types_in_ellipsoid(e, 200, 4, cap=50_000) == box_scan_types(e, 200, 4)
        assert count_types_in_ellipsoid(e, 200, 4, cap=50_000) == 24_676
        with pytest.raises(ResourceLimitError):
            count_types_in_ellipsoid(e, 200, 4, cap=24_000)


@st.composite
def ellipsoids(draw, n_max=60):
    """(ellipsoid, n, k): Dirichlet centers, some with theta_min near 1/m for
    m up to 10^5 (ill-conditioned Fisher), r and threshold scale log-uniform,
    and half of the thresholds placed on a type's plain quadratic form, within
    a few ulps of the region's edge.  n <= n_max, but n <= n_max / 2 at
    k = 5, where the reference's box can hold the whole simplex (635,376
    types at n = 60)."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(1, n_max if k < 5 else n_max // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = np.maximum(rng.dirichlet([draw(st.sampled_from([0.3, 1.0, 5.0]))] * k), 1e-12)
    if draw(st.booleans()):
        m = 10 ** draw(st.floats(1.0, 5.0))
        j = draw(st.integers(0, k - 1))
        center[j] = 0.0
        center *= (1.0 - 1.0 / m) / center.sum()
        center[j] = 1.0 / m
    center /= center.sum()
    r = 10 ** draw(st.floats(0.0, 4.0))
    scale = 10 ** draw(st.floats(-1.5, 1.0))
    e = Ellipsoid(center, r, fisher_info(memoryless(k), center),
                  scale * chi2_quantile_upper(k - 1, 0.1))
    on_boundary = draw(st.booleans())
    if on_boundary:
        # a type on the boundary, to a few ulps: the walk's arithmetic decides it
        e.chi2_threshold = qform(e, rng.multinomial(n, center).tolist(), n)
    return e, n, k, on_boundary


# walk chunk sizes: small ones cut a level's prefixes, and one parent's
# children, across chunks
CHUNKS = st.sampled_from([1, 3, 7, ducompm._CHUNK])


class TestWalkerAgainstBoxScan:
    @settings(max_examples=300)
    @given(ellipsoids(), CHUNKS)
    def test_same_types_same_order(self, case, chunk):
        e, n, k, on_boundary = case
        with mock.patch.object(ducompm, "_CHUNK", chunk):
            types = enumerate_types_in_ellipsoid(e, n, k)
        assert types == region_types(e, n, k, on_boundary)

    @settings(max_examples=300)
    @given(ellipsoids(), CHUNKS)
    def test_count_is_list_length(self, case, chunk):
        e, n, k, _ = case
        with mock.patch.object(ducompm, "_CHUNK", chunk):
            count = count_types_in_ellipsoid(e, n, k)
        assert count == len(enumerate_types_in_ellipsoid(e, n, k))


def edge_threshold(e, t, n):
    """The least float64 threshold whose region holds t, by bisection over the
    threshold's bit pattern: membership only grows with the threshold, and
    nonnegative floats order as their bits do."""
    def holds(bits):
        e.chi2_threshold = struct.unpack("<d", struct.pack("<q", bits))[0]
        return ellipsoid_contains(e, t, n)

    lo, hi = -1, struct.unpack("<q", struct.pack("<d", math.inf))[0]  # out, in
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return struct.unpack("<d", struct.pack("<q", hi))[0]


class TestRegionEdge:
    @settings(max_examples=200)
    @given(ellipsoids(n_max=16), st.integers(0, 2**32 - 1))
    def test_walk_replay_and_listing_agree_on_the_edge(self, case, seed):
        """The threshold sits on a type's edge, the least threshold that admits
        it, and then one float below it.  The last level, whose partial form
        is the largest, mostly decides the edge: there the type's count is
        ceil(mid - half) or floor(mid + half) exactly.  At every chunk size
        the walk lists what ellipsoid_contains admits over all types, the
        edge type first in, then out."""
        e, n, k, _ = case
        t = tuple(np.random.default_rng(seed).multinomial(n, e.center).tolist())
        edge = edge_threshold(e, t, n)
        for q, inside in ((edge, True), (math.nextafter(edge, -math.inf), False)):
            e.chi2_threshold = q
            assert ellipsoid_contains(e, t, n) == inside
            listed = [u for u in all_types(n, k) if ellipsoid_contains(e, u, n)]
            for chunk in (1, 3, 7, ducompm._CHUNK):
                with mock.patch.object(ducompm, "_CHUNK", chunk):
                    assert enumerate_types_in_ellipsoid(e, n, k) == listed


class TestUniversalHash:
    def test_deterministic(self):
        t = np.array([5, 7, 3])
        assert universal_hash(t, 42, 16) == universal_hash(t.tolist(), 42, 16)

    def test_width_domain(self):
        with pytest.raises(ValueError):
            universal_hash([1, 2], 0, 0)
        with pytest.raises(ValueError):
            universal_hash([1, 2], 0, 65)
        assert universal_hash([1, 2], 0, 64) < 1 << 64

    def test_collision_rate(self):
        # 10^6 random distinct type pairs at b=16: empirical rate within 1.5x
        # of the 2^-16 target
        rng = np.random.default_rng(2024)
        pairs = rng.integers(0, 300, size=(1_000_000, 2, 3))
        collisions = 0
        seen = 0
        for a, b in pairs:
            if np.array_equal(a, b):
                continue
            seen += 1
            if universal_hash(a, 7, 16) == universal_hash(b, 7, 16):
                collisions += 1
        assert seen > 990_000
        assert collisions / seen <= 1.5 * 2**-16

    def test_seed_sensitivity(self):
        # a new seed re-hashes a fixed type to a fresh b-bit value
        t = [17, 3, 80]
        b = 8
        base = universal_hash(t, 0, b)
        changed = sum(universal_hash(t, s, b) != base for s in range(1, 20_001))
        assert 0.99 <= changed / 20_000 <= 1.0


def listing_decode(payload, types, cfg):
    """Reference decoder: hash each of the region's listed ``types`` with the
    scalar universal_hash, then apply the width and range filters."""
    r = BitReader(payload)
    b = r.read_uint(16)
    h = r.read_uint(b)
    rank_field_bits = payload.bit_length - 16 - b
    rank = r.read_uint(rank_field_bits)
    survivors = []
    for t in types:
        size = multinomial_count(t)
        if (universal_hash(t, cfg.hash_seed, b) == h
                and (size - 1).bit_length() == rank_field_bits and rank < size):
            survivors.append(t)
    if len(survivors) != 1:
        return DecodeOutcome(failure_reason="ambiguous" if survivors else "no-candidate")
    return DecodeOutcome(sequence=type_unrank(survivors[0], rank))


def in_fresh_thread(f, *args):
    """f(*args) in a thread of its own, which ends before this returns."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(f, *args).result()


def traced_peak(f, *args):
    """Peak bytes that tracemalloc traces while f(*args) runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def decode_cases(draw):
    """(ellipsoid, n, k, the region's types, hash seed, b, h, payload).  The
    types come from ``region_types``, which filters with ellipsoid_contains.
    Half of the regions have a type within an ulp of their boundary, on
    whichever side the walk's arithmetic puts it.  Hash widths of 1..4 bits
    let several types hit; half of the payloads take the rank-field width,
    and half of those also the hash, of a type in the region or of that
    boundary type."""
    e, n, k, on_boundary = draw(ellipsoids())
    near = []
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        near = [tuple(rng.multinomial(n, e.center).tolist())]
        e.chi2_threshold = math.nextafter(qform(e, near[0], n), -math.inf)
    seed = draw(st.integers(0, MASK64))
    b = draw(st.integers(1, 4))
    h = draw(st.integers(0, (1 << b) - 1))
    types = region_types(e, n, k, on_boundary or bool(near))
    if types + near and draw(st.booleans()):
        t = draw(st.sampled_from(types + near))
        width = (multinomial_count(t) - 1).bit_length()
        if draw(st.booleans()):
            h = universal_hash(t, seed, b)
    else:
        width = draw(st.integers(0, 12))
    rank = draw(st.integers(0, (1 << width) - 1))
    return e, n, k, types, seed, b, h, DCodeword(b, h, rank, width).payload()


class TestDecodeAgainstListing:
    @settings(max_examples=300)
    @given(decode_cases(), st.sampled_from([1, 3, 7, ducompm._BLOCK]), CHUNKS)
    def test_same_hits_same_outcome(self, case, block, chunk):
        # small blocks split the walker's lines across blocks
        e, n, k, types, seed, b, h, payload = case
        cfg = DucompmConfig(k=k, m=1, p_e=0.1, hash_seed=seed)
        mult = ducompm._hash_multipliers(seed, k)
        with mock.patch.object(ducompm, "_BLOCK", block), \
                mock.patch.object(ducompm, "_CHUNK", chunk):
            hits = ducompm._hash_hits(e, n, k, cfg.candidate_cap, mult, b, h)
            with mock.patch.object(ducompm, "build_ellipsoid", lambda *args: e):
                got = decode_ducompm(payload, mem_counts([0], k), n, cfg)
        assert hits == [t for t in types if universal_hash(t, seed, b) == h]
        want = listing_decode(payload, types, cfg)
        assert got.failure_reason == want.failure_reason
        if want.ok:
            assert np.array_equal(got.sequence, want.sequence)

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, MASK64), max_size=40))
    def test_mix64_array_is_mix64(self, values):
        # in place: the argument holds the result
        values += [0, MERSENNE61 - 1, MASK64]
        z = np.array(values, dtype=np.uint64)
        assert mix64_array(z, np.empty_like(z)) is z
        assert z.tolist() == [mix64(v) for v in values]

    def test_memory_does_not_grow_with_the_line(self):
        # k=2: one line of about 620k points, none passing a 64-bit hash
        n, y = 10**6, [[5, 5]]
        cfg = DucompmConfig(k=2, m=10, p_e=0.05)
        assert count_types_in_ellipsoid(build_ellipsoid(y, n, cfg.p_e, 2), n, 2) > 600_000
        payload = DCodeword(b=64, hash_value=0x0123456789ABCDEF, rank=0,
                            rank_bit_length=0).payload()
        # a fresh thread allocates its block buffers inside the window
        tracemalloc.start()
        try:
            outcome = in_fresh_thread(decode_ducompm, payload, y, n, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outcome.failure_reason == "no-candidate"
        assert peak < 8 * 2**20

    def test_memory_does_not_grow_with_k(self):
        # a forged header's k=131 over a k=3 memory: the 130-level walk runs
        # into the cap, holding one chunk of prefixes per level on the way
        y = mem_counts(sample_sequence(MEM3, [1 / 3] * 3, 3000, seed=5), 131)
        cfg = DucompmConfig(k=131, m=3000, p_e=0.05, candidate_cap=200_000)
        payload = DCodeword(b=20, hash_value=1, rank=0, rank_bit_length=10).payload()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                decode_ducompm(payload, y, 300, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_second_call_allocates_no_block(self):
        # k=4, n=200: about 26k candidates in one block of the hash filter.
        # Beyond the walk's own arrays, a thread's first call allocates its
        # block buffers (17 bytes a point) and a second call only per-run
        # arrays and numpy's broadcast buffers (at most 2 x 64 KB).
        n, cfg = 200, DucompmConfig(k=4, m=2000, p_e=0.01)
        y = sample_sequence(MEM4, [0.4, 0.3, 0.2, 0.1], cfg.m, seed=41)
        e = build_ellipsoid(mem_counts(y, 4), n, cfg.p_e, 4)
        args = (e, n, 4, cfg.candidate_cap, ducompm._hash_multipliers(cfg.hash_seed, 4), 16, 5)
        walk = traced_peak(count_types_in_ellipsoid, e, n, 4)
        first = traced_peak(in_fresh_thread, ducompm._hash_hits, *args)
        ducompm._hash_hits(*args)
        second = traced_peak(ducompm._hash_hits, *args)
        block = 8 * ducompm._BLOCK
        assert block < first - walk < 3 * block
        assert second - walk < block // 2

    def test_threads_decode_at_once(self):
        # each thread has its own block buffers: two decodes with different
        # hash seeds both fill their one block before either mixes it, and
        # still decode their own sequences
        n, theta = 200, [0.4, 0.3, 0.2, 0.1]
        y = sample_sequence(MEM4, theta, 2000, seed=43)
        cfgs = [DucompmConfig(k=4, m=2000, p_e=0.01, hash_seed=s) for s in (1, 2)]
        xs = [sample_sequence(MEM4, theta, n, seed=s) for s in (44, 45)]
        payloads = [encode_ducompm(x, c).payload() for x, c in zip(xs, cfgs)]

        def decoded(payload, cfg):
            return decode_ducompm(payload, mem_counts(y, cfg.k), n, cfg).sequence.tolist()

        assert [decoded(p, c) for p, c in zip(payloads, cfgs)] == [x.tolist() for x in xs]
        meet, mix = threading.Barrier(2, timeout=30), ducompm.mix64_array

        def mix_together(z, scratch):
            meet.wait()
            return mix(z, scratch)

        with mock.patch.object(ducompm, "mix64_array", mix_together), \
                ThreadPoolExecutor(2) as pool:
            got = list(pool.map(decoded, payloads, cfgs))
        assert got == [x.tolist() for x in xs]


class TestHashLength:
    def test_single_candidate_floor(self):
        # n=1 with a huge memory: the surrogate ellipsoid holds one type
        b = hash_length(type_of([0], 2), DucompmConfig(k=2, m=10**6, p_e=0.5))
        assert b == 1

    def test_monotone_in_memory_length(self):
        t = type_of(sample_sequence(MEM3, [0.5, 0.3, 0.2], 300, seed=77), 3)
        prev = 65
        for m in (300, 1000, 3000, 30_000, 300_000):
            b = hash_length(t, DucompmConfig(k=3, m=m, p_e=0.05))
            assert b <= prev
            prev = b

    def test_width_grows_with_confidence(self):
        t = type_of(sample_sequence(MEM3, [0.5, 0.3, 0.2], 300, seed=77), 3)
        assert (hash_length(t, DucompmConfig(k=3, m=3000, p_e=0.001))
                > hash_length(t, DucompmConfig(k=3, m=3000, p_e=0.1)))

    @pytest.mark.parametrize("budget", [None, 0.5, 1e-3])
    def test_width_from_collision_budget(self, budget):
        # b = ceil(log2(N / beta)), N the count in the encoder's surrogate
        # ellipsoid (centered at its own sequence) and beta defaulting to p_e
        t = type_of(sample_sequence(MEM3, [0.5, 0.3, 0.2], 300, seed=77), 3)
        n_hat = count_types_in_ellipsoid(ducompm._ellipsoid([t], 300, 3000, 0.05, 3), 300, 3)
        beta = 0.05 if budget is None else budget
        b = hash_length(t, DucompmConfig(k=3, m=3000, p_e=0.05, collision_budget=budget))
        assert b == max(1, math.ceil(math.log2(max(1, n_hat) / beta)))

    @pytest.mark.parametrize("budget", [1e-320, 1e-30])
    def test_width_beyond_64_bits_rejected(self, budget):
        # N / beta overflows to inf at 1e-320 and is finite but past 2^64 at 1e-30
        t = type_of(sample_sequence(MEM3, [0.5, 0.3, 0.2], 300, seed=77), 3)
        with pytest.raises(ValueError, match="exceeds 64 bits"):
            hash_length(t, DucompmConfig(k=3, m=3000, p_e=0.05, collision_budget=budget))

    def test_width_at_the_64_bit_edge(self, monkeypatch):
        # one candidate: N / beta = 2^64 takes 64 bits, and any larger ratio
        # is rejected, although its float log2 rounds down to 64.0
        monkeypatch.setattr(ducompm, "count_types_in_ellipsoid", lambda *a, **kw: 1)
        t = np.array([1, 1])
        assert hash_length(t, DucompmConfig(k=2, m=10, p_e=0.5, collision_budget=2.0**-64)) == 64
        below = math.nextafter(2.0**-64, 0.0)
        assert math.ceil(math.log2(1 / below)) == 64
        with pytest.raises(ValueError, match="exceeds 64 bits"):
            hash_length(t, DucompmConfig(k=2, m=10, p_e=0.5, collision_budget=below))


@st.composite
def rank_cases(draw):
    """(x, k, r): a sequence and a rank of its class.  k is 2..16; the length
    sits at a block boundary, at a boundary of 3-block chunks or at the
    numpy rank's threshold, is up to 300, or is long enough for the class to
    pass the guessing break-even (thousands at k <= 4).  A random set of
    symbols does not occur (zero counts; all but one gives a one-sequence
    class), and the others have random frequencies."""
    k = draw(st.integers(2, 16))
    B = ducompm._RANK_BLOCK
    V = ducompm._VECTOR_MIN
    long = st.integers(1000, 4000) if k <= 4 else st.integers(300, 1000)
    edges = [0, 1, B - 1, B, B + 1, 3 * B - 1, 3 * B, 3 * B + 1, 6 * B, 6 * B + 1, V - 1, V]
    n = draw(st.sampled_from(edges) | st.integers(0, 300) | long)
    absent = draw(st.sets(st.integers(0, k - 1), max_size=k - 1))
    used = [a for a in range(k) if a not in absent]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.choice(used, size=n, p=rng.dirichlet(np.full(len(used), 2.0))).tolist()
    r = draw(st.integers(0, multinomial_count(type_of(x, k)) - 1))
    return x, k, r


@st.composite
def class_types(draw):
    """Types whose class size is cheap to compute exactly, k = 2..8: any
    counts up to 3,000 symbols; one count of up to 2^32 - 1 symbols in total
    (a container's largest n) with the others summing to at most 40; or
    (2^j - 1, 1), whose class size is 2^j, with zeros, in any order."""
    k = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["any", "long", "power"]))
    if kind == "any":
        return tuple(draw(st.lists(st.integers(0, 3000 // k), min_size=k, max_size=k)))
    if kind == "long":
        t = draw(st.lists(st.integers(0, 40 // k), min_size=k - 1, max_size=k - 1))
        t.insert(draw(st.integers(0, k - 1)), draw(st.integers(0, 2**32 - 1 - sum(t))))
        return tuple(t)
    j = draw(st.integers(1, 31))
    return tuple(draw(st.permutations([2**j - 1, 1] + [0] * (k - 2))))


class TestRanking:
    def test_two_element_class(self):
        assert type_rank([0, 1], 2) == (0, 2)
        assert type_rank([1, 0], 2) == (1, 2)
        assert type_unrank([1, 1], 0).tolist() == [0, 1]
        assert type_unrank([1, 1], 1).tolist() == [1, 0]

    def test_known_rank_example(self):
        assert type_rank([0, 1, 1, 0], 2) == (2, 6)  # third among 0011,0101,0110,...

    def test_smallest_member_is_rank_zero(self):
        assert type_rank([0, 0, 1, 1, 2], 3) == (0, 30)

    def test_multinomial_count(self):
        assert multinomial_count([2, 2]) == 6
        assert multinomial_count([5, 0, 0]) == 1
        assert multinomial_count([3, 2, 1]) == 60

    def test_exhaustive_roundtrip_small(self):
        for k in (2, 3):
            for n in range(0, 9):
                for x in product(range(k), repeat=n):
                    x = np.array(x, dtype=np.int64)
                    t = type_of(x, k)
                    r, size = type_rank(x, k)
                    assert size == multinomial_count(t)
                    assert np.array_equal(type_unrank(t, r), x)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            type_unrank([2, 2], 6)

    @settings(max_examples=200)
    @given(st.data())
    def test_rank_unrank_bijection(self, data):
        k = data.draw(st.integers(2, 8))
        x = data.draw(st.lists(st.integers(0, k - 1), max_size=300))
        t = type_of(x, k)
        size = multinomial_count(t)
        rank, rank_size = type_rank(x, k)
        assert rank_size == size
        assert 0 <= rank < size
        assert type_unrank(t, rank).tolist() == x
        r = data.draw(st.integers(0, size - 1))
        assert type_rank(type_unrank(t, r), k) == (r, size)

    def test_unrank_is_lex_ordered(self):
        t = [3, 2]
        seqs = [tuple(type_unrank(t, r)) for r in range(multinomial_count(t))]
        assert seqs == sorted(seqs)

    @settings(max_examples=150)
    @given(rank_cases(), st.sampled_from([1, ducompm._GUESS_MIN_BITS]),
           st.sampled_from([0, 10**6]), st.sampled_from([1, 3]))
    @example(([2] * 70, 3, 0), 1, 0, 1)
    @example(([], 2, 0), 1, 0, 1)
    def test_blocked_matches_per_symbol_reference(self, case, min_bits, vector_min, chunk):
        """The blocked rank and unrank agree with the per-symbol loops, on
        the guess-and-check path too (with the break-even patched to 1 bit,
        every class of two or more sequences takes it).  The rank is checked
        on the numpy path for every n (threshold 0) and on the loop path for
        every n (threshold above all drawn n), with chunks of 1 and 3 blocks."""
        x, k, r = case
        t = type_of(x, k)
        size = multinomial_count(t)
        assert type_rank(x, k) == (reference.type_rank(x, k), size)
        with mock.patch.object(ducompm, "_VECTOR_MIN", vector_min), \
                mock.patch.object(ducompm, "_RANK_CHUNK", chunk):
            assert type_rank(x, k) == (reference.type_rank(x, k), size)
        with mock.patch.object(ducompm, "_GUESS_MIN_BITS", min_bits):
            assert type_unrank(t, type_rank(x, k)[0]).tolist() == x
            expected = reference.type_unrank(t, r)
            assert type_unrank(t, r).tolist() == expected
            assert type_unrank(t, r, size).tolist() == expected

    @pytest.mark.parametrize("k", [2, 3])
    def test_wrong_guesses_are_redone_exactly(self, k):
        """Guesses are accepted as they stand; one that misses the rank's
        interval, or whose window's rank is not below its size, is redone by
        the exact loop: same output, and the redo ran (the exact loop is
        otherwise called once, for the tail).  k = 2 runs its own branch.
        Every checked guess is a prefix of the class: both of the check's
        quotients are exact."""
        family, theta = {2: (MEM2, [0.45, 0.55]), 3: (MEM3, [0.5, 0.3, 0.2])}[k]
        x = sample_sequence(family, theta, 2000, seed=11).tolist()
        t = type_of(x, k)
        r = type_rank(x, k)[0]
        size = multinomial_count(t)
        real = ducompm._guess_block
        real_step = ducompm._block_step

        def mirrored(counts, total, rank, size, m):  # the guess for another rank
            return real(counts, total, size - 1 - rank, size, m)

        def exact_step(size, s, div, mul):
            assert mul > 0 and size * s % div == 0 and size * mul % div == 0
            return real_step(size, s, div, mul)

        for patch, least in ((contextlib.nullcontext(), 0),
                             (mock.patch.object(ducompm, "_guess_block", mirrored), 10),
                             (mock.patch.object(ducompm, "_GUESS_MARGIN", -10**6), 10)):
            with patch, mock.patch.object(ducompm, "_unrank_steps",
                                          wraps=ducompm._unrank_steps) as steps, \
                    mock.patch.object(ducompm, "_block_step", exact_step):
                assert type_unrank(t, r, size).tolist() == x
            redone = [c for c in steps.call_args_list if c.args[-1] == ducompm._RANK_BLOCK]
            assert steps.call_count == len(redone) + 1
            assert len(redone) >= least if least else redone == []

    @pytest.mark.parametrize("t", [(200, 3), (200, 0, 3), (3, 200)])
    def test_window_at_the_top_of_its_class_is_not_guessed(self, t):
        """The last ranks of a class with few of its last symbol, guessed from
        1 bit of class size on with no margin (a 6-bit window at size 2^21):
        the window's rank equals its size, a window guess of the last symbol
        would pass its count, and the block is done by the exact loop
        instead; every checked guess is a real prefix."""
        real_step = ducompm._block_step

        def exact_step(size, s, div, mul):
            assert mul > 0 and size * s % div == 0 and size * mul % div == 0
            return real_step(size, s, div, mul)

        size = multinomial_count(t)
        with mock.patch.object(ducompm, "_GUESS_MIN_BITS", 1), \
                mock.patch.object(ducompm, "_GUESS_MARGIN", 0), \
                mock.patch.object(ducompm, "_block_step", exact_step):
            for r in (size - 1, size - 2, 0):
                assert type_unrank(t, r).tolist() == reference.type_unrank(t, r)

    @settings(max_examples=100)
    @given(rank_cases())
    def test_block_step_is_the_exact_quotients(self, case):
        """On every block of a sequence, folded from its end, _block_step
        gives size * S / P and size * Q / P (the rank's fold, both exact),
        and from the class size before the block, start * S / Q and
        start * P / Q (the unrank's check), the same pair."""
        x, k, _ = case
        size = 1
        for s, p, q in ducompm._loop_blocks(x, k):
            assert size * s % p == 0 and size * q % p == 0
            part, start = ducompm._block_step(size, s, p, q)
            assert (part, start) == (size * s // p, size * q // p)
            assert start * s % q == 0 and start * p % q == 0
            assert ducompm._block_step(start, s, q, p) == (start * s // q, start * p // q)
            assert ducompm._block_step(start, s, q, p) == (part, size)
            size = start
        assert size == multinomial_count(type_of(x, k))

    @pytest.mark.parametrize("least, most", [(None, None), (64, 300)])
    def test_class_size_on_both_sides_of_the_prime_limits(self, least, most):
        """multinomial_count equals the product of binomials just below, at
        and just above the crossover to the prime-exponent form and its upper
        limit, with zero counts: at the real constants (the upper limit with
        skewed classes, whose binomials are cheap) and at small patched ones."""
        least = least or ducompm._PRIME_MIN_N
        most = most or ducompm._PRIME_MAX_N

        def binomials(t):
            total, size = 0, 1
            for c in t:
                total += c
                size *= math.comb(total, c)
            return size

        rng = np.random.default_rng(19)
        with mock.patch.object(ducompm, "_PRIME_MIN_N", least), \
                mock.patch.object(ducompm, "_PRIME_MAX_N", most), \
                mock.patch.object(ducompm, "_class_size_from_primes",
                                  wraps=ducompm._class_size_from_primes) as primes:
            for n in (least - 1, least, least + 1, most - 1, most, most + 1):
                skewed = [0, n - 7, 3, 0, 4]
                types = [skewed, [n], [0, n, 0], [n - 1, 1], [1, n - 1, 0]]
                if n < 10**4:
                    types += [[n // 2, 0, n - n // 2],
                              rng.multinomial(n, [0.3, 0.2, 0, 0.5]).tolist(),
                              rng.multinomial(n, [1 / 8] * 8).tolist()]
                for t in types:
                    primes.reset_mock()
                    assert multinomial_count(t) == binomials(t), (n, t)
                    assert primes.called == (least <= n <= most), (n, t)

    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -math.inf])
    def test_non_integer_counts_rejected(self, bad):
        with pytest.raises(ValueError, match="finite integers"):
            multinomial_count([bad, 1])
        with pytest.raises(ValueError, match="finite integers"):
            type_unrank([bad, 1], 0)
        with pytest.raises(ValueError, match="finite integers"):
            type_unrank(np.array([1.0, bad]), 0)

    def test_integer_valued_float_counts_accepted(self):
        assert multinomial_count([2.0, 1]) == multinomial_count(np.array([2.0, 1.0])) == 3
        assert type_unrank([2.0, 1.0], 2).tolist() == type_unrank([2, 1], 2).tolist() == [1, 0, 0]

    @pytest.mark.parametrize("b", [7, 8, 11, 15, 16])
    @pytest.mark.parametrize("n_from_2b", [-1, 0])
    def test_numpy_rank_at_the_int64_limits(self, b, n_from_2b):
        """n = 2^b - 1 and 2^b put the bit length of T_1 = n on either side of
        a change in the number of int64 fold levels (w * leaves <= 63; at
        n = 255 and 65535 a product of 8 or 4 values of T passes 2^63, so a
        fold kept in int64 one level too long wraps).  32 1s alternating with
        0s ahead of the other 0s keep T, num and pre near n in the first block,
        where the 1s make S nonzero, and the class small."""
        n = 2**b + n_from_2b
        x = [1, 0] * 32 + [0] * (n - 64)
        with mock.patch.object(ducompm, "_VECTOR_MIN", 0):
            assert type_rank(x, 2) == (reference.type_rank(x, 2), math.comb(n, 32))

    def test_rank_memory_does_not_grow_with_n(self):
        """The numpy rank holds one chunk of blocks at a time: tracing type_rank
        on 2^18 symbols (x itself, 2 MiB of int64, is allocated before
        tracing) stays under 1.5 MiB; a list of the symbols alone takes 2 MiB."""
        x = sample_sequence(MEM2, [0.9, 0.1], 2**18, seed=3)
        assert x.dtype == np.int64
        tracemalloc.start()
        try:
            rank, size = type_rank(x, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size == multinomial_count(type_of(x, 2))
        assert peak < 1.5 * 2**20

    def test_size_argument_is_the_class_size(self):
        x = sample_sequence(MEM2, [0.45, 0.55], 3000, seed=5).tolist()
        t = type_of(x, 2)
        size = multinomial_count(t)
        assert size.bit_length() > ducompm._GUESS_MIN_BITS
        for r in (0, type_rank(x, 2)[0], size // 3, size - 1):
            assert type_unrank(t, r, size).tolist() == type_unrank(t, r).tolist()


class TestCodewords:
    def test_constant_sequence_has_empty_rank_field(self):
        cfg = DucompmConfig(k=3, m=500, p_e=0.1)
        w = encode_ducompm(np.zeros(50, dtype=int), cfg)
        assert w.rank_bit_length == 0
        assert w.payload().bit_length == 16 + w.b

    def test_payload_layout(self):
        cfg = DucompmConfig(k=3, m=1000, p_e=0.05)
        x = sample_sequence(MEM3, [0.2, 0.5, 0.3], 120, seed=55)
        w = encode_ducompm(x, cfg)
        payload = w.payload()
        assert payload.bit_length == 16 + w.b + w.rank_bit_length
        assert w.coded_bits == w.b + w.rank_bit_length
        from ucdis.codec import BitReader

        r = BitReader(payload)
        assert r.read_uint(16) == w.b
        assert r.read_uint(w.b) == w.hash_value
        assert r.read_uint(w.rank_bit_length) == w.rank

    def test_zero_pe_refused(self):
        with pytest.raises(ValueError, match="ucomp"):
            DucompmConfig(k=2, m=100, p_e=0.0)

    def test_sequence_checked_twice_and_counted_once(self, monkeypatch):
        # the encoder checks x in type_of (through sources.context_counts)
        # and in type_rank (public, so it keeps its own check); the hash
        # width and the hash read the type
        cfg = DucompmConfig(k=3, m=3000, p_e=0.05)
        x = sample_sequence(MEM3, [0.5, 0.3, 0.2], 300, seed=77)
        t = type_of(x, 3)
        b = hash_length(t, cfg)
        rank, size = type_rank(x, 3)
        want = DCodeword(b=b, hash_value=universal_hash(t, cfg.hash_seed, b), rank=rank,
                         rank_bit_length=(size - 1).bit_length())
        checked = []
        real = sources._validate_sequence
        for module in (ducompm, sources):
            monkeypatch.setattr(module, "_validate_sequence",
                                lambda x, k: checked.append(len(x)) or real(x, k))
        counted = mock.Mock(wraps=type_of)
        monkeypatch.setattr(ducompm, "type_of", counted)
        for _ in range(2):
            checked.clear()
            assert encode_ducompm(x, cfg) == want
            assert checked == [300, 300]
        assert counted.call_count == 2


class TestDecode:
    def _trial(self, cfg, n, theta, seed):
        fam = memoryless(cfg.k)
        y = sample_sequence(fam, theta, cfg.m, seed=seed)
        x = sample_sequence(fam, theta, n, seed=seed + 1)
        w = encode_ducompm(x, cfg)
        return x, decode_ducompm(w.payload(), mem_counts(y, cfg.k), n, cfg)

    def test_matched_source_roundtrips(self):
        cfg = DucompmConfig(k=2, m=4000, p_e=0.1)
        n, trials = 400, 300
        rng = np.random.default_rng(6)
        failures = 0
        for t in range(trials):
            theta = rng.dirichlet([0.5, 0.5])
            x, outcome = self._trial(cfg, n, theta, seed=10_000 + 2 * t)
            if outcome.ok:
                # conditional correctness: a survivor of the true type decodes exactly
                if np.array_equal(type_of(outcome.sequence, 2), type_of(x, 2)):
                    assert np.array_equal(outcome.sequence, x)
                else:
                    failures += 1
            else:
                failures += 1
        budget = cfg.p_e + 3 * math.sqrt(cfg.p_e / trials) + 0.02
        assert failures / trials <= budget

    def test_adversarial_memory_fails_loudly(self):
        cfg = DucompmConfig(k=2, m=2000, p_e=0.05)
        fam = MEM2
        errors = 0
        for t in range(40):
            y = sample_sequence(fam, [0.05, 0.95], cfg.m, seed=500 + t)
            x = sample_sequence(fam, [0.9, 0.1], 400, seed=900 + t)
            w = encode_ducompm(x, cfg)
            outcome = decode_ducompm(w.payload(), mem_counts(y, cfg.k), 400, cfg)
            if not (outcome.ok and np.array_equal(outcome.sequence, x)):
                errors += 1
        assert errors >= 36  # distant parameters decode wrong almost surely

    def test_tampered_payload_is_failure_or_framing(self):
        from ucdis.codec import FramingError

        cfg = DucompmConfig(k=3, m=900, p_e=0.1)
        x = sample_sequence(MEM3, [0.4, 0.4, 0.2], 90, seed=13)
        y = sample_sequence(MEM3, [0.4, 0.4, 0.2], 900, seed=14)
        w = encode_ducompm(x, cfg)
        p = w.payload()
        truncated = BitStream(p.data, p.bit_length - 1)
        y = mem_counts(y, cfg.k)
        outcome = decode_ducompm(truncated, y, 90, cfg)
        assert not outcome.ok
        with pytest.raises(FramingError):
            decode_ducompm(BitStream(b"\x00", 8), y, 90, cfg)

    def test_wrong_memory_length_rejected(self):
        cfg = DucompmConfig(k=2, m=100, p_e=0.1)
        with pytest.raises(ValueError):
            decode_ducompm(BitStream(b"\x00\x10\x00", 20), [[99, 0]], 10, cfg)

    def test_length_beyond_32_bits_rejected(self):
        # the hash filter's arithmetic takes counts below 2^32, the container's n width
        cfg = DucompmConfig(k=2, m=4, p_e=0.1)
        with pytest.raises(ValueError, match="32-bit"):
            decode_ducompm(DCodeword(1, 0, 0, 0).payload(), [[2, 2]], 2**32, cfg)

    def test_forged_length_computes_no_class_size(self):
        """A header that claims n = 10^6 with an 8-bit rank field: the region
        holds 30,072 types with classes near 10^6 bits, and 14,850 of them
        match the 1-bit hash.  The width estimate rejects every one of them,
        so no exact class size is computed."""
        cfg = DucompmConfig(k=2, m=3000, p_e=0.1)
        y = sample_sequence(MEM2, [0.5, 0.5], cfg.m, seed=3)
        payload = DCodeword(b=1, hash_value=0, rank=0, rank_bit_length=8).payload()
        with mock.patch.object(ducompm, "_class_size", wraps=ducompm._class_size) as exact:
            outcome = decode_ducompm(payload, mem_counts(y, cfg.k), 10**6, cfg)
        assert outcome.failure_reason == "no-candidate"
        assert exact.call_count == 0

    @settings(max_examples=300)
    @given(class_types())
    @example((2**31 - 1, 1))
    @example((0, 1, 2**31 - 1))
    @example((1, 0))
    def test_width_estimate_keeps_every_exact_match(self, t):
        """The estimate never rejects a width the exact class size has, also
        where the size is a power of two (t = (2^j - 1, 1) has 2^j sequences,
        the largest size of width j); below 2^20 symbols it rejects widths two
        away."""
        n = sum(t)
        w = (multinomial_count(t) - 1).bit_length()
        assert ducompm._may_have_width(t, n, w)
        if n < 2**20:
            assert not ducompm._may_have_width(t, n, w + 2)
            assert w < 2 or not ducompm._may_have_width(t, n, w - 2)

    def test_error_budget_harness(self):
        cfg = harness.ExperimentConfig(
            family_kind="memoryless", k=2, n=400, m=4000, p_e=0.1,
            strategies=("ducompm",), trials=1200, master_seed=4242,
        )
        data = harness.run_trials(cfg)
        rate = data.errors["ducompm"].mean()
        assert rate <= 0.1 + 3 * math.sqrt(0.1 / 1200) + 0.02

    def test_coverage_lower_bound(self):
        cfg = harness.ExperimentConfig(
            family_kind="memoryless", k=2, n=500, m=500, p_e=0.1,
            strategies=("ducompm",), trials=1000, master_seed=777,
        )
        report = harness.run_coverage(cfg)
        assert report.empirical_coverage >= 1.0 - 2 * cfg.p_e
        assert report.target == pytest.approx(0.9)

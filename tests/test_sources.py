"""Source family tests: sampling, estimation, information geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucdis import codec, ducompm
from ucdis.sources import (
    BoundaryThetaError,
    SourceFamily,
    _validate_counts,
    _validate_sequence,
    context_counts,
    entropy_rate,
    fisher_info,
    log_jeffreys_integral,
    markov1,
    memoryless,
    sample_jeffreys,
    sample_sequence,
    smoothed_estimate,
    stationary_distribution,
    validate_theta,
)

MEM2 = memoryless(2)
MEM3 = memoryless(3)


def test_family_dimensions():
    assert memoryless(2).d == 1
    assert memoryless(256).d == 255
    assert markov1(2).d == 2
    assert markov1(256).d == 65280
    with pytest.raises(ValueError):
        SourceFamily("memoryless", 1)
    with pytest.raises(ValueError):
        SourceFamily("iid", 3)


def test_validate_theta():
    with pytest.raises(ValueError):
        validate_theta(MEM2, [0.6, 0.6])
    with pytest.raises(ValueError):
        validate_theta(MEM2, [1.2, -0.2])
    with pytest.raises(ValueError):
        validate_theta(markov1(2), [0.5, 0.5])  # wrong shape
    for theta in ([math.nan, 0.5], [math.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            validate_theta(MEM2, theta)
    with pytest.raises(ValueError, match="finite"):
        validate_theta(markov1(2), [[0.5, 0.5], [math.nan, 1.0]])


class TestSampling:
    def test_degenerate(self):
        x = sample_sequence(MEM2, [1.0, 0.0], 5, seed=7)
        assert x.tolist() == [0, 0, 0, 0, 0]

    def test_determinism(self):
        a = sample_sequence(MEM3, [0.2, 0.3, 0.5], 400, seed=123)
        b = sample_sequence(MEM3, [0.2, 0.3, 0.5], 400, seed=123)
        assert np.array_equal(a, b)
        c = sample_sequence(MEM3, [0.2, 0.3, 0.5], 400, seed=124)
        assert not np.array_equal(a, c)

    def test_frequencies(self):
        x = sample_sequence(MEM2, [0.5, 0.5], 10_000, seed=99)
        freq = (x == 0).mean()
        assert abs(freq - 0.5) <= 0.02  # 3 sigma of a fair binomial is 0.015

    def test_markov_alternating_chain(self):
        theta = [[0.0, 1.0], [1.0, 0.0]]
        x = sample_sequence(markov1(2), theta, 100, seed=5)
        assert all(a != b for a, b in zip(x, x[1:]))

    def test_markov_frequencies(self):
        theta = [[0.9, 0.1], [0.5, 0.5]]
        x = sample_sequence(markov1(2), theta, 20_000, seed=11)
        pi = stationary_distribution(np.array(theta))
        assert abs((x == 0).mean() - pi[0]) <= 0.02


class TestEntropy:
    def test_memoryless_values(self):
        assert entropy_rate(MEM2, [0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
        assert entropy_rate(MEM2, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert entropy_rate(MEM2, [0.25, 0.75]) == pytest.approx(0.8112781244591328, abs=1e-10)

    def test_markov(self):
        uniform_rows = [[0.5, 0.5], [0.5, 0.5]]
        assert entropy_rate(markov1(2), uniform_rows) == pytest.approx(1.0, abs=1e-12)
        # deterministic chain has zero entropy rate
        assert entropy_rate(markov1(2), [[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_markov_reducible_fallback(self):
        # identity transition matrix: every state is absorbing
        assert entropy_rate(markov1(2), [[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(0.0, abs=1e-9)


class TestEstimation:
    def test_smoothed_examples(self):
        assert smoothed_estimate(MEM2, [[0, 0]]).tolist() == [0.5, 0.5]
        assert smoothed_estimate(MEM2, [[0, 3]]) == pytest.approx([0.125, 0.875])
        assert smoothed_estimate(memoryless(4), np.zeros((1, 4), np.int64)).tolist() == [0.25] * 4
        # markov1: one estimate per context row
        assert smoothed_estimate(markov1(2), [[0, 0], [1, 3]]) == pytest.approx(
            np.array([[0.5, 0.5], [0.3, 0.7]]))

    def test_ml_consistency(self):
        # n = 10^4 puts 0.02 at ~4 sigma, so nearly every trial is inside
        theta = np.array([0.3, 0.7])
        hits = 0
        for t in range(1000):
            x = sample_sequence(MEM2, theta, 10_000, seed=1000 + t)
            if np.abs(np.bincount(x, minlength=2) / x.size - theta).max() <= 0.02:
                hits += 1
        assert hits >= 990


def context_counts_reference(family, seq):
    """Plain loop: each symbol counted in the row of the symbol before it,
    the first in row 0 (Markov), or in the one row (memoryless)."""
    counts = [[0] * family.k for _ in range(family.k if family.kind == "markov1" else 1)]
    prev = 0
    for s in seq:
        counts[prev if family.kind == "markov1" else 0][s] += 1
        prev = s
    return counts


class TestContextCounts:
    def test_markov_first_symbol_in_context_0(self):
        # [1, 1, 0]: the pairs 1->1 and 1->0, and the first symbol in
        # context 0 (the coder's convention), so every symbol counts once
        assert context_counts(markov1(2), [1, 1, 0]).tolist() == [[0, 1], [1, 1]]
        assert context_counts(MEM2, [1, 1, 0]).tolist() == [[1, 2]]

    @settings(max_examples=300)
    @given(st.data(), st.sampled_from(["memoryless", "markov1"]), st.integers(2, 8),
           st.integers(0, 60))
    def test_matches_loop_reference(self, data, kind, k, n):
        fam = SourceFamily(kind, k)
        seq = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        got = context_counts(fam, seq)
        assert got.dtype == np.int64
        assert got.tolist() == context_counts_reference(fam, seq)


class TestFisher:
    def test_bernoulli(self):
        assert fisher_info(MEM2, [0.5, 0.5]) == pytest.approx(np.array([[4.0]]))
        assert fisher_info(MEM2, [0.25, 0.75]) == pytest.approx(np.array([[1 / (0.25 * 0.75)]]))

    def test_determinant_identity(self):
        rng = np.random.default_rng(8)
        for k in (2, 3, 5, 8):
            fam = memoryless(k)
            for _ in range(20):
                theta = rng.dirichlet([2.0] * k)
                det = np.linalg.det(fisher_info(fam, theta))
                assert det == pytest.approx(1.0 / np.prod(theta), rel=1e-9)

    def test_uniform_k3(self):
        det = np.linalg.det(fisher_info(MEM3, [1 / 3] * 3))
        assert det == pytest.approx(27.0, rel=1e-10)

    def test_boundary_raises(self):
        with pytest.raises(BoundaryThetaError):
            fisher_info(MEM2, [1.0, 0.0])

    def test_markov_block_structure(self):
        theta = [[0.5, 0.5], [0.2, 0.8]]
        info = fisher_info(markov1(2), theta)
        pi = stationary_distribution(np.array(theta))
        assert info.shape == (2, 2)
        assert info[0, 1] == 0.0
        assert info[0, 0] == pytest.approx(pi[0] / (0.5 * 0.5))
        assert info[1, 1] == pytest.approx(pi[1] / (0.2 * 0.8))


class TestJeffreys:
    def test_integral_values(self):
        assert log_jeffreys_integral(MEM2) == pytest.approx(math.log2(math.pi), abs=1e-10)
        assert log_jeffreys_integral(MEM3) == pytest.approx(math.log2(2 * math.pi), abs=1e-10)
        # second route: 128 log2(pi) - log2(Gamma(128))
        expected = 128 * math.log2(math.pi) - math.lgamma(128) / math.log(2)
        assert log_jeffreys_integral(memoryless(256)) == pytest.approx(expected, abs=1e-9)
        assert log_jeffreys_integral(memoryless(256)) == pytest.approx(-497.77021751116506, abs=1e-8)
        assert log_jeffreys_integral(markov1(3)) == pytest.approx(3 * log_jeffreys_integral(MEM3))

    def test_sampling_moments(self):
        draws = np.array([sample_jeffreys(MEM2, seed=70_000 + t) for t in range(10_000)])
        assert abs(draws[:, 0].mean() - 0.5) <= 0.02
        assert abs(draws[:, 0].var() - 0.125) <= 0.01  # Beta(1/2,1/2) variance is 1/8
        assert np.all(draws > 0.0)
        assert np.all(np.abs(draws.sum(axis=1) - 1.0) <= 1e-12)

    def test_markov_draws(self):
        theta = sample_jeffreys(markov1(3), seed=4)
        assert theta.shape == (3, 3)
        assert np.allclose(theta.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(theta, sample_jeffreys(markov1(3), seed=4))


@pytest.mark.parametrize("x", [[0.5, 1.7, 2.2], [-0.5, 1], [0, 1.5], [math.inf], [-math.inf],
                               [math.nan], [1e300], [2**70], ["a"], [1 + 1j], [None],
                               [10**400]])
def test_non_integer_symbols_rejected(x):
    """A cast would truncate 0.5 to 0 and overflow on inf; the check, and the
    encoder and rank that call it, raise ValueError instead."""
    with pytest.raises(ValueError):
        _validate_sequence(x, 3)
    with pytest.raises(ValueError):
        codec.encode_ucompm(MEM3, np.zeros((1, 3), np.int64), x)
    with pytest.raises(ValueError):
        ducompm.type_rank(x, 3)


def test_integer_symbols_accepted():
    x = np.array([0, 2, 1], dtype=np.int64)
    assert _validate_sequence(x, 3) is x
    for seq in ([0, 2, 1], [0.0, 2.0, 1.0], np.array([0, 2, 1], np.uint8), (0, 2, 1)):
        assert _validate_sequence(seq, 3).tolist() == [0, 2, 1]
    empty = _validate_sequence((), 3)
    assert empty.dtype == np.int64 and empty.size == 0


def _counts_entry_points():
    """The four entry points that take a memory's counts, each as a function
    of (family, counts); the ducompm ones are configured for m = 4."""
    cfg = ducompm.DucompmConfig(k=3, m=4, p_e=0.1)
    x = np.array([0, 1, 2, 1])
    payload = ducompm.encode_ducompm(x, cfg).payload()

    def decode_ucompm(fam, counts):
        # coded with the memory [0, 0, 1, 2], whose memoryless counts are [[2, 1, 1]]
        bits = codec.encode_ucompm(fam, context_counts(fam, [0, 0, 1, 2]), x)
        return codec.decode_ucompm(fam, counts, bits, x.size)

    return {
        "encode_ucompm": lambda fam, counts: codec.encode_ucompm(fam, counts, x),
        "decode_ucompm": decode_ucompm,
        "build_ellipsoid": lambda fam, counts: ducompm.build_ellipsoid(counts, 4, cfg.p_e, 3),
        "decode_ducompm": lambda fam, counts: ducompm.decode_ducompm(payload, counts, 4, cfg),
    }


BAD_COUNTS = {
    "negative": [[3, -1, 2]],
    "fraction": [[1.5, 2.5, 0]],
    "nan": [[math.nan, 2, 2]],
    "inf": [[math.inf, 2, 2]],
    "k+1 columns": [[1, 1, 1, 1]],
    "vector": [2, 1, 1],
    "string": [["2", 1, 1]],
    "beyond int64": [[2**63 - 1, 2**63 - 1, 6]],
}


class TestMemoryCounts:
    """Every entry point that takes a memory's counts checks them through
    ``_validate_counts``: each bad value sums to the configured m = 4 (or
    wraps to it in int64), so only the check itself can reject it."""

    @pytest.mark.parametrize("entry", list(_counts_entry_points()))
    @pytest.mark.parametrize("bad", list(BAD_COUNTS))
    def test_bad_counts_rejected(self, entry, bad):
        with pytest.raises(ValueError, match="counts"):
            _counts_entry_points()[entry](MEM3, BAD_COUNTS[bad])

    @pytest.mark.parametrize("entry", ["encode_ucompm", "decode_ucompm"])
    def test_markov1_needs_a_row_per_context(self, entry):
        with pytest.raises(ValueError, match=r"counts shape \(1, 3\)"):
            _counts_entry_points()[entry](markov1(3), [[2, 1, 1]])

    @pytest.mark.parametrize("entry", ["build_ellipsoid", "decode_ducompm"])
    def test_ducompm_takes_memoryless_counts_only(self, entry):
        with pytest.raises(ValueError, match=r"counts shape \(3, 3\)"):
            _counts_entry_points()[entry](MEM3, [[2, 1, 1], [0, 0, 0], [0, 0, 0]])

    def test_ducompm_sum_must_be_m(self):
        decode = _counts_entry_points()["decode_ducompm"]
        for counts in ([[2, 1, 0]], [[2, 1, 2]]):
            with pytest.raises(ValueError, match=f"memory length {sum(counts[0])} != configured m=4"):
                decode(MEM3, counts)
        with pytest.raises(ValueError, match="nonempty"):
            _counts_entry_points()["build_ellipsoid"](MEM3, [[0, 0, 0]])

    @pytest.mark.parametrize("entry", list(_counts_entry_points()))
    def test_integer_valued_counts_accepted(self, entry):
        # floats, unsigned and Python ints that are integers give one result
        run = _counts_entry_points()[entry]
        want = run(MEM3, np.array([[2, 1, 1]], np.int64))
        for counts in ([[2.0, 1.0, 1.0]], np.array([[2, 1, 1]], np.uint8), ((2, 1, 1),)):
            got = run(MEM3, counts)
            if entry == "build_ellipsoid":
                assert (got.center.tolist(), got.r) == (want.center.tolist(), want.r)
            elif entry == "decode_ducompm":
                assert got.failure_reason == want.failure_reason
                assert np.array_equal(got.sequence, want.sequence)
            else:
                assert np.array_equal(got.data if entry == "encode_ucompm" else got,
                                      want.data if entry == "encode_ucompm" else want)

    def test_validate_counts_returns_int64(self):
        c = np.array([[0, 3]], np.int64)
        assert _validate_counts(MEM2, c) is c
        assert _validate_counts(markov1(2), [[1.0, 0.0], [2.0, 5.0]]).dtype == np.int64
        with pytest.raises(ValueError, match="finite integers"):
            _validate_counts(MEM2, [[10**400, 0]])

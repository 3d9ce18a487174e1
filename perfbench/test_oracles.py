"""Tests of the benchmark's oracles and checks: each oracle against a value
worked out another way, and each check rejecting a corrupted output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import struct
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from oracles import CheckError  # noqa: E402


def kt_bits_sequential(x, k, markov=False, memory=()):
    """-log2 of the product of (c + 1/2) / (N + k/2), symbol by symbol."""
    contexts = k if markov else 1
    counts = [[0] * k for _ in range(contexts)]
    for seq, coded in ((memory, False), (x, True)):
        prev, prob = 0, Fraction(1)
        for s in seq:
            row = counts[prev if markov else 0]
            prob *= Fraction(2 * row[s] + 1, 2 * sum(row) + k)
            row[s] += 1
            prev = s
        if coded:
            return -math.log2(prob)


@pytest.mark.parametrize(
    "x,k,markov,memory",
    [
        ([0, 1, 1, 2, 0, 0, 2, 1], 3, False, None),
        ([3, 3, 0, 1, 3], 4, False, [0, 1, 2, 3, 3, 3]),
        ([1, 1, 0, 1, 0, 0, 1, 1, 1], 2, True, None),
        ([2, 0, 1, 2, 2, 0], 3, True, [1, 2, 2, 0, 1]),
    ],
)
def test_ideal_kt_matches_sequential_product(x, k, markov, memory):
    want = kt_bits_sequential(x, k, markov, memory or ())
    assert oracles.ideal_kt_bits(x, k, markov, memory) == pytest.approx(want, rel=1e-12)


def test_markov_first_symbol_is_coded_in_context_zero():
    # x = [1]: coded in context 0 whatever the memory ended with
    assert oracles.ideal_kt_bits([1], 2, True, [1, 1, 1]) == pytest.approx(
        kt_bits_sequential([1], 2, True, [1, 1, 1]))
    assert oracles.context_counts([1, 1], 2, True) == [[0, 1], [0, 1]]


def test_type_class_size_matches_factorials():
    for counts in ([3, 0, 2], [1, 1, 1, 1], [10], [0, 0], [5, 7]):
        n = sum(counts)
        want = math.factorial(n)
        for c in counts:
            want //= math.factorial(c)
        assert oracles.type_class_size(counts) == want


def test_ucompm_theory_bits():
    assert oracles.ucompm_theory_bits(2, 300, 3000) == pytest.approx(math.log2(1.1))
    assert oracles.ucompm_theory_bits(255, 4096, 4096) == pytest.approx(127.5)


def make_container(strategy=0, family=0, k=256, n=5, m=0, p_e=0.0, payload=b"\xa0", bits=3):
    return (b"UCDS" + bytes([1, strategy, family]) + struct.pack(">HIIdI", k, n, m, p_e, bits)
            + payload)


def test_parse_container_fields():
    hdr = oracles.parse_container(make_container(2, 0, 3, 1000, 10000, 0.01, b"\x00\x14\xff", 24))
    assert (hdr["strategy"], hdr["family"], hdr["k"], hdr["n"], hdr["m"], hdr["p_e"]) == (
        "ducompm", "memoryless", 3, 1000, 10000, 0.01)
    assert hdr["bit_length"] == 24
    assert oracles.payload_uint(hdr["payload"], 0, 16) == 20
    assert oracles.payload_uint(hdr["payload"], 16, 8) == 255


@pytest.mark.parametrize(
    "blob",
    [
        b"UCDX" + make_container()[4:],           # magic
        make_container()[:4] + b"\x02" + make_container()[5:],  # version
        make_container(strategy=3),               # strategy id
        make_container(payload=b"\xa0\x00"),      # byte count vs bit length
        make_container(payload=b"\xa1"),          # nonzero pad bits
        make_container()[:20],                    # truncated header
    ],
)
def test_parse_container_rejects_corruption(blob):
    with pytest.raises(CheckError):
        oracles.parse_container(blob)


def test_check_roundtrip():
    oracles.check_roundtrip(b"\x00\x01\x02", b"\x00\x01\x02")
    for bad in (b"\x00\x01\x03", b"\x00\x01", b"\x00\x01\x02\x00"):
        with pytest.raises(CheckError):
            oracles.check_roundtrip(b"\x00\x01\x02", bad)


def test_check_kt_payload():
    oracles.check_kt_payload(101, 100.3)
    oracles.check_kt_payload(102, 100.3)
    oracles.check_kt_payload(102, 100.0)
    for bits in (100, 99, 103):  # below ideal, or more than ideal + 2
        with pytest.raises(CheckError):
            oracles.check_kt_payload(bits, 100.3)


def test_check_ducompm_payload():
    size = oracles.type_class_size([3, 2])  # 10 sequences -> 4 rank bits
    oracles.check_ducompm_payload(16 + 7 + 4, 7, size, 0.01)
    with pytest.raises(CheckError):
        oracles.check_ducompm_payload(16 + 7 + 5, 7, size, 0.01)  # rank width
    with pytest.raises(CheckError):
        oracles.check_ducompm_payload(16 + 6 + 4, 6, size, 0.01)  # b < log2(1/p_e)


def test_binomial_bound():
    bound = oracles.binomial_upper(100, 0.05)
    tail = sum(math.comb(100, e) * 0.05**e * 0.95 ** (100 - e) for e in range(bound + 1, 101))
    assert tail < 1e-6
    assert tail + math.comb(100, bound) * 0.05**bound * 0.95 ** (100 - bound) >= 1e-6
    oracles.check_error_count(bound, 100, 0.05)
    with pytest.raises(CheckError):
        oracles.check_error_count(bound + 1, 100, 0.05)


class Row:
    def __init__(self, strategy, avg_len_bits, theory_bits=0.0):
        self.strategy = strategy
        self.avg_len_bits = avg_len_bits
        self.theory_bits = theory_bits

    def __eq__(self, other):
        return vars(self) == vars(other)


def test_check_harness_rows():
    theory = oracles.ucompm_theory_bits(2, 300, 3000)
    good = [Row("ucomp", 451.0), Row("ucompm", 430.5, theory), Row("ducompm", 470.0)]
    oracles.check_harness_rows(good, 450.0, 429.0, 2, 300, 3000)
    for bad in (
        [Row("ucomp", 449.0), good[1], good[2]],            # below mean ideal
        [Row("ucomp", 452.5), good[1], good[2]],            # above mean ideal + 2
        [good[0], Row("ucompm", 430.5, theory * 1.01), good[2]],  # theory column
    ):
        with pytest.raises(CheckError):
            oracles.check_harness_rows(bad, 450.0, 429.0, 2, 300, 3000)


def test_check_same_rows():
    rows = [Row("ucomp", 451.0)]
    oracles.check_same_rows(rows, [Row("ucomp", 451.0)])
    with pytest.raises(CheckError):
        oracles.check_same_rows(rows, [Row("ucomp", 451.5)])

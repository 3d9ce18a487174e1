"""Reference computations and output checks, written apart from the program.

Nothing here imports ucdis: each oracle restates a quantity from its
definition (README.md of the project and the paper), so a fault in the
program cannot hide in the check that is meant to catch it.
"""

from __future__ import annotations

import math
import struct

LN2 = math.log(2.0)
HEADER_BYTES = 4 + 1 + 1 + 1 + 2 + 4 + 4 + 8 + 4
STRATEGIES = ("ucomp", "ucompm", "ducompm")
FAMILIES = ("memoryless", "markov1")


class CheckError(AssertionError):
    """An output disagrees with its oracle or with a property of the method."""


def context_counts(seq, k: int, markov: bool) -> list[list[int]]:
    """Per-context symbol counts; markov1 contexts start from symbol 0."""
    counts = [[0] * k for _ in range(k if markov else 1)]
    prev = 0
    for s in seq:
        counts[prev if markov else 0][s] += 1
        prev = s
    return counts


def ideal_kt_bits(x, k: int, markov: bool = False, memory=None) -> float:
    """-log2 of the sequential KT probability of x, from lgamma over counts.

    With ``memory`` the counts start from the memory's counts (ucompm).  The
    markov1 convention is the coder's: the first symbol of x, and of the
    memory, is coded in context 0.
    """
    cx = context_counts(x, k, markov)
    base = context_counts(memory, k, markov) if memory is not None else [[0] * k for _ in cx]
    half_k = 0.5 * k
    nats = 0.0
    for c0, c1 in zip(base, cx):
        n0, n1 = sum(c0), sum(c1)
        if n1 == 0:
            continue
        nats += math.lgamma(n0 + n1 + half_k) - math.lgamma(n0 + half_k)
        for a0, a1 in zip(c0, c1):
            if a1:
                nats -= math.lgamma(a0 + a1 + 0.5) - math.lgamma(a0 + 0.5)
    return nats / LN2


def type_class_size(counts) -> int:
    """Number of sequences with the given symbol counts: n! / prod(c!)."""
    size, placed = 1, 0
    for c in counts:
        placed += c
        size *= math.comb(placed, c)
    return size


def ucompm_theory_bits(d: int, n: int, m: int) -> float:
    """Leading-order ucompm redundancy (d/2) log2(1 + n/m)."""
    return 0.5 * d * math.log2(1.0 + n / m)


def parse_container(blob: bytes) -> dict:
    """Header fields and payload per the README's byte layout (big-endian).

    magic "UCDS", version u8 = 1, strategy u8, family u8, k u16, n u32,
    m u32, p_e f64, payload bit-length u32, then the payload bits MSB-first,
    zero-padded to a byte boundary.
    """
    if len(blob) < HEADER_BYTES or blob[:4] != b"UCDS":
        raise CheckError("container: short or bad magic")
    if blob[4] != 1 or blob[5] >= len(STRATEGIES) or blob[6] >= len(FAMILIES):
        raise CheckError(f"container: bad version/strategy/family {tuple(blob[4:7])}")
    u = lambda lo, hi: int.from_bytes(blob[lo:hi], "big")  # noqa: E731
    hdr = {
        "strategy": STRATEGIES[blob[5]],
        "family": FAMILIES[blob[6]],
        "k": u(7, 9),
        "n": u(9, 13),
        "m": u(13, 17),
        "p_e": struct.unpack(">d", blob[17:25])[0],
        "bit_length": u(25, 29),
        "payload": blob[HEADER_BYTES:],
    }
    nbits = hdr["bit_length"]
    if len(hdr["payload"]) != (nbits + 7) // 8:
        raise CheckError(f"container: {len(hdr['payload'])} payload bytes for {nbits} bits")
    if nbits % 8 and hdr["payload"][-1] & ((1 << (8 - nbits % 8)) - 1):
        raise CheckError("container: nonzero pad bits")
    return hdr


def payload_uint(payload: bytes, start: int, nbits: int) -> int:
    """Unsigned integer from ``nbits`` payload bits at bit offset ``start``."""
    v = int.from_bytes(payload, "big") if payload else 0
    total = 8 * len(payload)
    return (v >> (total - start - nbits)) & ((1 << nbits) - 1)


# --- checks -----------------------------------------------------------------


def check_roundtrip(original: bytes, decoded: bytes):
    if original != decoded:
        diff = next((i for i, (a, b) in enumerate(zip(original, decoded)) if a != b), None)
        raise CheckError(
            f"decoded {len(decoded)} bytes differ from {len(original)} input bytes (first at {diff})"
        )


def check_kt_payload(bits: int, ideal: float, tol: float = 1e-6):
    """Lossless payload length lies in (ideal KT, ideal KT + 2]."""
    if not (ideal - tol < bits <= ideal + 2 + tol):
        raise CheckError(f"payload {bits} bits outside (ideal {ideal:.3f}, ideal + 2]")


def check_ducompm_payload(bit_length: int, b: int, class_size: int, p_e: float):
    """Payload is 16 + b + bitlen(|T(x)| - 1) bits, with b >= ceil(log2(1/p_e))."""
    want = 16 + b + (class_size - 1).bit_length()
    if bit_length != want:
        raise CheckError(f"ducompm payload {bit_length} bits, expected 16 + {b} + rank = {want}")
    if b < math.ceil(math.log2(1.0 / p_e)):
        raise CheckError(f"hash width {b} < ceil(log2(1/p_e)) for p_e={p_e}")


def binomial_upper(trials: int, p: float, alpha: float = 1e-6) -> int:
    """Smallest e with P(Binomial(trials, p) > e) < alpha."""
    lp, lq = math.log(p), math.log1p(-p)
    tail = 0.0
    for e in range(trials, -1, -1):
        log_pmf = (
            math.lgamma(trials + 1) - math.lgamma(e + 1) - math.lgamma(trials - e + 1)
            + e * lp + (trials - e) * lq
        )
        if tail + math.exp(log_pmf) >= alpha:
            return e
        tail += math.exp(log_pmf)
    return 0


def check_error_count(errors: int, trials: int, p_e: float):
    """Decode errors stay within a binomial bound at p_e (alpha = 1e-6)."""
    bound = binomial_upper(trials, p_e)
    if errors > bound:
        raise CheckError(f"{errors} errors in {trials} decodes exceeds binomial bound {bound} at p_e={p_e}")


def check_harness_rows(rows, ucomp_ideal_mean: float, ucompm_ideal_mean: float,
                       d: int, n: int, m: int):
    """Lossless averages sit in [mean ideal KT, mean ideal KT + 2] and the
    ucompm theory column is (d/2) log2(1 + n/m)."""
    by = {r.strategy: r for r in rows}
    for name, ideal in (("ucomp", ucomp_ideal_mean), ("ucompm", ucompm_ideal_mean)):
        avg = by[name].avg_len_bits
        if not (ideal - 1e-6 <= avg <= ideal + 2 + 1e-6):
            raise CheckError(f"{name} avg_len_bits {avg} outside [{ideal:.4f}, {ideal:.4f} + 2]")
    want = ucompm_theory_bits(d, n, m)
    if not math.isclose(by["ucompm"].theory_bits, want, rel_tol=1e-12):
        raise CheckError(f"ucompm theory_bits {by['ucompm'].theory_bits} != (d/2)log2(1+n/m) = {want}")


def check_same_rows(rows_1, rows_2):
    """Harness results do not depend on the worker count."""
    if list(rows_1) != list(rows_2):
        raise CheckError("harness rows differ between 1 and 2 workers")

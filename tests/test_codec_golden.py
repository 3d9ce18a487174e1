"""Golden arithmetic-coder streams: fixed-seed ucomp/ucompm payloads must not change.

``tests/data/codec_golden.json`` holds the payload bytes and bit length of
ucomp and ucompm streams, memoryless and markov1, for k in {2, 3, 16, 256}:
Jeffreys draws, skewed theta, and two inputs built for long pending-underflow
runs (a memory with exactly symmetric outer counts followed by a run of the
middle symbol, about 61 underflow bits per run; and a fixed model whose middle
symbol owns exactly the middle half, one underflow bit per symbol, all of
them pending until termination).  Any change to the coder, the KT model or
the bit I/O that alters a single bit shows up here.  Regenerate (only on
purpose, from the code whose output is the reference) with
``PYTHONPATH=src python tests/test_codec_golden.py``.
"""

import json
from pathlib import Path

import numpy as np

from ucdis import codec
from ucdis.rng import split_seed
from ucdis.sources import SourceFamily, sample_jeffreys, sample_sequence

from reference import FixedModel, memory_counts

FIXTURE = Path(__file__).parent / "data" / "codec_golden.json"

SIZES = {2: 3000, 3: 2000, 16: 1500, 256: 1500}


def cases():
    """(strategy, family, k, n, m, theta, seed) grid.  theta "jeffreys" draws
    one (per row for markov1); "skewed" puts 0.99 on one symbol per row; the
    "symmetric" and "fixed-middle" inputs are described in the module doc."""
    out = []
    for k, n in SIZES.items():
        for kind in ("memoryless", "markov1"):
            for theta in ("jeffreys", "skewed"):
                seed = 100 * k + (10 if kind == "markov1" else 0) + (1 if theta == "skewed" else 0)
                out.append(("ucomp", kind, k, n, 0, theta, seed))
                out.append(("ucompm", kind, k, n, 4 * n, theta, seed))
    out.append(("ucompm", "memoryless", 3, 2000, 30000, "symmetric", 0))
    out.append(("fixed", "memoryless", 3, 500, 0, "fixed-middle", 0))
    return out


def _theta(fam: SourceFamily, theta: str, seed: int):
    if theta == "jeffreys":
        return sample_jeffreys(fam, split_seed(seed, 0))
    row = np.full(fam.k, 0.01 / (fam.k - 1))
    row[seed % fam.k] = 0.99
    if fam.kind == "memoryless":
        return row
    return np.array([np.roll(row, i) for i in range(fam.k)])


def inputs(strategy, kind, k, n, m, theta, seed):
    """(family, memory or None, sequence) of one case."""
    fam = SourceFamily(kind, k)
    if theta == "symmetric":
        y = np.array(([0] * 3 + [1] * 4 + [2] * 3) * (m // 10))
        return fam, y, np.ones(n, dtype=np.int64)
    if theta == "fixed-middle":
        return fam, None, np.ones(n, dtype=np.int64)
    th = _theta(fam, theta, seed)
    x = sample_sequence(fam, th, n, split_seed(seed, 1))
    y = sample_sequence(fam, th, m, split_seed(seed, 2)) if strategy == "ucompm" else None
    return fam, y, x


def encode(strategy, fam, y, x) -> codec.BitStream:
    if strategy == "fixed":
        return codec.ac_encode(FixedModel([1, 2, 1]), x.tolist())
    if strategy == "ucomp":
        return codec.encode_ucompm(fam, memory_counts(fam), x)
    return codec.encode_ucompm(fam, memory_counts(fam, y), x)


def decode(strategy, fam, y, bits, n):
    if strategy == "fixed":
        return np.array(codec.ac_decode(FixedModel([1, 2, 1]), bits, n))
    if strategy == "ucomp":
        return codec.decode_ucompm(fam, memory_counts(fam), bits, n)
    return codec.decode_ucompm(fam, memory_counts(fam, y), bits, n)


def record(*case):
    bits = encode(case[0], *inputs(*case))
    return {"case": list(case), "payload": bits.data.hex(), "bit_length": bits.bit_length}


def test_streams_unchanged():
    golden = json.loads(FIXTURE.read_text())
    assert [r["case"] for r in golden] == [list(c) for c in cases()]
    for case, want in zip(cases(), golden):
        assert record(*case) == want, f"case {case}"


def test_golden_streams_decode():
    for case, want in zip(cases(), json.loads(FIXTURE.read_text())):
        fam, y, x = inputs(*case)
        bits = codec.BitStream(bytes.fromhex(want["payload"]), want["bit_length"])
        assert np.array_equal(decode(case[0], fam, y, bits, x.size), x), f"case {case}"


if __name__ == "__main__":
    doc = [record(*c) for c in cases()]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc)} streams ({sum(r['bit_length'] for r in doc)} bits) to {FIXTURE}")

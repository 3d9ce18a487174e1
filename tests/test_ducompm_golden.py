"""Golden ducompm payloads: fixed-seed encodes and decodes must not change.

``tests/data/ducompm_golden.json`` holds, for a grid of (k, n, m, p_e) with
k = 2..5, the payload bytes and bit length of each encode and the outcome of
decoding it against a memory sequence, plus the CSV of a small harness run.
Any change to the ellipsoid, the enumeration, the hash or the ranking that
alters a single bit shows up here.  Regenerate (only on purpose, from the code
whose output is the reference) with ``PYTHONPATH=src python tests/test_ducompm_golden.py``.
"""

import json
from pathlib import Path

import numpy as np

from ucdis import harness
from ucdis.ducompm import DucompmConfig, decode_ducompm, encode_ducompm
from ucdis.rng import split_seed
from ucdis.sources import context_counts, memoryless, sample_jeffreys, sample_sequence

FIXTURE = Path(__file__).parent / "data" / "ducompm_golden.json"

SIZES = {
    2: [(40, 400), (400, 400), (3000, 30000)],
    3: [(40, 400), (300, 600), (1000, 10000)],
    4: [(40, 400), (120, 240), (200, 2000)],
    5: [(30, 300), (80, 160), (150, 1500)],
}


def cases():
    """(k, n, m, p_e, seed, memory_theta) grid; memory_theta "same" draws the
    memory from the sequence's theta, "far" from a distant one (a likely
    declared failure), "edge" puts theta_min near 1/m."""
    out = []
    for k, sizes in SIZES.items():
        for n, m in sizes:
            for p_e in (0.1, 0.01):
                out.append((k, n, m, p_e, 1000 * k + n + m, "same"))
        n, m = sizes[0]
        out.append((k, n, m, 0.05, 7 * k, "far"))
        n, m = sizes[-1]
        out.append((k, n, m, 0.05, 11 * k, "edge"))
    return out


def record(k, n, m, p_e, seed, memory_theta):
    fam = memoryless(k)
    theta = sample_jeffreys(fam, split_seed(seed, 0))
    if memory_theta == "edge":
        theta = np.full(k, 1.0 / m)
        theta[0] = 1.0 - (k - 1) / m
    x = sample_sequence(fam, theta, n, split_seed(seed, 1))
    y_theta = theta[::-1] if memory_theta == "far" else theta
    y = sample_sequence(fam, y_theta, m, split_seed(seed, 2))
    cfg = DucompmConfig(k=k, m=m, p_e=p_e)
    payload = encode_ducompm(x, cfg).payload()
    outcome = decode_ducompm(payload, context_counts(fam, y), n, cfg)
    if outcome.ok:
        result = "exact" if np.array_equal(outcome.sequence, x) else "silent-mismatch"
    else:
        result = outcome.failure_reason
    return {
        "case": [k, n, m, p_e, seed, memory_theta],
        "payload": payload.data.hex(),
        "bit_length": payload.bit_length,
        "decode": result,
    }


def harness_csv() -> str:
    """The harness CSV with its CRLF row ends read as newlines, as the
    fixture holds it."""
    cfg = harness.ExperimentConfig(
        family_kind="memoryless", k=3, n=300, m=3000, p_e=0.05,
        strategies=("ucomp", "ucompm", "ducompm"), trials=32, master_seed=2024,
    )
    return harness.render_csv(harness.run_experiment(cfg)).replace("\r\n", "\n")


def test_payloads_and_outcomes_unchanged():
    golden = json.loads(FIXTURE.read_text())
    assert [r["case"] for r in golden["ducompm"]] == [list(c) for c in cases()]
    for case, want in zip(cases(), golden["ducompm"]):
        assert record(*case) == want, f"case {case}"


def test_harness_rows_unchanged():
    golden = json.loads(FIXTURE.read_text())
    assert harness_csv() == golden["harness_csv"]


if __name__ == "__main__":
    doc = {"ducompm": [record(*c) for c in cases()], "harness_csv": harness_csv()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n")
    outcomes = [r["decode"] for r in doc["ducompm"]]
    print(f"wrote {len(outcomes)} cases to {FIXTURE}: "
          + ", ".join(f"{o}={outcomes.count(o)}" for o in sorted(set(outcomes))))

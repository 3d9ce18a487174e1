"""Golden ducompm regions: the set of types each region admits must not change.

``tests/data/region_golden.json`` holds, for each region, the walker's type
count and a digest of its enumeration (every type, in order).  The regions
are the decoder's (around the memory) and the encoder's surrogate (around its
own sequence) for the first 200 trials of the reference harness config (k=3,
n=300, m=3000, p_e=0.05, Jeffreys theta, master seed 20260810) and for a few
draws at each of the three ducompm benchmark shapes.  Membership is decided
at the region's edge by a few ulps, so a change to the ellipsoid's arithmetic
shows up here long before it alters a golden payload.  Regenerate (only on
purpose, from the code whose output is the reference) with
``PYTHONPATH=src python tests/test_region_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from ucdis import harness
from ucdis.ducompm import _ellipsoid, count_types_in_ellipsoid, enumerate_types_in_ellipsoid
from ucdis.rng import split_seed
from ucdis.sources import context_counts, memoryless, sample_sequence

FIXTURE = Path(__file__).parent / "data" / "region_golden.json"

REFERENCE = harness.ExperimentConfig(
    family_kind="memoryless", k=3, n=300, m=3000, p_e=0.05,
    strategies=("ducompm",), trials=200, master_seed=20260810,
)

# (name, k, n, m, p_e, theta) of the ducompm benchmark workloads
SHAPES = [
    ("k3", 3, 1000, 10_000, 0.01, (0.5, 0.3, 0.2)),
    ("k4", 4, 200, 2000, 0.01, (0.4, 0.3, 0.2, 0.1)),
    ("k2", 2, 8192, 8192, 0.01, (0.45, 0.55)),
]
SHAPE_DRAWS = 4


def regions():
    """(label, ellipsoid, n, k) for every golden region, decoder and
    surrogate of each draw in turn."""
    c = REFERENCE
    for t in range(c.trials):
        fam, _, y_counts, x = harness._draw(c, t)
        yield f"reference/{t}/decoder", _ellipsoid(y_counts, c.n, c.m, c.p_e, c.k), c.n, c.k
        x_counts = context_counts(fam, x)
        yield f"reference/{t}/surrogate", _ellipsoid(x_counts, c.n, c.m, c.p_e, c.k), c.n, c.k
    for name, k, n, m, p_e, theta in SHAPES:
        fam = memoryless(k)
        for s in range(SHAPE_DRAWS):
            y = context_counts(fam, sample_sequence(fam, theta, m, split_seed(s, 1)))
            x = context_counts(fam, sample_sequence(fam, theta, n, split_seed(s, 2)))
            yield f"{name}/{s}/decoder", _ellipsoid(y, n, m, p_e, k), n, k
            yield f"{name}/{s}/surrogate", _ellipsoid(x, n, m, p_e, k), n, k


def record(e, n, k):
    """[count, SHA-256 of the listed types as little-endian int64 rows]"""
    types = np.array(enumerate_types_in_ellipsoid(e, n, k), dtype="<i8")
    return [count_types_in_ellipsoid(e, n, k), hashlib.sha256(types.tobytes()).hexdigest()]


def test_regions_unchanged():
    golden = json.loads(FIXTURE.read_text())
    seen = []
    for label, e, n, k in regions():
        seen.append(label)
        assert record(e, n, k) == golden[label], label
    assert seen == list(golden)


if __name__ == "__main__":
    doc = {label: record(e, n, k) for label, e, n, k in regions()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("{\n" + ",\n".join(f"{json.dumps(label)}: {json.dumps(r)}"
                                          for label, r in doc.items()) + "\n}\n")
    print(f"wrote {len(doc)} regions, {sum(r[0] for r in doc.values())} types, to {FIXTURE}")

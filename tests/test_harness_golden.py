"""Golden harness outputs: experiment and coverage JSON at full precision, and
``ucdis bounds`` stdout, must not change.

``tests/data/harness_golden.json`` holds the ``render_json`` text of two
experiments (memoryless k=3 with all strategies and Jeffreys theta; markov1
k=2 with ucomp and ucompm at a fixed theta), of a coverage run on the first
config, and the ``ucdis bounds`` stdout of each strategy in both modes.  JSON
writes floats to the last digit, so a change anywhere in a row shows up here.
Regenerate (only on purpose, from the code whose output is the reference)
with ``PYTHONPATH=src python tests/test_harness_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ucdis import cli, harness

FIXTURE = Path(__file__).parent / "data" / "harness_golden.json"

CONFIGS = {
    "memoryless": harness.ExperimentConfig(
        family_kind="memoryless", k=3, n=300, m=3000, p_e=0.05,
        strategies=("ucomp", "ucompm", "ducompm"), trials=32, master_seed=2024,
    ),
    "markov1": harness.ExperimentConfig(
        family_kind="markov1", k=2, n=300, m=3000, p_e=0.0,
        strategies=("ucomp", "ucompm"), trials=32, master_seed=2024,
        theta=((0.9, 0.1), (0.3, 0.7)),
    ),
}
BOUNDS = [(s, mode) for s in ("ucomp", "ucompm", "ducompm") for mode in ("approx", "exact")]
BOUNDS_ARGS = ["--family", "memoryless", "--k", "3", "--n", "300", "--m", "3000", "--pe", "0.05"]


def experiment_json(name: str) -> str:
    cfg = CONFIGS[name]
    return harness.render_json(harness.run_experiment(cfg), config=cfg)


def coverage_json() -> str:
    cfg = CONFIGS["memoryless"]
    return harness.render_json(harness.run_coverage(cfg), config=cfg)


def bounds_stdout(strategy: str, mode: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["bounds", *BOUNDS_ARGS, "--strategy", strategy, "--mode", mode])
    assert code == cli.EXIT_OK
    return out.getvalue()


def outputs() -> dict:
    return {
        "experiment": {name: experiment_json(name) for name in CONFIGS},
        "coverage": coverage_json(),
        "bounds": {f"{s} {mode}": bounds_stdout(s, mode) for s, mode in BOUNDS},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_experiment_json_unchanged(golden, name):
    assert experiment_json(name) == golden["experiment"][name]


def test_coverage_json_unchanged(golden):
    assert coverage_json() == golden["coverage"]


@pytest.mark.parametrize("strategy,mode", BOUNDS)
def test_bounds_stdout_unchanged(golden, strategy, mode):
    assert bounds_stdout(strategy, mode) == golden["bounds"][f"{strategy} {mode}"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(outputs(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")

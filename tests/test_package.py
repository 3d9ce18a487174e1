"""The package's names: each submodule, and each name the package re-exports,
resolves on first access to the submodule's own object."""

import importlib
import subprocess
import sys

import pytest

import ucdis
from test_cli import fresh_env

SUBMODULES = ("bounds", "cli", "codec", "ducompm", "harness", "numerics", "rng", "sources")
EXPORTS = {
    "bounds": ("RedundancyBreakdown", "delta_d", "figure_preset", "penalty_approx",
               "penalty_exact", "redundancy_ducompm", "redundancy_ucomp", "redundancy_ucompm"),
    "codec": ("BitStream", "decode_ucompm", "encode_ucompm"),
    "ducompm": ("DucompmConfig", "decode_ducompm", "encode_ducompm"),
    "harness": ("CoverageReport", "ExperimentConfig", "SummaryRow", "run_coverage",
                "run_experiment"),
    "sources": ("SourceFamily", "markov1", "memoryless"),
}


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule(name):
    assert getattr(ucdis, name) is importlib.import_module(f"ucdis.{name}")


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_reexported_name(module, name):
    assert getattr(ucdis, name) is getattr(importlib.import_module(f"ucdis.{module}"), name)
    namespace = {}
    exec(f"from ucdis import {name}", namespace)
    assert namespace[name] is getattr(ucdis, name)


def test_dir_lists_every_name():
    names = set(SUBMODULES).union(*EXPORTS.values(), ["__version__"])
    assert names <= set(dir(ucdis))


def test_unknown_name():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ucdis.no_such_name  # noqa: B018
    assert not hasattr(ucdis, "STRATEGIES")


def test_import_loads_no_submodule():
    script = ("import sys, ucdis\n"
              "print(ucdis.__version__, sorted(m for m in sys.modules if m.startswith('ucdis.')))")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=fresh_env(), timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0.1.0", "[]"]

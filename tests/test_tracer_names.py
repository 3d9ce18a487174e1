"""The benchmark's tracer wraps ucdis attributes by name; they must exist.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` of its
``WRAPS`` table at run time, and its hooks and deferred passes call a few more
names.  A refactor that drops or renames one breaks the traced benchmark run
only, so this test reads the table from source (without importing perfbench)
and checks every name here, and one short traced run checks that the hooks
and deferred passes still work end to end.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import ucdis
import ucdis.cli  # not imported by the package; the tracer wraps its commands

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _wraps():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPS table in {TRACING}")


def test_wrapped_attributes_exist():
    wraps = _wraps()
    assert wraps
    missing = [f"{mod}.{attr}" for mod, attr, _ in wraps
               if not callable(getattr(getattr(ucdis, mod, None), attr, None))]
    assert missing == []


def test_hook_names_exist():
    assert callable(ucdis.codec.KTCoderModel)
    assert callable(ucdis.codec.BitWriter.write_bit)
    assert callable(ucdis.codec.BitReader.read_bit)
    assert callable(ucdis.ducompm.universal_hash)
    assert callable(ucdis.sources.SourceFamily)
    # names the hooks and drain read without wrapping them; the ellipsoid's
    # are read only after an enumerate_types_in_ellipsoid call, which no
    # workload makes, so the smoke runs below would not notice them gone
    assert ucdis.codec.BitStream(b"\x80", 1).bit(0) == 1
    e = ucdis.ducompm.build_ellipsoid([[1, 2]], 10, 0.1, 2)
    for name in ("r", "fisher", "center", "chi2_threshold"):
        assert getattr(e, name) is not None, name
    model = ucdis.codec.KTCoderModel(ucdis.sources.markov1(2))
    assert (model.k, model.markov) == (2, True)
    assert ucdis.ducompm.DecodeOutcome(failure_reason="ambiguous").ok is False


def _traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    return result["metrics"]


def test_traced_benchmark_smoke_run():
    metrics = _traced_run("lossless-files")
    for name in ("codec.kt_model_pass_s", "codec.kt_locate_pass_s", "codec.prime_s"):
        assert metrics[name]["value"] > 0, name


def test_traced_ducompm_smoke_run():
    metrics = _traced_run("ducompm-lattice")
    for name in ("ducompm.hash_length_s", "ducompm.build_ellipsoid_s",
                 "ducompm.hash_filter_s", "ducompm.hash_bits"):
        assert metrics[name]["value"] > 0, name

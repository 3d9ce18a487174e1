"""Smoke tests of the benchmark command: the result line carries exactly the
metrics BENCHMARK.json names, a directory without the program's sources
gives no result, and a corrupted decode fails its operation.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from hostspeed import Clock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, trace: int):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ducompm-rank", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, key):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_corrupted_decode_fails_the_op(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import ucdis.cli

    def main(argv):
        code = ucdis.cli.main(argv)
        if argv[0] == "decode":
            out = Path(argv[argv.index("--out") + 1])
            data = bytearray(out.read_bytes())
            data[len(data) // 2] ^= 1
            out.write_bytes(bytes(data))
        return code

    wl = workloads.LosslessFiles(5, tmp_path, SimpleNamespace(cli=SimpleNamespace(main=main)))
    wl.generate()
    wl.round(0, Clock())
    assert (wl.attempted, wl.failed) == (6, 3)  # every decode, no encode

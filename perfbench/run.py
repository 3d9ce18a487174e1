"""ucdis benchmark: one workload per process, host-speed-corrected metrics.

    python3 perfbench/run.py --workload lossless-files --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A human-readable
summary, including the raw wall-clock rates, goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import NOMINAL_REF_S, Clock  # noqa: E402

#: Set-up steps are repeated this many times per run; setup_s takes medians.
SETUP_REPEATS = 5
BENCH_DIR = ROOT / ".perfbench"
SRC = ROOT / "src"


def _import_program():
    """Import ucdis afresh: its modules are dropped from sys.modules first,
    so every call executes the program's module bodies again."""
    for name in [m for m in sys.modules if m == "ucdis" or m.startswith("ucdis.")]:
        del sys.modules[name]
    import ucdis
    import ucdis.cli

    return ucdis


def set_up(args, workdir: Path):
    """Import the program and make the inputs; returns (ucdis, workloads,
    workload, setup_s).

    setup_s is the median corrected time of SETUP_REPEATS imports of ucdis
    plus the median corrected time of as many input generations.  A first,
    untimed import loads the third-party modules (numpy, scipy): their cost
    follows the host's file cache more than its speed, which the reference
    loop cannot correct, and it is the same for every version of ucdis."""
    sys.path.insert(0, str(SRC))
    import workloads

    ucdis = _import_program()
    if Path(ucdis.__file__).resolve().parent != SRC / "ucdis":
        raise ImportError(f"ucdis imported from {ucdis.__file__}, not from {SRC}")
    clock = Clock()
    for _ in range(SETUP_REPEATS):
        ucdis = clock.timed("import", _import_program)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, ucdis)
    for _ in range(SETUP_REPEATS):
        clock.timed("inputs", wl.generate)
    return ucdis, workloads, wl, clock.median("import") + clock.median("inputs")


def run(args, workdir: Path) -> dict:
    ucdis, workloads, wl, setup_s = set_up(args, workdir)

    clock = Clock()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(clock, ucdis)
        tracer.install()
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    try:
        while rounds < wl.pool_size or time.perf_counter() < deadline:
            wl.round(rounds, clock)
            rounds += 1
            if tracer:
                tracer.drain()
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    try:
        wl.finish()
    except workloads.oracles.CheckError as e:
        correct = False
        print(f"check failed: {e}", file=sys.stderr)

    rates = wl.rates(clock)
    raw = wl.rates(clock, corrected=False)
    refs = [NOMINAL_REF_S / f for f in clock.factors]
    print(
        f"{args.workload} seed={args.seed}: {rounds} rounds, {wl.attempted} ops, "
        f"{wl.failed} failed, {wl.decode_errors()} "
        f"decode errors on the first pass; ref loop median {statistics.median(refs) * 1e3:.3f} ms "
        f"(nominal {NOMINAL_REF_S * 1e3:.3f}); setup {setup_s:.3f} s",
        file=sys.stderr,
    )
    for key in ("encode_sym_per_s", "decode_sym_per_s", "trials_per_s"):
        print(f"  {key}: corrected {rates[key]:.6g}, raw wall {raw[key]:.6g}", file=sys.stderr)

    if tracer:
        metrics = tracer.metrics()
        metrics["harness.pool2_trials_per_s"] = (wl.pool2_trials_per_s, "1/s")
        for key, unit in (("encode_sym_per_s", "sym/s"), ("decode_sym_per_s", "sym/s"),
                          ("trials_per_s", "1/s")):
            metrics[f"traced.{key}"] = (rates[key], unit)
        BENCH_DIR.mkdir(exist_ok=True)
        tracer.dump(BENCH_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "encode_sym_per_s": (rates["encode_sym_per_s"], "sym/s"),
            "decode_sym_per_s": (rates["decode_sym_per_s"], "sym/s"),
            "trials_per_s": (rates["trials_per_s"], "1/s"),
            "bits_per_symbol": (rates["bits_per_symbol"], "bits"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _fix_hash_seed():
    """Re-execute this process with PYTHONHASHSEED=0 unless it already is.

    String hashing is salted per process, so dict and set layouts, and with
    them the interpreter's speed, differ from run to run: on harness-mc the
    run-to-run CV of trials_per_s (same inputs) was 2.5% with a random salt
    and 1.2% with a fixed one.  exec keeps the process (and its pid)."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["lossless-files", "ducompm-lattice", "ducompm-rank", "harness-mc"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "ucdis" / "__init__.py").is_file():
        print(f"perfbench: no ucdis sources under {SRC}", file=sys.stderr)
        return 2
    workdir = BENCH_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _fix_hash_seed()
    sys.exit(main())

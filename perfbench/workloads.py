"""The four workloads: inputs made from a seed, rounds of timed operations,
and the checks each output must pass.

Every workload repeats whole rounds of the same operations over a pool of
inputs made at set-up; round i uses pool entry i % pool_size, and the first
pass over the pool (which every run completes) fixes the deterministic
figures: ``bits_per_symbol`` and the error counts.
"""

from __future__ import annotations

import bisect
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracles


def _draw(rng, theta, n: int) -> list[int]:
    cum = np.cumsum(theta)
    return np.minimum(np.searchsorted(cum, rng.random(n), side="right"), len(theta) - 1).tolist()


def _draw_markov(rng, rows, n: int) -> list[int]:
    cum = [np.cumsum(r).tolist() for r in rows]
    out, state, top = [], 0, len(rows) - 1
    for v in rng.random(n).tolist():
        state = min(bisect.bisect_right(cum[state], v), top)
        out.append(state)
    return out


class Workload:
    """Operation accounting shared by all workloads."""

    pool_size = 1
    #: wall-clock trials/s of the 2-worker harness check (harness-mc only)
    pool2_trials_per_s = 0.0

    def __init__(self, seed: int, workdir: Path, ucdis):
        self.seed = seed
        self.workdir = workdir
        self.ucdis = ucdis
        self.attempted = 0
        self.failed = 0

    def op(self, clock, kind: str, fn, args, check):
        """One timed operation; an exception or a failed check fails it."""
        self.attempted += 1
        try:
            check(clock.timed(kind, fn, *args))
        except Exception as e:  # the run goes on; the op is counted as failed
            self.failed += 1
            print(f"failed op {kind}: {type(e).__name__}: {e}", file=sys.stderr)

    def finish(self):
        """Checks over the whole run; raise oracles.CheckError on a violation."""

    def decode_errors(self) -> int:
        """Declared plus silent ducompm decode errors on the first pass."""
        return 0

    def rates(self, clock, corrected: bool = True) -> dict[str, float]:
        raise NotImplementedError


class CliRoundTrips(Workload):
    """`ucdis encode` then `ucdis decode` per config, through ucdis.cli.main.

    Rates use the median corrected time of each (config, direction):
    sym/s = sum of n over configs / sum of the medians, and a trial is one
    encode-decode round trip.
    """

    configs: tuple[dict, ...] = ()

    def generate(self):
        rng = np.random.default_rng([self.seed, 0x5EED])
        self.pool = []
        for p in range(self.pool_size):
            entry = []
            for c in self.configs:
                files = self.make_inputs(rng, c)
                paths = {}
                for name, seq in files.items():
                    paths[name] = self.workdir / f"{c['name']}-{p}.{name}"
                    paths[name].write_bytes(bytes(seq))
                paths["ucds"] = self.workdir / f"{c['name']}-{p}.ucds"
                paths["out"] = self.workdir / f"{c['name']}-{p}.out"
                entry.append((files, paths))
            self.pool.append(entry)
        self.payload_bits = {}  # (pool index, config) -> bits, first pass only

    def round(self, i: int, clock):
        p = i % self.pool_size
        main = self.ucdis.cli.main
        for c, (files, paths) in zip(self.configs, self.pool[p]):
            enc = self.encode_argv(c, paths)
            dec = ["decode", "--in", str(paths["ucds"]), "--out", str(paths["out"])]
            if "y" in paths:
                dec += ["--memory", str(paths["y"])]
            self.op(clock, c["name"] + ":enc", main, (enc,),
                    lambda code, c=c, f=files, ps=paths, p=p: self.check_encoded(code, c, f, ps, p))
            self.op(clock, c["name"] + ":dec", main, (dec,),
                    lambda code, c=c, f=files, ps=paths, p=p: self.check_decoded(code, c, f, ps, p))

    def check_encoded(self, code, c, files, paths, p):
        if code != 0:
            raise oracles.CheckError(f"encode exited {code}")
        hdr = oracles.parse_container(paths["ucds"].read_bytes())
        want = (c["strategy"], c["family"], c["k"], len(files["x"]))
        if (hdr["strategy"], hdr["family"], hdr["k"], hdr["n"]) != want:
            raise oracles.CheckError(f"container header {hdr} does not match {want}")
        self.check_payload(hdr, c, files, p)
        self.payload_bits.setdefault((p, c["name"]), hdr["bit_length"])

    def check_decoded(self, code, c, files, paths, p):
        if code != 0:
            raise oracles.CheckError(f"decode exited {code}")
        oracles.check_roundtrip(bytes(files["x"]), paths["out"].read_bytes())

    def rates(self, clock, corrected=True):
        n = sum(c["n"] for c in self.configs)
        enc = sum(clock.median(c["name"] + ":enc", corrected) for c in self.configs)
        dec = sum(clock.median(c["name"] + ":dec", corrected) for c in self.configs)
        bits = sum(self.payload_bits.values())
        return {
            "encode_sym_per_s": n / enc,
            "decode_sym_per_s": n / dec,
            "trials_per_s": len(self.configs) / (enc + dec),
            "bits_per_symbol": bits / (n * self.pool_size),
        }


class LosslessFiles(CliRoundTrips):
    """Byte files through ucomp k=256, ucompm k=256 with a memory file, and
    ucomp k=16 markov1: the arithmetic coder, KT/Fenwick model, bit I/O and
    container carry the work."""

    pool_size = 8
    configs = (
        dict(name="ucomp-k256", strategy="ucomp", family="memoryless", k=256, n=4096),
        dict(name="ucompm-k256", strategy="ucompm", family="memoryless", k=256, n=4096, m=8192),
        dict(name="ucomp-k16-markov1", strategy="ucomp", family="markov1", k=16, n=8192),
    )

    def make_inputs(self, rng, c):
        k, n = c["k"], c["n"]
        if c["family"] == "markov1":
            return {"x": _draw_markov(rng, rng.dirichlet([0.5] * k, size=k), n)}
        theta = rng.dirichlet([0.5] * k)
        files = {"x": _draw(rng, theta, n)}
        if "m" in c:
            files["y"] = _draw(rng, theta, c["m"])
        return files

    def encode_argv(self, c, paths):
        argv = ["encode", "--strategy", c["strategy"], "--in", str(paths["x"]),
                "--out", str(paths["ucds"]), "--k", str(c["k"]), "--family", c["family"]]
        if "y" in paths:
            argv += ["--memory", str(paths["y"])]
        return argv

    def check_payload(self, hdr, c, files, p):
        key = (p, c["name"])
        if key not in self.ideal:
            self.ideal[key] = oracles.ideal_kt_bits(
                files["x"], c["k"], c["family"] == "markov1", files.get("y"))
        oracles.check_kt_payload(hdr["bit_length"], self.ideal[key])

    def generate(self):
        super().generate()
        self.ideal = {}


class DucompmFiles(CliRoundTrips):
    """ducompm round trips at fixed theta.  A decode that exits 3 (declared
    failure) or returns other bytes (silent error) is a decode error of the
    method, bounded by p_e; it is counted, not failed."""

    def make_inputs(self, rng, c):
        return {"x": _draw(rng, c["theta"], c["n"]), "y": _draw(rng, c["theta"], c["m"])}

    def encode_argv(self, c, paths):
        return ["encode", "--strategy", "ducompm", "--in", str(paths["x"]),
                "--out", str(paths["ucds"]), "--k", str(c["k"]), "--pe", repr(c["p_e"]),
                "--memory-len", str(c["m"])]

    def check_payload(self, hdr, c, files, p):
        counts = [files["x"].count(a) for a in range(c["k"])]
        b = oracles.payload_uint(hdr["payload"], 0, 16)
        oracles.check_ducompm_payload(hdr["bit_length"], b, oracles.type_class_size(counts), c["p_e"])

    def check_decoded(self, code, c, files, paths, p):
        if code not in (0, 3):
            raise oracles.CheckError(f"decode exited {code}")
        wrong = code == 3 or paths["out"].read_bytes() != bytes(files["x"])
        self.errors.setdefault((p, c["name"]), wrong)

    def generate(self):
        super().generate()
        self.errors = {}  # (pool index, config) -> decode error, first pass

    def finish(self):
        for c in self.configs:
            errs = [e for (_, name), e in self.errors.items() if name == c["name"]]
            oracles.check_error_count(sum(errs), len(errs), c["p_e"])

    def decode_errors(self):
        return sum(self.errors.values())


class DucompmLattice(DucompmFiles):
    """Ellipsoid enumeration and hash filtering dominate; rank/unrank < 5%."""

    pool_size = 16
    configs = (
        dict(name="ducompm-k3", strategy="ducompm", family="memoryless", k=3, n=1000, m=10000,
             p_e=0.01, theta=(0.5, 0.3, 0.2)),
        dict(name="ducompm-k4", strategy="ducompm", family="memoryless", k=4, n=200, m=2000,
             p_e=0.01, theta=(0.4, 0.3, 0.2, 0.1)),
    )


class DucompmRank(DucompmFiles):
    """k=2 with long n: type_rank/type_unrank dominate; enumeration ~3%."""

    pool_size = 8
    configs = (
        dict(name="ducompm-k2", strategy="ducompm", family="memoryless", k=2, n=8192, m=8192,
             p_e=0.01, theta=(0.45, 0.55)),
    )


class HarnessMC(Workload):
    """harness.run_experiment at one worker on the reference config
    (memoryless, k=3, n=300, m=3000, p_e=0.05, all strategies, Jeffreys theta),
    TRIALS trials per operation, one master seed per pool entry."""

    pool_size = 128
    TRIALS = 8
    K, N, M, P_E = 3, 300, 3000, 0.05

    def generate(self):
        h = self.ucdis.harness
        rng = np.random.default_rng([self.seed, 0x4A12])
        self.pool = [
            h.ExperimentConfig(
                family_kind="memoryless", k=self.K, n=self.N, m=self.M, p_e=self.P_E,
                strategies=("ucomp", "ucompm", "ducompm"), trials=self.TRIALS,
                master_seed=int(rng.integers(0, 2**63)),
            )
            for _ in range(self.pool_size)
        ]
        self.rows = {}  # pool index -> rows of the first pass
        self.ideal = {}

    def ideal_means(self, cfg):
        """Mean ideal KT bits over the run's trials, without and with memory.

        The trial inputs are re-drawn with the harness's documented seed
        derivation (split_seed of the master seed, then 0/1/2 for theta,
        memory and sequence)."""
        split_seed = self.ucdis.rng.split_seed
        src = self.ucdis.sources
        family = src.SourceFamily("memoryless", self.K)
        plain, primed = [], []
        for t in range(cfg.trials):
            ts = split_seed(cfg.master_seed, t)
            theta = src.sample_jeffreys(family, split_seed(ts, 0))
            y = src.sample_sequence(family, theta, self.M, split_seed(ts, 1)).tolist()
            x = src.sample_sequence(family, theta, self.N, split_seed(ts, 2)).tolist()
            plain.append(oracles.ideal_kt_bits(x, self.K))
            primed.append(oracles.ideal_kt_bits(x, self.K, memory=y))
        return statistics.fmean(plain), statistics.fmean(primed)

    def round(self, i: int, clock):
        p = i % self.pool_size
        cfg = self.pool[p]
        self.op(clock, "experiment", self.ucdis.harness.run_experiment, (cfg, 1),
                lambda rows: self.check_rows(p, cfg, rows))

    def check_rows(self, p, cfg, rows):
        if [r.strategy for r in rows] != ["ucomp", "ucompm", "ducompm"]:
            raise oracles.CheckError(f"unexpected strategies {[r.strategy for r in rows]}")
        if p not in self.ideal:
            self.ideal[p] = self.ideal_means(cfg)
        oracles.check_harness_rows(rows, *self.ideal[p], d=self.K - 1, n=self.N, m=self.M)
        if p in self.rows and self.rows[p] != rows:
            raise oracles.CheckError("harness rows differ between repeats of one config")
        self.rows.setdefault(p, rows)

    def finish(self):
        oracles.check_error_count(self.decode_errors(), self.pool_size * self.TRIALS, self.P_E)
        self.pool2_trials_per_s = self.two_worker_check()

    def two_worker_check(self) -> float:
        """Rows at two workers equal rows at one; returns 2-worker trials/s
        (wall clock, reference only)."""
        if 0 not in self.rows:
            raise oracles.CheckError("no 1-worker rows of pool entry 0 to compare with")
        t0 = time.perf_counter()
        rows = self.ucdis.harness.run_experiment(self.pool[0], 2)
        wall = time.perf_counter() - t0
        oracles.check_same_rows(self.rows[0], rows)
        return self.pool[0].trials / wall

    def decode_errors(self):
        return sum(round(r[2].error_rate * r[2].trials) for r in self.rows.values())

    def rates(self, clock, corrected=True):
        per_trial = clock.median("experiment", corrected) / self.TRIALS
        sym = len(self.pool[0].strategies) * self.N
        bits = sum(r.avg_len_bits for rows in self.rows.values() for r in rows)
        return {
            "encode_sym_per_s": sym / per_trial,
            "decode_sym_per_s": sym / per_trial,
            "trials_per_s": 1.0 / per_trial,
            "bits_per_symbol": bits / (len(self.rows) * sym),
        }


WORKLOADS = {
    "lossless-files": LosslessFiles,
    "ducompm-lattice": DucompmLattice,
    "ducompm-rank": DucompmRank,
    "harness-mc": HarnessMC,
}

"""Monte Carlo harness: average code lengths, redundancies, and error rates.

Every trial is a pure function of (config, trial index): the trial seed is a
SplitMix64 derivation of the master seed, and parameter/memory/sequence draws
use further per-purpose derivations.  Aggregation always runs over the full
per-trial arrays in trial order, so results are bit-identical for any worker
count.  Lossless strategies are verified on every trial; a mismatch there is
a codec bug and aborts the run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial

import numpy as np

from . import bounds, codec, ducompm
from .codec import DEFAULT_HASH_SEED, STRATEGIES
from .rng import RNG_ALGORITHM, split_seed
from .sources import (
    MARKOV1,
    MEMORYLESS,
    SourceFamily,
    context_counts,
    entropy_rate,
    sample_jeffreys,
    sample_sequence,
    validate_theta,
)


class ValidationError(ValueError):
    """Configuration rejected; ``fields`` lists the offending entries."""

    def __init__(self, fields: list[str]):
        self.fields = fields
        super().__init__("invalid configuration: " + "; ".join(fields))


class CodecIntegrityError(RuntimeError):
    """A strictly lossless strategy failed to round-trip (codec bug)."""


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_numbers(v) -> bool:
    return isinstance(v, (list, tuple)) and all(
        _is_numbers(x) if isinstance(x, (list, tuple)) else _is_real(x) for x in v
    )


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _json_key(name: str) -> str:
    # the config file says "family" for family_kind
    return "family" if name == "family_kind" else name


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo run.  Giving ``theta`` fixes the source parameter;
    leaving it out draws theta from the Jeffreys prior in every trial."""

    family_kind: str
    k: int
    n: int
    m: int
    p_e: float
    strategies: tuple[str, ...]
    trials: int
    master_seed: int
    theta: tuple | None = None
    hash_seed: int = DEFAULT_HASH_SEED
    collision_budget: float | None = None
    candidate_cap: int = ducompm.DEFAULT_CANDIDATE_CAP

    def __post_init__(self):
        # types first: the range checks below compare and iterate the values
        errs = []
        for name in ("k", "n", "m", "trials", "master_seed", "hash_seed", "candidate_cap"):
            if not _is_int(getattr(self, name)):
                errs.append(f"{name}: must be an integer, got {getattr(self, name)!r}")
        for name in ("p_e", "collision_budget"):
            value = getattr(self, name)
            if not (_is_real(value) or (value is None and name == "collision_budget")):
                errs.append(f"{name}: must be a number, got {value!r}")
        if not (isinstance(self.strategies, (list, tuple))
                and all(isinstance(s, str) for s in self.strategies)):
            errs.append(f"strategies: must be a list of strategy names, got {self.strategies!r}")
        if not (self.theta is None or _is_numbers(self.theta)):
            errs.append(f"theta: must be a (nested) list of numbers, got {self.theta!r}")
        if errs:
            raise ValidationError(errs)
        if self.family_kind not in (MEMORYLESS, MARKOV1):
            errs.append(f"family: unknown {self.family_kind!r}")
        if self.k < 2:
            errs.append(f"k: must be >= 2, got {self.k}")
        if self.n < 1:
            errs.append(f"n: must be >= 1, got {self.n}")
        if self.m < 0:
            errs.append(f"m: must be >= 0, got {self.m}")
        if not (0.0 <= self.p_e < 1.0):
            errs.append(f"p_e: must lie in [0,1), got {self.p_e}")
        if self.trials < 1:
            errs.append(f"trials: must be >= 1, got {self.trials}")
        if not self.strategies:
            errs.append("strategies: must be a nonempty subset of " + str(STRATEGIES))
        for s in self.strategies:
            if s not in STRATEGIES:
                errs.append(f"strategies: unknown strategy {s!r}")
        if "ucomp" in self.strategies and self.n < 2:
            errs.append(f"n: ucomp requires n >= 2, got {self.n}")
        if "ucompm" in self.strategies and self.m < 1:
            errs.append(f"m: ucompm requires m >= 1, got {self.m}")
        if "ducompm" in self.strategies:
            if self.family_kind != MEMORYLESS:
                errs.append("strategies: ducompm requires the memoryless family")
            try:
                self.ducompm_config()
            except ValueError as e:
                errs.append(f"ducompm: {e}")
        if self.theta is not None and self.family_kind in (MEMORYLESS, MARKOV1) and self.k >= 2:
            try:
                validate_theta(SourceFamily(self.family_kind, self.k), np.asarray(self.theta))
            except ValueError as e:
                errs.append(f"theta: {e}")
        if self.candidate_cap < 1:
            errs.append(f"candidate_cap: must be >= 1, got {self.candidate_cap}")
        if errs:
            raise ValidationError(errs)

    @classmethod
    def from_json(cls, doc) -> ExperimentConfig:
        """The config read from its JSON form (see ``to_json``): unknown and
        missing keys raise ValidationError, and so do invalid values."""
        if not isinstance(doc, dict):
            raise ValidationError([f"config: must be a JSON object, got {type(doc).__name__}"])
        by_key = {_json_key(f.name): f for f in fields(cls)}
        errs = [f"{key}: unknown config field" for key in sorted(set(doc) - set(by_key))]
        errs += [f"{key}: missing config field" for key, f in by_key.items()
                 if key not in doc and f.default is MISSING]
        if errs:
            raise ValidationError(errs)
        return cls(**{by_key[key].name: _tuples(value) for key, value in doc.items()})

    def to_json(self) -> dict:
        """The config file's form, with "family" for ``family_kind`` (json
        writes the tuples as lists); ``from_json`` reads it back unchanged."""
        return {_json_key(f.name): getattr(self, f.name) for f in fields(self)}

    def ducompm_config(self) -> ducompm.DucompmConfig:
        return ducompm.DucompmConfig(
            k=self.k, m=self.m, p_e=self.p_e, hash_seed=self.hash_seed,
            collision_budget=self.collision_budget, candidate_cap=self.candidate_cap,
        )


@dataclass(frozen=True)
class SummaryRow:
    strategy: str
    k: int
    n: int
    m: int
    p_e: float
    trials: int
    avg_len_bits: float
    avg_redundancy_bits: float
    stderr_bits: float
    error_rate: float
    theory_bits: float


@dataclass(frozen=True)
class CoverageReport:
    k: int
    n: int
    m: int
    p_e: float
    trials: int
    empirical_coverage: float
    target: float


@dataclass(frozen=True)
class TrialData:
    """Per-trial detail: payload lengths and error indicators per strategy."""

    strategies: tuple[str, ...]
    lengths: dict[str, np.ndarray]
    errors: dict[str, np.ndarray]
    entropy_bits: np.ndarray  # H_n(theta_t) = n * entropy_rate(theta_t)


def _draw(cfg: ExperimentConfig, t: int, need_memory: bool = True):
    """Trial t's (family, theta, counts, x): split seeds 0, 1 and 2 of the
    trial seed draw theta, the memory y (empty unless ``need_memory``) and x;
    counts are ``context_counts(family, y)``."""
    family = SourceFamily(cfg.family_kind, cfg.k)
    trial_seed = split_seed(cfg.master_seed, t)
    if cfg.theta is not None:
        theta = np.asarray(cfg.theta, dtype=np.float64)
    else:
        theta = sample_jeffreys(family, split_seed(trial_seed, 0))
    y = sample_sequence(family, theta, cfg.m, split_seed(trial_seed, 1)) if need_memory else ()
    x = sample_sequence(family, theta, cfg.n, split_seed(trial_seed, 2))
    return family, theta, context_counts(family, y), x


def _map_trials(fn, cfg: ExperimentConfig, workers: int) -> list:
    """``[fn(cfg, t) for t in range(cfg.trials)]``, over worker processes when
    workers > 1.  The pool never exceeds the trial or CPU count: every worker
    process is started up front."""
    workers = min(workers, cfg.trials, os.cpu_count() or 1)
    trial = partial(fn, cfg)
    if workers <= 1:
        return [trial(t) for t in range(cfg.trials)]
    # imported here, so a 1-worker run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(trial, range(cfg.trials), chunksize=max(1, cfg.trials // (8 * workers))))


def _experiment_trial(cfg: ExperimentConfig, t: int):
    """Trial t's (n H(theta_t) in bits, {strategy: (coded bits, error indicator)})."""
    need_memory = "ucompm" in cfg.strategies or "ducompm" in cfg.strategies
    family, theta, counts, x = _draw(cfg, t, need_memory)
    results = {}
    for s, memory in (("ucomp", np.zeros_like(counts)), ("ucompm", counts)):
        if s in cfg.strategies:
            stream = codec.encode_ucompm(family, memory, x)
            if not np.array_equal(codec.decode_ucompm(family, memory, stream, cfg.n), x):
                raise CodecIntegrityError(f"{s} round-trip mismatch at trial {t}")
            results[s] = (float(stream.bit_length), 0.0)
    if "ducompm" in cfg.strategies:
        dcfg = cfg.ducompm_config()
        word = ducompm.encode_ducompm(x, dcfg)
        outcome = ducompm.decode_ducompm(word.payload(), counts, cfg.n, dcfg)
        ok = outcome.ok and np.array_equal(outcome.sequence, x)
        results["ducompm"] = (float(word.coded_bits), 0.0 if ok else 1.0)
    return cfg.n * entropy_rate(family, theta), results


def run_trials(cfg: ExperimentConfig, workers: int = 1) -> TrialData:
    """Raw per-trial lengths and error indicators (basis for run_experiment)."""
    ordered = tuple(s for s in STRATEGIES if s in cfg.strategies)
    entropy_bits, results = zip(*_map_trials(_experiment_trial, cfg, workers))
    lengths, errors = {}, {}
    for s in ordered:
        lengths[s], errors[s] = np.array([r[s] for r in results], dtype=np.float64).T
    return TrialData(strategies=ordered, lengths=lengths, errors=errors,
                     entropy_bits=np.array(entropy_bits, dtype=np.float64))


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[SummaryRow]:
    """One SummaryRow per requested strategy; deterministic given the config.
    Each row's bound and p_e come from ``bounds.redundancy``: p_e is the
    config's for ducompm and 0 for the lossless strategies."""
    data = run_trials(cfg, workers=workers)
    family = SourceFamily(cfg.family_kind, cfg.k)
    out = []
    for s in data.strategies:
        bound = bounds.redundancy(s, family, cfg.n, cfg.m, cfg.p_e)
        lens = data.lengths[s]
        red = lens - data.entropy_bits
        stderr = float(red.std(ddof=1) / math.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
        out.append(SummaryRow(
            strategy=s, k=cfg.k, n=cfg.n, m=cfg.m, p_e=bound.p_e,
            trials=cfg.trials, avg_len_bits=float(lens.mean()),
            avg_redundancy_bits=float(red.mean()), stderr_bits=stderr,
            error_rate=float(data.errors[s].mean()), theory_bits=bound.total_bits,
        ))
    return out


def _coverage_trial(cfg: ExperimentConfig, t: int) -> float:
    _, _, counts, x = _draw(cfg, t)
    e = ducompm.build_ellipsoid(counts, cfg.n, cfg.p_e, cfg.k)
    return 1.0 if ducompm.ellipsoid_contains(e, ducompm.type_of(x, cfg.k), cfg.n) else 0.0


def run_coverage(cfg: ExperimentConfig, workers: int = 1) -> CoverageReport:
    """Fraction of trials whose sequence type falls inside the memory's ellipsoid."""
    errs = []
    if cfg.family_kind != MEMORYLESS:
        errs.append("family: coverage runs require the memoryless family")
    if not (0.0 < cfg.p_e < 1.0):
        errs.append("p_e: coverage runs require 0 < p_e < 1")
    if cfg.m < 1:
        errs.append("m: coverage runs require m >= 1")
    if errs:
        raise ValidationError(errs)
    hits = _map_trials(_coverage_trial, cfg, workers)
    return CoverageReport(k=cfg.k, n=cfg.n, m=cfg.m, p_e=cfg.p_e, trials=cfg.trials,
                          empirical_coverage=float(np.mean(hits)), target=1.0 - cfg.p_e)


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def render_csv(result) -> str:
    """SummaryRows or a CoverageReport as CSV text: 6 significant digits,
    rows ended by CRLF as ``csv.writer`` ends them.

    The columns are the dataclass's fields, in declaration order.
    """
    if isinstance(result, CoverageReport):
        schema, rows = CoverageReport, [result]
    else:
        schema, rows = SummaryRow, list(result)
    names = [f.name for f in fields(schema)]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(names)
    writer.writerows([_fmt(getattr(row, f)) for f in names] for row in rows)
    return out.getvalue()


def render_json(result, config: ExperimentConfig | None = None) -> str:
    """Results as JSON text, echoing the config and the RNG identifier."""
    if isinstance(result, CoverageReport):
        doc = {"coverage": asdict(result)}
    else:
        doc = {"rows": [asdict(r) for r in result]}
    doc["rng_algorithm"] = RNG_ALGORITHM
    if config is not None:
        doc["config"] = config.to_json()
    return json.dumps(doc, indent=2) + "\n"

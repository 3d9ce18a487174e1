"""Harness tests: determinism, validation, aggregation, emission formats."""

import csv
import io
import json
import math
import re
from pathlib import Path
from unittest import mock

import pytest

from ucdis import bounds, codec, ducompm, harness, sources
from ucdis.harness import (
    CoverageReport,
    ExperimentConfig,
    SummaryRow,
    ValidationError,
    render_csv,
    render_json,
    run_coverage,
    run_experiment,
    run_trials,
)
from ucdis.rng import RNG_ALGORITHM
from ucdis.sources import memoryless


def small_cfg(**overrides):
    base = dict(
        family_kind="memoryless", k=2, n=200, m=400, p_e=0.1,
        strategies=("ucomp", "ucompm", "ducompm"), trials=30, master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestValidation:
    def test_zero_trials(self):
        with pytest.raises(ValidationError) as exc:
            small_cfg(trials=0).validate()
        assert any("trials" in f for f in exc.value.fields)

    def test_multiple_fields_reported(self):
        with pytest.raises(ValidationError) as exc:
            small_cfg(trials=0, k=1, strategies=("bogus",)).validate()
        joined = " ".join(exc.value.fields)
        assert "trials" in joined and "k" in joined and "bogus" in joined

    def test_ducompm_needs_memoryless(self):
        with pytest.raises(ValidationError) as exc:
            small_cfg(family_kind="markov1").validate()
        assert any("memoryless" in f for f in exc.value.fields)

    def test_given_theta_validated(self):
        with pytest.raises(ValidationError) as exc:
            small_cfg(theta=(0.5, 0.6)).validate()
        assert any(f.startswith("theta:") for f in exc.value.fields)
        with pytest.raises(ValidationError):
            small_cfg(theta=(0.2, 0.3, 0.5)).validate()  # k = 2
        small_cfg(theta=(0.25, 0.75)).validate()

    def test_ducompm_pe_range(self):
        with pytest.raises(ValidationError):
            small_cfg(p_e=0.0).validate()


class TestConfigFile:
    def test_readme_example_loads(self):
        # the schema README documents, less its // comments, is a valid config
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme[readme.index("### Experiment config schema"):]
        example = section[section.index("```json") + len("```json"):]
        example = example[:example.index("```")]
        doc = json.loads(re.sub(r"\s*//.*", "", example))
        ExperimentConfig.from_json(doc).validate()

    def test_unknown_and_missing_keys_named(self):
        doc = small_cfg().to_json()
        assert doc["family"] == "memoryless" and "family_kind" not in doc
        del doc["k"]
        doc["theta_mode"] = "fixed"
        with pytest.raises(ValidationError) as exc:
            ExperimentConfig.from_json(doc)
        assert exc.value.fields == ["theta_mode: unknown config field", "k: missing config field"]
        with pytest.raises(ValidationError, match="JSON object"):
            ExperimentConfig.from_json([1, 2])


class TestDeterminism:
    def test_rows_are_pure_function_of_config(self):
        rows_a = run_experiment(small_cfg())
        rows_b = run_experiment(small_cfg())
        assert rows_a == rows_b

    def test_worker_count_invariance(self):
        cfg = small_cfg(trials=24)
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=2)

    def test_pool_capped_by_trials_and_cpus(self, monkeypatch):
        # a fork pool starts every worker up front, so an oversized worker
        # count must not reach it; an in-process stand-in records the size
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        cfg = small_cfg(trials=3)
        assert run_experiment(cfg, workers=10**6) == run_experiment(cfg)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        run_coverage(small_cfg(strategies=("ducompm",), trials=3), workers=10**6)
        assert sizes == [3, 2]

    def test_memory_checked_and_counted_once_per_trial(self, monkeypatch):
        # every strategy takes the trial's memory counts: of the checks and
        # counts over a sequence, one per trial is over the memory (m = 400)
        cfg = small_cfg(trials=3)
        checked = []
        for module in (sources, codec, ducompm):
            real = module._validate_sequence
            monkeypatch.setattr(module, "_validate_sequence",
                                lambda x, k, real=real: checked.append(len(x)) or real(x, k))
        counted = mock.Mock(wraps=sources.context_counts)
        monkeypatch.setattr(harness, "context_counts", counted)
        run_trials(cfg)
        assert checked.count(cfg.m) == cfg.trials
        assert counted.call_count == cfg.trials

    def test_different_seed_changes_results(self):
        a = run_experiment(small_cfg(strategies=("ucomp",)))
        b = run_experiment(small_cfg(strategies=("ucomp",), master_seed=12))
        assert a != b

    def test_trial_table_shapes(self):
        data = run_trials(small_cfg())
        assert data.strategies == ("ucomp", "ucompm", "ducompm")
        assert data.entropy_bits.shape == (30,)
        assert set(data.lengths) == {"ucomp", "ucompm", "ducompm"}


class TestSummaries:
    def test_zero_entropy_source(self):
        cfg = small_cfg(
            strategies=("ucomp",), theta=(1.0, 0.0),
            n=1000, trials=20,
        )
        row = run_experiment(cfg)[0]
        # H = 0, so redundancy equals the emitted length; the KT cost of a
        # constant sequence is about half a log plus termination
        assert row.avg_redundancy_bits == row.avg_len_bits
        assert row.avg_len_bits <= 0.5 * math.log2(math.pi * 1000) + 3
        assert row.error_rate == 0.0

    def test_lossless_error_rate_is_zero(self):
        rows = run_experiment(small_cfg(strategies=("ucomp", "ucompm")))
        assert all(r.error_rate == 0.0 for r in rows)

    def test_theory_bits_match_bounds(self):
        rows = {r.strategy: r for r in run_experiment(small_cfg())}
        fam = memoryless(2)
        assert rows["ucomp"].theory_bits == pytest.approx(bounds.redundancy_ucomp(fam, 200).total_bits)
        assert rows["ucompm"].theory_bits == pytest.approx(bounds.redundancy_ucompm(1, 200, 400).total_bits)
        assert rows["ducompm"].theory_bits == pytest.approx(
            bounds.redundancy_ducompm(fam, 200, 400, 0.1, "approx").total_bits
        )

    def test_memory_reduces_average_length(self):
        cfg = small_cfg(strategies=("ucomp", "ucompm"), n=500, m=5000, trials=120)
        data = run_trials(cfg)
        gap = data.lengths["ucomp"] - data.lengths["ucompm"]
        assert gap.mean() > 3 * gap.std(ddof=1) / math.sqrt(cfg.trials)


class TestCoverage:
    def test_tiny_pe_covers_everything(self):
        cfg = small_cfg(strategies=("ducompm",), p_e=1e-12, trials=60)
        assert run_coverage(cfg).empirical_coverage == 1.0

    def test_requires_memoryless(self):
        cfg = ExperimentConfig(
            family_kind="markov1", k=2, n=50, m=50, p_e=0.1,
            strategies=("ucomp",), trials=5, master_seed=1,
        )
        with pytest.raises(ValidationError):
            run_coverage(cfg)

    def test_deterministic(self):
        cfg = small_cfg(strategies=("ducompm",), trials=50)
        assert run_coverage(cfg) == run_coverage(cfg)
        assert run_coverage(cfg, workers=2) == run_coverage(cfg)


class TestEmission:
    def test_csv_schema(self):
        rows = run_experiment(small_cfg(trials=5))
        text = render_csv(rows)
        assert text.endswith("\r\n") and text.count("\n") == text.count("\r\n")
        parsed = list(csv.reader(io.StringIO(text, newline="")))
        assert parsed[0] == [
            "strategy", "k", "n", "m", "p_e", "trials",
            "avg_len_bits", "avg_redundancy_bits", "stderr_bits", "error_rate", "theory_bits",
        ]
        assert len(parsed) == 4
        for line in parsed[1:]:
            float(line[6])  # numeric, '.' separator
            assert "," not in line[6]

    def test_empty_rows_header_only(self):
        assert render_csv([]) == (
            "strategy,k,n,m,p_e,trials,avg_len_bits,avg_redundancy_bits,"
            "stderr_bits,error_rate,theory_bits\r\n"
        )

    def test_coverage_csv(self):
        cfg = small_cfg(strategies=("ducompm",), trials=20)
        lines = render_csv(run_coverage(cfg)).splitlines()
        assert lines[0] == "k,n,m,p_e,trials,empirical_coverage,target"
        assert len(lines) == 2

    def test_json_roundtrip(self):
        cfg = small_cfg(trials=5)
        rows = run_experiment(cfg)
        text = render_json(rows, config=cfg)
        assert text.endswith("}\n")
        doc = json.loads(text)
        assert doc["rng_algorithm"] == RNG_ALGORITHM
        assert doc["config"]["master_seed"] == 11
        rebuilt = [SummaryRow(**row) for row in doc["rows"]]
        assert rebuilt == rows
        assert ExperimentConfig.from_json(doc["config"]) == cfg

    def test_coverage_json(self):
        cfg = small_cfg(strategies=("ducompm",), trials=20)
        report = run_coverage(cfg)
        doc = json.loads(render_json(report))
        assert CoverageReport(**doc["coverage"]) == report
        assert "config" not in doc

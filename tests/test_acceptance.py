"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they appear.
Every tolerance and runtime limit is pinned here; the Monte Carlo criteria use
fixed master seeds, so their measured values are reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest

from ucdis import bounds, cli, codec, ducompm, harness
from ucdis.numerics import chi2_quantile_upper, log2_unit_ball_volume
from ucdis.sources import memoryless

from reference import ideal_kt_bits, memory_counts, reg_gamma_upper


def _report(num, elapsed, limit, detail):
    print(f"[acceptance] criterion {num:2d}: PASS in {elapsed:5.1f}s (limit {limit}s) {detail}")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s runtime limit"


def all_types(n, k):
    if k == 1:
        return [(n,)]
    return sorted(
        (first,) + rest for first in range(n + 1) for rest in all_types(n - first, k - 1)
    )


def test_criterion_01_section_v_anchor(capsys):
    t0 = time.perf_counter()
    code = cli.main([
        "bounds", "--family", "memoryless", "--k", "256", "--n", "512",
        "--m", "32768", "--pe", "1e-6", "--strategy", "ducompm", "--mode", "approx",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert 0.040 <= doc["rate"] <= 0.060
    assert doc["rate"] == pytest.approx(0.0425308, abs=1e-6)
    ucompm_rate = bounds.redundancy_ucompm(255, 512, 32768).rate
    assert ucompm_rate <= 0.01
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(1, elapsed, 1, f"rate={doc['rate']:.5f}, ucompm rate={ucompm_rate:.5f}")


def test_criterion_02_penalty_formula():
    t0 = time.perf_counter()
    value = bounds.penalty_approx(255, 1e-6)
    assert value == pytest.approx(18.927, abs=0.01)
    for d in (1, 255, 65280):
        assert bounds.penalty_approx(d, 1.0) == 0.0
    _report(2, time.perf_counter() - t0, 1, f"F(255,1e-6)={value:.4f}")


def test_criterion_03_figure_reproduction():
    t0 = time.perf_counter()
    for name in ("fig2", "fig3"):
        table = bounds.figure_preset(name, "approx")
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "# mode=approx"
        assert lines[1] == "n,ucomp,ducompm_pe1e-40,ducompm_pe1e-6,ucompm"
        rows = [list(map(float, ln.split(","))) for ln in lines[2:]]
        assert len(rows) == 10
        for col in range(1, 5):
            series = [r[col] for r in rows]
            assert all(a > b for a, b in zip(series, series[1:])), f"{name} col {col}"
        for r in rows:
            _, ucomp, d40, d6, ucompm = r
            assert ucompm <= d6 <= d40 <= ucomp
    _report(3, time.perf_counter() - t0, 5, "fig2+fig3 orderings hold")


def test_criterion_04_no_memory_redundancy_empirical():
    t0 = time.perf_counter()
    cfg = harness.ExperimentConfig(
        family_kind="memoryless", k=2, n=1000, m=0, p_e=0.0,
        strategies=("ucomp",), trials=2000, master_seed=20260804,
    )
    row = harness.run_experiment(cfg)[0]
    assert 3.6 <= row.avg_redundancy_bits <= 7.6
    assert row.stderr_bits > 0.0
    _report(
        4, time.perf_counter() - t0, 60,
        f"avg redundancy={row.avg_redundancy_bits:.3f} bits (stderr {row.stderr_bits:.3f}, "
        f"theory {row.theory_bits:.3f})",
    )


def test_criterion_05_memory_redundancy_decay():
    t0 = time.perf_counter()
    lens, reds = {}, {}
    for m in (250, 1000, 8000):
        cfg = harness.ExperimentConfig(
            family_kind="memoryless", k=2, n=1000, m=m, p_e=0.0,
            strategies=("ucompm",), trials=2000, master_seed=20260805,
        )
        data = harness.run_trials(cfg)
        lens[m] = data.lengths["ucompm"]
        reds[m] = float((data.lengths["ucompm"] - data.entropy_bits).mean())
    # shared per-trial theta and x across the three runs: the differences pair up
    gaps = []
    for a, b in ((250, 1000), (1000, 8000)):
        diff = lens[a] - lens[b]
        gap = diff.mean()
        assert gap > 3 * diff.std(ddof=1) / math.sqrt(diff.size), f"m {a}->{b} not separated"
        gaps.append(gap)
    drop = reds[1000] - reds[8000]
    assert 0.15 <= drop <= 0.75
    _report(
        5, time.perf_counter() - t0, 90,
        f"redundancy {reds[250]:.3f} > {reds[1000]:.3f} > {reds[8000]:.3f}, "
        f"drop(1000->8000)={drop:.3f}",
    )


def test_criterion_06_capacity_difference_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for k in (2, 4):
        fam = memoryless(k)
        for n in (100, 1000, 10_000, 100_000):
            for m in (100, 1000, 10_000, 100_000):
                lhs = bounds.redundancy_ucompm(fam.d, n, m).total_bits
                rhs = bounds.capacity_difference_check(fam, n, m)
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 0.05
    _report(6, time.perf_counter() - t0, 1, f"max |ucompm - capacity diff| = {worst:.2e}")


def test_criterion_07_gaussian_coverage():
    t0 = time.perf_counter()
    results = {}
    for p_e in (0.1, 0.5):
        cfg = harness.ExperimentConfig(
            family_kind="memoryless", k=2, n=1000, m=1000, p_e=p_e,
            strategies=("ducompm",), trials=4000, master_seed=20260807,
        )
        results[p_e] = harness.run_coverage(cfg).empirical_coverage
    assert results[0.1] >= 0.85
    assert 0.44 <= results[0.5] <= 0.56
    _report(
        7, time.perf_counter() - t0, 60,
        f"coverage(pe=0.1)={results[0.1]:.4f}, coverage(pe=0.5)={results[0.5]:.4f}",
    )


def test_criterion_08_ducompm_end_to_end():
    t0 = time.perf_counter()
    trials = 2000
    cfg = harness.ExperimentConfig(
        family_kind="memoryless", k=3, n=300, m=3000, p_e=0.05,
        strategies=("ucomp", "ucompm", "ducompm"), trials=trials, master_seed=20260810,
    )
    data = harness.run_trials(cfg)
    err = float(data.errors["ducompm"].mean())
    budget = 0.05 + 3 * math.sqrt(0.05 / trials) + 0.02
    assert err <= budget, f"(a) error rate {err:.4f} > {budget:.4f}"
    diff = data.lengths["ucomp"] - data.lengths["ducompm"]
    stderr = diff.std(ddof=1) / math.sqrt(trials)
    assert diff.mean() > 3 * stderr, f"(b) gap {diff.mean():.3f} <= {3 * stderr:.3f}"
    diff_low = data.lengths["ducompm"] - data.lengths["ucompm"]
    assert diff_low.mean() >= 0.0, "(c)"
    assert diff_low.mean() > 3 * diff_low.std(ddof=1) / math.sqrt(trials)
    _report(
        8, time.perf_counter() - t0, 300,
        f"err={err:.4f}<={budget:.4f}, ucomp-ducompm={diff.mean():.2f} bits "
        f"(3*stderr={3 * stderr:.2f}), ducompm-ucompm={diff_low.mean():.2f} bits",
    )


def test_criterion_09_strict_losslessness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1009)
    plan = [(2, 4000, 800), (3, 2000, 800), (4, 2000, 800), (256, 1992, 1500)]
    big_cases = [(2, 5000), (2, 5000), (3, 5000), (4, 5000), (256, 5000), (256, 5000),
                 (3, 5000), (4, 5000)]
    total, bound_checked = 0, 0
    for k, cases, n_max in plan:
        fam = memoryless(k)
        for i in range(cases):
            n = int(rng.integers(0, n_max + 1))
            theta = rng.dirichlet([0.5] * k)
            x = rng.choice(k, size=n, p=theta)
            if i % 2 == 0:
                stream = codec.encode_ucompm(fam, memory_counts(fam), x)
                back = codec.decode_ucompm(fam, memory_counts(fam), stream, n)
                ideal = ideal_kt_bits(fam, x)
            else:
                y = rng.choice(k, size=n // 2, p=theta)
                stream = codec.encode_ucompm(fam, memory_counts(fam, y), x)
                back = codec.decode_ucompm(fam, memory_counts(fam, y), stream, n)
                ideal = ideal_kt_bits(fam, x, memory=y)
            assert np.array_equal(back, x), f"mismatch k={k} case {i}"
            assert stream.bit_length <= ideal + 2 + 1e-6, f"length bound k={k} case {i}"
            total += 1
            bound_checked += 1
    for k, n in big_cases:
        fam = memoryless(k)
        theta = rng.dirichlet([0.5] * k)
        x = rng.choice(k, size=n, p=theta)
        y = rng.choice(k, size=n // 2, p=theta)
        stream = codec.encode_ucompm(fam, memory_counts(fam, y), x)
        assert np.array_equal(codec.decode_ucompm(fam, memory_counts(fam, y), stream, n), x)
        assert stream.bit_length <= ideal_kt_bits(fam, x, memory=y) + 2 + 1e-6
        total += 1
    assert total == 10_000
    _report(9, time.perf_counter() - t0, 120,
            f"{total} round-trips exact, {total} length bounds hold")


def test_criterion_10_oracle_equivalence():
    from ucdis.sources import fisher_info

    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    cases = 0
    for _ in range(200):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(1, 31))
        center = rng.dirichlet([1.0] * k)
        e = ducompm.Ellipsoid(
            center,
            float(rng.uniform(2.0, 500.0)),
            fisher_info(memoryless(k), center),
            float(rng.uniform(0.2, 4.0)) * chi2_quantile_upper(k - 1, 0.1),
        )
        fast = ducompm.enumerate_types_in_ellipsoid(e, n, k)
        brute = [t for t in all_types(n, k) if ducompm.ellipsoid_contains(e, t, n)]
        assert fast == brute
        cases += 1
    roundtrips = 0
    for k in (2, 3):
        for n in range(0, 13):
            for t in all_types(n, k):
                size = ducompm.multinomial_count(t)
                for r in range(size):
                    x = ducompm.type_unrank(t, r)
                    assert ducompm.type_rank(x, k) == (r, size)
                roundtrips += size
    _report(10, time.perf_counter() - t0, 30,
            f"{cases} enumeration cases == brute force, {roundtrips} rank round-trips")


def test_criterion_11_numerics():
    t0 = time.perf_counter()
    for d in (1, 2, 10, 255):
        for q in (0.5, 0.9, 0.99, 1.0 - 1e-6):
            t = chi2_quantile_upper(d, 1.0 - q)
            assert abs(reg_gamma_upper(d / 2.0, t / 2.0) - (1.0 - q)) <= 1e-8
    # d = 2 closed forms
    for q in (0.5, 0.9, 0.99):
        t = chi2_quantile_upper(2, 1.0 - q)
        assert abs(t - (-2.0 * math.log(1.0 - q))) <= 1e-10 * abs(t) + 1e-10
    for p_e in (0.5, 0.01, 1e-6):
        assert abs(bounds.delta_d(2, p_e) - math.log2(1.0 / p_e)) <= 1e-10 * math.log2(1.0 / p_e) + 1e-10
    for d in range(8, 1025):
        approx = -0.5 * d * math.log2(d / (2 * math.pi * math.e)) - 0.5 * math.log2(d * math.pi)
        assert abs(log2_unit_ball_volume(d) - approx) <= 0.2
    _report(11, time.perf_counter() - t0, 1, "quantile round-trips, closed forms, Stirling bound")

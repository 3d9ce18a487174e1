"""Redundancy-formula tests with frozen oracle values.

High-precision reference values were computed with mpmath (50 digits) through
independent routes: gamma summation for log-factorials, bisection with
mpmath.gammainc for quantiles, and term-by-term formula evaluation.
"""

import math

import pytest

from ucdis import bounds
from ucdis.numerics import LOG2E
from ucdis.sources import markov1, memoryless

MEM2 = memoryless(2)
MEM4 = memoryless(4)
MEM256 = memoryless(256)


class TestUcomp:
    def test_k2_n1000(self):
        b = bounds.redundancy_ucomp(MEM2, 1000)
        assert b.total_bits == pytest.approx(4.587292686622721, abs=1e-9)
        assert b.rate == pytest.approx(b.total_bits / 1000)

    def test_k256_n512(self):
        b = bounds.redundancy_ucomp(MEM256, 512)
        assert b.total_bits == pytest.approx(127.72040826777145, abs=1e-7)
        assert b.terms["jeffreys_integral"] == pytest.approx(-497.77021751116506, abs=1e-7)

    def test_doubling_adds_half_d(self):
        for fam, n in ((MEM2, 500), (MEM256, 4096), (markov1(4), 1 << 16)):
            delta = bounds.redundancy_ucomp(fam, 2 * n).total_bits - bounds.redundancy_ucomp(fam, n).total_bits
            assert delta == pytest.approx(fam.d / 2.0, abs=1e-8)

    def test_terms_sum_and_notes(self):
        b = bounds.redundancy_ucomp(markov1(256), 1 << 20)
        assert b.total_bits == pytest.approx(math.fsum(b.terms.values()), abs=1e-9)
        assert any("approximation" in note for note in b.notes)

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.redundancy_ucomp(MEM2, 1)


class TestUcompm:
    def test_equal_lengths(self):
        assert bounds.redundancy_ucompm(1, 7, 7).total_bits == pytest.approx(0.5, abs=1e-12)

    def test_anchor(self):
        b = bounds.redundancy_ucompm(255, 512, 32768)
        assert b.total_bits == pytest.approx(2.85189616112795, abs=1e-9)

    def test_vanishes_with_large_memory(self):
        assert bounds.redundancy_ucompm(255, 512, 10**15).total_bits < 1e-7


class TestNonFiniteLength:
    # n enters the terms and the rate as a float
    @pytest.mark.parametrize("n", [10**400, float("inf"), float("nan")],
                             ids=["400-digits", "inf", "nan"])
    def test_every_strategy_names_n(self, n):
        for evaluate in (lambda: bounds.redundancy_ucomp(MEM4, n),
                         lambda: bounds.redundancy_ucompm(3, n, 5),
                         lambda: bounds.redundancy_ducompm(MEM4, n, 5, 0.1, "approx"),
                         lambda: bounds.redundancy_ducompm(MEM4, n, 5, 0.1, "exact"),
                         lambda: bounds.redundancy_ducompm(MEM4, n, 5, 0.0)):
            with pytest.raises(ValueError, match="n must convert to a finite float"):
                evaluate()

    def test_largest_finite_length_is_evaluated(self):
        n = int(1e300)
        assert bounds.redundancy_ucompm(3, n, n).rate == pytest.approx(1.5 / 1e300)
        assert math.isfinite(bounds.redundancy_ucomp(MEM4, n).rate)

    def test_ellipsoid_measure_names_the_length(self):
        # r = n m / (n + m) used to overflow a float with an OverflowError
        with pytest.raises(ValueError, match="n must convert to a finite float"):
            bounds.ellipsoid_measure(MEM4, 10**400, 10**400, 0.05)
        with pytest.raises(ValueError, match="m must convert to a finite float"):
            bounds.ellipsoid_measure(MEM4, 5, 10**400, 0.05)

    def test_capacity_difference_names_m(self):
        # it evaluates redundancy_ucomp at n + m, whose check named n
        with pytest.raises(ValueError, match="^m must convert to a finite float"):
            bounds.capacity_difference_check(MEM4, 5, 10**400)


class TestCapacityDifference:
    def test_jeffreys_terms_cancel(self):
        assert bounds.capacity_difference_check(MEM2, 1000, 1000) == pytest.approx(0.5, abs=1e-9)
        assert bounds.capacity_difference_check(MEM2, 512, 32768) == pytest.approx(
            0.011183906514227254, abs=1e-10
        )
        assert bounds.capacity_difference_check(MEM2, 0, 100) == 0.0

    def test_matches_ucompm_on_grid(self):
        for fam in (MEM2, MEM4):
            for n in (100, 1000, 10_000, 100_000):
                for m in (100, 1000, 10_000, 100_000):
                    lhs = bounds.redundancy_ucompm(fam.d, n, m).total_bits
                    rhs = bounds.capacity_difference_check(fam, n, m)
                    assert abs(lhs - rhs) <= 1e-6


class TestDelta:
    def test_two_dof_closed_form(self):
        for p_e in (0.3, 0.01, 1e-6, 1e-12):
            assert bounds.delta_d(2, p_e) == pytest.approx(math.log2(1.0 / p_e), rel=1e-10)

    def test_one_dof(self):
        assert bounds.delta_d(1, 0.01) == pytest.approx(4.786066211552173, abs=1e-9)

    def test_large_d_pinned(self):
        # frozen from the mpmath bisection oracle
        assert bounds.delta_d(255, 1e-6) == pytest.approx(272.00436362907202, rel=1e-9)

    def test_tracks_approximation_when_d_dominates(self):
        # the closed-form radius drops the quantile's sqrt(d) fluctuation, so
        # agreement needs d to dwarf log(1/p_e)
        assert bounds.delta_d(65280, 1e-6) == pytest.approx(bounds.delta_approx(65280, 1e-6), rel=0.05)
        assert bounds.delta_d(2, 1e-6) == pytest.approx(bounds.delta_approx(2, 1e-6), rel=0.08)

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.delta_d(2, 0.0)
        with pytest.raises(ValueError):
            bounds.delta_d(2, 1.0)


class TestPenalty:
    def test_zero_at_pe_one(self):
        for d in (1, 255, 65280):
            assert bounds.penalty_approx(d, 1.0) == 0.0

    def test_values(self):
        assert bounds.penalty_approx(255, 1e-6) == pytest.approx(18.923878326869352, abs=1e-9)
        assert bounds.penalty_approx(1, 1e-6) == pytest.approx(2.4197536096925816, abs=1e-9)

    def test_exact_with_substituted_radius_is_approx(self):
        # replacing the exact radius by its approximation recovers the closed form
        for d in (1, 2, 17, 255, 65280):
            for p_e in (0.3, 0.01, 1e-6, 1e-20):
                delta = bounds.delta_approx(d, p_e)
                recon = 0.5 * d * math.log2(2.0 * delta / (d * LOG2E))
                assert recon == pytest.approx(bounds.penalty_approx(d, p_e), rel=1e-12)

    def test_exact_values(self):
        assert bounds.penalty_exact(2, 0.01) == pytest.approx(2.2032544726997217, abs=1e-9)
        # exceeds the approximate penalty at large d (reported behavior)
        exact = bounds.penalty_exact(255, 1e-6)
        assert exact == pytest.approx(71.95668744796695, rel=1e-9)
        assert exact > bounds.penalty_approx(255, 1e-6)

    def test_monotonicity(self):
        pes = [0.5, 0.1, 1e-3, 1e-9, 1e-30]
        vals = [bounds.penalty_approx(64, p) for p in pes]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        ds = [1, 2, 8, 64, 1024]
        vals = [bounds.penalty_approx(d, 1e-4) for d in ds]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_simplified_regime(self):
        # within 10% of log2(1/p_e) whenever log2(1/p_e) <= d/100
        for d in (2000, 65280):
            for p_e in (1e-2, 1e-6, 10 ** (-d / 100 / 3.322)):
                lg = math.log2(1.0 / p_e)
                if lg > d / 100:
                    continue
                assert abs(bounds.penalty_approx(d, p_e) - lg) / lg <= 0.1


class TestDucompmBound:
    def test_anchor_rate(self):
        b = bounds.redundancy_ducompm(MEM256, 512, 32768, 1e-6, "approx")
        assert b.total_bits == pytest.approx(21.775774487997301, abs=1e-8)
        assert b.rate == pytest.approx(0.04253080954686973, abs=1e-10)
        assert 0.040 <= b.rate <= 0.060

    def test_zero_error_degenerates_to_ucomp(self):
        b = bounds.redundancy_ducompm(MEM256, 512, 32768, 0.0)
        assert b.total_bits == pytest.approx(bounds.redundancy_ucomp(MEM256, 512).total_bits)
        assert b.strategy == "ducompm"
        assert any("ucomp" in note for note in b.notes)

    def test_pe_one_equals_ucompm(self):
        b = bounds.redundancy_ducompm(MEM4, 100, 400, 1.0, "approx")
        assert b.total_bits == pytest.approx(bounds.redundancy_ucompm(3, 100, 400).total_bits)

    @pytest.mark.parametrize("p_e", [0.0, 0.1, 1.0])
    def test_memory_length_checked_at_every_pe(self, p_e):
        with pytest.raises(ValueError, match="m must be >= 1"):
            bounds.redundancy_ducompm(MEM4, 100, 0, p_e)

    def test_nan_pe_rejected(self):
        with pytest.raises(ValueError, match=r"p_e must lie in \[0,1\]"):
            bounds.redundancy_ducompm(MEM4, 100, 400, math.nan)

    def test_modes(self):
        approx = bounds.redundancy_ducompm(MEM256, 512, 32768, 1e-6, "approx").total_bits
        exact = bounds.redundancy_ducompm(MEM256, 512, 32768, 1e-6, "exact").total_bits
        assert exact > approx
        with pytest.raises(ValueError):
            bounds.redundancy_ducompm(MEM256, 512, 32768, 1e-6, "other")


class TestRedundancyDispatch:
    GRID = [
        (fam, n, m, p_e, mode)
        for fam in (MEM2, MEM4, markov1(3))
        for n in (10, 1000)
        for m in (5, 4000)
        for p_e in (0.0, 1e-3, 0.2)
        for mode in ("approx", "exact")
    ]

    @pytest.mark.parametrize("fam,n,m,p_e,mode", GRID)
    def test_each_strategy_is_its_own_function(self, fam, n, m, p_e, mode):
        assert bounds.redundancy("ucomp", fam, n, m, p_e, mode) == bounds.redundancy_ucomp(fam, n)
        assert bounds.redundancy("ucompm", fam, n, m, p_e, mode) == bounds.redundancy_ucompm(fam.d, n, m)
        assert (bounds.redundancy("ducompm", fam, n, m, p_e, mode)
                == bounds.redundancy_ducompm(fam, n, m, p_e, mode))

    def test_strategy_list(self):
        # harness rows and CLI choices follow this order
        assert bounds.STRATEGIES == ("ucomp", "ucompm", "ducompm")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            bounds.redundancy("ucompmm", MEM4, 100, 400, 0.1)

    @pytest.mark.parametrize("strategy", ["ucompm", "ducompm"])
    def test_memory_length_required(self, strategy):
        with pytest.raises(ValueError, match="requires the memory length m"):
            bounds.redundancy(strategy, MEM4, 100, None, 0.1)

    def test_ucomp_needs_no_memory(self):
        assert bounds.redundancy("ucomp", MEM4, 100) == bounds.redundancy_ucomp(MEM4, 100)


class TestEllipsoidMeasure:
    def test_example(self):
        ps = bounds.ellipsoid_measure(MEM2, 1000, 1000, 0.01, "exact")
        assert ps == pytest.approx(0.07333515266009846, rel=1e-9)

    def test_monotone_in_pe(self):
        vals = [bounds.ellipsoid_measure(MEM2, 1000, 1000, p, "exact") for p in (0.2, 0.05, 0.01)]
        assert vals[0] < vals[1] < vals[2]

    def test_vanishes_with_r(self):
        big = bounds.ellipsoid_measure(MEM2, 10**6, 10**6, 0.01, "exact")
        assert big < bounds.ellipsoid_measure(MEM2, 100, 100, 0.01, "exact")
        assert big < 1e-2

    def test_out_of_regime_warns(self):
        with pytest.warns(UserWarning):
            ps = bounds.ellipsoid_measure(MEM2, 1, 1, 1e-6, "exact")
        assert ps > 1.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be 'approx' or 'exact', got 'exat'"):
            bounds.ellipsoid_measure(MEM2, 1000, 1000, 0.01, "exat")


class TestFigurePresets:
    @pytest.mark.parametrize("name", ["fig2", "fig3"])
    def test_ordering_and_monotonicity(self, name):
        table = bounds.figure_preset(name)
        assert len(table.ns) == 10
        for col in table.columns.values():
            assert all(a > b for a, b in zip(col, col[1:]))  # strictly decreasing in n
        for i in range(10):
            assert (
                table.columns["ucompm"][i]
                <= table.columns["ducompm_pe1e-6"][i]
                <= table.columns["ducompm_pe1e-40"][i]
                <= table.columns["ucomp"][i]
            )

    def test_fig2_geometry(self):
        table = bounds.figure_preset("fig2")
        assert table.family.kind == "memoryless" and table.family.k == 256
        assert table.m == 32 * 1024
        assert table.ns[0] == 512 and table.ns[-1] == 256 * 1024
        assert table.columns["ducompm_pe1e-6"][0] == pytest.approx(0.042530809546, abs=1e-9)
        assert table.columns["ucompm"][0] == pytest.approx(0.00557011, abs=1e-7)

    def test_fig3_geometry(self):
        table = bounds.figure_preset("fig3")
        assert table.family.kind == "markov1" and table.family.d == 65280
        assert table.m == 16 * 1024 * 1024
        assert table.ns[0] == 128 * 1024 and table.ns[-1] == 64 * 1024 * 1024

    def test_csv_format(self):
        text = bounds.figure_preset("fig2", "exact").to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "# mode=exact"
        assert lines[1] == "n,ucomp,ducompm_pe1e-40,ducompm_pe1e-6,ucompm"
        assert len(lines) == 12
        first = lines[2].split(",")
        assert first[0] == "512"
        assert float(first[1]) == pytest.approx(0.249454, abs=1e-6)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            bounds.figure_preset("fig9")

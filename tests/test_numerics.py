"""Special-function checks against closed forms and independent oracles."""

import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ucdis.numerics import chi2_quantile_upper, log2_unit_ball_volume

from reference import reg_gamma_upper


class TestRegGammaUpper:
    def test_full_mass_at_zero(self):
        assert reg_gamma_upper(2.5, 0.0) == 1.0

    def test_exponential_closed_form(self):
        # Q(1, x) = exp(-x)
        for x in (0.0, math.log(2.0), 1.0, 5.0, 40.0):
            assert reg_gamma_upper(1.0, x) == pytest.approx(math.exp(-x), rel=1e-10)

    def test_half_dof_erfc_oracle(self):
        # Q(1/2, x) = erfc(sqrt(x)); x = 3.3174483 gives the chi-square(1) 1% tail
        x = 3.3174483005106075
        assert reg_gamma_upper(0.5, x) == pytest.approx(math.erfc(math.sqrt(x)), rel=1e-10)
        assert reg_gamma_upper(0.5, x) == pytest.approx(0.01, rel=1e-7)

    def test_monotone_decreasing_grids(self):
        # grid scaled to s: outside (s/5, 5s) the double-precision value
        # saturates at 1 or 0 and strictness is unobservable
        for s in (0.5, 1.0, 2.0, 127.5):
            xs = [0.0] + [s * f for f in (0.5, 0.8, 1.0, 1.5, 2.5)]
            vals = [reg_gamma_upper(s, x) for x in xs]
            assert vals[0] == 1.0
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert reg_gamma_upper(s, 40.0 * max(s, 1.0)) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_gamma_upper(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_gamma_upper(1.0, -0.5)


class TestChi2Quantile:
    def test_two_dof_closed_form(self):
        # chi2 with 2 dof: quantile(q) = -2 ln(1 - q)
        assert chi2_quantile_upper(2, 1.0 - 0.95) == pytest.approx(-2.0 * math.log(0.05), rel=1e-10)
        assert chi2_quantile_upper(2, 1.0 - 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-10)

    def test_one_dof_against_bisection_oracle(self):
        # slow independent bisection on the same tail function
        p = 0.01
        lo, hi = 0.0, 100.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if reg_gamma_upper(0.5, 0.5 * mid) > p:
                lo = mid
            else:
                hi = mid
        assert chi2_quantile_upper(1, 1.0 - 0.99) == pytest.approx(0.5 * (lo + hi), rel=1e-9)
        assert chi2_quantile_upper(1, 1.0 - 0.99) == pytest.approx(6.634896601021215, rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 10, 255])
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 1.0 - 1e-6])
    def test_roundtrip(self, d, q):
        t = chi2_quantile_upper(d, 1.0 - q)
        assert abs(reg_gamma_upper(d / 2.0, t / 2.0) - (1.0 - q)) <= 1e-8

    def test_extreme_upper_tail(self):
        # 1 - 1e-40 is not representable as a quantile, but the upper-tail
        # form stays well-posed
        t = chi2_quantile_upper(255, 1e-40)
        assert t == pytest.approx(682.5295257757126, rel=1e-9)
        assert reg_gamma_upper(127.5, t / 2.0) == pytest.approx(1e-40, rel=1e-6)
        t = chi2_quantile_upper(65280, 1e-40)
        assert reg_gamma_upper(32640.0, t / 2.0) == pytest.approx(1e-40, rel=1e-6)

    @pytest.mark.parametrize("d, p", [(3, 1e-115), (1, 1e-300), (255, 1e-200),
                                      (8, 1e-281), (65280, 1e-40), (2, 0.05)])
    def test_deep_tail(self, d, p):
        # the tail mass above the quantile is p to near double precision,
        # however small p is
        t = chi2_quantile_upper(d, p)
        assert abs(reg_gamma_upper(d / 2.0, t / 2.0) - p) <= 1e-12 * p

    def test_domain(self):
        with pytest.raises(ValueError):
            chi2_quantile_upper(2, 1.0)
        with pytest.raises(ValueError):
            chi2_quantile_upper(2, 0.0)
        with pytest.raises(ValueError):
            chi2_quantile_upper(2, float("nan"))
        with pytest.raises(ValueError):
            chi2_quantile_upper(0, 0.5)


def _mp_chi2_quantile_upper(d, p, start):
    """t with P(chi2_d > t) = p, solved at 50 digits on ln of the smaller
    tail over ln t; the tail is monotone in t, so the root found is the only
    one."""
    with mpmath.workdps(50):
        a, p = mpmath.mpf(d) / 2, mpmath.mpf(p)
        if p <= 0.5:
            f = lambda x: mpmath.log(mpmath.gammainc(a, x, mpmath.inf, regularized=True)) - mpmath.log(p)
        else:
            f = lambda x: mpmath.log(mpmath.gammainc(a, 0, x, regularized=True)) - mpmath.log(1 - p)
        return 2 * mpmath.exp(mpmath.findroot(lambda y: f(mpmath.exp(y)), mpmath.log(mpmath.mpf(start) / 2)))


def _documented_error(d, p):
    # chi2_quantile_upper's docstring: 2e-15, plus 2 eps |ln(1 - p)| / d as p nears 1
    return 2e-15 + (2.0 * 2.0 ** -52 * -math.log1p(-p) / d if p > 0.5 else 0.0)


class TestChi2QuantileAccuracy:
    """The stdlib inverse against mpmath: double precision to a few ulps
    over every dimension the codecs use (k - 1 for k = 2..256, 65,280 for
    markov1 bytes) and tails from 0.9 to 1e-300."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 63, 255, 65280])
    @pytest.mark.parametrize("p", [0.9, 0.5, 0.05, 0.01, 1e-6, 1e-40, 1e-300])
    def test_against_mpmath(self, d, p):
        t = chi2_quantile_upper(d, p)
        exact = _mp_chi2_quantile_upper(d, p, t)
        assert abs(mpmath.mpf(t) - exact) <= 2e-15 * exact

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 22, 255])
    @pytest.mark.parametrize("p", [0.99, 1.0 - 1e-6, 1.0 - 1e-12, 1.0 - 2.0 ** -53])
    def test_near_one_against_mpmath(self, d, p):
        t = chi2_quantile_upper(d, p)
        exact = _mp_chi2_quantile_upper(d, p, t)
        assert abs(mpmath.mpf(t) - exact) <= _documented_error(d, p) * exact

    @pytest.mark.parametrize("p", [1.0 - 2.0 ** -53, 1.0 - 1e-12, 0.9, 0.5, 0.05, 1e-6, 1e-40, 1e-300])
    def test_two_dof_is_minus_two_log(self, p):
        # Q(1, x) = exp(-x)
        t = chi2_quantile_upper(2, p)
        assert t == pytest.approx(-2.0 * math.log(p), rel=_documented_error(2, p), abs=0.0)

    @settings(max_examples=200)
    @given(d=st.integers(1, 65280),
           p1=st.floats(1e-300, 1.0, exclude_max=True),
           p2=st.floats(1e-300, 1.0, exclude_max=True))
    def test_strictly_decreasing_in_p(self, d, p1, p2):
        # a 1e-6 relative gap in the smaller tail moves t far beyond its error
        lo, hi = min(p1, p2), max(p1, p2)
        assume(hi - lo >= 1e-6 * min(lo, 1.0 - hi))
        assert chi2_quantile_upper(d, lo) > chi2_quantile_upper(d, hi)


class TestUnitBallVolume:
    def test_small_dims(self):
        assert 2 ** log2_unit_ball_volume(1) == pytest.approx(2.0, rel=1e-10)
        assert 2 ** log2_unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-10)
        assert 2 ** log2_unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-10)

    def test_stirling_consistency(self):
        # log2 C_d ~ -(d/2) log2(d / 2 pi e) - (1/2) log2(d pi)
        for d in range(8, 1025):
            approx = -0.5 * d * math.log2(d / (2 * math.pi * math.e)) - 0.5 * math.log2(d * math.pi)
            assert abs(log2_unit_ball_volume(d) - approx) <= 0.2

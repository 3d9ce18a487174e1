"""Special functions behind the redundancy formulas.

Internal math is carried in natural-log units; results measured in bits are
converted once at the API boundary.  Only the real-argument cases needed by the
bounds engine are covered (chi-square quantiles, log2 unit-ball volumes), with
the standard library alone: the chi-square quantile inverts the regularized
incomplete gamma function here, so that no process pays scipy's import (about
0.3 s and 20 MB).
"""

from __future__ import annotations

import functools
import math

LOG2E = 1.0 / math.log(2.0)

_EPS = 2.0 ** -52
_TINY = 1e-300
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Bernoulli coefficients B_2j / (2j (2j - 1)) of Stirling's series for lgamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)


def _log_prefactor(a: float, x: float) -> float:
    """ln(x^a e^-x / Gamma(a)), the factor shared by both incomplete-gamma tails.

    Past a = 10 the exponent is written as -a (x/a - 1 - ln(x/a)) plus
    Stirling's tail, so that no two large terms cancel (DiDonato and Morris,
    ACM TOMS 12, 1986): at a = 32640 the direct sum a ln x - x - lgamma(a)
    would lose about five digits.
    """
    if a < 10.0:
        return a * math.log(x) - x - math.lgamma(a)
    mu = (x - a) / a
    # log(x / a) once 1 + mu is small, where the rounded mu would lose it
    phi = mu - (math.log1p(mu) if mu > -0.5 else math.log(x / a))
    inv2 = 1.0 / (a * a)
    tail = 0.0
    for c in reversed(_STIRLING):
        tail = tail * inv2 + c
    return -a * phi + 0.5 * math.log(a) - _HALF_LOG_2PI - tail / a


def _log_tails(a: float, x: float) -> tuple[float, float, float]:
    """(ln P(a, x), ln Q(a, x), ln prefactor) for the regularized incomplete gamma.

    Below x = a + 1 the power series gives P and Q = 1 - P; above it the
    Legendre continued fraction (modified Lentz) gives Q and P = 1 - Q.  A
    complement near the switch loses at most the factor P/Q or Q/P of relative
    precision, at worst 11 (a = 1/2, x = 3/2).
    """
    ln_d = _log_prefactor(a, x)
    if x < a + 1.0:
        term = total = 1.0
        n = a
        while term > _EPS * total:
            n += 1.0
            term *= x / n
            total += term
        ln_p = ln_d + math.log(total / a)
        return ln_p, math.log1p(-math.exp(ln_p)), ln_d
    b = x + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            break
    ln_q = ln_d + math.log(h)
    return math.log1p(-math.exp(ln_q)), ln_q, ln_d


@functools.lru_cache(maxsize=256)
def chi2_quantile_upper(d: int, p_upper: float) -> float:
    """Point t with P(chi2_d > t) = p_upper: t = 2 Q^-1(d/2, p_upper).

    Parameterizing by the upper-tail mass keeps extreme tails well-posed:
    p_upper = 1e-40 is representable while 1 - 1e-40 rounds to 1.0.  Newton
    steps on the log of the smaller tail (Q for p_upper <= 1/2, else P, whose
    target 1 - p_upper is exact), kept inside a bracket, start from the
    Wilson-Hilferty guess.  Against 50-digit values the relative error stays
    below 2e-15 for d from 1 to 65,280 and p_upper from 1e-300 to 0.9, except
    near d = 1, p_upper = 0.1 (up to 4e-15); as p_upper nears 1 it grows by up
    to 2 eps |ln(1 - p_upper)| / d (6e-15 at d = 3, p_upper = 1 - 2^-53).
    scipy's chdtri errs by up to 2e-14 on the same checks.  Cached: every
    ellipsoid asks for the same few quantiles, and one evaluation costs
    20-700 us on a 2-core x86-64 host.
    """
    if d < 1:
        raise ValueError(f"chi2_quantile_upper requires d >= 1, got {d}")
    if not (0.0 < p_upper < 1.0):
        raise ValueError(f"upper-tail probability must lie in (0,1), got {p_upper}")
    a = 0.5 * d
    upper = p_upper <= 0.5
    target = math.log(p_upper if upper else 1.0 - p_upper)
    # normal deviate of the smaller tail (Abramowitz and Stegun 26.2.23)
    s = math.sqrt(-2.0 * target)
    z = s - (2.515517 + s * (0.802853 + s * 0.010328)) / (
        1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308)))
    base = 1.0 - 2.0 / (9.0 * d) + (z if upper else -z) * math.sqrt(2.0 / (9.0 * d))
    x = a * base ** 3 if base > 0.0 else 0.0
    if not upper:
        # P(a, x) <= x^a / Gamma(a + 1), so this root of the bound lies below t/2
        x = max(x, math.exp((target + math.lgamma(a + 1.0)) / a))
    lo, hi = 0.0, math.inf
    for _ in range(100):
        ln_p, ln_q, ln_d = _log_tails(a, x)
        ln_tail = ln_q if upper else ln_p
        f = ln_tail - target
        # Newton on ln(tail): its slope in x is -/+ prefactor / (x tail)
        step = f * x * math.exp(ln_tail - ln_d)
        nxt = x + step if upper else x - step
        if abs(nxt - x) <= 4.0 * _EPS * x:
            return 2.0 * nxt
        # Q falls and P rises as x grows
        if (f > 0.0) == upper:
            lo = x
        else:
            hi = x
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        x = nxt
    return 2.0 * x


def log2_unit_ball_volume(d: int) -> float:
    """log2 of the d-dimensional unit-ball volume pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return (0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)) * LOG2E

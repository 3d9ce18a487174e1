"""Special functions behind the redundancy formulas.

Internal math is carried in natural-log units; results measured in bits are
converted once at the API boundary.  Only the real-argument cases needed by the
bounds engine are covered (gamma tails, chi-square quantiles, log2 unit-ball
volumes).
"""

from __future__ import annotations

import math

from scipy.special import gammaincc, ndtri

LN2 = math.log(2.0)
LOG2E = 1.0 / LN2

_QUANTILE_MAX_ITER = 200


def reg_gamma_upper(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s).

    Q(s, 0) = 1 and Q decreases to 0 as x grows; this is the tail mass of a
    Gamma(s, 1) variable above x.
    """
    if s <= 0:
        raise ValueError(f"reg_gamma_upper requires s > 0, got s={s}")
    if x < 0:
        raise ValueError(f"reg_gamma_upper requires x >= 0, got x={x}")
    return float(gammaincc(s, x))


def _chi2_log_pdf(d: int, t: float) -> float:
    return (0.5 * d - 1.0) * math.log(t) - 0.5 * t - 0.5 * d * LN2 - math.lgamma(0.5 * d)


def chi2_quantile_upper(d: int, p_upper: float) -> float:
    """Point t with P(chi2_d > t) = p_upper.

    Parameterizing by the upper-tail mass keeps extreme tails well-posed:
    p_upper = 1e-40 is representable while 1 - 1e-40 rounds to 1.0.  Solved by
    a Wilson-Hilferty initial guess refined with a bracketed Newton/bisection
    hybrid on reg_gamma_upper(d/2, t/2) = p_upper.
    """
    if d < 1:
        raise ValueError(f"chi2_quantile_upper requires d >= 1, got {d}")
    if not (0.0 < p_upper < 1.0):
        raise ValueError(f"upper-tail probability must lie in (0,1), got {p_upper}")

    # Wilson-Hilferty: chi2_d is approximately d * N(1 - 2/(9d), 2/(9d))^3.
    z = -float(ndtri(p_upper))
    c = 2.0 / (9.0 * d)
    t = d * (1.0 - c + z * math.sqrt(c)) ** 3
    if t <= 0:
        t = 0.5 * d

    def tail(u: float) -> float:
        return reg_gamma_upper(0.5 * d, 0.5 * u) - p_upper

    # Bracket the root; tail() decreases from 1 - p_upper at 0 toward -p_upper.
    lo, hi = 0.0, t
    while tail(hi) > 0.0:
        lo, hi = hi, hi * 2.0 + 1.0

    for _ in range(_QUANTILE_MAX_ITER):
        f = tail(t)
        if f > 0.0:
            lo = t
        else:
            hi = t
        pdf = math.exp(_chi2_log_pdf(d, t)) if t > 0 else 0.0
        step_ok = False
        if pdf > 0.0:
            t_new = t + f / pdf  # tail'(t) = -pdf(t)
            if lo < t_new < hi:
                step_ok = True
        if not step_ok:
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 1e-14 * max(t, 1.0):
            t = t_new
            break
        t = t_new
    return t


def log2_unit_ball_volume(d: int) -> float:
    """log2 of the d-dimensional unit-ball volume pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return (0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)) * LOG2E

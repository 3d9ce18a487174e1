"""Special functions behind the redundancy formulas.

Internal math is carried in natural-log units; results measured in bits are
converted once at the API boundary.  Only the real-argument cases needed by the
bounds engine are covered (chi-square quantiles, log2 unit-ball volumes).
"""

from __future__ import annotations

import math

LOG2E = 1.0 / math.log(2.0)


def chi2_quantile_upper(d: int, p_upper: float) -> float:
    """Point t with P(chi2_d > t) = p_upper, from scipy's ``chdtri``.

    Parameterizing by the upper-tail mass keeps extreme tails well-posed:
    p_upper = 1e-40 is representable while 1 - 1e-40 rounds to 1.0.
    """
    if d < 1:
        raise ValueError(f"chi2_quantile_upper requires d >= 1, got {d}")
    if not (0.0 < p_upper < 1.0):
        raise ValueError(f"upper-tail probability must lie in (0,1), got {p_upper}")
    # imported here, not at load (~0.3 s, ~20 MB): only ducompm regions and exact bounds call this
    from scipy.special import chdtri

    return float(chdtri(d, p_upper))


def log2_unit_ball_volume(d: int) -> float:
    """log2 of the d-dimensional unit-ball volume pi^(d/2) / Gamma(d/2 + 1)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return (0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)) * LOG2E

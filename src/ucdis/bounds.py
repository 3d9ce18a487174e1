"""Closed-form redundancy engine for the three coding strategies.

Evaluates the leading-order average minimax redundancy of universal coding
without memory (ucomp), with a shared memory sequence (ucompm), and with
decoder-only memory at permissible error probability p_e (ducompm), plus the
ellipsoid geometry quantities (radius, penalty, probability measure) that the
distributed codec is built on.  O(1/n) and O(1/m) remainders carry no known
constants and are dropped everywhere; each breakdown records that in its
notes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .numerics import LOG2E, chi2_quantile_upper, log2_unit_ball_volume
from .sources import MARKOV1, SourceFamily, log_jeffreys_integral

# the paper's three strategies, in the order every table lists them
STRATEGIES = ("ucomp", "ucompm", "ducompm")
UCOMP, UCOMPM, DUCOMPM = STRATEGIES

_TWO_PI_E = 2.0 * math.pi * math.e


@dataclass(frozen=True)
class RedundancyBreakdown:
    """Total redundancy in bits with its named additive terms.

    ``rate`` is total_bits / n (bits per symbol).  ``terms`` always sum to
    ``total_bits``; ``notes`` document dropped remainders and approximations.
    """

    strategy: str
    d: int
    n: int
    m: int | None
    p_e: float
    terms: dict[str, float]
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def total_bits(self) -> float:
        return math.fsum(self.terms.values())

    @property
    def rate(self) -> float:
        return self.total_bits / self.n


def _check_mode(mode: str):
    if mode not in ("approx", "exact"):
        raise ValueError(f"mode must be 'approx' or 'exact', got {mode!r}")


def _check_finite(name: str, value):
    # n and m enter the formulas as floats, and the rate divides by n
    try:
        if math.isfinite(value):
            return
    except OverflowError:
        pass
    raise ValueError(f"{name} must convert to a finite float")


_OMITTED_N = "O(1/n) remainder omitted"
_OMITTED_NM = "O(1/m + 1/n) remainder omitted"
_MARKOV_NOTE = "markov1 Jeffreys integral uses the per-row factorization approximation"


def redundancy_ucomp(family: SourceFamily, n: int) -> RedundancyBreakdown:
    """(d/2) log2(n / 2 pi e) + log2 integral sqrt(det I), to O(1/n)."""
    if n < 2:
        raise ValueError(f"redundancy_ucomp requires n >= 2, got {n}")
    _check_finite("n", n)
    d = family.d
    notes = [_OMITTED_N]
    if family.kind == MARKOV1:
        notes.append(_MARKOV_NOTE)
    return RedundancyBreakdown(
        strategy=UCOMP,
        d=d,
        n=n,
        m=None,
        p_e=0.0,
        terms={
            "leading": 0.5 * d * math.log2(n / _TWO_PI_E),
            "jeffreys_integral": log_jeffreys_integral(family),
        },
        notes=tuple(notes),
    )


def redundancy_ucompm(d: int, n: int, m: int) -> RedundancyBreakdown:
    """(d/2) log2(1 + n/m), to O(1/m + 1/n); vanishes as the memory grows."""
    if n < 1 or m < 1:
        raise ValueError(f"redundancy_ucompm requires n, m >= 1, got n={n}, m={m}")
    _check_finite("n", n)
    return RedundancyBreakdown(
        strategy=UCOMPM,
        d=d,
        n=n,
        m=m,
        p_e=0.0,
        terms={"leading": 0.5 * d * math.log2(1.0 + n / m)},
        notes=(_OMITTED_NM,),
    )


def capacity_difference_check(family: SourceFamily, n: int, m: int) -> float:
    """redundancy_ucomp(n + m) - redundancy_ucomp(m), in bits.

    Cross-check for redundancy_ucompm: the Jeffreys terms cancel, leaving
    (d/2) log2((n + m)/m) exactly.
    """
    if m < 2:
        raise ValueError(f"capacity_difference_check requires m >= 2, got {m}")
    _check_finite("m", m)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return 0.0
    return redundancy_ucomp(family, n + m).total_bits - redundancy_ucomp(family, m).total_bits


def delta_d(d: int, p_e: float) -> float:
    """Ellipsoid radius in bits: (log2 e / 2) times the chi-square_d quantile at 1 - p_e.

    For d = 2 this is exactly log2(1/p_e); for small p_e it reproduces the
    approximation (d/2) log2 e + log2(1/p_e).
    """
    if not (0.0 < p_e < 1.0):
        raise ValueError(f"p_e must lie in (0,1), got {p_e}")
    return 0.5 * LOG2E * chi2_quantile_upper(d, p_e)


def delta_approx(d: int, p_e: float) -> float:
    """Closed-form radius approximation (d/2) log2 e + log2(1/p_e), in bits."""
    if not (0.0 < p_e <= 1.0):
        raise ValueError(f"p_e must lie in (0,1], got {p_e}")
    return 0.5 * d * LOG2E + math.log2(1.0 / p_e)


def penalty_approx(d: int, p_e: float) -> float:
    """Penalty for non-communicating encoders: (d/2) log2(1 + 2 log2(1/p_e) / (d log2 e)).

    Zero at p_e = 1, and approximately log2(1/p_e) whenever log2(1/p_e) << d.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not (0.0 < p_e <= 1.0):
        raise ValueError(f"p_e must lie in (0,1], got {p_e}")
    return 0.5 * d * math.log2(1.0 + (2.0 / (d * LOG2E)) * math.log2(1.0 / p_e))


def penalty_exact(d: int, p_e: float) -> float:
    """Penalty with the exact radius: (d/2) log2(2 delta_d(p_e) / (d log2 e)).

    Substituting the approximate radius recovers penalty_approx identically;
    at large d the exact value exceeds it (the chi-square quantile carries a
    sqrt(d) fluctuation term the approximation drops).
    """
    return 0.5 * d * math.log2(2.0 * delta_d(d, p_e) / (d * LOG2E))


def redundancy_ducompm(
    family: SourceFamily, n: int, m: int, p_e: float, mode: str = "approx"
) -> RedundancyBreakdown:
    """Upper bound redundancy_ucompm + penalty; p_e = 0 degenerates to ucomp.

    ``mode`` selects penalty_approx ("approx") or penalty_exact ("exact").
    """
    _check_mode(mode)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not (0.0 <= p_e <= 1.0):
        raise ValueError(f"p_e must lie in [0,1], got {p_e}")
    d = family.d
    if p_e == 0.0:
        base = redundancy_ucomp(family, n)
        return RedundancyBreakdown(
            strategy=DUCOMPM,
            d=d,
            n=n,
            m=m,
            p_e=0.0,
            terms=dict(base.terms),
            notes=base.notes
            + ("strictly lossless decoder-side memory gives no benefit; ucomp value returned",),
        )
    base = redundancy_ucompm(d, n, m)
    penalty = penalty_approx(d, p_e) if mode == "approx" else penalty_exact(d, p_e)
    notes = [_OMITTED_NM, f"penalty mode={mode}"]
    if family.kind == MARKOV1:
        notes.append(_MARKOV_NOTE)
    return RedundancyBreakdown(
        strategy=DUCOMPM,
        d=d,
        n=n,
        m=m,
        p_e=p_e,
        terms={"leading": base.terms["leading"], "penalty": penalty},
        notes=tuple(notes),
    )


def redundancy(
    strategy: str, family: SourceFamily, n: int, m: int | None = None,
    p_e: float = 0.0, mode: str = "approx",
) -> RedundancyBreakdown:
    """The bound of ``strategy``, one of STRATEGIES: ucomp reads neither m
    nor p_e, ucompm needs m, ducompm needs m and reads p_e and ``mode``."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == UCOMP:
        return redundancy_ucomp(family, n)
    if m is None:
        raise ValueError(f"{strategy} requires the memory length m")
    if strategy == UCOMPM:
        return redundancy_ucompm(family.d, n, m)
    return redundancy_ducompm(family, n, m, p_e, mode)


def ellipsoid_measure(
    family: SourceFamily, n: int, m: int, p_e: float, mode: str = "exact"
) -> float:
    """Jeffreys-prior mass of one decoding ellipsoid.

    C_d / integral sqrt(det I) * (2 delta / (r log2 e))^(d/2) with
    r = n m / (n + m), evaluated in the log domain.  The formula is
    asymptotic; values above 1 are returned with a warning.
    """
    _check_mode(mode)
    if n < 1 or m < 1:
        raise ValueError(f"ellipsoid_measure requires n, m >= 1, got n={n}, m={m}")
    _check_finite("n", n)
    _check_finite("m", m)
    d = family.d
    delta = delta_d(d, p_e) if mode == "exact" else delta_approx(d, p_e)
    r = n * m / (n + m)
    arg = 2.0 * delta / (r * LOG2E)
    if arg <= 0.0:
        raise ValueError("ellipsoid measure outside the formula regime (nonpositive volume factor)")
    log2_ps = (
        log2_unit_ball_volume(d)
        - log_jeffreys_integral(family)
        + 0.5 * d * math.log2(arg)
    )
    ps = 2.0**log2_ps
    if ps > 1.0:
        warnings.warn(
            f"ellipsoid measure {ps:.4g} exceeds 1; the asymptotic formula is out of regime",
            stacklevel=2,
        )
    return ps


@dataclass(frozen=True)
class FigureTable:
    """Redundancy-rate curves over a log-spaced grid of sequence lengths."""

    name: str
    mode: str
    family: SourceFamily
    m: int
    ns: tuple[int, ...]
    # column name -> rate per n, ordered as in the CSV schema
    columns: dict[str, tuple[float, ...]]

    def to_csv(self) -> str:
        lines = [f"# mode={self.mode}", ",".join(["n", *self.columns])]
        for i, n in enumerate(self.ns):
            vals = [format(col[i], ".6g") for col in self.columns.values()]
            lines.append(f"{n}," + ",".join(vals))
        return "\n".join(lines) + "\n"


_PRESETS = {
    # memoryless bytes, 32 kB memory, n from 512 B to 256 kB
    "fig2": (SourceFamily("memoryless", 256), 32 * 1024, 512),
    # first-order Markov bytes, 16 MB memory, n from 128 kB to 64 MB
    "fig3": (SourceFamily(MARKOV1, 256), 16 * 1024 * 1024, 128 * 1024),
}


def figure_preset(name: str, mode: str = "approx") -> FigureTable:
    """Four-curve redundancy-rate table over ten octaves of n."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(_PRESETS)}")
    _check_mode(mode)
    family, m, n0 = _PRESETS[name]
    ns = tuple(n0 * 2**j for j in range(10))
    d = family.d
    cols: dict[str, list[float]] = {
        "ucomp": [],
        "ducompm_pe1e-40": [],
        "ducompm_pe1e-6": [],
        "ucompm": [],
    }
    for n in ns:
        cols["ucomp"].append(redundancy_ucomp(family, n).rate)
        cols["ducompm_pe1e-40"].append(redundancy_ducompm(family, n, m, 1e-40, mode).rate)
        cols["ducompm_pe1e-6"].append(redundancy_ducompm(family, n, m, 1e-6, mode).rate)
        cols["ucompm"].append(redundancy_ucompm(d, n, m).rate)
    return FigureTable(
        name=name,
        mode=mode,
        family=family,
        m=m,
        ns=ns,
        columns={k: tuple(v) for k, v in cols.items()},
    )

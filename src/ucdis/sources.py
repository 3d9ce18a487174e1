"""Parametric source families: sampling, estimation, information geometry.

Two families are supported: memoryless categorical sources over an alphabet of
size k (parameter dimension d = k - 1) and first-order Markov chains
(d = k * (k - 1)).  Parameter vectors are numpy arrays: a length-k probability
vector for memoryless sources, a k-by-k row-stochastic matrix for Markov ones.
All entropies and redundancies are measured in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import LOG2E
from .rng import generator, split_seed

MEMORYLESS = "memoryless"
MARKOV1 = "markov1"

_ROW_SUM_TOL = 1e-12


class BoundaryThetaError(ValueError):
    """Raised when an operation needs an interior parameter vector.

    Fisher information (and the ellipsoid geometry built on it) is singular on
    the simplex boundary; callers holding boundary ML estimates should use
    ``smoothed_estimate`` instead.
    """


@dataclass(frozen=True)
class SourceFamily:
    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in (MEMORYLESS, MARKOV1):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.k < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.k}")

    @property
    def d(self) -> int:
        """Free parameter dimension: k - 1, or k*(k-1) for Markov chains."""
        if self.kind == MEMORYLESS:
            return self.k - 1
        return self.k * (self.k - 1)


def memoryless(k: int) -> SourceFamily:
    return SourceFamily(MEMORYLESS, k)


def markov1(k: int) -> SourceFamily:
    return SourceFamily(MARKOV1, k)


def validate_theta(family: SourceFamily, theta) -> np.ndarray:
    """Check shape, finiteness, nonnegativity and row sums; returns theta as an array."""
    theta = np.asarray(theta, dtype=np.float64)
    expected = (family.k,) if family.kind == MEMORYLESS else (family.k, family.k)
    if theta.shape != expected:
        raise ValueError(f"theta shape {theta.shape} does not match family {expected}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta entries must be finite")
    if np.any(theta < 0):
        raise ValueError("theta entries must be nonnegative")
    sums = theta.sum() if theta.ndim == 1 else theta.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
        raise ValueError(f"probability rows must sum to 1 within {_ROW_SUM_TOL}")
    return theta


def _finite_integers(x: np.ndarray, what: str) -> np.ndarray:
    """x as float64 once every value is checked to be a finite integer:
    2.0 passes, and 0.5, NaN, inf, integers beyond a float, strings and None
    raise ``ValueError`` naming ``what``."""
    try:
        f = x.astype(np.float64) if x.dtype.kind in "fO" else None
    except (TypeError, ValueError, OverflowError):
        f = None
    if f is None or not (np.isfinite(f).all() and (f == np.floor(f)).all()):
        raise ValueError(f"{what} must be finite integers")
    return f


def _validate_sequence(x, k: int) -> np.ndarray:
    """x as a one-dimensional int64 array of symbols in [0, k).

    Integer arrays are only range-checked; other values must be finite
    integers (2.0 passes; 0.5, NaN and inf raise ``ValueError`` where a cast
    would truncate them or overflow)."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("sequence must be one-dimensional")
    if x.dtype.kind not in "biu" and x.size:
        # out-of-range values stay out of range, and castable
        x = np.clip(_finite_integers(x, "sequence symbols"), -1, k)
    x = x.astype(np.int64, copy=False)
    if x.size and (x.min() < 0 or x.max() >= k):
        raise ValueError(f"sequence symbols must lie in [0, {k})")
    return x


def _validate_counts(family: SourceFamily, counts) -> np.ndarray:
    """counts as the (contexts, k) int64 array ``context_counts`` returns:
    nonnegative integers, checked as ``_validate_sequence`` checks symbols,
    whose total fits int64, so that every sum over them is exact."""
    c = np.asarray(counts)
    shape = (1 if family.kind == MEMORYLESS else family.k, family.k)
    if c.shape != shape:
        raise ValueError(f"counts shape {c.shape} does not match family {shape}")
    if c.dtype.kind not in "biu":
        c = _finite_integers(c, "counts")
    if c.min() < 0 or (c.max() >= 2**63 // c.size and sum(map(int, c.flat)) >= 2**63):
        raise ValueError("counts must be nonnegative and total below 2**63")
    return c.astype(np.int64, copy=False)


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix.

    Solves pi P = pi, sum(pi) = 1 by a rank-completed linear system.  When the
    chain is not irreducible (the system is singular or produces an invalid
    vector) the uniform distribution is returned as the documented fallback.
    """
    k = transition.shape[0]
    a = np.vstack([transition.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    try:
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError:
        return np.full(k, 1.0 / k)
    if np.any(pi < -1e-9) or abs(pi.sum() - 1.0) > 1e-6 or np.max(np.abs(pi @ transition - pi)) > 1e-6:
        return np.full(k, 1.0 / k)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def sample_sequence(family: SourceFamily, theta, n: int, seed: int) -> np.ndarray:
    """Draw a length-n sequence; identical (family, theta, n, seed) give identical output."""
    theta = validate_theta(family, theta)
    if n < 0:
        raise ValueError(f"length must be nonnegative, got {n}")
    g = generator(seed)
    if family.kind == MEMORYLESS:
        u = g.random(n)
        cum = np.cumsum(theta)
        return np.minimum(np.searchsorted(cum, u, side="right"), family.k - 1).astype(np.int64)
    # Markov chain: initial state from the stationary distribution, then
    # inverse-CDF steps against per-row cumulative sums.
    pi = stationary_distribution(theta)
    cum_rows = np.cumsum(theta, axis=1)
    u = g.random(n + 1)
    out = np.empty(n, dtype=np.int64)
    state = int(np.minimum(np.searchsorted(np.cumsum(pi), u[0], side="right"), family.k - 1))
    for i in range(n):
        state = int(np.minimum(np.searchsorted(cum_rows[state], u[i + 1], side="right"), family.k - 1))
        out[i] = state
    return out


def _entropy_bits(p: np.ndarray) -> float:
    mask = p > 0
    return float(-(p[mask] * np.log2(p[mask])).sum())


def entropy_rate(family: SourceFamily, theta) -> float:
    """Entropy in bits per symbol; the length-n sequence entropy is n times this."""
    theta = validate_theta(family, theta)
    if family.kind == MEMORYLESS:
        return _entropy_bits(theta)
    pi = stationary_distribution(theta)
    return float(sum(pi[s] * _entropy_bits(theta[s]) for s in range(family.k)))


def context_counts(family: SourceFamily, seq) -> np.ndarray:
    """Symbol counts per context as a (contexts, k) int64 array.

    Memoryless sequences give one row.  Markov chains count each symbol in
    the row of the symbol before it, the first symbol in row 0, so that every
    symbol is counted once: the coder's convention.
    """
    k = family.k
    seq = _validate_sequence(seq, k)
    if family.kind == MEMORYLESS:
        return np.bincount(seq, minlength=k).reshape(1, k)
    prev = np.concatenate(([0], seq))[:-1]
    return np.bincount(prev * k + seq, minlength=k * k).reshape(k, k)


def smoothed_estimate(family: SourceFamily, counts) -> np.ndarray:
    """Posterior-mean estimate (c + 1/2) / (n + k/2) per row of ``counts``;
    strictly interior, n = 0 allowed."""
    counts = _validate_counts(family, counts)
    out = (counts + 0.5) / (counts.sum(axis=1, keepdims=True) + 0.5 * family.k)
    return out[0] if family.kind == MEMORYLESS else out


def _fisher_simplex(theta_row: np.ndarray) -> np.ndarray:
    # Free coordinates theta_1..theta_{k-1}; I_ij = delta_ij/theta_i + 1/theta_k.
    if np.any(theta_row <= 0):
        raise BoundaryThetaError(
            "Fisher information is singular at the simplex boundary; "
            "use smoothed_estimate for an interior surrogate"
        )
    free = theta_row[:-1]
    return np.diag(1.0 / free) + 1.0 / theta_row[-1]


def fisher_info(family: SourceFamily, theta) -> np.ndarray:
    """Per-symbol Fisher information matrix in natural-log units.

    Memoryless: the (k-1)x(k-1) simplex matrix with det = 1/prod(theta).
    Markov: block-diagonal per-row simplex matrices weighted by the stationary
    probabilities (an approximation; flagged in downstream outputs).
    """
    theta = validate_theta(family, theta)
    if family.kind == MEMORYLESS:
        return _fisher_simplex(theta)
    k = family.k
    pi = stationary_distribution(theta)
    blocks = np.zeros((family.d, family.d))
    for s in range(k):
        block = pi[s] * _fisher_simplex(theta[s])
        i0 = s * (k - 1)
        blocks[i0 : i0 + k - 1, i0 : i0 + k - 1] = block
    return blocks


def log_jeffreys_integral(family: SourceFamily) -> float:
    """log2 of the integral of sqrt(det I(theta)) over the parameter space.

    Memoryless: log2(Gamma(1/2)^k / Gamma(k/2)), the Dirichlet(1/2) normalizer.
    Markov: k times the single-row value (per-row factorization approximation).
    """
    k = family.k
    row = (0.5 * k * math.log(math.pi) - math.lgamma(0.5 * k)) * LOG2E
    if family.kind == MEMORYLESS:
        return row
    return k * row


def sample_jeffreys(family: SourceFamily, seed: int) -> np.ndarray:
    """Draw theta from the Jeffreys prior: Dirichlet(1/2, ..., 1/2) per row."""
    g = generator(seed)
    k = family.k

    def draw_row(gen):
        v = gen.standard_gamma(0.5, size=k)
        v = np.maximum(v, 1e-300)  # keep draws strictly interior
        return v / v.sum()

    if family.kind == MEMORYLESS:
        return draw_row(g)
    return np.vstack([draw_row(generator(split_seed(seed, s))) for s in range(k)])

"""Concatenation-level arithmetic: the strength renormalization map, its
threshold fixed point, double-exponential suppression, required coding level,
overhead scaling, and a pseudothreshold locator on one coupled MC sample."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .gadgets import _check_budget, level1_failure_exact

MAX_LEVEL = 64
BISECTION_TOL = 1e-8
_Z95 = 1.959963984540054  # two-sided 95% quantile of the standard normal


@dataclass(frozen=True)
class SchemeParams:
    """Fault-tolerance scheme constants: locations per (largest) gadget L0,
    tolerated fault count t and prefactor xi >= 1."""

    L0: int
    t: int
    xi: float = math.e

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if self.L0 <= self.t:
            raise ValueError("L0 must exceed t")
        if self.xi < 1.0:
            raise ValueError("xi must be >= 1")

    @property
    def combinations(self) -> int:
        return math.comb(self.L0, self.t + 1)


def renormalize_strength(eps_prev: float, p: SchemeParams) -> float:
    """One level of coding: eps -> xi * C(L0, t+1) * eps^(t+1).

    Saturates to inf instead of raising when the input is already blown up,
    matching strength_at_level's behaviour far above threshold.
    """
    if eps_prev < 0:
        raise ValueError("strength must be >= 0")
    try:
        return p.xi * p.combinations * eps_prev ** (p.t + 1)
    except OverflowError:
        return math.inf


def _log_comb(n: int, k: int) -> float:
    """log C(n, k) by Stirling's series for log n! - log m!, m = n - min(k, n - k),
    arranged so that nothing cancels when n >> k, where lgamma(n + 1) - lgamma(m + 1)
    loses every digit; within a few ulps once m >= 64, as for any C of over 2^16 bits."""
    k = min(k, n - k)
    m = n - k
    tail = lambda x: (1.0 - 1.0 / (30.0 * x * x)) / (12.0 * x)  # Stirling's 1/x and 1/x^3 terms
    return ((m + 0.5) * math.log1p(k / m) + k * math.log(n) - k + tail(float(n)) - tail(float(m))
            - math.lgamma(k + 1))


def threshold_value(p: SchemeParams) -> float:
    """Fixed point (xi * C(L0, t+1))^(-1/t) of the renormalization map; C is
    exact, and computed once, unless it has more than 2^16 bits (an exact C of
    10^7 bits takes seconds): its log then comes from `_log_comb`."""
    log_c = _log_comb(p.L0, p.t + 1)
    if log_c <= 2**16 * math.log(2):
        c = p.combinations
        try:
            return (p.xi * c) ** (-1.0 / p.t)
        except OverflowError:  # the product overflows a float: take it in log space
            log_c = math.log(c)
    return math.exp(-(math.log(p.xi) + log_c) / p.t)


def strength_at_level(eps: float, k: int, p: SchemeParams) -> float:
    """Closed form eps0 * (eps/eps0)^((t+1)^k) for k coding levels.

    Equals the k-fold composition of renormalize_strength; evaluated in log
    space so deep levels underflow cleanly to 0 (or overflow to inf above
    threshold) instead of raising.
    """
    if eps < 0:
        raise ValueError("strength must be >= 0")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return float(eps)
    if eps == 0.0:
        return 0.0
    eps0 = threshold_value(p)
    log_val = math.log(eps0) + (p.t + 1) ** k * math.log(eps / eps0)
    try:
        return math.exp(log_val)
    except OverflowError:
        return math.inf


def required_level(L: int, delta0: float, eps: float, p: SchemeParams) -> int:
    """Smallest k with (e-1) * L * strength_at_level(eps, k) <= delta0.

    Found by direct scan (cap 64 levels) to avoid rounding ambiguity at the
    boundary; the log form of the same inequality is re-checked on the
    answer as a consistency check that raises RuntimeError.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if not 0.0 < delta0 < 1.0:
        raise ValueError("delta0 must lie in (0, 1)")
    if eps < 0:
        raise ValueError("strength must be >= 0")
    eps0 = threshold_value(p)
    if eps > 0 and eps >= eps0:
        raise ValueError(
            f"strength {eps} is not below the threshold {eps0}; no finite "
            "coding level reaches the target"
        )
    k = next(
        (
            k
            for k in range(MAX_LEVEL + 1)
            if (math.e - 1.0) * L * strength_at_level(eps, k, p) <= delta0
        ),
        None,
    )
    if k is None:
        raise ValueError(f"target not reached within {MAX_LEVEL} coding levels")
    if k > 0 and eps > 0:
        # log form: smallest k with (t+1)^k >= log((e-1) L eps0 / delta0) / log(eps0/eps)
        ratio = math.log((math.e - 1.0) * L * eps0 / delta0) / math.log(eps0 / eps)
        if (p.t + 1) ** k < ratio * (1.0 - 1e-9):
            raise RuntimeError("level scan disagrees with log form")
        if (p.t + 1) ** (k - 1) >= ratio * (1.0 + 1e-9):
            raise RuntimeError("level scan is not minimal")
    return k


def overhead_ratio(L: int, k: int, p: SchemeParams) -> tuple[float, float]:
    """Per-location blowup L0^k of k coding levels and the exponent
    a = log(L0)/log(t+1) that turns it into a polylog overhead in L. A
    blowup beyond float range is refused with a ValueError naming L0."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    try:
        ratio = float(p.L0) ** k
    except OverflowError:
        raise ValueError(f"overhead L0^{k} = {p.L0:.6g}^{k} overflows a float") from None
    return ratio, math.log(p.L0) / math.log(p.t + 1)


def _crossing(f, lo: float, hi: float) -> tuple[float, tuple[float, float]]:
    """Midpoint and final bracket of the bisection of the sign of f(eps) - eps
    on (lo, hi) down to BISECTION_TOL: hi moves down where f(eps) > eps."""
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) - mid > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), (lo, hi)


def pseudothreshold_mc(
    p: SchemeParams,
    samples: int,
    seed,
    mode: str = "exact",
) -> tuple[float, tuple[float, float]]:
    """Crossing point of the level-1 failure probability with eps itself.

    Bisection on the sign of P[fail](eps) - eps over (0, 0.5) to 1e-8.
    mode="exact" evaluates the binomial tail exactly, returns the final
    bracket as the interval and ignores `samples`. mode="mc" draws once, for
    `samples` (>= 1000) blocks of L0 uniform leaves, the (t+1)-th smallest
    leaf U ~ Beta(t+1, L0-t); a block fails at eps iff U < eps, so the share
    F_S(eps) of draws below eps estimates the tail at every eps, monotonely.
    The 95% interval holds the eps the score test accepts: |F_S(eps) - eps| <=
    z sqrt(eps (1-eps) / S). Each probe scans the sample and counts against MC_BUDGET.
    """
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "mc" and samples < 1000:
        raise ValueError("samples must be >= 1000")
    lo, hi = 1e-12, 0.5
    if mode == "mc":  # one probe per halving, each scanning the whole sample
        _check_budget(samples, p.L0, math.ceil(math.log2((hi - lo) / BISECTION_TOL)))
    tail = partial(level1_failure_exact, p.L0, p.t)
    if not (tail(lo) < lo and tail(hi) > hi):
        raise ValueError("level-1 failure never crosses eps on (0, 0.5); degenerate parameters")
    if mode == "exact":
        return _crossing(tail, lo, hi)
    u = np.random.default_rng(seed).beta(p.t + 1, p.L0 - p.t, samples)

    def share(eps: float, z: float) -> float:  # F_S(eps) + z standard errors at eps
        return np.count_nonzero(u < eps) / samples + z * math.sqrt(eps * (1 - eps) / samples)

    crossing, low, high = (_crossing(partial(share, z=z), lo, hi)[0] for z in (0.0, _Z95, -_Z95))
    return crossing, (low, high)


@dataclass(frozen=True)
class ThresholdReport:
    """Bundle of the closed-form level analysis for one (L, delta0, eps)."""

    eps0: float
    per_level: tuple[float, ...]
    k_required: int
    overhead_ratio: float
    exponent_a: float

    def rows(self) -> list[dict]:
        """One flat record per level (CSV-friendly)."""
        return [
            {
                "level": l,
                "strength": s,
                "eps0": self.eps0,
                "k_required": self.k_required,
                "overhead_ratio": self.overhead_ratio,
                "exponent_a": self.exponent_a,
            }
            for l, s in enumerate(self.per_level)
        ]


def threshold_report(L: int, delta0: float, eps: float, p: SchemeParams) -> ThresholdReport:
    """Run the full level analysis for one operating point."""
    k = required_level(L, delta0, eps, p)
    ratio, a = overhead_ratio(L, k, p)
    return ThresholdReport(
        eps0=threshold_value(p),
        per_level=tuple(strength_at_level(eps, l, p) for l in range(k + 1)),
        k_required=k,
        overhead_ratio=ratio,
        exponent_a=a,
    )

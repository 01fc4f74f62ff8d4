"""Statistics helpers for multi-seed experiments.

Single-run numbers are deterministic given a seed, but claims like
"the fallback commits with probability ≥ 2/3" are statistical: the benches
repeat runs over seeds and report means with confidence intervals.  The two
quantiles they need come from the standard library: the normal one from
:class:`statistics.NormalDist`, the Student-t one by bisection on the
t distribution's tail, written through the regularized incomplete beta
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    result = d
    for m in range(1, 400):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            result *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return result


def _regularized_beta(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b), the regularized incomplete beta function, for 0 <= x <= 1.

    ``y`` is ``1 - x``, passed in so that neither is rounded near 0 or 1.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, y) / b


def _t_upper_tail(t: float, df: int) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom, t >= 0."""
    square = t * t
    total = df + square
    return 0.5 * _regularized_beta(df / 2.0, 0.5, df / total, square / total)


def t_quantile(p: float, df: int) -> float:
    """Inverse CDF of Student's t with ``df`` degrees of freedom."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    # By symmetry the quantile is +-t where P(T > t) is the smaller tail.
    sign, target = (1.0, 1.0 - p) if p >= 0.5 else (-1.0, p)
    low, high = 0.0, 1.0
    while _t_upper_tail(high, df) > target:
        low, high = high, 2.0 * high
    # Halve [low, high] until no float lies strictly between them.
    while True:
        middle = (low + high) / 2.0
        if middle in (low, high):
            return sign * middle
        if _t_upper_tail(middle, df) > target:
            low = middle
        else:
            high = middle


@dataclass(frozen=True)
class Estimate:
    """A mean with a symmetric confidence interval."""

    mean: float
    low: float
    high: float
    confidence: float
    samples: int

    def __str__(self) -> str:
        return (
            f"{self.mean:.3f} "
            f"[{self.low:.3f}, {self.high:.3f}] "
            f"@{self.confidence:.0%} (n={self.samples})"
        )

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> Estimate:
    """Student-t confidence interval for the mean of ``values``."""
    if not values:
        raise ValueError("need at least one sample")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return Estimate(mean=mean, low=mean, high=mean, confidence=confidence, samples=1)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    sem = math.sqrt(variance / n)
    if sem == 0:
        return Estimate(mean=mean, low=mean, high=mean, confidence=confidence, samples=n)
    half_width = t_quantile((1 + confidence) / 2, n - 1) * sem
    return Estimate(
        mean=mean,
        low=mean - half_width,
        high=mean + half_width,
        confidence=confidence,
        samples=n,
    )


def proportion_ci(successes: int, trials: int, confidence: float = 0.95) -> Estimate:
    """Wilson score interval for a binomial proportion.

    Used for Lemma 7's per-fallback commit probability: robust at small
    sample sizes where the normal approximation misbehaves.
    """
    if trials <= 0:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    z = NormalDist().inv_cdf((1 + confidence) / 2)
    phat = successes / trials
    denominator = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    # In exact arithmetic the Wilson interval always contains phat (it
    # equals the bound exactly at 0/n and n/n); clamp away float noise.
    low = min(max(0.0, center - margin), phat)
    high = max(min(1.0, center + margin), phat)
    return Estimate(
        mean=phat,
        low=low,
        high=high,
        confidence=confidence,
        samples=trials,
    )

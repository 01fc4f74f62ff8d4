"""Communication-complexity analysis: per-decision costs and scaling fits.

Theorem 9 claims O(n) messages per decision under synchrony with honest
leaders and O(n²) under asynchrony.  ``fit_loglog_slope`` turns a sweep of
(n, cost) points into the empirical exponent: slope ≈ 1 means linear,
slope ≈ 2 quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.runtime.metrics import MetricsCollector


@dataclass
class DecisionCosts:
    """Per-decision communication cost extracted from one run."""

    decisions: int
    messages_per_decision: Optional[float]
    bytes_per_decision: Optional[float]
    steady_messages: int
    view_change_messages: int

    @property
    def live(self) -> bool:
        return self.decisions > 0


def per_decision_costs(metrics: MetricsCollector) -> DecisionCosts:
    phases = metrics.phase_messages()
    return DecisionCosts(
        decisions=metrics.decisions(),
        messages_per_decision=metrics.messages_per_decision(),
        bytes_per_decision=metrics.bytes_per_decision(),
        steady_messages=phases["steady"],
        view_change_messages=phases["view_change"],
    )


def live_decision_costs(metrics: MetricsCollector) -> DecisionCosts:
    """Per-decision costs from a live run, validated against real bytes.

    Live-mode metrics bill every honest send at its true codec-encoded
    frame size (``MetricsCollector.on_wire_send``), so ``honest_bytes``
    must equal ``encoded_bytes`` exactly — a divergence means some path
    still billed modeled estimates, which would silently mix the two
    accounting regimes in one figure.
    """
    if metrics.encoded_bytes != metrics.honest_bytes:
        raise ValueError(
            f"live metrics mix real and modeled bytes: encoded="
            f"{metrics.encoded_bytes} vs honest={metrics.honest_bytes}"
        )
    return per_decision_costs(metrics)


def fit_loglog_slope(ns: Sequence[int], costs: Sequence[float]) -> float:
    """Least-squares slope of log(cost) vs log(n).

    Requires at least two points with positive cost; raises ValueError
    otherwise (a protocol with zero decisions has no per-decision cost —
    report liveness separately instead of feeding it here).
    """
    points = [
        (n, cost)
        for n, cost in zip(ns, costs)
        if cost is not None and cost > 0
    ]
    if len(points) < 2:
        raise ValueError("need at least two positive-cost points to fit a slope")
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(cost) for _, cost in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    covariance = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    variance = sum((x - mean_x) ** 2 for x in xs)
    return covariance / variance


def classify_complexity(slope: float, tolerance: float = 0.35) -> str:
    """Human label for a fitted exponent: 'linear', 'quadratic', or raw."""
    if abs(slope - 1.0) <= tolerance:
        return "linear"
    if abs(slope - 2.0) <= tolerance:
        return "quadratic"
    return f"~n^{slope:.2f}"


#: Table 1's claimed asymptotic message complexity per decision, as an
#: exponent of n.  The steady path is linear (leader collects votes, one
#: proposal + n votes per decision); the fallback is quadratic (every
#: replica drives its own leaderless chain, all-to-all per view).
TABLE1_EXPONENTS = {
    "steady": 1.0,
    "fallback": 2.0,
}


@dataclass
class ScalingFit:
    """A fitted scaling exponent for one regime/metric, vs the paper."""

    regime: str  # "steady" | "fallback"
    metric: str  # "messages" | "bytes"
    ns: tuple[int, ...]
    costs: tuple[float, ...]
    slope: float
    claimed: Optional[float]

    @property
    def label(self) -> str:
        return classify_complexity(self.slope)

    def matches_claim(self, tolerance: float = 0.5) -> bool:
        """Does the measured exponent agree with Table 1?

        ``bytes`` fits get no claim (the paper states message complexity);
        they always "match".  The tolerance is loose by design: small-n
        sweeps carry constant-factor contamination (the +1 in n+1 messages
        matters at n=4), so this guards regressions, not decimals.
        """
        if self.claimed is None:
            return True
        return abs(self.slope - self.claimed) <= tolerance


def fit_sweep(
    regime: str, metric: str, ns: Sequence[int], costs: Sequence[float]
) -> ScalingFit:
    """Fit one sweep's scaling exponent and pair it with Table 1's claim."""
    claimed = TABLE1_EXPONENTS.get(regime) if metric == "messages" else None
    return ScalingFit(
        regime=regime,
        metric=metric,
        ns=tuple(ns),
        costs=tuple(costs),
        slope=fit_loglog_slope(ns, costs),
        claimed=claimed,
    )

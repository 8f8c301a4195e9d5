"""Small statistics helpers (implemented from scratch).

Linear regression backs the Fig 3 claim ("degradation linearly increases
with the disruptor's computing power") with a quantitative R²; the
confidence-interval helper summarises repeated measurements in the
examples and experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class LinearFit:
    """Ordinary-least-squares fit of y = slope * x + intercept."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """OLS fit with the coefficient of determination.

    Raises on degenerate input (fewer than two points, or zero variance
    in x).  A constant-y series fits perfectly with slope 0.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points to fit a line")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("x values are all identical; slope undefined")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_total = sum((y - mean_y) ** 2 for y in ys)
    if ss_total == 0:
        r_squared = 1.0  # constant y: the flat line explains everything
    else:
        ss_residual = sum(
            (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)
        )
        r_squared = 1.0 - ss_residual / ss_total
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared)


#: Two-sided Student-t critical values t_{(1+c)/2}(df) for df 1..30,
#: per supported confidence level.  Exact to the printed precision of
#: the standard tables; beyond df 30 the Cornish-Fisher expansion in
#: :func:`student_t_critical` is accurate to < 1e-3.
_T_TABLE: Dict[float, Tuple[float, ...]] = {
    0.90: (
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833,
        1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734,
        1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703,
        1.701, 1.699, 1.697,
    ),
    0.95: (
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048, 2.045, 2.042,
    ),
    0.99: (
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250,
        3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878,
        2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771,
        2.763, 2.756, 2.750,
    ),
}

#: Standard-normal two-sided quantiles z_{(1+c)/2} for the same levels.
_Z_VALUES: Dict[float, float] = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def student_t_critical(df: int, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value for ``df`` degrees of freedom.

    Dependency-free: an exact table covers df 1..30 (where the t and
    normal quantiles genuinely diverge — at df 3 the 95% value is 3.18,
    not 1.96); larger df use the Cornish-Fisher series expansion of the
    t quantile around the normal one, which is accurate to < 1e-3 from
    df 30 on and converges to z as df grows.  Supported confidence
    levels: 0.90, 0.95, 0.99.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    table = _T_TABLE.get(confidence)
    if table is None:
        supported = ", ".join(f"{c:g}" for c in sorted(_T_TABLE))
        raise ValueError(
            f"unsupported confidence level {confidence!r}; "
            f"supported: {supported} (or pass an explicit z=)"
        )
    if df <= len(table):
        return table[df - 1]
    z = _Z_VALUES[confidence]
    # Cornish-Fisher expansion of the t quantile in powers of 1/df.
    g1 = (z**3 + z) / 4.0
    g2 = (5.0 * z**5 + 16.0 * z**3 + 3.0 * z) / 96.0
    g3 = (3.0 * z**7 + 19.0 * z**5 + 17.0 * z**3 - 15.0 * z) / 384.0
    return z + g1 / df + g2 / df**2 + g3 / df**3


def mean_confidence_interval(
    values: Sequence[float],
    z: Optional[float] = None,
    confidence: float = 0.95,
) -> Tuple[float, float, float]:
    """(mean, low, high) for the mean of ``values``.

    By default the half-width uses the Student-t critical value at
    ``n - 1`` degrees of freedom — the correct small-sample quantile.
    The previous normal approximation (z = 1.96 at every n) was badly
    anti-conservative for the 3–9 repeats the examples actually
    take: at n = 4 the true 95% multiplier is 3.18, so the old
    intervals covered the mean barely ~88% of the time.  Pass an
    explicit ``z=`` to force a normal-quantile interval (the documented
    escape hatch, and the pre-fix behavior with ``z=1.96``).  With a
    single sample the interval collapses to the point.
    """
    if not values:
        raise ValueError("cannot summarise an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, mean, mean
    critical = z if z is not None else student_t_critical(n - 1, confidence)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    half_width = critical * math.sqrt(variance / n)
    return mean, mean - half_width, mean + half_width

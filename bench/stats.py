"""Order statistics and the two-commit comparison rule.

``percentile`` interpolates linearly between closest ranks (the
"inclusive" method of :func:`statistics.quantiles`), so the median of an
even sample is the mean of its middle pair and ``percentile(v, 0)`` /
``percentile(v, 100)`` are the extremes.

``verdict`` applies the rule for comparing a parent (BASE) and a change
(HEAD) from alternating runs of both:

- ``improved`` when there are at least ten pairs, HEAD wins at least
  nine tenths of them (ties count for neither side) and the medians
  differ, in HEAD's favour, by more than BASE's own interquartile range;
- ``regressed`` when HEAD's median is worse than BASE's by more than the
  metric's bound (a share of BASE's median);
- ``unresolved`` when BASE's own spread is wider than the bound, so
  "within the bound" cannot be told apart from noise — unless every HEAD
  run reads better than every BASE run;
- ``unchanged`` otherwise.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: Pairs needed, and the share of them HEAD must win, to claim a gain.
MIN_PAIRS = 10
WIN_FRACTION = 0.9


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) of ``values``, linearly
    interpolated between closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside 0..100")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of a non-empty sample."""
    return {
        "median": percentile(values, 50),
        "q1": percentile(values, 25),
        "q3": percentile(values, 75),
        "n": len(values),
    }


def verdict(
    base: Sequence[float],
    head: Sequence[float],
    better: str,
    bound: float,
) -> Dict[str, float]:
    """Compare paired runs of one metric; see the module docstring.

    ``base[i]`` and ``head[i]`` form pair ``i``.  ``better`` is
    ``"lower"`` or ``"higher"``; ``bound`` is the share of BASE's median
    by which HEAD may worsen before the change counts as a regression.
    Returns the verdict with the numbers it rests on.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if not base or len(base) != len(head):
        raise ValueError("verdict needs equally many BASE and HEAD runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    b_stats = summary(base)
    h_stats = summary(head)
    spread = b_stats["q3"] - b_stats["q1"]
    gain = sign * (h_stats["median"] - b_stats["median"])
    scale = abs(b_stats["median"])
    if scale > 0:
        worsening = -gain / scale
        relative_spread = spread / scale
    else:
        worsening = math.inf if gain < 0 else 0.0
        relative_spread = math.inf if spread > 0 else 0.0
    every_run_better = (
        min(head) > max(base) if better == "higher" else max(head) < min(base)
    )
    if len(base) >= MIN_PAIRS and wins / len(base) >= WIN_FRACTION and gain > spread:
        label = "improved"
    elif worsening > bound:
        label = "regressed"
    elif relative_spread > bound and not every_run_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "verdict": label,
        "base_median": b_stats["median"],
        "head_median": h_stats["median"],
        "base_iqr": spread,
        "wins": wins,
        "losses": losses,
        "pairs": len(base),
        "worsening": worsening,
    }

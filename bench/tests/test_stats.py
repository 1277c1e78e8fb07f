"""Percentile and quartile maths, and compare verdicts on synthetic runs."""

from __future__ import annotations

import statistics

import pytest

from bench.stats import percentile, summary, verdict


def test_percentile_interpolates_between_closest_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 25) == pytest.approx(1.75)
    assert percentile(values, 90) == pytest.approx(3.7)
    assert percentile([7.0], 90) == 7.0


def test_percentile_matches_statistics_inclusive_quartiles():
    values = [0.3, 1.9, 2.2, 2.2, 5.0, 8.5, 13.0, 21.5, 34.0, 55.0, 89.0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert summary(values) == {
        "median": pytest.approx(q2),
        "q1": pytest.approx(q1),
        "q3": pytest.approx(q3),
        "n": len(values),
    }


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def _runs(center, jitter, n=10):
    return [center * (1 + jitter * ((i % 5) - 2) / 2) for i in range(n)]


def test_verdict_improved_needs_nine_tenths_wins_and_a_gap_beyond_the_iqr():
    base = _runs(1.0, 0.02)
    head = _runs(0.8, 0.02)
    assert verdict(base, head, "lower", 0.10)["verdict"] == "improved"
    # Same medians apart, but HEAD wins only half the pairs.
    mixed = [0.8 if i % 2 else 1.02 for i in range(10)]
    assert verdict(base, mixed, "lower", 0.10)["verdict"] != "improved"
    # Too few pairs to claim a gain, however clear.
    assert verdict(base[:4], head[:4], "lower", 0.10)["verdict"] == "unchanged"


def test_verdict_regressed_beyond_the_bound():
    base = _runs(100.0, 0.01)
    head = _runs(115.0, 0.01)
    result = verdict(base, head, "lower", 0.10)
    assert result["verdict"] == "regressed"
    assert result["worsening"] == pytest.approx(0.15)
    # Throughput: lower is worse.
    assert verdict(base, _runs(85.0, 0.01), "higher", 0.10)["verdict"] == "regressed"


def test_verdict_unchanged_within_the_bound():
    base = _runs(100.0, 0.01)
    head = _runs(104.0, 0.01)
    assert verdict(base, head, "lower", 0.10)["verdict"] == "unchanged"


def test_verdict_unresolved_when_the_parent_spread_exceeds_the_bound():
    base = [60.0, 80.0, 100.0, 120.0, 140.0] * 2
    head = [h + 5.0 for h in base]
    assert verdict(base, head, "lower", 0.10)["verdict"] == "unresolved"


def test_verdict_exact_metrics_move_on_any_change():
    assert verdict([265] * 4, [265] * 4, "lower", 0.0001)["verdict"] == "unchanged"
    assert verdict([265] * 4, [266] * 4, "lower", 0.0001)["verdict"] == "regressed"
    assert verdict([1.0] * 4, [0.999] * 4, "higher", 0.0001)["verdict"] == "regressed"


def test_verdict_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower", 0.1)
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "sideways", 0.1)

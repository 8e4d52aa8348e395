"""Property-based coverage for the log-bucketed latency histogram.

The two contracts the per-op histograms of :mod:`repro.obs.registry`
lean on:

1. every reported quantile is within one bucket width (a bounded
   *relative* error) of the exact sorted-array quantile;
2. merging per-worker histograms is indistinguishable from recording
   every sample into a single histogram.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import LatencyHistogram

# latencies spanning the histogram's default resolvable range
_values = st.floats(min_value=2e-6, max_value=90.0, allow_nan=False, allow_infinity=False)
_samples = st.lists(_values, min_size=1, max_size=300)
_quantiles = st.floats(min_value=0.0, max_value=1.0)


def exact_quantile(values: list[float], q: float) -> float:
    """The k-th smallest with k = ceil(q*n): what the histogram estimates."""
    ordered = sorted(values)
    if q == 0.0:
        return ordered[0]
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class TestQuantileAccuracy:
    @given(values=_samples, q=_quantiles)
    @settings(max_examples=200, deadline=None)
    def test_within_one_bucket_width_of_exact(self, values, q):
        hist = LatencyHistogram()
        hist.record_many(values)
        exact = exact_quantile(values, q)
        got = hist.quantile(q)
        # Upper-edge reporting: never under-reports, and over-reports by at
        # most one bucket width (the geometry's relative error bound).
        assert got >= exact or math.isclose(got, exact, rel_tol=1e-12)
        assert got <= exact * hist.relative_error_bound * (1 + 1e-12)

    @given(values=_samples)
    @settings(max_examples=100, deadline=None)
    def test_standard_percentiles_ordered_and_bounded(self, values):
        hist = LatencyHistogram()
        hist.record_many(values)
        p = hist.percentiles()
        assert p["p50"] <= p["p90"] <= p["p99"] <= p["p999"] <= p["max"]
        assert p["min"] == pytest.approx(min(values))
        assert p["max"] == pytest.approx(max(values))
        assert p["count"] == len(values)

    def test_max_is_exact_not_quantised(self):
        hist = LatencyHistogram()
        hist.record_many([0.001, 0.0017772])
        assert hist.max == 0.0017772
        assert hist.quantile(1.0) == 0.0017772  # clamped to exact max


class TestMerge:
    @given(parts=st.lists(_samples, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_single_histogram(self, parts):
        single = LatencyHistogram()
        partials = []
        for chunk in parts:
            h = LatencyHistogram()
            h.record_many(chunk)
            single.record_many(chunk)
            partials.append(h)
        merged = LatencyHistogram.merged(partials)
        assert merged.count == single.count
        assert merged.min == single.min
        assert merged.max == single.max
        assert merged.sum == pytest.approx(single.sum)
        assert merged._counts == single._counts
        for q in (0.0, 0.5, 0.9, 0.99, 0.999, 1.0):
            assert merged.quantile(q) == single.quantile(q)

    def test_incompatible_geometry_rejected(self):
        a = LatencyHistogram(buckets_per_decade=40)
        b = LatencyHistogram(buckets_per_decade=20)
        with pytest.raises(ValueError, match="geometry"):
            a.merge(b)

    def test_merged_of_nothing_is_empty(self):
        assert LatencyHistogram.merged([]).count == 0


class TestEdges:
    def test_empty_histogram_has_no_quantiles(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(0.5)
        assert LatencyHistogram().percentiles() == {"count": 0}

    def test_rejects_bad_values(self):
        hist = LatencyHistogram()
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                hist.record(bad)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_value=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(min_value=1.0, max_value=0.5)
        with pytest.raises(ValueError):
            LatencyHistogram(buckets_per_decade=0)

    def test_out_of_range_values_clamp_but_count(self):
        hist = LatencyHistogram(min_value=1e-3, max_value=1.0)
        hist.record(1e-9)  # below range -> first bucket
        hist.record(50.0)  # above range -> last bucket
        assert hist.count == 2
        assert hist.min == 1e-9 and hist.max == 50.0

    def test_zero_recordable(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        assert hist.quantile(0.5) <= hist.min_value * hist.relative_error_bound

    def test_mean_and_len(self):
        hist = LatencyHistogram()
        hist.record_many([0.1, 0.3])
        assert hist.mean == pytest.approx(0.2)
        assert len(hist) == 2

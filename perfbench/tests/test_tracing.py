"""Self-time arithmetic and function wrapping of the tracer."""
from collections import Counter

import pytest

import tracing


def test_self_times_subtract_direct_children_only():
    # request [0, 10] > run [1, 9] > (psum [2, 4], lanes [5, 8] > vterms
    # [6, 7]); a second request [20, 23] > psum [21, 22].
    spans = [
        ["request", 0.0, 10.0, -1, 0],
        ["conditions.run", 1.0, 9.0, 0, 0],
        ["series.partial_sum_vector", 2.0, 4.0, 1, 0],
        ["rearrange.order_block_lanes", 5.0, 8.0, 1, 0],
        ["series.vector_terms", 6.0, 7.0, 3, 0],
        ["request", 20.0, 23.0, -1, 1],
        ["series.partial_sum_vector", 21.0, 22.0, 5, 1],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({
        "request": 2.0 + 2.0,
        "conditions.run": 8.0 - 2.0 - 3.0,
        "series.partial_sum_vector": 2.0 + 1.0,
        "rearrange.order_block_lanes": 3.0 - 1.0,
        "series.vector_terms": 1.0,
    })
    # Self times partition the root spans exactly.
    assert sum(selfs.values()) == pytest.approx(10.0 + 3.0)


def test_layer_metrics_are_per_request_and_cover_library_time():
    spans = [
        ["request", 0.0, 10.0, -1, 0],
        ["conditions.run", 1.0, 9.0, 0, 0],
        ["series.partial_sum_vector", 2.0, 4.0, 1, 0],
        ["request", 10.0, 20.0, -1, 1],
        ["series.partial_sum_vector", 10.0, 20.0, 3, 1],
    ]
    counts = Counter({"series.psum_calls": 2, "series.psum_indices": 50,
                      "conditions.attempts": 3, "conditions.rounds": 2})
    out = tracing.layer_metrics(spans, counts, requests=2)
    assert out["series.psum_s"] == pytest.approx((2.0 + 10.0) / 2)
    assert out["series.self_s"] == pytest.approx((2.0 + 10.0) / 2)
    assert out["conditions.self_s"] == pytest.approx(6.0 / 2)
    assert out["series.psum_indices"] == pytest.approx(25.0)
    assert out["conditions.retries"] == pytest.approx(0.5)
    assert out["confinement.self_s"] == 0.0
    assert out["tracing.coverage"] == pytest.approx(18.0 / 20.0)
    assert tracing.top_layer(out) == "series"


def test_tracer_rebinds_by_name_imports_and_restores():
    from sumchase import conditions, rearrange, series
    from sumchase.series import family, rademacher_harmonic

    original = series.partial_sum_vector
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (series, conditions, rearrange):
            assert module.partial_sum_vector is not original
        fam = family(rademacher_harmonic(0), rademacher_harmonic(1))
        tracer.begin(0)
        rearrange.plan_from_injection(fam, [0, 1, 2], (0.1, 0.2))
        tracer.end()
        series.partial_sum_vector(fam, [0])  # not recording: no span
    finally:
        tracer.restore()
    for module in (series, conditions, rearrange):
        assert module.partial_sum_vector is original
    names = [row[0] for row in tracer.spans]
    assert names[:3] == ["request", "rearrange.plan_from_injection",
                         "series.partial_sum_vector"]
    assert tracer.spans[2][3] == 1  # parent is the plan span
    assert tracer.counts["series.psum_indices"] == 3
    assert tracer.counts["series.vterms_rows"] == 3

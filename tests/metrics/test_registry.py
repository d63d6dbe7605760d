"""Registry, ambient installation, tracer bridge, and report tests."""

import json

import pytest

from repro.metrics import (
    MetricRegistry,
    MetricsSink,
    NULL_METRICS,
    get_metrics,
    use_metrics,
)
from repro.telemetry import MemorySink, Tracer, use_tracer


def test_ambient_default_is_null_and_disabled():
    reg = get_metrics()
    assert reg is NULL_METRICS
    assert not reg.enabled
    # all instruments are safe no-ops
    reg.counter("x").inc()
    reg.gauge("x").set(3.0)
    reg.histogram("x").observe(1.0)
    reg.sample("x", 1.0)
    assert reg.histogram("x").count == 0


def test_use_metrics_installs_and_restores():
    reg = MetricRegistry()
    with use_metrics(reg):
        assert get_metrics() is reg
        get_metrics().counter("hits").inc(2)
    assert get_metrics() is NULL_METRICS
    assert reg.counter("hits").value == 2


def test_instruments_are_cached_by_name():
    reg = MetricRegistry()
    assert reg.counter("a") is reg.counter("a")
    assert reg.histogram("h") is reg.histogram("h")
    assert reg.timeseries("t") is reg.timeseries("t")


def test_gauge_tracks_envelope():
    g = MetricRegistry().gauge("w")
    for v in (5.0, 1.0, 9.0):
        g.set(v)
    assert g.value == 9.0
    assert g.minimum == 1.0
    assert g.maximum == 9.0
    assert g.samples == 3


def test_clock_binding_stamps_timeseries():
    reg = MetricRegistry()
    t = [0.0]
    reg.bind_clock(lambda: t[0])
    reg.sample("s", 1.0)
    t[0] = 2.5
    reg.sample("s", 2.0)
    times, values = reg.timeseries("s").arrays()
    assert list(times) == [0.0, 2.5]
    assert list(values) == [1.0, 2.0]


# ---------------------------------------------------------------------------
# tracer -> registry bridge


def test_metrics_sink_folds_spans_counters_instants():
    reg = MetricRegistry()
    tracer = Tracer(MetricsSink(reg), clock=iter(range(100)).__next__)
    tracer.complete("work", 2.0, cat="t", energy_j=5.0)
    tracer.complete("work", 4.0, cat="t")
    tracer.counter("widgets", cat="t").inc(3)
    tracer.instant("boom", cat="t")
    h = reg.histogram("span.work.s")
    assert h.count == 2
    assert h.total == pytest.approx(6.0)
    assert reg.histogram("span.work.energy_j").count == 1
    assert reg.gauge("widgets").value == 3.0
    assert reg.counter("event.boom").value == 1


def test_metrics_sink_forwards_to_chained_sink():
    reg = MetricRegistry()
    mem = MemorySink()
    tracer = Tracer(MetricsSink(reg, forward=mem), clock=iter(range(10)).__next__)
    tracer.complete("x", 1.0, cat="t")
    assert reg.histogram("span.x.s").count == 1
    assert any(r["name"] == "x" for r in mem.records)


def test_metrics_sink_composes_with_use_tracer():
    reg = MetricRegistry()
    with use_tracer(Tracer(MetricsSink(reg))):
        from repro.telemetry import get_tracer

        get_tracer().complete("y", 1.5, cat="t")
    assert reg.histogram("span.y.s").count == 1


def test_insitu_run_reports_each_family_under_one_type():
    """A traced in-situ job under ``run --metrics``'s wiring: every
    name lives under exactly one instrument type, so the Prometheus
    exposition has one ``# TYPE`` line per family."""
    from repro.cluster.node import THETA_NODE
    from repro.core import SeeSAwController
    from repro.insitu import InsituConfig, run_insitu

    reg = MetricRegistry()
    cfg = InsituConfig(n_sim_ranks=2, n_ana_ranks=2, n_verlet_steps=4)
    with use_metrics(reg), use_tracer(Tracer(MetricsSink(reg))):
        run_insitu(
            cfg,
            SeeSAwController(
                cfg.world_size * cfg.power_cap_w, 2, 2, THETA_NODE
            ),
        )
    data = reg.report().to_json()
    seen: dict[str, str] = {}
    for kind, entries in data.items():
        for name in entries:
            assert name not in seen, f"{name}: {seen[name]} and {kind}"
            seen[name] = kind
    for name in ("power.caps_requested", "power.caps_applied", "insitu.sync_waits"):
        assert name in seen, name
    families = [
        line.split()[2]
        for line in reg.report().to_prometheus().splitlines()
        if line.startswith("# TYPE ")
    ]
    assert len(families) == len(set(families))


# ---------------------------------------------------------------------------
# reports


def _populated_registry() -> MetricRegistry:
    reg = MetricRegistry()
    reg.counter("runs").inc(4)
    reg.gauge("cap_w").set(110.0)
    for v in (0.1, 0.2, 0.4):
        reg.histogram("wait.s").observe(v)
    reg.bind_clock(lambda: 1.0)
    reg.sample("power.w", 100.0)
    return reg


def test_report_json_shape():
    data = _populated_registry().report().to_json()
    assert data["counters"]["runs"] == 4
    assert data["gauges"]["cap_w"]["value"] == 110.0
    assert data["histograms"]["wait.s"]["count"] == 3
    assert data["timeseries"]["power.w"]["values"] == [100.0]
    json.dumps(data)  # must be serializable


def test_report_prometheus_exposition():
    text = _populated_registry().report().to_prometheus()
    assert "# TYPE runs counter" in text
    assert "runs 4" in text
    assert "# TYPE cap_w gauge" in text
    assert "# TYPE wait_s histogram" in text
    assert 'wait_s_bucket{le="+Inf"} 3' in text
    assert "wait_s_count 3" in text
    # dotted names are sanitized
    assert "wait.s" not in text


def test_report_render_mentions_every_instrument():
    text = _populated_registry().report().render()
    for needle in ("runs", "cap_w", "wait.s", "power.w", "p50", "p99"):
        assert needle in text


def test_report_write_creates_parent_dirs(tmp_path):
    reg = _populated_registry()
    nested_json = tmp_path / "a" / "b" / "metrics.json"
    reg.report().write(nested_json)
    assert json.loads(nested_json.read_text())["counters"]["runs"] == 4
    nested_prom = tmp_path / "c" / "d" / "metrics.prom"
    reg.report().write(nested_prom)
    assert "# TYPE runs counter" in nested_prom.read_text()

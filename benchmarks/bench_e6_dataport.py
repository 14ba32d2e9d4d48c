"""E6 bench: alarm sweep and full twin timeline over the window, one
classification instant, packet gaps."""
import pandas as pd

from repro.dataport import alarms, hierarchy, twins
from repro.iot import deployment


def test_bench_e6_alarm_sweep(benchmark, bench_world):
    end = bench_world.readings_pdf["ts"].max()

    def job():
        return alarms.alarm_events(
            bench_world.uplinks, start=deployment.SIM_START, end=end
        ).count()

    n = benchmark.pedantic(job, rounds=2, iterations=1, warmup_rounds=1)
    assert n > 4  # at least the injected faults transition


def test_bench_e6_twin_snapshot(benchmark, bench_world):
    at = deployment.SIM_START + pd.Timedelta(hours=53)

    def job():
        return hierarchy.classify(bench_world.uplinks, at).count()

    benchmark.pedantic(job, rounds=3, iterations=1, warmup_rounds=1)


def test_bench_e6_timeline(benchmark, bench_world):
    """Every twin at every 5-min sweep of the window, classified."""
    end = bench_world.readings_pdf["ts"].max()

    def job():
        return (
            twins.timeline(bench_world.uplinks, start=deployment.SIM_START, end=end)
            .filter("failure_kind IS NOT NULL").groupBy("failure_kind").count().collect()
        )

    rows = benchmark.pedantic(job, rounds=2, iterations=1, warmup_rounds=1)
    kinds = {r["failure_kind"]: r["count"] for r in rows}
    assert kinds.get("gateway_outage", 0) > 0 and kinds.get("sensor_failure", 0) > 0


def test_bench_e6_packet_gaps(benchmark, bench_world):
    def job():
        return twins.packet_gaps(bench_world.uplinks).count()

    benchmark.pedantic(job, rounds=3, iterations=1, warmup_rounds=1)

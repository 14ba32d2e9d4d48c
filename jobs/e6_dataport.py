"""E6 — §2.3 dataport monitoring: twins, alarms, hierarchy, watchdog.

Injects the standard fault scenario (2 sensor deaths, 1 drift,
1 flatline, 1 redundant-gateway outage, 1 city-wide gateway outage) and
reports: detection latency per death, the sensor-vs-gateway failure
classification at every 5-min sweep (counts per failure kind per
injected fault, plus transient false alarms from radio loss alone),
and quality-detector hits.
Run: spark-submit jobs/e6_dataport.py [sf].
"""
import sys

import pandas as pd
from pyspark.sql import functions as F

from repro.core import quality
from repro.dataport import alarms, hierarchy, twins
from repro.iot import deployment
from repro.runner import build_world, get_spark, print_table


def run(spark, *, sf: float = 0.05, seed: int = 0) -> dict:
    w = build_world(spark, sf=sf, seed=seed, with_faults=True, run_streaming=False)
    end = w.readings_pdf["ts"].max()
    events = alarms.alarm_events(
        w.uplinks, start=deployment.SIM_START, end=end
    ).cache()
    inj = pd.DataFrame(
        [
            {"sensor_id": f.sensor_id, "start": f.start}
            for f in w.faults
            if f.kind == "death"
        ]
    )
    latency = alarms.detection_latency(events, inj)

    # The hierarchy at every sweep: FAILED sensor-sweeps per failure kind,
    # against the injected fault that explains them ("none": radio loss).
    failed = (
        twins.timeline(w.uplinks, start=deployment.SIM_START, end=end)
        .filter("kind = 'sensor' AND status = 'FAILED'")
        .select(F.col("node_id").alias("sensor_id"), "ts", "primary_gateway", "failure_kind")
        .toPandas()
    )
    failed["injected"] = "none"
    for o in w.outages:
        hit = failed["primary_gateway"] == o.gateway_id
        failed.loc[hit & failed["ts"].between(o.start, o.end, "left"), "injected"] = "gw_outage"
    for f in w.faults:
        if f.kind == "death":
            hit = failed["sensor_id"] == f.sensor_id
            failed.loc[hit & (failed["ts"] >= f.start), "injected"] = "death"
    kinds = [hierarchy.KIND_SENSOR, hierarchy.KIND_PENDING, hierarchy.KIND_GATEWAY]
    confusion = (
        pd.crosstab([failed["injected"], failed["sensor_id"]], failed["failure_kind"])
        .reindex(columns=kinds, fill_value=0)
        .reset_index()
    )
    false_alarms = (
        failed[failed["injected"] == "none"].groupby("sensor_id")["ts"]
        .agg(first="min", last="max", sweeps="size").reset_index()
    )

    drift = quality.drift_scores(w.points.filter("metric = 'air.co2'"))
    flat = quality.flatline_sensors(w.points.filter("metric = 'air.no2'"))
    detectors = pd.DataFrame(
        [
            {
                "detector": "drift(co2)",
                "flagged": sorted(
                    r["sensor_id"] for r in drift.filter("drifting").collect()
                ),
                "injected": ["T-05"],
            },
            {
                "detector": "flatline(no2)",
                "flagged": sorted(
                    {r["sensor_id"] for r in flat.filter("flatline").collect()}
                ),
                "injected": ["T-09"],
            },
        ]
    )
    gaps = quality.missing_data_summary(twins.packet_gaps(w.uplinks)).toPandas()
    return {
        "latency": latency,
        "confusion": confusion,
        "false_alarms": false_alarms,
        "detectors": detectors,
        "missing": gaps.sort_values("sensor_id").round(4),
    }


def main():
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    spark = get_spark("e6_dataport")
    r = run(spark, sf=sf)
    print_table("E6 death-detection latency", r["latency"])
    print_table("E6 hierarchy over every sweep: FAILED sensor-sweeps per kind", r["confusion"])
    print_table("E6 transient false alarms (no injected fault)", r["false_alarms"])
    print_table("E6 quality detectors vs injected faults", r["detectors"])
    print_table("E6 missing-data patterns per sensor", r["missing"])


if __name__ == "__main__":
    main()

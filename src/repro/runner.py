"""Shared plumbing for jobs and benchmarks.

``build_world`` materialises the full §2.1 data flow at a scale factor:
simulate the deployment, transport packets over the LoRaWAN model and
deduplicate them as the TTN backend does (pandas, before any Spark),
land TTN/MQTT messages, run the Structured Streaming ingestion into the
TSDB, and return handles to every stage. Jobs (spark-submit
entrypoints), benchmarks and the test fixtures share this code so the
numbers in EXPERIMENTS.md come from exactly the pipeline the tests
verify.
"""
from __future__ import annotations

import os
import tempfile

import pandas as pd
from pyspark.sql import SparkSession

from repro.ingest import etl, stream
from repro.iot import deployment, faults, sensor
from repro.lorawan import mqtt, network
from repro.tsdb import store


def get_spark(app: str) -> SparkSession:
    """The one session config shared by jobs, benchmarks and tests."""
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.session.timeZone", "UTC")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


class World(dict):
    """Dict with attribute access: world.points etc."""

    __getattr__ = dict.__getitem__


def build_world(
    spark: SparkSession,
    *,
    sf: float = 0.01,
    seed: int = 0,
    with_faults: bool = True,
    work_dir: str | None = None,
    run_streaming: bool = True,
) -> World:
    """Simulate + transport + land + ingest one deployment at ``sf``.

    Returns a :class:`World` with: readings_pdf, receptions_pdf,
    fault/outage lists, landing_dir, n_landed, uplinks (DataFrame, the
    one parse of the landing zone), points (DataFrame, validated TSDB
    shape) and quarantined. Without ``run_streaming`` both are exploded
    from uplinks; with it, they are read back from the tsdb_root and
    quarantine_dir the Structured Streaming pipeline wrote, and
    live_agg_dir is set too.
    """
    spark.conf.set("spark.sql.session.timeZone", "UTC")
    work_dir = work_dir or tempfile.mkdtemp(prefix=f"ctt_sf{sf}_")
    if with_faults:
        flist, outages = faults.standard_scenario(deployment.SIM_START)
    else:
        flist, outages = [], []
    readings = sensor.simulate_readings_pdf(sf=sf, seed=seed, faults=flist)
    receptions = network.receptions_pdf(readings, outages=outages, seed=seed)
    landing = os.path.join(work_dir, "landing")
    n_landed = mqtt.land_messages(network.ttn_dedup(receptions), landing)
    w = World(
        sf=sf,
        seed=seed,
        faults=flist,
        outages=outages,
        work_dir=work_dir,
        sensors_pdf=deployment.sensors_pdf(),
        readings_pdf=readings,
        receptions_pdf=receptions,
        landing_dir=landing,
        n_landed=n_landed,
        uplinks=etl.parse_uplinks(etl.read_landing_batch(spark, landing)),
    )
    if run_streaming:
        w.update(stream.run_pipeline(spark, landing, os.path.join(work_dir, "stream")))
        w.update(points=store.read(spark, w.tsdb_root), quarantined=spark.read.parquet(w.quarantine_dir))
    else:
        validated = etl.validate(etl.explode_points(w.uplinks))
        w.update(points=etl.accepted_points(validated), quarantined=etl.quarantined_points(validated))
    return w


def print_table(title: str, pdf: pd.DataFrame) -> None:
    """Uniform job output: a titled, index-free table."""
    print(f"\n== {title} ==")
    print(pdf.to_string(index=False))

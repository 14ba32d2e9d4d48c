"""Time-series storage over Parquet partitioned by metric.

Data model mirrors OpenTSDB: a *data point* is (metric, timestamp,
value, tags). Tags are the two the CTT system uses throughout —
``sensor_id`` and ``city`` — kept as explicit columns (orderable, and
therefore oracle-checkable; an open map<string,string> column would be
neither). As OpenTSDB keys rows by metric, then time and tags, the
store's one partition key is ``metric``: a metric filter prunes
directories, and ``ts`` bounds are pushed into the Parquet scan, where
row-group statistics skip what lies outside the window. This module is
the only code that knows the layout; every reader goes through
:func:`read`.

A true JVM DataSourceV2 is out of scope in this container (no build
toolchain); this module is the documented stand-in (DESIGN.md §5).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

#: Canonical column set of a stored data point.
POINT_COLUMNS = ["metric", "ts", "value", "sensor_id", "city"]


def write(points: DataFrame, root: str) -> None:
    """Append data points to the store at ``root``.

    ``points`` must carry exactly :data:`POINT_COLUMNS` (extra columns
    are dropped; missing ones raise).
    """
    missing = [c for c in POINT_COLUMNS if c not in points.columns]
    if missing:
        raise ValueError(f"points missing columns {missing}")
    (
        points.select(*POINT_COLUMNS)
        .repartition("metric")
        .write.mode("append")
        .partitionBy("metric")
        .parquet(root)
    )


def read(
    spark: SparkSession,
    root: str,
    *,
    metric: str | None = None,
    start: pd.Timestamp | str | None = None,
    end: pd.Timestamp | str | None = None,
    sensor_id: str | None = None,
    city: str | None = None,
) -> DataFrame:
    """Scan the store: ``metric`` prunes partitions, the other filters
    are pushed into the Parquet scan.

    ``start`` is inclusive, ``end`` exclusive; a time-zone-aware bound
    is compared as the instant it names. Returns :data:`POINT_COLUMNS`.
    """
    df = spark.read.parquet(root)
    if metric is not None:
        df = df.filter(F.col("metric") == metric)
    if start is not None:
        df = df.filter(F.col("ts") >= F.lit(pd.Timestamp(start)))
    if end is not None:
        df = df.filter(F.col("ts") < F.lit(pd.Timestamp(end)))
    if sensor_id is not None:
        df = df.filter(F.col("sensor_id") == sensor_id)
    if city is not None:
        df = df.filter(F.col("city") == city)
    return df.select(*POINT_COLUMNS)

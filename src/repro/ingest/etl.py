"""Parse + validate transformations and the sink shared by the
streaming and batch ingestion paths.

An MQTT message (see :mod:`repro.lorawan.mqtt`) is parsed once into an
uplink row (:func:`parse_uplinks`, the dataport's input), which is
exploded into *long* data points — one row per (sensor, timestamp,
metric) — validated against physical plausibility ranges, and split
into accepted points (written to the TSDB) and quarantined points (kept
for the quality analyses; §2.2 "a complex set of related uncertainties
and inaccuracies in the data").

:func:`sink` is the one write path: the streaming ingest calls it inside
``foreachBatch``, a batch backfill calls it on a batch read of the
landing zone, so both run the exact same Catalyst plan.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.lorawan.mqtt import MESSAGE_SCHEMA
from repro.lorawan.network import PAYLOAD_COLS
from repro.tsdb import store

#: payload field → TSDB metric name.
METRIC_NAME = {
    "co2": "air.co2",
    "no2": "air.no2",
    "pm10": "air.pm10",
    "pm25": "air.pm25",
    "temperature": "weather.temperature",
    "pressure": "weather.pressure",
    "humidity": "weather.humidity",
    "battery": "node.battery",
    "interval_min": "node.interval_min",
}

#: Physical plausibility ranges per payload field (inclusive bounds).
VALID_RANGE = {
    "co2": (300.0, 5000.0),
    "no2": (0.0, 600.0),
    "pm10": (0.0, 1200.0),
    "pm25": (0.0, 800.0),
    "temperature": (-45.0, 50.0),
    "pressure": (900.0, 1100.0),
    "humidity": (0.0, 100.0),
    "battery": (0.0, 100.0),
    "interval_min": (1.0, 60.0),
}


def parse_uplinks(raw: DataFrame) -> DataFrame:
    """TTN/MQTT envelope → one row per uplink message, the one parse.

    Input rows follow :data:`repro.lorawan.mqtt.MESSAGE_SCHEMA`. Output:
    sensor_id, city, ts, f_cnt, n_gateways, best_gateway, gateways and
    every payload field of :data:`repro.lorawan.network.PAYLOAD_COLS`
    as its own column. Malformed envelopes give NULLs instead of
    failing the batch: an unparseable ``metadata.time`` gives a NULL
    ``ts``, an empty ``gateways`` array a NULL ``best_gateway``.
    """
    return raw.select(
        F.col("dev_id").alias("sensor_id"),
        F.col("city"),
        F.try_to_timestamp("metadata.time", F.lit("yyyy-MM-dd'T'HH:mm:ss'Z'")).alias("ts"),
        F.col("counter").alias("f_cnt"),
        F.size("metadata.gateways").alias("n_gateways"),
        F.get("metadata.gateways", 0)["gtw_id"].alias("best_gateway"),
        F.col("metadata.gateways").alias("gateways"),
        "payload_fields.*",
    )


def explode_points(uplinks: DataFrame) -> DataFrame:
    """Uplinks (:func:`parse_uplinks`) → long data points.

    Output: sensor_id, city, ts, f_cnt, n_gateways, best_gateway,
    best_rssi, payload field name (``field``), ``value``, TSDB
    ``metric`` name.
    """
    stack_expr = ", ".join(f"'{c}', {c}" for c in PAYLOAD_COLS)
    flat = uplinks.select(
        "sensor_id", "city", "ts", "f_cnt", "n_gateways", "best_gateway",
        F.get("gateways", 0)["rssi"].alias("best_rssi"),
        F.expr(f"stack({len(PAYLOAD_COLS)}, {stack_expr}) as (field, value)"),
    )
    metric_map = F.create_map(
        *[x for k, v in METRIC_NAME.items() for x in (F.lit(k), F.lit(v))]
    )
    return flat.withColumn("metric", metric_map[F.col("field")])


def validate(points: DataFrame) -> DataFrame:
    """Flag each data point ``valid`` against :data:`VALID_RANGE`.

    Null values, out-of-range values and points with no ``sensor_id``
    or ``ts`` are invalid; the row is kept so quarantine accounting
    sees it.
    """
    lo_map = F.create_map(
        *[x for k, (lo, _) in VALID_RANGE.items() for x in (F.lit(k), F.lit(lo))]
    )
    hi_map = F.create_map(
        *[x for k, (_, hi) in VALID_RANGE.items() for x in (F.lit(k), F.lit(hi))]
    )
    return points.withColumn(
        "valid",
        F.col("sensor_id").isNotNull()
        & F.col("ts").isNotNull()
        & F.col("value").isNotNull()
        & (F.col("value") >= lo_map[F.col("field")])
        & (F.col("value") <= hi_map[F.col("field")]),
    )


def accepted_points(validated: DataFrame) -> DataFrame:
    """Valid points in TSDB shape (metric, ts, value, sensor_id, city)."""
    return validated.filter(F.col("valid")).select(*store.POINT_COLUMNS)


def quarantined_points(validated: DataFrame) -> DataFrame:
    """Invalid points, kept with full provenance for quality analysis."""
    return validated.filter(~F.col("valid"))


def read_landing_batch(spark: SparkSession, landing_dir: str) -> DataFrame:
    """Batch-read the MQTT landing zone with the canonical schema."""
    return spark.read.schema(MESSAGE_SCHEMA).json(landing_dir)


def sink(raw: DataFrame, tsdb_root: str, quarantine_dir: str) -> dict:
    """Landed messages → TSDB: the one sink of streaming and batch ingest.

    Accepted points append to the store at ``tsdb_root``, invalid
    points to the Parquet directory ``quarantine_dir``. Returns
    ``{"accepted": n, "quarantined": m}``, counted before either write.
    """
    validated = validate(explode_points(parse_uplinks(raw))).cache()
    try:
        counts = {r["valid"]: r["count"] for r in validated.groupBy("valid").count().collect()}
        store.write(accepted_points(validated), tsdb_root)
        quarantined_points(validated).write.mode("append").parquet(quarantine_dir)
    finally:
        validated.unpersist()
    return {"accepted": counts.get(True, 0), "quarantined": counts.get(False, 0)}

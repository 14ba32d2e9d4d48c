"""MQTT landing zone — the bridge between TTN and cloud ingestion.

The real system forwards deduplicated uplinks from the TTN cloud
backend over MQTT (§2.1 "Data forwarding and cloud sensor management
was built through the event-driven MQTT communication protocol"). In
this offline reproduction the MQTT topic is a *landing directory* of
JSON-lines files — one file per simulated hour, mimicking a broker
bridge that rolls files — which Spark Structured Streaming consumes as
a file source (:mod:`repro.ingest.stream`).

Message envelope (TTN uplink format, trimmed):

.. code-block:: json

    {"app_id": "ctt", "dev_id": "T-01", "counter": 12,
     "city": "trondheim",
     "metadata": {"time": "2017-01-01T00:05:00Z",
                  "gateways": [{"gtw_id": "gw-tr-0", "rssi": -101.5}]},
     "payload_fields": {"co2": 431.2, "no2": 24.0, "pm10": 14.1,
                        "pm25": 7.7, "temperature": -3.1,
                        "pressure": 1013.2, "humidity": 81.0,
                        "battery": 89.9, "interval_min": 5}}
"""
from __future__ import annotations

import json
import os

import pandas as pd
from pyspark.sql.types import (
    ArrayType, DoubleType, IntegerType, StringType, StructField, StructType,
)

from repro.lorawan.network import PAYLOAD_COLS

#: Spark schema of a landed MQTT message (for the streaming reader).
MESSAGE_SCHEMA = StructType(
    [
        StructField("app_id", StringType()),
        StructField("dev_id", StringType()),
        StructField("counter", IntegerType()),
        StructField("city", StringType()),
        StructField(
            "metadata",
            StructType(
                [
                    StructField("time", StringType()),
                    StructField(
                        "gateways",
                        ArrayType(
                            StructType(
                                [
                                    StructField("gtw_id", StringType()),
                                    StructField("rssi", DoubleType()),
                                ]
                            )
                        ),
                    ),
                ]
            ),
        ),
        StructField(
            "payload_fields",
            StructType([StructField(c, DoubleType()) for c in PAYLOAD_COLS]),
        ),
    ]
)


def _message(row: dict) -> dict:
    ts = pd.Timestamp(row["ts"])
    return {
        "app_id": "ctt",
        "dev_id": row["sensor_id"],
        "counter": int(row["f_cnt"]),
        "city": row["city"],
        "metadata": {
            "time": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
            "gateways": [
                {"gtw_id": g["gtw_id"], "rssi": float(g["rssi"])}
                for g in row["gateways"]
            ],
        },
        "payload_fields": {c: float(row[c]) for c in PAYLOAD_COLS},
    }


def land_messages(uplinks: pd.DataFrame, out_dir: str) -> int:
    """Write TTN-deduplicated uplinks as hourly JSON-lines files.

    ``uplinks`` is the output of :func:`repro.lorawan.network.ttn_dedup`,
    whose ``gateways`` column holds lists of ``{"gtw_id", "rssi"}``
    dicts. Returns the number of messages written. Files are named
    ``msgs-YYYYMMDDHH.jsonl`` so arrival order matches event time, as a
    bridge would produce.
    """
    os.makedirs(out_dir, exist_ok=True)
    pdf = uplinks.sort_values(["ts", "sensor_id"])
    pdf["_hour"] = pd.DatetimeIndex(pdf["ts"]).strftime("%Y%m%d%H")
    n = 0
    for hour, grp in pdf.groupby("_hour", sort=True):
        path = os.path.join(out_dir, f"msgs-{hour}.jsonl")
        with open(path, "w") as f:
            for row in grp.to_dict("records"):
                f.write(json.dumps(_message(row)) + "\n")
                n += 1
    return n

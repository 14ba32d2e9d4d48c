"""Alarm stream: twin status transitions over a sweep of evaluation
instants.

The actor-based dataport re-evaluates each twin whenever time advances;
we reproduce that as a deterministic sweep — every ``eval_every_min``
minutes each sensor twin's status is recomputed from its packet history
and *transitions* become alarm events. The sweep is
:func:`repro.dataport.twins.timeline`; an alarm is a sensor row whose
status differs from its ``prev_status``.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.dataport import twins


def alarm_events(
    uplinks: DataFrame,
    *,
    start,
    end,
    eval_every_min: int = 5,
) -> DataFrame:
    """All twin status transitions in [start, end].

    Returns sensor_id, city, ts (transition instant), status,
    prev_status, missed_cycles. A transition into WARN/FAILED is an
    alarm being raised; back to OK is the alarm clearing.
    """
    tl = twins.timeline(uplinks, start=start, end=end, every_min=eval_every_min)
    return tl.filter(
        (F.col("kind") == "sensor") & (F.col("status") != F.col("prev_status"))
    ).select(
        F.col("node_id").alias("sensor_id"), "city", "ts", "status", "prev_status", "missed_cycles"
    )


def raised(events: DataFrame, *, level: str = "FAILED") -> DataFrame:
    """Alarm raise events at the given level."""
    return events.filter(
        (F.col("status") == level) & (F.col("prev_status") != level)
    )


def detection_latency(
    events: DataFrame, injected: pd.DataFrame
) -> pd.DataFrame:
    """Latency from each injected death to its first FAILED alarm.

    ``injected``: pandas with sensor_id, start (the fault time).
    Returns sensor_id, injected_at, detected_at, latency_min,
    latency_cycles (latency ÷ the node's 5-min base interval); NaT/NaN
    when undetected.
    """
    raises = raised(events).select("sensor_id", F.col("ts").alias("detected_at")).toPandas()
    out = injected.rename(columns={"start": "injected_at"}).copy()
    pairs = out[["sensor_id", "injected_at"]].reset_index(names="_row").merge(raises, on="sensor_id")
    first = pairs[pairs["detected_at"] >= pairs["injected_at"]].groupby("_row")["detected_at"].min()
    out["detected_at"] = first.reindex(out.index).astype("datetime64[ns]")
    lat = (out["detected_at"] - out["injected_at"]).dt.total_seconds() / 60.0
    out["latency_min"] = lat
    out["latency_cycles"] = lat / 5.0
    return out

"""Digital-twin state for sensors and gateways, as one timeline.

A twin "keeps track of its state in real-time, monitors all
communication and triggers alarms if data is not received as expected"
(§2.3). Twin state at an evaluation instant is a pure function of the
uplink history up to that instant: last packet, the node's
*self-reported* transmission interval (nodes adapt frequency to battery
level, so the expectation must come from the payload, not a constant),
and the count of missed cycles since. :func:`timeline` re-evaluates
every twin at every sweep instant, as the actor-based dataport does
while time advances; alarms and the failure hierarchy are filters of it.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

#: Missed-cycle thresholds: "a single missing measurement is expected
#: occasionally ... it takes some cycles to determine a failure with
#: certainty" (§2.3).
MISS_WARN = 2
MISS_FAIL = 4

#: A gateway twin flags silence after this many minutes without any
#: reception while its city's sensors are due to transmit.
GATEWAY_SILENCE_MIN = 30

#: Fraction of a gateway's dependents that must be FAILED to blame the
#: gateway rather than the individual sensors.
OUTAGE_DEPENDENT_FRACTION = 0.6

STATUS_OK, STATUS_WARN, STATUS_FAILED = "OK", "WARN", "FAILED"
KIND_SENSOR, KIND_GATEWAY, KIND_PENDING = "sensor_failure", "gateway_outage", "pending"

TIMELINE_SCHEMA = (
    "ts timestamp, city string, kind string, node_id string, last_seen timestamp, "
    "interval_min double, missed_cycles long, status string, prev_status string, "
    "primary_gateway string, gateway_status string, dependents long, "
    "dependents_failed long, failure_kind string"
)


def _sensor_status(missed: np.ndarray) -> np.ndarray:
    """The missed-cycle rule: OK below MISS_WARN, WARN below MISS_FAIL."""
    return np.select(
        [missed >= MISS_FAIL, missed >= MISS_WARN], [STATUS_FAILED, STATUS_WARN], STATUS_OK
    ).astype(object)


def _gateway_status(silent_s: np.ndarray) -> np.ndarray:
    """The gateway-silence rule: FAILED after GATEWAY_SILENCE_MIN unheard."""
    return np.where(silent_s >= GATEWAY_SILENCE_MIN * 60, STATUS_FAILED, STATUS_OK).astype(object)


def _last_at(ts: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(seen, index) of the last of the sorted ``ts`` at or before each
    grid instant; index 0 where nothing was seen yet."""
    i = np.searchsorted(ts, grid, side="right") - 1
    return i >= 0, np.maximum(i, 0)


def _prev(status: np.ndarray) -> np.ndarray:
    """Each row's status one sweep earlier; OK before the first sweep."""
    return np.concatenate([np.full((len(status), 1), STATUS_OK, dtype=object), status[:, :-1]], axis=1)


def _rows(city: str, kind: str, ids: np.ndarray, seen: np.ndarray, grid: np.ndarray, **cols):
    """(node × instant) matrices → one row per instant a twin exists."""
    m = seen.ravel()
    ts, node_id = np.tile(grid, len(ids))[m], np.repeat(ids, len(grid))[m]
    head = {"ts": ts, "city": city, "kind": kind, "node_id": node_id}
    return pd.DataFrame(head | {k: v.ravel()[m] for k, v in cols.items()})


def _walk_city(pdf: pd.DataFrame, every_min: int) -> pd.DataFrame:
    """Every twin of one city (uplinks plus broadcast _start/_end) at
    every sweep instant. Gateway arrays end with a never-heard row: a
    sensor with no primary gateway (index -1) reads NULL state there."""
    grid = pd.date_range(pdf["_start"].iloc[0], pdf["_end"].iloc[0], freq=f"{every_min}min").to_numpy()
    n, col = len(grid), np.arange(len(grid))

    # Gateway twins: silence since the last reception.
    heard = pdf[["ts", "heard_by"]].explode("heard_by").dropna().sort_values("ts")
    gw_ts = {g: ts.to_numpy() for g, ts in heard.groupby("heard_by")["ts"]}
    gws = np.array(sorted(gw_ts) + [None], dtype=object)  # modal ties go to the smallest id
    g_seen, g_last = np.zeros((len(gws), n), bool), np.tile(grid, (len(gws), 1))
    for k, g in enumerate(gws[:-1]):
        g_seen[k], i = _last_at(gw_ts[g], grid)
        g_last[k] = gw_ts[g][i]
    g_silent_s = (grid - g_last) // np.timedelta64(1, "s")
    g_status = _gateway_status(g_silent_s)
    g_status[~g_seen], g_status[-1] = STATUS_OK, None

    # Sensor twins: missed cycles since the last packet, at that packet's
    # declared interval; primary gateway = running modal best gateway.
    sensors = pdf.sort_values(["sensor_id", "ts"]).groupby("sensor_id", sort=True)
    ids = np.array(list(sensors.groups), dtype=object)
    seen, last = np.zeros((len(ids), n), bool), np.empty((len(ids), n), grid.dtype)
    interval, primary = np.empty((len(ids), n)), np.full((len(ids), n), -1)
    for k, (_, p) in enumerate(sensors):
        ts, best = p["ts"].to_numpy(), p["best_gateway"].to_numpy()
        seen[k], i = _last_at(ts, grid)
        last[k], interval[k] = ts[i], p["interval_min"].to_numpy()[i]
        votes = np.zeros((len(p), len(gws)), np.int64)
        votes[np.flatnonzero(pd.notna(best)), np.searchsorted(gws[:-1], best[pd.notna(best)])] = 1
        votes = votes.cumsum(axis=0)[i]
        primary[k] = np.where(votes.max(axis=1) > 0, votes.argmax(axis=1), -1)
    missed = np.floor((grid - last) // np.timedelta64(1, "s") / (interval * 60)).astype(np.int64)
    status = _sensor_status(missed)
    status[~seen], primary[~seen] = STATUS_OK, -1

    # Supervisor level: each gateway's dependents, and each FAILED
    # sensor's verdict from its primary gateway's twin.
    failed = status == STATUS_FAILED
    on = primary[None] == np.arange(len(gws) - 1)[:, None, None]  # gateway × sensor × instant
    no_gw = np.full((1, n), np.nan)  # the never-heard row
    deps = np.vstack([on.sum(axis=1), no_gw])
    deps_failed = np.vstack([(on & failed).sum(axis=1), no_gw])
    s_deps, s_deps_failed = deps[primary, col], deps_failed[primary, col]
    outage = (g_status[primary, col] == STATUS_FAILED) & (s_deps_failed >= s_deps * OUTAGE_DEPENDENT_FRACTION)
    # A gateway silent for one of the sensor's own cycles may be why
    # the sensor is silent; its twin has not decided yet.
    pending = g_silent_s[primary, col] >= interval * 60
    kind = np.select([~failed, outage, pending], [None, KIND_GATEWAY, KIND_PENDING], KIND_SENSOR)

    # Columns as in TIMELINE_SCHEMA; gateway rows leave sensor-only ones NULL.
    city = pdf["city"].iloc[0]
    sensor_rows = _rows(
        city, "sensor", ids, seen, grid, last_seen=last, interval_min=interval, missed_cycles=missed,
        status=status, prev_status=_prev(status), primary_gateway=gws[primary],
        gateway_status=g_status[primary, col], dependents=s_deps, dependents_failed=s_deps_failed,
        failure_kind=kind,
    )
    gateway_rows = _rows(
        city, "gateway", gws[:-1], g_seen[:-1], grid, last_seen=g_last[:-1], status=g_status[:-1],
        prev_status=_prev(g_status[:-1]), dependents=deps[:-1], dependents_failed=deps_failed[:-1],
    )
    return pd.concat([sensor_rows, gateway_rows], ignore_index=True)


def timeline(uplinks: DataFrame, *, start, end, every_min: int = 5) -> DataFrame:
    """Every sensor and gateway twin at every sweep instant in [start, end].

    One row per (instant ``ts``, twin) from the twin's first packet on:
    ``kind`` (``sensor`` | ``gateway``), ``node_id``, ``city``,
    ``last_seen``, ``status``, ``prev_status`` (one sweep earlier; OK
    before the first), ``dependents`` and ``dependents_failed`` (for a
    sensor: its primary gateway's). Sensor rows add ``interval_min``
    (declared by the last packet), ``missed_cycles`` = ⌊(ts − last_seen)
    / interval⌋, ``primary_gateway`` (modal best gateway so far, ties to
    the smallest id), its ``gateway_status``, and for FAILED sensors the
    :mod:`repro.dataport.hierarchy` ``failure_kind``. One
    ``applyInPandas`` walk per city, as every gateway serves one city.
    Uplinks without a ``ts`` are ignored; one without a ``sensor_id``
    still shows its gateways alive.
    """
    hist = uplinks.filter(F.col("ts") <= F.lit(end)).select(
        "sensor_id", "city", "ts", "interval_min", "best_gateway",
        F.col("gateways.gtw_id").alias("heard_by"),
        F.lit(start).cast("timestamp").alias("_start"),
        F.lit(end).cast("timestamp").alias("_end"),
    )
    return hist.groupBy("city").applyInPandas(lambda pdf: _walk_city(pdf, every_min), TIMELINE_SCHEMA)


def packet_gaps(uplinks: DataFrame) -> DataFrame:
    """Historical per-packet gap analysis ("missing data patterns").

    For each uplink: gap to the previous one from the same sensor, the
    previous packet's self-declared interval, and the number of
    *missed* cycles in between (round(gap/interval) − 1 ≥ 0). Also
    surfaces counter discontinuities (``lost_frames``) from the LoRaWAN
    frame counter — packets lost in the air leave counter holes even
    when the time gap is within tolerance.
    """
    w = Window.partitionBy("sensor_id").orderBy("ts")
    gap_s = F.unix_timestamp("ts") - F.unix_timestamp(F.lag("ts").over(w))
    prev_int = F.lag("interval_min").over(w)
    prev_cnt = F.lag("f_cnt").over(w)
    return (
        uplinks.select("sensor_id", "city", "ts", "f_cnt", "interval_min")
        .withColumn("gap_min", gap_s / 60.0)
        .withColumn("prev_interval_min", prev_int)
        .withColumn(
            "missed_cycles",
            F.greatest(
                F.round(F.col("gap_min") / F.col("prev_interval_min")) - 1, F.lit(0)
            ).cast("long"),
        )
        .withColumn("lost_frames", (F.col("f_cnt") - prev_cnt - 1).cast("long"))
    )

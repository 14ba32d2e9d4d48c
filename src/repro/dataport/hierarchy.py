"""Hierarchical failure classification.

§2.3: "Actors are organized hierarchically. On higher levels, failures
can be grouped so that for example a distinction can be drawn between
sensor failures versus a gateway outage that would make a set of
sensors invisible."

At an evaluation instant each FAILED sensor twin consults its
*primary gateway*'s twin (see :func:`repro.dataport.twins.timeline`,
which applies the rule at every sweep instant):

* the gateway is itself FAILED (silent for ``GATEWAY_SILENCE_MIN``)
  and at least ``OUTAGE_DEPENDENT_FRACTION`` of its dependents are
  FAILED → ``gateway_outage``;
* otherwise, the gateway has heard nothing for one of the sensor's
  declared intervals → ``pending``: a city-wide outage silences the
  sensors before the gateway twin's longer silence threshold is
  reached, so blaming the sensor then would be premature;
* otherwise → ``sensor_failure``.

"Dependents" of a gateway are sensors for which it is the modal best
gateway. A sensor with healthy multi-gateway coverage survives a
gateway outage (another gateway still hears it), so only
single-coverage sensors go dark — exactly the confusion the hierarchy
resolves.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.dataport import twins
from repro.dataport.twins import KIND_GATEWAY, KIND_PENDING, KIND_SENSOR  # noqa: F401


def classify(uplinks: DataFrame, at) -> DataFrame:
    """Classify every FAILED sensor twin at instant ``at``.

    Returns sensor_id, city, primary_gateway, missed_cycles,
    gateway_status, dependents, dependents_failed, failure_kind.
    """
    return twins.timeline(uplinks, start=at, end=at).filter(
        (F.col("kind") == "sensor") & (F.col("status") == twins.STATUS_FAILED)
    ).select(
        F.col("node_id").alias("sensor_id"), "city", "primary_gateway", "missed_cycles",
        "gateway_status", "dependents", "dependents_failed", "failure_kind",
    )


def network_graph(uplinks: DataFrame) -> tuple[DataFrame, DataFrame]:
    """Nodes and live links for the Fig 3 network visualization.

    Returns (nodes, edges): nodes are sensors and gateways with last
    activity; edges are (sensor, gateway) pairs with packet counts and
    mean RSSI — "the structure of digital twins for sensors and
    gateways, their location, the connections and live data
    transmission" (§2.3).
    """
    exploded = uplinks.select(
        "sensor_id", "city", "ts", F.explode("gateways").alias("g")
    ).select(
        "sensor_id", "city", "ts",
        F.col("g.gtw_id").alias("gateway_id"),
        F.col("g.rssi").alias("rssi"),
    )
    edges = exploded.groupBy("sensor_id", "gateway_id", "city").agg(
        F.count(F.lit(1)).alias("packets"),
        F.round(F.avg("rssi"), 1).alias("rssi_avg"),
        F.max("ts").alias("last_ts"),
    )
    sensors = uplinks.groupBy("sensor_id", "city").agg(
        F.max("ts").alias("last_ts"), F.count(F.lit(1)).alias("packets")
    ).select(
        F.col("sensor_id").alias("node_id"),
        F.lit("sensor").alias("kind"),
        "city", "last_ts", "packets",
    )
    gws = exploded.groupBy("gateway_id", "city").agg(
        F.max("ts").alias("last_ts"), F.count(F.lit(1)).alias("packets")
    ).select(
        F.col("gateway_id").alias("node_id"),
        F.lit("gateway").alias("kind"),
        "city", "last_ts", "packets",
    )
    return sensors.unionByName(gws), edges

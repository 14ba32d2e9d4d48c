"""Digital-twin state read from the timeline: sensor twins, gateway
twins; and packet gaps."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.dataport import twins
from repro.iot import deployment as dep
from repro.oracle import assert_equivalent

H = lambda h: dep.SIM_START + pd.Timedelta(hours=h)


def snapshot(world, at, kind):
    """Twin states of ``kind`` at instant ``at``: a one-instant timeline."""
    return twins.timeline(world.uplinks, start=at, end=at).filter(F.col("kind") == kind)


class TestSensorTwins:
    def test_all_sensors_tracked(self, world):
        assert snapshot(world, H(24), "sensor").count() == 14

    def test_healthy_twin_ok(self, world):
        row = snapshot(world, H(24), "sensor").filter("node_id = 'T-00'").first()
        assert row["status"] == "OK"
        assert row["missed_cycles"] <= 1
        assert row["interval_min"] == 5.0

    def test_dead_sensor_failed(self, world):
        # T-03 dies at hour 30.
        row = snapshot(world, H(33), "sensor").filter("node_id = 'T-03'").first()
        assert row["status"] == "FAILED"
        assert row["missed_cycles"] >= twins.MISS_FAIL

    def test_before_death_ok(self, world):
        st = snapshot(world, H(29), "sensor").filter("node_id = 'T-03'")
        assert st.first()["status"] == "OK"

    def test_last_seen_matches_oracle(self, spark_utc, world):
        got = snapshot(world, H(24), "sensor").select(
            F.col("node_id").alias("sensor_id"), "last_seen"
        )
        up = world.uplinks.select("sensor_id", "ts").toPandas()
        assert_equivalent(
            got,
            """
            SELECT sensor_id, max(ts) AS last_seen FROM up
            WHERE ts <= TIMESTAMP '2017-01-02 00:00:00'
            GROUP BY sensor_id
            """,
            up=up,
        )

    def test_status_thresholds(self):
        # The missed-cycle rule is applied inside the timeline walk; pin it.
        assert twins.MISS_WARN == 2 and twins.MISS_FAIL == 4

    def test_primary_gateway_is_modal_oracle(self, spark_utc, world):
        # Running modal best gateway, ties to the smallest id.
        got = snapshot(world, H(24), "sensor").select(
            F.col("node_id").alias("sensor_id"), "primary_gateway"
        )
        up = world.uplinks.select("sensor_id", "ts", "best_gateway").toPandas()
        assert_equivalent(
            got,
            """
            SELECT sensor_id, best_gateway AS primary_gateway FROM (
                SELECT sensor_id, best_gateway, row_number() OVER (
                    PARTITION BY sensor_id ORDER BY count(*) DESC, best_gateway
                ) AS r
                FROM up WHERE ts <= TIMESTAMP '2017-01-02 00:00:00'
                GROUP BY sensor_id, best_gateway
            ) WHERE r = 1
            """,
            up=up,
        )


class TestGatewayTwins:
    def test_all_gateways_tracked(self, world):
        assert snapshot(world, H(24), "gateway").count() == 5

    def test_outage_detected(self, world):
        # gw-tr-1 is down hours 26–32.
        row = snapshot(world, H(29), "gateway").filter("node_id = 'gw-tr-1'").first()
        assert row["status"] == "FAILED"
        silent_min = (row["ts"] - row["last_seen"]).total_seconds() / 60
        assert silent_min >= twins.GATEWAY_SILENCE_MIN

    def test_recovers_after_outage(self, world):
        gt = snapshot(world, H(35), "gateway").filter("node_id = 'gw-tr-1'")
        assert gt.first()["status"] == "OK"

    def test_healthy_gateway_ok(self, world):
        gt = snapshot(world, H(29), "gateway").filter("node_id = 'gw-tr-0'")
        assert gt.first()["status"] == "OK"

    def test_dependents_partition_sensors(self, world):
        # Every sensor depends on exactly one gateway of its own city.
        tl = twins.timeline(world.uplinks, start=H(24), end=H(24)).toPandas()
        sensors, gws = tl[tl["kind"] == "sensor"], tl[tl["kind"] == "gateway"]
        per_gw = sensors.groupby("primary_gateway").size()
        assert gws.set_index("node_id")["dependents"].sum() == len(sensors)
        assert (gws.set_index("node_id")["dependents"].reindex(per_gw.index) == per_gw).all()
        assert gws.set_index("node_id").loc["gw-tr-0", "dependents"] >= 5  # most of the city


class TestPacketGaps:
    def test_gap_nonnegative(self, world):
        gaps = twins.packet_gaps(world.uplinks)
        assert gaps.filter("gap_min < 0").count() == 0

    def test_death_leaves_no_gap_rows_after(self, world):
        gaps = twins.packet_gaps(world.uplinks).filter("sensor_id = 'T-03'")
        assert gaps.agg(F.max("ts").alias("m")).collect()[0]["m"] < H(30.2)

    def test_missed_cycles_mostly_zero(self, world):
        gaps = twins.packet_gaps(world.uplinks)
        frac = gaps.filter("missed_cycles > 0").count() / gaps.count()
        assert frac < 0.12  # ~2–4 % radio loss + outage windows

    def test_lost_frames_match_counter_holes_oracle(self, spark_utc, world):
        got = (
            twins.packet_gaps(world.uplinks)
            .filter("lost_frames IS NOT NULL")
            .groupBy("sensor_id")
            .agg(F.sum("lost_frames").alias("lost"))
        )
        up = world.uplinks.select("sensor_id", "f_cnt").toPandas()
        assert_equivalent(
            got,
            """
            SELECT sensor_id, (max(f_cnt) - min(f_cnt) + 1 - count(*)) AS lost
            FROM up GROUP BY sensor_id
            """,
            up=up,
        )

    def test_outage_visible_as_gateway_silence_not_sensor_gap(self, world):
        # Trondheim sensors keep delivering through gw-tr-1's outage
        # thanks to overlapping coverage: no mass gap at hours 26–32.
        gaps = twins.packet_gaps(world.uplinks).filter(
            (F.col("ts") >= F.lit(H(26))) & (F.col("ts") < F.lit(H(32)))
            & (F.col("city") == "trondheim")
        )
        big = gaps.filter("missed_cycles >= 4").count()
        assert big == 0

"""Parse + validate transformations, with DuckDB oracle checks."""
import json
import shutil

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.ingest import etl
from repro.lorawan.network import PAYLOAD_COLS
from repro.oracle import assert_equivalent
from repro.runner import build_world
from repro.tsdb import store


#: In-range payload: every point of a well-formed message is accepted.
GOOD_PAYLOAD = {
    "co2": 420.0, "no2": 20.0, "pm10": 10.0, "pm25": 5.0, "temperature": 5.0,
    "pressure": 1010.0, "humidity": 80.0, "battery": 90.0, "interval_min": 5.0,
}


def _validated(spark, *, dev_id="X-00", time="2017-01-01T00:00:00Z",
               gateways=None, **payload):
    """One hand-built landing message, parsed and validated."""
    msg = {
        "app_id": "ctt",
        "dev_id": dev_id,
        "counter": 0,
        "city": "trondheim",
        "metadata": {
            "time": time,
            "gateways": [{"gtw_id": "gw-tr-0", "rssi": -100.0}] if gateways is None else gateways,
        },
        "payload_fields": {**GOOD_PAYLOAD, **payload},
    }
    raw = spark.createDataFrame([json.dumps(msg)], "string").select(
        F.from_json("value", etl.MESSAGE_SCHEMA).alias("m")
    ).select("m.*")
    return etl.validate(etl.explode_points(etl.parse_uplinks(raw)))


@pytest.fixture(scope="module")
def validated(world):
    return etl.validate(etl.explode_points(world.uplinks)).cache()


class TestParse:
    def test_explosion_factor(self, validated, world):
        assert validated.count() == world.n_landed * len(PAYLOAD_COLS)

    def test_points_need_no_second_landing_read(self, spark_utc, tmp_path):
        """Points and quarantined derive from the parsed uplinks, so a
        world whose uplinks are cached no longer needs its landing zone."""
        w = build_world(
            spark_utc, sf=0.001, seed=0, with_faults=False,
            work_dir=str(tmp_path), run_streaming=False,
        )
        w.uplinks.cache().count()
        shutil.rmtree(w.landing_dir)
        assert w.points.count() + w.quarantined.count() == w.n_landed * len(PAYLOAD_COLS)
        w.uplinks.unpersist()

    def test_metric_names(self, validated):
        metrics = {r["metric"] for r in validated.select("metric").distinct().collect()}
        assert metrics == set(etl.METRIC_NAME.values())

    def test_timestamps_parse(self, validated):
        assert validated.filter(F.col("ts").isNull()).count() == 0

    def test_values_round_trip_oracle(self, validated, world):
        # Sum of parsed co2 values == sum over delivered original readings.
        got = (
            validated.filter(F.col("field") == "co2")
            .groupBy("sensor_id")
            .agg(F.round(F.sum("value"), 2).alias("co2_sum"))
        )
        delivered = world.receptions_pdf.drop_duplicates(
            ["sensor_id", "f_cnt"]
        )[["sensor_id", "f_cnt"]].merge(
            world.readings_pdf, on=["sensor_id", "f_cnt"]
        )
        assert_equivalent(
            got,
            "SELECT sensor_id, round(sum(co2), 2) AS co2_sum FROM d GROUP BY sensor_id",
            d=delivered[["sensor_id", "co2"]],
        )

    def test_gateway_metadata_flattened(self, validated):
        row = validated.filter(F.col("n_gateways") >= 2).first()
        assert row["best_gateway"].startswith("gw-")
        assert row["best_rssi"] <= -30.0


class TestValidate:
    def test_valid_flag_matches_ranges_oracle(self, validated):
        got = validated.groupBy("field").agg(
            F.sum(F.col("valid").cast("long")).alias("n_valid")
        )
        pdf = validated.select("field", "value").toPandas()
        ranges = pd.DataFrame(
            [(k, lo, hi) for k, (lo, hi) in etl.VALID_RANGE.items()],
            columns=["field", "lo", "hi"],
        )
        assert_equivalent(
            got,
            """
            SELECT p.field, sum(
              CASE WHEN p.value IS NOT NULL AND p.value >= r.lo
                   AND p.value <= r.hi THEN 1 ELSE 0 END) AS n_valid
            FROM p JOIN r ON p.field = r.field GROUP BY p.field
            """,
            p=pdf,
            r=ranges,
        )

    def test_quarantine_complement(self, validated):
        n = validated.count()
        ok = etl.accepted_points(validated).count()
        bad = etl.quarantined_points(validated).count()
        assert ok + bad == n

    def test_accepted_shape(self, validated):
        pts = etl.accepted_points(validated)
        assert pts.columns == ["metric", "ts", "value", "sensor_id", "city"]

    def test_out_of_range_value_quarantined(self, spark_utc):
        v = _validated(spark_utc, co2=99999.0, humidity=None, temperature=50.0)
        bad = {r["field"] for r in etl.quarantined_points(v).collect()}
        assert "co2" in bad and "humidity" in bad  # out of range, null
        assert "temperature" not in bad  # 50.0 °C is the boundary: valid

    def test_world_quarantine_is_small(self, world, validated):
        frac = world.quarantined.count() / validated.count()
        assert frac < 0.02  # humidity clipping tail only


class TestMalformedEnvelope:
    """One bad message never fails the batch, and all 9 of its points
    are either accepted or quarantined."""

    def test_unparseable_time_quarantined(self, spark_utc):
        v = _validated(spark_utc, time="2017-01-01 garbage")
        assert etl.accepted_points(v).count() == 0
        assert etl.quarantined_points(v).count() == len(PAYLOAD_COLS)

    def test_empty_gateways_accounted(self, spark_utc):
        v = _validated(spark_utc, gateways=[])
        rows = v.collect()
        assert len(rows) == len(PAYLOAD_COLS)
        assert all(r["n_gateways"] == 0 and r["best_gateway"] is None for r in rows)
        n_ok, n_bad = etl.accepted_points(v).count(), etl.quarantined_points(v).count()
        assert n_ok + n_bad == len(PAYLOAD_COLS)

    def test_null_sensor_quarantined(self, spark_utc):
        v = _validated(spark_utc, dev_id=None)
        assert etl.accepted_points(v).count() == 0
        assert etl.quarantined_points(v).count() == len(PAYLOAD_COLS)


class TestUplinksBatch:
    def test_one_row_per_message(self, world):
        up = world.uplinks
        assert up.count() == world.n_landed
        assert up.select("sensor_id", "f_cnt").distinct().count() == world.n_landed

    def test_battery_and_interval_extracted(self, world):
        row = world.uplinks.first()
        assert 0 <= row["battery"] <= 100
        assert row["interval_min"] in (5.0, 10.0, 20.0)


class TestIngestBatch:
    def test_counts_and_store(self, spark_utc, world, tmp_path):
        root, quarantine = str(tmp_path / "tsdb"), str(tmp_path / "quarantine")
        counts = etl.sink(etl.read_landing_batch(spark_utc, world.landing_dir), root, quarantine)
        accepted = world.points.count()
        assert accepted > 0
        assert store.read(spark_utc, root).count() == accepted
        quarantined = spark_utc.read.parquet(quarantine)
        assert quarantined.count() == world.quarantined.count()
        assert counts == {"accepted": accepted, "quarantined": world.quarantined.count()}
        assert quarantined.columns == [
            "sensor_id", "city", "ts", "f_cnt", "n_gateways", "best_gateway",
            "best_rssi", "field", "value", "metric", "valid",
        ]

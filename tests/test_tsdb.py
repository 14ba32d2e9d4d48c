"""OpenTSDB-lite store + downsampling query layer (oracle-checked)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.tsdb import query, store


@pytest.fixture(scope="module")
def root(spark_utc, world, tmp_path_factory):
    r = str(tmp_path_factory.mktemp("tsdb_root"))
    store.write(world.points, r)
    return r


@pytest.fixture(scope="module")
def points_pdf(world):
    return world.points.toPandas()


def _naive_utc(bound: str) -> pd.Timestamp:
    """``bound`` as the naive UTC timestamp the stored ``ts`` is compared in."""
    ts = pd.Timestamp(bound)
    return ts.tz_convert("UTC").tz_localize(None) if ts.tzinfo else ts


class TestStore:
    def test_round_trip_count(self, spark_utc, world, root):
        assert store.read(spark_utc, root).count() == world.points.count()

    def test_metric_filter(self, spark_utc, world, root):
        got = store.read(spark_utc, root, metric="air.no2").count()
        want = world.points.filter("metric = 'air.no2'").count()
        assert got == want

    @pytest.mark.parametrize(
        "start, end",
        [
            ("2017-01-02", "2017-01-03"),
            # Crosses UTC midnight; start's local date (01-02) is not its UTC date.
            ("2017-01-02 00:30+01:00", "2017-01-02 06:00+01:00"),
            # Crosses UTC midnight; end's local date (01-01) is not its UTC date.
            ("2017-01-01 18:00-05:00", "2017-01-01 23:30-05:00"),
            ("2017-01-02 00:30+01:00", None),
            (None, "2017-01-01 23:30-05:00"),
        ],
    )
    def test_time_range_filter(self, spark_utc, points_pdf, root, start, end):
        got = store.read(spark_utc, root, start=start, end=end)
        lo, hi = _naive_utc(start or "1970-01-01"), _naive_utc(end or "2100-01-01")
        assert_equivalent(
            got,
            f"SELECT * FROM pts WHERE ts >= TIMESTAMP '{lo}' AND ts < TIMESTAMP '{hi}'",
            pts=points_pdf,
        )

    def test_tag_filters(self, spark_utc, world, root):
        got = store.read(spark_utc, root, sensor_id="V-00", city="vejle").count()
        want = world.points.filter("sensor_id = 'V-00'").count()
        assert got == want

    def test_missing_columns_rejected(self, spark_utc, world, tmp_path):
        with pytest.raises(ValueError, match="missing columns"):
            store.write(world.points.drop("city"), str(tmp_path / "bad"))

    def test_append_mode(self, spark_utc, world, tmp_path):
        r = str(tmp_path / "appendable")
        small = world.points.limit(100)
        store.write(small, r)
        store.write(small, r)
        assert store.read(spark_utc, r).count() == 200


class TestDownsample:
    def test_parse_spec(self):
        assert query.parse_downsample("1h-avg") == ("1 hours", "avg")
        assert query.parse_downsample("15m-max") == ("15 minutes", "max")
        assert query.parse_downsample("1d-count") == ("1 days", "count")

    @pytest.mark.parametrize("bad", ["1x-avg", "h-avg", "1h-median", "nope", "1h"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            query.parse_downsample(bad)

    def test_hourly_avg_oracle(self, spark_utc, world, root):
        pts = store.read(spark_utc, root, metric="air.co2", sensor_id="T-00")
        got = query.downsample(pts, "1h-avg").select(
            "bucket", "sensor_id", F.round("value", 4).alias("value")
        )
        assert_equivalent(
            got,
            """
            SELECT date_trunc('hour', ts) AS bucket, sensor_id,
                   round(avg(value), 4) AS value
            FROM pts GROUP BY 1, 2
            """,
            pts=pts.toPandas(),
        )

    def test_daily_max_oracle(self, spark_utc, world, root):
        pts = store.read(spark_utc, root, metric="air.pm10")
        got = query.downsample(pts, "1d-max").select(
            "bucket", "sensor_id", F.round("value", 4).alias("value")
        )
        assert_equivalent(
            got,
            """
            SELECT date_trunc('day', ts) AS bucket, sensor_id,
                   round(max(value), 4) AS value
            FROM pts GROUP BY 1, 2
            """,
            pts=pts.toPandas(),
        )

    def test_count_oracle(self, spark_utc, world, root):
        pts = store.read(spark_utc, root, metric="node.battery", city="vejle")
        got = query.downsample(pts, "6h-count", by=("city",)).select(
            "bucket", "city", F.col("value").cast("long").alias("value")
        )
        assert_equivalent(
            got,
            """
            SELECT time_bucket(INTERVAL '6 hours', ts) AS bucket, city,
                   count(value) AS value
            FROM pts GROUP BY 1, 2
            """,
            pts=pts.toPandas(),
        )

    def test_series_ordered(self, spark_utc, root):
        pts = store.read(spark_utc, root, metric="air.no2", sensor_id="T-01")
        s = query.series(pts, "1h-avg").toPandas()
        assert s["bucket"].is_monotonic_increasing

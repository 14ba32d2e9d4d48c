"""CTT dataset entry points and the DuckDB oracle."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.external import herecom, municipal, nilu
from repro.iot import deployment, sensor
from repro.oracle import assert_equivalent


class TestCttReexports:
    """The CTT generators in repro.iot and repro.external."""

    def test_sensor_readings(self):
        pdf = sensor.simulate_readings_pdf(sf=0.005)
        assert pdf["sensor_id"].nunique() == 14

    def test_registries(self, spark_utc):
        assert deployment.sensors(spark_utc).count() == 14
        assert deployment.gateways(spark_utc).count() == 5
        assert deployment.stations(spark_utc).count() == 2
        assert deployment.road_links(spark_utc).count() == 7

    def test_external_feeds(self, spark_utc):
        assert nilu.observations(spark_utc, sf=0.005).count() > 0
        assert herecom.feed(spark_utc, sf=0.005).count() > 0
        assert municipal.counts(spark_utc, sf=0.005).count() > 0


#: A small table for the oracle's own tests.
T = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})


class TestOracle:
    def test_detects_wrong_result(self, spark_utc):
        wrong = spark_utc.createDataFrame(T).agg((F.sum("v") + 1).alias("s"))
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, "SELECT sum(v) AS s FROM t", t=T)

    def test_detects_column_mismatch(self):
        got = pd.DataFrame({"total": [T["v"].sum()]})
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(got, "SELECT sum(v) AS s FROM t", t=T)

    def test_accepts_pandas_tables(self, spark_utc):
        got = spark_utc.createDataFrame(T).groupBy("k").agg(F.sum("v").alias("s"))
        assert_equivalent(got, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=T)

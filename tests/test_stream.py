"""Structured Streaming ingestion: streaming == batch, live aggregates."""
import os

from pyspark.sql import functions as F

from repro.ingest import stream
from repro.oracle import assert_equivalent
from repro.tsdb import store


class TestStreamingIngest:
    def test_tsdb_written(self, spark_utc, piperes):
        pts = spark_utc.read.parquet(piperes["tsdb_root"])
        assert pts.count() > 0

    def test_streaming_equals_batch(self, spark_utc, world, piperes):
        streamed = spark_utc.read.parquet(piperes["tsdb_root"]).select(*store.POINT_COLUMNS)
        batch = world.points.select(*store.POINT_COLUMNS)
        assert streamed.count() == batch.count()
        assert streamed.exceptAll(batch).count() == 0
        assert batch.exceptAll(streamed).count() == 0

    def test_partitioned_by_metric_and_date(self, piperes):
        entries = os.listdir(piperes["tsdb_root"])
        assert any(e.startswith("metric=") for e in entries)
        m0 = [e for e in entries if e.startswith("metric=")][0]
        sub = os.listdir(os.path.join(piperes["tsdb_root"], m0))
        assert any(e.startswith("date=") for e in sub)

    def test_quarantine_written(self, spark_utc, piperes, world):
        q = spark_utc.read.parquet(piperes["quarantine_dir"])
        assert q.count() == world.quarantined.count()

    def test_checkpoint_makes_rerun_a_noop(self, spark_utc, world, piperes, tmp_path_factory):
        before = spark_utc.read.parquet(piperes["tsdb_root"]).count()
        q = stream.start_ingest(
            spark_utc,
            world.landing_dir,
            piperes["tsdb_root"],
            os.path.join(os.path.dirname(piperes["tsdb_root"]), "ckpt_ingest"),
            quarantine_dir=piperes["quarantine_dir"],
        )
        q.awaitTermination(300)
        after = spark_utc.read.parquet(piperes["tsdb_root"]).count()
        assert after == before  # exactly-once within a checkpoint


class TestLiveAggregate:
    def test_rows_emitted(self, spark_utc, piperes):
        agg = spark_utc.read.parquet(piperes["live_agg_dir"])
        assert agg.count() > 0
        assert {"bucket", "sensor_id", "metric", "value_avg", "n"} <= set(agg.columns)

    def test_closed_windows_match_batch_oracle(self, spark_utc, world, piperes):
        """Every window the streaming job emitted must equal the batch
        aggregate over the same data (append mode only emits windows the
        watermark has closed, so compare on emitted windows only)."""
        agg = spark_utc.read.parquet(piperes["live_agg_dir"]).filter(
            F.col("metric") == "air.co2"
        )
        got = agg.select("bucket", "sensor_id", F.round("value_avg", 4).alias("v"), "n")
        batch_pts = (
            world.points.filter(F.col("metric") == "air.co2")
            .select("sensor_id", "ts", "value")
            .toPandas()
        )
        emitted = agg.select("bucket", "sensor_id").toPandas()
        assert_equivalent(
            got,
            """
            WITH b AS (
              SELECT sensor_id, date_trunc('hour', ts) AS bucket,
                     round(avg(value), 4) AS v, count(*) AS n
              FROM pts GROUP BY 1, 2
            )
            SELECT b.bucket, b.sensor_id, b.v, b.n
            FROM b JOIN emitted e
              ON b.sensor_id = e.sensor_id AND b.bucket = e.bucket
            """,
            pts=batch_pts,
            emitted=emitted,
        )

    def test_watermark_drops_tail_windows(self, spark_utc, world, piperes):
        # The last event-time hour cannot be emitted in append mode.
        agg = spark_utc.read.parquet(piperes["live_agg_dir"])
        max_bucket = agg.agg(F.max("bucket").alias("m")).collect()[0]["m"]
        max_ts = world.points.agg(F.max("ts").alias("m")).collect()[0]["m"]
        assert max_bucket < max_ts

"""Structured Streaming ingestion: streaming == batch, live aggregates."""
import os

from pyspark.sql import functions as F

from repro.ingest import stream
from repro.lorawan.network import PAYLOAD_COLS
from repro.oracle import assert_equivalent
from repro.runner import build_world
from repro.tsdb import store


class TestStreamingIngest:
    def test_tsdb_written(self, spark_utc, piperes):
        pts = store.read(spark_utc, piperes["tsdb_root"])
        assert pts.count() > 0

    def test_streaming_equals_batch(self, spark_utc, world, piperes):
        streamed = store.read(spark_utc, piperes["tsdb_root"])
        batch = world.points
        assert streamed.count() == batch.count()
        assert streamed.exceptAll(batch).count() == 0
        assert batch.exceptAll(streamed).count() == 0

    def test_read_prunes_metric_and_pushes_ts_bounds(self, spark_utc, piperes, capsys):
        root = piperes["tsdb_root"]
        got = store.read(
            spark_utc, root, metric="air.no2", start="2017-01-01 12:00", end="2017-01-02 12:00"
        )
        got.explain()
        scan = next(line for line in capsys.readouterr().out.splitlines() if "FileScan" in line)
        partition_filters = scan.split("PartitionFilters: ")[1].split("]")[0]
        pushed_filters = scan.split("PushedFilters: ")[1].split("]")[0]
        assert "air.no2" in partition_filters
        assert "GreaterThanOrEqual(ts,2017-01-01 12:00:00" in pushed_filters
        assert "LessThan(ts,2017-01-02 12:00:00" in pushed_filters
        assert_equivalent(
            got,
            f"""
            SELECT * FROM read_parquet('{root}/**/*.parquet', hive_partitioning = true)
            WHERE metric = 'air.no2'
              AND ts >= TIMESTAMP '2017-01-01 12:00:00' AND ts < TIMESTAMP '2017-01-02 12:00:00'
            """,
        )

    def test_quarantine_written(self, spark_utc, piperes, world):
        q = spark_utc.read.parquet(piperes["quarantine_dir"])
        assert q.count() == world.quarantined.count()

    def test_checkpoint_makes_rerun_a_noop(self, spark_utc, world, piperes, tmp_path_factory):
        before = store.read(spark_utc, piperes["tsdb_root"]).count()
        q = stream.start_ingest(
            spark_utc,
            world.landing_dir,
            piperes["tsdb_root"],
            os.path.join(os.path.dirname(piperes["tsdb_root"]), "ckpt_ingest"),
            quarantine_dir=piperes["quarantine_dir"],
        )
        q.awaitTermination(300)
        after = store.read(spark_utc, piperes["tsdb_root"]).count()
        assert after == before  # exactly-once within a checkpoint


def test_streaming_world_reads_back_what_ingest_wrote(spark_utc, tmp_path):
    w = build_world(spark_utc, sf=0.001, work_dir=str(tmp_path), run_streaming=True)
    assert w.points.columns == store.POINT_COLUMNS
    assert w.points.count() + w.quarantined.count() == w.n_landed * len(PAYLOAD_COLS)


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

"""E4 — §3 deployment facts: the end-to-end streaming ETL.

12+2 sensors at a 5-minute interval through LoRaWAN → TTN → MQTT →
Structured Streaming → TSDB. Reports per-city packet accounting (sent /
delivered / lost / duplication), ingest acceptance/quarantine, and
wall-clock ingest throughput, timed apart from the live aggregate.
Run: spark-submit jobs/e4_pipeline.py [sf].
"""
import os
import sys
import time

import pandas as pd

from repro.ingest import stream
from repro.lorawan import network
from repro.lorawan.network import PAYLOAD_COLS
from repro.runner import build_world, get_spark, print_table
from repro.tsdb import store


def run(spark, *, sf: float = 0.05, seed: int = 0) -> dict:
    w = build_world(spark, sf=sf, seed=seed, with_faults=True, run_streaming=False)
    work = os.path.join(w.work_dir, "stream")
    tsdb_root, quarantine, live_agg = (
        os.path.join(work, d) for d in ("tsdb", "quarantine", "live_agg")
    )
    # One query at a time: the ingest rate must not share cores with the live aggregate.
    t0 = time.perf_counter()
    q = stream.start_ingest(
        spark, w.landing_dir, tsdb_root, os.path.join(work, "ckpt_ingest"),
        quarantine_dir=quarantine,
    )
    assert q.awaitTermination(stream.QUERY_TIMEOUT_S)
    ingest_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    q = stream.start_live_aggregate(spark, w.landing_dir, live_agg, os.path.join(work, "ckpt_agg"))
    assert q.awaitTermination(stream.QUERY_TIMEOUT_S)
    live_agg_s = time.perf_counter() - t0
    n_pts = store.read(spark, tsdb_root).count()
    n_quar = spark.read.parquet(quarantine).count()
    n_live = spark.read.parquet(live_agg).count()

    acc = network.loss_accounting(w.readings_pdf, w.receptions_pdf)
    summary = pd.DataFrame(
        [
            {
                "sensors": 14,
                "interval_min": 5,
                "sim_days": len(pd.date_range(
                    w.readings_pdf["ts"].min(), w.readings_pdf["ts"].max(), freq="1D"
                )),
                "messages_landed": w.n_landed,
                "points_accepted": n_pts,
                "points_quarantined": n_quar,
                "quarantine_rate": round(n_quar / (n_pts + n_quar), 4),
                "live_agg_rows": n_live,
                "ingest_wall_s": round(ingest_s, 1),
                "points_per_s": int((n_pts + n_quar) / ingest_s),
                "live_agg_wall_s": round(live_agg_s, 1),
            }
        ]
    )
    assert n_pts + n_quar == w.n_landed * len(PAYLOAD_COLS)
    return {"accounting": acc, "summary": summary}


def main():
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    spark = get_spark("e4_pipeline")
    r = run(spark, sf=sf)
    print_table("E4 LoRaWAN packet accounting per city", r["accounting"])
    print_table("E4 streaming ETL summary", r["summary"])


if __name__ == "__main__":
    main()

"""Expected outputs, computed with DuckDB independently of Spark.

Every expectation here is derived from the landed JSON messages or the
TSDB's Parquet files with DuckDB, never from the Spark plan under test,
and is computed outside the timed part of a run.
"""
from __future__ import annotations

import glob
import os

import duckdb
import pandas as pd

from repro.ingest import etl


def _connect() -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    con.execute("SET TimeZone = 'UTC'")
    con.execute("SET threads = 1")
    return con


def _landing_points_sql(json_glob: str) -> str:
    """One row per (message, payload field) with its validity flag."""
    msgs = (
        f"read_json('{json_glob}', format = 'newline_delimited',"
        " columns = {payload_fields: 'STRUCT("
        + ", ".join(f"{c} DOUBLE" for c in etl.VALID_RANGE)
        + ")'})"
    )
    arms = [
        f"SELECT '{etl.METRIC_NAME[c]}' AS metric,"
        f" coalesce(payload_fields.{c} BETWEEN {lo} AND {hi}, false) AS valid"
        f" FROM {msgs}"
        for c, (lo, hi) in etl.VALID_RANGE.items()
    ]
    return " UNION ALL ".join(arms)


def landing_counts(landing_dir: str) -> pd.DataFrame:
    """Accepted and quarantined point counts per metric, indexed by metric."""
    sql = (
        "SELECT metric, count(*) FILTER (WHERE valid) AS accepted,"
        " count(*) FILTER (WHERE NOT valid) AS quarantined"
        f" FROM ({_landing_points_sql(os.path.join(landing_dir, '*.jsonl'))})"
        " GROUP BY ALL"
    )
    con = _connect()
    try:
        return con.execute(sql).fetchdf().set_index("metric")
    finally:
        con.close()


def _parquet_files(root: str) -> list[str]:
    return sorted(glob.glob(os.path.join(root, "**", "*.parquet"), recursive=True))


def tsdb_counts(tsdb_root: str) -> dict[str, int]:
    """Stored points per metric, read straight from the Parquet files."""
    files = _parquet_files(tsdb_root)
    if not files:
        return {}
    con = _connect()
    try:
        rows = con.execute(
            "SELECT metric, count(*) FROM read_parquet(?, hive_partitioning = true)"
            " GROUP BY metric",
            [files],
        ).fetchall()
    finally:
        con.close()
    return {m: int(n) for m, n in rows}


def parquet_rows(root: str) -> int:
    files = _parquet_files(root)
    if not files:
        return 0
    con = _connect()
    try:
        return int(con.execute("SELECT count(*) FROM read_parquet(?)", [files]).fetchone()[0])
    finally:
        con.close()


def check_backfill(tsdb_root: str, quarantine_dir: str, landing_dir: str, n_landed: int) -> None:
    """Every landed point is stored or quarantined, per metric as DuckDB finds."""
    stored = tsdb_counts(tsdb_root)
    quarantined = parquet_rows(quarantine_dir)
    n_points = sum(stored.values())
    if n_points + quarantined != n_landed * len(etl.VALID_RANGE):
        raise AssertionError(
            f"{n_points} stored + {quarantined} quarantined != {n_landed} messages"
            f" x {len(etl.VALID_RANGE)} fields"
        )
    exp = landing_counts(landing_dir)
    want = {m: int(n) for m, n in exp["accepted"].items() if n}
    if stored != want:
        raise AssertionError(f"stored points per metric {stored} != expected {want}")
    if quarantined != int(exp["quarantined"].sum()):
        raise AssertionError(
            f"{quarantined} quarantined != expected {int(exp['quarantined'].sum())}"
        )

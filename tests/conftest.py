"""Shared test fixtures: one simulated CTT world per test session.

The simulation (sensor readings → radio receptions → TTN dedup → MQTT
landing → parsed uplinks/points) is deterministic and moderately
expensive, so it is built once at session scope and shared, by the same
:func:`repro.runner.build_world` that jobs and benchmarks use (without
the streaming ingest). SF=0.008 gives a 3-day window — long enough for
the standard fault scenario (last event at hour 56) and the
daily-pattern analyses, small enough for fast tests.
"""
from __future__ import annotations

import pytest
from pyspark.sql import SparkSession

from repro.ingest import stream
from repro.runner import World, build_world

TEST_SF = 0.008
SEED = 0


def _cached_world(spark: SparkSession, work_dir: str, *, with_faults: bool) -> World:
    w = build_world(
        spark, sf=TEST_SF, seed=SEED, with_faults=with_faults,
        work_dir=work_dir, run_streaming=False,
    )
    # uplinks first: points and quarantined explode from it, so one JSON read.
    for key in ("uplinks", "points", "quarantined"):
        w[key] = w[key].cache()
    w.uplinks.count(), w.points.count()  # materialise caches once
    return w


@pytest.fixture(scope="session")
def world(spark_utc: SparkSession, tmp_path_factory) -> World:
    return _cached_world(spark_utc, str(tmp_path_factory.mktemp("world")), with_faults=True)


@pytest.fixture(scope="session")
def clean_world(spark_utc: SparkSession, tmp_path_factory) -> World:
    """A fault-free, outage-free world for tests where injected faults
    would be noise (calibration, battery, dashboards)."""
    return _cached_world(
        spark_utc, str(tmp_path_factory.mktemp("clean_world")), with_faults=False
    )


@pytest.fixture(scope="session")
def piperes(spark_utc: SparkSession, world: World, tmp_path_factory) -> dict:
    """Both streaming queries over ``world``'s landing zone, run once per session."""
    work = str(tmp_path_factory.mktemp("stream_work"))
    return stream.run_pipeline(spark_utc, world.landing_dir, work)


@pytest.fixture(scope="session")
def nilu_df(spark_utc):
    from repro.external import nilu

    return nilu.observations(spark_utc, sf=TEST_SF, seed=SEED).cache()


@pytest.fixture(scope="session")
def traffic_df(spark_utc):
    from repro.external import herecom

    return herecom.feed(spark_utc, sf=TEST_SF, seed=SEED).cache()

"""Alarm sweep: transitions, detection latency, clearing."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.dataport import alarms, twins
from repro.iot import deployment as dep
from repro.oracle import assert_equivalent

H = lambda h: dep.SIM_START + pd.Timedelta(hours=h)

#: Expected FAILED raises: for each packet, the first 5-min sweep at or
#: after it + MISS_FAIL × its interval, unless the next packet came first.
RAISE_ORACLE = f"""
    WITH p AS (
        SELECT sensor_id, epoch(ts) AS t, interval_min,
               epoch(lead(ts) OVER (PARTITION BY sensor_id ORDER BY ts)) AS next_t
        FROM up
    ), due AS (
        SELECT sensor_id, next_t,
               s0 + ceil((t + {twins.MISS_FAIL} * interval_min * 60 - s0) / 300) * 300 AS sweep
        FROM p, (SELECT epoch(TIMESTAMP '{{start}}') AS s0)
    )
    SELECT sensor_id, make_timestamp(CAST(sweep * 1000000 AS BIGINT)) AS ts FROM due
    WHERE (next_t IS NULL OR next_t > sweep) AND sweep <= epoch(TIMESTAMP '{{end}}')
"""


@pytest.fixture(scope="module")
def events(world):
    return alarms.alarm_events(
        world.uplinks, start=dep.SIM_START, end=H(71)
    ).cache()


class TestEvents:
    def test_transitions_only(self, events):
        assert events.filter("status = prev_status").count() == 0

    def test_dead_sensors_raise_failed(self, events):
        failed = {
            r["sensor_id"]
            for r in alarms.raised(events).select("sensor_id").distinct().collect()
        }
        assert {"T-03", "T-07"} <= failed

    def test_healthy_sensor_never_fails(self, events):
        # V-01 has no injected fault and Vejle's outage ends; it may WARN
        # transiently on radio loss but must not reach FAILED outside the
        # Vejle outage window (hours 50–56).
        f = alarms.raised(events).filter("sensor_id = 'V-01'")
        outside = f.filter(
            (F.col("ts") < F.lit(H(50))) | (F.col("ts") > F.lit(H(56.5)))
        )
        assert outside.count() == 0

    def test_dead_sensor_alarm_never_clears(self, events):
        after = events.filter(
            (F.col("sensor_id") == "T-03") & (F.col("ts") > F.lit(H(31)))
        )
        assert after.filter("status = 'OK'").count() == 0

    def test_outage_alarms_clear_after_recovery(self, events):
        # Vejle sensors recover once the gateways return at hour 56.
        v = events.filter(
            (F.col("sensor_id") == "V-00") & (F.col("ts") >= F.lit(H(56)))
        )
        assert v.filter("status = 'OK'").count() >= 1


class TestDetectionLatency:
    def test_deaths_detected_within_cycles(self, events, world):
        inj = pd.DataFrame(
            [
                {"sensor_id": f.sensor_id, "start": f.start}
                for f in world.faults
                if f.kind == "death"
            ]
        )
        lat = alarms.detection_latency(events, inj)
        assert lat["detected_at"].notna().all()
        # §2.3: "it takes some cycles to determine a failure with
        # certainty" — MISS_FAIL=4 cycles at 5-min cadence ⇒ ≤ ~25 min.
        assert (lat["latency_min"] <= 25).all()
        assert (lat["latency_min"] >= 10).all()
        assert (lat["latency_cycles"] <= 5).all()

    def test_raised_one_sweep_after_missing_fail_cycles_oracle(self, events, world):
        """Each FAILED raise comes at the first sweep at or after the last
        delivered packet + MISS_FAIL × that packet's declared interval."""
        assert_equivalent(
            alarms.raised(events).select("sensor_id", "ts"),
            RAISE_ORACLE.format(start="2017-01-01 00:00:00", end=H(71)),
            up=world.uplinks.select("sensor_id", "ts", "interval_min"),
        )

    def test_death_late_in_last_interval(self, spark_utc):
        # The radio lost X-00's last packets before it died (the seed 3
        # and seed 49 case): the alarm is due from the last *delivered*
        # packet, so it comes 2 cycles after the death, not 4. X-01
        # slowed to 10-min cycles before dying: 4 of those.
        t0 = pd.Timestamp("2017-01-01 00:00:00")
        m = lambda minutes: t0 + pd.Timedelta(minutes=minutes)
        rows = [("X-00", m(t), 5.0) for t in range(0, 45, 5)] + [("X-00", m(47.5), 5.0)]
        rows += [("X-01", m(t), 5.0) for t in range(0, 50, 5)] + [("X-01", m(52.5), 10.0)]
        up = spark_utc.createDataFrame(
            [(sid, "x", ts.to_pydatetime(), iv, "gw-x", [("gw-x", -90.0)]) for sid, ts, iv in rows],
            "sensor_id string, city string, ts timestamp, interval_min double, "
            "best_gateway string, gateways array<struct<gtw_id:string, rssi:double>>",
        )
        ev = alarms.alarm_events(up, start=t0, end=m(180))
        deaths = pd.DataFrame([{"sensor_id": s, "start": m(60)} for s in ("X-00", "X-01")])
        lat = alarms.detection_latency(ev, deaths)
        # 00:47:30 + 4 × 5 min → the 01:10 sweep; 00:52:30 + 4 × 10 min → 01:35.
        assert lat["detected_at"].tolist() == [m(70), m(95)]
        assert lat["latency_cycles"].tolist() == [2.0, 7.0]
        assert_equivalent(
            alarms.raised(ev).select("sensor_id", "ts"),
            RAISE_ORACLE.format(start=t0, end=m(180)),
            up=up.select("sensor_id", "ts", "interval_min"),
        )

    def test_latency_matches_loop_reference(self, events):
        # The per-row loop detection_latency used to be, kept as reference:
        # each injected row takes its sensor's first FAILED raise at or after it.
        inj = pd.DataFrame(
            [{"sensor_id": s, "start": H(h)} for s, h in
             [("T-03", 0), ("T-03", 31), ("T-07", 39), ("T-07", 200), ("V-00", 49), ("T-00", 1)]],
            index=[5, 3, 8, 1, 0, 2],
        )
        got = alarms.detection_latency(events, inj)
        raises = alarms.raised(events).select("sensor_id", "ts").toPandas()
        want = [
            raises.loc[(raises["sensor_id"] == r["sensor_id"]) & (raises["ts"] >= r["start"]), "ts"].min()
            for _, r in inj.iterrows()
        ]
        assert list(got.index) == list(inj.index)
        assert got["detected_at"].tolist() == pd.Series(want, dtype="datetime64[ns]").tolist()

    def test_undetected_gives_nat(self, events):
        inj = pd.DataFrame([{"sensor_id": "T-00", "start": H(200)}])
        lat = alarms.detection_latency(events, inj)
        assert lat["detected_at"].isna().all()

"""Packet transport: receptions, TTN dedup, loss accounting."""
import pandas as pd
import pytest

from repro.iot import deployment as dep
from repro.lorawan import network
from repro.oracle import assert_equivalent


class TestReceptions:
    def test_subset_of_sent(self, world):
        sent = set(map(tuple, world.readings_pdf[["sensor_id", "f_cnt"]].to_numpy()))
        got = set(map(tuple, world.receptions_pdf[["sensor_id", "f_cnt"]].to_numpy()))
        assert got <= sent

    def test_loss_is_bounded(self, world):
        acc = network.loss_accounting(world.readings_pdf, world.receptions_pdf)
        assert (acc["loss_rate"] < 0.15).all()
        assert (acc["loss_rate"] > 0.0).all()  # some loss is realistic

    def test_multi_gateway_duplication(self, world):
        acc = network.loss_accounting(world.readings_pdf, world.receptions_pdf)
        tr = acc[acc["city"] == "trondheim"].iloc[0]
        assert tr["dup_factor"] > 1.3  # overlapping coverage

    def test_gateway_city_consistency(self, world):
        gw = dep.gateways_pdf().set_index("gateway_id")["city"]
        rec = world.receptions_pdf
        assert (rec["gateway_id"].map(gw) == rec["city"]).all()

    def test_outage_suppresses_receptions(self, world):
        o = world.outages[0]
        rec = world.receptions_pdf
        during = rec[
            (rec["gateway_id"] == o.gateway_id)
            & (rec["ts"] >= o.start)
            & (rec["ts"] < o.end)
        ]
        assert len(during) == 0
        before = rec[(rec["gateway_id"] == o.gateway_id) & (rec["ts"] < o.start)]
        assert len(before) > 0

    def test_deterministic(self, world):
        again = network.receptions_pdf(
            world.readings_pdf, outages=world.outages, seed=0
        )
        pd.testing.assert_frame_equal(world.receptions_pdf, again)


class TestTTNDedup:
    @pytest.fixture(scope="class")
    def dedup(self, world):
        return network.ttn_dedup(world.receptions_pdf)

    def test_one_row_per_uplink(self, dedup):
        assert not dedup.duplicated(["sensor_id", "f_cnt"]).any()

    def test_keeps_best_rssi(self, dedup):
        for gws in dedup.loc[dedup["n_gateways"] >= 2, "gateways"]:
            rssis = [g["rssi"] for g in gws]
            assert rssis == sorted(rssis, reverse=True)

    def test_count_matches_distinct_uplinks_oracle(self, dedup, world):
        got = dedup.groupby("city").size().rename("uplinks").reset_index()
        assert_equivalent(
            got,
            """
            SELECT city, count(*) AS uplinks FROM (
              SELECT DISTINCT city, sensor_id, f_cnt FROM rec
            ) GROUP BY city
            """,
            rec=world.receptions_pdf[["sensor_id", "f_cnt", "city"]],
        )

    def test_n_gateways_matches_reception_rows_oracle(self, dedup, world):
        got = dedup.groupby("sensor_id")["n_gateways"].sum().rename("gw_receptions")
        assert_equivalent(
            got.reset_index(),
            "SELECT sensor_id, count(*) AS gw_receptions FROM rec GROUP BY sensor_id",
            rec=world.receptions_pdf[["sensor_id", "f_cnt"]],
        )

    def test_best_reception_oracle(self, dedup, world):
        # The best reception's full row, the receiving-gateway count and
        # the strongest-first gateway order, against a DuckDB window.
        got = dedup.drop(columns="gateways").assign(
            gateway_id=[gws[0]["gtw_id"] for gws in dedup["gateways"]],
            rssi=[gws[0]["rssi"] for gws in dedup["gateways"]],
            gw_order=["|".join(g["gtw_id"] for g in gws) for gws in dedup["gateways"]],
        )
        cols = ", ".join(world.receptions_pdf.columns)
        assert_equivalent(
            got,
            f"""
            WITH ranked AS (
              SELECT *, row_number() OVER (PARTITION BY sensor_id, f_cnt
                                           ORDER BY rssi DESC, gateway_id) AS rn
              FROM rec
            ), per_uplink AS (
              SELECT sensor_id, f_cnt, count(*) AS n_gateways,
                     string_agg(gateway_id, '|' ORDER BY rn) AS gw_order
              FROM ranked GROUP BY sensor_id, f_cnt
            )
            SELECT {cols}, n_gateways, gw_order
            FROM ranked JOIN per_uplink USING (sensor_id, f_cnt) WHERE rn = 1
            """,
            rec=world.receptions_pdf,
        )

    def test_equal_rssi_breaks_ties_by_gateway_id(self, world):
        uplink = world.receptions_pdf.iloc[[0]].drop(columns=["gateway_id", "rssi"])
        rec = pd.concat(
            [
                uplink.assign(gateway_id=g, rssi=r)
                for g, r in (("gw-c", -90.0), ("gw-b", -110.0), ("gw-a", -90.0))
            ],
            ignore_index=True,
        )
        out = network.ttn_dedup(rec)
        assert len(out) == 1
        assert out["n_gateways"].iloc[0] == 3
        assert out["gateways"].iloc[0] == [
            {"gtw_id": "gw-a", "rssi": -90.0},
            {"gtw_id": "gw-c", "rssi": -90.0},
            {"gtw_id": "gw-b", "rssi": -110.0},
        ]

    def test_payload_preserved(self, dedup, world):
        merged = dedup.merge(
            world.readings_pdf, on=["sensor_id", "f_cnt"], suffixes=("", "_orig")
        )
        assert len(merged) == len(dedup)
        pd.testing.assert_series_equal(
            merged["co2"], merged["co2_orig"], check_names=False
        )


class TestLossAccounting:
    def test_columns(self, world):
        acc = network.loss_accounting(world.readings_pdf, world.receptions_pdf)
        assert {
            "city", "sent", "delivered", "gw_receptions", "lost",
            "loss_rate", "dup_factor",
        } <= set(acc.columns)

    def test_sent_equals_delivered_plus_lost(self, world):
        acc = network.loss_accounting(world.readings_pdf, world.receptions_pdf)
        assert (acc["sent"] == acc["delivered"] + acc["lost"]).all()

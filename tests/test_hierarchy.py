"""Hierarchical failure classification + network graph (Fig 3)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.dataport import hierarchy, twins
from repro.iot import deployment as dep
from repro.iot.faults import standard_scenario

H = lambda h: dep.SIM_START + pd.Timedelta(hours=h)


class TestClassification:
    def test_sensor_deaths_classified_as_sensor_failure(self, world):
        cls = hierarchy.classify(world.uplinks, H(45)).toPandas()
        mine = cls.set_index("sensor_id")
        assert mine.loc["T-03", "failure_kind"] == hierarchy.KIND_SENSOR
        assert mine.loc["T-07", "failure_kind"] == hierarchy.KIND_SENSOR

    def test_city_outage_classified_as_gateway_outage(self, world):
        cls = hierarchy.classify(world.uplinks, H(53)).toPandas()
        vejle = cls[cls["city"] == "vejle"]
        assert set(vejle["sensor_id"]) == {"V-00", "V-01"}
        assert (vejle["failure_kind"] == hierarchy.KIND_GATEWAY).all()

    def test_single_gateway_outage_blames_nobody(self, world):
        # During gw-tr-1's outage (hours 26–32) coverage overlap keeps
        # all Trondheim sensors visible: no FAILED twins, no blame.
        cls = hierarchy.classify(world.uplinks, H(29)).toPandas()
        assert len(cls[cls["city"] == "trondheim"]) == 0

    def test_no_failures_before_any_fault(self, world):
        cls = hierarchy.classify(world.uplinks, H(20))
        assert cls.count() == 0

    def test_every_sweep_matches_injected_faults(self, world):
        """E6 acceptance, at every 5-min sweep: an outage never blames
        the sensors it silences, a death is blamed on the sensor."""
        failures = (
            twins.timeline(world.uplinks, start=dep.SIM_START, end=H(71))
            .filter((F.col("kind") == "sensor") & (F.col("status") == "FAILED"))
            .select("node_id", "ts", "failure_kind")
            .toPandas()
        )
        faults, outages = standard_scenario(dep.SIM_START)
        (vejle,) = {(o.start, o.end) for o in outages if o.gateway_id.startswith("gw-ve")}
        during = failures[
            failures["node_id"].isin(["V-00", "V-01"])
            & (failures["ts"] >= vejle[0]) & (failures["ts"] < vejle[1])
        ]
        assert set(during["node_id"]) == {"V-00", "V-01"}
        assert (during["failure_kind"] != hierarchy.KIND_SENSOR).all(), during
        for f in faults:
            if f.kind == "death":
                dead = failures[(failures["node_id"] == f.sensor_id) & (failures["ts"] >= f.start)]
                assert len(dead) > 0
                assert (dead["failure_kind"] == hierarchy.KIND_SENSOR).all(), dead

    def test_outage_onset_is_pending(self, world):
        # At 02:15 and 02:20 of the Vejle outage (from hour 50) V-00
        # and V-01 have missed 4 cycles, their gateway only 15–20 min:
        # held as pending, not blamed on the sensors.
        for at in (H(50.25), H(50 + 1 / 3)):
            got = hierarchy.classify(world.uplinks, at).filter("city = 'vejle'").toPandas()
            assert set(got["sensor_id"]) == {"V-00", "V-01"}
            assert (got["failure_kind"] == hierarchy.KIND_PENDING).all(), got
            assert (got["gateway_status"] == "OK").all()


class TestNetworkGraph:
    def test_nodes_cover_sensors_and_gateways(self, world):
        nodes, _ = hierarchy.network_graph(world.uplinks)
        pdf = nodes.toPandas()
        assert (pdf["kind"] == "sensor").sum() == 14
        assert (pdf["kind"] == "gateway").sum() == 5

    def test_edges_city_consistent(self, world):
        _, edges = hierarchy.network_graph(world.uplinks)
        gw_city = dep.gateways_pdf().set_index("gateway_id")["city"]
        pdf = edges.toPandas()
        assert (pdf["gateway_id"].map(gw_city) == pdf["city"]).all()

    def test_edge_packets_sum_to_gw_receptions(self, world):
        _, edges = hierarchy.network_graph(world.uplinks)
        total = edges.agg(F.sum("packets").alias("s")).collect()[0]["s"]
        expected = world.uplinks.agg(
            F.sum("n_gateways").alias("s")
        ).collect()[0]["s"]
        assert total == expected

    def test_rssi_plausible(self, world):
        _, edges = hierarchy.network_graph(world.uplinks)
        pdf = edges.toPandas()
        assert pdf["rssi_avg"].between(-130, -40).all()

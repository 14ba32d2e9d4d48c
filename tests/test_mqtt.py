"""MQTT landing zone: envelope format, file layout, round-trip."""
import json
import os

import pandas as pd

from repro.lorawan import mqtt
from repro.lorawan.network import PAYLOAD_COLS, ttn_dedup


class TestLanding:
    def test_message_count(self, world):
        n_uplinks = len(
            world.receptions_pdf.drop_duplicates(["sensor_id", "f_cnt"])
        )
        assert world.n_landed == n_uplinks

    def test_hourly_files(self, world):
        files = sorted(os.listdir(world.landing_dir))
        assert all(f.startswith("msgs-") and f.endswith(".jsonl") for f in files)
        # 3 simulated days → ≤ 72 hourly files
        assert 24 <= len(files) <= 73

    def test_envelope_schema(self, world):
        path = os.path.join(world.landing_dir, sorted(os.listdir(world.landing_dir))[0])
        with open(path) as f:
            msg = json.loads(f.readline())
        assert msg["app_id"] == "ctt"
        assert set(msg["payload_fields"]) == set(PAYLOAD_COLS)
        assert {"time", "gateways"} <= set(msg["metadata"])
        assert msg["metadata"]["gateways"][0].keys() == {"gtw_id", "rssi"}

    def test_times_are_utc_iso(self, world):
        path = os.path.join(world.landing_dir, sorted(os.listdir(world.landing_dir))[0])
        with open(path) as f:
            msg = json.loads(f.readline())
        ts = pd.Timestamp(msg["metadata"]["time"])
        assert ts.tzinfo is not None

    def test_file_hour_matches_content(self, world):
        files = sorted(os.listdir(world.landing_dir))
        path = os.path.join(world.landing_dir, files[5])
        hour = files[5][len("msgs-"):-len(".jsonl")]
        with open(path) as f:
            for line in f:
                msg = json.loads(line)
                assert msg["metadata"]["time"].replace("-", "").replace(
                    "T", ""
                ).startswith(hour[:8] + hour[8:])

    def test_empty_input_creates_dir(self, tmp_path, world):
        out = str(tmp_path / "empty_landing")
        n = mqtt.land_messages(ttn_dedup(world.receptions_pdf.iloc[0:0]), out)
        assert n == 0
        assert os.path.isdir(out)

    def test_round_trip_values(self, world):
        # A landed message's payload equals the original reading.
        files = sorted(os.listdir(world.landing_dir))
        with open(os.path.join(world.landing_dir, files[0])) as f:
            msg = json.loads(f.readline())
        orig = world.readings_pdf[
            (world.readings_pdf["sensor_id"] == msg["dev_id"])
            & (world.readings_pdf["f_cnt"] == msg["counter"])
        ].iloc[0]
        for c in PAYLOAD_COLS:
            assert abs(float(orig[c]) - msg["payload_fields"][c]) < 1e-9

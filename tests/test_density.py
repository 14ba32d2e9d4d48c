"""Density/cost trade-off (E7): dense low-cost beats one station."""
import numpy as np
import pytest

from repro.core import density
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def table():
    # Small sweep for tests; the full FLEET_SIZES sweep runs in the bench.
    # E7 runs in numpy: the session argument is unused.
    return density.sweep(None, fleet_sizes=(1, 25, 250), day=1, seed=0)


class TestObservations:
    def test_reference_grade_single_unit(self):
        obs = density.fleet_observations_pdf(
            "trondheim", 1, density.eval_times(), reference_grade=True
        )
        assert obs["unit_id"].nunique() == 1
        assert len(obs) == 24

    def test_fleet_size_respected(self):
        obs = density.fleet_observations_pdf("trondheim", 50, density.eval_times())
        assert obs["unit_id"].nunique() == 50

    def test_fleet_covers_extent(self):
        obs = density.fleet_observations_pdf("trondheim", 100, density.eval_times())
        pos = obs.drop_duplicates("unit_id")
        # stratified scatter: all four quadrants populated
        assert (pos["x_m"] > 0).any() and (pos["x_m"] < 0).any()
        assert (pos["y_m"] > 0).any() and (pos["y_m"] < 0).any()
        assert pos["x_m"].abs().max() <= 2500

    def test_deterministic(self):
        a = density.fleet_observations_pdf("vejle", 10, density.eval_times(), seed=1)
        b = density.fleet_observations_pdf("vejle", 10, density.eval_times(), seed=1)
        assert a.equals(b)


class TestReconstruction:
    def test_idw_interpolates_exactly_at_unit(self):
        # One noiseless unit: every cell gets its value; the cell at the
        # unit's location has ~zero error at that instant only if truth
        # is flat — so instead check the estimate equals the obs.
        times = density.eval_times(hours=2)
        tg = density.truth_grid_pdf("vejle", times)
        obs = density.fleet_observations_pdf(
            "vejle", 1, times, reference_grade=True
        )
        rec = density.idw_reconstruction(obs, tg)
        merged = rec.merge(obs, on="ts")
        np.testing.assert_allclose(merged["estimate"], merged["obs"], rtol=1e-9)

    def test_score_fields(self):
        times = density.eval_times(hours=3)
        tg = density.truth_grid_pdf("trondheim", times)
        obs = density.fleet_observations_pdf("trondheim", 10, times)
        s = density.score(density.idw_reconstruction(obs, tg))
        assert set(s) == {"rmse", "bias", "spatial_rmse"}
        assert s["rmse"] > 0

    def test_idw_oracle(self):
        times = density.eval_times(hours=2)
        tg = density.truth_grid_pdf("vejle", times)
        obs = density.fleet_observations_pdf("vejle", 10, times)
        got = density.idw_reconstruction(obs, tg).round(6)
        assert len(got) == len(tg)
        assert_equivalent(
            got,
            """
            WITH j AS (
              SELECT g.cell_id, g.ts, g.truth, o.obs,
                     1.0 / pow(sqrt(pow(g.x_c - o.x_m, 2) + pow(g.y_c - o.y_m, 2)) + 50, 2) AS w
              FROM tg g JOIN obs o ON g.ts = o.ts
            )
            SELECT cell_id, ts, round(truth, 6) AS truth,
                   round(sum(w * obs) / sum(w), 6) AS estimate,
                   round(sum(w * obs) / sum(w) - truth, 6) AS error
            FROM j GROUP BY cell_id, ts, truth
            """,
            tg=tg, obs=obs,
        )


class TestPaperClaim:
    def test_density_compensates_accuracy(self, table):
        """§1: '250 additional sensors for the price of one station';
        'high number ... can compensate for their relatively lower
        accuracy'. At equal budget the dense fleet reconstructs the city
        field far better than the single official station."""
        t = table.set_index("scenario")
        assert (
            t.loc["lowcost_250", "rmse"] < 0.5 * t.loc["official_station", "rmse"]
        )
        assert t.loc["lowcost_250", "cost_usd"] == t.loc["official_station", "cost_usd"]

    def test_station_wins_at_its_own_site_instrument_wise(self, table):
        """Equal siting: reference instrument beats a low-cost unit."""
        t = table.set_index("scenario")
        assert t.loc["official_station", "rmse"] <= t.loc["lowcost_1_at_station", "rmse"]

    def test_rmse_improves_with_density(self, table):
        t = table.set_index("scenario")
        assert t.loc["lowcost_250", "rmse"] < t.loc["lowcost_1", "rmse"]
        assert t.loc["lowcost_250", "spatial_rmse"] < t.loc["lowcost_1", "spatial_rmse"]

    def test_costs(self, table):
        t = table.set_index("scenario")
        assert t.loc["lowcost_1", "cost_usd"] == 2000
        assert t.loc["official_station", "cost_usd"] == 500000

"""Adversarial and cross-cutting checks: disconnection handling, orbit
saturation, per-content independence, and per-shell storage tradeoffs."""

import numpy as np
import pytest

from helpers import motion_instance
from satcdn.costmodel import (CostParams, DistanceOracle, query_cost, total_cost)
from satcdn.demand import ContentCatalog, DemandMatrix
from satcdn.placement import (SOLVERS, OptimizerConfig, solve_mtls, solve_mtols,
                              solve_naive_greedy)
from satcdn.scenario import run_scenario

SAT, USER, GATEWAY, ORIGIN = 0, 1, 2, 3


class TestDisconnection:
    def disconnected_oracle(self, T=3):
        """Two islands: {sat0, origin, user0} and {sat1, user1}; user1 can
        never be served."""
        ids = ["sat/s/00/00", "sat/s/00/01", "origin/o", "user/a", "user/b"]
        kind = np.array([SAT, SAT, ORIGIN, USER, USER], dtype=np.int8)
        inf = np.inf
        D = np.array([
            [0.0, inf, 1.0, 1.0, inf],
            [inf, 0.0, inf, inf, 1.0],
            [1.0, inf, 0.0, 2.0, inf],
            [1.0, inf, 2.0, 0.0, inf],
            [inf, 1.0, inf, inf, 0.0],
        ])
        return DistanceOracle.from_matrices([D] * T, ids, kind)

    def test_solvers_survive_partitioned_graphs(self):
        oracle = self.disconnected_oracle()
        demand = DemandMatrix(["user/a", "user/b"], ["c0"], np.full((2, 1, 3), 2.0))
        params = CostParams("hop", 2.0, 0.1, 0.2, 1.0)
        for solver in (solve_mtls, solve_mtols, solve_naive_greedy):
            res = solver(demand, oracle, params, OptimizerConfig(max_iterations=5))
            res.schedule.validate(oracle)
            # user/b has positive demand and no path to any replica: query
            # cost stays +inf, never NaN
            q = query_cost(res.schedule, demand, oracle)
            assert np.isinf(q) and not np.isnan(q)

    def test_unreachable_candidate_never_helps(self):
        # sat1 reaches only user/b; placing it cannot reduce finite cost and
        # its replication cost from the origin island would be infinite, so
        # MTLS must leave it alone
        oracle = self.disconnected_oracle()
        demand = DemandMatrix(["user/a"], ["c0"], np.full((1, 1, 3), 2.0))
        params = CostParams("hop", 2.0, 0.1, 0.2, 1.0)
        res = solve_mtls(demand, oracle, params, OptimizerConfig(max_iterations=5))
        for t in (1, 2, 3):
            assert 1 not in res.schedule.nodes("c0", t)
        assert np.isfinite(res.stats.history["c0"][-1])


class TestOrbitSaturation:
    def test_mtols_keeps_improving_after_an_orbit_fills_up(self):
        # one orbit with a single satellite: after it is deployed the orbit
        # offers no additions and the orbit DP must fall back gracefully
        ids = ["sat/s/00/00", "sat/s/01/00", "origin/o", "user/a", "user/b"]
        kind = np.array([SAT, SAT, ORIGIN, USER, USER], dtype=np.int8)
        orbit = np.array([0, 1, -1, -1, -1], dtype=np.int32)
        shell = np.array([0, 0, -1, -1, -1], dtype=np.int32)
        D = np.array([
            [0.0, 4.0, 3.0, 1.0, 5.0],
            [4.0, 0.0, 3.0, 5.0, 1.0],
            [3.0, 3.0, 0.0, 4.0, 4.0],
            [1.0, 5.0, 4.0, 0.0, 8.0],
            [5.0, 1.0, 4.0, 8.0, 0.0],
        ])
        oracle = DistanceOracle.from_matrices([D, D], ids, kind,
                                              orbit=orbit, shell=shell)
        demand = DemandMatrix(["user/a", "user/b"], ["c0"], np.full((2, 1, 2), 10.0))
        params = CostParams("hop", 1.0, 0.1, 0.1, 1.0)
        res = solve_mtols(demand, oracle, params, OptimizerConfig(max_iterations=6))
        # both satellites end up deployed (one per orbit, across iterations)
        for t in (1, 2):
            assert set(res.schedule.nodes("c0", t)) >= {0, 1}


class TestPerContentIndependence:
    def test_joint_solve_equals_content_by_content(self):
        # starfront is left out: it picks one threshold for all contents
        # jointly by design, so its contents are not independent
        oracle, demand, catalog, params = motion_instance(99, 3, 6, 4, orbit_rows=2)
        rng = np.random.default_rng(5)
        vals = rng.uniform(0, 3, size=(3, 2, 4))
        joint = DemandMatrix(list(demand.users), ["c0", "c1"], vals)
        cat = ContentCatalog(["c0", "c1"], np.array([1.0, 2.5]))
        cfg = OptimizerConfig(max_iterations=8)
        for name, solver in SOLVERS.items():
            if name == "starfront":
                continue
            res = solver(joint, oracle, params, cfg, catalog=cat)
            refs = []
            for ci, c in enumerate(["c0", "c1"]):
                solo = DemandMatrix(list(demand.users), [c], vals[:, ci:ci + 1, :])
                solo_cat = ContentCatalog([c], np.array([cat.size_of(c)]))
                refs.append(solver(solo, oracle, params, cfg, catalog=solo_cat))
                assert res.schedule.sets[c] == refs[-1].schedule.sets[c], (name, c)
            if name in ("mtls", "mtols"):
                assert res.stats.iterations == sum(r.stats.iterations for r in refs), name
                assert res.stats.relaxations == sum(r.stats.relaxations for r in refs), name
                assert res.stats.orbit_relaxations == \
                    sum(r.stats.orbit_relaxations for r in refs), name
                for c, ref in zip(["c0", "c1"], refs):
                    assert res.stats.history[c] == ref.stats.history[c], (name, c)


class TestShellTradeoffs:
    def base_config(self, gamma_leo, gamma_meo):
        return {
            "seed": 5,
            "slot_seconds": 600,
            "horizon_slots": 6,
            "metric": "hop",
            "alpha": 2.0,
            "beta": 0.0,
            "shells": [
                {"name": "leo", "orbits": 8, "sats_per_orbit": 8,
                 "altitude_km": 550.0, "inclination_deg": 53.0,
                 "gamma": gamma_leo},
                {"name": "meo", "orbits": 1, "sats_per_orbit": 12,
                 "altitude_km": 8062.0, "inclination_deg": 0.0, "isl": False,
                 "gamma": gamma_meo},
            ],
            "origins": [{"name": "east", "lat_deg": 35.0, "lon_deg": -77.0}],
            "users": {"mode": "grid", "rows": 2, "cols": 3,
                      "bbox": [25.0, -110.0, 40.0, -75.0],
                      "per_slot_demand": 10.0},
            "algorithms": ["mtls"],
        }

    def read_usage(self, out):
        import csv
        with open(out / "mtls_usage.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return {r[1]: float(r[2]) for r in rows}

    def test_cheaper_shell_attracts_replicas(self, tmp_path):
        run_scenario(self.base_config(gamma_leo=0.2, gamma_meo=8.0), tmp_path / "a")
        run_scenario(self.base_config(gamma_leo=8.0, gamma_meo=0.2), tmp_path / "b")
        leo_cheap = self.read_usage(tmp_path / "a")
        meo_cheap = self.read_usage(tmp_path / "b")
        assert leo_cheap["leo"] >= meo_cheap["leo"]
        assert meo_cheap["meo"] >= leo_cheap["meo"]


class TestGridActiveThroughConfig:
    def test_active_subgrid_limits_demanded_cells(self, tmp_path):
        cfg = {
            "seed": 1,
            "slot_seconds": 300,
            "horizon_slots": 2,
            "metric": "hop",
            "alpha": 50.0,
            "beta": 1.0,
            "shells": [{"name": "leo", "orbits": 16, "sats_per_orbit": 10,
                        "altitude_km": 550.0, "min_elevation_deg": 5.0,
                        "gamma": 10.0}],
            "origins": [{"name": "east", "lat_deg": 39.0, "lon_deg": -77.0}],
            "users": {"mode": "grid", "rows": 3, "cols": 4,
                      "bbox": [25.0, -125.0, 49.0, -67.0],
                      "per_slot_demand": 2.0, "active": [1, 2]},
            "algorithms": ["no_replica"],
        }
        out = tmp_path / "out"
        summary = run_scenario(cfg, out)
        import json
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["node_counts"]["users"] == 12  # all cells exist
        # only 1x2 cells carry demand: 2 cells x 2.0 demand x 2 slots
        # -> finite total compatible with just those users querying
        assert np.isfinite(summary["no_replica"])

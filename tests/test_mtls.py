import numpy as np
import pytest

from helpers import best_nearby_sequence, motion_instance, schedule_cost_ref
from satcdn.costmodel import CostParams, DistanceOracle, total_cost
from satcdn.demand import DemandMatrix
from satcdn.placement import SOLVERS, OptimizerConfig, solve_mtls
from satcdn.placement.core import ContentProblem, PlacementStats, dp_pass
from satcdn.placement.local_search import _mtls_movegen

SAT, USER, GATEWAY, ORIGIN = 0, 1, 2, 3


def run_one_dp_pass(oracle, demand, catalog, params, start_sets, k):
    users = np.array([oracle.index[u] for u in demand.users])
    prob = ContentProblem(oracle, users, demand.values[:, 0, :], 1.0, params)
    counters = PlacementStats("mtls")
    new_sets, f = dp_pass(prob, list(start_sets), _mtls_movegen(prob, k), counters)
    return new_sets, f, counters


class TestDPExactness:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_from_origin_start(self, seed):
        rng = np.random.default_rng(seed)
        n_cands = int(rng.integers(2, 5))
        T = int(rng.integers(1, 4))
        oracle, demand, catalog, params = motion_instance(100 + seed, 2, n_cands, T)
        origins = tuple(int(i) for i in oracle.origins_idx)
        start = [origins] * T
        got_sets, f, _ = run_one_dp_pass(oracle, demand, catalog, params, start, k=4)
        ref_cost, _ = best_nearby_sequence(oracle, demand, catalog, params,
                                           {"c0": list(start)}, "c0", k=4)
        assert f == pytest.approx(ref_cost, rel=1e-9)
        assert schedule_cost_ref(oracle, demand, catalog, params,
                                 {"c0": got_sets}) == pytest.approx(ref_cost, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_from_random_start(self, seed):
        rng = np.random.default_rng(1000 + seed)
        oracle, demand, catalog, params = motion_instance(200 + seed, 2, 4, 3)
        origins = set(int(i) for i in oracle.origins_idx)
        start = []
        for _ in range(3):
            extra = rng.choice(oracle.candidates_idx, size=rng.integers(0, 3), replace=False)
            start.append(tuple(sorted(origins | set(int(x) for x in extra))))
        got_sets, f, _ = run_one_dp_pass(oracle, demand, catalog, params, start, k=4)
        ref_cost, _ = best_nearby_sequence(oracle, demand, catalog, params,
                                           {"c0": list(start)}, "c0", k=4)
        assert f == pytest.approx(ref_cost, rel=1e-9)

    @pytest.mark.parametrize("seed,k", [(0, 1), (1, 2), (2, 1), (3, 2)])
    def test_matches_exhaustive_with_small_k(self, seed, k):
        rng = np.random.default_rng(2000 + seed)
        oracle, demand, catalog, params = motion_instance(300 + seed, 2, 4, 2)
        origins = set(int(i) for i in oracle.origins_idx)
        start = []
        for _ in range(2):
            extra = rng.choice(oracle.candidates_idx, size=2, replace=False)
            start.append(tuple(sorted(origins | set(int(x) for x in extra))))
        got_sets, f, _ = run_one_dp_pass(oracle, demand, catalog, params, start, k=k)
        ref_cost, _ = best_nearby_sequence(oracle, demand, catalog, params,
                                           {"c0": list(start)}, "c0", k=k)
        assert f == pytest.approx(ref_cost, rel=1e-9)


class TestMTLSSolver:
    def test_colocated_user_stays_origin_only(self):
        ids = ["sat/s/00/00", "origin/o", "user/u"]
        kind = np.array([SAT, ORIGIN, USER], dtype=np.int8)
        D = np.array([[0.0, 2.0, 2.0], [2.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        oracle = DistanceOracle.from_matrices([D, D], ids, kind)
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 2), 5.0))
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        res = solve_mtls(demand, oracle, params)
        for t in (1, 2):
            assert res.schedule.nodes("c0", t) == (1,)
        assert res.stats.history["c0"][-1] == 0.0

    def test_monotone_history(self):
        for seed in range(6):
            oracle, demand, catalog, params = motion_instance(400 + seed, 4, 12, 6)
            res = solve_mtls(demand, oracle, params, OptimizerConfig(max_iterations=20),
                             catalog=catalog)
            hist = res.stats.history["c0"]
            assert all(b <= a for a, b in zip(hist, hist[1:]))
            res.schedule.validate(oracle)

    def test_deterministic(self):
        oracle, demand, catalog, params = motion_instance(7, 3, 10, 5)
        cfg = OptimizerConfig(max_iterations=10)
        a = solve_mtls(demand, oracle, params, cfg, catalog=catalog)
        b = solve_mtls(demand, oracle, params, cfg, catalog=catalog)
        assert a.schedule.sets == b.schedule.sets
        assert a.stats.relaxations == b.stats.relaxations

    def test_final_cost_matches_costmodel(self):
        oracle, demand, catalog, params = motion_instance(8, 3, 8, 4)
        res = solve_mtls(demand, oracle, params, catalog=catalog)
        br = total_cost(res.schedule, demand, catalog, oracle, params)
        assert br.total == pytest.approx(res.stats.history["c0"][-1], rel=1e-9)

    def test_replacement_restricted_to_k_nearest(self):
        # z sits in the set; the best replacement w2 is far from z while w1 is
        # near. With k=1 only w1 is reachable by a replace move, and both a
        # deletion of z and an addition of w2 are made unattractive.
        ids = ["sat/s/00/00", "sat/s/00/01", "sat/s/00/02", "origin/o", "user/u"]
        kind = np.array([SAT, SAT, SAT, ORIGIN, USER], dtype=np.int8)
        #            z     w1    w2    o     u
        D = np.array([
            [0.0,  1.0,  9.0,  1.0,  4.0],   # z
            [1.0,  0.0,  8.0,  2.0,  3.0],   # w1 (near z)
            [9.0,  8.0,  0.0,  9.0,  0.5],   # w2 (near user, far from z)
            [1.0,  2.0,  9.0,  0.0,  5.0],
            [4.0,  3.0,  0.5,  5.0,  0.0],
        ])
        oracle = DistanceOracle.from_matrices([D], ids, kind)
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 1), 10.0))
        params = CostParams("hop", 1.0, 0.0, 0.0, 1.0)
        users = np.array([oracle.index["user/u"]])
        prob = ContentProblem(oracle, users, demand.values[:, 0, :], 1.0, params)
        start = [(0, 3)]  # {z, origin}
        counters = PlacementStats("mtls")
        new_sets, _ = dp_pass(prob, start, _mtls_movegen(prob, 1), counters)
        moved_to = set(new_sets[0])
        # with k=1 the replace z->w2 is not available; the DP may add w2
        # instead (add moves are unrestricted), so allow either w1-swap or
        # w2-add, but never a w2-swap that drops z without the delete move
        ref_cost, ref_seq = best_nearby_sequence(oracle, demand, None, params,
                                                 {"c0": [(0, 3)]}, "c0", k=1)
        assert moved_to == set(ref_seq[0])


class TestRelaxationScaling:
    def test_linear_in_horizon(self):
        # transitions scale with T-1 (slot 1 has a single predecessor), so use
        # horizons long enough for the boundary term to fade
        counts = {}
        for T in (8, 16):
            oracle, demand, catalog, params = motion_instance(60, 3, 40, T)
            res = solve_mtls(demand, oracle, params, OptimizerConfig(max_iterations=1),
                             catalog=catalog)
            counts[T] = res.stats.relaxations
        assert 2.0 * 0.85 <= counts[16] / counts[8] <= 2.0 * 1.15

    def test_quadratic_in_candidates(self):
        counts = {}
        for n in (60, 120):
            oracle, demand, catalog, params = motion_instance(61, 3, n, 4)
            res = solve_mtls(demand, oracle, params, OptimizerConfig(max_iterations=1),
                             catalog=catalog)
            counts[n] = res.stats.relaxations
        assert 4.0 * 0.85 <= counts[120] / counts[60] <= 4.0 * 1.15


class TestEdgeCases:
    def test_empty_demand_returns_empty_schedule(self):
        oracle, demand, catalog, params = motion_instance(9, 2, 3, 2)
        empty = DemandMatrix(list(demand.users), [], np.zeros((2, 0, 2)))
        res = solve_mtls(empty, oracle, params)
        assert res.schedule.contents == []

    def test_zero_slots(self):
        oracle, demand, catalog, params = motion_instance(10, 2, 3, 1)
        zero = DemandMatrix(list(demand.users), ["c0"], np.zeros((2, 1, 0)))
        res = solve_mtls(zero, oracle, params)
        assert res.schedule.slot_count == 0
        assert res.schedule.sets["c0"] == []

    def test_no_candidates_stays_origin(self):
        oracle, demand, catalog, params = motion_instance(11, 2, 3, 2)
        restricted = oracle.with_candidates(np.empty(0, dtype=np.int64))
        res = solve_mtls(demand, restricted, params)
        origins = tuple(int(i) for i in oracle.origins_idx)
        assert all(res.schedule.nodes("c0", t) == origins for t in (1, 2))

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_no_demand_stays_origin(self, name):
        # no demanding user at all, and users whose every slot is zero
        oracle, demand, catalog, params = motion_instance(13, 2, 6, 3, n_gateways=1,
                                                          orbit_rows=2)
        origins = tuple(int(i) for i in oracle.origins_idx)
        for quiet in (DemandMatrix([], ["c0"], np.zeros((0, 1, 3))),
                      DemandMatrix(list(demand.users), ["c0"], np.zeros((2, 1, 3)))):
            res = SOLVERS[name](quiet, oracle, params, catalog=catalog)
            assert res.schedule.sets["c0"] == [origins] * 3

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_unknown_demand_user_raises(self, name):
        oracle, demand, catalog, params = motion_instance(12, 2, 3, 2)
        bad = DemandMatrix(["user/ghost", "user/u1"], ["c0"], demand.values)
        with pytest.raises(ValueError, match="ghost"):
            SOLVERS[name](bad, oracle, params)

import itertools

import numpy as np
import pytest

from helpers import motion_instance
from satcdn.constellation import GroundNode, build_node_table, build_shell, starlink_phase1
from satcdn.costmodel import CostParams, DistanceOracle
from satcdn.demand import DemandMatrix
from satcdn.placement import OptimizerConfig, local_search, solve_mtls, solve_mtols
from satcdn.placement.core import ContentProblem, PlacementStats, _layout
from test_costmodel import three_shell_network

SAT, USER, GATEWAY, ORIGIN = 0, 1, 2, 3


def orbit_scoring_reference(oracle, demand, params, orbit_of):
    """Independent orbit-sequence scoring with the origin-only base schedule.

    Choosing orbit o at slot t deploys the orbit member with the lowest
    marginal query cost on top of the origins; transitions pay the
    alpha-scaled distance from that member to the previous deployment
    (previous orbit's member or an origin).
    """
    origins = [int(i) for i in oracle.origins_idx]
    users = [oracle.index[u] for u in demand.users]
    T = demand.slot_count
    orbits = sorted(set(orbit_of.values()))
    members = {o: sorted(g for g, oo in orbit_of.items() if oo == o) for o in orbits}

    v_sel, qc, sc = {}, {}, {}
    for t in range(1, T + 1):
        D = oracle.matrix(t)
        w = demand.values[:, 0, t - 1]
        for o in orbits:
            best = None
            for v in members[o]:
                m = sum(w[j] * min(D[u, v], min(D[u, g] for g in origins))
                        for j, u in enumerate(users))
                if best is None or m < best[0] - 1e-12:
                    best = (m, v)
            v_sel[t, o] = best[1]
            qc[t, o] = best[0]
            sc[t, o] = params.gamma_for(int(oracle.shell[best[1]])) * params.c_qmin

    best_seq, best_cost = None, np.inf
    for seq in itertools.product(orbits, repeat=T):
        cost = 0.0
        prev_nodes = list(origins)
        for t, o in enumerate(seq, start=1):
            D = oracle.matrix(t)
            v = v_sel[t, o]
            cost += qc[t, o] + sc[t, o]
            cost += params.alpha * min(D[v, p] for p in prev_nodes)
            prev_nodes = list(origins) + [v]
        if cost < best_cost - 1e-12:
            best_cost, best_seq = cost, seq
    return best_seq, best_cost


class TestOrbitKeys:
    @pytest.mark.parametrize("table", ["three_shell", "starlink_72x22"])
    def test_dense_ranks_equal_per_shell_offsets(self, table):
        """On full shells the orbit of each candidate, the dense rank of its
        ``(shell, orbit)`` pair, is its orbit index offset by the orbit counts
        of the shells before it; the gateways' pseudo-orbit comes last."""
        if table == "three_shell":
            net = three_shell_network()
            nodes, shells = net.nodes, net.constellations
        else:
            shells = [build_shell(starlink_phase1())]
            nodes = build_node_table(shells, [GroundNode("gw/g", "gateway", 0.0, 0.0),
                                              GroundNode("origin/o", "origin", 1.0, 1.0),
                                              GroundNode("user/u", "user_region", 2.0, 2.0)])
        oracle = DistanceOracle([], nodes.ids, nodes.kind, shell=nodes.shell, orbit=nodes.orbit)
        got = np.full(nodes.n_nodes, -1)
        for o, members in _layout(oracle)["orbit_members"].items():
            got[members] = o
        base = np.cumsum([0] + [con.spec.orbit_count for con in shells])
        want = np.where(nodes.orbit >= 0, base[nodes.shell] + nodes.orbit, -1)
        want[nodes.gateways_idx] = base[-1]
        assert len(shells) == nodes.shell.max() + 1 and nodes.gateways_idx.size
        assert np.array_equal(got, want)


class TestOrbitSelection:
    def test_dominant_orbit_chosen_every_slot(self):
        # orbit 0 hovers over the single user; orbit 1 is far away
        ids = ["sat/s/00/00", "sat/s/00/01", "sat/s/01/00", "sat/s/01/01",
               "origin/o", "user/u"]
        kind = np.array([SAT, SAT, SAT, SAT, ORIGIN, USER], dtype=np.int8)
        orbit = np.array([0, 0, 1, 1, -1, -1], dtype=np.int32)
        shell = np.array([0, 0, 0, 0, -1, -1], dtype=np.int32)
        mats = []
        for t in range(3):
            D = np.full((6, 6), 20.0)
            np.fill_diagonal(D, 0.0)
            near = t % 2  # alternate which orbit-0 member is overhead
            D[near, 5] = D[5, near] = 1.0
            D[4, 5] = D[5, 4] = 10.0
            D[0, 4] = D[4, 0] = 2.0
            D[1, 4] = D[4, 1] = 2.0
            D[0, 1] = D[1, 0] = 1.5
            mats.append(np.minimum(D, D.T))
        oracle = DistanceOracle.from_matrices(mats, ids, kind, orbit=orbit,
                                              shell=shell)
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 3), 4.0))
        params = CostParams("hop", 1.0, 0.0, 0.0, 1.0)
        res = solve_mtols(demand, oracle, params, OptimizerConfig(max_iterations=1))
        assert res.stats.orbit_sequence["c0"] == [0, 0, 0]

    @pytest.mark.parametrize("seed", range(5))
    def test_toy_orbit_sequence_matches_bruteforce(self, seed):
        oracle, demand, catalog, params = motion_instance(
            600 + seed, 2, 4, 2, orbit_rows=2, alpha=1.5, beta=0.0, gamma=0.5)
        orbit_of = {int(g): int(oracle.orbit[g]) for g in oracle.candidates_idx}
        ref_seq, _ = orbit_scoring_reference(oracle, demand, params, orbit_of)
        res = solve_mtols(demand, oracle, params, OptimizerConfig(max_iterations=1))
        assert tuple(res.stats.orbit_sequence["c0"]) == ref_seq


class TestMTOLSSolver:
    def test_additions_only(self):
        for seed in range(4):
            oracle, demand, catalog, params = motion_instance(700 + seed, 3, 9, 5,
                                                              orbit_rows=3)
            res = solve_mtols(demand, oracle, params, OptimizerConfig(max_iterations=8),
                              catalog=catalog)
            origins = set(int(i) for i in oracle.origins_idx)
            # non-origin replicas never disappear between iterations is not
            # observable here, but within the final schedule every set must
            # contain the origins and only candidates otherwise
            res.schedule.validate(oracle)
            hist = res.stats.history["c0"]
            assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_gateway_pseudo_orbit_reachable(self):
        # only a gateway improves cost; MTOLS must find it via the pseudo-orbit
        ids = ["sat/s/00/00", "gw/g", "origin/o", "user/u"]
        kind = np.array([SAT, GATEWAY, ORIGIN, USER], dtype=np.int8)
        orbit = np.array([0, -1, -1, -1], dtype=np.int32)
        shell = np.array([0, -1, -1, -1], dtype=np.int32)
        D = np.array([
            [0.0, 9.0, 9.0, 9.0],
            [9.0, 0.0, 1.0, 1.0],
            [9.0, 1.0, 0.0, 8.0],
            [9.0, 1.0, 8.0, 0.0],
        ])
        oracle = DistanceOracle.from_matrices([D, D], ids, kind, orbit=orbit,
                                              shell=shell)
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 2), 5.0))
        params = CostParams("hop", 1.0, 0.1, 0.1, 1.0)
        res = solve_mtols(demand, oracle, params, OptimizerConfig(max_iterations=5))
        assert 1 in res.schedule.nodes("c0", 1)
        assert 1 in res.schedule.nodes("c0", 2)

    def test_deterministic(self):
        oracle, demand, catalog, params = motion_instance(13, 3, 12, 5, orbit_rows=4)
        cfg = OptimizerConfig(max_iterations=6)
        a = solve_mtols(demand, oracle, params, cfg, catalog=catalog)
        b = solve_mtols(demand, oracle, params, cfg, catalog=catalog)
        assert a.schedule.sets == b.schedule.sets

    def test_orbit_dp_after_earlier_calls_equals_fresh(self):
        """The orbit DP keeps the distances between consecutive choices for
        the next call and rereads only what changed; a call after others on
        the same problem picks what it picks on a fresh problem."""
        oracle, demand, _catalog, params = motion_instance(17, 6, 40, 6, n_gateways=2,
                                                           orbit_rows=5)
        users = np.array([oracle.index[u] for u in demand.users])

        def problem():
            return ContentProblem(oracle, users, demand.values[:, 0, :], 1.0, params)

        warm = problem()
        rng = np.random.default_rng(5)
        for _ in range(6):
            sets = [tuple(sorted(warm.s0 + tuple(
                rng.choice(warm.cand_pos, rng.integers(0, 4), replace=False).tolist())))
                for _t in range(warm.T)]
            got = local_search._orbit_dp(warm, sets, PlacementStats("mtols"))
            assert got == local_search._orbit_dp(problem(), sets, PlacementStats("mtols"))

    def test_unchanged_schedule_is_not_reevaluated(self, monkeypatch):
        """A DP pass that returns the current schedule stops the search with
        the history as is, without evaluating that schedule again."""
        seen = []
        evaluate = local_search.evaluate_content

        def record(prob, c, users, sets, catalog):
            seen.append(list(sets))
            return evaluate(prob, c, users, sets, catalog)

        monkeypatch.setattr(local_search, "evaluate_content", record)
        oracle, demand, catalog, params = motion_instance(13, 3, 12, 5, orbit_rows=4)
        for solve in (solve_mtls, solve_mtols):
            seen.clear()
            res = solve(demand, oracle, params, OptimizerConfig(max_iterations=20),
                        catalog=catalog)
            assert res.stats.iterations < 20  # stopped by a pass without a gain
            assert all(a != b for a, b in zip(seen, seen[1:]))
            assert len(seen) >= len(res.stats.history["c0"])


class TestOperationCounters:
    def test_replica_dp_quadratic_in_orbit_size(self):
        # fixed orbit count, doubled satellites per orbit: the restricted
        # replica DP's pair count grows ~4x
        counts = {}
        P = 6
        for Q in (12, 24):
            oracle, demand, catalog, params = motion_instance(62, 3, P * Q, 4,
                                                              orbit_rows=P)
            res = solve_mtols(demand, oracle, params,
                              OptimizerConfig(max_iterations=1), catalog=catalog)
            counts[Q] = res.stats.relaxations
        assert 4.0 * 0.8 <= counts[24] / counts[12] <= 4.0 * 1.2

    def test_counter_ratio_matches_theory_at_starlink_scale(self):
        # Relaxation-count ratio against the orbit-vs-flat DP size model
        # k^2 P^2 Q^2 / (P^2 + Q^2), evaluated at k=1 where add moves dominate
        # the nearby-set spaces (small replica sets).
        P, Q, T = 72, 22, 2
        N = P * Q
        rng = np.random.default_rng(0)
        n_users = 10
        ids = ([f"sat/s/{i // Q:02d}/{i % Q:02d}" for i in range(N)]
               + ["origin/o"] + [f"user/u{i}" for i in range(n_users)])
        kind = np.array([SAT] * N + [ORIGIN] + [USER] * n_users, dtype=np.int8)
        orbit = np.array([i // Q for i in range(N)] + [-1] * (1 + n_users),
                             dtype=np.int32)
        shell = np.array([0] * N + [-1] * (1 + n_users), dtype=np.int32)
        n = N + 1 + n_users
        mats = []
        for _ in range(T):
            pts = rng.uniform(0, 100, size=(n, 2))
            D = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            np.fill_diagonal(D, 0.0)
            mats.append(D)
        oracle = DistanceOracle.from_matrices(mats, ids, kind, orbit=orbit,
                                              shell=shell)
        demand = DemandMatrix([f"user/u{i}" for i in range(n_users)], ["c0"],
                              rng.uniform(1, 5, size=(n_users, 1, T)))
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        cfg = OptimizerConfig(max_iterations=1, neighbor_limit=1)
        r_flat = solve_mtls(demand, oracle, params, cfg)
        r_orbit = solve_mtols(demand, oracle, params, cfg)
        measured = r_flat.stats.relaxations / (r_orbit.stats.relaxations
                                               + r_orbit.stats.orbit_relaxations)
        theory = (1 ** 2 * P ** 2 * Q ** 2) / (P ** 2 + Q ** 2)
        assert theory / 4 <= measured <= theory * 4

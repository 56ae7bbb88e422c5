"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight network (full 72x22 LEO shell + 20 synthetic gateways + a
5x10 user grid over 48 slots) is built once and shared across criteria.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import best_nearby_sequence, motion_instance
from satcdn.constellation import GroundNode, Network, o3b, orbital_period_s, starlink_phase1
from satcdn.costmodel import (CostParams, ReplicaSchedule, build_distance_oracle,
                              query_cost, replication_cost, total_cost)
from satcdn.delivery import Router, RoutingPolicy
from satcdn.demand import (US_BBOX, ContentCatalog, DemandMatrix, random_ground_sites,
                           synth_grid_demand)
from satcdn.placement import (SOLVERS, OptimizerConfig, solve_mtls, solve_mtols,
                              solve_pch, solve_starfront)
from satcdn.placement.core import ContentProblem, PlacementStats, dp_pass
from satcdn.placement.local_search import _mtls_movegen
from satcdn.scenario import run_scenario


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE {num}] FAIL - {label}")
        raise
    print(f"\n[ACCEPTANCE {num}] PASS - {label}")


@pytest.fixture(scope="module")
def starlink_env():
    """Shared Starlink-scale environment: 72x22 shell, 20 gateways, origin,
    5x10 grid users, 48 slots, hop metric, alpha=50, beta=1, gamma=10."""
    users, catalog, base = synth_grid_demand(5, 10, US_BBOX, 1.0, 48)
    gateways = random_ground_sites(20, US_BBOX, seed=42)
    origin = [GroundNode("origin/east", "origin", 39.0, -77.0)]
    net = Network([starlink_phase1()], gateways + origin + users,
                  slot_seconds=300.0, seed=7)
    oracle = build_distance_oracle(net.snapshots(48), "hop")
    params = CostParams.from_oracle(oracle, alpha=50.0, beta=1.0, gamma=10.0)
    return dict(net=net, oracle=oracle, params=params, catalog=catalog,
                users=[u.node_id for u in users])


def grid_demand(env, seed, *, scale=1.0, slots=48, n_users=None):
    rng = np.random.default_rng(seed)
    users = env["users"] if n_users is None else env["users"][:n_users]
    vols = rng.uniform(2.0, 12.0, size=len(users)) * scale
    return DemandMatrix(users, ["content/0"],
                        np.tile(vols[:, None, None], (1, 1, slots)))


def test_criterion_1_orbital_mechanics():
    with criterion(1, "orbital mechanics: shell size and Kepler periods"):
        t0 = time.perf_counter()
        from satcdn.constellation import build_shell
        con = build_shell(starlink_phase1())
        assert con.n_sats == 1584
        mu, re = 398600.4418, 6371.0  # independent Kepler oracle

        def period_min(alt):
            return 2 * np.pi * ((re + alt) ** 3 / mu) ** 0.5 / 60.0

        assert abs(orbital_period_s(550.0) / 60.0 - 95.5) < 0.5
        assert abs(orbital_period_s(550.0) / 60.0 - period_min(550.0)) < 1e-9
        assert abs(orbital_period_s(8062.0) / 60.0 - 287.9) < 1.0
        assert abs(orbital_period_s(8062.0) / 60.0 - period_min(8062.0)) < 1e-9
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_dp_exactness():
    with criterion(2, "one MTLS DP pass equals exhaustive nearby-set search"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        for case in range(20):
            n_cands = int(rng.integers(2, 5))
            T = int(rng.integers(1, 4))
            oracle, demand, catalog, params = motion_instance(9000 + case, 2, n_cands, T)
            origins = set(int(i) for i in oracle.origins_idx)
            start = []
            for _ in range(T):
                extra = rng.choice(oracle.candidates_idx,
                                   size=rng.integers(0, min(3, n_cands + 1)),
                                   replace=False)
                start.append(tuple(sorted(origins | set(int(x) for x in extra))))
            users = np.array([oracle.index[u] for u in demand.users])
            prob = ContentProblem(oracle, users, demand.values[:, 0, :], 1.0, params)
            new_sets, f = dp_pass(prob, start, _mtls_movegen(prob, 4), PlacementStats("mtls"))
            ref, _ = best_nearby_sequence(oracle, demand, catalog, params,
                                          {"c0": list(start)}, "c0", k=4)
            assert f == pytest.approx(ref, rel=1e-9), f"case {case}"
        assert time.perf_counter() - t0 < 10.0


def test_criterion_3_local_search_monotonicity():
    with criterion(3, "per-iteration cost non-increasing, schedules valid"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        for case in range(50):
            n_cands = int(rng.integers(5, 101))
            T = int(rng.integers(2, 13))
            n_users = int(rng.integers(2, 8))
            alpha = float(rng.uniform(1.0, 10.0))
            beta = float(rng.uniform(0.0, 0.5))
            gamma = beta + float(rng.uniform(0.0, 0.5))
            oracle, demand, catalog, params = motion_instance(
                5000 + case, n_users, n_cands, T, alpha=alpha, beta=beta,
                gamma=gamma, orbit_rows=max(2, n_cands // 8))
            for solver in (solve_mtls, solve_mtols):
                res = solver(demand, oracle, params,
                             OptimizerConfig(max_iterations=12), catalog=catalog)
                hist = res.stats.history["c0"]
                assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
                res.schedule.validate(oracle)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_4_cost_identities():
    with criterion(4, "replication/additivity/scaling identities and the "
                      "alpha=1 equivalence"):
        # identity replication and additivity on a random instance
        oracle, demand, catalog, params = motion_instance(31, 3, 6, 5)
        origin_only = ReplicaSchedule.origin_only(["c0"], 5, oracle.origins_idx)
        assert replication_cost(origin_only, oracle, params.alpha) == 0.0
        br = total_cost(origin_only, demand, catalog, oracle, params)
        assert abs(br.total - (br.query + br.replication + br.storage)) <= \
            1e-9 * max(1.0, br.total)
        # a constant replica set pays only its first-slot deployment
        cand = int(oracle.candidates_idx[0])
        const = ReplicaSchedule(["c0"], 5, {"c0": [tuple(sorted(
            set(int(i) for i in oracle.origins_idx) | {cand}))] * 5})
        first = ReplicaSchedule(["c0"], 1, {"c0": const.sets["c0"][:1]})
        assert replication_cost(const, oracle, params.alpha) == pytest.approx(
            replication_cost(first, oracle, params.alpha), rel=1e-12)
        # demand scaling linearity of the query cost
        lam = 7.25
        scaled = DemandMatrix(list(demand.users), ["c0"], lam * demand.values)
        assert query_cost(origin_only, scaled, oracle) == pytest.approx(
            lam * query_cost(origin_only, demand, oracle), rel=1e-9)

        # alpha=1: replicating to the satellite over the user each slot costs
        # exactly as much as querying the origin directly (hop metric, free
        # storage, single user two hops from the origin)
        shell = o3b(sats_per_orbit=40, min_elevation_deg=10.0)
        user = GroundNode("user/u", "user_region", 0.0, 0.0)
        origin = GroundNode("origin/o", "origin", 0.0, 2.0)
        net = Network([shell], [origin, user], slot_seconds=600.0, seed=0)
        T = 6
        snaps = net.snapshots(T)
        hop = build_distance_oracle(snaps, "hop")
        geo = build_distance_oracle(snaps, "ideal")
        p1 = CostParams(metric="hop", alpha=1.0, beta=0.0, gamma=0.0, c_qmin=1.0)
        cat = ContentCatalog.uniform(["c0"])
        dem = DemandMatrix(["user/u"], ["c0"], np.ones((1, 1, T)))
        u, o = hop.index["user/u"], hop.index["origin/o"]
        sats = hop.candidates_idx
        overhead = [int(sats[np.argmin(geo.matrix(t)[u, sats])])
                    for t in range(1, T + 1)]
        assert all(a != b for a, b in zip(overhead, overhead[1:]))
        per_user = ReplicaSchedule(["c0"], T, {"c0": [tuple(sorted((o, s)))
                                                      for s in overhead]})
        direct = ReplicaSchedule.origin_only(["c0"], T, hop.origins_idx)
        t_rep = total_cost(per_user, dem, cat, hop, p1).total
        t_dir = total_cost(direct, dem, cat, hop, p1).total
        assert t_rep == pytest.approx(t_dir, rel=1e-12)


def test_criterion_5_complexity_scaling(starlink_env):
    with criterion(5, "DP relaxations scale ~4x on doubling; MTOLS >= 20x "
                      "faster wall-clock at Starlink scale"):
        # MTLS: doubling the candidate count quadruples DP pair relaxations
        counts = {}
        for n in (150, 300):
            oracle, demand, catalog, params = motion_instance(123, 4, n, 4)
            res = solve_mtls(demand, oracle, params,
                             OptimizerConfig(max_iterations=1), catalog=catalog)
            counts[n] = res.stats.relaxations
        ratio = counts[300] / counts[150]
        assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15

        # MTOLS: doubling the orbit count (fixed per-orbit size) quadruples
        # orbit-DP relaxations
        orbit_counts = {}
        for P in (16, 32):
            oracle, demand, catalog, params = motion_instance(321, 4, P * 6, 4,
                                                              orbit_rows=P)
            res = solve_mtols(demand, oracle, params,
                              OptimizerConfig(max_iterations=1), catalog=catalog)
            orbit_counts[P] = res.stats.orbit_relaxations
        ratio = orbit_counts[32] / orbit_counts[16]
        assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15

        # wall-clock gap on the shared 72x22 instance; best-of-N timings
        # de-noise scheduler interference
        env = starlink_env
        dm = grid_demand(env, 0, slots=10, n_users=10)
        cfg = OptimizerConfig(max_iterations=3)
        solve_mtols(dm, env["oracle"], env["params"], cfg, catalog=env["catalog"])
        solve_mtls(dm, env["oracle"], env["params"], cfg, catalog=env["catalog"])
        t_mtls, t_mtols = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            solve_mtls(dm, env["oracle"], env["params"], cfg, catalog=env["catalog"])
            t_mtls.append(time.perf_counter() - t0)
        for _ in range(5):
            t0 = time.perf_counter()
            solve_mtols(dm, env["oracle"], env["params"], cfg, catalog=env["catalog"])
            t_mtols.append(time.perf_counter() - t0)
        speedup = min(t_mtls) / min(t_mtols)
        print(f"\n  mtols speedup over mtls: {speedup:.1f}x")
        assert speedup >= 20.0


def test_criterion_6_outperformance(starlink_env):
    with criterion(6, "MTLS beats every baseline on >= 9 of 10 grid scenarios; "
                      "MTOLS within 10% of MTLS"):
        env = starlink_env
        baselines = ["naive_greedy", "jms_greedy", "local_search", "starfront", "pch"]
        wins = 0
        ratios = []
        for seed in range(10):
            dm = grid_demand(env, seed)
            totals = {}
            for name in baselines + ["mtols", "mtls"]:
                res = SOLVERS[name](dm, env["oracle"], env["params"],
                                    OptimizerConfig(), catalog=env["catalog"])
                res.schedule.validate(env["oracle"])
                totals[name] = total_cost(res.schedule, dm, env["catalog"],
                                          env["oracle"], env["params"]).total
            best_baseline = min(totals[b] for b in baselines)
            if totals["mtls"] <= best_baseline + 1e-9:
                wins += 1
            ratios.append(totals["mtols"] / totals["mtls"])
        print(f"\n  mtls wins {wins}/10; worst mtols/mtls ratio {max(ratios):.3f}")
        assert wins >= 9
        assert all(r <= 1.10 for r in ratios)


def test_criterion_7_baseline_signatures(starlink_env):
    with criterion(7, "PCH over-replicates vs MTLS; tuned starfront deploys at "
                      "least as many replicas as MTLS"):
        env = starlink_env
        # static demand spanning many handoff periods (258 s < 300 s slots)
        for seed, scale in ((0, 1.0), (1, 5.0), (0, 15.0)):
            dm = grid_demand(env, seed, scale=scale)
            rep_pch = replication_cost(
                solve_pch(dm, env["oracle"], env["params"], OptimizerConfig(),
                          catalog=env["catalog"]).schedule,
                env["oracle"], env["params"].alpha)
            rep_mtls = replication_cost(
                solve_mtls(dm, env["oracle"], env["params"], OptimizerConfig(),
                           catalog=env["catalog"]).schedule,
                env["oracle"], env["params"].alpha)
            assert rep_pch > rep_mtls, f"seed={seed} scale={scale}"

        # demand-heavy regime: minimizing total cost drives starfront to its
        # tight threshold and a large persistent replica fleet
        dm = grid_demand(env, 0, scale=15.0)
        sf = solve_starfront(dm, env["oracle"], env["params"], OptimizerConfig(),
                             catalog=env["catalog"])
        mt = solve_mtls(dm, env["oracle"], env["params"], OptimizerConfig(),
                        catalog=env["catalog"])
        n_sf = sf.schedule.mean_replica_count(env["oracle"])
        n_mtls = mt.schedule.mean_replica_count(env["oracle"])
        print(f"\n  starfront replicas {n_sf:.1f} vs mtls {n_mtls:.1f}")
        assert n_sf >= n_mtls


def test_criterion_8_routing_arithmetic():
    with criterion(8, "WRR splits 4/2/1 over 7 requests; 1 GB at 10 Gbps "
                      "takes 0.8 s plus propagation"):
        from test_delivery import all_sats_oracle, download_time, first_pick
        oracle = all_sats_oracle([1.0, 2.0, 3.0])
        sched = ReplicaSchedule(["c0"], 1, {"c0": [(0, 1, 2, 3)]})
        router = Router(sched, oracle, RoutingPolicy(kind="weighted_round_robin"))
        picks = [first_pick(router)[0] for _ in range(7)]
        assert (picks.count(0), picks.count(1), picks.count(2)) == (4, 2, 1)

        near = all_sats_oracle([1e-6])
        t = download_time(near, "user/u", "sat/s/00/00", 1000.0)
        assert t == pytest.approx(0.8, abs=1e-6)
        far = all_sats_oracle([25.0])  # 25 ms away
        t = download_time(far, "user/u", "sat/s/00/00", 1000.0)
        assert t == pytest.approx(0.8 + 0.025, abs=1e-9)


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical seeds reproduce byte-identical result CSVs"):
        cfg = {
            "seed": 13,
            "slot_seconds": 300,
            "horizon_slots": 4,
            "metric": "hop",
            "alpha": 5.0,
            "beta": 0.5,
            "shells": [{"name": "leo", "orbits": 6, "sats_per_orbit": 6,
                        "altitude_km": 550.0, "inclination_deg": 53.0,
                        "gamma": 1.0}],
            "gateways": {"synthetic": {"count": 4,
                                       "bbox": [25.0, -125.0, 49.0, -67.0],
                                       "seed": 8}},
            "origins": [{"name": "east", "lat_deg": 39.0, "lon_deg": -77.0}],
            "users": {"mode": "grid", "rows": 2, "cols": 3,
                      "bbox": [28.0, -120.0, 45.0, -75.0],
                      "per_slot_demand": 8.0},
            "algorithms": ["no_replica", "naive_greedy", "local_search",
                           "starfront", "pch", "mtols", "mtls"],
            "routing": {"policies": ["closest", "weighted_round_robin"]},
        }
        cfg["metric"] = "sampled"  # exercises the seeded latency draws too
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        from test_cli import masked_bytes
        names = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
        assert names
        for name in names:
            assert masked_bytes(tmp_path / "a" / name) == \
                masked_bytes(tmp_path / "b" / name), name


def test_paper_scale_hop_oracle_equals_dijkstra(starlink_env):
    """The shared 48-slot hop oracle (float32, n=1655) equals undirected
    Dijkstra bit for bit on its first and last slots, whose longest shortest
    paths take 34 hops. Every pair is connected, so both slots hold uint8
    counts."""
    from test_costmodel import full_apsp, stored_dtype
    env = starlink_env
    for t in (1, 48):
        snap = env["net"].snapshot(t)
        dist = full_apsp(snap, "hop")[0]
        got = env["oracle"].matrix(t)
        assert got.dtype == stored_dtype(dist, "hop", np.float32) == np.uint8
        assert got.astype(np.float32).tobytes() == dist.astype(np.float32).tobytes()
        assert got.max() == 34


def test_paper_scale_ideal_rows_equal_undirected_dijkstra(starlink_env):
    """Rows and predecessor rows on one paper-scale ideal slot equal an
    undirected Dijkstra over every source, before and after the slot's full
    matrix is built."""
    from test_costmodel import full_apsp
    snap = starlink_env["net"].snapshot(1)
    dist, pred = full_apsp(snap, "ideal")
    lazy = build_distance_oracle([snap], "ideal", need_paths=True)
    want = dist.astype(lazy.dtype)
    for u in lazy.users_idx:
        assert lazy.row(1, u).tobytes() == want[u].tobytes()
        assert lazy.pred_row(1, u).tobytes() == pred[u].astype(np.int32).tobytes()
    assert lazy.matrix(1).tobytes() == want.tobytes()
    assert lazy.predecessors(1).tobytes() == pred.astype(np.int32).tobytes()

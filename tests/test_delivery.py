import math

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from satcdn.constellation import GroundNode, Network, starlink_phase1
from satcdn.costmodel import DistanceOracle, ReplicaSchedule, build_distance_oracle
from satcdn.delivery import (POLICIES, DeliveryReport, LinkModel, QoEModel, Router,
                             RoutingPolicy, path_links, simulate_delivery)
from satcdn.demand import (US_BBOX, ContentCatalog, DemandMatrix, random_ground_sites,
                           synth_population_demand, us_state_nodes)

SAT, USER, GATEWAY, ORIGIN = 0, 1, 2, 3
NOPRED = -9999


def latency_oracle():
    """user(4) - sat0(0) - sat1(1) - gw(2) - origin(3) chain with ideal-ms
    weights and hand-built predecessors."""
    ids = ["sat/s/00/00", "sat/s/00/01", "gw/g", "origin/o", "user/u"]
    kind = np.array([SAT, SAT, GATEWAY, ORIGIN, USER], dtype=np.int8)
    # chain edges: u-s0 (2ms), s0-s1 (3ms), s1-g (4ms), g-o (5ms)
    edges = {(4, 0): 2.0, (0, 1): 3.0, (1, 2): 4.0, (2, 3): 5.0}
    n = 5
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    for (a, b), w in edges.items():
        D[a, b] = D[b, a] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                D[i, j] = min(D[i, j], D[i, k] + D[k, j])
    # predecessors along the chain (unique shortest paths)
    chain = [4, 0, 1, 2, 3]
    pred = np.full((n, n), NOPRED, dtype=np.int32)
    for si, s in enumerate(chain):
        for ti, t in enumerate(chain):
            if si == ti:
                continue
            step = 1 if ti > si else -1
            pred[s, t] = chain[ti - step]
    return DistanceOracle.from_matrices([D, D], ids, kind, metric="ideal",
                                        predecessors=[pred, pred])


def all_sats_oracle(dists_to_user, *, origin_dist=50.0, slots=1):
    """Star topology: every replica directly linked to the single user, the
    same at each of ``slots`` slots."""
    n_rep = len(dists_to_user)
    ids = [f"sat/s/00/{i:02d}" for i in range(n_rep)] + ["origin/o", "user/u"]
    kind = np.array([SAT] * n_rep + [ORIGIN, USER], dtype=np.int8)
    n = n_rep + 2
    D = np.full((n, n), 200.0)
    np.fill_diagonal(D, 0.0)
    pred = np.full((n, n), NOPRED, dtype=np.int32)
    u = n - 1
    for i, d in enumerate(dists_to_user):
        D[i, u] = D[u, i] = d
        pred[u, i] = u
        pred[i, u] = i
    D[n - 2, u] = D[u, n - 2] = origin_dist
    pred[u, n - 2] = u
    pred[n - 2, u] = n - 2
    return DistanceOracle.from_matrices([D] * slots, ids, kind, metric="ideal",
                                        predecessors=[pred] * slots)


def first_pick(router):
    """The serving replica of one request of ``user/u`` for ``c0`` at slot 1,
    and whether it is reachable."""
    (pick,), reachable = router.picks(router.oracle.index["user/u"], "c0", 1, 1)
    return pick, reachable


def download_time(oracle, user, replica, size_mb, slot=1):
    """Seconds to download one ``size_mb`` chunk of ``user`` from ``replica``
    (an id or an index) at ``slot``, read back from ``simulate_delivery``'s
    score of that one request; +inf if it is unreachable. The QoE budget
    halves from 64 s until the time lies on the score's linear part, between
    the budget and twice the budget, where score = max_score * (2 - time /
    budget)."""
    r = oracle.index[replica] if isinstance(replica, str) else int(replica)
    sched = ReplicaSchedule(["c0"], slot, {"c0": [(r,)] * slot})
    values = np.zeros((1, 1, slot))
    values[0, 0, -1] = 1.0
    demand = DemandMatrix([user], ["c0"], values)
    catalog = ContentCatalog(["c0"], [size_mb])
    for k in range(6, -40, -1):
        qoe = QoEModel(budget_s=2.0 ** k)
        rep = simulate_delivery(sched, demand, RoutingPolicy(), LinkModel(), qoe, oracle,
                                catalog)
        score = rep.mean_qoe[-1]
        if rep.unreachable_requests:
            return math.inf
        if score < qoe.max_score:
            assert score > 0.0
            return qoe.budget_s * (2.0 - score / qoe.max_score)
    raise AssertionError("download time below 2**-40 s")


class TestRoutingPolicies:
    def test_validation(self):
        with pytest.raises(ValueError):
            RoutingPolicy(kind="nearest")
        with pytest.raises(ValueError):
            RoutingPolicy(weights=(0.2, 0.3, 0.5))  # increasing with distance
        with pytest.raises(ValueError):
            RoutingPolicy(weights=(0.5, 0.2))  # wrong length

    def test_origin_only_every_policy(self):
        oracle = latency_oracle()
        sched = ReplicaSchedule.origin_only(["c0"], 2, oracle.origins_idx)
        for kind in ("closest", "round_robin", "weighted_round_robin"):
            got = first_pick(Router(sched, oracle, RoutingPolicy(kind=kind)))[0]
            assert got == 3

    def test_wrr_exact_split_over_seven(self):
        oracle = all_sats_oracle([1.0, 2.0, 3.0])
        sched = ReplicaSchedule(["c0"], 1, {"c0": [(0, 1, 2, 3)]})
        router = Router(sched, oracle, RoutingPolicy(kind="weighted_round_robin"))
        picks = [first_pick(router)[0] for _ in range(7)]
        assert picks.count(0) == 4 and picks.count(1) == 2 and picks.count(2) == 1

    def test_wrr_long_run_shares(self):
        oracle = all_sats_oracle([1.0, 2.0, 3.0])
        sched = ReplicaSchedule(["c0"], 1, {"c0": [(0, 1, 2, 3)]})
        router = Router(sched, oracle, RoutingPolicy(kind="weighted_round_robin"))
        n = 7 * 120
        picks = [first_pick(router)[0] for _ in range(n)]
        for idx, share in ((0, 4 / 7), (1, 2 / 7), (2, 1 / 7)):
            assert abs(picks.count(idx) / n - share) <= 1.0 / n + 1e-12

    def test_round_robin_cycles_n_closest(self):
        oracle = all_sats_oracle([1.0, 2.0, 3.0, 4.0])
        sched = ReplicaSchedule(["c0"], 1, {"c0": [(0, 1, 2, 3, 4)]})
        router = Router(sched, oracle, RoutingPolicy(kind="round_robin"))
        picks = [first_pick(router)[0] for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]  # fanout 3 over the closest three

    def test_closest_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        d = rng.uniform(1, 30, size=6).tolist()
        oracle = all_sats_oracle(d)
        sched = ReplicaSchedule(["c0"], 1, {"c0": tuple([tuple(range(7))])})
        got = first_pick(Router(sched, oracle, RoutingPolicy(kind="closest")))[0]
        D = oracle.matrix(1)
        u = oracle.index["user/u"]
        want = min(range(7), key=lambda v: (D[u, v], v))
        assert got == want

    def test_unreachable_falls_back_to_origin(self):
        ids = ["sat/s/00/00", "origin/o", "user/u"]
        kind = np.array([SAT, ORIGIN, USER], dtype=np.int8)
        D = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, np.inf], [np.inf, np.inf, 0.0]])
        pred = np.full((3, 3), NOPRED, dtype=np.int32)
        oracle = DistanceOracle.from_matrices([D], ids, kind, metric="ideal",
                                              predecessors=[pred])
        sched = ReplicaSchedule(["c0"], 1, {"c0": [(0, 1)]})
        router = Router(sched, oracle, RoutingPolicy(kind="closest"))
        rep, reachable = first_pick(router)
        assert rep == 1 and not reachable


class TestChunkDownloadTime:
    """One request's download time: propagation plus the chunk over the
    path's bottleneck link, as ``simulate_delivery`` scores it."""

    def test_gigabyte_at_10gbps(self):
        oracle = all_sats_oracle([1e-6])
        t = download_time(oracle, "user/u", "sat/s/00/00", 1000.0)
        assert t == pytest.approx(0.8, abs=1e-6)

    def test_propagation_added(self):
        oracle = latency_oracle()
        # user -> gw/g: 9 ms propagation; bottleneck satellite 10 Gbps
        t = download_time(oracle, "user/u", "gw/g", 1000.0)
        assert t == pytest.approx(0.8 + 0.009, abs=1e-9)

    def test_bottleneck_rule_mixed_path(self):
        oracle = latency_oracle()
        # user -> origin crosses one terrestrial link (g-o) and satellite links
        t = download_time(oracle, "user/u", "origin/o", 1000.0)
        assert t == pytest.approx(0.8 + 0.014, abs=1e-9)

    def test_local_serve_transmission_only(self):
        oracle = latency_oracle()
        t = download_time(oracle, "user/u", "user/u", 500.0)
        assert t == pytest.approx((500.0 * 8e6) / 20e9, abs=1e-9)

    def test_monotone_in_size_and_path(self):
        oracle = latency_oracle()
        t1 = download_time(oracle, "user/u", "sat/s/00/00", 10.0)
        t2 = download_time(oracle, "user/u", "sat/s/00/00", 20.0)
        t3 = download_time(oracle, "user/u", "gw/g", 10.0)
        assert t1 < t2 and t1 < t3


class TestPathLinks:
    def test_chain_path(self):
        oracle = latency_oracle()
        u, o = oracle.index["user/u"], oracle.index["origin/o"]
        assert path_links(oracle, 1, u, o) == [(4, 0), (0, 1), (1, 2), (2, 3)]

    def test_self_path_empty(self):
        oracle = latency_oracle()
        assert path_links(oracle, 1, 0, 0) == []


class TestSimulateDelivery:
    def test_hop_oracle_rejected(self):
        """Hop counts are not milliseconds: delivery refuses them."""
        oracle = latency_oracle()
        oracle.metric = "hop"
        sched = ReplicaSchedule.origin_only(["c0"], 1, oracle.origins_idx)
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 1), 5.0))
        with pytest.raises(ValueError, match="latency"):
            simulate_delivery(sched, demand, RoutingPolicy(), LinkModel(), QoEModel(), oracle)

    def test_zero_demand_empty_report(self):
        oracle = latency_oracle()
        sched = ReplicaSchedule.origin_only(["c0"], 2, oracle.origins_idx)
        demand = DemandMatrix(["user/u"], ["c0"], np.zeros((1, 1, 2)))
        rep = simulate_delivery(sched, demand, RoutingPolicy(), LinkModel(),
                                QoEModel(), oracle)
        assert rep.traffic_gb == 0.0
        assert all(math.isnan(q) for q in rep.mean_qoe)

    def test_manual_traffic_accounting(self):
        oracle = latency_oracle()
        sched = ReplicaSchedule.origin_only(["c0"], 1, oracle.origins_idx)
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 1), 5.0))
        catalog = ContentCatalog(["c0"], np.array([100.0]))
        rep = simulate_delivery(sched, demand, RoutingPolicy(), LinkModel(),
                                QoEModel(), oracle, catalog)
        # 5 requests x 0.1 GB x 4 links
        assert rep.traffic_gb == pytest.approx(5 * 0.1 * 4)
        assert rep.per_replica["origin/o"]["requests"] == 5

    def test_replicas_cut_traffic_vs_origin_only(self):
        oracle = latency_oracle()
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 2), 4.0))
        catalog = ContentCatalog.uniform(["c0"], 10.0)
        origin_only = ReplicaSchedule.origin_only(["c0"], 2, oracle.origins_idx)
        near = ReplicaSchedule(["c0"], 2, {"c0": [(0, 3), (0, 3)]})
        r0 = simulate_delivery(origin_only, demand, RoutingPolicy(), LinkModel(),
                               QoEModel(), oracle, catalog)
        r1 = simulate_delivery(near, demand, RoutingPolicy(), LinkModel(),
                               QoEModel(), oracle, catalog)
        assert r0.traffic_gb > r1.traffic_gb

    def test_closest_traffic_not_above_round_robin(self):
        # replicas at 1 and 3 links away: RR pushes every other request onto
        # the longer path, so it moves strictly more bytes over links
        oracle = latency_oracle()
        sched = ReplicaSchedule(["c0"], 1, {"c0": [(0, 2, 3)]})
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 1), 12.0))
        catalog = ContentCatalog.uniform(["c0"], 10.0)
        close = simulate_delivery(sched, demand, RoutingPolicy(kind="closest"),
                                  LinkModel(), QoEModel(), oracle, catalog)
        rr = simulate_delivery(sched, demand, RoutingPolicy(kind="round_robin"),
                               LinkModel(), QoEModel(), oracle, catalog)
        assert close.traffic_gb < rr.traffic_gb

    def test_qoe_decays_with_download_time(self):
        q = QoEModel(budget_s=4.0, max_score=10.0)
        assert q.score(1.0) == 10.0
        assert q.score(4.0) == 10.0
        assert q.score(6.0) == pytest.approx(5.0)
        assert q.score(8.0) == 0.0
        assert q.score(math.inf) == 0.0

    def test_capacity_queueing_slows_requests(self):
        oracle = latency_oracle()
        sched = ReplicaSchedule(["c0"], 1, {"c0": [(0, 3)]})
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 1), 8.0))
        catalog = ContentCatalog.uniform(["c0"], 4.0)  # 4 MB chunks
        fast = simulate_delivery(sched, demand, RoutingPolicy(), LinkModel(),
                                 QoEModel(budget_s=0.05), oracle, catalog)
        slow = simulate_delivery(sched, demand, RoutingPolicy(),
                                 LinkModel(server_capacity_mbps=96.0),
                                 QoEModel(budget_s=0.05), oracle, catalog)
        assert slow.overall_mean_qoe < fast.overall_mean_qoe

    def test_report_rows(self):
        oracle = latency_oracle()
        sched = ReplicaSchedule.origin_only(["c0"], 1, oracle.origins_idx)
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 1), 2.0))
        rep = simulate_delivery(sched, demand, RoutingPolicy(), LinkModel(),
                                QoEModel(), oracle)
        rows = list(rep.rows())
        assert rows[0][0] == 1 and rows[0][1] == "closest"


def network_oracles():
    """An oracle computing rows and predecessor rows on demand on a small LEO
    network, and one holding the full APSP arrays of the same snapshots."""
    shell = starlink_phase1(orbit_count=6, sats_per_orbit=8, name="s")
    states, weights = us_state_nodes()
    ground = random_ground_sites(4, US_BBOX, seed=9) + \
        [GroundNode("origin/east", "origin", 39.0, -77.0)] + states
    snaps = Network([shell], ground, seed=5).snapshots(3)
    lazy = build_distance_oracle(snaps, "ideal", need_paths=True)
    full = [dijkstra(s.to_csr("ideal"), directed=False, return_predecessors=True)
            for s in snaps]
    eager = DistanceOracle.from_matrices([d for d, _ in full], lazy.ids, lazy.kind,
                                         metric="ideal", predecessors=[p for _, p in full])
    demand = synth_population_demand(weights, 600, 3, rng_seed=4, contents=["c0", "c1"])
    cands = lazy.candidates_idx
    origins = tuple(int(o) for o in lazy.origins_idx)
    sets = {c: [tuple(sorted(origins + tuple(int(x) for x in cands[(t + k) % 5::5])))
                for t in range(3)] for k, c in enumerate(demand.contents)}
    return lazy, eager, ReplicaSchedule(demand.contents, 3, sets), demand


class TestLazyOracleDelivery:
    @pytest.mark.parametrize("kind", ["closest", "weighted_round_robin"])
    @pytest.mark.parametrize("capacity", [None, 96.0])
    def test_report_identical_on_lazy_and_eager_oracle(self, kind, capacity):
        lazy, eager, sched, demand = network_oracles()
        catalog = ContentCatalog.uniform(demand.contents, 4.0)
        links = LinkModel(server_capacity_mbps=capacity)
        reports = [simulate_delivery(sched, demand, RoutingPolicy(kind=kind), links,
                                     QoEModel(), o, catalog) for o in (lazy, eager)]
        assert reports[0].per_replica and repr(reports[0]) == repr(reports[1])

    def test_download_time_and_paths_match(self):
        lazy, eager, sched, demand = network_oracles()
        finite = 0
        for user in demand.users[:10]:
            u = lazy.index[user]
            for rep in sched.nodes("c0", 2):
                assert path_links(lazy, 2, u, rep) == path_links(eager, 2, u, rep)
                t = download_time(lazy, user, rep, 4.0, slot=2)
                assert t == download_time(eager, user, rep, 4.0, slot=2)
                finite += math.isfinite(t)
        assert finite > 20

    @pytest.mark.parametrize("kind", POLICIES)
    @pytest.mark.parametrize("capacity", [None, 96.0])
    def test_report_matches_per_request_restatement(self, kind, capacity):
        lazy, eager, sched, demand = network_oracles()
        # 2.5, 3.5, 0.5 and 1.5 round half to even: 2, 4, 0 and 2 requests
        values = demand.values.copy()
        values[:4, 0, :] = [[2.5], [3.5], [0.5], [1.5]]
        demand = DemandMatrix(demand.users, demand.contents, values)
        assert (np.rint(values) >= 2).sum() > 100  # many groups of several requests
        catalog = ContentCatalog.uniform(demand.contents, 4.0)
        policy, links = RoutingPolicy(kind=kind), LinkModel(server_capacity_mbps=capacity)
        want, _ = per_request_report(sched, demand, policy, links, QoEModel(), eager, catalog)
        got = simulate_delivery(sched, demand, policy, links, QoEModel(), lazy, catalog)
        assert want.unreachable_requests and got.unreachable_requests == want.unreachable_requests
        assert got.traffic_gb == want.traffic_gb
        assert got.mean_qoe == want.mean_qoe
        assert got.per_replica == want.per_replica
        assert sum(r["requests"] for r in got.per_replica.values()) == np.rint(values).sum()

    @pytest.mark.parametrize("kind,picks", [
        ("round_robin", [[0, 1], [0, 3, 0], [2, 0], [1, 2]]),
        ("weighted_round_robin", [[0, 1], [0, 3, 0], [0, 1], [0, 2]]),
    ])
    def test_routing_state_carries_across_slots(self, kind, picks):
        # 3, 2, 3 and 3 ranked replicas (the origin, node 3, ranks last):
        # round robin keeps counting across slots; smooth WRR restarts when
        # the list length changes and carries over from slot 3 to slot 4,
        # where a fresh state would pick [0, 1]
        oracle = all_sats_oracle([1.0, 2.0, 3.0], slots=4)
        sched = ReplicaSchedule(["c0"], 4, {"c0": [(0, 1, 2, 3), (0, 3), (0, 1, 2, 3),
                                                   (0, 1, 2, 3)]})
        demand = DemandMatrix(["user/u"], ["c0"], np.array([[[2.0, 3.0, 2.0, 2.0]]]))
        catalog = ContentCatalog.uniform(["c0"], 4.0)
        policy, links, qoe = RoutingPolicy(kind=kind), LinkModel(), QoEModel(budget_s=0.004)
        want, got_picks = per_request_report(sched, demand, policy, links, qoe, oracle, catalog)
        assert got_picks == [r for slot in picks for r in slot]
        got = simulate_delivery(sched, demand, policy, links, qoe, oracle, catalog)
        assert (got.mean_qoe, got.traffic_gb, got.per_replica) == \
            (want.mean_qoe, want.traffic_gb, want.per_replica)


def per_request_report(sched, demand, policy, links, qoe, oracle, catalog):
    """``simulate_delivery`` restated one request at a time: a ``Router.picks``
    call per request, then its path, bottleneck, FIFO wait and download time
    from the oracle's full matrices, with no memo. Returns the report and
    every pick in request order."""
    router = Router(sched, oracle, policy)
    cap = links.server_capacity_mbps
    T = demand.slot_count
    qoe_sum, qoe_n, traffic, unreachable = [0.0] * T, [0] * T, 0.0, 0
    per_replica, backlog, picks = {}, {}, []
    for t in range(1, T + 1):
        D = oracle.matrix(t)
        for ci, c in enumerate(demand.contents):
            size_mb = catalog.size_of(c)
            for uj, user in enumerate(demand.users):
                u = oracle.index[user]
                for _ in range(int(round(demand.values[uj, ci, t - 1]))):
                    (rep,), reachable = router.picks(u, c, t, 1)
                    picks.append(rep)
                    rec = per_replica.setdefault(oracle.ids[rep], {"requests": 0.0, "gb": 0.0})
                    rec["requests"] += 1
                    qoe_n[t - 1] += 1
                    if not reachable:
                        unreachable += 1
                        continue
                    edges = path_links(oracle, t, u, rep)
                    gbps = min((links.satellite_gbps if SAT in oracle.kind[[a, b]]
                                else links.terrestrial_gbps for a, b in edges),
                               default=links.terrestrial_gbps)
                    if cap is not None:
                        gbps = min(gbps, cap / 1000.0)
                    transmit, wait = size_mb * 8.0e6 / (gbps * 1.0e9), 0.0
                    if cap is not None:
                        wait = backlog.get((rep, t), 0.0)
                        backlog[rep, t] = wait + transmit
                    dt = D[u, rep] / 1000.0 + wait + transmit
                    qoe_sum[t - 1] += qoe.score(dt)
                    traffic += size_mb / 1000.0 * len(edges)
                    rec["gb"] += size_mb / 1000.0
    report = DeliveryReport(policy.kind, T, [s / n if n else math.nan for s, n in
                                             zip(qoe_sum, qoe_n)], traffic, per_replica,
                            unreachable)
    return report, picks

import numpy as np
import pytest

from helpers import (exhaustive_slot_optimum, motion_instance, slot_cost_given_prev)
from satcdn.costmodel import CostParams, DistanceOracle, total_cost
from satcdn.demand import ContentCatalog, DemandMatrix
from satcdn.placement import (OptimizerConfig, default_thresholds, solve_jms_greedy,
                              solve_local_search, solve_naive_greedy, solve_no_replica,
                              solve_pch, solve_starfront)
from satcdn.placement.baselines import _TOL, _jms_greedy_slot, _opening_costs, _slot_by_slot
from satcdn.placement.core import BIG, solve_per_content

SAT, USER, GATEWAY, ORIGIN = 0, 1, 2, 3


class TestNoReplica:
    def test_costs_and_schedule(self):
        oracle, demand, catalog, params = motion_instance(1, 3, 5, 4)
        res = solve_no_replica(demand, oracle, params)
        br = total_cost(res.schedule, demand, catalog, oracle, params)
        assert br.replication == 0.0 and br.storage == 0.0
        # query equals the direct-to-origin sum
        origins = [int(i) for i in oracle.origins_idx]
        ref = 0.0
        for t in range(1, 5):
            D = oracle.matrix(t)
            for uj, u in enumerate(demand.users):
                w = demand.values[uj, 0, t - 1]
                ref += w * min(D[oracle.index[u], o] for o in origins)
        assert br.query == pytest.approx(ref, rel=1e-12)
        assert res.stats.relaxations == 0  # no optimization work at all


class TestNaiveGreedy:
    def test_stays_origin_when_nothing_helps(self):
        oracle, demand, catalog, params = motion_instance(2, 2, 4, 3, alpha=50.0,
                                                          beta=5.0, gamma=5.0)
        res = solve_naive_greedy(demand, oracle, params, catalog=catalog)
        origins = tuple(int(i) for i in oracle.origins_idx)
        # with storage this punishing nothing should open
        assert all(res.schedule.nodes("c0", t) == origins for t in (1, 2, 3))

    def test_single_hot_user_gets_one_replica(self):
        # candidate 0 sits on the user; the origin is far; cheap storage
        ids = ["sat/s/00/00", "sat/s/00/01", "origin/o", "user/u"]
        kind = np.array([SAT, SAT, ORIGIN, USER], dtype=np.int8)
        D = np.array([
            [0.0, 4.0, 6.0, 0.5],
            [4.0, 0.0, 5.0, 4.0],
            [6.0, 5.0, 0.0, 6.0],
            [0.5, 4.0, 6.0, 0.0],
        ])
        oracle = DistanceOracle.from_matrices([D], ids, kind)
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 1), 100.0))
        params = CostParams("hop", 1.0, 0.1, 0.1, 1.0)
        res = solve_naive_greedy(demand, oracle, params)
        assert res.schedule.nodes("c0", 1) == (0, 2)
        # single-step enumeration oracle: adding sat 0 must beat every
        # alternative single addition and the empty addition
        base_cost = slot_cost_given_prev(oracle, demand, None, params, "c0", 1,
                                         [2], (2,))
        best_single = min(
            slot_cost_given_prev(oracle, demand, None, params, "c0", 1, [2],
                                 tuple(sorted({2, c})))
            for c in (0, 1))
        chosen = slot_cost_given_prev(oracle, demand, None, params, "c0", 1, [2], (0, 2))
        assert chosen == pytest.approx(best_single) and chosen < base_cost

    def test_greedy_never_worse_than_origin_only(self):
        for seed in range(5):
            oracle, demand, catalog, params = motion_instance(100 + seed, 4, 8, 5,
                                                              alpha=1.5, beta=0.2,
                                                              gamma=0.4)
            greedy = solve_naive_greedy(demand, oracle, params, catalog=catalog)
            base = solve_no_replica(demand, oracle, params)
            assert (total_cost(greedy.schedule, demand, catalog, oracle, params).total
                    <= total_cost(base.schedule, demand, catalog, oracle, params).total
                    + 1e-9)


class TestJMSGreedy:
    def test_single_client_single_candidate(self):
        ids = ["sat/s/00/00", "origin/o", "user/u"]
        kind = np.array([SAT, ORIGIN, USER], dtype=np.int8)
        D = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 9.0], [1.0, 9.0, 0.0]])
        oracle = DistanceOracle.from_matrices([D], ids, kind)
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 1), 3.0))
        params = CostParams("hop", 1.0, 0.5, 0.5, 1.0)
        res = solve_jms_greedy(demand, oracle, params)
        assert res.schedule.nodes("c0", 1) == (0, 1)

    def test_textbook_instance_within_factor(self):
        # 4 clients, 3 facilities plus the origin; compare to the exhaustive
        # single-slot optimum
        ids = [f"sat/s/00/{i:02d}" for i in range(3)] + ["origin/o"] + \
              [f"user/u{i}" for i in range(4)]
        kind = np.array([SAT] * 3 + [ORIGIN] + [USER] * 4, dtype=np.int8)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, size=(8, 2))
        D = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        np.fill_diagonal(D, 0)
        oracle = DistanceOracle.from_matrices([D], ids, kind)
        demand = DemandMatrix([f"user/u{i}" for i in range(4)], ["c0"],
                              rng.uniform(1, 4, (4, 1, 1)))
        catalog = ContentCatalog.uniform(["c0"])
        params = CostParams("hop", 1.5, 0.3, 0.6, 1.0)
        res = solve_jms_greedy(demand, oracle, params, catalog=catalog)
        got = slot_cost_given_prev(oracle, demand, catalog, params, "c0", 1,
                                   [3], res.schedule.nodes("c0", 1))
        opt, _ = exhaustive_slot_optimum(oracle, demand, catalog, params, "c0", 1, [3])
        assert got <= 1.61 * opt + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_within_1_61_of_exhaustive_per_slot(self, seed):
        oracle, demand, catalog, params = motion_instance(300 + seed, 4, 8, 3,
                                                          alpha=1.5, beta=0.2,
                                                          gamma=0.4)
        res = solve_jms_greedy(demand, oracle, params, catalog=catalog)
        origins = [int(i) for i in oracle.origins_idx]
        prev = origins
        for t in range(1, 4):
            cur = res.schedule.nodes("c0", t)
            got = slot_cost_given_prev(oracle, demand, catalog, params, "c0", t,
                                       prev, cur)
            opt, _ = exhaustive_slot_optimum(oracle, demand, catalog, params, "c0",
                                             t, prev)
            assert got <= 1.61 * opt + 1e-9
            prev = cur


def _jms_full_width_slot(prob, B, du, wz, prev):
    """``_jms_greedy_slot`` restated full width: every opening step takes the
    prefix sums and rebates over all clients, with 0.0 for assigned ones.
    Distances are clipped to ``BIG`` in the DP dtype before any arithmetic,
    as the solver's are."""
    clients = np.flatnonzero(wz > 0)
    facilities = np.concatenate([np.asarray(prob.s0), prob.cand_pos])
    f_open = np.concatenate([np.zeros(len(prob.s0)),
                             _opening_costs(prob, B, prev)[prob.cand_pos]])
    Draw = np.minimum(du[np.ix_(clients, facilities)], BIG, dtype=prob.dp_dtype)
    Draw = Draw.astype(np.float64)
    D = Draw * wz[clients][:, None]
    order = np.argsort(Draw, axis=0, kind="stable")
    Ds = np.take_along_axis(D, order, axis=0)
    ws = wz[clients][order]
    assigned = np.zeros(clients.size, dtype=bool)
    cur = np.full(clients.size, np.inf)
    open_mask = np.zeros(facilities.size, dtype=bool)
    opened = []
    while not assigned.all():
        amask = assigned[order]
        conn = np.where(amask, 0.0, Ds).cumsum(axis=0)
        wsum = np.where(amask, 0.0, ws).cumsum(axis=0)
        rebate = np.where(assigned[:, None], np.maximum(cur[:, None] - D, 0.0), 0.0).sum(axis=0)
        f_eff = np.where(open_mask, 0.0, f_open)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (f_eff[None, :] - rebate[None, :] + conn) / wsum
        ratio[wsum <= 0] = np.inf
        fi, p = divmod(int(np.argmin(ratio.T)), ratio.shape[0])
        take = order[:p + 1, fi]
        take = take[~assigned[take]]
        open_mask[fi] = True
        if int(facilities[fi]) not in prob.s0 and int(facilities[fi]) not in opened:
            opened.append(int(facilities[fi]))
        assigned[take] = True
        cur[take] = D[take, fi]
        switch = assigned & (D[:, fi] < cur)
        cur[switch] = D[switch, fi]
    return tuple(sorted(set(prob.s0) | set(opened)))


def _jms_instance(seed, case):
    n_gw = 8 if case == "gateways" else 0
    oracle, demand, catalog, params = motion_instance(seed, 14, 30 - n_gw, 3, n_gateways=n_gw,
                                                      alpha=1.0, beta=0.1, gamma=0.1)
    mats = [oracle.matrix(t) for t in range(1, 4)]
    values = demand.values
    if case == "hop":  # integer distances, weights and opening costs: many ratio ties
        mats, values = [np.rint(D) for D in mats], np.rint(values)
        params = CostParams("hop", 1.0, 1.0, 1.0, 1.0)
    if case == "gateways":  # satellites store at 20x the gateways' rate
        params = CostParams("hop", 1.0, 0.05, 1.0, 1.0)
    if case == "disconnected":
        u = oracle.index[demand.users[0]]
        for D in mats:
            D[u, :] = D[:, u] = np.inf
            D[u, u] = 0.0
    oracle = DistanceOracle.from_matrices(mats, oracle.ids, oracle.kind,
                                          metric="hop" if case == "hop" else "ideal")
    if case == "restricted":
        oracle = oracle.with_candidates(oracle.candidates_idx[::2])
    return oracle, DemandMatrix(demand.users, demand.contents, values), catalog, params


JMS_CASES = pytest.mark.parametrize("case", ["hop", "ideal", "disconnected", "restricted",
                                              "gateways"])


def _slot_reads(prob, t):
    return prob.block(t), prob.user_block(t), prob.weights(t)


def _naive_greedy_ref(prob, B, du, wz, prev):
    """Per-slot greedy additions restated on their own: the nearest distances
    are kept up to date one addition at a time, clipped to ``BIG`` in the DP
    dtype as the solver's are."""
    open_cost = _opening_costs(prob, B, prev)
    chosen = list(prob.s0)
    d1u = np.minimum(du[:, np.asarray(chosen)].min(axis=1), BIG, dtype=prob.dp_dtype)
    while True:
        in_set = np.zeros(prob.m, dtype=bool)
        in_set[np.asarray(chosen)] = True
        cand = prob.cand_pos[~in_set[prob.cand_pos]]
        if cand.size == 0:
            break
        new_qc = (wz[:, None] * np.minimum(d1u[:, None], du[:, cand])).sum(axis=0)
        delta = new_qc - float((wz * d1u).sum()) + open_cost[cand]
        j = int(np.argmin(delta))
        if delta[j] >= -_TOL:
            break
        w = int(cand[j])
        chosen.append(w)
        d1u = np.minimum(d1u, du[:, w])
    return tuple(sorted(chosen))


def _starfront_sets_ref(prob, theta):
    """One content's StarFront sets under ``theta``, restated as its own loop
    over slots with the placed replicas carried across them, and the number
    of user-slots that no candidate within ``theta`` could cover."""
    placed = set()
    slots = []
    flagged = 0
    for t in range(1, prob.T + 1):
        B, du, wz = _slot_reads(prob, t)
        cur = set(prob.s0) | placed
        for uj in np.flatnonzero(wz > 0):
            cur_arr = np.asarray(sorted(cur), dtype=np.int64)
            if du[uj, cur_arr].min() <= theta:
                continue
            qual = prob.cand_pos[(du[uj, prob.cand_pos] <= theta)
                                 & ~np.isin(prob.cand_pos, cur_arr)]
            if qual.size == 0:
                flagged += 1
                continue
            d_src = B[qual[:, None], cur_arr].min(axis=1).astype(np.float64)
            score = prob.alpha * d_src + (prob.T - t + 1) * prob.rate[qual]
            w = int(qual[np.argmin(score)])
            placed.add(w)
            cur.add(w)
        slots.append(tuple(sorted(cur)))
    return slots, flagged


class TestJMSGreedyShrinkingColumns:
    @JMS_CASES
    @pytest.mark.parametrize("seed", range(600, 604))
    def test_same_sets_as_full_width_step(self, case, seed):
        oracle, demand, catalog, params = _jms_instance(seed, case)
        sets = []

        def both(prob, t, prev):
            got = _jms_greedy_slot(prob, t, prev)
            assert got == _jms_full_width_slot(prob, *_slot_reads(prob, t), prev)
            sets.append(got)
            return got

        solve_per_content("jms_greedy", demand, oracle, params, catalog, _slot_by_slot(both))
        assert len(sets) == 3 and max(len(s) for s in sets) >= 3  # several openings


class TestNaiveGreedyIsLocalSearchAdds:
    @JMS_CASES
    @pytest.mark.parametrize("seed", range(600, 604))
    def test_same_sets_as_add_only_greedy(self, case, seed):
        oracle, demand, catalog, params = _jms_instance(seed, case)
        got = solve_naive_greedy(demand, oracle, params, catalog=catalog)
        ref = solve_per_content("ref", demand, oracle, params, catalog, _slot_by_slot(
            lambda prob, t, prev: _naive_greedy_ref(prob, *_slot_reads(prob, t), prev)))
        assert got.schedule.sets == ref.schedule.sets
        assert max(len(s) for s in got.schedule.sets["c0"]) >= 3  # several additions


class TestStarFrontSlotRule:
    @JMS_CASES
    @pytest.mark.parametrize("seed", range(600, 604))
    def test_same_sets_and_flags_as_carried_loop(self, case, seed):
        oracle, demand, catalog, params = _jms_instance(seed, case)
        placed = flagged_any = False
        for theta in default_thresholds(params.metric):
            got = solve_starfront(demand, oracle, params,
                                  OptimizerConfig(starfront_thresholds=(theta,)), catalog=catalog)
            flagged = 0

            def rule(c, prob, stats):
                nonlocal flagged
                slots, n = _starfront_sets_ref(prob, theta)
                flagged += n
                return slots

            ref = solve_per_content("ref", demand, oracle, params, catalog, rule)
            assert got.schedule.sets == ref.schedule.sets
            assert got.stats.warnings == ([f"threshold {theta}: {flagged} user-slot(s) left "
                                           "beyond the threshold and served by the nearest "
                                           "existing replica"] if flagged else [])
            placed |= len(got.schedule.sets["c0"][-1]) > 1
            flagged_any |= flagged > 0
        assert placed and (flagged_any or case not in ("disconnected", "restricted"))


class TestLocalSearch:
    def test_origin_local_optimum_unchanged(self):
        oracle, demand, catalog, params = motion_instance(4, 2, 4, 2, alpha=50.0,
                                                          beta=5.0, gamma=5.0)
        res = solve_local_search(demand, oracle, params, catalog=catalog)
        origins = tuple(int(i) for i in oracle.origins_idx)
        assert all(res.schedule.nodes("c0", t) == origins for t in (1, 2))

    @pytest.mark.parametrize("seed", range(5))
    def test_within_3x_of_exhaustive(self, seed):
        oracle, demand, catalog, params = motion_instance(400 + seed, 3, 7, 3,
                                                          alpha=1.5, beta=0.2,
                                                          gamma=0.4)
        res = solve_local_search(demand, oracle, params, catalog=catalog)
        origins = [int(i) for i in oracle.origins_idx]
        prev = origins
        for t in range(1, 4):
            cur = res.schedule.nodes("c0", t)
            got = slot_cost_given_prev(oracle, demand, catalog, params, "c0", t, prev, cur)
            opt, _ = exhaustive_slot_optimum(oracle, demand, catalog, params, "c0", t, prev)
            assert got <= 3.0 * opt + 1e-9
            prev = cur

    @pytest.mark.parametrize("seed", range(4))
    def test_output_is_local_optimum(self, seed):
        oracle, demand, catalog, params = motion_instance(500 + seed, 3, 6, 2,
                                                          alpha=1.2, beta=0.1,
                                                          gamma=0.3)
        res = solve_local_search(demand, oracle, params, catalog=catalog)
        origins = set(int(i) for i in oracle.origins_idx)
        cands = [int(i) for i in oracle.candidates_idx]
        prev = sorted(origins)
        for t in range(1, 3):
            cur = set(res.schedule.nodes("c0", t))
            cost = slot_cost_given_prev(oracle, demand, catalog, params, "c0", t,
                                        prev, tuple(sorted(cur)))
            moves = []
            for w in cands:
                if w not in cur:
                    moves.append(cur | {w})
            for z in cur - origins:
                moves.append(cur - {z})
                for w in cands:
                    if w not in cur:
                        moves.append((cur - {z}) | {w})
            for m in moves:
                alt = slot_cost_given_prev(oracle, demand, catalog, params, "c0", t,
                                           prev, tuple(sorted(m)))
                assert alt >= cost - 1e-9
            prev = sorted(cur)


def starfront_instance():
    """Two users, origin 3 hops away, candidates at various distances."""
    ids = [f"sat/s/00/{i:02d}" for i in range(4)] + ["origin/o", "user/a", "user/b"]
    kind = np.array([SAT] * 4 + [ORIGIN] + [USER] * 2, dtype=np.int8)
    #       s0   s1   s2   s3   o    ua   ub
    D = np.array([
        [0.0, 2.0, 2.0, 2.0, 1.0, 1.0, 3.0],
        [2.0, 0.0, 2.0, 2.0, 1.0, 3.0, 1.0],
        [2.0, 2.0, 0.0, 2.0, 2.0, 2.0, 2.0],
        [2.0, 2.0, 2.0, 0.0, 1.0, 4.0, 4.0],
        [1.0, 1.0, 2.0, 1.0, 0.0, 3.0, 3.0],
        [1.0, 3.0, 2.0, 4.0, 3.0, 0.0, 4.0],
        [3.0, 1.0, 2.0, 4.0, 3.0, 4.0, 0.0],
    ])
    oracle = DistanceOracle.from_matrices([D, D], ids, kind)
    demand = DemandMatrix(["user/a", "user/b"], ["c0"], np.full((2, 1, 2), 2.0))
    return oracle, demand


class TestStarFront:
    def test_loose_threshold_keeps_origin_only(self):
        oracle, demand = starfront_instance()
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        cfg = OptimizerConfig(starfront_thresholds=(3.0,))
        res = solve_starfront(demand, oracle, params, cfg)
        assert res.schedule.nodes("c0", 1) == (4,)

    def test_tight_threshold_covers_every_user(self):
        oracle, demand = starfront_instance()
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        cfg = OptimizerConfig(starfront_thresholds=(1.0,))
        res = solve_starfront(demand, oracle, params, cfg)
        D = oracle.matrix(1)
        for t in (1, 2):
            cur = res.schedule.nodes("c0", t)
            for u in ("user/a", "user/b"):
                assert min(D[oracle.index[u], v] for v in cur) <= 1.0

    def test_replicas_persist_once_placed(self):
        oracle, demand = starfront_instance()
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        cfg = OptimizerConfig(starfront_thresholds=(1.0,))
        res = solve_starfront(demand, oracle, params, cfg)
        assert set(res.schedule.nodes("c0", 1)) <= set(res.schedule.nodes("c0", 2))

    def test_replica_count_non_increasing_in_threshold(self):
        oracle, demand = starfront_instance()
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        counts = []
        for theta in (1.0, 2.0, 3.0):
            res = solve_starfront(demand, oracle, params,
                                  OptimizerConfig(starfront_thresholds=(theta,)))
            counts.append(res.schedule.mean_replica_count(oracle))
        assert counts[0] >= counts[1] >= counts[2]

    def test_grid_selects_min_total(self):
        oracle, demand = starfront_instance()
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        catalog = ContentCatalog.uniform(["c0"])
        res = solve_starfront(demand, oracle, params,
                              OptimizerConfig(starfront_thresholds=(1.0, 2.0, 3.0)),
                              catalog=catalog)
        best = total_cost(res.schedule, demand, catalog, oracle, params).total
        for theta in (1.0, 2.0, 3.0):
            alt = solve_starfront(demand, oracle, params,
                                  OptimizerConfig(starfront_thresholds=(theta,)),
                                  catalog=catalog)
            assert best <= total_cost(alt.schedule, demand, catalog, oracle,
                                      params).total + 1e-9


def pch_network(T, slot_seconds, P=4, Q=6):
    """Small LEO-style ring grid with one demand cluster under orbit 1."""
    from satcdn.constellation import GroundNode, Network, ShellSpec
    from satcdn.costmodel import build_distance_oracle
    shell = ShellSpec(P, Q, 550.0, inclination_deg=53.0, min_elevation_deg=5.0,
                      name="s")
    ground = [GroundNode("origin/o", "origin", 0.0, 0.0),
              GroundNode("user/u", "user_region", 30.0, -100.0)]
    net = Network([shell], ground, slot_seconds=slot_seconds, seed=0)
    oracle = build_distance_oracle(net.snapshots(T), "hop")
    return oracle


class TestPCH:
    def test_handoff_every_ceil_period_slots(self):
        oracle = pch_network(T=7, slot_seconds=100.0)
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 7), 2.0))
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        res = solve_pch(demand, oracle, params,
                        OptimizerConfig(pch_intra_period_s=258.0))
        sats = [set(res.schedule.nodes("c0", t)) - set(int(i) for i in oracle.origins_idx)
                for t in range(1, 8)]
        changes = [t for t in range(1, 7) if sats[t] != sats[t - 1]]
        # ceil(258/100) = 3 slots between handoffs: changes at slots 4 and 7
        assert changes == [3, 6]

    def test_short_horizon_never_moves(self):
        oracle = pch_network(T=3, slot_seconds=60.0)
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 3), 2.0))
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        res = solve_pch(demand, oracle, params,
                        OptimizerConfig(pch_intra_period_s=258.0))
        sets = [res.schedule.nodes("c0", t) for t in (1, 2, 3)]
        assert sets[0] == sets[1] == sets[2]

    def test_replication_positive_over_periods(self):
        oracle = pch_network(T=6, slot_seconds=300.0)
        demand = DemandMatrix(["user/u"], ["c0"], np.full((1, 1, 6), 2.0))
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        res = solve_pch(demand, oracle, params)
        from satcdn.costmodel import replication_cost
        assert replication_cost(res.schedule, oracle, params.alpha) > 0.0

    def test_no_satellites_falls_back_to_origin(self):
        oracle, demand, catalog, params = motion_instance(5, 2, 0, 2, n_gateways=3)
        res = solve_pch(demand, oracle, params)
        origins = tuple(int(i) for i in oracle.origins_idx)
        assert all(res.schedule.nodes("c0", t) == origins for t in (1, 2))
        assert res.stats.warnings

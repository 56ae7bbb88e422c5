"""Baseline placement algorithms: origin-only, per-slot UFL heuristics (naive
greedy, average-cost 1.61x-style greedy, add/delete/swap local search), the
threshold-driven persistent-replica strategy ("starfront"), and rule-based
periodic cache handoff ("pch").

The per-slot UFL reduction treats replication-from-previous-slot plus storage
as a facility opening cost and query cost as the connection cost; slots are
solved sequentially so slot t opens against the slot t-1 decision.
"""

from __future__ import annotations

import time

import numpy as np

from ..costmodel import CostParams, DistanceOracle, total_cost
from ..demand import DemandMatrix
from .core import (BIG, ContentProblem, OptimizerConfig, PlacementResult, _two_smallest,
                   solve_per_content)

_TOL = 1e-12


def solve_no_replica(demand: DemandMatrix, oracle: DistanceOracle, params: CostParams,
                     config: OptimizerConfig | None = None, *, catalog=None) -> PlacementResult:
    """Serve everything from the origin servers."""
    return solve_per_content("no_replica", demand, oracle, params, catalog,
                             lambda c, prob, stats: [prob.s0] * prob.T)


def _opening_costs(prob: ContentProblem, B, prev_set) -> np.ndarray:
    """Per-candidate opening cost at this slot: storage plus alpha-scaled
    distance to the nearest replica of the previous slot."""
    d_prev = np.minimum(B[:, np.asarray(prev_set, dtype=np.int64)].min(axis=1), BIG,
                        dtype=prob.dp_dtype)
    open_cost = np.full(prob.m, np.inf)
    open_cost[prob.cand_pos] = (prob.rate[prob.cand_pos]
                                + prob.alpha * d_prev[prob.cand_pos].astype(np.float64))
    return open_cost


def _slot_by_slot(slot_rule):
    """Per-content rule that solves the slots in order, each against the
    previous slot's set (the origins before slot 1).

    ``slot_rule(prob, t, prev)`` reads slot ``t``'s blocks and demand weights
    from ``prob`` and returns the slot's replica set.
    """

    def rule(c, prob, stats):
        prev = prob.s0
        slots = []
        for t in range(1, prob.T + 1):
            prev = slot_rule(prob, t, prev)
            slots.append(prev)
        return slots

    return rule


def _jms_greedy_slot(prob, t, prev):
    du, wz = prob.user_block(t), prob.weights(t)
    clients = np.flatnonzero(wz > 0)
    facilities = np.concatenate([np.asarray(prob.s0), prob.cand_pos])
    f_open = np.concatenate([np.zeros(len(prob.s0)),
                             _opening_costs(prob, prob.block(t), prev)[prob.cand_pos]])
    Draw = np.minimum(du[np.ix_(clients, facilities)], BIG, dtype=prob.dp_dtype).astype(np.float64)
    D = Draw * wz[clients][:, None]
    # D[j, i]: demand-weighted connection cost of client j to facility i;
    # prefixes are ordered by raw distance (cost per unit of demand). Row i of
    # order/Ds/ws holds facility i's unassigned clients only. Exact: x + 0.0 == x
    # keeps their prefix sums, and an assigned position repeats its predecessor's ratio.
    order = np.argsort(Draw.T, axis=1, kind="stable")
    Ds = np.take_along_axis(D.T, order, axis=1)
    ws = wz[clients][order]

    assigned = np.zeros(clients.size, dtype=bool)
    cur = np.full(clients.size, np.inf)
    open_mask = np.zeros(facilities.size, dtype=bool)
    opened: list[int] = []
    while order.shape[1]:
        conn = Ds.cumsum(axis=1)
        wsum = ws.cumsum(axis=1)
        rebate = np.maximum(cur[assigned][:, None] - D[assigned], 0.0).sum(axis=0)  # row by row
        f_eff = np.where(open_mask, 0.0, f_open)
        ratio = (f_eff - rebate)[:, None] + conn
        ratio /= wsum
        fi, p = divmod(int(np.argmin(ratio)), ratio.shape[1])  # lowest facility, then prefix
        take = order[fi, :p + 1]
        open_mask[fi] = True
        if int(facilities[fi]) not in prob.s0 and int(facilities[fi]) not in opened:
            opened.append(int(facilities[fi]))
        assigned[take] = True
        cur[take] = D[take, fi]
        switch = assigned & (D[:, fi] < cur)
        cur[switch] = D[switch, fi]
        keep = ~assigned[order]
        order, Ds, ws = (x[keep].reshape(facilities.size, -1) for x in (order, Ds, ws))
    return tuple(sorted(set(prob.s0) | set(opened)))


def solve_jms_greedy(demand: DemandMatrix, oracle: DistanceOracle, params: CostParams,
                     config: OptimizerConfig | None = None, *, catalog=None) -> PlacementResult:
    """Per-slot average-cost greedy: open (facility, client-prefix) pairs with
    the best (opening + connections - rebates) per unit of newly covered
    demand; opened facilities may be reused later at zero opening cost."""
    return solve_per_content("jms_greedy", demand, oracle, params, catalog,
                             _slot_by_slot(_jms_greedy_slot))


def _local_search_slot(prob, t, prev, drops=True):
    """Slot ``t``'s set by best-improvement local search from the origins:
    additions, and with ``drops`` also deletions and swaps of non-origins."""
    du, wz = prob.user_block(t), prob.weights(t)
    open_cost = _opening_costs(prob, prob.block(t), prev)
    chosen = set(prob.s0)
    while True:
        ch = np.asarray(sorted(chosen), dtype=np.int64)
        cand, members = prob.outside(ch)
        d1u, d2u, a1u = _two_smallest(du, ch, second=drops, dtype=prob.dp_dtype)
        qc_cur = float((wz * d1u).sum())

        best_delta, best_op = -_TOL, None
        if cand.size:
            qc_add = (wz[:, None] * np.minimum(d1u[:, None], du[:, cand])).sum(axis=0)
            deltas = qc_add - qc_cur + open_cost[cand]
            j = int(np.argmin(deltas))
            if deltas[j] < best_delta:
                best_delta, best_op = float(deltas[j]), ("add", int(cand[j]), -1)
        for z in (members if drops else ()):
            dz = np.where(a1u == z, d2u, d1u)
            qc_del = float((wz * dz).sum())
            delta = qc_del - qc_cur - open_cost[z]
            if delta < best_delta:
                best_delta, best_op = float(delta), ("del", -1, int(z))
            if cand.size:
                qc_swap = (wz[:, None] * np.minimum(dz[:, None], du[:, cand])).sum(axis=0)
                deltas = qc_swap - qc_cur + open_cost[cand] - open_cost[z]
                j = int(np.argmin(deltas))
                if deltas[j] < best_delta:
                    best_delta, best_op = float(deltas[j]), ("swap", int(cand[j]), int(z))
        if best_op is None:
            break
        kind, w, z = best_op
        if kind in ("add", "swap"):
            chosen.add(w)
        if kind in ("del", "swap"):
            chosen.discard(z)
    return tuple(sorted(chosen))


def solve_local_search(demand: DemandMatrix, oracle: DistanceOracle, params: CostParams,
                       config: OptimizerConfig | None = None, *, catalog=None) -> PlacementResult:
    """Per-slot local search (add / delete / swap) run to a local optimum."""
    return solve_per_content("local_search", demand, oracle, params, catalog,
                             _slot_by_slot(_local_search_slot))


def solve_naive_greedy(demand: DemandMatrix, oracle: DistanceOracle, params: CostParams,
                       config: OptimizerConfig | None = None, *, catalog=None) -> PlacementResult:
    """Per-slot greedy: repeatedly add the candidate that most reduces the
    slot's total cost; stop when no addition helps. This is local search's
    additions alone."""
    return solve_per_content("naive_greedy", demand, oracle, params, catalog, _slot_by_slot(
        lambda prob, t, prev: _local_search_slot(prob, t, prev, drops=False)))


def default_thresholds(metric: str) -> tuple[float, ...]:
    return (1.0, 2.0, 3.0, 4.0, 5.0) if metric == "hop" else (5.0, 10.0, 20.0, 40.0, 80.0)


def solve_starfront(demand: DemandMatrix, oracle: DistanceOracle, params: CostParams,
                    config: OptimizerConfig | None = None, *, catalog=None) -> PlacementResult:
    """Threshold-driven persistent replicas: for each threshold in the grid,
    greedily place replicas so every demanding user is within the threshold
    (replicas never move once placed), then keep the threshold whose whole
    schedule, all contents together, costs least (the first on ties)."""
    t0 = time.perf_counter()
    config = config or OptimizerConfig()
    best = None
    for theta in config.starfront_thresholds or default_thresholds(params.metric):
        flagged = 0  # user-slots that no candidate within theta could cover

        def slot_rule(prob, t, prev):
            # prev holds the origins and every replica placed so far.
            nonlocal flagged
            B, du, wz = prob.block(t), prob.user_block(t), prob.weights(t)
            cur = set(prev)
            for uj in np.flatnonzero(wz > 0):
                cur_arr = np.asarray(sorted(cur), dtype=np.int64)
                if du[uj, cur_arr].min() <= theta:
                    continue
                cand = prob.outside(cur_arr)[0]
                qual = cand[du[uj, cand] <= theta]
                if qual.size == 0:
                    flagged += 1
                    continue
                d_src = np.minimum(B[qual[:, None], cur_arr].min(axis=1), BIG,
                                   dtype=prob.dp_dtype).astype(np.float64)
                score = prob.alpha * d_src + (prob.T - t + 1) * prob.rate[qual]
                cur.add(int(qual[np.argmin(score)]))
            return tuple(sorted(cur))

        res = solve_per_content("starfront", demand, oracle, params, catalog,
                                _slot_by_slot(slot_rule))
        cost = total_cost(res.schedule, demand, catalog, oracle, params).total
        if best is None or cost < best[0]:
            best = (cost, theta, flagged, res)

    _, theta, flagged, res = best
    if flagged:
        res.stats.warnings.append(f"threshold {theta}: {flagged} user-slot(s) left beyond the "
                                  "threshold and served by the nearest existing replica")
    res.stats.wall_s = time.perf_counter() - t0  # every threshold's solve
    return res


def solve_pch(demand: DemandMatrix, oracle: DistanceOracle, params: CostParams,
              config: OptimizerConfig | None = None, *, catalog=None) -> PlacementResult:
    """Periodic cache handoff: start on the satellite nearest each demand
    cluster, then hand the cache to the trailing satellite in the same orbit
    every intra-orbit period, and to the better same-index satellite of an
    adjacent orbit every (longer) inter-orbit period. Demand-oblivious after
    initialization."""
    config = config or OptimizerConfig()
    slot_s = oracle.slot_seconds

    sat_lookup: dict[tuple[int, int, int], int] = {}
    for g in oracle.candidates_idx:
        if oracle.orbit[g] >= 0:
            sat_lookup[(int(oracle.shell[g]), int(oracle.orbit[g]), int(oracle.in_orbit[g]))] = int(g)

    shell_dims: dict[int, tuple[int, int]] = {}
    for g in oracle.candidates_idx:
        s = int(oracle.shell[g])
        if s >= 0:
            P, Q = shell_dims.get(s, (0, 0))
            shell_dims[s] = (max(P, int(oracle.orbit[g]) + 1), max(Q, int(oracle.in_orbit[g]) + 1))

    def rule(c, prob, stats):
        sat_cand = prob.cand_pos[oracle.orbit[prob.cand_pos] >= 0]
        first = next((t for t in range(1, prob.T + 1) if prob.dem[:, t - 1].sum() > 0), None)
        if first is None or sat_cand.size == 0:
            if sat_cand.size == 0 and first is not None:
                stats.warnings.append(f"{c}: no satellite candidates, serving from origins only")
            return [prob.s0] * prob.T

        du = prob.user_block(first)
        wz_init = prob.weights(first)
        init_users = np.flatnonzero(wz_init > 0)
        caches: list[int] = []
        for uj in init_users:
            d = du[uj, sat_cand]
            caches.append(int(sat_cand[np.lexsort((sat_cand, d))[0]]))
        caches = sorted(set(caches))

        slots = [prob.s0] * (first - 1)
        slots.append(tuple(sorted(set(prob.s0) | set(caches))))
        for t in range(first + 1, prob.T + 1):
            elapsed = (t - first) * slot_s
            prev_elapsed = (t - 1 - first) * slot_s
            intra_due = int(elapsed // config.pch_intra_period_s) > int(prev_elapsed // config.pch_intra_period_s)
            inter_due = int(elapsed // config.inter_period_s) > int(prev_elapsed // config.inter_period_s)
            if intra_due or inter_due:
                du = prob.user_block(t)
                new_caches = []
                for g in caches:
                    i, j = int(oracle.orbit[g]), int(oracle.in_orbit[g])
                    shell = int(oracle.shell[g])
                    P, Q = shell_dims[shell]
                    if intra_due:
                        j = (j - 1) % Q  # trailing satellite arrives where this one was
                    if inter_due and P > 1:
                        best_i, best_score = i, None
                        for ni in ((i - 1) % P, (i + 1) % P):
                            tgt = sat_lookup.get((shell, ni, j))
                            if tgt is None:
                                continue
                            score = float((wz_init[init_users] * np.minimum(
                                du[init_users, tgt], BIG, dtype=prob.dp_dtype)).sum())
                            if best_score is None or score < best_score:
                                best_i, best_score = ni, score
                        i = best_i
                    tgt = sat_lookup.get((shell, i, j))
                    if tgt is not None:
                        new_caches.append(tgt)
                caches = sorted(set(new_caches)) or caches
            slots.append(tuple(sorted(set(prob.s0) | set(caches))))
        return slots

    return solve_per_content("pch", demand, oracle, params, catalog, rule)

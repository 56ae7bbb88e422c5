"""Multi-time local searches: MTLS (add/delete/k-nearest replace per slot, DP
over slots) and MTOLS (orbit-selection DP, then additions from the chosen
orbits). Both iterate DP passes until no strict total-cost improvement.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..costmodel import CostParams, DistanceOracle
from ..demand import DemandMatrix
from .core import (BIG, ContentProblem, MoveSet, OptimizerConfig, PlacementResult,
                   PlacementStats, dp_pass, evaluate_content, solve_per_content)


def _mtls_movegen(problem: ContentProblem, k: int):
    """Nearby sets of the current base: every addition, every non-origin
    deletion, and replacements restricted to the k nearest eligible candidates
    of the replaced node in the slot's graph."""

    def gen(t: int, base: tuple[int, ...], B: np.ndarray) -> MoveSet:
        adds, members = problem.outside(base)
        rep_out: list[int] = []
        rep_in: list[int] = []
        if adds.size and members.size:
            dist = B[members[:, None], adds]
            for zi, z in enumerate(members):
                order = np.lexsort((adds, dist[zi]))
                for w in adds[order[:k]]:
                    rep_out.append(int(z))
                    rep_in.append(int(w))
        return MoveSet(adds=adds, dels=members,
                       rep_out=np.asarray(rep_out, dtype=np.int64),
                       rep_in=np.asarray(rep_in, dtype=np.int64))

    return gen


def _orbit_dp(problem: ContentProblem, sets: list[tuple[int, ...]],
              stats: PlacementStats) -> list[int]:
    """Pick one orbit per slot by DP.

    Choosing orbit o at slot t means hypothetically deploying that orbit's
    best-marginal-query-cost satellite v_{o,t} on top of the current replica
    sets; transitions charge the replication of v_{o,t} from the previous
    slot's replicas or the previously chosen orbit's satellite. Orbits with no
    eligible member at a slot count as "no deployment" at zero transition cost.
    """
    T = problem.T
    orbits = problem.orbit_ids
    nO = orbits.size
    if nO == 0 or T == 0:
        return [-1] * T

    alpha = problem.alpha
    rate = problem.rate
    C = problem.cand_pos.size
    # The origins, then each slot's replica set, padded by repeating a member,
    # which changes no minimum: row t holds slot t's set, row t - 1 the
    # previous slot's.
    K = max(map(len, sets))
    padded = np.array([s + s[:1] * (K - len(s)) for s in [problem.s0] + list(sets)])

    # Each orbit's satellite per slot, which the DP does not change: the
    # member with the least marginal query cost on top of the slot's replica
    # set among those not deployed yet, the lowest id on ties. mqc columns
    # follow orbit_cands; column C stands for the origins, which every set
    # holds, and pads the orbit grid.
    mqc = np.empty((T, C + 1))
    qc_base, sc_base = np.empty(T), np.empty(T)
    for t in range(1, T + 1):
        qc_base[t - 1], sc_base[t - 1], _ = problem.base_costs(t, sets[t - 1])
        mqc[t - 1, :C] = problem.query_costs_with(t, sets[t - 1], problem._cand_cols)[
            problem._orbit_perm]
    mqc[np.arange(T)[:, None], problem.orbit_slot[padded[1:]]] = np.inf
    by_orbit = mqc[:, problem.orbit_grid]
    best = by_orbit.min(axis=2)
    have = np.isfinite(best)
    first = problem.orbit_grid[np.arange(nO), by_orbit.argmin(axis=2)]
    v_sel = np.where(have, problem.orbit_cands[first], -1)
    # Query plus storage cost of each orbit's choice.
    own = np.where(have, best + (sc_base[:, None] + rate[v_sel]), (qc_base + sc_base)[:, None])

    # Replication of each choice from the previous slot's replicas, and
    # z[t - 2][c, p] of choice c at slot t from the previous slot's replicas
    # or from the satellite p chosen at slot t - 1. A slot's orbit without a
    # member costs nothing, as distances are nonnegative. The alpha-scaled
    # distances between consecutive choices are kept for the next iteration,
    # which reads again only the rows and columns whose choice changed.
    # rep's distances are clipped to BIG before scaling; the pairs need no
    # clip, as z's minimum with rep (at most alpha * BIG) absorbs an +inf.
    rep_d = np.empty((T, K, nO), dtype=problem.dp_dtype)
    kept = problem._orbit_pairs
    pair = np.empty((T - 1, nO, nO)) if kept is None else kept[1]
    changed = None if kept is None else v_sel != kept[0]
    for t in range(1, T + 1):
        B = problem.block(t)
        cur = v_sel[t - 1]
        rep_d[t - 1] = B[cur[:, None], padded[t - 1]].T
        if t == 1:
            continue
        prv, dst = v_sel[t - 2], pair[t - 2]
        if changed is None:
            np.multiply(alpha, B[cur[:, None], prv], out=dst, dtype=np.float64)
            continue
        rows, cols = np.flatnonzero(changed[t - 1]), np.flatnonzero(changed[t - 2])
        if rows.size:
            dst[rows] = np.multiply(alpha, B[cur[rows][:, None], prv], dtype=np.float64)
        if cols.size:
            dst[:, cols] = np.multiply(alpha, B[cur[:, None], prv[cols]], dtype=np.float64)
    problem._orbit_pairs = (v_sel, pair)
    near = np.minimum(rep_d.min(axis=1), BIG, dtype=rep_d.dtype)
    rep = np.where(have, np.multiply(alpha, near, dtype=np.float64), 0.0)
    z = np.minimum(pair, rep[1:, :, None])
    if not have.all():
        np.copyto(z, rep[1:, :, None], where=~have[:-1, None, :])

    rows = np.arange(nO)
    g_prev = own[0] + rep[0]
    bp_trail = [np.full(nO, -1, dtype=np.int64)]
    for t in range(2, T + 1):
        tot = np.add(z[t - 2], g_prev, out=z[t - 2])
        bp = tot.argmin(axis=1)
        g_prev = own[t - 1] + tot[rows, bp]
        bp_trail.append(bp)
    stats.orbit_relaxations += nO + (T - 1) * nO * nO

    seq = [-1] * T
    sel = int(np.argmin(g_prev))
    for t in range(T, 0, -1):
        seq[t - 1] = int(orbits[sel])
        nxt = int(bp_trail[t - 1][sel])
        if nxt < 0:
            break
        sel = nxt
    return seq


def _mtols_movegen(problem: ContentProblem, orbit_seq: Sequence[int]):
    """Additions only, restricted to the slot's chosen orbit (no deletions or
    replacements); a pseudo-orbit carries the ground candidates."""

    e = np.empty(0, dtype=np.int64)

    def gen(t: int, base: tuple[int, ...], B: np.ndarray) -> MoveSet:
        o = orbit_seq[t - 1]
        if o < 0:
            return MoveSet.keep_only()
        adds = np.array([m for m in problem.orbit_members[o].tolist() if m not in base],
                        dtype=np.int64)
        return MoveSet(adds=adds, dels=e, rep_out=e, rep_in=e)

    return gen


def _search_rule(users: list[str], catalog, config: OptimizerConfig, orbit_mode: bool):
    """Per-content rule shared by MTLS and MTOLS: DP passes from the origin-only
    schedule until one fails to improve the true total cost strictly."""

    def rule(c: str, prob: ContentProblem, stats: PlacementStats) -> list[tuple[int, ...]]:
        sets = [prob.s0] * prob.T
        hist = [evaluate_content(prob, c, users, sets, catalog).total]
        orbit_seq = [-1] * prob.T
        for _ in range(config.max_iterations):
            if orbit_mode:
                orbit_seq = _orbit_dp(prob, sets, stats)
                gen = _mtols_movegen(prob, orbit_seq)
            else:
                gen = _mtls_movegen(prob, config.neighbor_limit)
            new_sets, _f = dp_pass(prob, sets, gen, stats)
            stats.iterations += 1
            old = hist[-1]
            # An unchanged schedule costs what it did; only a new one is evaluated.
            new_total = old if new_sets == sets else \
                evaluate_content(prob, c, users, new_sets, catalog).total
            if new_total < old - config.improvement_tol * max(1.0, abs(old)):
                sets, hist = new_sets, hist + [new_total]
            else:
                break
        stats.history[c] = hist
        if orbit_mode:
            stats.orbit_sequence[c] = list(orbit_seq)
        return sets

    return rule


def solve_mtls(demand: DemandMatrix, oracle: DistanceOracle, params: CostParams,
               config: OptimizerConfig | None = None, *, catalog=None) -> PlacementResult:
    """Multi-time local search with full per-iteration DP over nearby sets.

    Its DP reads whole blocks, so the oracle's full matrices are built first;
    a MemoryError names every slot before the first is built."""
    oracle.build_matrices(demand.slot_count)
    rule = _search_rule(demand.users, catalog, config or OptimizerConfig(), orbit_mode=False)
    return solve_per_content("mtls", demand, oracle, params, catalog, rule)


def solve_mtols(demand: DemandMatrix, oracle: DistanceOracle, params: CostParams,
                config: OptimizerConfig | None = None, *, catalog=None) -> PlacementResult:
    """Orbit-based multi-time local search: orbit DP then restricted additions."""
    rule = _search_rule(demand.users, catalog, config or OptimizerConfig(), orbit_mode=True)
    return solve_per_content("mtols", demand, oracle, params, catalog, rule)

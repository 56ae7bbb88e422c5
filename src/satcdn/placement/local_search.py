"""Multi-time local searches: MTLS (add/delete/k-nearest replace per slot, DP
over slots) and MTOLS (orbit-selection DP, then additions from the chosen
orbits). Both iterate DP passes until no strict total-cost improvement.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..costmodel import CostParams, DistanceOracle
from ..demand import DemandMatrix
from .core import (ContentProblem, MoveSet, OptimizerConfig, PlacementResult, PlacementStats,
                   dp_pass, evaluate_content, solve_per_content)


def _mtls_movegen(problem: ContentProblem, k: int):
    """Nearby sets of the current base: every addition, every non-origin
    deletion, and replacements restricted to the k nearest eligible candidates
    of the replaced node in the slot's graph."""

    def gen(t: int, base: tuple[int, ...], view) -> MoveSet:
        base_arr = np.asarray(base, dtype=np.int64)
        in_base = np.zeros(problem.R, dtype=bool)
        in_base[base_arr] = True
        adds = problem.cand_pos[~in_base[problem.cand_pos]]
        members = np.array([p for p in base if p not in problem.origin_set], dtype=np.int64)
        rep_out: list[int] = []
        rep_in: list[int] = []
        if adds.size and members.size:
            dist = view.block(members, adds)
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
    g_prev: np.ndarray | None = None
    prev_v: np.ndarray | None = None
    prev_base = problem.s0
    v_trail: list[np.ndarray] = []
    bp_trail: list[np.ndarray] = []

    for t in range(1, T + 1):
        view = problem.view(t)
        du = view.users()
        base_arr = np.asarray(sets[t - 1], dtype=np.int64)
        in_base = np.zeros(problem.R, dtype=bool)
        in_base[base_arr] = True
        wz = problem.weights(t)

        u1 = du[:, base_arr].min(axis=1)
        qc_base = float((wz * u1).sum())
        mqc = (wz[:, None] * np.minimum(u1[:, None], du[:, problem._cand_cols])).sum(axis=0)
        sc_base = float(rate[base_arr].sum())

        # Best eligible (not already deployed) satellite per orbit: candidates
        # are pre-grouped by orbit and id-ascending, so a grouped min with
        # first-hit recovery breaks ties toward the lowest node id.
        grouped = np.full(problem.R, np.inf)
        grouped[problem.cand_pos] = np.asarray(mqc, dtype=np.float64)
        grouped = grouped[problem.cand_by_orbit]
        grouped[in_base[problem.cand_by_orbit]] = np.inf
        starts = problem.orbit_group_start
        gmin = np.minimum.reduceat(grouped, starts)
        sizes = np.diff(np.append(starts, grouped.size))
        hit_idx = np.flatnonzero(grouped == np.repeat(gmin, sizes))
        first = hit_idx[np.searchsorted(hit_idx, starts)]
        have_min = np.isfinite(gmin)
        v_sel = np.where(have_min, problem.cand_by_orbit[first], -1)
        qc_o = np.where(have_min, grouped[first], qc_base)
        sc_o = np.where(have_min, sc_base + rate[problem.cand_by_orbit[first]], sc_base)

        d1p = view.cols(np.asarray(prev_base, dtype=np.int64)).min(axis=1)
        have = v_sel >= 0
        if g_prev is None:
            g_new = qc_o + sc_o
            g_new[have] += alpha * d1p[v_sel[have]].astype(np.float64)
            bp = np.full(nO, -1, dtype=np.int64)
            stats.orbit_relaxations += nO
        else:
            rc = np.zeros((nO, nO))  # rows: previous orbit, cols: current orbit
            rc[:, have] = alpha * d1p[v_sel[have]].astype(np.float64)[None, :]
            prev_have = prev_v >= 0 if prev_v is not None else np.zeros(nO, dtype=bool)
            if np.any(prev_have) and np.any(have):
                cross = alpha * np.asarray(view.block(v_sel[have], prev_v[prev_have]),
                                           dtype=np.float64).T
                block = rc[np.ix_(prev_have, have)]
                rc[np.ix_(prev_have, have)] = np.minimum(block, cross)
            tot = g_prev[:, None] + rc
            bp = np.argmin(tot, axis=0)
            g_new = qc_o + sc_o + np.take_along_axis(tot, bp[None, :], axis=0)[0]
            stats.orbit_relaxations += nO * nO

        v_trail.append(v_sel)
        bp_trail.append(bp)
        g_prev, prev_v, prev_base = g_new, v_sel, sets[t - 1]

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

    def gen(t: int, base: tuple[int, ...], view) -> MoveSet:
        o = orbit_seq[t - 1]
        if o < 0:
            return MoveSet.keep_only()
        members = problem.orbit_members[int(o)]
        in_base = np.zeros(problem.R, dtype=bool)
        in_base[np.asarray(base, dtype=np.int64)] = True
        adds = members[~in_base[members]]
        e = np.empty(0, dtype=np.int64)
        return MoveSet(adds=adds, dels=e, rep_out=e.copy(), rep_in=e.copy())

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
            new_total = evaluate_content(prob, c, users, new_sets, catalog).total
            old = hist[-1]
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
    """Multi-time local search with full per-iteration DP over nearby sets."""
    rule = _search_rule(demand.users, catalog, config or OptimizerConfig(), orbit_mode=False)
    return solve_per_content("mtls", demand, oracle, params, catalog, rule)


def solve_mtols(demand: DemandMatrix, oracle: DistanceOracle, params: CostParams,
                config: OptimizerConfig | None = None, *, catalog=None) -> PlacementResult:
    """Orbit-based multi-time local search: orbit DP then restricted additions."""
    rule = _search_rule(demand.users, catalog, config or OptimizerConfig(), orbit_mode=True)
    return solve_per_content("mtols", demand, oracle, params, catalog, rule)

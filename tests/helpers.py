"""Shared test fixtures: toy instances and independent brute-force oracles.

Everything here recomputes costs from first principles with plain Python
loops, deliberately avoiding the library's vectorized paths.
"""

from __future__ import annotations

import itertools

import numpy as np

from satcdn.costmodel import CostParams, DistanceOracle
from satcdn.demand import ContentCatalog, DemandMatrix

SAT, USER, GATEWAY, ORIGIN = 0, 1, 2, 3


def has_full(oracle: DistanceOracle, t: int) -> bool:
    """Whether slot ``t`` of ``oracle`` holds its full matrix (reading it
    through ``full(t)`` could build it)."""
    return oracle._slots[t - 1].full is not None


def motion_instance(seed, n_users, n_cands, T, *, n_origins=1, n_gateways=0,
                    alpha=2.0, beta=0.5, gamma=1.0, speed=2.0, box=10.0,
                    orbit_rows=None):
    """Random planar instance: nodes drift between slots, distances stay metric.

    Candidate order: satellites first (optionally labeled into ``orbit_rows``
    orbits), then gateways, then origins, then users, matching the library's
    node layout.
    """
    rng = np.random.default_rng(seed)
    n = n_cands + n_gateways + n_origins + n_users
    ids = ([f"sat/t/{i:02d}/{i % 7:02d}" for i in range(n_cands)]
           + [f"gw/g{i}" for i in range(n_gateways)]
           + [f"origin/o{i}" for i in range(n_origins)]
           + [f"user/u{i}" for i in range(n_users)])
    kind = np.array([SAT] * n_cands + [GATEWAY] * n_gateways
                    + [ORIGIN] * n_origins + [USER] * n_users, dtype=np.int8)
    orbit = np.full(n, -1, dtype=np.int32)
    in_orbit = np.full(n, -1, dtype=np.int32)
    shell = np.full(n, -1, dtype=np.int32)
    if orbit_rows:
        per = max(1, n_cands // orbit_rows)
        for i in range(n_cands):
            orbit[i] = min(i // per, orbit_rows - 1)
            in_orbit[i] = i % per
            shell[i] = 0

    pts = rng.uniform(0, box, size=(n, 2))
    mats = []
    for _ in range(T):
        D = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(D, 0.0)
        mats.append(D)
        pts = pts + rng.uniform(-speed, speed, size=(n, 2))

    oracle = DistanceOracle.from_matrices(mats, ids, kind, shell=shell, orbit=orbit,
                                          in_orbit=in_orbit, metric="hop", slot_seconds=300.0)
    dem = rng.uniform(0.0, 3.0, size=(n_users, T))
    users = [ids[i] for i in range(n) if kind[i] == USER]
    demand = DemandMatrix(users, ["c0"], dem[:, None, :])
    catalog = ContentCatalog.uniform(["c0"])
    params = CostParams(metric="hop", alpha=alpha, beta=beta, gamma=gamma, c_qmin=1.0)
    return oracle, demand, catalog, params


def storage_rate_ref(oracle, params, node) -> float:
    """Independent restatement of the per-node storage rate."""
    if oracle.kind[node] == ORIGIN:
        return 0.0
    if oracle.kind[node] == SAT:
        return params.gamma_for(int(oracle.shell[node])) * params.c_qmin
    return params.beta * params.c_qmin


def schedule_cost_ref(oracle, demand, catalog, params, sets_by_content) -> float:
    """Plain-loop total cost of a schedule given as global node-index tuples."""
    total = 0.0
    origins = [int(i) for i in oracle.origins_idx]
    for ci, c in enumerate(demand.contents):
        size = catalog.size_of(c) if catalog is not None else 1.0
        prev = origins
        for t in range(1, demand.slot_count + 1):
            D = oracle.matrix(t)
            cur = list(sets_by_content[c][t - 1])
            for uj, u in enumerate(demand.users):
                w = demand.values[uj, ci, t - 1]
                if w > 0:
                    total += w * min(float(D[oracle.index[u], v]) for v in cur)
            for v in cur:
                total += params.alpha * min(float(D[v, o]) for o in prev)
                total += size * storage_rate_ref(oracle, params, v)
            prev = cur
    return total


def nearby_space(base, origins, candidates, D, k):
    """All nearby variants of one slot's set per the move definition: the set
    itself, single additions, single non-origin deletions, and replacements
    limited to the k nearest eligible candidates of the removed node."""
    base = tuple(sorted(base))
    base_set = set(base)
    out = [base]
    eligible = [c for c in candidates if c not in base_set]
    for w in eligible:
        out.append(tuple(sorted(base_set | {w})))
    members = [v for v in base if v not in origins]
    for z in members:
        out.append(tuple(sorted(base_set - {z})))
    for z in members:
        ranked = sorted(eligible, key=lambda w: (float(D[z, w]), w))
        for w in ranked[:k]:
            out.append(tuple(sorted((base_set - {z}) | {w})))
    return out


def best_nearby_sequence(oracle, demand, catalog, params, sets_by_content, content, k):
    """Exhaustive optimum over all nearby-set sequences for one content."""
    origins = set(int(i) for i in oracle.origins_idx)
    candidates = [int(i) for i in oracle.candidates_idx]
    T = demand.slot_count
    spaces = [nearby_space(sets_by_content[content][t - 1], origins, candidates,
                           oracle.matrix(t), k) for t in range(1, T + 1)]
    best_cost, best_seq = np.inf, None
    for seq in itertools.product(*spaces):
        cost = schedule_cost_ref(oracle, demand, catalog, params, {content: list(seq)})
        if cost < best_cost - 1e-12:
            best_cost, best_seq = cost, seq
    return best_cost, best_seq


def exhaustive_slot_optimum(oracle, demand, catalog, params, content, t, prev_set):
    """Optimal single-slot replica set by enumeration of all candidate subsets,
    opening against ``prev_set`` (the UFL reduction used by the per-slot
    baselines)."""
    ci = demand.contents.index(content)
    D = oracle.matrix(t)
    origins = [int(i) for i in oracle.origins_idx]
    candidates = [int(i) for i in oracle.candidates_idx]
    size = catalog.size_of(content) if catalog is not None else 1.0
    best_cost, best_set = np.inf, None
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            cur = tuple(sorted(set(origins) | set(combo)))
            cost = 0.0
            for uj, u in enumerate(demand.users):
                w = demand.values[uj, ci, t - 1]
                if w > 0:
                    cost += w * min(float(D[oracle.index[u], v]) for v in cur)
            for v in cur:
                cost += params.alpha * min(float(D[v, o]) for o in prev_set)
                cost += size * storage_rate_ref(oracle, params, v)
            if cost < best_cost - 1e-12:
                best_cost, best_set = cost, cur
    return best_cost, best_set


def slot_cost_given_prev(oracle, demand, catalog, params, content, t, prev_set, cur):
    """One slot's query+replication+storage cost for a given set."""
    ci = demand.contents.index(content)
    D = oracle.matrix(t)
    size = catalog.size_of(content) if catalog is not None else 1.0
    cost = 0.0
    for uj, u in enumerate(demand.users):
        w = demand.values[uj, ci, t - 1]
        if w > 0:
            cost += w * min(float(D[oracle.index[u], v]) for v in cur)
    for v in cur:
        cost += params.alpha * min(float(D[v, o]) for o in prev_set)
        cost += size * storage_rate_ref(oracle, params, v)
    return cost

"""Shared optimizer plumbing: the per-content solver driver, per-content
problem views, move sets, and the slot-by-slot DP over nearby replica sets.

The DP state space per slot is built from the *current* replica set by one
addition, one deletion, one replacement, or no change. Transition costs are
replication costs between the chosen variants of consecutive slots; query and
storage costs attach to each variant. Disconnected distances are replaced by a
large finite sentinel inside the DP so that argmin arithmetic stays NaN-free;
reported costs always come from a clean re-evaluation against the oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..costmodel import CostBreakdown, CostParams, DistanceOracle, ReplicaSchedule, total_cost
from ..demand import DemandMatrix

BIG = 1e12  # finite stand-in for +inf inside DP arithmetic

KEEP, ADD, DEL, REP = 0, 1, 2, 3


@dataclass
class OptimizerConfig:
    """Knobs shared by the placement algorithms."""

    max_iterations: int = 50
    neighbor_limit: int = 4
    improvement_tol: float = 1e-9
    starfront_thresholds: tuple[float, ...] | None = None
    pch_intra_period_s: float = 258.0
    pch_inter_period_s: float | None = None  # defaults to 4x the intra period

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.neighbor_limit < 1:
            raise ValueError("neighbor_limit must be >= 1")

    @property
    def inter_period_s(self) -> float:
        return self.pch_inter_period_s if self.pch_inter_period_s is not None \
            else 4.0 * self.pch_intra_period_s


@dataclass
class PlacementStats:
    algorithm: str
    iterations: int = 0
    relaxations: int = 0
    orbit_relaxations: int = 0
    wall_s: float = 0.0
    history: dict[str, list[float]] = field(default_factory=dict)
    orbit_sequence: dict[str, list[int]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


@dataclass
class PlacementResult:
    schedule: ReplicaSchedule
    stats: PlacementStats


@dataclass
class MoveSet:
    """All nearby-set variants of one slot's base set, KEEP always first.

    Move index layout: 0 = keep, then adds, then deletions, then replacements.
    """

    adds: np.ndarray
    dels: np.ndarray
    rep_out: np.ndarray
    rep_in: np.ndarray

    @property
    def n_moves(self) -> int:
        return 1 + self.adds.size + self.dels.size + self.rep_out.size

    @classmethod
    def keep_only(cls) -> "MoveSet":
        e = np.empty(0, dtype=np.int64)
        return cls(e, e.copy(), e.copy(), e.copy())

    def decode(self, move: int) -> tuple[int, int, int]:
        """Return (op, removed, inserted); -1 for unused fields."""
        if move == 0:
            return KEEP, -1, -1
        move -= 1
        if move < self.adds.size:
            return ADD, -1, int(self.adds[move])
        move -= self.adds.size
        if move < self.dels.size:
            return DEL, int(self.dels[move]), -1
        move -= self.dels.size
        return REP, int(self.rep_out[move]), int(self.rep_in[move])


def apply_move(base: tuple[int, ...], op: int, removed: int, inserted: int) -> tuple[int, ...]:
    if op == KEEP:
        return base
    members = list(base)
    if op in (DEL, REP):
        members.remove(removed)
    if op in (ADD, REP):
        members.append(inserted)
    return tuple(sorted(members))


def _as_index(idx: np.ndarray):
    """A basic slice when the indices are one contiguous run, else the array."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and idx[-1] - idx[0] + 1 == idx.size and np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _take2(mat: np.ndarray, rows, cols) -> np.ndarray:
    """Sub-block gather; rows/cols may be slices (fast path) or index arrays."""
    if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
        return mat[rows[:, None], cols[None, :]]
    return mat[rows, cols]


class ContentProblem:
    """One content's optimization view: demand rows, candidate universe, rates.

    Works in "R-position" space (origins + candidates sorted by global node
    index) so that every set is a tuple of small ints and ties break toward
    the lowest node id.
    """

    def __init__(self, oracle: DistanceOracle, users_global: np.ndarray, dem: np.ndarray,
                 size_c: float, params: CostParams):
        origins = np.sort(np.asarray(oracle.origins_idx, dtype=np.int64))
        cands = np.sort(np.asarray(oracle.candidates_idx, dtype=np.int64))
        if origins.size == 0:
            raise ValueError("at least one origin node is required")
        if np.intersect1d(origins, cands).size:
            raise ValueError("origin nodes cannot also be replica candidates")
        self.oracle = oracle
        self.params = params
        self.alpha = float(params.alpha)
        self.r_nodes = np.unique(np.concatenate([origins, cands]))
        self.origin_pos = np.searchsorted(self.r_nodes, origins)
        self.cand_pos = np.searchsorted(self.r_nodes, cands)
        self.origin_set = frozenset(int(p) for p in self.origin_pos)
        self.s0 = tuple(int(p) for p in self.origin_pos)
        self.users = np.asarray(users_global, dtype=np.int64)
        self.dem = np.asarray(dem, dtype=float)
        self.T = self.dem.shape[1]
        self.R = self.r_nodes.size
        self.size_c = float(size_c)
        self.rate = params.storage_rate(oracle)[self.r_nodes] * self.size_c
        self.dp_dtype = np.float64 if self.R <= 768 else np.float32
        # Orbit labels per candidate position; ground candidates share one
        # pseudo-orbit so gateways participate in the orbit DP.
        keys = oracle.orbit_key[self.r_nodes].astype(np.int64)
        pseudo = (keys.max(initial=-1) + 1) if np.any(keys[self.cand_pos] < 0) else None
        self.orbit_of = keys.copy()
        if pseudo is not None:
            ground_cand = self.cand_pos[keys[self.cand_pos] < 0]
            self.orbit_of[ground_cand] = pseudo
        if self.cand_pos.size:
            order = np.lexsort((self.cand_pos, self.orbit_of[self.cand_pos]))
            self.cand_by_orbit = self.cand_pos[order]  # grouped, id-ascending
            keys_sorted = self.orbit_of[self.cand_by_orbit]
            starts = np.flatnonzero(np.concatenate(
                [[True], keys_sorted[1:] != keys_sorted[:-1]]))
            self.orbit_group_start = starts
            self.orbit_ids = keys_sorted[starts]
            self.orbit_members = dict(zip((int(o) for o in self.orbit_ids),
                                          np.split(self.cand_by_orbit, starts[1:])))
        else:
            self.cand_by_orbit = np.empty(0, dtype=np.int64)
            self.orbit_group_start = np.empty(0, dtype=np.int64)
            self.orbit_ids = np.empty(0, dtype=np.int64)
            self.orbit_members = {}
        self._du_cache: dict[int, np.ndarray] = {}
        self._r_index = _as_index(self.r_nodes)
        self._u_index = _as_index(self.users)
        self._cand_cols = _as_index(self.cand_pos)

    def view(self, t: int) -> "SlotView":
        return SlotView(self, t)

    def user_block(self, t: int) -> np.ndarray:
        """(U x R) sanitized user-to-candidate distances, cached per slot."""
        du = self._du_cache.get(t)
        if du is None:
            du = np.array(_take2(self.oracle.matrix(t), self._u_index, self._r_index),
                          dtype=self.dp_dtype)
            du[~np.isfinite(du)] = BIG
            self._du_cache[t] = du
        return du

    def weights(self, t: int) -> np.ndarray:
        return np.asarray(self.dem[:, t - 1], dtype=self.dp_dtype)

    def to_global(self, sets: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
        return [tuple(int(self.r_nodes[p]) for p in st) for st in sets]


class SlotView:
    """Lazy sanitized access to one slot's distances in R-position space.

    Small column/row gathers stay cheap; the full R x R block is materialized
    only on demand (the full-move-space DP needs it, orbit-restricted passes
    never do).
    """

    __slots__ = ("prob", "t", "_D", "_full")

    def __init__(self, prob: ContentProblem, t: int):
        self.prob = prob
        self.t = t
        self._D = prob.oracle.matrix(t)
        self._full: np.ndarray | None = None

    def _sanitize(self, block) -> np.ndarray:
        out = np.array(block, dtype=self.prob.dp_dtype)
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = BIG
        return out

    def cols(self, positions: np.ndarray) -> np.ndarray:
        """(R, len(positions)) distances from every R-node to the given ones."""
        if self._full is not None:
            return self._full[:, positions]
        g = self.prob.r_nodes
        return self._sanitize(_take2(self._D, self.prob._r_index,
                                     g[np.asarray(positions, dtype=np.int64)]))

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self._full is None and rows.size * cols.size >= self.prob.R ** 2 // 2:
            self.full()
        if self._full is not None:
            return _take2(self._full, _as_index(rows), _as_index(cols))
        g = self.prob.r_nodes
        return self._sanitize(_take2(self._D, g[rows], g[cols]))

    def full(self) -> np.ndarray:
        if self._full is None:
            self._full = self._sanitize(_take2(self._D, self.prob._r_index,
                                               self.prob._r_index))
        return self._full

    def users(self) -> np.ndarray:
        return self.prob.user_block(self.t)


Rule = Callable[[str, ContentProblem, PlacementStats], list[tuple[int, ...]]]


def solve_per_content(algorithm: str, demand: DemandMatrix, oracle: DistanceOracle,
                      params: CostParams, catalog, rule: Rule) -> PlacementResult:
    """Solve each content independently with ``rule`` and time the whole call.

    ``rule(content, problem, stats)`` returns the content's per-slot replica
    sets in R-position space and may record counts, history and warnings in
    ``stats``. Each content's problem is built when its turn comes and dropped
    after, so only one problem's cached blocks are alive at a time.
    """
    t_start = time.perf_counter()
    try:
        users_global = np.array([oracle.index[u] for u in demand.users], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"demand user {exc.args[0]!r} not present in the network") from exc
    stats = PlacementStats(algorithm=algorithm)
    per_content: dict[str, list[tuple[int, ...]]] = {}
    for ci, c in enumerate(demand.contents):
        size_c = catalog.size_of(c) if catalog is not None else 1.0
        prob = ContentProblem(oracle, users_global, demand.values[:, ci, :], size_c, params)
        per_content[c] = prob.to_global(rule(c, prob, stats))
    stats.wall_s = time.perf_counter() - t_start
    return PlacementResult(ReplicaSchedule(list(demand.contents), demand.slot_count,
                                           per_content), stats)


def evaluate_content(problem: ContentProblem, content: str, users: list[str],
                     sets: list[tuple[int, ...]], catalog) -> CostBreakdown:
    """True (inf-aware) cost of one content's set sequence via the cost model."""
    sched = ReplicaSchedule([content], problem.T, {content: problem.to_global(sets)})
    dem = DemandMatrix(users, [content], problem.dem[:, None, :])
    return total_cost(sched, dem, catalog, problem.oracle, problem.params)


def _two_smallest(sub: np.ndarray, members: np.ndarray):
    """Per-row nearest and second-nearest distances to ``members`` plus the
    nearest member's R-position (first occurrence, i.e. lowest id)."""
    if members.size == 1:
        d1 = sub[:, 0].copy()
        d2 = np.full(sub.shape[0], BIG, dtype=sub.dtype)
        a1 = np.full(sub.shape[0], members[0], dtype=np.int64)
        return d1, d2, a1
    part = np.partition(sub, 1, axis=1)
    a1 = members[np.argmin(sub, axis=1)]
    return part[:, 0].copy(), part[:, 1].copy(), a1


def _fold(best, ptr, vals, ptrs):
    mask = vals < best
    np.copyto(best, vals, where=mask)
    np.copyto(ptr, ptrs if isinstance(ptrs, np.ndarray) else np.full(vals.shape, ptrs), where=mask)


def dp_pass(problem: ContentProblem, sets: list[tuple[int, ...]],
            gen_moves: Callable[[int, tuple[int, ...], "SlotView"], MoveSet],
            stats: PlacementStats) -> tuple[list[tuple[int, ...]], float]:
    """One full DP sweep over slots 1..T.

    Returns the best nearby-set sequence (ties keep the current sets) and its
    DP objective. ``gen_moves(t, base, view)`` defines the per-slot move space;
    the pass's transition count is added to ``stats.relaxations``.
    """
    T = problem.T
    alpha = problem.alpha
    rate = problem.rate

    prev_moves = MoveSet.keep_only()
    prev_f = np.zeros(1, dtype=np.float64)
    prev_base = problem.s0
    trail: list[tuple[MoveSet, np.ndarray]] = []

    for t in range(1, T + 1):
        view = problem.view(t)
        du = view.users()
        base = sets[t - 1]
        base_arr = np.asarray(base, dtype=np.int64)
        mv = gen_moves(t, base, view)

        # Nearest / second-nearest of every R-node to the previous base set.
        prev_arr = np.asarray(prev_base, dtype=np.int64)
        d1p, d2p, a1p = _two_smallest(view.cols(prev_arr), prev_arr)

        # g[b] = f(t-1, b) + alpha * sum_{v in base} nnd_b(v) for each previous
        # variant b; group-structured so it never materializes n_prev x R.
        pa, pd = prev_moves.adds, prev_moves.dels
        pro, pri = prev_moves.rep_out, prev_moves.rep_in
        b1, b2, ba1 = d1p[base_arr], d2p[base_arr], a1p[base_arr]
        base_keep = float(b1.sum())
        g_keep = prev_f[0] + alpha * base_keep

        def dmod_rows(xs: np.ndarray, vals1, vals2, args):
            # nnd after deleting each x: second-nearest where x was the nearest
            return np.where(args[None, :] == xs[:, None], vals2[None, :], vals1[None, :])

        g_adds = g_dels = g_reps = None
        if pa.size:
            m = np.minimum(b1[None, :], view.block(pa, base_arr))
            g_adds = prev_f[1:1 + pa.size] + alpha * m.sum(axis=1)
        off_d = 1 + pa.size
        if pd.size:
            m = dmod_rows(pd, b1, b2, ba1)
            g_dels = prev_f[off_d:off_d + pd.size] + alpha * m.sum(axis=1)
        off_r = off_d + pd.size
        if pro.size:
            m = np.minimum(dmod_rows(pro, b1, b2, ba1), view.block(pri, base_arr))
            g_reps = prev_f[off_r:off_r + pro.size] + alpha * m.sum(axis=1)

        g_concat = np.concatenate([np.array([g_keep]),
                                   g_adds if g_adds is not None else [],
                                   g_dels if g_dels is not None else [],
                                   g_reps if g_reps is not None else []])
        g_best = float(g_concat.min())
        g_best_ptr = int(g_concat.argmin())

        def trans_nnd(targets: np.ndarray) -> np.ndarray:
            """nnd_b(x) for every previous variant b (rows) and target x (cols)."""
            rows = [d1p[targets][None, :]]
            if pa.size:
                rows.append(np.minimum(d1p[targets][None, :], view.block(targets, pa).T))
            if pd.size:
                rows.append(dmod_rows(pd, d1p[targets], d2p[targets], a1p[targets]))
            if pro.size:
                rows.append(np.minimum(dmod_rows(pro, d1p[targets], d2p[targets], a1p[targets]),
                                       view.block(targets, pri).T))
            return np.vstack(rows)

        # Query and storage of the base set at t.
        wz = problem.weights(t)
        u1, u2, ua1 = _two_smallest(du[:, base_arr], base_arr)
        qc_keep = float((wz * u1).sum())
        sc_keep = float(rate[base_arr].sum())

        n_cur = mv.n_moves
        f_cur = np.empty(n_cur, dtype=np.float64)
        bp_cur = np.zeros(n_cur, dtype=np.int64)

        # --- KEEP
        f_cur[0] = g_best + qc_keep + sc_keep
        bp_cur[0] = g_best_ptr

        # --- ADD moves (vectorized over the add targets W)
        if mv.adds.size:
            W = mv.adds
            best = g_keep + alpha * d1p[W].astype(np.float64)
            ptr = np.zeros(W.size, dtype=np.int64)
            if pa.size:
                M = g_adds[None, :] + alpha * np.minimum(d1p[W][:, None], view.block(W, pa))
                am = np.argmin(M, axis=1)
                _fold(best, ptr, np.take_along_axis(M, am[:, None], axis=1)[:, 0], 1 + am)
            if pd.size:
                M = g_dels[None, :] + alpha * dmod_rows(pd, d1p[W], d2p[W], a1p[W]).T
                am = np.argmin(M, axis=1)
                _fold(best, ptr, np.take_along_axis(M, am[:, None], axis=1)[:, 0], off_d + am)
            if pro.size:
                M = g_reps[None, :] + alpha * np.minimum(
                    dmod_rows(pro, d1p[W], d2p[W], a1p[W]),
                    view.block(W, pri).T).T
                am = np.argmin(M, axis=1)
                _fold(best, ptr, np.take_along_axis(M, am[:, None], axis=1)[:, 0], off_r + am)
            qc_add = ((wz[:, None] * np.minimum(u1[:, None], du[:, W])).sum(axis=0))
            lo = 1
            f_cur[lo:lo + W.size] = best + qc_add + sc_keep + rate[W]
            bp_cur[lo:lo + W.size] = ptr

        # --- DEL and REP moves share transition NND columns for their targets.
        small = np.unique(np.concatenate([mv.dels, mv.rep_out, mv.rep_in])) \
            if (mv.dels.size or mv.rep_out.size) else np.empty(0, dtype=np.int64)
        if small.size:
            nnd_small = trans_nnd(small)  # (n_prev, n_small)
            col = {int(x): i for i, x in enumerate(small)}

            def qc_without(z: int) -> np.ndarray:
                return np.where(ua1 == z, u2, u1)

            lo = 1 + mv.adds.size
            for j, z in enumerate(mv.dels):
                vals = g_concat - alpha * nnd_small[:, col[int(z)]]
                b = int(vals.argmin())
                qc_z = float((wz * qc_without(int(z))).sum())
                f_cur[lo + j] = vals[b] + qc_z + sc_keep - rate[z]
                bp_cur[lo + j] = b
            lo += mv.dels.size
            for j, (z, w) in enumerate(zip(mv.rep_out, mv.rep_in)):
                vals = g_concat - alpha * nnd_small[:, col[int(z)]] + alpha * nnd_small[:, col[int(w)]]
                b = int(vals.argmin())
                qc_zw = float((wz * np.minimum(qc_without(int(z)), du[:, int(w)])).sum())
                f_cur[lo + j] = vals[b] + qc_zw + sc_keep - rate[z] + rate[w]
                bp_cur[lo + j] = b

        stats.relaxations += prev_moves.n_moves * n_cur
        trail.append((mv, bp_cur))
        prev_moves, prev_f, prev_base = mv, f_cur, base

    best_final = int(prev_f.argmin())
    f_best = float(prev_f[best_final])

    new_sets = list(sets)
    sel = best_final
    for t in range(T, 0, -1):
        mv, bp = trail[t - 1]
        op, removed, inserted = mv.decode(sel)
        new_sets[t - 1] = apply_move(sets[t - 1], op, removed, inserted)
        sel = int(bp[sel])
    return new_sets, f_best

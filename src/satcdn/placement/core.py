"""Shared optimizer plumbing: the per-content solver driver, per-content
problem views, move sets, and the slot-by-slot DP over nearby replica sets.

The DP state space per slot is built from the *current* replica set by one
addition, one deletion, one replacement, or no change. Transition costs are
replication costs between the chosen variants of consecutive slots; query and
storage costs attach to each variant.

Solvers index the oracle by node: replica sets are tuples of node indices,
and a slot's block holds the distances among the first ``m`` nodes, the prefix
that holds every origin and candidate. When the slot has its full matrix
(``DistanceOracle.full``: hop and small-network oracles build them at their
first block read, others only for MTLS) in a dtype no wider than the DP's, the
block and the user block are raw read-only views of its ``[:m, :m]`` corner
and ``[users, :m]`` rows, ``uint8`` hop counts or floats, +inf included.
Otherwise (no full matrix, or float64 under a float32 DP, whose reads NumPy
would promote) they are read through ``DistanceOracle.take``, cast to the DP
dtype. Inside the DP a distance is clipped to a large finite sentinel
(``np.minimum(x, BIG, dtype=dp_dtype)``) wherever it is scaled, summed or
weighted by demand before any minimum, so the arithmetic stays NaN-free;
reported costs always come from a clean re-evaluation against the oracle.
Minimums, first argmins, sorts and ``<=`` tests of raw distances need no
clip: the clip is monotone and ``BIG`` exceeds every finite distance.

``uint8`` arithmetic wraps, so the DP computes in its dtype only: every count
read from a ``uint8`` block is converted first, exactly, by an explicit cast or
as a ufunc operand next to one in the DP dtype.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..costmodel import (SMALL_NETWORK_NODES, CostBreakdown, CostParams, DistanceOracle,
                         ReplicaSchedule, total_cost)
from ..demand import DemandMatrix

BIG = 1e12  # finite stand-in for +inf inside DP arithmetic
_CHUNK = 1 << 16  # elements per row chunk of the add-after-add minimum in dp_pass

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
        if self.improvement_tol < 0:
            raise ValueError("improvement_tol must be >= 0")
        if self.starfront_thresholds is not None and len(self.starfront_thresholds) == 0:
            raise ValueError("starfront_thresholds must list at least 1 threshold")

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
    ``adds`` are ascending node indices.
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


# The node layout of each oracle, which every ContentProblem on that oracle
# shares. Entries go when the oracle does.
_LAYOUTS: "weakref.WeakKeyDictionary[DistanceOracle, dict]" = weakref.WeakKeyDictionary()


class _ConvertingReads:
    """A slot's (m x m) block read through the oracle when it cannot be a raw
    view of the oracle matrix: the slot has no full matrix, or stores a dtype
    wider than the DP's. Each read ``[rows, cols]`` of node indices, slices
    clamped to the first ``m`` nodes, is one ``oracle.take`` of just the
    entries asked for, cast to the DP dtype, +inf kept."""

    __slots__ = ("oracle", "t", "m", "dtype")

    def __init__(self, oracle: DistanceOracle, t: int, m: int, dtype):
        self.oracle, self.t, self.m = oracle, t, m
        self.dtype = np.dtype(dtype)

    def __getitem__(self, idx) -> np.ndarray:
        rows, cols = (slice(*i.indices(self.m)) if isinstance(i, slice) else i for i in idx)
        return self.oracle.take(self.t, rows, cols).astype(self.dtype, copy=False)


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.view()
    a.flags.writeable = False
    return a


def _layout(oracle: DistanceOracle) -> dict:
    """The node layout of ``oracle``'s origins and candidates, which every
    content shares; see ``ContentProblem``."""
    origins = np.sort(np.asarray(oracle.origins_idx, dtype=np.int64))
    cand_pos = np.sort(np.asarray(oracle.candidates_idx, dtype=np.int64))
    if origins.size == 0:
        raise ValueError("at least one origin node is required")
    if np.isin(origins, cand_pos).any():
        raise ValueError("origin nodes cannot also be replica candidates")
    nodes = np.union1d(origins, cand_pos)
    m = int(nodes[-1]) + 1
    # Orbit labels per node: the dense rank of each satellite's (shell,
    # orbit) pair, counted over pair codes (np.unique's argsort raised the
    # paper_ideal_delivery peak RSS by about 0.15 MiB). Ground candidates
    # share one pseudo-orbit so gateways participate in the orbit DP.
    orbit_of = oracle.orbit[:m].astype(np.int64)
    sat = np.flatnonzero(orbit_of >= 0)
    pair = oracle.shell[:m].astype(np.int64)[sat] * (orbit_of.max() + 1) + orbit_of[sat]
    pair -= pair.min(initial=0)
    orbit_of[sat] = np.cumsum(np.bincount(pair) > 0)[pair] - 1
    ground = cand_pos[orbit_of[cand_pos] < 0]
    if ground.size:
        orbit_of[ground] = orbit_of[nodes].max() + 1
    # Candidates grouped by orbit (orbit_ids ascending), id-ascending within
    # each: row o of orbit_grid holds orbit o's indexes in orbit_cands, padded
    # with C. orbit_slot maps a node to its index in orbit_cands (C for the
    # other nodes), and orbit_perm takes cand_pos order to orbit_cands order.
    C = cand_pos.size
    orbit_perm = np.argsort(orbit_of[cand_pos], kind="stable")
    orbit_cands = cand_pos[orbit_perm]
    keys_sorted = orbit_of[orbit_cands]
    orbit_start = np.flatnonzero(np.concatenate([[True], keys_sorted[1:] != keys_sorted[:-1]])) \
        if C else np.empty(0, dtype=np.int64)
    orbit_size = np.diff(np.append(orbit_start, C))
    orbit_ids = keys_sorted[orbit_start]
    orbit_grid = np.full((orbit_ids.size, orbit_size.max(initial=0)), C, dtype=np.int64)
    orbit_grid[np.repeat(np.arange(orbit_ids.size), orbit_size),
               np.arange(C) - np.repeat(orbit_start, orbit_size)] = np.arange(C)
    orbit_slot = np.full(m, C, dtype=np.int64)
    orbit_slot[orbit_cands] = np.arange(C)
    return dict(
        m=m, cand_pos=cand_pos, s0=tuple(origins.tolist()),
        dp_dtype=np.float64 if nodes.size <= SMALL_NETWORK_NODES else np.float32,
        orbit_cands=orbit_cands, orbit_grid=orbit_grid, orbit_ids=orbit_ids,
        orbit_slot=orbit_slot,
        orbit_members={o: orbit_cands[a:a + n] for o, a, n in zip(
            orbit_ids.tolist(), orbit_start.tolist(), orbit_size.tolist())},
        _cand_cols=_as_index(cand_pos), _orbit_perm=_as_index(orbit_perm))


class ContentProblem:
    """One content's optimization view: demand rows, candidate set, rates.

    Replica sets are sorted tuples of node indices, so ties break toward the
    lowest node id. Every origin and candidate (``s0``, ``cand_pos``) lies in
    the node prefix ``[0, m)``: blocks, rates and orbit slots span it, and its
    other nodes (none on the default layout; the excluded ones with restricted
    candidates) are never members or moves. The DP dtype is float64 for at
    most ``SMALL_NETWORK_NODES`` origins and candidates, else float32. The
    layout attributes (``m``, ``cand_pos``, ``orbit_members``, ...) are shared
    by every problem on the same oracle and must not be modified.
    """

    def __init__(self, oracle: DistanceOracle, users_global: np.ndarray, dem: np.ndarray,
                 size_c: float, params: CostParams):
        if oracle not in _LAYOUTS:
            _LAYOUTS[oracle] = _layout(oracle)
        self.__dict__.update(_LAYOUTS[oracle])
        self.oracle = oracle
        self.params = params
        self.alpha = float(params.alpha)
        self.users = np.asarray(users_global, dtype=np.int64)
        self.dem = np.asarray(dem, dtype=float)
        self.T = self.dem.shape[1]
        self.size_c = float(size_c)
        self.rate = params.storage_rate(oracle)[:self.m] * self.size_c
        self._weights = np.ascontiguousarray(self.dem.T, dtype=self.dp_dtype)  # (T, U)
        self._u_index = _as_index(self.users)
        # Row-chunk buffers of dp_pass, reused across slots and passes.
        self._buf = np.empty(max(_CHUNK, self.m), dtype=self.dp_dtype)
        self._buf64 = np.empty(self._buf.size)
        # Per slot: the blocks, the user blocks, their demand-weighted
        # copies and the latest base_costs.
        self._blocks: list[np.ndarray | _ConvertingReads | None] = [None] * self.T
        self._user_blocks: list[np.ndarray | None] = [None] * self.T
        self._weighted: list[np.ndarray | None] = [None] * self.T
        self._base_costs: dict[int, tuple] = {}
        # The orbit DP's latest choices and distances between them.
        self._orbit_pairs: tuple[np.ndarray, np.ndarray] | None = None

    def _raw(self, t: int) -> np.ndarray | None:
        """Slot ``t``'s full matrix when its entries can be read raw, with no
        rounding to the DP dtype; else None."""
        D = self.oracle.full(t)
        return D if D is not None and np.can_cast(D.dtype, self.dp_dtype) else None

    def block(self, t: int) -> np.ndarray:
        """(m x m) distances among the first ``m`` nodes at slot ``t``,
        read-only, +inf where disconnected; entry [v, a] is the distance from
        node v to node a.

        It is a raw view of the oracle matrix's ``[:m, :m]`` corner, whose
        entries may be ``uint8`` counts or floats narrower than the DP dtype,
        when the slot has its full matrix of at most the DP dtype's width.
        Else it is a ``_ConvertingReads`` over the oracle. Readers clip what
        they do arithmetic on (see the module docstring).
        """
        B = self._blocks[t - 1]
        if B is None:
            D = self._raw(t)
            B = self._blocks[t - 1] = _read_only(D[:self.m, :self.m]) if D is not None \
                else _ConvertingReads(self.oracle, t, self.m, self.dp_dtype)
        return B

    def user_block(self, t: int) -> np.ndarray:
        """(U x m) user-to-node distances at slot ``t``, read-only, +inf
        where disconnected: the users' rows of the oracle matrix, raw as
        ``block`` reads them, else a copy in the DP dtype kept for this
        problem."""
        du = self._user_blocks[t - 1]
        if du is None:
            D, u = self._raw(t), self._u_index
            if D is not None:
                du = D[u, :self.m]
            else:
                du = self.oracle.take(t, u, slice(0, self.m)).astype(self.dp_dtype, copy=False)
            du = self._user_blocks[t - 1] = _read_only(du)
        return du

    def weighted_user_block(self, t: int) -> np.ndarray:
        """``user_block(t)`` clipped to ``BIG`` in the DP dtype and scaled by
        each user's demand weight at ``t``, so a zero weight gives 0, not NaN.

        As weights are nonnegative, ``w * min(a, b) == min(w * a, w * b)``
        exactly, so demand-weighted nearest distances can be taken from it.
        """
        wd = self._weighted[t - 1]
        if wd is None:
            wd = np.minimum(self.user_block(t), BIG, dtype=self.dp_dtype)
            wd = self._weighted[t - 1] = np.multiply(self.weights(t)[:, None], wd, out=wd)
        return wd

    def base_costs(self, t: int, base: tuple[int, ...]):
        """Costs of replica set ``base`` (node indices) at slot ``t``: the query
        cost (the demand-weighted distance from each user to its nearest
        member, summed), the storage cost, and each user's demand-weighted
        distance to its nearest member. The latest set of each slot is kept,
        so the orbit DP and the DP pass of one MTOLS iteration share them.
        """
        kept = self._base_costs.get(t)
        if kept is None or kept[0] != base:
            base_arr = np.asarray(base, dtype=np.int64)
            wu1 = self.weighted_user_block(t)[:, base_arr].min(axis=1)
            kept = self._base_costs[t] = (base, float(wu1.sum()),
                                          float(self.rate[base_arr].sum()), wu1)
        return kept[1:]

    def query_costs_with(self, t: int, base: tuple[int, ...], cols) -> np.ndarray:
        """Query cost of ``base`` at slot ``t`` with each node of ``cols`` (an
        index array or a slice) added: the column sums of the (users x cols)
        block of weighted distances.

        The sum order follows the block's layout, and the last bits with it:
        an index-array gather is laid out column by column, so NumPy sums
        each column pairwise; a sliced block is summed row by row.
        """
        wu1 = self.base_costs(t, base)[2]
        return np.minimum(wu1[:, None], self.weighted_user_block(t)[:, cols]).sum(axis=0)

    def weights(self, t: int) -> np.ndarray:
        return self._weights[t - 1]

    def outside(self, base) -> tuple[np.ndarray, np.ndarray]:
        """The nearby moves of replica set ``base``: the candidates not in it
        and its members that are not origins (its candidates), both ascending."""
        in_base = np.zeros(self.m, dtype=bool)
        in_base[np.asarray(base, dtype=np.int64)] = True
        out = ~in_base[self.cand_pos]
        return self.cand_pos[out], self.cand_pos[~out]


Rule = Callable[[str, ContentProblem, PlacementStats], list[tuple[int, ...]]]


def solve_per_content(algorithm: str, demand: DemandMatrix, oracle: DistanceOracle,
                      params: CostParams, catalog, rule: Rule) -> PlacementResult:
    """Solve each content independently with ``rule`` and time the whole call.

    ``rule(content, problem, stats)`` returns the content's per-slot replica
    sets of node indices and may record counts, history and warnings in
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
        per_content[c] = rule(c, prob, stats)
    stats.wall_s = time.perf_counter() - t_start
    return PlacementResult(ReplicaSchedule(list(demand.contents), demand.slot_count,
                                           per_content), stats)


def evaluate_content(problem: ContentProblem, content: str, users: list[str],
                     sets: list[tuple[int, ...]], catalog) -> CostBreakdown:
    """True (inf-aware) cost of one content's set sequence via the cost model."""
    sched = ReplicaSchedule([content], problem.T, {content: sets})
    dem = DemandMatrix(users, [content], problem.dem[:, None, :])
    return total_cost(sched, dem, catalog, problem.oracle, problem.params)


def _two_smallest(mat: np.ndarray, members: np.ndarray, rows=slice(None), second=True,
                  dtype=None):
    """Per-row nearest and second-nearest entries of ``mat[rows]`` over the
    ``members`` columns (the second is ``BIG`` for one member) plus the
    nearest member (first occurrence, i.e. lowest id). Without ``second``
    only the nearest entries are computed and the other two are None.

    The entries come back in ``dtype`` (``mat``'s by default), which a
    ``uint8`` block needs to be given, clipped to ``BIG``: the clip commutes
    with the minimums and maximums of the fold, so they are the entries of
    the clipped ``mat`` and so is the nearest member. The second-nearest fold
    runs over the member columns in order, so its values are those a per-row
    sort would give.
    """
    dtype = mat.dtype if dtype is None else dtype
    if not second:
        block = mat[rows, members] if isinstance(rows, slice) else mat[rows[:, None], members]
        return np.minimum(block.min(axis=1), BIG, dtype=dtype), None, None
    c0 = mat[rows, members[0]].astype(dtype)
    if members.size == 1:
        return (np.minimum(c0, BIG, out=c0, dtype=dtype), np.full(c0.shape, BIG, dtype=c0.dtype),
                np.full(c0.shape, members[0], dtype=np.int64))
    c1 = mat[rows, members[1]].astype(dtype, copy=False)
    d1, d2 = np.minimum(c0, c1), np.maximum(c0, c1)
    a1 = np.where(c1 < c0, members[1], members[0])
    for m in members[2:]:
        c = mat[rows, m]
        np.minimum(d2, np.maximum(d1, c), out=d2)
        np.copyto(a1, m, where=c < d1)
        np.minimum(d1, c, out=d1)
    return (np.minimum(d1, BIG, out=d1, dtype=dtype), np.minimum(d2, BIG, out=d2, dtype=dtype),
            a1)


def _min_over_adds(B: np.ndarray, W: np.ndarray, pa: np.ndarray, w1: np.ndarray,
                   g_adds: np.ndarray, alpha: float, buf: np.ndarray, buf64: np.ndarray):
    """For each target ``W[i]``: the least ``g_adds[j] + alpha * min(w1[i],
    B[W[i], pa[j]])`` over the previous additions ``pa`` (ascending) and the
    first ``j`` attaining it. ``w1`` is clipped to ``BIG``, so an +inf entry
    of ``B`` never reaches the arithmetic.

    A (W x pa) block of at most ``buf.size`` entries is gathered. A larger one
    is read in place: the contiguous block spanning ``W``'s rows and ``pa``'s
    columns, in row chunks written into the flat buffers ``buf`` (the DP
    dtype, which ``np.minimum`` converts ``B``'s entries to as it writes them)
    and ``buf64`` of at least one row of ``B`` each, where a column between
    the ``pa`` columns gets an infinite ``g`` and never wins.
    """
    if W.size * pa.size <= buf.size:
        M = g_adds[None, :] + alpha * np.minimum(w1[:, None], B[W[:, None], pa])
        return M.min(axis=1), M.argmin(axis=1)
    r0, c0 = int(W.min()), int(pa[0])
    sub = B[r0:int(W.max()) + 1, c0:int(pa[-1]) + 1]
    nr, nc = sub.shape
    g = np.full(nc, np.inf)
    g[pa - c0] = g_adds
    d1 = np.zeros(nr, dtype=buf.dtype)
    d1[W - r0] = w1
    vals, cols = [], []
    step = buf.size // nc
    for lo in range(0, nr, step):
        k = min(step, nr - lo)
        tmp = buf[:k * nc].reshape(k, nc)
        M = buf64[:k * nc].reshape(k, nc)
        np.minimum(d1[lo:lo + k, None], sub[lo:lo + k], out=tmp)
        np.multiply(alpha, tmp, out=tmp)
        np.add(g, tmp, out=M)
        am = M.argmin(axis=1)
        cols.append(am)
        vals.append(M[np.arange(k), am])
    sel = W - r0
    return np.concatenate(vals)[sel], np.searchsorted(pa, c0 + np.concatenate(cols)[sel])


def _fold(best, ptr, vals, ptrs):
    mask = vals < best
    np.copyto(best, vals, where=mask)
    np.copyto(ptr, ptrs, where=mask)


def dp_pass(problem: ContentProblem, sets: list[tuple[int, ...]],
            gen_moves: Callable[[int, tuple[int, ...], np.ndarray], MoveSet],
            stats: PlacementStats) -> tuple[list[tuple[int, ...]], float]:
    """One full DP sweep over slots 1..T.

    Returns the best nearby-set sequence (ties keep the current sets) and its
    DP objective. ``gen_moves(t, base, block)`` defines the per-slot move
    space, given the slot's ``problem.block(t)``; the pass's transition count
    is added to ``stats.relaxations``.
    """
    T = problem.T
    alpha = problem.alpha
    rate = problem.rate
    dt = problem.dp_dtype

    prev_moves = MoveSet.keep_only()
    prev_f = np.zeros(1, dtype=np.float64)
    prev_arr = np.asarray(problem.s0, dtype=np.int64)
    trail: list[tuple[MoveSet, np.ndarray]] = []

    for t in range(1, T + 1):
        B = problem.block(t)
        base = sets[t - 1]
        base_arr = np.asarray(base, dtype=np.int64)
        mv = gen_moves(t, base, B)

        # g[b] = f(t-1, b) + alpha * sum_{v in base} nnd_b(v) for each previous
        # variant b; group-structured so it never materializes n_prev x m.
        pa, pd = prev_moves.adds, prev_moves.dels
        pro, pri = prev_moves.rep_out, prev_moves.rep_in
        # Second-nearest distances matter only where a variant drops a member.
        prev_drops = bool(pd.size or pro.size)
        b1, b2, ba1 = _two_smallest(B, prev_arr, base_arr, second=prev_drops, dtype=dt)
        base_keep = float(b1.sum())
        g_keep = prev_f[0] + alpha * base_keep

        def dmod_rows(xs: np.ndarray, vals1, vals2, args):
            # nnd after deleting each x: second-nearest where x was the nearest
            return np.where(args[None, :] == xs[:, None], vals2[None, :], vals1[None, :])

        off_d = 1 + pa.size
        off_r = off_d + pd.size
        g_concat = np.empty(prev_moves.n_moves)  # in move order
        g_concat[0] = g_keep
        g_adds, g_dels, g_reps = g_concat[1:off_d], g_concat[off_d:off_r], g_concat[off_r:]
        if pa.size:
            m = np.minimum(b1[None, :], B[pa[:, None], base_arr])
            np.add(prev_f[1:off_d], alpha * m.sum(axis=1), out=g_adds)
        if pd.size:
            np.add(prev_f[off_d:off_r], alpha * dmod_rows(pd, b1, b2, ba1).sum(axis=1),
                   out=g_dels)
        if pro.size:
            m = np.minimum(dmod_rows(pro, b1, b2, ba1), B[pri[:, None], base_arr])
            np.add(prev_f[off_r:], alpha * m.sum(axis=1), out=g_reps)
        g_best_ptr = int(g_concat.argmin())
        g_best = float(g_concat[g_best_ptr])

        def trans_nnd(targets: np.ndarray) -> np.ndarray:
            """nnd_b(x) for every previous variant b (rows) and target x (cols)."""
            x1, x2, xa1 = _two_smallest(B, prev_arr, targets, second=prev_drops, dtype=dt)
            rows = [x1[None, :]]
            if pa.size:
                rows.append(np.minimum(x1[None, :], B[targets[:, None], pa].T))
            if pd.size:
                rows.append(dmod_rows(pd, x1, x2, xa1))
            if pro.size:
                rows.append(np.minimum(dmod_rows(pro, x1, x2, xa1),
                                       B[targets[:, None], pri].T))
            return np.vstack(rows)

        # Query and storage of the base set at t.
        qc_keep, sc_keep, _ = problem.base_costs(t, base)

        n_cur = mv.n_moves
        f_cur = np.empty(n_cur, dtype=np.float64)
        bp_cur = np.zeros(n_cur, dtype=np.int64)

        # --- KEEP
        f_cur[0] = g_best + qc_keep + sc_keep
        bp_cur[0] = g_best_ptr

        # --- ADD moves (vectorized over the add targets W)
        if mv.adds.size:
            W = mv.adds
            w1, w2, wa1 = _two_smallest(B, prev_arr, W, second=prev_drops, dtype=dt)
            best = g_keep + np.multiply(alpha, w1, dtype=np.float64)
            ptr = np.zeros(W.size, dtype=np.int64)
            if pa.size:
                vals, j = _min_over_adds(B, W, pa, w1, g_adds, alpha, problem._buf,
                                         problem._buf64)
                _fold(best, ptr, vals, 1 + j)
            if pd.size:
                M = g_dels[None, :] + alpha * dmod_rows(pd, w1, w2, wa1).T
                am = np.argmin(M, axis=1)
                _fold(best, ptr, M[np.arange(W.size), am], off_d + am)
            if pro.size:
                M = g_reps[None, :] + alpha * np.minimum(
                    dmod_rows(pro, w1, w2, wa1), B[W[:, None], pri].T).T
                am = np.argmin(M, axis=1)
                _fold(best, ptr, M[np.arange(W.size), am], off_r + am)
            lo = 1
            qc_add = problem.query_costs_with(t, base, W)
            f_cur[lo:lo + W.size] = best + qc_add + sc_keep + rate[W]
            bp_cur[lo:lo + W.size] = ptr

        # --- DEL and REP moves share transition NND columns for their targets.
        small = np.unique(np.concatenate([mv.dels, mv.rep_out, mv.rep_in])) \
            if (mv.dels.size or mv.rep_out.size) else np.empty(0, dtype=np.int64)
        if small.size:
            nnd_small = trans_nnd(small)  # (n_prev, n_small)
            col = {int(x): i for i, x in enumerate(small)}
            du, wz = problem.user_block(t), problem.weights(t)
            u1, u2, ua1 = _two_smallest(du, base_arr, dtype=dt)

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
        prev_moves, prev_f, prev_arr = mv, f_cur, base_arr

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


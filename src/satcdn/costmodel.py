"""Per-slot shortest-path distances and the query / replication / storage costs.

The distance oracle gives, for every slot, shortest-path distances (and, on
an oracle built for routing, predecessors) over the snapshot graph under one
metric (hop count, ideal latency, or sampled latency). It stores what is
read: per-source rows computed on demand, and full matrices where block
reads or MTLS need them. Disconnected pairs are +inf. An oracle caches what
it computes as it is read, so it is not thread-safe.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .constellation import GATEWAY, ORIGIN, SAT, USER

METRICS = ("hop", "ideal", "sampled")

# Networks of at most this many nodes are small: their oracles store float64
# and build every slot's full matrix at their first block read.
SMALL_NETWORK_NODES = 768


class _Slot:
    """One slot's distances: the given arrays (``full``, optionally
    ``pred``), or the slot graph, the predecessor rows computed from it by
    source (``preds``) and, until ``full`` is built, the distance rows:
    source ``s``'s is row ``pos[s]`` of ``rows`` (-1: not computed yet), and
    the first ``count`` rows are in use."""

    __slots__ = ("graph", "full", "pred", "rows", "pos", "count", "preds")

    def __init__(self, full=None, pred=None, graph=None, dtype=None):
        self.full, self.pred, self.graph = full, pred, graph
        self.rows = self.pos = None
        self.count = 0
        self.preds = {}
        if graph is not None:
            n = graph.shape[0]
            self.pos = np.full(n, -1, dtype=np.int64)
            self.rows = np.empty((0, n), dtype=dtype)


class DistanceOracle:
    """Shortest-path distances per slot, plus node role metadata.

    ``take(t, rows, cols)`` reads what ``matrix(t)[rows, cols]`` would at
    1-based slot ``t``. ``row(t, src)`` is the distance row of source ``src``
    and ``pred_row(t, src)`` its shortest-path predecessor row (-9999 where
    unreachable) on an oracle with paths (``has_paths``): one built with
    ``need_paths`` or given predecessors. Built from snapshot graphs, an
    oracle stores what is read: Dijkstra rows computed on demand, and full
    matrices as ``full`` says. The node ordering follows the snapshot's node
    table: satellites, gateways, origins, users — so candidate and user
    blocks are contiguous slices.
    """

    def __init__(self, matrices: Sequence[np.ndarray] | None, ids: Sequence[str], kind: np.ndarray,
                 *, shell: np.ndarray | None = None, orbit: np.ndarray | None = None,
                 in_orbit: np.ndarray | None = None, orbit_key: np.ndarray | None = None,
                 metric: str = "custom", slot_seconds: float = 300.0,
                 predecessors: Sequence[np.ndarray] | None = None, graphs=None,
                 paths: bool = False, dtype=np.float64):
        self.ids = list(ids)
        self.kind = np.asarray(kind, dtype=np.int8)
        n = len(self.ids)
        self.dtype = np.dtype(dtype)
        self.has_paths = paths if graphs is not None else predecessors is not None
        # Whether block reads build every slot's full matrix (see full).
        self._eager = graphs is not None and (metric == "hop" or n <= SMALL_NETWORK_NODES)
        if graphs is not None:
            self._slots = [_Slot(graph=g, dtype=self.dtype) for g in graphs]
        else:
            matrices = list(matrices)
            preds = list(predecessors) if predecessors is not None else [None] * len(matrices)
            if any(m.shape != (n, n) for m in matrices):
                raise ValueError("matrix/id/kind shapes disagree")
            self._slots = [_Slot(m, p) for m, p in zip(matrices, preds)]
        if self.kind.size != n:
            raise ValueError("matrix/id/kind shapes disagree")
        fill = np.full(n, -1, dtype=np.int32)
        self.shell = np.asarray(shell, dtype=np.int32) if shell is not None else fill.copy()
        self.orbit = np.asarray(orbit, dtype=np.int32) if orbit is not None else fill.copy()
        self.in_orbit = np.asarray(in_orbit, dtype=np.int32) if in_orbit is not None else fill.copy()
        self.orbit_key = np.asarray(orbit_key, dtype=np.int32) if orbit_key is not None else fill.copy()
        self.metric = metric
        self.slot_seconds = float(slot_seconds)
        self.index = {nid: i for i, nid in enumerate(self.ids)}
        self._node = np.arange(n)
        self._candidates = np.flatnonzero((self.kind == SAT) | (self.kind == GATEWAY))

    @property
    def slot_count(self) -> int:
        return len(self._slots)

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def users_idx(self) -> np.ndarray:
        return np.flatnonzero(self.kind == USER)

    @property
    def origins_idx(self) -> np.ndarray:
        return np.flatnonzero(self.kind == ORIGIN)

    @property
    def candidates_idx(self) -> np.ndarray:
        return self._candidates

    def _slot(self, t: int) -> _Slot:
        if not 1 <= t <= self.slot_count:
            raise IndexError(f"slot {t} outside 1..{self.slot_count}")
        return self._slots[t - 1]

    def _solve(self, slot: _Slot, sources: np.ndarray) -> np.ndarray:
        """Float64 distance rows of ``sources``: one Dijkstra call. Callers
        cast them to the oracle's dtype as they store them. With paths the
        call also computes the sources' predecessor rows, kept in
        ``slot.preds``: delivery reads both from each user it routes.

        The slot graph stores both directions of every edge, so it is searched
        as a directed graph: each edge is scanned once per direction.
        """
        res = dijkstra(slot.graph, directed=True, indices=sources,
                       unweighted=(self.metric == "hop"), return_predecessors=self.has_paths)
        if not self.has_paths:
            return res
        dist, pred = res
        slot.preds.update(zip(sources.tolist(), pred.astype(np.int32, copy=False)))
        return dist

    def _cache(self, slot: _Slot, sources, dist=None) -> None:
        """Keep the rows of every source in ``sources`` not cached yet: rows
        ``dist`` of sorted unique ``sources`` when given, else computed in one
        Dijkstra call. The row array grows by doubling, up to one row per
        node."""
        new = np.unique(sources)
        miss = slot.pos[new] < 0
        new = new[miss]
        if not new.size:
            return
        dist = self._solve(slot, new) if dist is None else dist[miss]
        k, end = slot.count, slot.count + new.size
        if end > len(slot.rows):
            cap = min(max(end, 2 * len(slot.rows)), self.n_nodes)
            grown = np.empty((cap, self.n_nodes), dtype=self.dtype)
            grown[:k] = slot.rows[:k]
            slot.rows = grown
        slot.rows[k:end] = dist
        slot.pos[new] = np.arange(k, end)
        slot.count = end

    def _route(self, slot: _Slot, sources) -> None:
        """Keep the predecessor rows of ``sources`` and of every user that has
        none yet, from one Dijkstra call, and their distance rows while the
        slot has no full matrix. Rows computed before came with theirs, but
        for a ``hop`` full matrix: its breadth-first search gives none."""
        new = np.unique(np.append(self.users_idx, sources))
        new = new[[s not in slot.preds for s in new.tolist()]]
        if new.size:
            dist = self._solve(slot, new)
            if slot.full is None:
                self._cache(slot, new, dist)

    def row(self, t: int, src: int) -> np.ndarray:
        """Source ``src``'s distance row; a missing one is computed together
        with every user row not cached yet (delivery and the cost model read
        from each user in turn)."""
        slot = self._slot(t)
        if slot.full is not None:
            return slot.full[src]
        if slot.pos[src] < 0:
            self._cache(slot, np.append(self.users_idx, src))
        return slot.rows[slot.pos[src]]

    def pred_row(self, t: int, src: int) -> np.ndarray:
        """Source ``src``'s predecessor row; a missing one is computed by
        ``_route``."""
        slot = self._pred_slot(t)
        if slot.graph is None:
            return slot.pred[src]
        if int(src) not in slot.preds:
            self._route(slot, src)
        return slot.preds[int(src)]

    def predecessors(self, t: int) -> np.ndarray:
        """Slot ``t``'s full (n, n) predecessor matrix: every source's
        ``pred_row`` stacked, the missing ones computed in one Dijkstra call."""
        slot = self._pred_slot(t)
        if slot.graph is None:
            return slot.pred
        # the cached distance and predecessor rows and the stacked copy
        check_fits(self.n_nodes, 1, self.dtype.itemsize + 8)
        self._route(slot, self._node)
        return np.stack([slot.preds[s] for s in range(self.n_nodes)])

    def _pred_slot(self, t: int) -> _Slot:
        """Slot ``t`` of an oracle with paths."""
        if not self.has_paths:
            raise ValueError("oracle was built without path predecessors")
        return self._slot(t)

    def take(self, t: int, rows, cols):
        """``matrix(t)[rows, cols]`` for NumPy indexes ``rows`` and ``cols``
        (each an int, a slice or an integer array): the same values, shape and
        dtype and, for every read that gathers, the same memory layout, which
        fixes the order NumPy sums in. A read of slices and ints alone, a view
        of the full matrix, may come back as a C-contiguous copy.

        Without the full matrix (see ``full``) the read is made of cached
        Dijkstra rows: of the ``rows`` side when they are all cached, else of
        whichever side needs fewer new rows (then the smaller side). Distances
        are symmetric bit for bit (``constellation.dyadic_weights``), so a
        column is the matching row.
        """
        full = self.full(t)
        if full is not None:
            return full[rows, cols]
        slot = self._slots[t - 1]
        if isinstance(rows, slice) and np.ndim(cols):
            # NumPy lays a (slice, array) read out array-major: D[A, s] moved.
            return np.moveaxis(self.take(t, cols, rows), -1, 0)
        # Node indexes: a slice as its nodes; ints and arrays index alike.
        r = self._node[rows] if isinstance(rows, slice) else np.asarray(rows)
        p = slot.pos[r]
        if p.min(initial=0) < 0:
            c = self._node[cols] if isinstance(cols, slice) else np.asarray(cols)
            need_r, need_c = r[p < 0], c[slot.pos[c] < 0]
            if (np.unique(need_c).size, c.size) < (np.unique(need_r).size, r.size):
                self._cache(slot, need_c)
                if isinstance(cols, slice):
                    r = r[..., None]
                elif isinstance(rows, slice):
                    r = r.reshape(r.shape + (1,) * c.ndim)
                return slot.rows[slot.pos[c], r]  # D[c, r] == D[r, c]
            self._cache(slot, need_r)
            p = slot.pos[r]
        return slot.rows[p, cols]

    def full(self, t: int) -> np.ndarray | None:
        """The full matrix that slot ``t``'s block reads slice, or None while
        they are made of cached rows. A ``hop`` oracle (one all-sources
        breadth-first search per slot; every hop workload runs MTLS) and a
        small network's, where an all-pairs Dijkstra costs about what the
        row bookkeeping of the solvers' reads does, build every slot's full
        matrix at their first block read, after checking that all fit in
        memory. Larger ``ideal`` and ``sampled`` oracles build one only for
        ``matrix(t)`` or MTLS (``build_matrices``)."""
        slot = self._slot(t)
        if slot.full is None and self._eager:
            self._build(self._slots)
        return slot.full

    def matrix(self, t: int) -> np.ndarray:
        slot = self._slot(t)
        self._build(self._slots if self._eager else [slot])
        return slot.full

    def build_matrices(self, slots: int) -> None:
        """Build the full matrices of slots 1..``slots`` (of every slot on an
        oracle that builds them together, see ``full``), failing before the
        first one is built when they would not all fit in memory."""
        self._build(self._slots if self._eager else self._slots[:slots])

    def _build(self, slots: Sequence[_Slot]) -> None:
        """Build the full matrix of every slot in ``slots`` that has none,
        after checking that they all fit: one all-sources breadth-first
        search for ``hop``, else Dijkstra from the sources not cached yet
        next to the cached rows, which the full matrix then replaces."""
        todo = [slot for slot in slots if slot.full is None]
        if todo:
            check_fits(self.n_nodes, len(todo), self.dtype.itemsize)
        for slot in todo:
            if self.metric == "hop":
                slot.full = _hop_matrix(slot.graph, self.dtype)
            else:
                full = np.empty((self.n_nodes, self.n_nodes), dtype=self.dtype)
                have = np.flatnonzero(slot.pos >= 0)
                full[have] = slot.rows[slot.pos[have]]
                miss = np.flatnonzero(slot.pos < 0)
                if miss.size:
                    full[miss] = self._solve(slot, miss)
                slot.full = full
            slot.rows = slot.pos = None

    def d(self, t: int, u, v) -> float:
        ui = self.index[u] if isinstance(u, str) else int(u)
        vi = self.index[v] if isinstance(v, str) else int(v)
        return float(self.row(t, ui)[vi])

    def with_candidates(self, candidates: np.ndarray) -> "DistanceOracle":
        """Shallow view sharing distances but with a restricted candidate set."""
        out = DistanceOracle.__new__(DistanceOracle)
        out.__dict__.update(self.__dict__)
        out._candidates = np.asarray(candidates, dtype=np.int64)
        return out

    def restrict_kinds(self, kinds: Sequence[int]) -> "DistanceOracle":
        mask = np.isin(self.kind[self._candidates], np.asarray(kinds, dtype=np.int8))
        return self.with_candidates(self._candidates[mask])

    @classmethod
    def from_matrices(cls, matrices, ids, kind, **kw) -> "DistanceOracle":
        """Construct directly from per-slot distance matrices (for tests/toys)."""
        return cls([np.asarray(m, dtype=float) for m in matrices], ids, kind, **kw)


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) uint8 0/1 array of the first ``n`` bits of each bitset row."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little")


def _hop_matrix(graph, dtype) -> np.ndarray:
    """All-pairs hop counts of a symmetric CSR graph by one breadth-first
    search from every source at once.

    Row ``v`` of ``seen`` is a bitset (little-endian ``uint64`` words) of the
    sources that have reached node ``v``; bit ``s`` lives in word ``s // 64``
    at position ``s % 64``. Each level ORs the neighbours' frontier bitsets
    (nodes of degree 0 are skipped: ``reduceat`` would copy a neighbour's row
    into an empty segment) and keeps the bits not seen before. The level
    number of each new bit is recorded in binary across ``planes``, plane
    ``k`` holding bit ``k``, and the planes are unpacked once at the end,
    most significant first, doubling the sum before each. Distances are
    symmetric, so entry ``(v, s)`` is also the distance from ``s`` to ``v``.
    The diagonal is 0 and unreached pairs are +inf, as with Dijkstra.
    """
    n = graph.shape[0]
    nz = np.flatnonzero(np.diff(graph.indptr))
    node = np.arange(n)
    seen = np.zeros((n, (n + 63) // 64), dtype="<u8")
    seen[node, node >> 6] = np.left_shift(np.uint64(1), (node & 63).astype(np.uint64))
    frontier, planes, level = seen, [], 0
    while True:
        new = np.bitwise_or.reduceat(frontier[graph.indices], graph.indptr[nz], axis=0) & ~seen[nz]
        if not new.any():
            break
        level += 1
        seen[nz] |= new
        frontier = np.zeros_like(seen)
        frontier[nz] = new
        for k in range(level.bit_length()):
            if k == len(planes):
                planes.append(np.zeros_like(seen))
            if level >> k & 1:
                planes[k][nz] |= new
    out = np.zeros((n, n), dtype=dtype)
    for plane in reversed(planes):
        out *= 2
        out += _unpack(plane, n)
    out[_unpack(seen, n) == 0] = np.inf
    return out


def available_memory_bytes() -> int | None:
    """Physical memory still available to this process, or None if unknown.

    Prefers the kernel's MemAvailable estimate, which counts reclaimable page
    cache; falls back to free pages from ``os.sysconf``.
    """
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError):
        return None


def check_fits(n: int, slots: int, itemsize: int) -> None:
    """Raise MemoryError before building ``slots`` full (n, n) distance arrays
    that would not fit in memory.

    The estimate adds one slot's float64 Dijkstra output, which exists while
    it is cast to the stored dtype. The hop breadth-first search allocates no
    such output, so for it the estimate is an upper bound.
    """
    need = n * n * (slots * itemsize + 8)
    avail = available_memory_bytes()
    if avail is not None and need > avail:
        raise MemoryError(
            f"distance oracle for n={n} nodes over {slots} slot(s) needs about {need} bytes "
            f"of full matrices, but only {avail} bytes of physical memory are available")


def build_distance_oracle(snapshots, metric: str, *, need_paths: bool = False,
                          dtype=None) -> DistanceOracle:
    """Shortest paths per slot over snapshot graphs, computed as they are
    read: nothing is built up front (see ``DistanceOracle.full``). With
    ``need_paths`` the oracle also answers ``pred_row`` and
    ``predecessors``: every Dijkstra row it computes comes with its
    predecessor row.

    Small networks (``SMALL_NETWORK_NODES``) default to float64 storage,
    large ones to float32. Latency edge weights are snapped to a dyadic grid
    (``constellation.dyadic_weights``), so every distance is an exact path
    sum and ``D[u, v] == D[v, u]`` bit for bit. ``hop`` rows are unweighted.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    if not snapshots:
        raise ValueError("at least one snapshot required")
    nt = snapshots[0].nodes
    if dtype is None:
        dtype = np.float64 if nt.n_nodes <= SMALL_NETWORK_NODES else np.float32
    return DistanceOracle(None, nt.ids, nt.kind, shell=nt.shell, orbit=nt.orbit,
                          in_orbit=nt.in_orbit, orbit_key=nt.orbit_key, metric=metric,
                          slot_seconds=_infer_slot_seconds(snapshots),
                          graphs=[snap.to_csr(metric) for snap in snapshots],
                          paths=need_paths, dtype=dtype)


def _infer_slot_seconds(snapshots) -> float:
    if len(snapshots) >= 2:
        dt = float(snapshots[1].time_s - snapshots[0].time_s)
        if dt > 0:
            return dt
    return 300.0


def compute_c_qmin(oracle: DistanceOracle) -> float:
    """Smallest positive user-to-candidate distance over all slots.

    Falls back to 1.0 on instances with no finite positive pair (e.g. empty
    demand universes).
    """
    users = oracle.users_idx
    targets = np.concatenate([oracle.candidates_idx, oracle.origins_idx])
    best = np.inf
    if users.size and targets.size:
        for t in range(1, oracle.slot_count + 1):
            block = oracle.take(t, users[:, None], targets)
            pos = block[(block > 0) & np.isfinite(block)]
            if pos.size:
                best = min(best, float(pos.min()))
    return best if np.isfinite(best) else 1.0


@dataclass
class CostParams:
    """Cost-model knobs: metric, replication ratio alpha, storage ratios beta
    (ground) and gamma (satellite, optionally per shell), and c_qmin."""

    metric: str
    alpha: float
    beta: float
    gamma: float | Mapping[int, float]
    c_qmin: float

    def __post_init__(self):
        if self.alpha < 1.0:
            raise ValueError("alpha must be >= 1")
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")
        for g in self._gammas():
            if g < self.beta:
                raise ValueError("gamma must be >= beta for every shell")
        if self.c_qmin <= 0.0:
            raise ValueError("c_qmin must be positive")

    def _gammas(self):
        if isinstance(self.gamma, Mapping):
            return list(self.gamma.values())
        return [self.gamma]

    def gamma_for(self, shell: int) -> float:
        if isinstance(self.gamma, Mapping):
            return float(self.gamma[shell])
        return float(self.gamma)

    @classmethod
    def from_oracle(cls, oracle: DistanceOracle, *, alpha: float = 50.0, beta: float = 1.0,
                    gamma: float | Mapping[int, float] = 10.0) -> "CostParams":
        return cls(metric=oracle.metric, alpha=alpha, beta=beta, gamma=gamma,
                   c_qmin=compute_c_qmin(oracle))

    def storage_rate(self, oracle: DistanceOracle) -> np.ndarray:
        """Per-node holding cost for one unit of content for one slot.

        Origins are exempt: they always hold every content, so charging them
        would shift all schedules by the same constant.
        """
        cached = getattr(self, "_rate_cache", None)
        if cached is not None and cached[0] is oracle:
            return cached[1]
        rate = np.full(oracle.n_nodes, self.beta * self.c_qmin)
        sat = oracle.kind == SAT
        if sat.any():
            gam = np.zeros(oracle.n_nodes)
            for s in np.unique(oracle.shell[sat]):
                gam[oracle.shell == s] = self.gamma_for(int(s))
            rate[sat] = gam[sat] * self.c_qmin
        rate[oracle.kind == ORIGIN] = 0.0
        object.__setattr__(self, "_rate_cache", (oracle, rate))
        return rate


@dataclass
class ReplicaSchedule:
    """Chosen replica node sets S_{c,t}; origins are members of every set."""

    contents: list[str]
    slot_count: int
    sets: dict[str, list[tuple[int, ...]]]

    @classmethod
    def origin_only(cls, contents: Sequence[str], slot_count: int,
                    origins: Sequence[int]) -> "ReplicaSchedule":
        base = tuple(sorted(int(o) for o in origins))
        return cls(list(contents), slot_count,
                   {c: [base] * slot_count for c in contents})

    def nodes(self, content: str, t: int) -> tuple[int, ...]:
        return self.sets[content][t - 1]

    def validate(self, oracle: DistanceOracle) -> None:
        origins = set(int(i) for i in oracle.origins_idx)
        allowed = origins | set(int(i) for i in oracle.candidates_idx)
        for c in self.contents:
            slots = self.sets[c]
            if len(slots) != self.slot_count:
                raise ValueError(f"content {c!r}: wrong number of slots")
            for t, st in enumerate(slots, start=1):
                members = set(st)
                if not origins <= members:
                    raise ValueError(f"content {c!r} slot {t}: origins missing from replica set")
                if not members <= allowed:
                    raise ValueError(f"content {c!r} slot {t}: non-candidate members present")

    def mean_replica_count(self, oracle: DistanceOracle) -> float:
        """Average number of non-origin replicas per (content, slot)."""
        origins = set(int(i) for i in oracle.origins_idx)
        total = sum(len(set(st) - origins) for c in self.contents for st in self.sets[c])
        cells = max(len(self.contents) * self.slot_count, 1)
        return total / cells

    def to_rows(self, ids: Sequence[str]):
        for c in sorted(self.contents):
            for t, st in enumerate(self.sets[c], start=1):
                for node in sorted(st):
                    yield c, t, ids[node]


@dataclass
class CostBreakdown:
    query: float
    replication: float
    storage: float

    @property
    def total(self) -> float:
        return self.query + self.replication + self.storage

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(self.query + other.query,
                             self.replication + other.replication,
                             self.storage + other.storage)


def _nearest(schedule: ReplicaSchedule, demand, oracle: DistanceOracle):
    """Yield (content, slot, per-user demand, per-user distance to the nearest
    replica) for every (content, slot) with some positive demand."""
    rows = np.array([oracle.index[u] for u in demand.users], dtype=np.int64)[:, None]
    slots = min(demand.slot_count, schedule.slot_count)
    for ci, c in enumerate(demand.contents):
        values = demand.values[:, ci, :slots]
        for t in (np.flatnonzero(values.any(axis=0)) + 1).tolist():
            block = oracle.take(t, rows, np.asarray(schedule.nodes(c, t), dtype=np.int64))
            yield c, t, values[:, t - 1], block.min(axis=1)


def query_cost(schedule: ReplicaSchedule, demand, oracle: DistanceOracle) -> float:
    """Demand-weighted distance from each user to its closest replica, summed
    over contents and slots. +inf when a demanding user is fully disconnected."""
    total = 0.0
    with np.errstate(invalid="ignore"):  # zero-demand users are free even at +inf
        for _c, _t, dem, nn in _nearest(schedule, demand, oracle):
            total += float(np.where(dem > 0, dem * nn, 0.0).sum())
    return total


def replication_cost(schedule: ReplicaSchedule, oracle: DistanceOracle, alpha: float) -> float:
    """alpha-weighted distance from each slot-t replica to its nearest slot-(t-1)
    replica; the slot-0 replica set is the origin set."""
    origins = np.asarray(oracle.origins_idx, dtype=np.int64)
    total = 0.0
    for c in schedule.contents:
        prev = origins
        for t in range(1, schedule.slot_count + 1):
            cur = np.asarray(schedule.nodes(c, t), dtype=np.int64)
            block = np.asarray(oracle.take(t, cur[:, None], prev), dtype=float)
            total += alpha * float(block.min(axis=1).sum())
            prev = cur
    return total


def storage_cost(schedule: ReplicaSchedule, catalog, params: CostParams,
                 oracle: DistanceOracle) -> float:
    """Content-size-weighted holding cost per slot: beta*c_qmin at ground nodes,
    gamma*c_qmin at satellites, zero at origins."""
    rate = params.storage_rate(oracle)
    total = 0.0
    for c in schedule.contents:
        size = catalog.size_of(c) if catalog is not None else 1.0
        for t in range(1, schedule.slot_count + 1):
            total += size * float(rate[np.asarray(schedule.nodes(c, t))].sum())
    return total


def total_cost(schedule: ReplicaSchedule, demand, catalog, oracle: DistanceOracle,
               params: CostParams) -> CostBreakdown:
    return CostBreakdown(
        query=query_cost(schedule, demand, oracle),
        replication=replication_cost(schedule, oracle, params.alpha),
        storage=storage_cost(schedule, catalog, params, oracle),
    )


def disconnected_users(schedule: ReplicaSchedule, demand, oracle: DistanceOracle):
    """(content, slot, user_id) triples where positive demand cannot reach any
    replica, origin included. These drive the +inf query-cost flagging."""
    return [(c, t, demand.users[int(ui)])
            for c, t, dem, nn in _nearest(schedule, demand, oracle)
            for ui in np.flatnonzero((dem > 0) & ~np.isfinite(nn))]

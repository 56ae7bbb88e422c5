"""Per-slot shortest-path distances and the query / replication / storage costs.

The distance oracle gives, for every slot, shortest-path distances (and, on
an oracle built for routing, predecessors) over the snapshot graph under one
metric (hop count, ideal latency, or sampled latency). It stores what is
read: per-source rows computed on demand, and full matrices where block
reads or MTLS need them. Disconnected pairs are +inf. A hop slot whose pairs
are all reached within 255 hops stores its full matrix as ``uint8`` hop
counts, one byte per pair. An oracle caches what it computes as it is read,
so it is not thread-safe.
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
    the first ``count`` rows are in use. ``rows`` starts empty and lives in
    an anonymous memory mapping of its own once it has rows (see
    ``DistanceOracle._cache``). On an oracle with paths, which
    needs a latency metric, a source has a predecessor row exactly when it
    has a distance row, cached or in ``full``: one Dijkstra call computes
    both."""

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
    ``need_paths`` under a latency metric, or given predecessors. A
    predecessor row comes with its distance row: the Dijkstra call that
    computes one computes the other. Built from snapshot graphs, an
    oracle stores what is read: Dijkstra rows computed on demand, and full
    matrices as ``full`` says. The node ordering follows the snapshot's node
    table: satellites, gateways, origins, users — so candidate and user
    blocks are contiguous slices.

    Rows and full matrices are stored in ``dtype``, but for the full matrix
    of a ``hop`` slot in which every pair is reached within 255 hops: that
    one holds the hop counts as ``uint8`` (see ``_hop_matrix``). ``matrix``
    and ``full`` hand out what is stored, for readers that read the counts in
    place and convert them before any arithmetic, as ``uint8`` arithmetic
    wraps; ``take`` and ``row`` cast the counts they read to ``dtype``, which
    holds every count exactly.
    """

    def __init__(self, matrices: Sequence[np.ndarray] | None, ids: Sequence[str], kind: np.ndarray,
                 *, shell: np.ndarray | None = None, orbit: np.ndarray | None = None,
                 in_orbit: np.ndarray | None = None,
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

    def _cache(self, slot: _Slot, sources) -> None:
        """Keep the rows of every source in ``sources`` not cached yet,
        computed in one Dijkstra call.

        The row store grows by doubling, up to one row per node. Each store
        is an anonymous memory mapping of its own, made after checking that
        it fits in memory and before the Dijkstra call. A fresh mapping's
        pages become resident only as rows are written to them, and a
        replaced store goes back to the OS at once. An ``np.empty`` store of
        a few MB would instead land on heap memory that is already resident
        (freed Dijkstra outputs raise glibc's mmap threshold above that
        size), so its unwritten rows and the stores it replaced would count
        too; and from 4 MiB up NumPy advises huge pages for it. ``mmap`` is
        imported here, so a run whose oracles build their full matrices
        before any row is read never loads the module.
        """
        new = np.unique(sources)
        new = new[slot.pos[new] < 0]
        if not new.size:
            return
        k, end, n = slot.count, slot.count + new.size, self.n_nodes
        rows = slot.rows
        if end > len(rows):
            import mmap

            cap = min(max(end, 2 * len(rows)), n)
            size = cap * n * self.dtype.itemsize
            _require_memory(size, f"{cap} cached distance rows of n={n} nodes")
            rows = np.frombuffer(mmap.mmap(-1, size), dtype=self.dtype).reshape(cap, n)
            rows[:k] = slot.rows[:k]
        rows[k:end] = self._solve(slot, new)
        slot.rows = rows
        slot.pos[new] = np.arange(k, end)
        slot.count = end

    def row(self, t: int, src: int) -> np.ndarray:
        """Source ``src``'s distance row; a missing one is computed together
        with every user row not cached yet (delivery reads from each user in
        turn; the cost model reads blocks through ``take``)."""
        slot = self._slot(t)
        if slot.full is not None:
            return _widened(slot.full[src], self.dtype)
        if slot.pos[src] < 0:
            self._cache(slot, np.append(self.users_idx, src))
        return slot.rows[slot.pos[src]]

    def pred_row(self, t: int, src: int) -> np.ndarray:
        """Source ``src``'s predecessor row. It comes with the source's
        distance row, so a missing one is computed by ``row``."""
        slot = self._pred_slot(t)
        if slot.graph is None:
            return slot.pred[src]
        if int(src) not in slot.preds:
            self.row(t, src)
        return slot.preds[int(src)]

    def predecessors(self, t: int) -> np.ndarray:
        """Slot ``t``'s full (n, n) predecessor matrix: every source's
        ``pred_row`` stacked, the missing ones computed in one Dijkstra call.
        It fails before allocating when what it allocates would not fit."""
        slot = self._pred_slot(t)
        if slot.graph is None:
            return slot.pred
        n = self.n_nodes
        if slot.full is None:
            # the cached distance and predecessor rows and the stacked copy
            check_fits(n, 1, self.dtype.itemsize + 8)
            self._cache(slot, self._node)
        else:
            # every row is there, so only the stacked copy is new
            _require_memory(4 * n * n, f"predecessor matrix for n={n} nodes")
        return np.stack([slot.preds[s] for s in range(n)])

    def _pred_slot(self, t: int) -> _Slot:
        """Slot ``t`` of an oracle with paths."""
        if not self.has_paths:
            raise ValueError("oracle was built without path predecessors")
        return self._slot(t)

    def take(self, t: int, rows, cols):
        """``matrix(t)[rows, cols]`` for NumPy indexes ``rows`` and ``cols``
        (each an int, a slice or an integer array): the same values, shape and
        dtype, but for ``uint8`` counts, which come in the oracle's dtype,
        and, for every read that gathers, the same memory layout, which fixes
        the order NumPy sums in. A read of slices and ints alone, a view of
        the full matrix, may come back as a C-contiguous copy.

        Without the full matrix (see ``full``) the read is made of cached
        Dijkstra rows: of the ``rows`` side when they are all cached, else of
        whichever side needs fewer new rows (then the smaller side). Distances
        are symmetric bit for bit (``constellation.dyadic_weights``), so a
        column is the matching row.
        """
        full = self.full(t)
        if full is not None:
            return _widened(full[rows, cols], self.dtype)
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
        they are made of cached rows. A ``hop`` oracle (one breadth-first
        search per slot from many sources at once; every hop workload runs
        MTLS) and a small network's, where an all-pairs Dijkstra costs about
        what the row bookkeeping of the solvers' reads does, build every
        slot's full matrix at their first block read, after checking that
        all fit in memory. Larger ``ideal`` and ``sampled`` oracles build
        one only for ``matrix(t)`` or MTLS (``build_matrices``)."""
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
        after checking that they all fit: ``_hop_matrix`` for ``hop``, else
        ``_dijkstra_matrix``. The full matrix replaces the cached rows."""
        todo = [slot for slot in slots if slot.full is None]
        n = self.n_nodes
        if todo and self.metric == "hop":
            # 1 byte per pair and slot, what a slot stores when every pair
            # is reached within 255 hops. A slot that stores the oracle's
            # dtype instead (partitioned, or a pair farther apart) is checked
            # again by ``_hop_matrix`` before it is widened, so a run of such
            # slots may fail after its earlier slots are built.
            _require_memory(n * n * len(todo) + _hop_temporaries(n),
                            f"distance oracle for n={n} nodes over {len(todo)} slot(s)")
        elif todo:
            check_fits(n, len(todo), self.dtype.itemsize + 4 * self.has_paths)
        for slot in todo:
            if self.metric == "hop":
                slot.full = _hop_matrix(slot.graph, self.dtype)
            else:
                slot.full = self._dijkstra_matrix(slot)
            slot.rows = slot.pos = None

    def _dijkstra_matrix(self, slot: _Slot) -> np.ndarray:
        """Slot ``slot``'s full matrix: the cached rows, Dijkstra rows from
        the sources not cached yet, and rows derived from those.

        A node ``v`` of the independent set ``I`` of ``_cover`` whose
        neighbours are all still missing is not searched from. Its
        neighbours are in the vertex cover, so Dijkstra runs from them in
        the same call, and row ``v`` follows in one Bellman step,
        ``D[v, :] = min over the neighbours u of v of (w(v, u) + D[u, :])``
        (``_relax``). Every such sum is an exact path sum in float64
        (``constellation.dyadic_weights``), so the minimum is the distance
        Dijkstra would give, bit for bit. A cached row is stored in the
        oracle's dtype, which may have rounded it, so a node next to a
        cached one is searched from. A path oracle derives nothing: its
        predecessor rows need Dijkstra."""
        n = self.n_nodes
        full = np.empty((n, n), dtype=self.dtype)
        have = np.flatnonzero(slot.pos >= 0)
        full[have] = slot.rows[slot.pos[have]]
        search = slot.pos < 0
        derive = np.empty(0, dtype=np.intp)
        if not self.has_paths:
            g = slot.graph
            near_cached = np.zeros(n, dtype=bool)
            # the first end of every edge whose other end is cached
            deg = np.diff(_indptr(g))
            near_cached[np.repeat(self._node, deg)[~search[g.indices]]] = True
            derive = _cover(g)[1]
            derive = derive[search[derive] & ~near_cached[derive]]
            search[derive] = False
        search = np.flatnonzero(search)
        rows = self._solve(slot, search)
        full[search] = rows
        pos = np.empty(n, dtype=np.intp)
        pos[search] = np.arange(search.size)
        _relax(slot.graph, derive, rows, pos, full, hop=False)
        full[derive, derive] = 0
        return full

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


# Bytes per chunk buffer of ``_relax``. With 64 rows per chunk instead (two
# 190 KB buffers per slot of the 381-node multishell_catalog benchmark), the
# RSS held after building its 12 slots rose by about 0.2 MiB: freed buffers
# of that size stay resident in the heap.
_RELAX_CHUNK = 1 << 16

# Row b holds the bits of byte b, least significant first, one byte each.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")


def _widened(values, dtype):
    """``values`` read from a full matrix, with ``uint8`` hop counts cast to
    ``dtype``."""
    return values.astype(dtype) if values.dtype == np.uint8 else values


def _indptr(graph) -> np.ndarray:
    """``graph.indptr`` as ``intp``. Its arithmetic then runs NumPy's int64
    loops: the int32 ones are code that a weighted run touches nowhere
    else, and faulting them in raised the multishell_catalog benchmark's
    peak RSS by 64 KiB."""
    return graph.indptr.astype(np.intp)


def _cover(graph) -> tuple[np.ndarray, np.ndarray]:
    """``(S, I)`` for a symmetric CSR graph without self-loops: ``I`` is the
    maximal independent set that a greedy pass over the nodes in ascending
    degree (ties by id) picks, ``S`` the other nodes. ``S`` is a vertex
    cover: every neighbour of a node in ``I`` is in ``S``. Both are sorted."""
    deg = np.diff(_indptr(graph))
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    free = bytearray(b"\1") * graph.shape[0]
    for v in np.argsort(deg, kind="stable").tolist():
        if free[v] == 1:
            free[v] = 2
            for u in indices[indptr[v]:indptr[v + 1]]:
                free[u] = 0
    picked = np.frombuffer(free, dtype=np.uint8) == 2
    return np.flatnonzero(~picked), np.flatnonzero(picked)


def _relax(graph, nodes, src, pos, dst, hop: bool) -> None:
    """Fill row ``v`` of ``dst``, for every ``v`` in ``nodes``, with the
    Bellman step from its neighbours' rows: the minimum over the neighbours
    ``u`` of ``v`` of ``src[pos[u]] + w(v, u)``, with ``w = 1`` for ``hop``,
    added after the minimum. A node of degree 0 gets a row of +inf (the
    largest value of an integer ``src``). The diagonal is the caller's.

    Nodes go by descending degree in chunks of as many rows as fit in
    ``_RELAX_CHUNK`` bytes, so the minimum takes one gather of ``src`` rows
    per neighbour rank, over the leading nodes that have that many
    neighbours, and the temporaries stay at two such buffers.
    """
    indptr, indices = _indptr(graph), graph.indices
    deg = indptr[nodes + 1] - indptr[nodes]
    order = np.argsort(-deg, kind="stable")
    fill = np.inf if src.dtype.kind == "f" else np.iinfo(src.dtype).max
    step = max(1, _RELAX_CHUNK // (src.shape[1] * src.itemsize))
    chunk = np.empty((min(len(nodes), step), src.shape[1]), dtype=src.dtype)
    buf = np.empty_like(chunk)
    for lo in range(0, len(nodes), step):
        part = order[lo:lo + step]
        first, d = indptr[nodes[part]], deg[part]
        best = chunk[:part.size]
        best.fill(fill)
        for k in range(d[0]):  # d[0] is the chunk's largest degree
            c = np.count_nonzero(d > k)
            # mode="clip" lets take write to ``out`` unbuffered; every index is valid
            rows = np.take(src, pos[indices[first[:c] + k]], axis=0, out=buf[:c],
                           mode="clip")
            if not hop:
                rows += graph.data[first[:c] + k, None]
            np.minimum(best[:c], rows, out=best[:c])
        if hop:
            best[:np.count_nonzero(d)] += 1
        dst[nodes[part]] = best


def _hop_levels(graph, sources) -> list[np.ndarray]:
    """Hop counts from each of ``sources`` to every node of a symmetric CSR
    graph, by one breadth-first search from all of them at once, as bit
    planes: plane ``k`` is an (n, w) array of bitsets (little-endian
    ``uint64`` words, w = ceil(len(sources) / 64)) whose bit ``j`` of row
    ``v`` is bit ``k`` of the hop count from ``sources[j]`` to ``v``. The
    count is 0 where ``v`` is that source or is not reached; there are as
    many planes as the largest count has bits. Bit ``j`` lives in word
    ``j // 64`` at position ``j % 64``.

    Row ``v`` of ``unseen`` is a bitset of the sources that have not reached
    node ``v`` yet. Each level ORs the neighbours' frontier bitsets and keeps
    the bits still unseen, updating whole arrays in place.

    - *Sentinel.* Every node of degree 0 gets one edge to node ``n``, whose
      frontier row stays all zero, so every node has at least one neighbour.
    - *Lanes.* With ``d`` the smallest degree after that, lane ``k < d``
      holds every node's ``k``-th neighbour: a level ORs ``d`` whole-array
      gathers of frontier rows.
    - *Tail.* The neighbours past the first ``d`` of higher-degree nodes are
      ORed per node by ``np.bitwise_or.reduceat`` and added to those nodes.

    Besides the planes, the search holds four bitset arrays of about n rows
    (``unseen``, two frontiers, one gathered lane) and one gathered row per
    tail edge.
    """
    n, m = graph.shape[0], len(sources)
    deg = np.diff(graph.indptr)
    indices = np.insert(graph.indices.astype(np.intp), graph.indptr[:-1][deg == 0], n)
    deg = np.maximum(deg, 1)
    indptr = np.concatenate(([0], np.cumsum(deg)))
    d = deg.min()
    lanes = [indices[indptr[:-1] + k] for k in range(d)]
    tail = np.flatnonzero(deg > d)
    tail_idx = indices[np.arange(indices.size) - np.repeat(indptr[:-1], deg) >= d]
    extra = deg[tail] - d
    starts = np.cumsum(extra) - extra

    w = (m + 63) // 64
    bit = np.arange(m)
    frontier = np.zeros((n + 1, w), dtype="<u8")
    frontier[sources, bit >> 6] = np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64))
    unseen = ~frontier[:n]
    nxt, gathered = np.zeros_like(frontier), np.empty_like(unseen)
    tail_rows = np.empty((tail_idx.size, w), dtype="<u8")
    planes, level = [], 0
    while True:
        # mode="clip" lets take write to ``out`` unbuffered; every index is valid
        new = np.take(frontier, lanes[0], axis=0, out=nxt[:n], mode="clip")
        for lane in lanes[1:]:
            new |= np.take(frontier, lane, axis=0, out=gathered, mode="clip")
        if tail.size:
            np.take(frontier, tail_idx, axis=0, out=tail_rows, mode="clip")
            new[tail] |= np.bitwise_or.reduceat(tail_rows, starts, axis=0)
        new &= unseen
        if not new.any():
            break
        level += 1
        unseen ^= new
        for k in range(level.bit_length()):
            if k == len(planes):
                planes.append(np.zeros_like(unseen))
            if level >> k & 1:
                planes[k] |= new
        frontier, nxt = nxt, frontier
    return planes


def _unpack_levels(planes, sources, out) -> int:
    """Write the hop counts of ``_hop_levels``'s ``planes`` into the rows
    ``out[sources]`` (the counts from ``sources[j]`` are its row, by
    symmetry) and return how many are nonzero.

    Nodes are unpacked in chunks of as many as fit in ``_RELAX_CHUNK`` bytes
    of level accumulator. Each plane's bytes go through a 256-entry table,
    shifted left by the plane index, that spreads the 8 bits of a byte over
    8 accumulator lanes, one per pair, and are ORed into the accumulator
    (``uint8`` per pair up to 8 planes, wider above), which then holds the
    chunk's counts, one row per node; its transpose is copied into the
    chunk's columns of ``out[sources]``. Besides ``out`` the unpacking
    holds two such buffers.
    """
    n, m = out.shape[1], len(sources)
    w = (m + 63) // 64
    acc_t = np.min_scalar_type((1 << len(planes)) - 1)
    base = _BYTE_BITS.astype(acc_t).view("<u8")
    tables = [base << np.uint64(k) for k in range(len(planes))]
    step = max(1, _RELAX_CHUNK // (max(w, 1) * 64 * acc_t.itemsize))
    acc = np.zeros((min(n, step), w * 8, base.shape[1]), dtype="<u8")
    part = np.empty_like(acc)
    nonzero = 0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        a = acc[:hi - lo]
        for k, plane in enumerate(planes):
            # mode="clip" lets take write to ``out`` unbuffered; every index is valid
            np.take(tables[k], plane[lo:hi].view(np.uint8), axis=0,
                    out=a if k == 0 else part[:hi - lo], mode="clip")
            if k:
                a |= part[:hi - lo]
        levels = a.view(acc_t).reshape(hi - lo, -1)[:, :m]
        nonzero += np.count_nonzero(levels)
        out[sources, lo:hi] = levels.T
    return nonzero


def _hop_matrix(graph, dtype) -> np.ndarray:
    """All-pairs hop counts of a symmetric CSR graph, searched from a vertex
    cover only.

    ``_cover`` splits the nodes into a vertex cover ``S`` and an independent
    set ``I`` (44–50% of the nodes of a snapshot). One breadth-first
    search from the ``S`` sources at once (``_hop_levels``) gives the rows
    ``D[S, :]`` by symmetry, unpacked straight into the output
    (``_unpack_levels``). Every neighbour of a node ``v`` in ``I`` is in
    ``S``, so row ``v`` follows in one Bellman step, ``D[v, :] = 1 + min over
    the neighbours u of v of D[u, :]`` (``_relax``), which is exact: the
    result equals an all-sources search's.

    When every pair is reached within 255 hops the result is ``uint8`` hop
    counts, one byte per pair. Otherwise it is ``dtype`` with +inf for
    unreached pairs, as with Dijkstra. The ``S`` rows decide that before the
    step: when they are all reached within 255 hops, every pair is reached,
    as each node of ``I`` is next to one of ``S`` (or ``n = 1``), but an
    ``I`` row may hold a count of 256, which wraps to 0 in ``uint8``; then
    the ``I`` rows are stepped again in ``dtype``. A search of more than 255
    levels writes ``dtype`` from the start; a partitioned slot's counts are
    widened to ``dtype`` after the unpacking. Either fails with
    ``MemoryError`` before allocating ``dtype`` when that would not fit.
    """
    n = graph.shape[0]
    S, I = _cover(graph)
    planes = _hop_levels(graph, S)
    wide = len(planes) > 8
    if wide:
        _check_float_hops(n, dtype, 1)
    out = np.empty((n, n), dtype=dtype if wide else np.uint8)
    nonzero = _unpack_levels(planes, S, out)
    del planes
    counts = not wide and nonzero == S.size * (n - 1) and (S.size > 0 or n == 1)
    node = np.arange(n)
    if not counts:
        if not wide:
            _check_float_hops(n, dtype, 1)
            out = out.astype(dtype)
        out[out == 0] = np.inf  # the I rows are garbage until the step
        np.fill_diagonal(out, 0)
    _relax(graph, I, out, node, out, hop=True)
    if counts and np.count_nonzero(out) < out.size - S.size:
        _check_float_hops(n, dtype, 0)
        out = out.astype(dtype)
        _relax(graph, I, out, node, out, hop=True)
    np.fill_diagonal(out, 0)
    return out


def _check_float_hops(n: int, dtype, mask: int) -> None:
    """Fail before a hop slot of ``n`` nodes is stored in ``dtype``, with
    ``mask`` more bytes per pair for the +inf mask of unreached pairs."""
    dtype = np.dtype(dtype)
    _require_memory(n * n * (dtype.itemsize + mask),
                    f"hop distances of n={n} nodes in {dtype.name} "
                    "(a pair not reached within 255 hops)")


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
    """Raise MemoryError before building ``slots`` full (n, n) weighted
    distance arrays that would not fit in memory: ``itemsize`` bytes per pair
    and slot, the oracle's dtype plus 4 on an oracle with paths, whose int32
    predecessor rows stay alive, and 8 bytes per pair for one slot's
    temporaries.

    A slot is searched from the vertex cover ``S`` of ``_cover`` only; the
    rows of the independent set ``I`` follow in one Bellman step from their
    neighbours' rows (``_relax``), exact because every sum is an exact path
    sum. It holds the float64 Dijkstra rows of ``S`` while they are stored
    and ``I`` is derived, plus two buffers of ``_RELAX_CHUNK`` bytes: within
    the 8 bytes per pair but on graphs of up to about 200 nodes, where the
    buffers add at most 128 KiB. ``hop`` slots are charged in
    ``DistanceOracle._build``.
    """
    _require_memory(n * n * (slots * itemsize + 8),
                    f"distance oracle for n={n} nodes over {slots} slot(s)")


def _hop_temporaries(n: int) -> int:
    """Bytes that one ``hop`` slot's build holds besides its output: 2 per
    pair for the breadth-first search's bitsets and 4 ``_RELAX_CHUNK``
    buffers.

    The search holds bitset rows of |S|/8 bytes, ``S`` the vertex cover:
    ``unseen``, two frontiers, one gathered lane, one plane per bit of the
    largest level (8 for ``uint8`` counts) and, for the tail, one gathered
    row per tail edge and two per node that has tail edges. With |S| = n
    and two tail edges per node that is 2 bytes per pair; snapshots have
    covers of about half their nodes, and a paper-scale Starlink slot
    (n = 1,655, 3.3 tail edges per node, 5 planes) peaked at 0.52 bytes
    per pair under ``tracemalloc``. The unpacking (``_unpack_levels``) then
    holds the output, the planes and two buffers; the Bellman step
    (``_relax``) two more.
    """
    return 2 * n * n + 4 * _RELAX_CHUNK


def _require_memory(need: int, what: str) -> None:
    """Raise MemoryError when ``need`` bytes for ``what`` exceed the physical
    memory still available (no check when that is unknown)."""
    avail = available_memory_bytes()
    if avail is not None and need > avail:
        raise MemoryError(f"{what} needs about {need} bytes, but only {avail} bytes of "
                          "physical memory are available")


def build_distance_oracle(snapshots, metric: str, *, need_paths: bool = False,
                          dtype=None) -> DistanceOracle:
    """Shortest paths per slot over snapshot graphs, computed as they are
    read: nothing is built up front (see ``DistanceOracle.full``). With
    ``need_paths`` the oracle also answers ``pred_row`` and
    ``predecessors``: every Dijkstra row it computes, and so every distance
    row, comes with its predecessor row. Paths need a latency metric
    (``ideal`` or ``sampled``): a ``hop`` full matrix comes from a
    breadth-first search that keeps no predecessors, so ``need_paths`` with
    ``hop`` raises ``ValueError``.

    Small networks (``SMALL_NETWORK_NODES``) default to float64 storage,
    large ones to float32. Latency edge weights are snapped to a dyadic grid
    (``constellation.dyadic_weights``), so every distance is an exact path
    sum and ``D[u, v] == D[v, u]`` bit for bit. ``hop`` rows are unweighted.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    if not snapshots:
        raise ValueError("at least one snapshot required")
    if need_paths and metric == "hop":
        raise ValueError("paths need a latency metric (ideal or sampled), not hop")
    nt = snapshots[0].nodes
    if dtype is None:
        dtype = np.float64 if nt.n_nodes <= SMALL_NETWORK_NODES else np.float32
    return DistanceOracle(None, nt.ids, nt.kind, shell=nt.shell, orbit=nt.orbit,
                          in_orbit=nt.in_orbit, metric=metric,
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
        rate = np.full(oracle.n_nodes, self.beta * self.c_qmin)
        sat = oracle.kind == SAT
        if sat.any():
            gam = np.zeros(oracle.n_nodes)
            for s in np.unique(oracle.shell[sat]):
                gam[oracle.shell == s] = self.gamma_for(int(s))
            rate[sat] = gam[sat] * self.c_qmin
        rate[oracle.kind == ORIGIN] = 0.0
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


def _row_min(oracle: DistanceOracle, t: int, rows, cols) -> np.ndarray:
    """``oracle.take(t, rows, cols).min(axis=1)``. A slot's full matrix is
    reduced as stored and only the minima are cast to the oracle's dtype, so
    ``uint8`` hop counts are not widened pair by pair: the cast is exact and
    keeps their order, so the values are the same."""
    full = oracle.full(t)
    block = oracle.take(t, rows, cols) if full is None else full[rows, cols]
    return _widened(block.min(axis=1), oracle.dtype)


def _nearest(schedule: ReplicaSchedule, demand, oracle: DistanceOracle):
    """Yield (content, slot, per-user demand, per-user distance to the nearest
    replica) for every (content, slot) with some positive demand."""
    rows = np.array([oracle.index[u] for u in demand.users], dtype=np.int64)[:, None]
    slots = min(demand.slot_count, schedule.slot_count)
    for ci, c in enumerate(demand.contents):
        values = demand.values[:, ci, :slots]
        for t in (np.flatnonzero(values.any(axis=0)) + 1).tolist():
            nearest = _row_min(oracle, t, rows, np.asarray(schedule.nodes(c, t), dtype=np.int64))
            yield c, t, values[:, t - 1], nearest


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
            nearest = np.asarray(_row_min(oracle, t, cur[:, None], prev), dtype=float)
            total += alpha * float(nearest.sum())
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

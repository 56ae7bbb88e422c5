import dataclasses
import math
import mmap
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from helpers import has_full, motion_instance, schedule_cost_ref
from satcdn import costmodel
from satcdn.constellation import GroundNode, Network, o3b, starlink_phase1, viasat
from satcdn.costmodel import (CostParams, DistanceOracle, ReplicaSchedule,
                              build_distance_oracle, compute_c_qmin, disconnected_users,
                              query_cost, replication_cost, storage_cost, total_cost)
from satcdn.demand import ContentCatalog, DemandMatrix
from satcdn.placement import solve_mtls, solve_mtols, solve_naive_greedy

SAT, USER, GATEWAY, ORIGIN = 0, 1, 2, 3


def chain_oracle():
    """user - sat0 - sat1 - gateway - origin chain, static over 2 slots."""
    ids = ["sat/s/00/00", "sat/s/00/01", "gw/g", "origin/o", "user/u"]
    kind = np.array([SAT, SAT, GATEWAY, ORIGIN, USER], dtype=np.int8)
    inf = np.inf
    # adjacency: u-s0, s0-s1, s1-g, g-o
    D = np.array([
        [0, 1, 2, 3, 1],
        [1, 0, 1, 2, 2],
        [2, 1, 0, 1, 3],
        [3, 2, 1, 0, 4],
        [1, 2, 3, 4, 0],
    ], dtype=float)
    shell = np.array([0, 0, -1, -1, -1], dtype=np.int32)
    return DistanceOracle.from_matrices([D, D], ids, kind, shell=shell, metric="hop")


class TestDistanceOracle:
    def test_two_nodes_one_edge(self):
        shell = viasat(longitudes_deg=(0.0,))
        ground = [GroundNode("user/x", "user_region", 0.0, 0.0)]
        net = Network([shell], ground)
        oracle = build_distance_oracle(net.snapshots(1), "hop")
        assert oracle.row(1, oracle.index["sat/viasat/00/00"])[oracle.index["user/x"]] == 1.0

    def test_chain_hop_distance(self):
        oracle = chain_oracle()
        assert oracle.row(1, oracle.index["user/u"])[oracle.index["gw/g"]] == 3.0

    def test_matches_floyd_warshall_oracle(self):
        rng = np.random.default_rng(5)
        shell = starlink_phase1(orbit_count=2, sats_per_orbit=3, name="s",
                                min_elevation_deg=5.0)
        ground = [GroundNode("user/a", "user_region", 30.0, -100.0),
                  GroundNode("gw/b", "gateway", 45.0, -80.0),
                  GroundNode("origin/o", "origin", 50.0, 10.0),
                  GroundNode("user/c", "user_region", -20.0, 60.0)]
        net = Network([shell], ground, seed=2)
        for metric in ("hop", "ideal"):
            snap = net.snapshot(1)
            oracle = build_distance_oracle([snap], metric)
            n = snap.n_nodes
            ref = np.full((n, n), np.inf)
            np.fill_diagonal(ref, 0.0)
            w = snap.weights(metric)
            for u, v, wt in zip(snap.edge_u, snap.edge_v, w):
                ref[u, v] = min(ref[u, v], wt)
                ref[v, u] = min(ref[v, u], wt)
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        if ref[i, k] + ref[k, j] < ref[i, j]:
                            ref[i, j] = ref[i, k] + ref[k, j]
            got = oracle.matrix(1)
            assert np.allclose(np.where(np.isinf(ref), -1, ref),
                               np.where(np.isinf(got), -1, got), rtol=1e-9)

    def test_symmetry_zero_diagonal_triangle(self):
        oracle = chain_oracle()
        D = oracle.matrix(1)
        assert np.allclose(D, D.T)
        assert np.all(np.diag(D) == 0)
        n = D.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert D[i, j] <= D[i, k] + D[k, j] + 1e-9


def leo_network():
    shell = starlink_phase1(orbit_count=4, sats_per_orbit=6, name="s", min_elevation_deg=5.0)
    ground = [GroundNode("gw/b", "gateway", 45.0, -80.0),
              GroundNode("origin/o", "origin", 40.0, -90.0),
              GroundNode("user/a", "user_region", 30.0, -100.0),
              GroundNode("user/c", "user_region", -20.0, 60.0),
              GroundNode("user/d", "user_region", 35.0, 20.0)]
    return Network([shell], ground, seed=2)


def split_network():
    """Two GEO satellites without inter-satellite links: {sat 0 deg, gw,
    origin, user/a} and {sat 180 deg, user/b} are separate components."""
    ground = [GroundNode("gw/g", "gateway", 5.0, -5.0),
              GroundNode("origin/o", "origin", 10.0, 5.0),
              GroundNode("user/a", "user_region", 0.0, 0.0),
              GroundNode("user/b", "user_region", 0.0, 180.0)]
    return Network([viasat(longitudes_deg=(0.0, 180.0))], ground)


def isolated_network():
    """A GEO satellite at 0 deg with the ground nodes in its view, plus
    user/z on the far side of the Earth, which no satellite sees. user/z is
    not the last node, so a degree-0 node sits between connected ones."""
    ground = [GroundNode("gw/g", "gateway", 5.0, -5.0),
              GroundNode("origin/o", "origin", 10.0, 5.0),
              GroundNode("user/z", "user_region", 0.0, 180.0),
              GroundNode("user/a", "user_region", 0.0, 0.0)]
    return Network([viasat(longitudes_deg=(0.0,))], ground)


def three_shell_network():
    """LEO, MEO and GEO shells over spread-out ground sites: edge latencies
    span two orders of magnitude, and the GEO and MEO hops are long."""
    shells = [starlink_phase1(orbit_count=4, sats_per_orbit=6, name="s", min_elevation_deg=5.0),
              o3b(sats_per_orbit=6), viasat(longitudes_deg=(-100.0, 20.0))]
    ground = [GroundNode("gw/b", "gateway", 45.0, -80.0),
              GroundNode("gw/e", "gateway", 0.0, 10.0),
              GroundNode("origin/o", "origin", 40.0, -90.0),
              GroundNode("user/a", "user_region", 30.0, -100.0),
              GroundNode("user/c", "user_region", -20.0, 60.0),
              GroundNode("user/d", "user_region", 5.0, 20.0)]
    return Network(shells, ground, seed=3)


def connected_network():
    """A LEO shell low enough in the sky for every ground node to see a
    satellite: each slot's pairs are all connected, so a hop oracle stores
    them as uint8 counts. 69 nodes, so bitsets span two words."""
    shell = starlink_phase1(orbit_count=8, sats_per_orbit=8, name="s", min_elevation_deg=10.0)
    ground = [GroundNode("gw/b", "gateway", 45.0, -80.0),
              GroundNode("origin/o", "origin", 40.0, -90.0),
              GroundNode("user/a", "user_region", 30.0, -100.0),
              GroundNode("user/c", "user_region", 35.0, -85.0),
              GroundNode("user/d", "user_region", 42.0, -110.0)]
    return Network([shell], ground, seed=2)


NETWORKS = [leo_network, split_network, isolated_network, three_shell_network,
            connected_network]


def stored_dtype(dist, metric, dtype):
    """The dtype an oracle stores the full matrix ``dist`` in: uint8 for a
    hop slot whose pairs are all reached within 255 hops, else ``dtype``."""
    counts = metric == "hop" and np.isfinite(dist).all() and dist.max() <= 255
    return np.dtype(np.uint8 if counts else dtype)


@pytest.fixture
def lazy_planning(monkeypatch):
    """Weighted planning oracles of the small test networks compute rows on
    demand, as those of large networks do."""
    monkeypatch.setattr(costmodel, "SMALL_NETWORK_NODES", 0)


def store_mapping(slot):
    """The anonymous memory mapping that holds ``slot``'s row store."""
    base = slot.rows
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)
    return base.obj


def full_apsp(snap, metric):
    """Distances and predecessors of every source in one call, independent of
    the oracle's per-row routine."""
    return dijkstra(snap.to_csr(metric), directed=False, unweighted=(metric == "hop"),
                    return_predecessors=True)


class TestLazyRows:
    @pytest.mark.parametrize("metric", ["hop", "ideal", "sampled"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("make_net", NETWORKS)
    def test_rows_equal_full_apsp_bit_for_bit(self, metric, dtype, make_net):
        """Distance rows, and on a latency oracle with paths predecessor
        rows, equal an undirected Dijkstra bit for bit."""
        snaps = make_net().snapshots(2)
        paths = metric != "hop"
        lazy = build_distance_oracle(snaps, metric, need_paths=paths, dtype=dtype)
        eager = build_distance_oracle(snaps, metric, dtype=dtype)
        n = lazy.n_nodes
        apsp = [full_apsp(snap, metric) for snap in snaps]
        for t, (dist, pred) in enumerate(apsp, start=1):
            want, kept = dist.astype(dtype), stored_dtype(dist, metric, dtype)
            D = eager.matrix(t)
            assert D.dtype == kept and D.astype(dtype).tobytes() == want.tobytes()
            # user sources first (the batched call), then every other source
            sources = list(lazy.users_idx) + [s for s in range(n) if s not in lazy.users_idx]
            for src in sources:
                assert lazy.row(t, src).tobytes() == want[src].tobytes()
                if paths:
                    assert lazy.pred_row(t, src).tobytes() == \
                        pred[src].astype(np.int32).tobytes()
                assert eager.row(t, src).tobytes() == want[src].tobytes()
            assert not has_full(lazy, t)
        for t, (dist, pred) in enumerate(apsp, start=1):
            D = lazy.matrix(t)
            assert D.dtype == stored_dtype(dist, metric, dtype)
            assert D.astype(dtype).tobytes() == dist.astype(dtype).tobytes()
            if paths:
                assert np.array_equal(lazy.predecessors(t), pred)

    @pytest.mark.parametrize("kind", ["rows", "eager", "lazy", "after_matrix"])
    @pytest.mark.parametrize("metric", ["hop", "ideal", "sampled"])
    @pytest.mark.parametrize("make_net", [leo_network, split_network, isolated_network])
    def test_pred_rows_equal_full_apsp_on_every_oracle_kind(self, kind, metric, make_net,
                                                           monkeypatch):
        """Predecessor rows, stacked, equal an undirected Dijkstra bit for
        bit whatever the slot holds: rows only, the full matrices of a small
        oracle built at its first block read, rows of a lazy oracle after
        block reads, or a full matrix built by ``matrix(t)``;
        ``predecessors(t)`` is the same stack. A hop oracle, whose full
        matrices (a breadth-first search, built at its first block read)
        keep no predecessors, has none on any kind: both reads refuse, and
        its distance rows still equal an unweighted Dijkstra."""
        if kind in ("lazy", "after_matrix"):
            monkeypatch.setattr(costmodel, "SMALL_NETWORK_NODES", 0)
        snaps = make_net().snapshots(2)
        paths = metric != "hop"
        oracle = build_distance_oracle(snaps, metric, need_paths=paths)
        users, n = oracle.users_idx, oracle.n_nodes
        if kind in ("eager", "lazy"):
            oracle.take(1, users[:, None], oracle.candidates_idx)
        elif kind == "after_matrix":
            oracle.matrix(2)
        full = {"rows": False, "eager": True, "lazy": not paths,
                "after_matrix": not paths}[kind]
        assert [has_full(oracle, t) for t in (1, 2)] == \
            [full, full or kind == "after_matrix"]
        for t, snap in enumerate(snaps, start=1):
            dist, pred = full_apsp(snap, metric)
            if not paths:
                with pytest.raises(ValueError, match="without path predecessors"):
                    oracle.pred_row(t, users[0])
                with pytest.raises(ValueError, match="without path predecessors"):
                    oracle.predecessors(t)
                got = np.array([oracle.row(t, s) for s in range(n)])
                assert got.tobytes() == dist.astype(oracle.dtype).tobytes()
                continue
            got = np.array([oracle.pred_row(t, s) for s in range(n)])
            assert got.dtype == np.int32 and got.tobytes() == pred.astype(np.int32).tobytes()
            assert oracle.predecessors(t).tobytes() == got.tobytes()

    @pytest.mark.parametrize("small", [True, False])
    def test_path_oracle_keeps_the_predecessors_of_its_full_matrix(self, small, monkeypatch):
        """The Dijkstra call that builds a weighted path oracle's full matrix
        keeps its predecessor rows, so ``predecessors(t)`` runs no other."""
        if not small:
            monkeypatch.setattr(costmodel, "SMALL_NETWORK_NODES", 0)
        snap = leo_network().snapshot(1)
        oracle = build_distance_oracle([snap], "ideal", need_paths=True)
        oracle.matrix(1)

        def never(*_a, **_k):
            raise AssertionError("Dijkstra ran again for the predecessors")

        monkeypatch.setattr(costmodel, "dijkstra", never)
        assert np.array_equal(oracle.predecessors(1), full_apsp(snap, "ideal")[1])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.usefixtures("lazy_planning")
    def test_row_store_keeps_every_row_across_its_growths(self, dtype):
        """A lazy path oracle caches rows over ``row`` and ``take`` reads that
        grow its row store several times. After every read, each cached
        distance and predecessor row equals an undirected Dijkstra bit for
        bit at an unchanged position, and the rows ``row`` handed out before
        a growth keep their values. Every read, and ``matrix(t)`` at the end,
        equals the eager oracle's."""
        snaps = three_shell_network().snapshots(2)
        lazy = build_distance_oracle(snaps, "ideal", need_paths=True, dtype=dtype)
        eager = build_distance_oracle(snaps, "ideal", dtype=dtype)
        eager.build_matrices(2)
        n, cands = lazy.n_nodes, lazy.candidates_idx
        rng = np.random.default_rng(4)
        for t, snap in enumerate(snaps, start=1):
            dist, pred = full_apsp(snap, "ideal")
            want, slot = dist.astype(dtype), lazy._slots[t - 1]
            D = eager.matrix(t)
            caps, handed, where = [], {}, {}
            while (slot.pos < 0).any():
                src = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
                if rng.random() < 0.5:
                    for s in src.tolist():
                        handed[s] = lazy.row(t, s)
                        assert handed[s].tobytes() == eager.row(t, s).tobytes()
                else:
                    got = lazy.take(t, src[:, None], cands)
                    assert got.tobytes() == D[src[:, None], cands].tobytes()
                    got = lazy.take(t, cands[:, None], src)
                    assert got.tobytes() == D[cands[:, None], src].tobytes()
                if len(slot.rows) not in caps:
                    caps.append(len(slot.rows))
                cached = np.flatnonzero(slot.pos >= 0)
                assert slot.count == cached.size == len(slot.preds)
                assert all(where.get(s, p) == p
                           for s, p in zip(cached.tolist(), slot.pos[cached].tolist()))
                where = dict(zip(cached.tolist(), slot.pos[cached].tolist()))
                assert slot.rows[slot.pos[cached]].tobytes() == want[cached].tobytes()
                for s in cached.tolist():
                    assert slot.preds[s].tobytes() == pred[s].astype(np.int32).tobytes()
                for s, r in handed.items():
                    assert r.tobytes() == want[s].tobytes()
            assert caps[-1] == n and len(caps) >= 4
            assert lazy.take(t, slice(None), cands).tobytes() == D[:, cands].tobytes()
            assert lazy.matrix(t).tobytes() == D.tobytes()
            for s, r in handed.items():
                assert r.tobytes() == want[s].tobytes()

    @pytest.mark.usefixtures("lazy_planning")
    def test_each_growth_maps_a_fresh_store_and_frees_the_last(self):
        """Every row store is an anonymous mapping of its own, and the one a
        growth replaces is freed with it unless a handed-out row holds it."""
        oracle = build_distance_oracle(three_shell_network().snapshots(1), "ideal")
        slot, n = oracle._slots[0], oracle.n_nodes
        assert slot.rows.shape == (0, n)
        held = oracle.row(1, 0)
        stores = [weakref.ref(store_mapping(slot))]
        for src in range(n):
            oracle.row(1, src)
            if stores[-1]() is not store_mapping(slot):
                stores.append(weakref.ref(store_mapping(slot)))
        assert len(stores) >= 4 and len(slot.rows) == n
        assert stores[0]() is not None and held[0] == 0.0
        assert all(store() is None for store in stores[1:-1])
        del held
        assert stores[0]() is None

    def test_eager_solves_never_import_mmap(self):
        """A fresh interpreter that solves on eager oracles (``hop`` and a
        small network's ``ideal``) never loads ``mmap``; only a cached row
        does."""
        script = textwrap.dedent("""\
            import sys

            import numpy as np

            import satcdn
            from satcdn import CostParams, DemandMatrix, GroundNode, Network, solve_mtols
            from satcdn import build_distance_oracle, starlink_phase1

            shell = starlink_phase1(orbit_count=4, sats_per_orbit=6, name="s",
                                    min_elevation_deg=5.0)
            ground = [GroundNode("origin/o", "origin", 40.0, -90.0),
                      GroundNode("user/a", "user_region", 30.0, -100.0)]
            snaps = Network([shell], ground, seed=2).snapshots(2)
            seen = []
            for metric in ("hop", "ideal"):
                oracle = build_distance_oracle(snaps, metric)
                users = [oracle.ids[i] for i in oracle.users_idx]
                demand = DemandMatrix(users, ["c"], np.ones((len(users), 1, 2)))
                solve_mtols(demand, oracle, CostParams.from_oracle(oracle))
                seen.append("mmap" in sys.modules)
            build_distance_oracle(snaps, "ideal").row(1, 0)
            seen.append("mmap" in sys.modules)
            print(seen)
            """)
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["[False,", "False,", "True]"]

    def test_partitioned_rows_keep_inf_and_missing_predecessors(self):
        for metric in ("hop", "ideal"):
            paths = metric != "hop"
            lazy = build_distance_oracle(split_network().snapshots(1), metric, need_paths=paths)
            a, b = lazy.index["user/a"], lazy.index["user/b"]
            o = lazy.index["origin/o"]
            assert np.isinf(lazy.row(1, a)[b]) and np.isinf(lazy.row(1, b)[o])
            assert np.isfinite(lazy.row(1, a)[o])
            assert lazy.row(1, b)[o] == np.inf
            if paths:
                assert lazy.pred_row(1, a)[b] == -9999 and lazy.pred_row(1, b)[o] == -9999
                assert lazy.pred_row(1, a)[o] >= 0

    def test_paths_need_a_latency_metric(self):
        """A hop oracle's full matrices come from a breadth-first search
        that keeps no predecessors, so it is refused paths."""
        snaps = leo_network().snapshots(1)
        with pytest.raises(ValueError, match="latency metric"):
            build_distance_oracle(snaps, "hop", need_paths=True)
        assert not build_distance_oracle(snaps, "hop").has_paths

    @pytest.mark.parametrize("read", ["row", "take", "small_take", "matrix"])
    def test_pred_rows_come_with_their_distance_rows(self, read, monkeypatch):
        """Every source with a distance row, cached or in the full matrix,
        has its predecessor row: ``pred_row`` runs no Dijkstra for it."""
        if read != "small_take":
            monkeypatch.setattr(costmodel, "SMALL_NETWORK_NODES", 0)
        snap = leo_network().snapshot(1)
        oracle = build_distance_oracle([snap], "ideal", need_paths=True)
        gw = oracle.index["gw/b"]
        if read == "row":
            oracle.row(1, gw)
        elif read in ("take", "small_take"):
            oracle.take(1, oracle.users_idx[:, None], oracle.candidates_idx)
        else:
            oracle.matrix(1)
        slot = oracle._slots[0]
        assert has_full(oracle, 1) == (read in ("small_take", "matrix"))
        have = np.arange(oracle.n_nodes) if slot.full is not None else \
            np.flatnonzero(slot.pos >= 0)
        assert set(oracle.users_idx) <= set(have.tolist())
        assert sorted(slot.preds) == have.tolist()
        pred = full_apsp(snap, "ideal")[1]

        def never(*_a, **_k):
            raise AssertionError("Dijkstra ran for a source with a distance row")

        monkeypatch.setattr(costmodel, "dijkstra", never)
        for s in have.tolist():
            assert oracle.pred_row(1, s).tobytes() == pred[s].astype(np.int32).tobytes()

    def test_predecessors_of_cached_rows_run_no_dijkstra(self, monkeypatch):
        """A lazy slot whose rows are all cached stacks their predecessor
        rows without building a full matrix or running Dijkstra."""
        monkeypatch.setattr(costmodel, "SMALL_NETWORK_NODES", 0)
        snap = leo_network().snapshot(1)
        oracle = build_distance_oracle([snap], "ideal", need_paths=True)
        for s in range(oracle.n_nodes):
            oracle.row(1, s)
        assert (oracle._slots[0].pos >= 0).all()

        def never(*_a, **_k):
            raise AssertionError("Dijkstra ran for cached rows")

        monkeypatch.setattr(costmodel, "dijkstra", never)
        got = oracle.predecessors(1)
        assert got.tobytes() == full_apsp(snap, "ideal")[1].astype(np.int32).tobytes()
        assert not has_full(oracle, 1)

    def test_user_row_read_computes_only_user_rows(self):
        lazy = build_distance_oracle(leo_network().snapshots(2), "ideal", need_paths=True)
        users = lazy.users_idx
        lazy.row(2, lazy.index["user/a"])
        slot = lazy._slots[1]
        assert slot.full is None
        assert np.array_equal(np.flatnonzero(slot.pos >= 0), users)
        assert sorted(slot.preds) == users.tolist()
        assert (lazy._slots[0].pos < 0).all() and not lazy._slots[0].preds
        gw = lazy.index["gw/b"]
        lazy.pred_row(2, gw)
        assert sorted(slot.preds) == sorted(users.tolist() + [gw])
        assert np.array_equal(np.flatnonzero(slot.pos >= 0), np.sort(np.append(users, gw)))

    def test_planning_oracle_has_no_paths(self):
        """A planning oracle computes distance rows alone and refuses
        predecessor reads, as a toy oracle given no predecessors does."""
        planning = build_distance_oracle(leo_network().snapshots(1), "ideal")
        planning.row(1, planning.index["user/a"])
        assert not planning.has_paths and not planning._slots[0].preds
        for oracle in (planning, chain_oracle()):
            with pytest.raises(ValueError, match="predecessors"):
                oracle.pred_row(1, 0)
            with pytest.raises(ValueError, match="predecessors"):
                oracle.predecessors(1)


class TestDyadicWeights:
    @pytest.mark.parametrize("metric", ["ideal", "sampled"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("make_net", NETWORKS)
    @pytest.mark.usefixtures("lazy_planning")
    def test_every_oracle_equals_its_transpose(self, metric, dtype, make_net):
        snaps = make_net().snapshots(2)
        eager = build_distance_oracle(snaps, metric, dtype=dtype)
        eager.build_matrices(len(snaps))
        lazy = build_distance_oracle(snaps, metric, dtype=dtype)
        paths = build_distance_oracle(snaps, metric, need_paths=True, dtype=dtype)
        n = eager.n_nodes
        for t in range(1, len(snaps) + 1):
            D = eager.matrix(t)
            assert D.tobytes() == np.ascontiguousarray(D.T).tobytes()
            for oracle in (lazy, paths):
                rows = np.array([oracle.row(t, s) for s in range(n)])
                assert rows.tobytes() == D.tobytes()
                assert not has_full(oracle, t)

    def test_weights_sit_on_the_grid_and_barely_move(self):
        snap = three_shell_network().snapshot(1)
        for metric in ("ideal", "sampled"):
            raw = snap.weights(metric)
            got = np.asarray(snap.to_csr(metric)[snap.edge_u, snap.edge_v]).ravel()
            k = math.floor(52 - math.log2(snap.n_nodes * raw.max()))
            assert np.array_equal(np.ldexp(got, k), np.rint(np.ldexp(got, k)))
            assert np.all(np.abs(got - raw) <= math.ldexp(1.0, -k - 1))
            assert got.min() > 0

    def test_hop_weights_are_unchanged(self):
        snap = leo_network().snapshot(1)
        assert np.array_equal(snap.to_csr("hop").data, np.ones(2 * snap.n_edges))

    def test_too_coarse_a_grid_raises(self):
        snap = leo_network().snapshot(1)
        wide = snap.ideal_ms.copy()
        wide[0], wide[1] = 1e-9, 1e9  # k = 18: the 1e-9 edge would round to 0
        with pytest.raises(ValueError, match="too wide a range"):
            dataclasses.replace(snap, ideal_ms=wide).to_csr("ideal")
        bad = snap.ideal_ms.copy()
        bad[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(snap, ideal_ms=bad).to_csr("ideal")


def read_forms(oracle):
    """Every form of ``matrix(t)[rows, cols]`` read the solvers and the cost
    model make, on node indexes."""
    users, cands, origins = oracle.users_idx, oracle.candidates_idx, oracle.origins_idx
    a, b = np.array([5, 0, 17, 3]), np.array([[2], [9]])
    return [(slice(int(users[0]), int(users[-1]) + 1), slice(None)), (slice(None), a),
            (slice(3, 7), a), (a, slice(1, 4)), (slice(None), slice(None)),
            (slice(2, 9), slice(4, 6)), (a[:, None], a), (b, a), (users[:, None], cands),
            (cands[:, None], origins), (users[:, None], users), (2, slice(None)),
            (slice(None), 3), (a, 1), (np.int64(2), a), (b, slice(None)), (4, 7)]


def _basic(idx) -> bool:
    return all(isinstance(i, (slice, int, np.integer)) for i in idx)


class TestTake:
    @pytest.mark.parametrize("metric", ["ideal", "sampled"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.usefixtures("lazy_planning")
    def test_take_equals_the_matrix_read(self, metric, dtype, warm):
        """Values, shape, dtype and, for a gather, the memory layout (which
        fixes NumPy's sum order) of every read form, whichever side the rows
        come from: a fresh oracle, or one holding a few rows already."""
        snaps = three_shell_network().snapshots(2)
        eager = build_distance_oracle(snaps, metric, dtype=dtype)
        eager.build_matrices(2)
        for idx in read_forms(eager):
            lazy = build_distance_oracle(snaps, metric, dtype=dtype)
            for t in (1, 2):
                if warm:
                    lazy.take(t, slice(None), np.array([0, 2, 3, 17]))
                want, got = eager.matrix(t)[idx], lazy.take(t, *idx)
                assert np.asarray(got).dtype == want.dtype and np.shape(got) == want.shape
                assert np.asarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
                if _basic(idx):
                    assert np.asarray(got).flags.c_contiguous
                else:
                    assert got.strides == want.strides
                assert not has_full(lazy, t)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_reads_of_uint8_counts_come_in_the_oracle_dtype(self, dtype):
        """A hop slot stored as uint8 counts: ``take`` and ``row`` return the
        oracle's dtype, with the values and, for a gather, the memory layout
        of the matrix read cast to it."""
        oracle = build_distance_oracle(connected_network().snapshots(2), "hop", dtype=dtype)
        for t in (1, 2):
            D = oracle.matrix(t)
            assert D.dtype == np.uint8
            for idx in read_forms(oracle):
                want, got = D[idx].astype(dtype), oracle.take(t, *idx)
                assert np.asarray(got).dtype == dtype and np.shape(got) == want.shape
                assert np.asarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
                if not _basic(idx):
                    assert got.strides == want.strides
            for src in (0, oracle.n_nodes - 1):
                row = oracle.row(t, src)
                assert row.dtype == dtype and row.tobytes() == D[src].astype(dtype).tobytes()

    @pytest.mark.usefixtures("lazy_planning")
    def test_matrix_reuses_the_cached_rows(self, monkeypatch):
        snaps = leo_network().snapshots(1)
        lazy = build_distance_oracle(snaps, "ideal")
        users = lazy.users_idx
        lazy.take(1, users[:, None], lazy.candidates_idx)
        assert np.array_equal(np.flatnonzero(lazy._slots[0].pos >= 0), users)
        solved = []
        solve = DistanceOracle._solve
        monkeypatch.setattr(DistanceOracle, "_solve",
                            lambda self, slot, src: solved.append(src) or solve(self, slot, src))
        D = lazy.matrix(1)
        assert np.array_equal(solved[0], np.setdiff1d(np.arange(lazy.n_nodes), users))
        eager = build_distance_oracle(snaps, "ideal")
        eager.build_matrices(1)
        assert D.tobytes() == eager.matrix(1).tobytes()


def edge_graph(n, edges):
    """Symmetric unweighted CSR graph of ``n`` nodes over undirected ``edges``."""
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    return csr_matrix((np.ones(2 * u.size), (np.r_[u, v], np.r_[v, u])), shape=(n, n))


def random_graph(n, seed, mean_degree=3.0):
    """Random graph whose degrees vary and which leaves some nodes isolated
    and some pairs in different components."""
    rng = np.random.default_rng(seed)
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.size) < mean_degree / n
    return edge_graph(n, np.c_[u[keep], v[keep]])


def path_graph(n):
    return edge_graph(n, [(i, i + 1) for i in range(n - 1)])


# Graphs that cross bitset words, take more than 8 level planes, have a
# high-degree tail, or have nodes of degree 0 at the ends and the middle; and
# connected graphs, whose levels are stored as uint8 counts up to 255 levels
# (path256) but not past them (path257).
BFS_GRAPHS = {
    **{f"random{n}": (lambda n=n: random_graph(n, seed=n)) for n in (63, 64, 65, 130)},
    "path256": lambda: path_graph(256),
    "path257": lambda: path_graph(257),
    "path300": lambda: path_graph(300),
    "ring130_chords": lambda: edge_graph(
        130, [(i, (i + 1) % 130) for i in range(130)] + [(i, (7 * i + 3) % 130)
                                                         for i in range(0, 130, 9)]),
    "star200": lambda: edge_graph(200, [(0, leaf) for leaf in range(1, 200)]),
    "isolated_first_middle_last": lambda: edge_graph(
        70, [(i, i + 1) for i in range(1, 68) if 35 not in (i, i + 1)] + [(34, 36)]),
    "edgeless1": lambda: edge_graph(1, []),
    "edgeless5": lambda: edge_graph(5, []),
    "three_shell": lambda: three_shell_network().snapshot(1).to_csr("hop"),
}


class TestHopBFS:
    def test_isolated_user_stays_inf(self):
        snap = isolated_network().snapshot(1)
        D = build_distance_oracle([snap], "hop").matrix(1)
        z = snap.nodes.ids.index("user/z")
        assert snap.degrees()[z] == 0
        assert D[z, z] == 0 and np.isinf(np.delete(D[z], z)).all()
        assert np.isinf(np.delete(D[:, z], z)).all()
        a, o = snap.nodes.ids.index("user/a"), snap.nodes.ids.index("origin/o")
        assert D[a, o] == D[o, a] == 2.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", BFS_GRAPHS)
    def test_equals_unweighted_dijkstra_bit_for_bit(self, name, dtype):
        """uint8 counts if and only if every pair is reached within 255
        levels, else ``dtype`` with +inf; either way the values of Dijkstra
        cast to ``dtype``, bit for bit."""
        graph = BFS_GRAPHS[name]()
        dist = dijkstra(graph, directed=False, unweighted=True)
        got = costmodel._hop_matrix(graph, dtype)
        assert got.dtype == stored_dtype(dist, "hop", dtype)
        assert got.astype(dtype).tobytes() == dist.astype(dtype).tobytes()

    def test_graphs_cover_every_branch(self):
        degrees = {name: np.diff(make().indptr) for name, make in BFS_GRAPHS.items()}
        assert all((degrees[f"random{n}"] == 0).any() for n in (63, 64, 65, 130))
        assert dijkstra(path_graph(300), indices=0, unweighted=True).max() == 299
        # Stored as counts: connected within 255 levels, the last at 255.
        counts = [name for name, make in BFS_GRAPHS.items() if stored_dtype(
            dijkstra(make(), directed=False, unweighted=True), "hop", np.float32) == np.uint8]
        assert counts == ["path256", "ring130_chords", "star200", "edgeless1"]
        assert dijkstra(path_graph(256), indices=0, unweighted=True).max() == 255
        assert sorted(degrees["star200"])[-2:] == [1, 199]
        assert np.flatnonzero(degrees["isolated_first_middle_last"] == 0).tolist() == [0, 35, 69]

    @pytest.mark.parametrize("connected", [False, True])
    def test_transient_memory_fits_the_estimate(self, connected):
        """Besides its output, the search allocates at most the 8 bytes per
        pair that ``check_fits`` adds for one slot. A connected graph's
        output takes 1 byte per pair, a disconnected one's 4 (float32)."""
        n = 1000
        graph = random_graph(n, seed=1)
        if connected:
            graph = graph + path_graph(n)
        tracemalloc.start()
        try:
            out = costmodel._hop_matrix(graph, np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.dtype == (np.uint8 if connected else np.float32)
        assert out.nbytes == out.itemsize * n * n and np.isinf(out).any() != connected
        assert peak - out.nbytes <= 8 * n * n

    def test_only_the_eager_hop_oracle_skips_dijkstra(self, monkeypatch):
        calls = {"bfs": 0, "dijkstra": 0}
        bfs, dij = costmodel._hop_matrix, costmodel.dijkstra

        def count(name, fn):
            def wrapped(*a, **k):
                calls[name] += 1
                return fn(*a, **k)
            return wrapped

        monkeypatch.setattr(costmodel, "_hop_matrix", count("bfs", bfs))
        monkeypatch.setattr(costmodel, "dijkstra", count("dijkstra", dij))
        snaps = leo_network().snapshots(2)
        hop = build_distance_oracle(snaps, "hop")
        assert calls == {"bfs": 0, "dijkstra": 0}
        hop.take(1, hop.users_idx[:, None], hop.candidates_idx)
        assert calls == {"bfs": 2, "dijkstra": 0}
        # A small network's weighted oracles build their full matrices at
        # their first block read, a large one's only when MTLS asks for them.
        for metric in ("ideal", "sampled"):
            build_distance_oracle(snaps, metric).take(2, 0, slice(None))
        assert calls == {"bfs": 2, "dijkstra": 4}
        monkeypatch.setattr(costmodel, "SMALL_NETWORK_NODES", 0)
        build_distance_oracle(snaps, "hop").matrix(2)
        assert calls == {"bfs": 4, "dijkstra": 4}
        weighted = [build_distance_oracle(snaps, metric) for metric in ("ideal", "sampled")]
        assert calls == {"bfs": 4, "dijkstra": 4}
        for oracle in weighted:
            oracle.build_matrices(2)
        assert calls == {"bfs": 4, "dijkstra": 8}
        # Rows come from one Dijkstra call and never build a full matrix.
        hop = build_distance_oracle(snaps, "hop")
        hop.row(2, hop.users_idx[0])
        hop.row(2, hop.users_idx[-1])
        assert calls == {"bfs": 4, "dijkstra": 9}
        hop.matrix(1)
        assert calls == {"bfs": 6, "dijkstra": 9}


class TestMemoryGuard:
    def test_eager_oracle_fails_before_building(self, monkeypatch):
        monkeypatch.setattr(costmodel, "available_memory_bytes", lambda: 10_000)
        snaps = leo_network().snapshots(3)
        n = snaps[0].n_nodes
        oracle = build_distance_oracle(snaps, "hop")
        with pytest.raises(MemoryError, match=rf"n={n} nodes over 3 slot"):
            oracle.take(2, oracle.users_idx[:, None], oracle.candidates_idx)

    def test_hop_oracle_fails_before_the_bfs_runs(self, monkeypatch):
        def never(*_a, **_k):
            raise AssertionError("the hop BFS ran before the memory check")

        monkeypatch.setattr(costmodel, "_hop_matrix", never)
        monkeypatch.setattr(costmodel, "available_memory_bytes", lambda: 10_000)
        with pytest.raises(MemoryError, match="2 slot"):
            build_distance_oracle(leo_network().snapshots(2), "hop").matrix(1)

    def test_lazy_oracle_serves_rows_but_refuses_full_matrix(self, monkeypatch):
        monkeypatch.setattr(costmodel, "available_memory_bytes", lambda: 10_000)
        snaps = leo_network().snapshots(2)
        small = build_distance_oracle(snaps, "ideal", need_paths=True)
        monkeypatch.setattr(costmodel, "SMALL_NETWORK_NODES", 0)
        lazy = build_distance_oracle(snaps, "ideal", need_paths=True)
        for oracle in (small, lazy):
            a = oracle.index["user/a"]
            assert oracle.row(1, a)[a] == 0.0 and oracle.pred_row(1, a)[a] == -9999
            with pytest.raises(MemoryError, match="1 slot"):
                oracle.predecessors(1)
        with pytest.raises(MemoryError, match="2 slot"):
            small.take(1, a, slice(None))
        with pytest.raises(MemoryError, match="1 slot"):
            lazy.matrix(1)

    def test_predecessors_of_a_full_slot_are_charged_their_stack_only(self, monkeypatch):
        """A slot with its full matrix has every predecessor row, so
        ``predecessors`` allocates only their int32 stack, 4 bytes per pair,
        and runs no Dijkstra to be charged for."""
        monkeypatch.setattr(costmodel, "SMALL_NETWORK_NODES", 0)
        oracle = build_distance_oracle(leo_network().snapshots(1), "ideal", need_paths=True)
        n = oracle.n_nodes
        assert n == 29
        oracle.matrix(1)
        monkeypatch.setattr(costmodel, "available_memory_bytes", lambda: 8 * n * n)
        assert oracle.predecessors(1).shape == (n, n)
        monkeypatch.setattr(costmodel, "available_memory_bytes", lambda: 3 * n * n)
        with pytest.raises(MemoryError, match=rf"n={n} nodes needs about {4 * n * n} bytes"):
            oracle.predecessors(1)

    @pytest.mark.parametrize("small", [True, False])
    def test_full_path_slot_is_charged_its_predecessor_rows(self, small, monkeypatch):
        """With paths, every source's int32 predecessor row stays alive next
        to the full matrix: 4 bytes per pair more than the distances alone."""
        if not small:
            monkeypatch.setattr(costmodel, "SMALL_NETWORK_NODES", 0)
        snaps = leo_network().snapshots(2)
        planning = build_distance_oracle(snaps, "ideal")
        paths = build_distance_oracle(snaps, "ideal", need_paths=True)
        n, item, slots = planning.n_nodes, planning.dtype.itemsize, 2 if small else 1
        # enough for the distances of the slots matrix(1) builds, not for both
        monkeypatch.setattr(costmodel, "available_memory_bytes",
                            lambda: n * n * (slots * item + 8))
        planning.matrix(1)
        with pytest.raises(MemoryError, match=str(n * n * (slots * (item + 4) + 8))):
            paths.matrix(1)

    @pytest.mark.usefixtures("lazy_planning")
    def test_lazy_oracle_fails_before_growing_its_row_store(self, monkeypatch):
        """A row store that would not fit raises the guard's MemoryError,
        naming the rows, before any Dijkstra runs; the rows cached so far
        stay readable."""
        oracle = build_distance_oracle(leo_network().snapshots(1), "ideal")
        n, item, users = oracle.n_nodes, oracle.dtype.itemsize, oracle.users_idx
        assert (n, item, users.size) == (29, 4, 3)
        first = oracle.row(1, users[0]).copy()
        slot = oracle._slots[0]
        assert len(slot.rows) == 3
        gw = oracle.index["gw/b"]
        need = 6 * n * item  # the store doubles from 3 rows to 6
        monkeypatch.setattr(costmodel, "available_memory_bytes", lambda: need - 1)

        def never(*_a, **_k):
            raise AssertionError("Dijkstra ran before the memory check")

        with monkeypatch.context() as m:
            m.setattr(costmodel, "dijkstra", never)
            with pytest.raises(MemoryError,
                               match=rf"6 cached distance rows of n={n} nodes needs about {need}"):
                oracle.row(1, gw)
        assert (len(slot.rows), slot.count, slot.pos[gw]) == (3, 3, -1)
        assert oracle.row(1, users[0]).tobytes() == first.tobytes()
        monkeypatch.setattr(costmodel, "available_memory_bytes", lambda: need)
        assert oracle.row(1, gw)[gw] == 0.0 and len(slot.rows) == 6

    @pytest.mark.usefixtures("lazy_planning")
    def test_lazy_planning_oracle_solves_until_mtls_asks_for_full_matrices(self, monkeypatch):
        monkeypatch.setattr(costmodel, "available_memory_bytes", lambda: 10_000)
        snaps = leo_network().snapshots(3)
        oracle = build_distance_oracle(snaps, "ideal")
        users = [oracle.ids[i] for i in oracle.users_idx]
        demand = DemandMatrix(users, ["c"], np.ones((len(users), 1, 3)))
        params = CostParams.from_oracle(oracle)
        for solve in (solve_naive_greedy, solve_mtols):
            solve(demand, oracle, params)
        assert not any(has_full(oracle, t) for t in (1, 2, 3))

        def never(*_a, **_k):
            raise AssertionError("Dijkstra ran for a full matrix before the memory check")

        monkeypatch.setattr(DistanceOracle, "_solve", never)
        with pytest.raises(MemoryError, match=rf"n={oracle.n_nodes} nodes over 3 slot"):
            solve_mtls(demand, oracle, params)

    def test_estimate_counts_matrices_and_temporary(self, monkeypatch):
        # 48 float32 slots of 1000x1000 plus one float64 Dijkstra output
        need = 1000 * 1000 * (48 * 4 + 8)
        monkeypatch.setattr(costmodel, "available_memory_bytes", lambda: need)
        costmodel.check_fits(1000, 48, 4)
        monkeypatch.setattr(costmodel, "available_memory_bytes", lambda: need - 1)
        with pytest.raises(MemoryError, match=str(need)):
            costmodel.check_fits(1000, 48, 4)

    def test_unknown_memory_skips_the_check(self, monkeypatch):
        monkeypatch.setattr(costmodel, "available_memory_bytes", lambda: None)
        costmodel.check_fits(10**6, 48, 4)


class TestCQMin:
    def test_min_positive_user_candidate_distance(self):
        oracle = chain_oracle()
        assert compute_c_qmin(oracle) == 1.0

    def test_fallback_without_users(self):
        ids = ["sat/s/00/00", "origin/o"]
        kind = np.array([SAT, ORIGIN], dtype=np.int8)
        D = np.array([[0.0, 2.0], [2.0, 0.0]])
        oracle = DistanceOracle.from_matrices([D], ids, kind)
        assert compute_c_qmin(oracle) == 1.0


class TestCostParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostParams("hop", 0.5, 1.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            CostParams("hop", 50.0, 2.0, 1.0, 1.0)  # gamma < beta
        with pytest.raises(ValueError):
            CostParams("hop", 50.0, 1.0, 10.0, 0.0)

    def test_per_shell_gamma(self):
        oracle = chain_oracle()
        params = CostParams("hop", 50.0, 1.0, {0: 10.0}, 1.0)
        rate = params.storage_rate(oracle)
        assert rate[0] == 10.0 and rate[2] == 1.0 and rate[3] == 0.0


def demand_for(oracle, dem):
    users = [oracle.ids[i] for i in oracle.users_idx]
    return DemandMatrix(users, ["c0"], np.asarray(dem, dtype=float)[:, None, :])


class TestQueryCost:
    def test_zero_demand(self):
        oracle = chain_oracle()
        sched = ReplicaSchedule.origin_only(["c0"], 2, oracle.origins_idx)
        assert query_cost(sched, demand_for(oracle, [[0.0, 0.0]]), oracle) == 0.0

    def test_colocated_replica_free(self):
        ids = ["sat/s/00/00", "origin/o", "user/u"]
        kind = np.array([SAT, ORIGIN, USER], dtype=np.int8)
        D = np.array([[0.0, 5.0, 0.0], [5.0, 0.0, 5.0], [0.0, 5.0, 0.0]])
        oracle = DistanceOracle.from_matrices([D], ids, kind)
        sched = ReplicaSchedule(["c0"], 1, {"c0": [(0, 1)]})
        assert query_cost(sched, demand_for(oracle, [[99.0]]), oracle) == 0.0

    def test_hand_instance_triple_sum(self):
        oracle = chain_oracle()
        dem = [[2.0, 3.0]]
        sched = ReplicaSchedule(["c0"], 2, {"c0": [(3,), (0, 3)]})
        # slot 1: 2 * d(u, o) = 2*4; slot 2: 3 * min(d(u,s0), d(u,o)) = 3*1
        assert query_cost(sched, demand_for(oracle, dem), oracle) == pytest.approx(11.0)

    def test_two_user_two_slot_hand_instance(self):
        ids = ["sat/s/00/00", "origin/o", "user/a", "user/b"]
        kind = np.array([SAT, ORIGIN, USER, USER], dtype=np.int8)
        D1 = np.array([[0., 2., 1., 5.], [2., 0., 3., 4.], [1., 3., 0., 9.], [5., 4., 9., 0.]])
        D2 = np.array([[0., 2., 6., 1.], [2., 0., 3., 4.], [6., 3., 0., 9.], [1., 4., 9., 0.]])
        oracle = DistanceOracle.from_matrices([D1, D2], ids, kind)
        demand = DemandMatrix(["user/a", "user/b"], ["c0"],
                              np.array([[[2.0, 1.0]], [[3.0, 4.0]]]))
        sched = ReplicaSchedule(["c0"], 2, {"c0": [(0, 1), (0, 1)]})
        # slot1: a: 2*min(1,3)=2, b: 3*min(5,4)=12; slot2: a: 1*min(6,3)=3, b: 4*min(1,4)=4
        assert query_cost(sched, demand, oracle) == pytest.approx(2 + 12 + 3 + 4)

    def test_disconnection_is_inf_and_flagged(self):
        ids = ["sat/s/00/00", "origin/o", "user/u"]
        kind = np.array([SAT, ORIGIN, USER], dtype=np.int8)
        D = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, np.inf], [np.inf, np.inf, 0.0]])
        oracle = DistanceOracle.from_matrices([D], ids, kind)
        sched = ReplicaSchedule.origin_only(["c0"], 1, oracle.origins_idx)
        demand = demand_for(oracle, [[1.0]])
        assert query_cost(sched, demand, oracle) == np.inf
        assert disconnected_users(sched, demand, oracle) == [("c0", 1, "user/u")]


class TestReplicationCost:
    def test_constant_schedule_zero(self):
        oracle = chain_oracle()
        # constant == equal to the slot-0 origin set: no replica ever moves
        sched = ReplicaSchedule.origin_only(["c0"], 2, oracle.origins_idx)
        assert replication_cost(sched, oracle, 50.0) == 0.0

    def test_constant_tail_contributes_nothing(self):
        # a constant replica set pays its first-slot deployment and then 0
        oracle = chain_oracle()
        one = ReplicaSchedule(["c0"], 1, {"c0": [(0, 3)]})
        two = ReplicaSchedule(["c0"], 2, {"c0": [(0, 3), (0, 3)]})
        assert replication_cost(two, oracle, 50.0) == \
            pytest.approx(replication_cost(one, oracle, 50.0))

    def test_single_add_alpha_scaled(self):
        oracle = chain_oracle()
        sched = ReplicaSchedule(["c0"], 2, {"c0": [(3,), (1, 3)]})
        # new replica sat1 at distance 2 from origin, alpha=50
        assert replication_cost(sched, oracle, 50.0) == pytest.approx(100.0)

    def test_three_slot_matches_min_matching_oracle(self):
        oracle, demand, catalog, params = motion_instance(11, 2, 4, 3)
        rng = np.random.default_rng(1)
        origins = [int(i) for i in oracle.origins_idx]
        sets = []
        for _ in range(3):
            extra = rng.choice(oracle.candidates_idx, size=2, replace=False)
            sets.append(tuple(sorted(set(origins) | set(int(x) for x in extra))))
        sched = ReplicaSchedule(["c0"], 3, {"c0": sets})
        got = replication_cost(sched, oracle, params.alpha)
        ref, prev = 0.0, origins
        for t in (1, 2, 3):
            D = oracle.matrix(t)
            for v in sets[t - 1]:
                ref += params.alpha * min(float(D[v, o]) for o in prev)
            prev = sets[t - 1]
        assert got == pytest.approx(ref, rel=1e-12)


class TestStorageCost:
    def test_origin_only_free(self):
        oracle = chain_oracle()
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        sched = ReplicaSchedule.origin_only(["c0"], 2, oracle.origins_idx)
        assert storage_cost(sched, ContentCatalog.uniform(["c0"]), params, oracle) == 0.0

    def test_satellite_rate(self):
        oracle = chain_oracle()
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        sched = ReplicaSchedule(["c0"], 2, {"c0": [(0, 3), (3,)]})
        cat = ContentCatalog.uniform(["c0"], 1.0)
        assert storage_cost(sched, cat, params, oracle) == pytest.approx(10.0)

    def test_mixed_itemized(self):
        oracle = chain_oracle()
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        sched = ReplicaSchedule(["c0"], 2, {"c0": [(0, 2, 3), (2, 3)]})
        cat = ContentCatalog(["c0"], np.array([2.0]))
        # slot1: sat 10 + gateway 1, slot2: gateway 1; times size 2
        assert storage_cost(sched, cat, params, oracle) == pytest.approx(2.0 * 12.0)


class TestTotalCost:
    def test_all_zero(self):
        oracle = chain_oracle()
        params = CostParams("hop", 50.0, 1.0, 10.0, 1.0)
        sched = ReplicaSchedule.origin_only(["c0"], 2, oracle.origins_idx)
        br = total_cost(sched, demand_for(oracle, [[0.0, 0.0]]),
                        ContentCatalog.uniform(["c0"]), oracle, params)
        assert (br.query, br.replication, br.storage, br.total) == (0, 0, 0, 0)

    def test_matches_independent_reimplementation(self):
        oracle, demand, catalog, params = motion_instance(21, 3, 5, 4)
        rng = np.random.default_rng(2)
        origins = [int(i) for i in oracle.origins_idx]
        sets = []
        for _ in range(4):
            extra = rng.choice(oracle.candidates_idx, size=rng.integers(0, 3), replace=False)
            sets.append(tuple(sorted(set(origins) | set(int(x) for x in extra))))
        sched = ReplicaSchedule(["c0"], 4, {"c0": sets})
        got = total_cost(sched, demand, catalog, oracle, params).total
        ref = schedule_cost_ref(oracle, demand, catalog, params, {"c0": sets})
        assert got == pytest.approx(ref, rel=1e-9)

    def test_breakdown_additivity(self):
        oracle, demand, catalog, params = motion_instance(31, 3, 5, 4)
        sched = ReplicaSchedule.origin_only(["c0"], 4, oracle.origins_idx)
        br = total_cost(sched, demand, catalog, oracle, params)
        assert br.total == br.query + br.replication + br.storage

    def test_query_monotone_in_replicas(self):
        oracle, demand, catalog, params = motion_instance(41, 4, 6, 3)
        origins = tuple(int(i) for i in oracle.origins_idx)
        base = ReplicaSchedule.origin_only(["c0"], 3, origins)
        q0 = query_cost(base, demand, oracle)
        for cand in oracle.candidates_idx:
            sets = [tuple(sorted(origins + (int(cand),)))] * 3
            q1 = query_cost(ReplicaSchedule(["c0"], 3, {"c0": sets}), demand, oracle)
            assert q1 <= q0 + 1e-12

    def test_demand_scaling_linearity(self):
        oracle, demand, catalog, params = motion_instance(51, 3, 5, 3)
        sched = ReplicaSchedule.origin_only(["c0"], 3, oracle.origins_idx)
        lam = 3.75
        scaled = DemandMatrix(list(demand.users), list(demand.contents),
                              lam * demand.values)
        assert query_cost(sched, scaled, oracle) == pytest.approx(
            lam * query_cost(sched, demand, oracle), rel=1e-9)
        assert replication_cost(sched, oracle, params.alpha) == \
            replication_cost(sched, oracle, params.alpha)

    def test_metric_switch_preserves_structure(self):
        shell = starlink_phase1(orbit_count=3, sats_per_orbit=4, name="s")
        ground = [GroundNode("user/a", "user_region", 30.0, -100.0),
                  GroundNode("gw/b", "gateway", 45.0, -80.0),
                  GroundNode("origin/o", "origin", 40.0, -90.0)]
        net = Network([shell], ground, seed=1)
        snaps = net.snapshots(2)
        oracles = {m: build_distance_oracle(snaps, m) for m in ("hop", "ideal", "sampled")}
        cands = {m: o.candidates_idx.tolist() for m, o in oracles.items()}
        assert cands["hop"] == cands["ideal"] == cands["sampled"]
        sched = ReplicaSchedule(["c0"], 2, {"c0": [tuple(sorted(
            list(oracles["hop"].origins_idx) + cands["hop"][:2]))] * 2})
        for o in oracles.values():
            sched.validate(o)


class TestReplicaSchedule:
    def test_validation_catches_missing_origin(self):
        oracle = chain_oracle()
        sched = ReplicaSchedule(["c0"], 2, {"c0": [(0,), (0, 3)]})
        with pytest.raises(ValueError, match="origins missing"):
            sched.validate(oracle)

    def test_validation_catches_non_candidate(self):
        oracle = chain_oracle()
        sched = ReplicaSchedule(["c0"], 2, {"c0": [(3, 4), (3,)]})  # node 4 is a user
        with pytest.raises(ValueError, match="non-candidate"):
            sched.validate(oracle)

    def test_mean_replica_count(self):
        oracle = chain_oracle()
        sched = ReplicaSchedule(["c0"], 2, {"c0": [(0, 3), (0, 1, 3)]})
        assert sched.mean_replica_count(oracle) == pytest.approx(1.5)

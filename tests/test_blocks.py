"""The per-slot blocks the placement solvers read, and the helpers that read
them in place.

Solvers index the oracle by node. A slot's block holds the distances among
the node prefix that contains every origin and candidate, and is a raw,
read-only view of the oracle matrix, +inf included, when the slot has its full
matrix in a dtype no wider than the DP's (uint8 hop counts, float32, float64
under a float64 DP). Otherwise (float64 under a float32 DP, or no full
matrix) the solvers read the oracle through a wrapper that casts each read
to the DP dtype. Readers clip distances to ``BIG`` where arithmetic follows.
All must drive every solver to the same result as ``BIG``-filled float
blocks, whatever nodes of the prefix are not candidates, and no solver may
write to the oracle.
"""

import numpy as np
import pytest

from helpers import GATEWAY, has_full, motion_instance
from satcdn import costmodel
from satcdn.costmodel import CostParams, DistanceOracle, build_distance_oracle, total_cost
from satcdn.demand import ContentCatalog, DemandMatrix
from satcdn.placement import SOLVERS, OptimizerConfig, local_search
from satcdn.placement.baselines import _opening_costs
from satcdn.placement.core import (BIG, ContentProblem, _ConvertingReads, _min_over_adds,
                                   _two_smallest)


def rebuild(oracle, mats, dtype=np.float64, keep=None):
    """An oracle over the ``keep`` nodes (all by default, in that order) of
    ``oracle`` with the given per-slot matrices stored in ``dtype``, the
    oracle's dtype; when None, each matrix keeps its own and the oracle takes
    ``oracle``'s."""
    keep = np.arange(oracle.n_nodes) if keep is None else np.asarray(keep)
    return DistanceOracle([np.asarray(m[np.ix_(keep, keep)], dtype=dtype) for m in mats],
                          [oracle.ids[i] for i in keep], oracle.kind[keep],
                          shell=oracle.shell[keep], orbit=oracle.orbit[keep],
                          in_orbit=oracle.in_orbit[keep], metric=oracle.metric,
                          slot_seconds=oracle.slot_seconds,
                          dtype=oracle.dtype if dtype is None else dtype)


@pytest.fixture(scope="module")
def instance():
    """Distances on a 1/8 grid, so that float32 stores them exactly."""
    oracle, demand, catalog, params = motion_instance(31, 6, 40, 5, n_gateways=3, orbit_rows=5)
    mats = [np.round(oracle.matrix(t) * 8) / 8 for t in range(1, oracle.slot_count + 1)]
    return oracle, mats, demand, catalog, params


def outcome(solver, oracle, demand, catalog, params, config=OptimizerConfig(max_iterations=6)):
    """Everything a solve reports, with replica sets as node ids."""
    res = SOLVERS[solver](demand, oracle, params, config, catalog=catalog)
    st = res.stats
    sets = {c: [tuple(oracle.ids[i] for i in s) for s in v] for c, v in res.schedule.sets.items()}
    return sets, st.iterations, st.relaxations, st.orbit_relaxations, st.history, st.orbit_sequence


def block_kinds(oracle, demand, params):
    """How slot 1's block and user block are read: "view" (in place),
    "reads" (through the oracle matrix, converting each read) or "copy"."""
    users = np.array([oracle.index[u] for u in demand.users])
    prob = ContentProblem(oracle, users, demand.values[:, 0, :], 1.0, params)
    D = oracle.matrix(1)

    def kind(b):
        if not isinstance(b, np.ndarray):
            return "reads"
        return "view" if np.shares_memory(b, D) else "copy"

    return kind(prob.block(1)), kind(prob.user_block(1))


def sanitized(block, dtype):
    """A copy of ``block`` in ``dtype`` with every +inf replaced by ``BIG``."""
    out = np.array(block, dtype=dtype)
    out[~np.isfinite(out)] = BIG
    return out


@pytest.mark.parametrize("solver", list(SOLVERS))
class TestViewEqualsCopy:
    def test_dtype_mismatch(self, instance, solver):
        """float32 storage under the float64 DP is read raw too."""
        oracle, mats, demand, catalog, params = instance
        wide, narrow = rebuild(oracle, mats), rebuild(oracle, mats, np.float32)
        assert block_kinds(wide, demand, params) == ("view", "view")
        assert block_kinds(narrow, demand, params) == ("view", "view")
        assert outcome(solver, wide, demand, catalog, params) == \
            outcome(solver, narrow, demand, catalog, params)

    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    def test_inf_in_block(self, instance, solver, storage):
        """+inf read raw, from float64 or float32 storage under the float64
        DP, solves as ``BIG`` stored in float64 does: the DP clips to ``BIG``
        in its own dtype (float32 cannot hold 1e12). The cut user has no
        demand, so its +inf user-block entries meet zero weights."""
        oracle, mats, demand, catalog, params = instance
        values = demand.values.copy()
        values[2] = 0.0
        demand = DemandMatrix(demand.users, demand.contents, values)
        # a satellite candidate and a user cut off from every other node
        cut_off = (7, oracle.index[demand.users[2]])
        far, cut = [], []
        for m in mats:
            for fill, out in ((BIG, far), (np.inf, cut)):
                m2 = m.copy()
                for x in cut_off:
                    m2[x, :] = m2[:, x] = fill
                    m2[x, x] = 0.0
                out.append(m2)
        filled, raw = rebuild(oracle, far), rebuild(oracle, cut, storage)
        assert block_kinds(filled, demand, params) == ("view", "view")
        assert block_kinds(raw, demand, params) == ("view", "view")
        assert outcome(solver, filled, demand, catalog, params) == \
            outcome(solver, raw, demand, catalog, params)

    @pytest.mark.parametrize("storage", [np.float64, np.float32])
    @pytest.mark.parametrize("split", ["candidates", "users"])
    def test_partitioned_raw_reads_solve_as_sanitized_copies(self, instance, solver, split,
                                                            storage, monkeypatch):
        """A network split in two: the origin's side, and 2 users with demand
        together with (``candidates``) the 5 candidates nearest each at slot
        1, satellites and a gateway, which store at different rates, or
        alone. Sums over users or distances meet +inf. Raw reads, clipped
        where arithmetic follows, give every solver what sanitized DP-dtype
        copies of its blocks give (+inf as ``BIG``, the read path the clips
        replace), costs included. One StarFront threshold, 3, lets the first
        split user choose among satellites and a gateway."""
        oracle, mats, demand, catalog, params = instance
        side = oracle.users_idx[:2]
        if split == "candidates":
            near = np.argsort(mats[0][np.ix_(side, oracle.candidates_idx)], axis=1)[:, :5]
            side = np.union1d(oracle.candidates_idx[near], side)
            assert (oracle.kind[side] == GATEWAY).any()
        other = np.setdiff1d(np.arange(oracle.n_nodes), side)
        cut = []
        for m in mats:
            m2 = m.copy()
            m2[np.ix_(side, other)] = m2[np.ix_(other, side)] = np.inf
            cut.append(m2)
        raw = rebuild(oracle, cut, storage)
        assert block_kinds(raw, demand, params) == ("view", "view")
        config = OptimizerConfig(max_iterations=6, starfront_thresholds=(3.0,))
        got = outcome(solver, raw, demand, catalog, params, config)
        for name in ("block", "user_block"):
            read = getattr(ContentProblem, name)
            monkeypatch.setattr(ContentProblem, name, lambda self, t, read=read: sanitized(
                read(self, t)[:, :], self.dp_dtype))
        assert got == outcome(solver, raw, demand, catalog, params, config)

    def test_non_contiguous_candidates(self, instance, solver):
        oracle = instance[0]
        assert_restricted_equals_compact(instance, solver, oracle.candidates_idx[::2])

    def test_candidates_in_a_shifted_run(self, instance, solver):
        """Gateways plus origins: one run of nodes that does not start at 0."""
        oracle = instance[0]
        assert_restricted_equals_compact(instance, solver, np.flatnonzero(oracle.kind == GATEWAY))


def assert_restricted_equals_compact(instance, solver, kept):
    """Restricting the candidates to ``kept`` solves as an oracle over just the
    kept candidates, the origins and the users does, though every block of the
    restricted oracle also spans the other nodes below its last candidate."""
    oracle, mats, demand, catalog, params = instance
    full = rebuild(oracle, mats)
    restricted = full.with_candidates(kept)
    compact = rebuild(oracle, mats, keep=np.concatenate([kept, full.origins_idx, full.users_idx]))
    assert block_kinds(restricted, demand, params) == ("view", "view")
    assert block_kinds(compact, demand, params) == ("view", "view")
    assert outcome(solver, compact, demand, catalog, params) == \
        outcome(solver, restricted, demand, catalog, params)


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_solvers_reject_oracles_without_origins_or_with_origin_candidates(instance, solver):
    oracle, mats, demand, catalog, params = instance
    full = rebuild(oracle, mats)
    no_origin = rebuild(oracle, mats, keep=np.setdiff1d(np.arange(full.n_nodes), full.origins_idx))
    with pytest.raises(ValueError, match="at least one origin"):
        SOLVERS[solver](demand, no_origin, params, OptimizerConfig(max_iterations=2),
                        catalog=catalog)
    origin_candidate = full.with_candidates(np.append(full.candidates_idx, full.origins_idx))
    with pytest.raises(ValueError, match="cannot also be replica candidates"):
        SOLVERS[solver](demand, origin_candidate, params, OptimizerConfig(max_iterations=2),
                        catalog=catalog)


@pytest.mark.parametrize("metric", ["hop", "ideal", "sampled"])
@pytest.mark.parametrize("solver", ["mtols", "local_search", "naive_greedy"])
def test_a_solver_reading_first_reads_blocks_in_place(metric, solver, monkeypatch):
    """A hop or small-network oracle builds its full matrices at its first
    block read, so a solver that reads it before anything else still reads
    every block as a view of the oracle matrix."""
    from satcdn.constellation import GroundNode, Network, starlink_phase1
    ground = [GroundNode("gw/g", "gateway", 45.0, -80.0),
              GroundNode("origin/o", "origin", 40.0, -90.0),
              GroundNode("user/a", "user_region", 35.0, -100.0),
              GroundNode("user/b", "user_region", 30.0, -85.0)]
    net = Network([starlink_phase1(orbit_count=6, sats_per_orbit=8, name="s")], ground, seed=4)
    oracle = build_distance_oracle(net.snapshots(3), metric)
    demand = DemandMatrix(["user/a", "user/b"], ["c"], np.ones((2, 1, 3)))
    params = CostParams(metric, alpha=5.0, beta=1.0, gamma=4.0, c_qmin=1.0)
    blocks = []
    block = ContentProblem.block
    monkeypatch.setattr(ContentProblem, "block",
                        lambda self, t: blocks.append((t, block(self, t))) or blocks[-1][1])
    SOLVERS[solver](demand, oracle, params, OptimizerConfig(max_iterations=2))
    assert blocks and all(isinstance(B, np.ndarray) and np.shares_memory(B, oracle.matrix(t))
                          for t, B in blocks)
    # user/a sees no satellite at slot 2: that hop slot stays float, with +inf
    # outside the block; the connected slots hold uint8 counts.
    stored = [oracle.matrix(t).dtype for t in (1, 2, 3)]
    assert stored == ([np.uint8, np.float64, np.uint8] if metric == "hop" else [np.float64] * 3)
    assert {B.dtype for _t, B in blocks} == set(stored)


@pytest.mark.parametrize("layout", ["view", "inf", "not_one_run"])
def test_solvers_leave_oracle_matrices_unchanged(instance, layout):
    oracle, mats, demand, catalog, params = instance
    if layout == "inf":
        mats = [m.copy() for m in mats]
        for m in mats:
            m[3, 11] = m[11, 3] = np.inf
    oracle = rebuild(oracle, mats)
    if layout == "not_one_run":
        oracle = oracle.with_candidates(oracle.candidates_idx[::2])
    before = [oracle.matrix(t).tobytes() for t in range(1, oracle.slot_count + 1)]
    for solve in SOLVERS.values():
        solve(demand, oracle, params, OptimizerConfig(max_iterations=3), catalog=catalog)
    assert [oracle.matrix(t).tobytes() for t in range(1, oracle.slot_count + 1)] == before


@pytest.mark.parametrize("m", [9, 12])
def test_converting_reads_match_reads_of_the_cast_block(m):
    """Every read form the solvers use returns what the same read of the
    block of the first ``m`` nodes, a prefix or the whole, cast to the DP
    dtype gives, +inf kept."""
    rng = np.random.default_rng(4)
    D = rng.random((12, 12))
    D[rng.random(D.shape) < 0.2] = np.inf
    oracle = DistanceOracle.from_matrices([D], [f"n{i}" for i in range(12)], np.zeros(12))
    reads = _ConvertingReads(oracle, 1, m, np.float32)
    block = D[:m, :m].astype(np.float32)
    a, b = np.array([4, 0, 2]), np.array([[1], [3]])
    for idx in [(slice(None), a), (a, slice(1, 4)), (slice(None), slice(None)),
                (a[:, None], a), (b, a), (2, slice(None)), (slice(None), 3), (a, 1),
                (np.int64(2), a), (b, slice(None))]:
        got = reads[idx]
        assert got.dtype == np.float32 and got.shape == block[idx].shape
        assert np.array_equal(got, block[idx])


@pytest.mark.parametrize("storage", [np.float32, np.float64])
def test_opening_costs_of_raw_blocks_match_sanitized_copies(instance, storage):
    """Opening costs scale each candidate's distance to the previous set, so
    they clip it to ``BIG`` in the DP dtype, float64 here, first: clipped in
    float32 storage's dtype it would read 999,999,995,904."""
    oracle, mats, demand, _catalog, params = instance
    cut = [m.copy() for m in mats]
    for m in cut:
        m[7, :] = m[:, 7] = np.inf
        m[7, 7] = 0.0
    prob = ContentProblem(rebuild(oracle, cut, storage), oracle.users_idx,
                          demand.values[:, 0, :], 1.0, params)
    assert prob.dp_dtype == np.float64
    prev = tuple(sorted(prob.s0 + (3, 12)))
    for t in range(1, prob.T + 1):
        B = prob.block(t)
        got = _opening_costs(prob, B, prev)
        assert np.array_equal(got, _opening_costs(prob, sanitized(B, prob.dp_dtype), prev))
        assert got[7] == params.gamma * params.c_qmin + prob.alpha * BIG


@pytest.mark.parametrize("one_run", [True, False])
@pytest.mark.parametrize("n_cands", [30, 780])  # DP in float64, float32
def test_query_costs_with_targets_keep_their_sum_order(n_cands, one_run):
    """On float distances and weights, the query costs with one target added
    equal, bit for bit, the block expressions they stand for: pairwise column
    sums of an index-array gather (the DP pass's additions, any number of
    targets, one included) and, for the orbit DP's marginal costs, sums over
    the candidate columns, row by row when they are one run."""
    oracle, demand, _catalog, params = motion_instance(8, 60, n_cands, 3, n_gateways=2,
                                                       orbit_rows=5)
    if not one_run:  # an origin between the satellites and the gateways
        order = np.arange(oracle.n_nodes)
        order = np.concatenate([order[:n_cands], oracle.origins_idx,
                                np.setdiff1d(order[n_cands:], oracle.origins_idx)])
        oracle = rebuild(oracle, [oracle.matrix(t) for t in range(1, 4)], keep=order)
    users = np.array([oracle.index[u] for u in demand.users])
    prob = ContentProblem(oracle, users, demand.values[:, 0, :], 1.0, params)
    assert prob.dp_dtype == (np.float64 if n_cands < 768 else np.float32)
    assert isinstance(prob._cand_cols, slice) == one_run
    rng = np.random.default_rng(3)
    for t in range(1, prob.T + 1):
        base = tuple(sorted(prob.s0 + tuple(rng.choice(prob.cand_pos, 2, replace=False).tolist())))
        du, wz = np.array(prob.user_block(t)), prob.weights(t)
        u1 = du[:, np.asarray(base)].min(axis=1)
        assert prob.base_costs(t, base)[0] == float((wz * u1).sum())
        free = np.setdiff1d(prob.cand_pos, base)
        for k in (1, 1, 2, 7, free.size):
            W = np.sort(rng.choice(free, k, replace=False))
            ref = (wz[:, None] * np.minimum(u1[:, None], du[:, W])).sum(axis=0)
            got = prob.query_costs_with(t, base, W)
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        cols = slice(int(prob.cand_pos[0]), int(prob.cand_pos[-1]) + 1) if one_run \
            else prob.cand_pos
        ref = (wz[:, None] * np.minimum(u1[:, None], du[:, cols])).sum(axis=0)
        assert np.array_equal(prob.query_costs_with(t, base, prob._cand_cols), ref)


def two_smallest_reference(mat, members, rows):
    """The same three arrays from a per-row partition of the gathered block."""
    sub = mat[rows][:, members]
    if members.size == 1:
        return (sub[:, 0], np.full(sub.shape[0], BIG, dtype=mat.dtype),
                np.full(sub.shape[0], members[0]))
    part = np.partition(sub, 1, axis=1)
    return part[:, 0], part[:, 1], members[np.argmin(sub, axis=1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("rows", ["all", "some"])
def test_two_smallest_matches_partition(dtype, k, rows):
    rng = np.random.default_rng([k, np.dtype(dtype).itemsize])
    mat = rng.integers(0, 4, size=(30, 30)).astype(dtype)  # many ties
    mat[rng.random(mat.shape) < 0.2] = BIG
    members = np.sort(rng.choice(30, size=k, replace=False))
    idx = slice(None) if rows == "all" else np.sort(rng.choice(30, size=12, replace=False))
    ref = two_smallest_reference(mat, members, idx)
    got = _two_smallest(mat, members, idx)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    near, none1, none2 = _two_smallest(mat, members, idx, second=False)
    assert np.array_equal(near, ref[0]) and none1 is None and none2 is None


@pytest.mark.parametrize("counts", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_min_over_adds_gather_and_chunks_match_restatement(dtype, counts):
    """Also over a block of uint8 counts, whose entries are read into the
    ``dtype`` buffers."""
    rng = np.random.default_rng(5)
    B = rng.integers(0, 6, size=(60, 60)).astype(dtype)
    W = np.sort(rng.choice(np.arange(5, 55), size=30, replace=False))
    pa = np.sort(rng.choice(np.arange(2, 58), size=25, replace=False))
    w1 = (rng.integers(0, 12, size=W.size) / 2).astype(dtype)
    g_adds = rng.integers(0, 3, size=pa.size) * 0.5 + 100.0  # ties across columns
    M = g_adds[None, :] + 2.5 * np.minimum(w1[:, None], B[np.ix_(W, pa)])
    j_ref = M.argmin(axis=1)
    ref = (M[np.arange(W.size), j_ref], j_ref)
    # Gathered; one row per chunk (buffers hold at least a row of B); a few rows.
    for size in (W.size * pa.size, B.shape[1], 200):
        buf, buf64 = np.empty(size, dtype=dtype), np.empty(size)
        vals, j = _min_over_adds(B.astype(np.uint8) if counts else B, W, pa, w1, g_adds, 2.5,
                                 buf, buf64)
        assert vals.dtype == ref[0].dtype
        assert np.array_equal(vals, ref[0]) and np.array_equal(j, ref[1])


def network_instance():
    """Snapshots of a LEO shell with inter-satellite links plus a MEO ring,
    over spread-out gateways and users, with two contents of random demand."""
    from satcdn.constellation import GroundNode, Network, o3b, starlink_phase1
    rng = np.random.default_rng(12)
    ground = [GroundNode(f"gw/g{i}", "gateway", lat, lon)
              for i, (lat, lon) in enumerate([(45.0, -80.0), (0.0, 10.0), (30.0, 120.0)])]
    ground.append(GroundNode("origin/o", "origin", 40.0, -90.0))
    ground += [GroundNode(f"user/u{i}", "user_region", float(lat), float(lon))
               for i, (lat, lon) in enumerate(zip(rng.uniform(-50, 50, 9),
                                                  rng.uniform(-180, 180, 9)))]
    net = Network([starlink_phase1(orbit_count=6, sats_per_orbit=8, name="s",
                                   min_elevation_deg=5.0), o3b(sats_per_orbit=6)],
                  ground, seed=4)
    T = 4
    users = [g.node_id for g in ground if g.kind == "user_region"]
    demand = DemandMatrix(users, ["a", "b"], rng.uniform(0.0, 3.0, size=(len(users), 2, T))
                          * (rng.random((len(users), 2, T)) < 0.7))
    return net.snapshots(T), demand, ContentCatalog(["a", "b"], [1.0, 2.5])


@pytest.fixture(scope="module")
def network():
    return network_instance()


def planning_oracle(snaps, metric, dtype, restrict, full):
    """A weighted planning oracle computing rows on demand, or (``full``)
    holding every slot's full matrix, with restricted candidates."""
    oracle = build_distance_oracle(snaps, metric, dtype=dtype)
    if full:
        oracle.build_matrices(oracle.slot_count)
    if restrict == "gateways":
        return oracle.restrict_kinds([GATEWAY])
    if restrict == "every_other":
        return oracle.with_candidates(oracle.candidates_idx[::2])
    return oracle


@pytest.mark.parametrize("restrict", ["none", "gateways", "every_other"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("metric", ["ideal", "sampled"])
def test_solvers_match_on_lazy_and_eager_oracles(network, metric, dtype, restrict, monkeypatch):
    """Schedules, counts, histories, DP objectives, c_qmin and costs agree bit
    for bit whether the solvers and the cost model read cached rows or full
    matrices. Each solve gets a fresh oracle, so MTLS too starts from rows;
    the test network is small, so its oracles are made to compute rows on
    demand as a large network's do."""
    monkeypatch.setattr(costmodel, "SMALL_NETWORK_NODES", 0)
    snaps, demand, catalog = network
    objectives = []
    dp = local_search.dp_pass

    def record(*args, **kwargs):
        sets, f = dp(*args, **kwargs)
        objectives.append(f)
        return sets, f

    monkeypatch.setattr(local_search, "dp_pass", record)
    got = {}
    for full in (False, True):
        runs = []
        for solver in SOLVERS:
            oracle = planning_oracle(snaps, metric, dtype, restrict, full)
            params = CostParams.from_oracle(oracle, alpha=5.0, beta=1.0, gamma=4.0)
            objectives.clear()
            res = SOLVERS[solver](demand, oracle, params, OptimizerConfig(max_iterations=4),
                                  catalog=catalog)
            st = res.stats
            cost = total_cost(res.schedule, demand, catalog, oracle, params)
            runs.append((solver, params.c_qmin, res.schedule.sets, st.iterations,
                         st.relaxations, st.orbit_relaxations, st.history, st.orbit_sequence,
                         st.warnings, list(objectives), cost))
            assert all(has_full(oracle, t) == (full or solver == "mtls") for t in range(1, 5))
        got[full] = runs
    assert got[False] == got[True]


def wide_hop_instance():
    """Hop snapshots of a 36x22 LEO shell over US gateways, an origin and
    users: 804 nodes, so the DP runs in float32, and every pair is connected
    within 26 hops on each of 3 slots. Two contents of random demand."""
    from satcdn.constellation import GroundNode, Network, starlink_phase1
    rng = np.random.default_rng(12)
    ground = [GroundNode(f"gw/g{i}", "gateway", lat, lon)
              for i, (lat, lon) in enumerate([(45.0, -80.0), (35.0, -100.0), (40.0, -120.0)])]
    ground.append(GroundNode("origin/o", "origin", 40.0, -90.0))
    ground += [GroundNode(f"user/u{i}", "user_region", float(lat), float(lon))
               for i, (lat, lon) in enumerate(zip(rng.uniform(28, 46, 8),
                                                  rng.uniform(-120, -75, 8)))]
    net = Network([starlink_phase1(orbit_count=36, sats_per_orbit=22, name="s")], ground,
                  seed=4)
    T = 3
    users = [g.node_id for g in ground if g.kind == "user_region"]
    demand = DemandMatrix(users, ["a", "b"], rng.uniform(20.0, 80.0, size=(len(users), 2, T)))
    return net.snapshots(T), demand, ContentCatalog(["a", "b"], [1.0, 2.5])


@pytest.fixture(scope="module")
def wide_hop():
    snaps, demand, catalog = wide_hop_instance()
    oracle = build_distance_oracle(snaps, "hop")
    levels = [oracle.matrix(t) for t in range(1, oracle.slot_count + 1)]
    assert all(D.dtype == np.uint8 for D in levels)
    return oracle, levels, demand, catalog


def full_outcome(solver, oracle, demand, catalog):
    """``outcome`` plus c_qmin and the schedule's total cost."""
    params = CostParams.from_oracle(oracle, alpha=4.7, beta=1.0, gamma=2.0)
    res = SOLVERS[solver](demand, oracle, params, OptimizerConfig(max_iterations=3),
                          catalog=catalog)
    st = res.stats
    return (params.c_qmin, res.schedule.sets, st.iterations, st.relaxations,
            st.orbit_relaxations, st.history, st.orbit_sequence, st.warnings,
            total_cost(res.schedule, demand, catalog, oracle, params))


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The (targets x previous additions) sizes of every ``_min_over_adds``
    call, next to its buffer size."""
    from satcdn.placement import core
    sizes, run = [], core._min_over_adds

    def spy(B, W, pa, *args):
        sizes.append((W.size * pa.size, args[-2].size))
        return run(B, W, pa, *args)

    monkeypatch.setattr(core, "_min_over_adds", spy)
    return sizes


def hop_mats(oracle, levels, mixed):
    """The hop levels, with (``mixed``) a candidate and a user cut off from
    every other node at slot 2, which then stays float32 with +inf between
    two uint8 slots."""
    mats = list(levels)
    if mixed:
        mats[1] = mats[1].astype(np.float32)
        for x in (5, oracle.index["user/u3"]):
            mats[1][x, :] = mats[1][:, x] = np.inf
            mats[1][x, x] = 0.0
    return mats


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_uint8_hop_counts_solve_as_float32_does(wide_hop, solver, mixed, chunk_sizes):
    """The same hop distances stored as uint8 counts and as float32 give
    every solver the same schedules, counts, costs and warnings bit for bit.
    Blocks and user blocks of both are read raw, by MTLS in row chunks too;
    a ``mixed`` oracle's float32 slot 2 holds +inf."""
    oracle, levels, demand, catalog = wide_hop
    mats = hop_mats(oracle, levels, mixed)
    counts = rebuild(oracle, mats, dtype=None)
    floats = rebuild(oracle, [D.astype(np.float32) for D in mats], dtype=None)
    assert counts.dtype == floats.dtype == np.float32
    params = CostParams("hop", 4.7, 1.0, 2.0, 1.0)
    assert ContentProblem(counts, counts.users_idx, demand.values[:, 0, :], 1.0,
                          params).dp_dtype == np.float32
    assert block_kinds(counts, demand, params) == ("view", "view")
    assert block_kinds(floats, demand, params) == ("view", "view")
    assert [counts.matrix(t).dtype for t in (1, 2, 3)] == \
        [np.uint8, np.float32 if mixed else np.uint8, np.uint8]
    assert full_outcome(solver, counts, demand, catalog) == \
        full_outcome(solver, floats, demand, catalog)
    if solver == "mtls":
        assert any(pairs > buf for pairs, buf in chunk_sizes)


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_wider_storage_solves_through_converting_reads(wide_hop, solver, mixed):
    """float64 storage under the float32 DP is not read raw, as NumPy would
    promote its reads: blocks go through ``_ConvertingReads`` and user blocks
    are float32 copies, which solve as float32 storage does."""
    oracle, levels, demand, catalog = wide_hop
    mats = [D.astype(np.float32) for D in hop_mats(oracle, levels, mixed)]
    narrow = rebuild(oracle, mats, np.float32)
    wide = rebuild(oracle, mats, np.float64)
    params = CostParams("hop", 4.7, 1.0, 2.0, 1.0)
    assert block_kinds(wide, demand, params) == ("reads", "copy")
    assert block_kinds(narrow, demand, params) == ("view", "view")
    assert full_outcome(solver, wide, demand, catalog) == \
        full_outcome(solver, narrow, demand, catalog)


@pytest.mark.parametrize("dp", [np.float32, np.float64])
@pytest.mark.parametrize("storage", [np.uint8, np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("rows", ["all", "some"])
def test_two_smallest_of_raw_blocks_matches_sanitized_copies(rows, k, storage, dp):
    """Over a raw block, +inf included (uint8 holds counts only), the three
    arrays equal those over its sanitized copy in the DP dtype bit for bit,
    with and without the second-nearest. Entries are halves below 4, exact in
    every dtype, so ties are many."""
    rng = np.random.default_rng([k, np.dtype(storage).itemsize, np.dtype(dp).itemsize])
    raw = rng.integers(0, 8, size=(30, 30)).astype(storage)
    if storage != np.uint8:
        raw /= 2
        raw[rng.random(raw.shape) < 0.25] = np.inf
        raw[3] = np.inf
    members = np.sort(rng.choice(30, size=k, replace=False))
    idx = slice(None) if rows == "all" else np.sort(rng.choice(30, size=12, replace=False))
    clean = sanitized(raw, dp)
    for second in (True, False):
        got = _two_smallest(raw, members, idx, second=second, dtype=dp)
        ref = _two_smallest(clean, members, idx, second=second, dtype=dp)
        for a, b in zip(got, ref):
            if b is None:
                assert a is None
                continue
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got[0].dtype == dp and np.isfinite(got[0]).all()


def test_two_smallest_of_one_member_over_uint8_counts():
    """Over uint8 counts, the nearest entries come back in the dtype asked
    for and the second-nearest of a one-member set is ``BIG``, which uint8
    cannot hold."""
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 40, size=(12, 12)).astype(np.uint8)
    rows = np.array([1, 4, 7])
    for dtype in (np.float32, np.float64):
        for idx in (slice(None), rows):
            d1, d2, a1 = _two_smallest(counts, np.array([5]), idx, dtype=dtype)
            assert d1.dtype == d2.dtype == dtype
            assert np.array_equal(d1, counts[idx, 5].astype(dtype))
            assert (d2 == BIG).all() and (a1 == 5).all()
            near = _two_smallest(counts, np.array([5]), idx, second=False, dtype=dtype)[0]
            assert near.dtype == dtype and np.array_equal(near, d1)

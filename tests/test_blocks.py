"""The per-slot blocks the placement solvers read, and the helpers that read
them in place.

Solvers index the oracle by node. A slot's block holds the distances among
the node prefix that contains every origin and candidate, and is a read-only
view of the oracle matrix when that corner already has the DP dtype and no
+inf. Otherwise (+inf, another dtype) the solvers read the oracle matrix
through a wrapper that sanitizes each read. Both must drive every solver to
the same result, whatever nodes of the prefix are not candidates, and no
solver may write to the oracle.
"""

import numpy as np
import pytest

from helpers import GATEWAY, has_full, motion_instance
from satcdn import costmodel
from satcdn.costmodel import CostParams, DistanceOracle, build_distance_oracle, total_cost
from satcdn.demand import ContentCatalog, DemandMatrix
from satcdn.placement import SOLVERS, OptimizerConfig, local_search
from satcdn.placement.core import (BIG, ContentProblem, _min_over_adds, _sanitized,
                                   _SanitizedReads, _two_smallest)


def rebuild(oracle, mats, dtype=np.float64, keep=None):
    """An oracle over the ``keep`` nodes (all by default, in that order) of
    ``oracle`` with the given per-slot matrices stored in ``dtype``."""
    keep = np.arange(oracle.n_nodes) if keep is None else np.asarray(keep)
    return DistanceOracle([np.asarray(m[np.ix_(keep, keep)], dtype=dtype) for m in mats],
                          [oracle.ids[i] for i in keep], oracle.kind[keep],
                          shell=oracle.shell[keep], orbit=oracle.orbit[keep],
                          in_orbit=oracle.in_orbit[keep], orbit_key=oracle.orbit_key[keep],
                          metric=oracle.metric, slot_seconds=oracle.slot_seconds, dtype=dtype)


@pytest.fixture(scope="module")
def instance():
    """Distances on a 1/8 grid, so that float32 stores them exactly."""
    oracle, demand, catalog, params = motion_instance(31, 6, 40, 5, n_gateways=3, orbit_rows=5)
    mats = [np.round(oracle.matrix(t) * 8) / 8 for t in range(1, oracle.slot_count + 1)]
    return oracle, mats, demand, catalog, params


def outcome(solver, oracle, demand, catalog, params):
    """Everything a solve reports, with replica sets as node ids."""
    res = SOLVERS[solver](demand, oracle, params, OptimizerConfig(max_iterations=6),
                          catalog=catalog)
    st = res.stats
    sets = {c: [tuple(oracle.ids[i] for i in s) for s in v] for c, v in res.schedule.sets.items()}
    return sets, st.iterations, st.relaxations, st.orbit_relaxations, st.history, st.orbit_sequence


def block_kinds(oracle, demand, params):
    """How slot 1's block and user block are read: "view" (in place),
    "reads" (through the oracle matrix, sanitizing each read) or "copy"."""
    users = np.array([oracle.index[u] for u in demand.users])
    prob = ContentProblem(oracle, users, demand.values[:, 0, :], 1.0, params)
    D = oracle.matrix(1)

    def kind(b):
        if not isinstance(b, np.ndarray):
            return "reads"
        return "view" if np.shares_memory(b, D) else "copy"

    return kind(prob.block(1)), kind(prob.user_block(1))


@pytest.mark.parametrize("solver", list(SOLVERS))
class TestViewEqualsCopy:
    def test_dtype_mismatch(self, instance, solver):
        oracle, mats, demand, catalog, params = instance
        view, copy = rebuild(oracle, mats), rebuild(oracle, mats, np.float32)
        assert block_kinds(view, demand, params) == ("view", "view")
        assert block_kinds(copy, demand, params) == ("reads", "copy")
        assert outcome(solver, view, demand, catalog, params) == \
            outcome(solver, copy, demand, catalog, params)

    def test_inf_in_block(self, instance, solver):
        oracle, mats, demand, catalog, params = instance
        x = 7  # a satellite candidate cut off from every other node
        far, cut = [], []
        for m in mats:
            for fill, out in ((BIG, far), (np.inf, cut)):
                m2 = m.copy()
                m2[x, :] = m2[:, x] = fill
                m2[x, x] = 0.0
                out.append(m2)
        view, copy = rebuild(oracle, far), rebuild(oracle, cut)
        assert block_kinds(view, demand, params) == ("view", "view")
        assert block_kinds(copy, demand, params) == ("reads", "copy")
        assert outcome(solver, view, demand, catalog, params) == \
            outcome(solver, copy, demand, catalog, params)

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
def test_sanitized_reads_match_reads_of_the_sanitized_block(m):
    """Every read form the solvers use returns what the same read of the
    sanitized block of the first ``m`` nodes gives, a prefix or the whole."""
    rng = np.random.default_rng(4)
    D = rng.random((12, 12))
    D[rng.random(D.shape) < 0.2] = np.inf
    oracle = DistanceOracle.from_matrices([D], [f"n{i}" for i in range(12)], np.zeros(12))
    reads = _SanitizedReads(oracle, 1, m, np.float32)
    block = _sanitized(D[:m, :m], np.float32)
    a, b = np.array([4, 0, 2]), np.array([[1], [3]])
    for idx in [(slice(None), a), (a, slice(1, 4)), (slice(None), slice(None)),
                (a[:, None], a), (b, a), (2, slice(None)), (slice(None), 3), (a, 1),
                (np.int64(2), a), (b, slice(None))]:
        got = reads[idx]
        assert got.dtype == np.float32 and got.shape == block[idx].shape
        assert np.array_equal(got, block[idx])


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_min_over_adds_gather_and_chunks_match_restatement(dtype):
    rng = np.random.default_rng(5)
    B = rng.integers(0, 6, size=(60, 60)).astype(dtype)
    W = np.sort(rng.choice(np.arange(5, 55), size=30, replace=False))
    pa = np.sort(rng.choice(np.arange(2, 58), size=25, replace=False))
    w1 = rng.integers(0, 6, size=W.size).astype(dtype)
    g_adds = rng.integers(0, 3, size=pa.size) * 0.5 + 100.0  # ties across columns
    M = g_adds[None, :] + 2.5 * np.minimum(w1[:, None], B[np.ix_(W, pa)])
    j_ref = M.argmin(axis=1)
    ref = (M[np.arange(W.size), j_ref], j_ref)
    # Gathered; one row per chunk (buffers hold at least a row of B); a few rows.
    for size in (W.size * pa.size, B.shape[1], 200):
        buf, buf64 = np.empty(size, dtype=dtype), np.empty(size)
        vals, j = _min_over_adds(B, W, pa, w1, g_adds, 2.5, buf, buf64)
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

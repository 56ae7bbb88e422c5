"""Request routing against a replica schedule, chunk download-time modeling,
and per-slot quality aggregation for video scenarios.

Download time = propagation (path latency) + transmission (chunk size over the
bottleneck link throughput). Routing policies: closest, round robin over the n
closest, and deterministic weighted round robin (default 4/7, 2/7, 1/7).
Per-(user, content) routing state persists across slots. The simulator routes
the requests of each (slot, content, user) group in one step and keeps every
floating-point accumulation (QoE, traffic, per-replica gigabytes, server
queues) per request, in request order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constellation import SAT
from .costmodel import DistanceOracle, ReplicaSchedule

POLICIES = ("closest", "round_robin", "weighted_round_robin")


@dataclass
class RoutingPolicy:
    kind: str = "closest"
    fanout: int = 3
    weights: tuple[float, ...] = (4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0)

    def __post_init__(self):
        if self.kind not in POLICIES:
            raise ValueError(f"kind must be one of {POLICIES}")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if len(self.weights) != self.fanout:
            raise ValueError("one weight per fanout slot required")
        # each check is written so that NaN fails it
        if not all(w >= 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if not abs(sum(self.weights) - 1.0) <= 1e-9:
            raise ValueError("weights must sum to 1")
        if not all(self.weights[i] >= self.weights[i + 1] for i in range(len(self.weights) - 1)):
            raise ValueError("weights must be non-increasing with replica distance")


@dataclass
class LinkModel:
    terrestrial_gbps: float = 20.0
    satellite_gbps: float = 10.0
    server_capacity_mbps: float | None = None

    def __post_init__(self):
        if not (self.terrestrial_gbps > 0 and self.satellite_gbps > 0):
            raise ValueError("throughputs must be positive")
        if self.server_capacity_mbps is not None and not self.server_capacity_mbps > 0:
            raise ValueError("server_capacity_mbps must be positive")


@dataclass
class QoEModel:
    """Declared quality model: full score while the download fits the playout
    budget, linear decay to zero at twice the budget."""

    budget_s: float = 4.0
    max_score: float = 10.0

    def __post_init__(self):
        if not self.budget_s > 0:
            raise ValueError("budget_s must be positive")
        if not self.max_score > 0:
            raise ValueError("max_score must be positive")

    def score(self, download_s: float) -> float:
        if not math.isfinite(download_s):
            return 0.0
        overrun = max(0.0, download_s - self.budget_s) / self.budget_s
        return max(0.0, self.max_score * (1.0 - overrun))


class Router:
    """Stateful request router; counters persist per (user, content)."""

    def __init__(self, schedule: ReplicaSchedule, oracle: DistanceOracle, policy: RoutingPolicy):
        self.schedule = schedule
        self.oracle = oracle
        self.policy = policy
        self._rr: dict[tuple[int, str], int] = {}
        self._wrr: dict[tuple[int, str], list[float]] = {}
        # weight total per ranked-list length; NumPy's reduction fixes the last-ulp
        # rounding the picks depend on (Python's compensated sum can differ)
        self._wrr_total = [float(np.sum(policy.weights[:k])) for k in range(policy.fanout + 1)]

    def _ranked(self, user_idx: int, content: str, slot: int) -> list[int]:
        """Reachable replicas nearest first (ties by id), at most ``fanout``."""
        replicas = np.asarray(self.schedule.nodes(content, slot), dtype=np.int64)
        d = np.asarray(self.oracle.row(slot, user_idx)[replicas], dtype=float)
        finite = np.isfinite(d)
        replicas, d = replicas[finite], d[finite]
        order = np.lexsort((replicas, d))
        return [int(r) for r in replicas[order[:self.policy.fanout]]]

    def picks(self, user_idx: int, content: str, slot: int, n: int) -> tuple[list[int], bool]:
        """The serving replicas of the next ``n`` requests of one user for one
        content at one slot, in request order, and whether they are
        reachable. With nothing reachable every request falls back to the
        lowest-id origin."""
        ranked = self._ranked(user_idx, content, slot)
        if not ranked:
            return [int(np.min(self.oracle.origins_idx))] * n, False
        if self.policy.kind == "closest" or len(ranked) == 1:
            return [ranked[0]] * n, True
        key = (user_idx, content)
        if self.policy.kind == "round_robin":
            c = self._rr.get(key, 0)
            self._rr[key] = c + n
            return [ranked[i % len(ranked)] for i in range(c, c + n)], True
        # Smooth weighted round robin over proximity ranks; ties go to the nearest.
        cur = self._wrr.get(key)
        if cur is None or len(cur) != len(ranked):
            cur = [0.0] * len(ranked)
        total, out = self._wrr_total[len(ranked)], []
        for _ in range(n):
            cur = [c + w for c, w in zip(cur, self.policy.weights)]
            pick = cur.index(max(cur))
            cur[pick] -= total
            out.append(ranked[pick])
        self._wrr[key] = cur
        return out, True


def path_links(oracle: DistanceOracle, slot: int, src: int, dst: int) -> list[tuple[int, int]]:
    """Edge list of the shortest path from src to dst at a slot, read from
    the oracle's predecessor row of src."""
    if src == dst:
        return []
    pred = oracle.pred_row(slot, src)
    links = []
    node = dst
    while node != src:
        p = int(pred[node])
        if p < 0:
            return []  # unreachable
        links.append((p, node))
        node = p
    return links[::-1]


def _bottleneck_gbps(oracle: DistanceOracle, links, model: LinkModel) -> float:
    if not links:
        return model.terrestrial_gbps  # local serve
    best = math.inf
    for a, b in links:
        sat_link = oracle.kind[a] == SAT or oracle.kind[b] == SAT
        best = min(best, model.satellite_gbps if sat_link else model.terrestrial_gbps)
    return best


@dataclass
class DeliveryReport:
    policy: str
    slot_count: int
    mean_qoe: list[float]
    traffic_gb: float
    per_replica: dict[str, dict[str, float]] = field(default_factory=dict)
    unreachable_requests: int = 0

    @property
    def overall_mean_qoe(self) -> float:
        served = [q for q in self.mean_qoe if not math.isnan(q)]
        return float(np.mean(served)) if served else float("nan")

    def rows(self):
        for t, q in enumerate(self.mean_qoe, start=1):
            yield t, self.policy, q

    def replica_rows(self):
        for nid in sorted(self.per_replica):
            rec = self.per_replica[nid]
            yield self.policy, nid, int(rec["requests"]), rec["gb"]


def simulate_delivery(schedule: ReplicaSchedule, demand, policy: RoutingPolicy,
                      links: LinkModel, qoe: QoEModel, oracle: DistanceOracle,
                      catalog=None) -> DeliveryReport:
    """Route every request, accumulate per-link traffic (a chunk crossing k
    links counts k times), score download times, and average QoE per slot.

    Demand weights are rounded to whole requests. Requests are routed per
    (slot, content, user) group, one ``Router.picks`` call each; every sum
    that can round (QoE, traffic, per-replica gigabytes, the queue) still
    adds one request at a time, in request order, so the report does not
    depend on the grouping. With a server capacity cap, requests queue FIFO
    per (replica, slot). A ``hop`` oracle is refused, as hops are not ms.
    """
    if oracle.metric == "hop":
        raise ValueError("download times need a latency-metric oracle (ideal or sampled)")
    router = Router(schedule, oracle, policy)
    cap_gbps = None if links.server_capacity_mbps is None else links.server_capacity_mbps / 1000.0
    # (edge count, bottleneck Gbps, distance) per (user, replica, slot)
    paths: dict[tuple[int, int, int], tuple[int, float, float]] = {}
    T = min(demand.slot_count, schedule.slot_count)
    qoe_sum = [0.0] * T
    qoe_n = [0] * T
    traffic_gb = 0.0
    per_replica: dict[str, dict[str, float]] = {}
    unreachable = 0
    backlog: dict[tuple[int, int], float] = {}

    user_idx = [oracle.index[u] for u in demand.users]

    def record(rep: int) -> dict[str, float]:
        return per_replica.setdefault(oracle.ids[rep], {"requests": 0.0, "gb": 0.0})

    for t in range(1, T + 1):
        for ci, content in enumerate(demand.contents):
            size_mb = catalog.size_of(content) if catalog is not None else 1.0
            size_gb = size_mb / 1000.0
            for uj, u in enumerate(user_idx):
                n_req = int(round(demand.values[uj, ci, t - 1]))
                if n_req <= 0:
                    continue
                picks, reachable = router.picks(u, content, t, n_req)
                qoe_n[t - 1] += n_req
                if not reachable:
                    unreachable += n_req
                    record(picks[0])["requests"] += n_req
                    continue
                # per distinct replica, in first-pick order: its record, one
                # request's traffic, propagation and transmit time and, with
                # no queue, its score
                served = {}
                for rep in picks:
                    if rep in served:
                        continue
                    hit = paths.get((u, rep, t))
                    if hit is None:
                        edges = path_links(oracle, t, u, rep)
                        hit = paths[u, rep, t] = (len(edges),
                                                  _bottleneck_gbps(oracle, edges, links),
                                                  float(oracle.row(t, u)[rep]))
                    n_edges, gbps, dist_ms = hit
                    if cap_gbps is not None:
                        gbps = min(gbps, cap_gbps)
                    transmit_s = (size_mb * 8.0e6) / (gbps * 1.0e9)
                    score = None if cap_gbps is not None else \
                        qoe.score(dist_ms / 1000.0 + transmit_s)
                    served[rep] = (record(rep), size_gb * n_edges, dist_ms / 1000.0,
                                   transmit_s, score)
                for rep in picks:
                    rec, hop_gb, prop_s, transmit_s, score = served[rep]
                    if score is None:
                        wait_s = backlog.get((rep, t), 0.0)
                        backlog[rep, t] = wait_s + transmit_s
                        score = qoe.score(prop_s + wait_s + transmit_s)
                    qoe_sum[t - 1] += score
                    traffic_gb += hop_gb
                    rec["requests"] += 1
                    rec["gb"] += size_gb

    mean_qoe = [qoe_sum[i] / qoe_n[i] if qoe_n[i] else float("nan") for i in range(T)]
    return DeliveryReport(policy=policy.kind, slot_count=T, mean_qoe=mean_qoe,
                          traffic_gb=traffic_gb, per_replica=per_replica,
                          unreachable_requests=unreachable)

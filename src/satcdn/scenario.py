"""Declarative scenario configs and the end-to-end runner.

A scenario is one JSON document naming shells, ground sites, a demand source,
cost parameters, algorithms, and (optionally) routing policies. ``run_scenario``
wires constellation -> demand -> costs -> placement -> delivery and writes one
CSV per (algorithm, table kind) plus a metadata file with every resolved
default so results are reproducible.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

from . import constellation as cst
from . import demand as dm
from .costmodel import (METRICS, CostBreakdown, CostParams, DistanceOracle, ReplicaSchedule,
                        build_distance_oracle, disconnected_users, total_cost)
from .delivery import POLICIES, LinkModel, QoEModel, RoutingPolicy, simulate_delivery
from .placement import SOLVERS, OptimizerConfig

ALGORITHMS = tuple(SOLVERS)
CANDIDATE_MODES = ("both", "gateways_only", "satellites_only")


class ConfigError(ValueError):
    """Configuration problem with a field-precise path."""


def _expect(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


@dataclass
class Scenario:
    """A fully resolved scenario configuration."""

    seed: int = 0
    slot_seconds: float = 300.0
    horizon_slots: int = 12
    metric: str = "hop"
    alpha: float = 50.0
    beta: float = 1.0
    shells: list[dict] = field(default_factory=list)
    gateways: dict = field(default_factory=lambda: {"list": []})
    origins: list[dict] = field(default_factory=list)
    users: dict = field(default_factory=dict)
    latency_samples_file: str | None = None
    lognormal_latency: dict = field(default_factory=lambda: {"median_ms": 40.0, "sigma": 0.5})
    candidates: str = "both"
    algorithms: list[str] = field(default_factory=lambda: list(ALGORITHMS))
    prediction: dict = field(default_factory=lambda: {"mode": "oracle"})
    optimizer: dict = field(default_factory=dict)
    routing: dict = field(default_factory=dict)


_SHELL_DEFAULTS = dict(orbits=1, sats_per_orbit=1, altitude_km=550.0, inclination_deg=53.0,
                       phasing_offset=0.0, min_elevation_deg=10.0, isl=True, gamma=10.0,
                       geo_longitudes_deg=None)

_OPT_DEFAULTS = {f.name: f.default for f in fields(OptimizerConfig)}

_ROUTING_DEFAULTS = dict(policies=[], fanout=3, weights=[4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0],
                         terrestrial_gbps=20.0, satellite_gbps=10.0, qoe_budget_s=4.0,
                         server_capacity_mbps=None)


def load_config(source) -> Scenario:
    """Parse and validate a scenario config (path or dict)."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            raw = json.load(fh)
    else:
        raw = json.loads(json.dumps(source))  # deep copy, guarantees JSON-compatible

    known = set(Scenario.__dataclass_fields__)
    for key in raw:
        _expect(key in known, key, "unknown configuration field")

    sc = Scenario(**{k: raw[k] for k in raw})
    _expect(sc.metric in METRICS, "metric", f"must be one of {METRICS}")
    _expect(sc.horizon_slots >= 1 or sc.users.get("mode") == "trace",
            "horizon_slots", "must be >= 1")
    _expect(sc.slot_seconds > 0, "slot_seconds", "must be positive")
    _expect(sc.alpha >= 1.0, "alpha", "must be >= 1")
    _expect(sc.beta >= 0.0, "beta", "must be >= 0")
    _expect(len(sc.shells) >= 1, "shells", "at least one shell is required")
    _expect(sc.candidates in CANDIDATE_MODES, "candidates",
            f"must be one of {CANDIDATE_MODES}")
    for i, shell in enumerate(sc.shells):
        path = f"shells[{i}]"
        merged = dict(_SHELL_DEFAULTS)
        _expect("name" in shell, path + ".name", "shell name is required")
        merged["name"] = shell["name"]
        for k, v in shell.items():
            _expect(k in merged or k == "name", f"{path}.{k}", "unknown shell field")
            merged[k] = v
        _expect(merged["gamma"] >= sc.beta, path + ".gamma", "must be >= beta")
        sc.shells[i] = merged
    _expect(len({str(shell["name"]) for shell in sc.shells}) == len(sc.shells), "shells",
            "shell names must be unique")
    _expect(len(sc.origins) >= 1, "origins", "at least one origin node is required")
    for i, org in enumerate(sc.origins):
        for k in ("name", "lat_deg", "lon_deg"):
            _expect(k in org, f"origins[{i}].{k}", "required")
    mode = sc.users.get("mode")
    _expect(mode in ("grid", "population", "trace"), "users.mode",
            "must be grid, population, or trace")
    if mode == "grid":
        for k in ("rows", "cols"):
            _expect(int(sc.users.get(k, 0)) >= 1, f"users.{k}", "must be >= 1")
        sc.users.setdefault("bbox", list(dm.US_BBOX))
        sc.users.setdefault("per_slot_demand", 1.0)
        sc.users.setdefault("active", None)
        sc.users.setdefault("content_size_mb", 1.0)
    elif mode == "population":
        _expect(int(sc.users.get("requests", 0)) >= 1, "users.requests", "must be >= 1")
        sc.users.setdefault("nodes_file", None)  # default: bundled US states
        sc.users.setdefault("contents", ["content/0"])
        sc.users.setdefault("content_size_mb", 1.0)
    else:
        _expect("trace_file" in sc.users, "users.trace_file", "required for trace mode")
        _expect("nodes_file" in sc.users, "users.nodes_file", "required for trace mode")
        sc.users.setdefault("catalog_file", None)
        sc.users.setdefault("top_k", 10)
    gw_keys = set(sc.gateways) & {"file", "synthetic", "list"}
    _expect(len(gw_keys) <= 1, "gateways", "specify only one of file/synthetic/list")
    if not gw_keys:
        sc.gateways = {"list": []}
    if "synthetic" in sc.gateways:
        syn = dict(sc.gateways["synthetic"])
        _expect(int(syn.get("count", 0)) >= 0, "gateways.synthetic.count", "must be >= 0")
        syn.setdefault("bbox", list(dm.US_BBOX))
        syn.setdefault("seed", sc.seed)
        sc.gateways = {"synthetic": syn}
    for name in sc.algorithms:
        _expect(name in ALGORITHMS, "algorithms", f"unknown algorithm {name!r}")
    pmode = sc.prediction.get("mode", "oracle")
    _expect(pmode in ("oracle", "moving_average"), "prediction.mode",
            "must be oracle or moving_average")
    if pmode == "moving_average":
        _expect(int(sc.prediction.get("window_slots", 1)) >= 1,
                "prediction.window_slots", "must be >= 1")
    for section, defaults in (("optimizer", _OPT_DEFAULTS), ("routing", _ROUTING_DEFAULTS)):
        given = getattr(sc, section)
        for k in given:
            _expect(k in defaults, f"{section}.{k}", f"unknown {section} field")
        setattr(sc, section, {**defaults, **given})
    for p in sc.routing["policies"]:
        _expect(p in POLICIES, "routing.policies", f"unknown policy {p!r}")
    return sc


@dataclass
class BuiltScenario:
    scenario: Scenario
    network: cst.Network
    snapshots: list[cst.SnapshotGraph]
    oracle: DistanceOracle
    demand: dm.DemandMatrix
    planning_demand: dm.DemandMatrix
    catalog: dm.ContentCatalog
    params: CostParams


def _build_gateways(sc: Scenario) -> list[cst.GroundNode]:
    if "file" in sc.gateways:
        nodes = []
        with open(sc.gateways["file"], newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            _expect(header is not None and [h.strip() for h in header] == ["name", "lat_deg", "lon_deg"],
                    "gateways.file", "expected header 'name,lat_deg,lon_deg'")
            for line, row in enumerate(reader, start=2):
                if not row:
                    continue
                path = f"gateways.file line {line}"
                _expect(len(row) >= 3, path, "expected fields name,lat_deg,lon_deg")
                nodes.append(_ground_node(path, f"gw/{row[0].strip()}", "gateway",
                                          {"lat_deg": row[1], "lon_deg": row[2]}))
        return nodes
    if "synthetic" in sc.gateways:
        syn = sc.gateways["synthetic"]
        return dm.random_ground_sites(int(syn["count"]), syn["bbox"], int(syn["seed"]))
    return [_ground_node(f"gateways.list[{i}]", f"gw/{g['name']}", "gateway", g)
            for i, g in enumerate(sc.gateways.get("list", []))]


def _ground_node(path: str, node_id: str, kind: str, entry: dict) -> cst.GroundNode:
    try:
        return cst.GroundNode(node_id, kind, float(entry["lat_deg"]), float(entry["lon_deg"]))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _expect_unique(path: str, nodes: list[cst.GroundNode]) -> None:
    seen = set()
    for node in nodes:
        _expect(node.node_id not in seen, path,
                f"duplicate name {node.node_id.split('/', 1)[1]!r}")
        seen.add(node.node_id)


def _build_users_demand(sc: Scenario):
    u = sc.users
    if u["mode"] == "grid":
        users, catalog, demand = dm.synth_grid_demand(
            int(u["rows"]), int(u["cols"]), u["bbox"], float(u["per_slot_demand"]),
            sc.horizon_slots, active=tuple(u["active"]) if u.get("active") else None,
            size_mb=float(u["content_size_mb"]))
        return users, catalog, demand
    if u["mode"] == "population":
        if u.get("nodes_file"):
            users, weights = _load_user_nodes(u["nodes_file"])
        else:
            users, weights = dm.us_state_nodes()
        demand = dm.synth_population_demand(weights, int(u["requests"]), sc.horizon_slots,
                                            sc.seed, contents=list(u["contents"]))
        catalog = dm.ContentCatalog.uniform(list(u["contents"]), float(u["content_size_mb"]))
        return users, catalog, demand
    users, _weights = _load_user_nodes(u["nodes_file"])
    catalog_in = dm.load_catalog(u["catalog_file"]) if u.get("catalog_file") else None
    catalog, demand = dm.load_trace(u["trace_file"], known_users=[n.node_id for n in users],
                                    top_k=u.get("top_k"), catalog=catalog_in)
    return users, catalog, demand


def _load_user_nodes(path):
    nodes, weights = [], {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _expect(header is not None and [h.strip() for h in header][:3] == ["name", "lat_deg", "lon_deg"],
                str(path), "expected header 'name,lat_deg,lon_deg[,weight]'")
        has_w = len(header) > 3
        for row in reader:
            if not row:
                continue
            nid = row[0].strip()
            if not nid.startswith("user/"):
                nid = f"user/{nid}"
            nodes.append(cst.GroundNode(nid, "user_region", float(row[1]), float(row[2])))
            weights[nid] = float(row[3]) if has_w else 1.0
    return nodes, weights


def build_network(sc: Scenario) -> tuple[cst.Network, dm.ContentCatalog, dm.DemandMatrix]:
    """The network and demand half of ``build_scenario``: shells, ground
    nodes, latency sampler, catalog and demand, with no snapshots or oracle."""
    shells = []
    for i, shell in enumerate(sc.shells):
        try:
            spec = cst.ShellSpec(
                orbit_count=int(shell["orbits"]), sats_per_orbit=int(shell["sats_per_orbit"]),
                altitude_km=float(shell["altitude_km"]), inclination_deg=float(shell["inclination_deg"]),
                phasing_offset=float(shell["phasing_offset"]),
                min_elevation_deg=float(shell["min_elevation_deg"]), isl=bool(shell["isl"]),
                name=str(shell["name"]),
                geo_longitudes_deg=tuple(shell["geo_longitudes_deg"]) if shell.get("geo_longitudes_deg") else None)
            shells.append(cst.build_shell(spec))
        except ValueError as exc:
            raise ConfigError(f"shells[{i}]: {exc}") from exc

    gateways = _build_gateways(sc)
    origins = [_ground_node(f"origins[{i}]", f"origin/{o['name']}", "origin", o)
               for i, o in enumerate(sc.origins)]
    users, catalog, demand = _build_users_demand(sc)
    for path, nodes in ((f"gateways.{next(iter(sc.gateways))}", gateways),
                        ("origins", origins), ("users", users)):
        _expect_unique(path, nodes)

    if sc.latency_samples_file:
        sampler = cst.LatencySampler.from_file(sc.latency_samples_file)
    else:
        ln = sc.lognormal_latency
        try:
            sampler = cst.LatencySampler.lognormal(float(ln["median_ms"]), float(ln["sigma"]))
        except ValueError as exc:
            raise ConfigError(f"lognormal_latency: {exc}") from exc

    network = cst.Network(shells, gateways + origins + users,
                          slot_seconds=sc.slot_seconds, latency_sampler=sampler, seed=sc.seed)
    return network, catalog, demand


def build_scenario(sc: Scenario) -> BuiltScenario:
    network, catalog, demand = build_network(sc)
    horizon = demand.slot_count if sc.users["mode"] == "trace" else sc.horizon_slots
    snapshots = network.snapshots(horizon)
    oracle = build_distance_oracle(snapshots, sc.metric)
    if sc.candidates == "gateways_only":
        oracle = oracle.restrict_kinds([cst.GATEWAY])
    elif sc.candidates == "satellites_only":
        oracle = oracle.restrict_kinds([cst.SAT])

    gamma_map = {i: float(shell["gamma"]) for i, shell in enumerate(sc.shells)}
    params = CostParams.from_oracle(oracle, alpha=sc.alpha, beta=sc.beta, gamma=gamma_map)

    if sc.prediction.get("mode") == "moving_average":
        planning = dm.predict_demand(demand, int(sc.prediction["window_slots"]))
    else:
        planning = demand

    return BuiltScenario(scenario=sc, network=network, snapshots=snapshots, oracle=oracle,
                         demand=demand, planning_demand=planning, catalog=catalog, params=params)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _shell_usage(schedule: ReplicaSchedule, oracle: DistanceOracle, shells) -> list[tuple]:
    counts = {i: 0 for i in range(len(shells))}
    total = 0
    for c in schedule.contents:
        for t in range(1, schedule.slot_count + 1):
            for node in schedule.nodes(c, t):
                s = int(oracle.shell[node])
                if s >= 0:
                    counts[s] += 1
                    total += 1
    return [(shells[i]["name"], counts[i] / total if total else 0.0)
            for i in range(len(shells))]


def _settings(sc: Scenario) -> tuple[OptimizerConfig, list[RoutingPolicy], LinkModel, QoEModel]:
    """The optimizer and delivery settings of ``sc``, built before any work so
    that a bad value fails as a config error."""
    opt, r = sc.optimizer, sc.routing
    try:
        opt_config = OptimizerConfig(
            max_iterations=int(opt["max_iterations"]), neighbor_limit=int(opt["neighbor_limit"]),
            improvement_tol=float(opt["improvement_tol"]),
            starfront_thresholds=tuple(opt["starfront_thresholds"]) if opt["starfront_thresholds"] else None,
            pch_intra_period_s=float(opt["pch_intra_period_s"]),
            pch_inter_period_s=float(opt["pch_inter_period_s"]) if opt["pch_inter_period_s"] else None)
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc
    try:
        policies = [RoutingPolicy(kind=p, fanout=int(r["fanout"]), weights=tuple(r["weights"]))
                    for p in r["policies"]]
        links = LinkModel(terrestrial_gbps=float(r["terrestrial_gbps"]),
                          satellite_gbps=float(r["satellite_gbps"]),
                          server_capacity_mbps=r["server_capacity_mbps"])
        qoe = QoEModel(budget_s=float(r["qoe_budget_s"]))
    except ValueError as exc:
        raise ConfigError(f"routing: {exc}") from exc
    return opt_config, policies, links, qoe


def run_scenario(config, out_dir, *, algorithms=None, metric=None, seed=None) -> dict:
    """Execute a scenario and write its result bundle under ``out_dir``."""
    sc = load_config(config)
    if metric is not None:
        sc.metric = metric
    if seed is not None:
        sc.seed = int(seed)
    if algorithms is not None:
        sc.algorithms = list(algorithms)
    sc = load_config(asdict(sc))  # re-validate with overrides applied
    opt_config, policies, links, qoe = _settings(sc)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    built = build_scenario(sc)
    oracle, demand, catalog, params = built.oracle, built.demand, built.catalog, built.params

    delivery_oracle = None
    if policies:
        # the planning snapshots cover the demand horizon; reuse them
        delivery_oracle = build_distance_oracle(built.snapshots[:demand.slot_count], "ideal",
                                                need_paths=True)

    nodes = built.network.nodes
    metadata: dict[str, Any] = {
        "resolved_config": asdict(sc),
        "c_qmin": params.c_qmin,
        "latency_source": built.network.latency_sampler.source,
        "node_counts": {"satellites": int(nodes.n_sats),
                        "gateways": int(nodes.gateways_idx.size),
                        "origins": int(nodes.origins_idx.size),
                        "users": int(nodes.users_idx.size)},
        "algorithms": {},
        "failures": {},
    }

    results = {}
    for name in sc.algorithms:
        planning = demand if name == "pch" else built.planning_demand
        try:
            results[name] = SOLVERS[name](planning, oracle, params, opt_config, catalog=catalog)
        except Exception as exc:  # record and keep going
            metadata["failures"][name] = repr(exc)

    summary = {}
    for name in sc.algorithms:
        if name not in results:
            continue
        res = results[name]
        sched = res.schedule
        sched.validate(oracle)
        replicas = sched.mean_replica_count(oracle)
        rows = []
        agg = CostBreakdown(0.0, 0.0, 0.0)
        for c in sorted(sched.contents):
            one = ReplicaSchedule([c], sched.slot_count, {c: sched.sets[c]})
            br = total_cost(one, demand.only(c), catalog, oracle, params)
            agg = agg + br
            rows.append((name, c, sc.metric, br.query, br.replication, br.storage, br.total))
        rows.append((name, "ALL", sc.metric, agg.query, agg.replication, agg.storage, agg.total))
        _write_csv(out / f"{name}_breakdown.csv",
                   ["algorithm", "content", "metric", "query", "replication", "storage", "total"],
                   rows)
        _write_csv(out / f"{name}_schedule.csv", ["content", "slot", "node_id"],
                   sched.to_rows(oracle.ids))
        _write_csv(out / f"{name}_runtime.csv",
                   ["algorithm", "iterations", "dp_relaxations", "orbit_relaxations",
                    "mean_replica_count", "runtime_seconds"],
                   [(name, res.stats.iterations, res.stats.relaxations,
                     res.stats.orbit_relaxations, replicas, res.stats.wall_s)])
        if len(sc.shells) > 1:
            _write_csv(out / f"{name}_usage.csv", ["algorithm", "shell", "usage_ratio"],
                       [(name, shell, ratio) for shell, ratio in
                        _shell_usage(sched, oracle, sc.shells)])
        if delivery_oracle is not None:
            drows, lrows = [], []
            for policy in policies:
                rep = simulate_delivery(sched, demand, policy, links, qoe,
                                        delivery_oracle, catalog)
                drows.extend((t, pol, q, rep.traffic_gb) for t, pol, q in rep.rows())
                lrows.extend(rep.replica_rows())
            _write_csv(out / f"{name}_delivery.csv",
                       ["slot", "policy", "mean_qoe", "traffic_gb"], drows)
            _write_csv(out / f"{name}_replica_load.csv",
                       ["policy", "node_id", "requests", "gb"], lrows)

        flagged = disconnected_users(sched, demand, oracle)
        metadata["algorithms"][name] = {
            "total_cost": agg.total,
            "iterations": res.stats.iterations,
            "dp_relaxations": res.stats.relaxations,
            "orbit_relaxations": res.stats.orbit_relaxations,
            "runtime_seconds": res.stats.wall_s,
            "mean_replica_count": replicas,
            "warnings": res.stats.warnings,
            "disconnected_user_slots": len(flagged),
        }
        summary[name] = agg.total

    with open(out / "metadata.json", "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
    return summary

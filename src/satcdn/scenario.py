"""Declarative scenario configs and the end-to-end runner.

A scenario is one JSON document naming shells, ground sites, a demand source,
cost parameters, algorithms, and (optionally) routing policies. ``run_scenario``
wires constellation -> demand -> costs -> placement -> delivery and writes one
CSV per (algorithm, table kind) plus a metadata file with every resolved
default so results are reproducible.

``_SCHEMA`` is the reference for the config: every field, its JSON type, its
default and (where the config owns it) its range.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, make_dataclass
from pathlib import Path
from typing import Any, NamedTuple

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


@contextmanager
def _field(path: str):
    """Report a library ``ValueError`` raised inside as a config error at ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_REQUIRED = object()  # default of a field the config must give


class F(NamedTuple):
    """One config field: its JSON ``kind`` ("int", "num", "str", "bool", a dict
    of fields, a one-element list ``[item]`` of ``item`` fields, or a ``Tagged``),
    its default (called with the resolved top-level config if callable; a None
    default also admits null) and its range."""

    kind: Any
    default: Any = _REQUIRED
    null: bool = False
    ge: float | None = None
    gt: float | None = None
    choices: tuple | None = None
    size: int | None = None
    min_size: int = 0


class Tagged(NamedTuple):
    """An object whose fields depend on a variant: the value of its ``key``
    field, or (``key`` None) the name of its one field, ``default`` if empty."""

    key: str | None
    variants: dict
    default: Any = _REQUIRED

    def fields(self, value: dict, path: str) -> dict:
        if self.key is None:
            _expect(len(value) <= 1, path, f"specify only one of {'/'.join(self.variants)}")
            name = next(iter(value), self.default)
            return {name: self.variants[name]} if name in self.variants else self.variants
        tag = {self.key: F("str", self.default, choices=tuple(self.variants))}
        name = _check(F(tag), {k: value[k] for k in tag if k in value}, path)[self.key]
        return {**tag, **self.variants[name]}


def _lib(owner, name: str):
    """The default the library's ``owner`` (a function or dataclass) gives ``name``."""
    return inspect.signature(owner).parameters[name].default


def _from(owner, **kinds) -> dict:
    """Fields typed by ``kinds`` whose defaults ``owner`` holds under the same names."""
    return {name: F(kind, _lib(owner, name)) for name, kind in kinds.items()}


_BBOX = F([F("num")], list(dm.US_BBOX), size=4)
_SITE = F({"name": F("str"), "lat_deg": F("num"), "lon_deg": F("num")})

_SCHEMA = {
    "seed": F("int", _lib(cst.Network, "seed"), ge=0),
    "slot_seconds": F("num", _lib(cst.Network, "slot_seconds"), gt=0),
    "horizon_slots": F("int", 12),  # >= 1 unless users.mode is trace (checked in load_config)
    "metric": F("str", "hop", choices=METRICS),
    "alpha": F("num", _lib(CostParams.from_oracle, "alpha"), ge=1),
    "beta": F("num", _lib(CostParams.from_oracle, "beta"), ge=0),
    "shells": F([F({
        "name": F("str"), "orbits": F("int", 1), "sats_per_orbit": F("int", 1),
        "altitude_km": F("num", 550.0),
        **_from(cst.ShellSpec, inclination_deg="num", phasing_offset="num",
                min_elevation_deg="num", isl="bool", geo_longitudes_deg=[F("num")]),
        "gamma": F("num", _lib(CostParams.from_oracle, "gamma"))})], min_size=1),
    "gateways": F(Tagged(None, {
        "file": F("str"),
        "synthetic": F({"count": F("int", ge=0), "bbox": _BBOX,
                        "seed": F("int", lambda config: config["seed"], ge=0)}),
        "list": F([_SITE], [])}, default="list"), {}),
    "origins": F([_SITE], min_size=1),
    "users": F(Tagged("mode", {
        "grid": {"rows": F("int", ge=1), "cols": F("int", ge=1), "bbox": _BBOX,
                 "per_slot_demand": F("num", 1.0),
                 "active": F([F("int")], _lib(dm.synth_grid_demand, "active"), size=2),
                 "content_size_mb": F("num", _lib(dm.ContentCatalog.uniform, "size_mb"))},
        "population": {"requests": F("int", ge=1),
                       "nodes_file": F("str", None),  # None: bundled US states
                       "contents": F([F("str")], _lib(dm.synth_population_demand, "contents"),
                                     min_size=1),
                       "content_size_mb": F("num", _lib(dm.ContentCatalog.uniform, "size_mb"))},
        "trace": {"trace_file": F("str"), "nodes_file": F("str"),
                  "catalog_file": F("str", None),
                  "top_k": F("int", _lib(dm.load_trace, "top_k"), null=True, ge=1)}})),
    "latency_samples_file": F("str", None),
    "lognormal_latency": F(dict.fromkeys(("median_ms", "sigma"), F("num")),
                           {k: _lib(cst.LatencySampler, k) for k in ("median_ms", "sigma")}),
    "candidates": F("str", "both", choices=CANDIDATE_MODES),
    "algorithms": F([F("str", choices=ALGORITHMS)], list(ALGORITHMS)),
    "prediction": F(Tagged("mode", {"oracle": {},
                                    "moving_average": {"window_slots": F("int", 1, ge=1)}},
                           default="oracle"), {}),
    "optimizer": F({**_from(OptimizerConfig, max_iterations="int", neighbor_limit="int",
                            improvement_tol="num", starfront_thresholds=[F("num")]),
                    **{name: F("num", _lib(OptimizerConfig, name), gt=0)
                       for name in ("pch_intra_period_s", "pch_inter_period_s")}}, {}),
    "routing": F({"policies": F([F("str", choices=POLICIES)], []),
                  **_from(RoutingPolicy, fanout="int", weights=[F("num")]),
                  **_from(LinkModel, terrestrial_gbps="num", satellite_gbps="num",
                          server_capacity_mbps="num"),
                  "qoe_budget_s": F("num", _lib(QoEModel, "budget_s"))}, {}),
}

_JSON = {"int": (int, "an integer"), "num": ((int, float), "a number"),
         "str": (str, "a string"), "bool": (bool, "true or false")}


def _check(f: F, value, path: str = "", config: dict | None = None):
    """``value`` checked against ``f``, with defaults filled in and every given
    value kept as written."""
    kind = f.kind
    if value is None and (f.null or f.default is None):
        return None
    if isinstance(kind, str):
        types, name = _JSON[kind]
        _expect(isinstance(value, types) and (kind == "bool") == isinstance(value, bool),
                path, f"must be {name}")
        _expect(kind != "num" or math.isfinite(value), path, "must be a finite number")
        _expect(f.ge is None or value >= f.ge, path, f"must be >= {f.ge}")
        _expect(f.gt is None or value > f.gt, path, f"must be > {f.gt}")
        _expect(f.choices is None or value in f.choices, path, f"must be one of {f.choices}")
        return value
    if isinstance(kind, list):
        # a tuple comes only from a library-owned default
        _expect(isinstance(value, (list, tuple)), path, "must be a list")
        _expect(f.size is None or len(value) == f.size, path, f"must list {f.size} values")
        _expect(len(value) >= f.min_size, path, f"must list at least {f.min_size} entries")
        return [_check(kind[0], v, f"{path}[{i}]", config) for i, v in enumerate(value)]
    _expect(isinstance(value, dict), path, "must be an object")
    fields = kind.fields(value, path) if isinstance(kind, Tagged) else kind
    prefix = f"{path}." if path else ""
    for key in value:
        _expect(key in fields, prefix + key, "unknown field")
    out: dict = {}
    config = out if config is None else config
    for key, sub in fields.items():
        if key not in value:
            _expect(sub.default is not _REQUIRED, prefix + key, "required")
        given = value.get(key, sub.default)
        out[key] = _check(sub, given(config) if callable(given) else given, prefix + key, config)
    return out


Scenario = make_dataclass("Scenario", list(_SCHEMA), namespace={"__module__": __name__})


def load_config(source, **overrides) -> Scenario:
    """Parse and validate a scenario config (path or dict). ``overrides`` that
    are not None replace top-level fields before the check."""
    if isinstance(source, (str, Path)):
        with open(source) as fh, _field(str(source)):
            source = json.load(fh)
    _expect(isinstance(source, dict), "config", "must be a JSON object")
    raw = {**source, **{k: v for k, v in overrides.items() if v is not None}}
    cfg = _check(F(_SCHEMA), json.loads(json.dumps(raw)))  # deep copy, JSON-compatible
    _expect(cfg["horizon_slots"] >= 1 or cfg["users"]["mode"] == "trace",
            "horizon_slots", "must be >= 1")
    for i, shell in enumerate(cfg["shells"]):
        _expect(shell["gamma"] >= cfg["beta"], f"shells[{i}].gamma", "must be >= beta")
    return Scenario(**cfg)


def _ground_node(path: str, node_id: str, kind: str, entry: dict) -> cst.GroundNode:
    with _field(path):
        return cst.GroundNode(node_id, kind, entry["lat_deg"], entry["lon_deg"])


def _read_sites(path: str, file, kind: str, prefix: str):
    """Ground nodes from the ``name,lat_deg,lon_deg[,weight]`` CSV ``file`` of
    config field ``path``, with each node's weight (1.0 without the column)."""
    nodes, weights = [], {}
    with open(file, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        _expect(header[:3] == ["name", "lat_deg", "lon_deg"], path,
                "expected header 'name,lat_deg,lon_deg[,weight]'")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            at = f"{path} line {line}"
            _expect(len(row) >= len(header), at, f"expected fields {','.join(header)}")
            name = row[0].strip()
            nid = name if name.startswith(prefix + "/") else f"{prefix}/{name}"
            with _field(at):
                nodes.append(cst.GroundNode(nid, kind, float(row[1]), float(row[2])))
                weights[nid] = float(row[3]) if len(header) > 3 else 1.0
    return nodes, weights


def _build_gateways(sc: Scenario) -> list[cst.GroundNode]:
    if "file" in sc.gateways:
        return _read_sites("gateways.file", sc.gateways["file"], "gateway", "gw")[0]
    if "synthetic" in sc.gateways:
        with _field("gateways.synthetic"):
            return dm.random_ground_sites(**sc.gateways["synthetic"])
    return [_ground_node(f"gateways.list[{i}]", f"gw/{g['name']}", "gateway", g)
            for i, g in enumerate(sc.gateways["list"])]


def _expect_unique(path: str, nodes: list[cst.GroundNode]) -> None:
    seen = set()
    for node in nodes:
        _expect(node.node_id not in seen, path,
                f"duplicate name {node.node_id.split('/', 1)[1]!r}")
        seen.add(node.node_id)


def _build_users_demand(sc: Scenario):
    u = sc.users
    if u["mode"] == "grid":
        with _field("users"):
            return dm.synth_grid_demand(u["rows"], u["cols"], u["bbox"], u["per_slot_demand"],
                                        sc.horizon_slots, active=u["active"],
                                        size_mb=u["content_size_mb"])
    if u["mode"] == "population":
        if u["nodes_file"]:
            users, weights = _read_sites("users.nodes_file", u["nodes_file"], "user_region", "user")
        else:
            users, weights = dm.us_state_nodes()
        with _field("users"):
            demand = dm.synth_population_demand(weights, u["requests"], sc.horizon_slots,
                                                sc.seed, contents=u["contents"])
            catalog = dm.ContentCatalog.uniform(u["contents"], u["content_size_mb"])
        return users, catalog, demand
    users, _weights = _read_sites("users.nodes_file", u["nodes_file"], "user_region", "user")
    with _field("users.catalog_file"):
        catalog = dm.load_catalog(u["catalog_file"]) if u["catalog_file"] else None
    with _field("users.trace_file"):
        catalog, demand = dm.load_trace(u["trace_file"], known_users=[n.node_id for n in users],
                                        top_k=u["top_k"], catalog=catalog)
        if demand.slot_count == 0:
            raise ValueError(f"{u['trace_file']}: no data rows")
    return users, catalog, demand


def build_network(sc: Scenario) -> tuple[cst.Network, dm.ContentCatalog, dm.DemandMatrix]:
    """Shells, ground nodes, latency sampler, catalog and demand of ``sc``,
    with no snapshots or oracle."""
    shells = []
    for i, s in enumerate(sc.shells):
        with _field(f"shells[{i}]"):
            spec = {k: v for k, v in s.items() if k not in ("orbits", "gamma")}
            spec["geo_longitudes_deg"] = tuple(s["geo_longitudes_deg"] or ()) or None
            shells.append(cst.build_shell(cst.ShellSpec(orbit_count=s["orbits"], **spec)))

    gateways = _build_gateways(sc)
    origins = [_ground_node(f"origins[{i}]", f"origin/{o['name']}", "origin", o)
               for i, o in enumerate(sc.origins)]
    users, catalog, demand = _build_users_demand(sc)
    for path, nodes in ((f"gateways.{next(iter(sc.gateways))}", gateways),
                        ("origins", origins), ("users", users)):
        _expect_unique(path, nodes)

    if sc.latency_samples_file:
        with _field("latency_samples_file"):
            sampler = cst.LatencySampler.from_file(sc.latency_samples_file)
    else:
        with _field("lognormal_latency"):
            sampler = cst.LatencySampler.lognormal(**sc.lognormal_latency)

    with _field("shells"):  # shell names must be unique
        network = cst.Network(shells, gateways + origins + users,
                              slot_seconds=sc.slot_seconds, latency_sampler=sampler, seed=sc.seed)
    return network, catalog, demand


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
    with _field("optimizer"):
        opt_config = OptimizerConfig(**opt)
    with _field("routing"):
        policies = [RoutingPolicy(p, r["fanout"], r["weights"]) for p in r["policies"]]
        links = LinkModel(r["terrestrial_gbps"], r["satellite_gbps"], r["server_capacity_mbps"])
        qoe = QoEModel(budget_s=r["qoe_budget_s"])
    return opt_config, policies, links, qoe


def run_scenario(config, out_dir, *, algorithms=None, metric=None, seed=None) -> dict:
    """Execute a scenario and write its result bundle under ``out_dir``."""
    sc = load_config(config, algorithms=algorithms, metric=metric, seed=seed)
    opt_config, policies, links, qoe = _settings(sc)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    network, catalog, demand = build_network(sc)
    horizon = demand.slot_count if sc.users["mode"] == "trace" else sc.horizon_slots
    snapshots = network.snapshots(horizon)
    oracle = build_distance_oracle(snapshots, sc.metric)
    if sc.candidates == "gateways_only":
        oracle = oracle.restrict_kinds([cst.GATEWAY])
    elif sc.candidates == "satellites_only":
        oracle = oracle.restrict_kinds([cst.SAT])
    params = CostParams.from_oracle(oracle, alpha=sc.alpha, beta=sc.beta,
                                    gamma={i: shell["gamma"] for i, shell in enumerate(sc.shells)})
    predicted = demand
    if sc.prediction["mode"] == "moving_average":
        predicted = dm.predict_demand(demand, sc.prediction["window_slots"])

    delivery_oracle = None
    if policies:
        # the planning snapshots cover the demand horizon; reuse them
        delivery_oracle = build_distance_oracle(snapshots[:demand.slot_count], "ideal",
                                                need_paths=True)

    nodes = network.nodes
    metadata: dict[str, Any] = {
        "resolved_config": asdict(sc),
        "c_qmin": params.c_qmin,
        "latency_source": network.latency_sampler.source,
        "node_counts": {"satellites": int(nodes.n_sats),
                        "gateways": int(nodes.gateways_idx.size),
                        "origins": int(nodes.origins_idx.size),
                        "users": int(nodes.users_idx.size)},
        "algorithms": {},
        "failures": {},
    }

    results = {}
    for name in sc.algorithms:
        planning = demand if name == "pch" else predicted
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

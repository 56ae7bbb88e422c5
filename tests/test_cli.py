import csv
import itertools
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from helpers import has_full, motion_instance, schedule_cost_ref
from satcdn.cli import main
from satcdn.costmodel import ReplicaSchedule, build_distance_oracle, query_cost
from satcdn.demand import (US_BBOX, load_trace, save_trace, synth_grid_demand,
                           synth_population_demand, us_state_nodes)
from satcdn.scenario import (_REQUIRED, _SCHEMA, F, ConfigError, Tagged, build_network,
                             load_config, run_scenario)


def minimal_config(**over):
    cfg = {
        "seed": 3,
        "slot_seconds": 300,
        "horizon_slots": 2,
        "metric": "hop",
        "alpha": 50.0,
        "beta": 1.0,
        "shells": [{"name": "geo", "orbits": 1, "sats_per_orbit": 1,
                    "altitude_km": 35786.0, "inclination_deg": 0.0, "isl": False,
                    "gamma": 10.0, "geo_longitudes_deg": [-75.0]}],
        "origins": [{"name": "main", "lat_deg": 10.0, "lon_deg": -75.0}],
        "users": {"mode": "grid", "rows": 1, "cols": 1,
                  "bbox": [-2.0, -77.0, 2.0, -73.0], "per_slot_demand": 2.0},
        "algorithms": ["no_replica"],
    }
    cfg.update(over)
    return cfg


def small_leo_config(**over):
    cfg = {
        "seed": 5,
        "slot_seconds": 300,
        "horizon_slots": 4,
        "metric": "hop",
        "alpha": 2.0,
        "beta": 0.0,
        "shells": [{"name": "leo", "orbits": 6, "sats_per_orbit": 6,
                    "altitude_km": 550.0, "inclination_deg": 53.0, "gamma": 0.5}],
        "gateways": {"synthetic": {"count": 3, "bbox": [25.0, -125.0, 49.0, -67.0],
                                   "seed": 2}},
        "origins": [{"name": "east", "lat_deg": 39.0, "lon_deg": -77.0}],
        "users": {"mode": "grid", "rows": 2, "cols": 2,
                  "bbox": [28.0, -120.0, 45.0, -75.0], "per_slot_demand": 6.0},
        "algorithms": ["no_replica", "naive_greedy", "mtols", "mtls"],
    }
    cfg.update(over)
    return cfg


_WRONG = {"int": 1.0, "num": "1", "str": 1, "bool": "no"}  # valid JSON, wrong type


def _sample(f: F):
    """A schema-valid value for field ``f`` (required subfields only)."""
    kind = f.kind
    if isinstance(kind, str):
        return f.choices[0] if f.choices else {"int": 1, "num": 1.0, "str": "x", "bool": True}[kind]
    if isinstance(kind, list):
        return [_sample(kind[0])] * (f.size or 1)
    if isinstance(kind, Tagged):  # the default variant, or the first
        return {} if kind.key is None else {kind.key: next(iter(kind.variants)),
                                            **_sample(F(next(iter(kind.variants.values()))))}
    return {k: _sample(sub) for k, sub in kind.items() if sub.default is _REQUIRED}


def _schema_cases():
    """Malformed configs generated from the config schema table, as
    ``(expected message prefix, config, test id)``: a wrong JSON type for every
    field, NaN and -Infinity for every number, a value outside every ``ge`` or
    ``gt`` bound and every ``choices`` set, a wrong length for every
    fixed-length list, too few entries for every ``min_size`` list, a missing
    value for every required field, an unknown key in every object and an
    unknown variant for every tagged object. Each starts from the resolved
    minimal config."""
    cases = []

    def walk(f, value, path, put, variant=""):
        """Cases for field ``f`` at ``path`` holding the valid ``value``;
        ``put(v)`` is the whole config with ``v`` there instead."""
        kind = f.kind
        wrong = _WRONG[kind] if isinstance(kind, str) else {} if isinstance(kind, list) else [1]
        cases.append((path, put(wrong), "type" + variant))
        if kind == "num":
            cases.append((path, put(float("nan")), "nan" + variant))
            cases.append((path, put(-float("inf")), "infinite" + variant))
        if f.ge is not None:
            cases.append((path, put(f.ge - (1 if kind == "int" else 0.5)), "below_ge" + variant))
        if f.gt is not None:
            cases.append((path, put(f.gt), "at_gt" + variant))
        if f.choices:
            cases.append((path, put("bogus"), "choice" + variant))
        if isinstance(kind, list):
            value = value or _sample(f)
            if f.size:
                cases.append((path, put(value[1:]), "length" + variant))
            if f.min_size:
                cases.append((path, put(value[:f.min_size - 1]), "too_few" + variant))
            walk(kind[0], value[0], f"{path}[0]", lambda v: put([v] + value[1:]), variant)
        elif isinstance(kind, Tagged) and kind.key is None:
            cases.append((path, put({n: _sample(sub) for n, sub in kind.variants.items()}),
                          "two_variants" + variant))
            for name, sub in kind.variants.items():
                given = value.get(name)
                walk(sub, _sample(sub) if given is None else given, f"{path}.{name}",
                     lambda v, name=name: put({name: v}), variant)
        elif isinstance(kind, Tagged):
            tag = f"{path}.{kind.key}"
            cases.append((tag, put({**value, kind.key: "bogus"}), "variant" + variant))
            cases.append((tag, put({**value, kind.key: 1}), "tag_type" + variant))
            if kind.default is _REQUIRED:
                cases.append((tag, put({k: v for k, v in value.items() if k != kind.key}),
                              "required" + variant))
            for name, fields in kind.variants.items():
                obj = value if value.get(kind.key) == name else {kind.key: name,
                                                                 **_sample(F(fields))}
                walk_fields(fields, obj, path, put, f"{variant}-{name}")
        elif isinstance(kind, dict):
            walk_fields(kind, value, path, put, variant)

    def walk_fields(fields, value, path, put, variant):
        prefix = f"{path}." if path else ""
        cases.append((prefix + "bogus", put({**value, "bogus": 1}), "unknown" + variant))
        for key, sub in fields.items():
            if sub.default is _REQUIRED:
                cases.append((prefix + key, put({k: v for k, v in value.items() if k != key}),
                              "required" + variant))
            given = value.get(key)
            walk(sub, _sample(sub) if given is None else given, prefix + key,
                 lambda v, key=key: put({**value, key: v}), variant)

    walk(F(_SCHEMA), asdict(load_config(minimal_config())), "", lambda v: v)
    # the root's wrong-type case (a top-level list) has no path to name
    return [(f"{path}:", {"_document": config}, f"{path}-{what}")
            for path, config, what in cases if path]


SCHEMA_CASES = _schema_cases()
TRACE_USERS = {"mode": "trace", "trace_file": "@t.csv", "nodes_file": "@n.csv"}
TRACE_NODES = "name,lat_deg,lon_deg\na,0,-75\n"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config({**minimal_config(), "frobnicate": 1})
        with pytest.raises(ConfigError, match=r"optimizer\.max_iteration\b"):
            load_config(minimal_config(optimizer={"max_iteration": 1}))
        with pytest.raises(ConfigError, match=r"routing\.policy\b"):
            load_config(minimal_config(routing={"policy": ["closest"]}))

    def test_field_precise_messages(self):
        with pytest.raises(ConfigError, match="users.mode"):
            load_config(minimal_config(users={"mode": "teleport"}))
        with pytest.raises(ConfigError, match="shells"):
            load_config(minimal_config(shells=[]))
        with pytest.raises(ConfigError, match="origins"):
            load_config(minimal_config(origins=[]))
        with pytest.raises(ConfigError, match=r"shells\[0\].gamma"):
            load_config(minimal_config(
                shells=[{"name": "x", "orbits": 1, "sats_per_orbit": 1,
                         "altitude_km": 550.0, "gamma": 0.5}], beta=1.0))
        with pytest.raises(ConfigError, match="candidates"):
            load_config(minimal_config(candidates="none_of_them"))


class TestRunScenario:
    def test_minimal_geo_scenario(self, tmp_path):
        out = tmp_path / "out"
        summary = run_scenario(minimal_config(), out)
        rows = read_csv(out / "no_replica_breakdown.csv")
        assert rows[0] == ["algorithm", "content", "metric", "query", "replication",
                           "storage", "total"]
        data = rows[1]
        assert data[0] == "no_replica"
        assert float(data[4]) == 0.0 and float(data[5]) == 0.0
        assert float(data[3]) > 0.0  # users query the origin via the satellite
        assert (out / "no_replica_schedule.csv").exists()
        assert (out / "no_replica_runtime.csv").exists()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["c_qmin"] == 1.0
        assert "lognormal_fallback" in meta["latency_source"]
        assert summary["no_replica"] > 0

    def test_multi_shell_usage_ratios(self, tmp_path):
        cfg = small_leo_config()
        cfg["shells"].append({"name": "meo", "orbits": 1, "sats_per_orbit": 10,
                              "altitude_km": 8062.0, "inclination_deg": 0.0,
                              "isl": False, "gamma": 1.0})
        cfg["algorithms"] = ["mtls"]
        out = tmp_path / "out"
        run_scenario(cfg, out)
        rows = read_csv(out / "mtls_usage.csv")
        assert rows[0] == ["algorithm", "shell", "usage_ratio"]
        shells = {r[1]: float(r[2]) for r in rows[1:]}
        assert set(shells) == {"leo", "meo"}
        total = sum(shells.values())
        assert total == 0.0 or abs(total - 1.0) < 1e-9

    def test_algorithms_metric_seed_overrides(self, tmp_path):
        out = tmp_path / "out"
        run_scenario(small_leo_config(), out, algorithms=["no_replica"],
                     metric="ideal", seed=11)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["resolved_config"]["metric"] == "ideal"
        assert meta["resolved_config"]["seed"] == 11
        assert list(meta["algorithms"]) == ["no_replica"]

    def test_candidate_restriction_modes(self, tmp_path):
        base = small_leo_config(horizon_slots=3)
        base["algorithms"] = ["naive_greedy"]
        sat_only = dict(base, candidates="satellites_only")
        run_scenario(sat_only, tmp_path / "sat")
        rows = read_csv(tmp_path / "sat" / "naive_greedy_schedule.csv")[1:]
        assert all(not r[2].startswith("gw/") for r in rows)

        gw_none = dict(base, candidates="gateways_only",
                       gateways={"list": []})
        run_scenario(gw_none, tmp_path / "none")
        rows = read_csv(tmp_path / "none" / "naive_greedy_schedule.csv")[1:]
        assert all(r[2].startswith("origin/") for r in rows)

    @pytest.mark.parametrize("candidates", ["both", "gateways_only"])
    @pytest.mark.parametrize("metric", ["hop", "ideal", "sampled"])
    def test_delivery_routes_on_one_ideal_path_oracle(self, tmp_path, monkeypatch, metric,
                                                      candidates):
        """With routing policies, the planning oracle is built first, without
        paths, and delivery routes on one more ``ideal`` oracle built with
        ``need_paths``, which never holds a full matrix. The delivery and
        replica-load files equal those of ``simulate_delivery`` on a
        separately built path oracle."""
        import satcdn.scenario as sc_mod
        from satcdn.delivery import simulate_delivery

        built, calls = [], []
        monkeypatch.setattr(sc_mod, "build_distance_oracle",
                            lambda *a, **k: calls.append((a[1:], k))
                            or built.append(build_distance_oracle(*a, **k)) or built[-1])
        cfg = small_leo_config(metric=metric, candidates=candidates,
                               algorithms=["no_replica", "naive_greedy", "mtols"],
                               routing={"policies": ["closest", "weighted_round_robin"],
                                        "server_capacity_mbps": 96.0})
        out = tmp_path / "out"
        run_scenario(cfg, out)
        assert calls == [((metric,), {}), (("ideal",), {"need_paths": True})]
        assert not built[0].has_paths
        assert not any(has_full(built[1], t) for t in range(1, built[1].slot_count + 1))

        sc = load_config(cfg)
        _opt, policies, links, qoe = sc_mod._settings(sc)
        network, catalog, demand = build_network(sc)
        oracle = build_distance_oracle(network.snapshots(demand.slot_count), "ideal",
                                       need_paths=True)
        for name in cfg["algorithms"]:
            rows = read_csv(out / f"{name}_schedule.csv")[1:]
            T = max(int(t) for _c, t, _n in rows)
            sets = {c: [tuple(sorted(oracle.index[n] for c2, t2, n in rows
                                     if (c2, int(t2)) == (c, t))) for t in range(1, T + 1)]
                    for c in demand.contents}
            sched = ReplicaSchedule(demand.contents, T, sets)
            drows, lrows = [], []
            for policy in policies:
                rep = simulate_delivery(sched, demand, policy, links, qoe, oracle, catalog)
                drows.extend((t, pol, q, rep.traffic_gb) for t, pol, q in rep.rows())
                lrows.extend(rep.replica_rows())
            assert lrows
            sc_mod._write_csv(tmp_path / "delivery.csv",
                              ["slot", "policy", "mean_qoe", "traffic_gb"], drows)
            sc_mod._write_csv(tmp_path / "load.csv", ["policy", "node_id", "requests", "gb"],
                              lrows)
            assert (out / f"{name}_delivery.csv").read_bytes() == \
                (tmp_path / "delivery.csv").read_bytes()
            assert (out / f"{name}_replica_load.csv").read_bytes() == \
                (tmp_path / "load.csv").read_bytes()

    def test_failed_algorithm_recorded_and_others_run(self, tmp_path, monkeypatch):
        import satcdn.scenario as sc_mod

        def boom(*a, **k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(sc_mod.SOLVERS, "pch", boom)
        cfg = small_leo_config(algorithms=["pch", "no_replica"])
        out = tmp_path / "out"
        run_scenario(cfg, out)
        meta = json.loads((out / "metadata.json").read_text())
        assert "pch" in meta["failures"]
        assert (out / "no_replica_breakdown.csv").exists()

    def test_prediction_mode_runs(self, tmp_path):
        cfg = small_leo_config(prediction={"mode": "moving_average", "window_slots": 1})
        cfg["algorithms"] = ["mtols", "pch"]
        out = tmp_path / "out"
        summary = run_scenario(cfg, out)
        assert set(summary) == {"mtols", "pch"}

    def test_moving_average_window_defaults_to_one(self, tmp_path):
        cfg = small_leo_config(prediction={"mode": "moving_average"}, algorithms=["mtols"])
        out = tmp_path / "out"
        assert set(run_scenario(cfg, out)) == {"mtols"}
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["resolved_config"]["prediction"] == {"mode": "moving_average",
                                                         "window_slots": 1}

    def test_seed_override_is_the_synthetic_gateway_seed_default(self, tmp_path):
        cfg = small_leo_config(algorithms=["no_replica"])
        del cfg["gateways"]["synthetic"]["seed"]
        run_scenario(cfg, tmp_path / "out", seed=11)
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert meta["resolved_config"]["gateways"]["synthetic"]["seed"] == 11

    def test_latency_sample_file_used(self, tmp_path):
        samples = tmp_path / "lat.csv"
        samples.write_text("latency_ms\n22.0\n31.5\n44.0\n")
        cfg = small_leo_config(metric="sampled", latency_samples_file=str(samples))
        cfg["algorithms"] = ["no_replica"]
        out = tmp_path / "out"
        run_scenario(cfg, out)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["latency_source"].startswith("measured_file")

    def test_gateway_file_input(self, tmp_path):
        gw = tmp_path / "gw.csv"
        gw.write_text("name,lat_deg,lon_deg\nkc,39.1,-94.6\nslc,40.8,-111.9\n")
        cfg = small_leo_config(gateways={"file": str(gw)})
        cfg["algorithms"] = ["no_replica"]
        out = tmp_path / "out"
        run_scenario(cfg, out)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["node_counts"]["gateways"] == 2

    def test_delivery_outputs(self, tmp_path):
        cfg = small_leo_config(routing={"policies": ["closest", "weighted_round_robin"]})
        cfg["algorithms"] = ["no_replica"]
        out = tmp_path / "out"
        run_scenario(cfg, out)
        rows = read_csv(out / "no_replica_delivery.csv")
        assert rows[0] == ["slot", "policy", "mean_qoe", "traffic_gb"]
        policies = {r[1] for r in rows[1:]}
        assert policies == {"closest", "weighted_round_robin"}
        assert (out / "no_replica_replica_load.csv").exists()

    def test_two_content_breakdown_sums_to_all(self, tmp_path):
        cfg = small_leo_config(routing={"policies": ["closest"]},
                               algorithms=["no_replica", "naive_greedy", "mtols"])
        cfg["users"] = {"mode": "population", "requests": 80,
                        "contents": ["content/a", "content/b"]}
        cfg["shells"][0].update(orbits=12, sats_per_orbit=12)
        out = tmp_path / "out"
        summary = run_scenario(cfg, out)
        meta = json.loads((out / "metadata.json").read_text())
        assert not meta["failures"] and set(summary) == set(cfg["algorithms"])
        for name in cfg["algorithms"]:
            rows = read_csv(out / f"{name}_breakdown.csv")[1:]
            per = [r for r in rows if r[1] != "ALL"]
            (total,) = [r for r in rows if r[1] == "ALL"]
            assert [r[1] for r in per] == ["content/a", "content/b"]
            for col in range(3, 7):
                assert sum(float(r[col]) for r in per) == pytest.approx(float(total[col]),
                                                                      rel=1e-12)
            assert float(per[0][3]) > 0 and float(per[1][3]) > 0
            assert float(total[6]) == summary[name]
        # each content's query term is its own demand against its own sets
        sc = load_config(cfg)
        network, _catalog, demand = build_network(sc)
        oracle = build_distance_oracle(network.snapshots(sc.horizon_slots), sc.metric)
        rows = read_csv(out / "mtols_schedule.csv")[1:]
        for c in ("content/a", "content/b"):
            sets = [tuple(sorted(oracle.index[r[2]] for r in rows
                                 if r[0] == c and int(r[1]) == t)) for t in (1, 2, 3, 4)]
            one = ReplicaSchedule([c], 4, {c: sets})
            want = query_cost(one, demand.only(c), oracle)
            got = [float(r[3]) for r in read_csv(out / "mtols_breakdown.csv")[1:] if r[1] == c]
            assert got == [want]


def masked_bytes(path: Path) -> bytes:
    """File bytes with wall-clock columns masked (runtime is the one
    legitimately non-deterministic output field)."""
    if path.name.endswith("_runtime.csv"):
        rows = read_csv(path)
        idx = rows[0].index("runtime_seconds")
        for r in rows[1:]:
            r[idx] = "X"
        return "\n".join(",".join(r) for r in rows).encode()
    return path.read_bytes()


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_leo_config(routing={"policies": ["closest"]})
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        a_files = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
        b_files = sorted(p.name for p in (tmp_path / "b").glob("*.csv"))
        assert a_files == b_files and a_files
        for name in a_files:
            assert masked_bytes(tmp_path / "a" / name) == \
                masked_bytes(tmp_path / "b" / name), name

    def test_resolved_config_round_trip(self, tmp_path):
        run_scenario(small_leo_config(), tmp_path / "a")
        meta = json.loads((tmp_path / "a" / "metadata.json").read_text())
        run_scenario(meta["resolved_config"], tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").glob("*.csv")):
            assert masked_bytes(tmp_path / "a" / name) == \
                masked_bytes(tmp_path / "b" / name), name

    def test_uint8_hop_storage_bundle_equals_float32_storage(self, tmp_path, monkeypatch):
        """A hop run over an 804-node network, every slot connected, so each
        slot's matrix is stored as uint8 hop counts, writes the bundle that
        storing the same counts in float32 (the oracle's dtype) writes."""
        from satcdn import costmodel
        from satcdn.placement import SOLVERS
        cfg = small_leo_config(
            horizon_slots=3, alpha=4.7, beta=1.0, algorithms=list(SOLVERS),
            routing={"policies": ["closest", "weighted_round_robin"]},
            shells=[{"name": "leo", "orbits": 36, "sats_per_orbit": 22, "altitude_km": 550.0,
                     "inclination_deg": 53.0, "gamma": 2.0}],
            users={"mode": "grid", "rows": 2, "cols": 3, "bbox": [28.0, -120.0, 45.0, -75.0],
                   "per_slot_demand": 40.0})
        bfs, stored = costmodel._hop_matrix, []

        def as_float32(graph, dtype):
            stored.append(bfs(graph, dtype))
            return stored[-1].astype(dtype)

        run_scenario(cfg, tmp_path / "counts")
        monkeypatch.setattr(costmodel, "_hop_matrix", as_float32)
        run_scenario(cfg, tmp_path / "floats")
        assert [D.dtype for D in stored] == [np.uint8] * 3
        names = sorted(p.name for p in (tmp_path / "counts").glob("*.csv"))
        assert len(names) == 5 * len(SOLVERS)
        for name in names:
            assert masked_bytes(tmp_path / "counts" / name) == \
                masked_bytes(tmp_path / "floats" / name), name
        meta = [json.loads((tmp_path / d / "metadata.json").read_text())
                for d in ("counts", "floats")]
        for m in meta:
            for alg in m["algorithms"].values():
                alg.pop("runtime_seconds")
        assert meta[0] == meta[1]


class TestCandidateRestrictionCost:
    def test_both_beats_gateways_only_on_satellite_favorable_instance(self, tmp_path):
        # cheap satellite storage and no gateway near the demand: opening the
        # candidate pool to satellites can only help the optimizer
        cfg = small_leo_config(alpha=2.0, beta=0.0, horizon_slots=4)
        cfg["shells"][0]["gamma"] = 0.1
        cfg["gateways"] = {"list": [{"name": "far", "lat_deg": -40.0,
                                     "lon_deg": 140.0}]}
        cfg["algorithms"] = ["mtls"]
        both = run_scenario(dict(cfg, candidates="both"), tmp_path / "both")
        gw_only = run_scenario(dict(cfg, candidates="gateways_only"), tmp_path / "gw")
        assert both["mtls"] <= gw_only["mtls"] + 1e-9


class TestSupersetDominance:
    def test_exhaustive_optimum_never_worse_with_more_candidates(self):
        oracle, demand, catalog, params = motion_instance(77, 2, 3, 2, alpha=1.2,
                                                          beta=0.1, gamma=0.2)
        origins = [int(i) for i in oracle.origins_idx]
        cands = [int(i) for i in oracle.candidates_idx]

        def exhaustive_best(cand_subset):
            best = np.inf
            options = []
            for r in range(len(cand_subset) + 1):
                options += [set(origins) | set(c)
                            for c in itertools.combinations(cand_subset, r)]
            for seq in itertools.product(options, repeat=2):
                sets = {"c0": [tuple(sorted(s)) for s in seq]}
                best = min(best, schedule_cost_ref(oracle, demand, catalog, params, sets))
            return best

        assert exhaustive_best(cands) <= exhaustive_best(cands[:1]) + 1e-9


class TestCLICommands:
    def test_run_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "no_replica" in capsys.readouterr().out

    @staticmethod
    def gen_demand(tmp_path, config):
        """Run ``gen-demand`` on ``config``; the exit code and the paths of
        the trace and nodes files."""
        cfg_path, trace, nodes = (tmp_path / n for n in ("cfg.json", "trace.csv", "nodes.csv"))
        cfg_path.write_text(json.dumps(config))
        rc = main(["gen-demand", "--config", str(cfg_path),
                   "--out-trace", str(trace), "--out-nodes", str(nodes)])
        return rc, trace, nodes

    @staticmethod
    def assert_exported(tmp_path, trace, nodes, users, demand):
        """The files hold the bytes ``save_trace`` writes for ``demand`` and
        one ``name,lat_deg,lon_deg`` line per user node."""
        save_trace(tmp_path / "want.csv", demand)
        assert trace.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert nodes.read_text() == "name,lat_deg,lon_deg\n" + "".join(
            f"{n.node_id},{n.latitude_deg},{n.longitude_deg}\n" for n in users)

    def test_gen_demand_grid_exports_the_config_demand(self, tmp_path):
        rc, trace, nodes = self.gen_demand(tmp_path, minimal_config(
            horizon_slots=4, users={"mode": "grid", "rows": 2, "cols": 3,
                                    "per_slot_demand": 1.5}))
        assert rc == 0
        users, _, demand = synth_grid_demand(2, 3, US_BBOX, 1.5, 4)
        self.assert_exported(tmp_path, trace, nodes, users, demand)
        assert load_trace(trace)[1].total() == pytest.approx(2 * 3 * 4 * 1.5)

    def test_gen_demand_population_exports_the_config_demand(self, tmp_path):
        rc, trace, nodes = self.gen_demand(tmp_path, minimal_config(
            seed=5, horizon_slots=3, users={"mode": "population", "requests": 500}))
        assert rc == 0
        users, weights = us_state_nodes()
        self.assert_exported(tmp_path, trace, nodes, users,
                             synth_population_demand(weights, 500, 3, 5))
        assert load_trace(trace, top_k=None)[1].total() == 500

    def test_gen_demand_exports_every_population_content(self, tmp_path):
        contents = ["video/a", "video/b"]
        rc, trace, nodes = self.gen_demand(tmp_path, minimal_config(
            seed=2, horizon_slots=3,
            users={"mode": "population", "requests": 300, "contents": contents}))
        assert rc == 0
        users, weights = us_state_nodes()
        demand = synth_population_demand(weights, 300, 3, 2, contents=contents)
        self.assert_exported(tmp_path, trace, nodes, users, demand)
        _, back = load_trace(trace, top_k=None)
        assert back.contents == contents and back.total() == 300

    def test_gen_demand_trace_has_unix_line_ends_and_round_trips(self, tmp_path):
        rc, trace, _nodes = self.gen_demand(tmp_path, minimal_config(
            seed=4, horizon_slots=3, users={"mode": "population", "requests": 200}))
        assert rc == 0
        data = trace.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")
        _, back = load_trace(trace, top_k=None)
        save_trace(tmp_path / "again.csv", back)  # the same rows, in load_trace's user order
        assert sorted((tmp_path / "again.csv").read_bytes().split(b"\n")) == \
            sorted(data.split(b"\n"))

    @pytest.mark.parametrize("field,over", [
        ("users.rows", {"users": {"mode": "grid", "rows": 0, "cols": 1}}),
        ("horizon_slots", {"horizon_slots": 0}),
        ("users.requests", {"users": {"mode": "population", "requests": -5}}),
        ("users.bbox", {"users": {"mode": "grid", "rows": 1, "cols": 1, "bbox": [1.0, 2.0]}}),
    ], ids=["rows_zero", "horizon_zero", "requests_negative", "bbox_two_numbers"])
    def test_gen_demand_bad_config_exit_code(self, tmp_path, capsys, field, over):
        rc, trace, nodes = self.gen_demand(tmp_path, minimal_config(**over))
        assert rc == 2 and not trace.exists() and not nodes.exists()
        assert capsys.readouterr().err.startswith(f"config error: {field}")

    def test_inspect_constellation(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_leo_config()))
        rc = main(["inspect-constellation", "--config", str(cfg_path),
                   "--slots", "2", "--out", str(tmp_path / "cov.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "36" in out and "period" in out
        assert (tmp_path / "cov.csv").exists()

    def test_inspect_builds_no_distance_oracle(self, tmp_path, monkeypatch):
        import satcdn.scenario as sc_mod

        def boom(*a, **k):
            raise AssertionError("inspect-constellation built a distance oracle")

        monkeypatch.setattr(sc_mod, "build_distance_oracle", boom)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_leo_config()))
        assert main(["inspect-constellation", "--config", str(cfg_path), "--slots", "2"]) == 0

    def test_compare_bundles(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "s1")])
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "s2"),
              "--seed", "9"])
        rc = main(["compare", str(tmp_path / "s1"), str(tmp_path / "s2"),
                   "--out", str(tmp_path / "cmp.csv")])
        assert rc == 0
        rows = read_csv(tmp_path / "cmp.csv")
        assert rows[0][0] == "scenario"
        assert {r[0] for r in rows[1:]} == {"s1", "s2"}

    @pytest.mark.parametrize("missing", ["no/such/dir", "empty"])
    def test_compare_rejects_a_path_without_a_bundle(self, tmp_path, capsys, missing):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config()))
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "s1")])
        (tmp_path / "empty").mkdir()
        rc = main(["compare", str(tmp_path / "s1"), str(tmp_path / missing),
                   "--out", str(tmp_path / "cmp.csv")])
        assert rc == 2 and not (tmp_path / "cmp.csv").exists()
        assert capsys.readouterr().err.startswith(f"missing file: {tmp_path / missing}")

    def test_trace_mode_end_to_end(self, tmp_path):
        rc, trace, nodes = self.gen_demand(tmp_path, small_leo_config(
            horizon_slots=3, users={"mode": "grid", "rows": 2, "cols": 2,
                                    "per_slot_demand": 4.0}))
        assert rc == 0
        cfg = small_leo_config()
        cfg["users"] = {"mode": "trace", "trace_file": str(trace),
                        "nodes_file": str(nodes)}
        del cfg["horizon_slots"]
        cfg["algorithms"] = ["no_replica", "mtols"]
        out = tmp_path / "out"
        summary = run_scenario(cfg, out)
        rows = read_csv(out / "mtols_breakdown.csv")
        assert len(rows) >= 3  # header + per-content + ALL
        assert summary["mtols"] <= summary["no_replica"] + 1e-9
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["node_counts"]["users"] == 4
        again = tmp_path / "again"
        again.mkdir()
        rc, trace2, nodes2 = self.gen_demand(again, cfg)  # a trace config re-exports itself
        assert rc == 0
        assert trace2.read_bytes() == trace.read_bytes()
        assert nodes2.read_bytes() == nodes.read_bytes()

    def test_gen_demand_trace_config_keeps_its_top_k_contents(self, tmp_path):
        (tmp_path / "n.csv").write_text(TRACE_NODES)
        (tmp_path / "t.csv").write_text("slot,user_node,content,demand\n"
                                        "1,user/a,small,1.0\n2,user/a,big,5.0\n")
        users = {**TRACE_USERS, "top_k": 1}
        config = json.loads(json.dumps(minimal_config(users=users))
                            .replace('"@', f'"{tmp_path}/'))
        rc, trace, _nodes = self.gen_demand(tmp_path, config)
        assert rc == 0
        assert read_csv(trace) == [["slot", "user_node", "content", "demand"],
                                   ["2", "user/a", "big", "5.0"]]

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        bad = minimal_config()
        bad["metric"] = "parsecs"
        cfg_path.write_text(json.dumps(bad))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "metric" in capsys.readouterr().err

    @pytest.mark.parametrize("field,over", [
        ("routing", {"routing": {"policies": ["closest"], "weights": [0.75, 0.25]}}),
        ("routing", {"routing": {"policies": ["closest"], "qoe_budget_s": 0}}),
        ("routing", {"routing": {"policies": ["closest"], "server_capacity_mbps": 0}}),
        ("routing", {"routing": {"policies": ["closest"], "server_capacity_mbps": -5}}),
        ("optimizer.max_iteration", {"optimizer": {"max_iteration": 1}}),
        ("optimizer: max_iterations", {"optimizer": {"max_iterations": 0}}),
        ("optimizer: improvement_tol", {"optimizer": {"improvement_tol": -0.5}}),
        ("optimizer: starfront_thresholds", {"optimizer": {"starfront_thresholds": []}}),
        ("shells[0]", {"shells": [{"name": "geo", "orbits": 0, "sats_per_orbit": 1,
                                   "altitude_km": 35786.0, "gamma": 10.0}]}),
        ("origins[0]: latitude", {"origins": [{"name": "main", "lat_deg": 200.0,
                                               "lon_deg": -75.0}]}),
        ("shells: shell names must be unique",
         {"shells": 2 * minimal_config()["shells"]}),
        ("lognormal_latency: ", {"lognormal_latency": {"median_ms": 40.0, "sigma": 0}}),
        ("optimizer.pch_inter_period_s: must be > 0", {"optimizer": {"pch_inter_period_s": 0}}),
        ("optimizer.pch_intra_period_s: must be > 0", {"optimizer": {"pch_intra_period_s": 0}}),
        ("gateways.list[0]: latitude", {"gateways": {"list": [{"name": "g", "lat_deg": -91.0,
                                                               "lon_deg": 0.0}]}}),
        ("origins: duplicate name 'main'",
         {"origins": 2 * [{"name": "main", "lat_deg": 10.0, "lon_deg": -75.0}]}),
        ("gateways.list: duplicate name 'g'",
         {"gateways": {"list": 2 * [{"name": "g", "lat_deg": 0.0, "lon_deg": -75.0}]}}),
        ("gateways.file: duplicate name 'g'",
         {"gateways": {"file": "@gw.csv"},
          "_files": {"gw.csv": "name,lat_deg,lon_deg\ng,0,-75\ng,1,-75\n"}}),
        ("gateways.file line 3: latitude",
         {"gateways": {"file": "@gw.csv"},
          "_files": {"gw.csv": "name,lat_deg,lon_deg\ng,0,-75\nh,100,-75\n"}}),
        ("gateways.file line 2: could not convert",
         {"gateways": {"file": "@gw.csv"},
          "_files": {"gw.csv": "name,lat_deg,lon_deg\ng,north,-75\n"}}),
        ("gateways.file line 2: latitude",
         {"gateways": {"file": "@gw.csv"},
          "_files": {"gw.csv": "name,lat_deg,lon_deg\ng,nan,-75\n"}}),
        ("gateways.file line 3: longitude",
         {"gateways": {"file": "@gw.csv"},
          "_files": {"gw.csv": "name,lat_deg,lon_deg\ng,0,-75\nh,0,-inf\n"}}),
        ("config: must be a JSON object", {"_document": [minimal_config()]}),
        ("horizon_slots: must be an integer", {"horizon_slots": "2"}),
        ("beta: must be a number", {"beta": None}),
        ("algorithms: must be a list", {"algorithms": "mtls"}),
        ("users.per_slot_demnd: unknown field",
         {"users": {"mode": "grid", "rows": 1, "cols": 1, "per_slot_demnd": 5}}),
        ("users.nodes_file: expected header",
         {"users": TRACE_USERS, "_files": {"n.csv": "nm,lat,lon\na,0,-75\n"}}),
        ("users.nodes_file line 3: expected fields name,lat_deg,lon_deg",
         {"users": TRACE_USERS, "_files": {"n.csv": "name,lat_deg,lon_deg\na,0,-75\nb,0\n"}}),
        ("users.nodes_file line 2: could not convert",
         {"users": TRACE_USERS, "_files": {"n.csv": "name,lat_deg,lon_deg\na,north,-75\n"}}),
        ("users.nodes_file line 2: latitude",
         {"users": TRACE_USERS, "_files": {"n.csv": "name,lat_deg,lon_deg\na,95,-75\n"}}),
        ("users.nodes_file line 2: expected fields name,lat_deg,lon_deg,weight",
         {"users": {"mode": "population", "requests": 5, "nodes_file": "@n.csv"},
          "_files": {"n.csv": "name,lat_deg,lon_deg,weight\na,0,-75\n"}}),
        ("users.trace_file: ", {"users": TRACE_USERS, "_files": {
            "n.csv": TRACE_NODES, "t.csv": "slot,user_node,content,demand\n1,user/a,c\n"}}),
        ("users.trace_file: ", {"users": TRACE_USERS, "_files": {
            "n.csv": TRACE_NODES, "t.csv": "slot,user_node,content,demand\n1,user/zz,c,1\n"}}),
        ("users.trace_file: ", {"users": TRACE_USERS, "_files": {
            "n.csv": TRACE_NODES, "t.csv": "slot,user_node,content,demand\n"}}),
        ("users.catalog_file: ", {"users": {**TRACE_USERS, "catalog_file": "@c.csv"}, "_files": {
            "n.csv": TRACE_NODES, "c.csv": "content,size_mb\nc,big\n"}}),
        ("latency_samples_file: ", {"latency_samples_file": "@lat.csv",
                                    "_files": {"lat.csv": "latency_ms\nfast\n"}}),
        ("latency_samples_file: ", {"latency_samples_file": "@lat.csv",
                                    "_files": {"lat.csv": "latency_ms\n"}}),
        ("users.trace_file: ", {"users": TRACE_USERS, "_says": "t.csv:3: demand", "_files": {
            "n.csv": TRACE_NODES, "t.csv": "slot,user_node,content,demand\n1,user/a,c,1\n"
                                           "2,user/a,c,nan\n"}}),
        ("users.trace_file: ", {"users": TRACE_USERS, "_says": "t.csv:2: demand", "_files": {
            "n.csv": TRACE_NODES, "t.csv": "slot,user_node,content,demand\n1,user/a,c,inf\n"}}),
        ("users.catalog_file: ", {"users": {**TRACE_USERS, "catalog_file": "@c.csv"},
                                  "_says": "c.csv:2: size", "_files": {
            "n.csv": TRACE_NODES, "c.csv": "content,size_mb\nc,nan\n"}}),
        ("latency_samples_file: ", {"latency_samples_file": "@lat.csv",
                                    "_says": "lat.csv:3: latency",
                                    "_files": {"lat.csv": "latency_ms\n12.5\ninf\n"}}),
        ("latency_samples_file: ", {"latency_samples_file": "@lat.csv",
                                    "_says": "lat.csv:2: latency",
                                    "_files": {"lat.csv": "latency_ms\nnan\n"}}),
        ("seed: must be >= 0", {"seed": -1, "metric": "sampled"}),
        ("users.top_k: must be >= 1", {"users": {**TRACE_USERS, "top_k": 0}}),
        ("users.contents: must list at least 1",
         {"users": {"mode": "population", "requests": 5, "contents": []}}),
    ] + [(field, over) for field, over, _ in SCHEMA_CASES],
        ids=["routing_weights", "qoe_budget_zero", "capacity_zero", "capacity_negative",
             "optimizer_typo", "optimizer_value", "improvement_tol_negative",
             "starfront_thresholds_empty",
             "orbits_zero", "origin_latitude", "duplicate_shell_names", "lognormal_sigma_zero",
             "pch_inter_period_zero", "pch_intra_period_zero",
             "gateway_latitude", "duplicate_origin_names", "duplicate_gateway_names",
             "duplicate_gateway_file_names", "gateway_file_latitude", "gateway_file_not_a_number",
             "gateway_file_nan_latitude", "gateway_file_inf_longitude",
             "top_level_list", "horizon_as_string", "beta_null", "algorithms_as_string",
             "users_typo", "nodes_file_header", "nodes_file_short_row", "nodes_file_not_a_number",
             "nodes_file_latitude", "nodes_file_short_weighted_row", "trace_short_row",
             "trace_unknown_user", "trace_no_rows",
             "catalog_not_a_number", "latency_not_a_number",
             "latency_file_empty", "nan_demand", "inf_demand", "nan_catalog_size",
             "inf_latency_sample", "nan_latency_sample", "negative_seed", "top_k_zero",
             "no_contents"] + [case_id for *_, case_id in SCHEMA_CASES])
    def test_bad_settings_exit_code_before_any_solver(self, tmp_path, capsys, monkeypatch,
                                                      field, over):
        import satcdn.scenario as sc_mod

        called = []
        monkeypatch.setitem(sc_mod.SOLVERS, "no_replica", lambda *a, **k: called.append(a))
        over = dict(over)
        says = over.pop("_says", "")  # and the message names this file line
        for name, text in over.pop("_files", {}).items():  # "@name" is tmp_path / name
            (tmp_path / name).write_text(text)
        config = over.pop("_document") if "_document" in over else minimal_config(**over)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config).replace('"@', f'"{tmp_path}/'))
        rc = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2 and not called
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}") and says in err

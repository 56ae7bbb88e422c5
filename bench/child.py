"""One measured run of one workload, in a fresh interpreter.

Started by ``bench/run.py`` from the checkout root with the generated spec.
It imports satcdn from ``src/``, times the run, optionally records spans
(``--trace 1``), then checks the outputs and writes one JSON result.

The run starts at the first call into satcdn (``run_scenario`` for the runner
workloads; ``us_state_nodes`` for the library one) and ends when the bundle
is written or the last ``total_cost`` returns. Set-up is everything before
it, measured from when the parent spawned this process.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, instrument, peak_rss_mib  # noqa: E402

REL_TOL = 1e-9


def import_satcdn(root: Path):
    """Import satcdn from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import satcdn
    if src not in Path(satcdn.__file__).resolve().parents:
        raise SystemExit(f"satcdn imported from {satcdn.__file__}, not from {src}")
    return satcdn


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def schedule_from_rows(rows, contents, slot_count, index):
    """Rebuild a ReplicaSchedule from (content, slot, node_id) rows."""
    from satcdn import ReplicaSchedule
    sets = {c: [[] for _ in range(slot_count)] for c in contents}
    for c, t, node in rows:
        sets[c][int(t) - 1].append(index[node])
    return ReplicaSchedule(list(contents), slot_count,
                           {c: [tuple(sorted(s)) for s in v] for c, v in sets.items()})


class Checks:
    """Operations attempted and their outcomes; every failure is counted."""

    def __init__(self):
        self.ops: list[tuple[str, bool, str]] = []

    def record(self, name: str, fn) -> None:
        try:
            detail = fn()
            self.ops.append((name, detail is None, detail or ""))
        except Exception as exc:
            self.ops.append((name, False, repr(exc)))


def _masked(path: Path) -> bytes:
    """Bundle file bytes with the wall-clock fields masked."""
    if path.name.endswith("_runtime.csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        idx = rows[0].index("runtime_seconds")
        for r in rows[1:]:
            r[idx] = "X"
        return "\n".join(",".join(r) for r in rows).encode()
    if path.name == "metadata.json":
        meta = json.loads(path.read_text())
        for entry in meta["algorithms"].values():
            entry["runtime_seconds"] = "X"
        return json.dumps(meta, sort_keys=True).encode()
    return path.read_bytes()


def bundle_digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0" + _masked(p) + b"\0")
    return h.hexdigest()


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


# -- runner workloads --------------------------------------------------------

def run_runner(sc, spec, config, out: Path, tracer):
    """Time ``run_scenario`` on the generated config.

    The planning oracle is kept for the checks through a pass-through hook on
    ``scenario.build_distance_oracle`` (it times nothing, so untraced runs
    have it too); rebuilding the oracle would cost as much as the run.
    """
    kept = []
    import satcdn.scenario as scenario
    build = scenario.build_distance_oracle

    def keep(*args, **kwargs):
        oracle = build(*args, **kwargs)
        if not kwargs.get("need_paths"):
            kept.append(oracle)
        return oracle

    scenario.build_distance_oracle = keep
    error = None
    root = tracer.begin("scenario.run") if tracer else None
    t0 = time.perf_counter()
    try:
        sc.run_scenario(config, out)
    except Exception:
        error = traceback.format_exc()
    run_s = time.perf_counter() - t0
    if root:
        tracer.end(root)
    scenario.build_distance_oracle = build
    return run_s, error, lambda checks: check_runner(sc, config, spec, out, kept, checks)


def check_runner(sc, config, spec, out: Path, kept, checks: Checks):
    meta = json.loads((out / "metadata.json").read_text())
    oracle = kept[0]
    users = [r[0] for r in _read_csv(Path(config["users"]["nodes_file"]))]
    catalog, demand = sc.load_trace(config["users"]["trace_file"], known_users=users)
    params = sc.CostParams.from_oracle(
        oracle, alpha=config["alpha"], beta=config["beta"],
        gamma={i: s["gamma"] for i, s in enumerate(config["shells"])})
    totals = {}
    for name in spec["algorithms"]:
        def ran(name=name):
            if name in meta["failures"]:
                return meta["failures"][name]
            return None if name in meta["algorithms"] else "no result"
        checks.record(f"{name}.run", ran)
        for pol in spec["policies"]:
            def delivered(name=name, pol=pol):
                rows = [r for r in _read_csv(out / f"{name}_delivery.csv") if r[1] == pol]
                if len(rows) != demand.slot_count or not all(math.isfinite(float(r[2]))
                                                             for r in rows):
                    return f"{len(rows)} slot rows for {pol}"
            checks.record(f"{name}.{pol}", delivered)

        def schedule(name=name):
            return schedule_from_rows(_read_csv(out / f"{name}_schedule.csv"),
                                      demand.contents, demand.slot_count, oracle.index)

        checks.record(f"{name}.validate", lambda: schedule().validate(oracle))

        def cost(name=name):
            all_row = [r for r in _read_csv(out / f"{name}_breakdown.csv") if r[1] == "ALL"]
            written = totals[name] = float(all_row[0][6])
            again = sc.total_cost(schedule(), demand, catalog, oracle, params).total
            if not (_close(again, written)
                    and _close(written, meta["algorithms"][name]["total_cost"])):
                return f"recomputed {again!r}, written {written!r}"
        checks.record(f"{name}.cost", cost)
    return totals, bundle_digest(out)


# -- library workload --------------------------------------------------------

def run_library(sc, spec, config, out: Path, tracer):
    root = tracer.begin("scenario.run") if tracer else None
    t0 = time.perf_counter()
    state = {"results": {}, "totals": {}, "failures": {}}
    error = None
    try:
        users, _weights = sc.demand.us_state_nodes()
        catalog, demand = sc.load_trace(spec["trace"], known_users=[u.node_id for u in users],
                                        top_k=None, catalog=sc.demand.load_catalog(spec["catalog"]))
        gw = spec["gateways"]
        gateways = sc.demand.random_ground_sites(gw["count"], gw["bbox"], seed=gw["seed"])
        o = spec["origin"]
        origin = [sc.GroundNode(f"origin/{o['name']}", "origin", o["lat_deg"], o["lon_deg"])]
        shells = [getattr(sc, s)() if isinstance(s, str) else sc.ShellSpec(**s)
                  for s in spec["shells"]]
        net = sc.Network(shells, gateways + origin + users, slot_seconds=300, seed=7)
        oracle = sc.build_distance_oracle(net.snapshots(spec["slots"]), spec["metric"])
        params = sc.CostParams.from_oracle(oracle, alpha=50.0, beta=1.0,
                                           gamma=dict(enumerate(spec["gammas"])))
        state.update(oracle=oracle, demand=demand, catalog=catalog, params=params)
        for name in spec["algorithms"]:
            try:
                res = sc.SOLVERS[name](demand, oracle, params, sc.OptimizerConfig(),
                                       catalog=catalog)
                sc.costmodel.disconnected_users(res.schedule, demand, oracle)
                state["totals"][name] = sc.total_cost(res.schedule, demand, catalog,
                                                      oracle, params).total
                state["results"][name] = res
            except Exception as exc:
                state["failures"][name] = repr(exc)
    except Exception:
        error = traceback.format_exc()
    run_s = time.perf_counter() - t0
    if root:
        tracer.end(root)
    return run_s, error, lambda checks: check_library(sc, spec, state, checks)


def check_library(sc, spec, state, checks: Checks):
    oracle, demand = state["oracle"], state["demand"]
    h = hashlib.sha256()
    for name in spec["algorithms"]:
        checks.record(f"{name}.run", lambda name=name: state["failures"].get(name)
                      or (None if name in state["results"] else "no result"))
        res = state["results"].get(name)
        rows = list(res.schedule.to_rows(oracle.ids)) if res else []
        checks.record(f"{name}.validate", lambda: res.schedule.validate(oracle))

        def cost(name=name, rows=rows):
            sched = schedule_from_rows(rows, demand.contents, demand.slot_count, oracle.index)
            again = sc.total_cost(sched, demand, state["catalog"], oracle, state["params"]).total
            if not _close(again, state["totals"][name]):
                return f"recomputed {again!r}, returned {state['totals'][name]!r}"
        checks.record(f"{name}.cost", cost)
        if res:
            st = res.stats
            h.update(repr((name, rows, state["totals"][name], st.iterations, st.relaxations,
                           st.orbit_relaxations)).encode())
    return dict(state["totals"]), h.hexdigest()


# -- entry point -------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before spawning")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="exit at the first call into satcdn (set-up time only)")
    args = ap.parse_args(argv)

    sc = import_satcdn(Path.cwd())
    spec = json.loads(Path(args.spec).read_text())
    config = json.loads(Path(spec["config"]).read_text()) if "config" in spec else None
    run = run_runner if spec["api"] == "runner" else run_library
    tracer = Tracer() if args.trace else None
    restore = instrument(tracer) if tracer else None
    result = {"workload": spec["name"], "trace": args.trace,
              "setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    out = Path(args.out)
    run_s, error, check = run(sc, spec, config, out, tracer)
    result.update(run_s=run_s, peak_rss_mib=peak_rss_mib())
    if restore:
        restore()
        result["spans"] = [vars(s) for s in tracer.spans]

    checks = Checks()
    if error is None:
        totals, digest = check(checks)
        result.update(totals=totals, digest=digest)
    else:
        print(error, file=sys.stderr)
        checks.ops.append(("run", False, error.strip().splitlines()[-1]))
    result["ops"] = checks.ops
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

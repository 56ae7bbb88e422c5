"""Command-line scenario runner.

Subcommands:
  run                    execute a scenario config and write result CSVs
  gen-demand             export a scenario config's users and demand as trace files
  inspect-constellation  print coverage / visibility / period summaries
  compare                join several result bundles into one table

``satcdn gen-demand --config scenario.json --out-trace trace.csv
[--out-nodes nodes.csv]`` writes the users and demand that ``run`` would
build from the config, in the files a ``trace`` config reads.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import constellation as cst
from . import demand as dm
from .costmodel import METRICS
from .scenario import ConfigError, build_network, load_config, run_scenario


def _cmd_run(args) -> int:
    algorithms = args.algorithms.split(",") if args.algorithms else None
    summary = run_scenario(args.config, args.out, algorithms=algorithms,
                           metric=args.metric, seed=args.seed)
    for name, total in summary.items():
        print(f"{name:>14s}  total={total:.6g}")
    print(f"results written to {args.out}")
    return 0


def _cmd_gen_demand(args) -> int:
    net, _catalog, demand = build_network(load_config(args.config))
    dm.save_trace(args.out_trace, demand)
    if args.out_nodes:
        with open(args.out_nodes, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "lat_deg", "lon_deg"])
            for n in net.ground_nodes:
                if n.kind == "user_region":
                    writer.writerow([n.node_id, n.latitude_deg, n.longitude_deg])
    print(f"wrote {demand.slot_count} slots x {len(demand.users)} users to {args.out_trace}")
    return 0


def _cmd_inspect(args) -> int:
    net, _catalog, demand = build_network(load_config(args.config))
    nt = net.nodes
    print(f"network: {nt.n_sats} satellites, {nt.gateways_idx.size} gateways, "
          f"{nt.origins_idx.size} origins, {nt.users_idx.size} user regions")
    for con in net.constellations:
        spec = con.spec
        period_min = (cst.SIDEREAL_DAY_S if spec.is_geostationary
                      else cst.orbital_period_s(spec.altitude_km)) / 60.0
        print(f"shell {spec.name}: {spec.orbit_count}x{spec.sats_per_orbit} sats at "
              f"{spec.altitude_km:.0f} km, inclination {spec.inclination_deg:.1f} deg, "
              f"period {period_min:.1f} min, ISLs {'on' if spec.isl else 'off'}, "
              f"min elevation {spec.min_elevation_deg:.0f} deg")
    slots = min(args.slots, demand.slot_count or args.slots)
    rows = []
    for t in range(1, slots + 1):
        snap = net.snapshot(t)
        deg = snap.degrees()
        user_vis = deg[nt.users_idx] if nt.users_idx.size else np.array([0])
        gw_vis = deg[nt.gateways_idx] if nt.gateways_idx.size else np.array([0])
        isl_deg = snap.isl_degrees()[nt.satellites_idx] if nt.n_sats else np.array([0])
        rows.append((t, snap.n_edges, float(user_vis.min()), float(user_vis.mean()),
                     float(gw_vis.mean()), float(isl_deg.max(initial=0))))
        print(f"slot {t}: {snap.n_edges} edges; user links min/mean = "
              f"{user_vis.min()}/{user_vis.mean():.1f}; gateway links mean = "
              f"{gw_vis.mean():.1f}; max ISL degree = {isl_deg.max(initial=0)}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["slot", "edges", "user_links_min", "user_links_mean",
                             "gateway_links_mean", "max_isl_degree"])
            writer.writerows(rows)
    return 0


def _cmd_compare(args) -> int:
    rows = []
    for bundle in args.bundles:
        bundle = Path(bundle)
        paths = sorted(bundle.glob("*_breakdown.csv"))
        if not paths:
            raise FileNotFoundError(f"{bundle}: no *_breakdown.csv result files")
        for path in paths:
            with open(path, newline="") as fh:
                reader = csv.DictReader(fh)
                for rec in reader:
                    if rec["content"] == "ALL":
                        rows.append((bundle.name, rec["algorithm"], rec["metric"],
                                     rec["query"], rec["replication"], rec["storage"],
                                     rec["total"]))
    header = ["scenario", "algorithm", "metric", "query", "replication", "storage", "total"]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    widths = [max(len(str(r[i])) for r in rows + [tuple(header)]) for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="satcdn",
                                     description="Replica placement for moving satellite networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True, help="scenario JSON path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--algorithms", default=None, help="comma-separated algorithm list")
    p_run.add_argument("--metric", default=None, choices=METRICS)
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-demand", help="export a scenario's users and demand")
    p_gen.add_argument("--config", required=True, help="scenario JSON path")
    p_gen.add_argument("--out-trace", required=True, dest="out_trace")
    p_gen.add_argument("--out-nodes", default=None, dest="out_nodes")
    p_gen.set_defaults(func=_cmd_gen_demand)

    p_ins = sub.add_parser("inspect-constellation", help="coverage/visibility summary")
    p_ins.add_argument("--config", required=True)
    p_ins.add_argument("--slots", type=int, default=6)
    p_ins.add_argument("--out", default=None)
    p_ins.set_defaults(func=_cmd_inspect)

    p_cmp = sub.add_parser("compare", help="join result bundles into one table")
    p_cmp.add_argument("bundles", nargs="+")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

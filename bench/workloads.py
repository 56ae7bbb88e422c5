"""Benchmark workloads and their seeded input generators.

Each workload is a fixed network and algorithm set; the benchmark's ``--seed``
only draws the demand (and, for the catalog workload, content sizes). The
generated files are all the program receives: a scenario config plus trace and
nodes CSVs for the runner workloads, and a trace plus catalog CSV for the
library workload. Generation is pure NumPy and CSV writing, so the same seed
gives byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

US_BBOX = (25.0, -125.0, 49.0, -67.0)
ORIGIN = {"name": "east", "lat_deg": 39.0, "lon_deg": -77.0}
GATEWAYS = {"count": 20, "bbox": list(US_BBOX), "seed": 42}
STARLINK = {"name": "starlink", "orbits": 72, "sats_per_orbit": 22, "altitude_km": 550.0,
            "inclination_deg": 53.0, "gamma": 10.0}
BASELINES = ("naive_greedy", "jms_greedy", "local_search", "starfront", "pch")
ROOT = Path(__file__).resolve().parent.parent
STATES_CSV = ROOT / "src" / "satcdn" / "data" / "us_states.csv"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``api`` is ``runner`` (``run_scenario`` on a generated config) or
    ``library`` (the public API called step by step, as in the README quick
    start). ``shells`` are scenario-config shell dicts for the runner, and
    ``ShellSpec`` keyword dicts or preset names for the library.
    """

    name: str
    why: str
    api: str
    shells: tuple
    slots: int
    metric: str
    algorithms: tuple[str, ...]
    policies: tuple[str, ...] = ()
    grid: tuple[int, int] = (5, 10)
    volume: tuple[float, float] = (2.0, 12.0)
    contents: int = 1
    zipf: float = 0.8
    requests_per_slot: float = 0.0
    gammas: tuple[float, ...] = (10.0,)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper_hop_mtls",
        why="Starlink 72x22 paper instance via run_scenario, hop metric, 8 slots: the hop APSP "
            "oracle and the MTLS DP take the run; delivery is bypassed",
        api="runner", shells=(STARLINK,), slots=8, metric="hop",
        algorithms=("no_replica", "mtols", "mtls")),
    Workload(
        name="paper_ideal_delivery",
        why="same network via run_scenario, ideal metric, 4 slots, five baselines + mtols, "
            "closest and WRR routing: two full oracles and per-request routing; MTLS bypassed",
        api="runner", shells=(STARLINK,), slots=4, metric="ideal",
        algorithms=BASELINES + ("no_replica", "mtols"),
        policies=("closest", "weighted_round_robin"), volume=(10.0, 30.0)),
    Workload(
        # run_scenario raises KeyError on any scenario with more than one content
        # (it costs a one-content schedule against the full demand), so this
        # workload drives the library API instead of `satcdn run`.
        name="multishell_catalog",
        why="LEO 24x12 + o3b + viasat, 48 US states, 16 Zipf contents, sampled metric, 12 "
            "slots, library API: small oracle shared by 16 per-content MTLS problems",
        api="library",
        shells=({"orbit_count": 24, "sats_per_orbit": 12, "altitude_km": 550.0,
                 "inclination_deg": 53.0, "name": "leo"}, "o3b", "viasat"),
        slots=12, metric="sampled",
        algorithms=("naive_greedy", "local_search", "mtols", "mtls"),
        contents=16, requests_per_slot=500.0, gammas=(10.0, 4.0, 2.0)),
)}


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def grid_users(rows: int, cols: int, bbox=US_BBOX) -> list[tuple[str, float, float]]:
    """User regions at the centres of a rows x cols grid over ``bbox``.

    Same ids and positions as ``satcdn.demand.synth_grid_demand``.
    """
    lat_min, lon_min, lat_max, lon_max = bbox
    dlat, dlon = (lat_max - lat_min) / rows, (lon_max - lon_min) / cols
    return [(f"user/r{r}c{c}", lat_min + (r + 0.5) * dlat, lon_min + (c + 0.5) * dlon)
            for r in range(rows) for c in range(cols)]


def state_weights() -> list[tuple[str, float]]:
    """(user id, population weight) of the US-state regions bundled with satcdn."""
    with open(STATES_CSV, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(f"user/{row[0]}", float(row[3])) for row in reader if row]


def generate(w: Workload, seed: int, draw: int, out: Path) -> Path:
    """Write draw ``draw`` of ``w``'s inputs for ``seed`` under ``out``; return the
    child's spec file. Draws are independent samples of the same distributions.

    Paths inside the generated files are relative to the checkout root, where
    the children run, so bundles from two checkouts compare byte for byte.
    """
    out.mkdir(parents=True, exist_ok=True)
    rel = Path(os.path.relpath(out.resolve(), ROOT))
    rng = np.random.default_rng([seed, draw, zlib.crc32(w.name.encode())])
    trace = out / "trace.csv"
    spec = {"name": w.name, "api": w.api, "algorithms": list(w.algorithms),
            "policies": list(w.policies), "metric": w.metric, "trace": str(rel / "trace.csv")}

    if w.api == "runner":
        users = grid_users(*w.grid)
        volumes = rng.uniform(w.volume[0], w.volume[1], size=len(users))
        _write_csv(out / "nodes.csv", ["name", "lat_deg", "lon_deg"],
                   [(u, repr(lat), repr(lon)) for u, lat, lon in users])
        _write_csv(trace, ["slot", "user_node", "content", "demand"],
                   [(t, u, "content/0", repr(float(v))) for t in range(1, w.slots + 1)
                    for (u, _, _), v in zip(users, volumes)])
        config = {
            "seed": 7, "slot_seconds": 300, "horizon_slots": w.slots, "metric": w.metric,
            "alpha": 50.0, "beta": 1.0, "shells": list(w.shells),
            "gateways": {"synthetic": GATEWAYS}, "origins": [ORIGIN],
            "users": {"mode": "trace", "trace_file": str(rel / "trace.csv"),
                      "nodes_file": str(rel / "nodes.csv")},
            "algorithms": list(w.algorithms),
            "routing": {"policies": list(w.policies)},
        }
        (out / "scenario.json").write_text(json.dumps(config, indent=1, sort_keys=True))
        spec["config"] = str(rel / "scenario.json")
    else:
        users = state_weights()
        pop = np.array([p for _, p in users])
        ranks = rng.permutation(w.contents) + 1
        popularity = ranks ** -w.zipf / np.sum(ranks ** -w.zipf)
        rate = w.requests_per_slot * np.outer(pop / pop.sum(), popularity)
        counts = rng.poisson(rate[:, :, None], size=rate.shape + (w.slots,))
        names = [f"content/{c:02d}" for c in range(w.contents)]
        _write_csv(trace, ["slot", "user_node", "content", "demand"],
                   [(t + 1, users[u][0], names[c], f"{int(counts[u, c, t])}.0")
                    for t in range(w.slots) for u in range(len(users))
                    for c in range(w.contents) if counts[u, c, t]])
        sizes = rng.uniform(0.5, 4.0, size=w.contents)
        _write_csv(out / "catalog.csv", ["content", "size_mb"],
                   [(c, repr(float(s))) for c, s in zip(names, sizes)])
        spec.update(catalog=str(rel / "catalog.csv"), shells=list(w.shells), slots=w.slots,
                    gateways=GATEWAYS, origin=ORIGIN, gammas=list(w.gammas))

    path = out / "spec.json"
    path.write_text(json.dumps(spec, indent=1, sort_keys=True))
    return path

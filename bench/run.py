"""satcdn benchmark: run one workload (or all) and print every metric.

    python3 bench/run.py --workload paper_hop_mtls --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; satcdn is imported from ``src/``.
Inputs are generated from ``--seed`` under ``.bench_work/``. Every measured
run is a fresh child process (``bench/child.py``), started one after another.

``--trace 0`` reports the end-to-end metrics: set-up time (median over a few
set-up-only children plus the full runs), run time and peak RSS (medians over
the full runs that fit in ``--seconds``). Each full run gets a fresh draw of
inputs, so the medians mix several draws. ``--trace 1`` runs each draw untraced
and then traced, and reports per-layer metrics from spans recorded around
satcdn's public entry points: times as medians over the traced runs, counts
from draw 0, whose inputs are the same in every run of a seed.

Every child's outputs are checked; failed checks, failed algorithms and
crashes count in ``failed``. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Span, layer_self_times  # noqa: E402
from workloads import ROOT, WORKLOADS, Workload, generate  # noqa: E402

WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0
MIB = "MiB"

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", MIB))


# -- per-layer metrics from spans --------------------------------------------

def expected_layer_metrics(w: Workload) -> list[tuple[str, str]]:
    """Every per-layer metric ``w``'s traced run should produce, with units."""
    out = [("constellation.snapshots_s", "s"), ("constellation.snapshots_calls", "count"),
           ("constellation.self_s", "s"),
           ("demand.load_s", "s"), ("demand.self_s", "s"),
           ("costmodel.oracle_s", "s"), ("costmodel.oracle_mb", MIB),
           ("costmodel.oracle_rss_mb", MIB), ("costmodel.c_qmin_s", "s"),
           ("costmodel.eval_s", "s"), ("costmodel.eval_calls", "count"),
           ("costmodel.self_s", "s")]
    for alg in w.algorithms:
        out += [(f"placement.{alg}_s", "s"), (f"placement.{alg}.iterations", "count")]
    if "mtls" in w.algorithms:
        out += [("placement.mtls.dp_relaxations", "count"),
                ("placement.mtls.relaxations_per_s", "1/s")]
    if "mtols" in w.algorithms:
        out += [("placement.mtols.dp_relaxations", "count"),
                ("placement.mtols.orbit_relaxations", "count")]
    if {"mtls", "mtols"} <= set(w.algorithms):
        out.append(("placement.mtls_over_mtols", "ratio"))
    out.append(("placement.self_s", "s"))
    if w.policies:
        out += [("delivery.oracle_s", "s"), ("delivery.oracle_mb", MIB),
                ("delivery.oracle_rss_mb", MIB)]
        out += [(f"delivery.simulate.{p}_s", "s") for p in w.policies]
        out += [("delivery.requests", "count"), ("delivery.requests_per_s", "1/s"),
                ("delivery.unreachable_requests", "count"), ("delivery.self_s", "s")]
    return out + [("scenario.self_s", "s"), ("trace.run_s", "s"), ("trace.overhead_s", "s")]


# The per-layer metrics every workload produces: the ones the JSON line
# carries and BENCHMARK.json lists. The rest are printed above it.
COMMON_LAYER = tuple(m for m in expected_layer_metrics(next(iter(WORKLOADS.values())))
                     if all(m in expected_layer_metrics(w) for w in WORKLOADS.values()))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced run. A metric whose spans are absent
    is left out, so callers can report it as missing."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    m: dict[str, float] = {}

    def put(key, name, value=lambda ss: sum(s.duration for s in ss)):
        if name in by_name:
            m[key] = value(by_name[name])

    def attr(key):
        return lambda ss: sum(s.attrs[key] for s in ss)

    put("constellation.snapshots_s", "constellation.snapshots")
    put("constellation.snapshots_calls", "constellation.snapshots", len)
    put("demand.load_s", "demand.load")
    for layer in ("costmodel", "delivery"):
        put(f"{layer}.oracle_s", f"{layer}.oracle")
        put(f"{layer}.oracle_mb", f"{layer}.oracle", attr("mib"))
        put(f"{layer}.oracle_rss_mb", f"{layer}.oracle", attr("rss_growth_mib"))
    put("costmodel.c_qmin_s", "costmodel.c_qmin")
    put("costmodel.eval_s", "costmodel.eval")
    put("costmodel.eval_calls", "costmodel.eval", len)
    for name in by_name:
        if name.startswith("placement."):
            alg = name.split(".", 1)[1]
            put(f"placement.{alg}_s", name)
            put(f"placement.{alg}.iterations", name, attr("iterations"))
    put("placement.mtls.dp_relaxations", "placement.mtls", attr("dp_relaxations"))
    put("placement.mtols.dp_relaxations", "placement.mtols", attr("dp_relaxations"))
    put("placement.mtols.orbit_relaxations", "placement.mtols", attr("orbit_relaxations"))
    if "placement.mtls_s" in m:
        m["placement.mtls.relaxations_per_s"] = \
            m["placement.mtls.dp_relaxations"] / m["placement.mtls_s"]
        if "placement.mtols_s" in m:
            m["placement.mtls_over_mtols"] = m["placement.mtls_s"] / m["placement.mtols_s"]
    sims = [s for s in spans if s.name.startswith("delivery.simulate.")]
    for s in sims:
        key = f"{s.name}_s"
        m[key] = m.get(key, 0.0) + s.duration
    if sims:
        m["delivery.requests"] = sum(s.attrs["requests"] for s in sims)
        m["delivery.requests_per_s"] = m["delivery.requests"] / sum(s.duration for s in sims)
        m["delivery.unreachable_requests"] = sum(s.attrs["unreachable"] for s in sims)
    for layer, value in layer_self_times(spans).items():
        m[f"{layer}.self_s"] = value
    put("trace.run_s", "scenario.run")
    return m


# -- children -----------------------------------------------------------------

def run_child(spec: Path, work: Path, tag: str, *, trace: int, setup_only: bool = False,
              timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one child to completion and return its result (or a crash record)."""
    out, result = work / f"bundle-{tag}", work / f"result-{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--spec", str(spec), "--out", str(out),
           "--result", str(result), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        crash = None if proc.returncode == 0 else \
            f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1:]}"
    except subprocess.TimeoutExpired:
        crash = f"timed out after {timeout:.0f} s"
    shutil.rmtree(out, ignore_errors=True)
    if crash is None and result.exists():
        return json.loads(result.read_text())
    crash = crash or "no result written"
    return {"crash": crash, "ops": [("run", False, crash)]}


def _median(values):
    return statistics.median(values) if values else None


def measure(w: Workload, seed: int, seconds: float, trace: int, *,
            probes: int = SETUP_PROBES, work_root: Path = WORK):
    """Run ``w`` for about ``seconds``; return (metrics, children, sample counts).

    Each round generates a fresh input draw and runs it once untraced (and,
    with ``trace``, once traced), so the medians mix several draws. Spans of
    traced runs are kept under ``work_root/spans/``.
    """
    work = work_root / f"{w.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    start = time.monotonic()
    children: list[dict] = []
    setups: list[float] = []
    if not trace:
        spec = generate(w, seed, 0, work / "inputs-0")
        for i in range(probes):
            res = run_child(spec, work, f"probe{i}", trace=0, setup_only=True)
            if "setup_s" in res:
                setups.append(res["setup_s"])
    for draw in itertools.count():
        t_draw = time.monotonic()
        spec = generate(w, seed, draw, work / f"inputs-{draw}")
        for mode in (0, 1) if trace else (0,):
            budget = CHILD_TIMEOUT_S - (time.monotonic() - start)
            children.append(dict(run_child(spec, work, f"{draw}-{mode}", trace=mode,
                                           timeout=budget), draw=draw, trace=mode))
        now = time.monotonic()
        if now + (now - t_draw) > start + seconds or any("crash" in c for c in children):
            break
    shutil.rmtree(work, ignore_errors=True)

    plain = [c for c in children if c["trace"] == 0 and "crash" not in c]
    traced = [c for c in children if c["trace"] == 1 and "crash" not in c]
    metrics: dict[str, float | None] = {}
    if not trace:
        setups += [c["setup_s"] for c in plain]
        metrics["setup_s"] = _median(setups)
        metrics["run_s"] = _median([c["run_s"] for c in plain])
        metrics["peak_rss_mb"] = _median([c["peak_rss_mib"] for c in plain])
        return metrics, children, {"setup_s": len(setups), "run_s": len(plain)}

    spans_dir = work_root / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    per_run = []
    for c in traced:
        (spans_dir / f"{w.name}-seed{seed}-draw{c['draw']}.json").write_text(
            json.dumps(c["spans"]))
        per_run.append(layer_metrics([Span(**s) for s in c["spans"]]))
    for name, unit in expected_layer_metrics(w):
        values = [r.get(name) for r in per_run]
        if not values or None in values:
            metrics[name] = None
        elif unit == "count":
            # Draw 0 has the same inputs in every run of a seed, so its counts repeat.
            metrics[name] = values[0]
        else:
            metrics[name] = _median(values)
    if metrics.get("trace.run_s") is not None and plain:
        metrics["trace.overhead_s"] = \
            metrics["trace.run_s"] - _median([c["run_s"] for c in plain])
    return metrics, children, {"traced": len(traced), "untraced": len(plain)}


def check_children(children: list[dict]) -> list[tuple[str, bool, str]]:
    """Every child's own checks, plus two per traced draw: the layer self times
    add up to the traced run time, and the untraced run of the same inputs gave
    the same totals and masked bundle digest."""
    ops = [tuple(op) for c in children for op in c["ops"]]
    by_draw: dict[int, list[dict]] = {}
    for c in children:
        by_draw.setdefault(c["draw"], []).append(c)
    for draw, runs in sorted(by_draw.items()):
        traced = [c for c in runs if c["trace"] == 1 and "spans" in c]
        for c in traced:
            spans = [Span(**s) for s in c["spans"]]
            total = sum(layer_self_times(spans).values())
            run_s = layer_metrics(spans).get("trace.run_s", math.nan)
            ok = math.isclose(total, run_s, rel_tol=1e-9)
            ops.append((f"draw{draw}.self_times_sum", ok,
                        "" if ok else f"self times {total!r} s, traced run {run_s!r} s"))
        if len(runs) > 1:
            same = all("digest" in c and (c["digest"], c["totals"])
                       == (runs[0].get("digest"), runs[0].get("totals")) for c in runs)
            ops.append((f"draw{draw}.traced_matches_untraced", same,
                        "" if same else "totals or masked bundle digests differ"))
    return ops


# -- reporting ----------------------------------------------------------------

def _fmt(value) -> str:
    return "missing" if value is None else f"{value:.6g}"


def report(w: Workload, trace: int, metrics, children, samples, ops) -> dict:
    units = dict(expected_layer_metrics(w)) if trace else dict(END_TO_END)
    print(f"== {w.name} (trace {trace}; samples {samples})")
    for name, unit in units.items():
        print(f"  {name:38s} {_fmt(metrics.get(name)):>14s} {unit}")
    failed = [op for op in ops if not op[1]]
    print(f"  {'error_rate':38s} {len(failed) / max(len(ops), 1):>14.6g} ratio "
          f"({len(failed)} of {len(ops)} operations failed)")
    for name, _ok, detail in failed:
        print(f"  FAILED {name}: {detail}")
    print("  checks: " + ", ".join(sorted({name.rsplit(".", 1)[-1] for name, _, _ in ops})))
    shown = set()
    for c in children:
        if "digest" in c and c["draw"] not in shown:
            shown.add(c["draw"])
            print(f"  draw {c['draw']}: digest {c['digest'][:16]} "
                  f"totals {json.dumps(c['totals'], sort_keys=True)}")
    return {"attempted": len(ops), "failed": len(failed)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "satcdn" / "__init__.py").is_file():
        print(f"no satcdn sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    keys = [n for n, _ in COMMON_LAYER] if args.trace else [n for n, _ in END_TO_END]
    units = dict(COMMON_LAYER) if args.trace else dict(END_TO_END)
    attempted = failed = 0
    out_metrics = {}
    for name in names:
        w = WORKLOADS[name]
        metrics, children, samples = measure(w, args.seed, args.seconds, args.trace)
        if not any("crash" not in c for c in children):
            print(f"{name}: every run crashed: {children[0]['crash']}", file=sys.stderr)
            return 1
        ops = check_children(children)
        counts = report(w, args.trace, metrics, children, samples, ops)
        attempted += counts["attempted"]
        failed += counts["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key in keys:
            if metrics.get(key) is not None:
                out_metrics[prefix + key] = {"value": metrics[key], "unit": units[key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

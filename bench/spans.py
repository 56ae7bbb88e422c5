"""Spans recorded from outside satcdn, and the per-layer arithmetic over them.

A traced child replaces the public functions that run_scenario and the library call
(``Network.snapshots``, ``build_distance_oracle``, ``compute_c_qmin``,
``load_trace``, every ``placement.SOLVERS`` entry, ``total_cost``,
``disconnected_users`` and ``simulate_delivery``) with wrappers that record a
span per call. Spans stay in memory until the run ends. Layers are named
after satcdn's modules; the root span belongs to ``scenario``.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, field


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` recording one span per call.

        ``name`` is a string or a function of the call's ``(args, kwargs)``.
        ``before(span, args, kwargs)`` and ``after(span, result, args, kwargs)``
        add counts to the span; both run inside it.
        """
        def traced(*args, **kwargs):
            span = self.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                if before is not None:
                    before(span, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, result, args, kwargs)
                return result
            finally:
                self.end(span)

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer; a layer with no span is absent, not 0."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + selfs[s.id]
    return out


# -- instrumenting satcdn --------------------------------------------------

def _rss_before(span, args, kwargs):
    span.attrs["rss0_mib"] = peak_rss_mib()


def _oracle_after(span, oracle, args, kwargs):
    slots = range(1, oracle.slot_count + 1)
    nbytes = sum(oracle.matrix(t).nbytes for t in slots)
    if kwargs.get("need_paths"):
        nbytes += sum(oracle.predecessors(t).nbytes for t in slots)
    span.attrs["mib"] = nbytes / 2**20
    span.attrs["rss_growth_mib"] = peak_rss_mib() - span.attrs.pop("rss0_mib")


def _oracle_name(args, kwargs) -> str:
    return "delivery.oracle" if kwargs.get("need_paths") else "costmodel.oracle"


def _solver_after(span, result, args, kwargs):
    st = result.stats
    span.attrs.update(iterations=st.iterations, dp_relaxations=st.relaxations,
                      orbit_relaxations=st.orbit_relaxations)


def _delivery_name(args, kwargs) -> str:
    policy = args[2] if len(args) > 2 else kwargs["policy"]
    return f"delivery.simulate.{policy.kind}"


def _delivery_after(span, report, args, kwargs):
    span.attrs.update(requests=int(sum(r["requests"] for r in report.per_replica.values())),
                      unreachable=int(report.unreachable_requests))


def instrument(tracer: Tracer):
    """Replace satcdn's layer entry points with wrappers that record spans.

    Every binding of a target function in a loaded ``satcdn`` module is
    replaced, so calls made through ``from .costmodel import total_cost`` are
    recorded too. Returns a function that restores the originals.
    """
    import satcdn.constellation as cst
    import satcdn.costmodel as cm
    import satcdn.delivery as dl
    import satcdn.demand as dm
    from satcdn.placement import SOLVERS

    targets = {
        id(cm.build_distance_oracle): tracer.wrap(cm.build_distance_oracle, _oracle_name,
                                                  _rss_before, _oracle_after),
        id(cm.compute_c_qmin): tracer.wrap(cm.compute_c_qmin, "costmodel.c_qmin"),
        id(cm.total_cost): tracer.wrap(cm.total_cost, "costmodel.eval"),
        id(cm.disconnected_users): tracer.wrap(cm.disconnected_users, "costmodel.disconnected"),
        id(dm.load_trace): tracer.wrap(dm.load_trace, "demand.load"),
        id(dl.simulate_delivery): tracer.wrap(dl.simulate_delivery, _delivery_name,
                                              after=_delivery_after),
    }
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "satcdn" and not mod_name.startswith("satcdn."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in targets:
                setattr(mod, attr, targets[id(value)])
                undo.append((mod, attr, value))

    snapshots = cst.Network.snapshots
    cst.Network.snapshots = tracer.wrap(snapshots, "constellation.snapshots")
    solvers = dict(SOLVERS)
    for name, fn in solvers.items():
        SOLVERS[name] = tracer.wrap(fn, f"placement.{name}", after=_solver_after)

    def restore():
        for mod, attr, value in undo:
            setattr(mod, attr, value)
        cst.Network.snapshots = snapshots
        SOLVERS.update(solvers)

    return restore

"""Content catalogs and demand matrices: trace IO, synthetic generators, prediction.

Demand is an abstract nonnegative "request weight" per (user node, content,
slot); slots are 1-based. The normalized trace format is a CSV with header
``slot,user_node,content,demand``.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .constellation import GroundNode


@dataclass
class ContentCatalog:
    contents: list[str]
    size_mb: np.ndarray

    def __post_init__(self):
        self.size_mb = np.asarray(self.size_mb, dtype=float)
        if len(self.contents) != self.size_mb.size:
            raise ValueError("one size per content required")
        if len(set(self.contents)) != len(self.contents):
            raise ValueError("content ids must be unique")
        if not np.all((self.size_mb > 0) & (self.size_mb < np.inf)):
            raise ValueError("content sizes must be positive and finite")
        self._index = {c: i for i, c in enumerate(self.contents)}

    @classmethod
    def uniform(cls, contents: Sequence[str], size_mb: float = 1.0) -> "ContentCatalog":
        return cls(list(contents), np.full(len(contents), float(size_mb)))

    def size_of(self, content: str) -> float:
        return float(self.size_mb[self._index[content]])


@dataclass
class DemandMatrix:
    """Dense demand array of shape (n_users, n_contents, slot_count)."""

    users: list[str]
    contents: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = (len(self.users), len(self.contents))
        if self.values.ndim != 3 or self.values.shape[:2] != expect:
            raise ValueError(f"values must have shape ({expect[0]}, {expect[1]}, T)")
        if not np.all((self.values >= 0) & (self.values < np.inf)):
            raise ValueError("demand values must be finite and >= 0")

    @property
    def slot_count(self) -> int:
        return self.values.shape[2]

    def only(self, content: str) -> "DemandMatrix":
        """The one-content demand matrix of ``content``."""
        ci = self.contents.index(content)
        return DemandMatrix(self.users, [content], self.values[:, ci:ci + 1, :])

    def total(self) -> float:
        return float(self.values.sum())


def load_trace(path, *, known_users: Sequence[str] | None = None, top_k: int | None = 10,
               catalog: ContentCatalog | None = None) -> tuple[ContentCatalog, DemandMatrix]:
    """Read a normalized demand trace.

    Only the ``top_k`` contents by total demand are kept. When ``known_users``
    is given, rows naming any other user are a hard error.
    """
    known = None if known_users is None else set(known_users)
    rows: list[tuple[int, str, str, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["slot", "user_node", "content", "demand"]:
            raise ValueError(f"{path}:1: expected header 'slot,user_node,content,demand'")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{line_no}: expected 4 fields, got {len(row)}")
            try:
                slot = int(row[0])
                dem = float(row[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: malformed row {row!r}") from exc
            if slot < 1:
                raise ValueError(f"{path}:{line_no}: slot must be >= 1")
            if not 0 <= dem < math.inf:
                raise ValueError(f"{path}:{line_no}: demand must be finite and >= 0")
            user, content = row[1].strip(), row[2].strip()
            if known is not None and user not in known:
                raise ValueError(f"{path}:{line_no}: unknown user node id {user!r}")
            rows.append((slot, user, content, dem))

    totals: dict[str, float] = {}
    for _, _, c, d in rows:
        totals[c] = totals.get(c, 0.0) + d
    contents = sorted(totals)
    if top_k is not None and len(contents) > top_k:
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        keep = {c for c, _ in ranked[:top_k]}
        contents = sorted(keep)
        rows = [r for r in rows if r[2] in keep]

    users = list(known_users) if known_users is not None else sorted({u for _, u, _, _ in rows})
    T = max((s for s, _, _, _ in rows), default=0)
    values = np.zeros((len(users), len(contents), T))
    u_idx = {u: i for i, u in enumerate(users)}
    c_idx = {c: i for i, c in enumerate(contents)}
    for slot, user, content, dem in rows:
        values[u_idx[user], c_idx[content], slot - 1] += dem

    if catalog is not None:
        missing = [c for c in contents if c not in catalog.contents]
        if missing:
            raise ValueError(f"trace contents missing from catalog: {missing}")
        out_catalog = ContentCatalog(contents, np.array([catalog.size_of(c) for c in contents]))
    else:
        out_catalog = ContentCatalog.uniform(contents)
    return out_catalog, DemandMatrix(users, contents, values)


def save_trace(path, demand: DemandMatrix) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["slot", "user_node", "content", "demand"])
        for t in range(1, demand.slot_count + 1):
            for ui, user in enumerate(demand.users):
                for ci, content in enumerate(demand.contents):
                    v = demand.values[ui, ci, t - 1]
                    if v > 0:
                        writer.writerow([t, user, content, repr(float(v))])


def load_catalog(path) -> ContentCatalog:
    contents, sizes = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["content", "size_mb"]:
            raise ValueError(f"{path}:1: expected header 'content,size_mb'")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{line_no}: expected 2 fields")
            contents.append(row[0].strip())
            try:
                size = float(row[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: malformed size {row[1]!r}") from exc
            if not 0 < size < math.inf:
                raise ValueError(f"{path}:{line_no}: size must be positive and finite")
            sizes.append(size)
    return ContentCatalog(contents, np.asarray(sizes))


US_BBOX = (25.0, -125.0, 49.0, -67.0)  # lat_min, lon_min, lat_max, lon_max


def synth_grid_demand(grid_rows: int, grid_cols: int, region_bbox, per_slot_demand: float,
                      horizon: int, *, active: tuple[int, int] | None = None,
                      size_mb: float = 1.0,
                      ) -> tuple[list[GroundNode], ContentCatalog, DemandMatrix]:
    """Uniform demand for the one content ``content/0`` from a rows x cols
    grid of user regions inside a bbox.

    ``active=(r, c)`` limits demand to the top-left r x c sub-grid; the other
    grid nodes still exist but carry zero demand.
    """
    if grid_rows < 1 or grid_cols < 1:
        raise ValueError("grid_rows and grid_cols must be >= 1")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    lat_min, lon_min, lat_max, lon_max = region_bbox
    if lat_max <= lat_min or lon_max <= lon_min:
        raise ValueError("degenerate bbox")
    dlat = (lat_max - lat_min) / grid_rows
    dlon = (lon_max - lon_min) / grid_cols

    nodes, users = [], []
    for r in range(grid_rows):
        for c in range(grid_cols):
            nid = f"user/r{r}c{c}"
            nodes.append(GroundNode(nid, "user_region",
                                    lat_min + (r + 0.5) * dlat, lon_min + (c + 0.5) * dlon))
            users.append(nid)

    values = np.zeros((len(users), 1, horizon))
    act_r = grid_rows if active is None else min(active[0], grid_rows)
    act_c = grid_cols if active is None else min(active[1], grid_cols)
    for r in range(act_r):
        for c in range(act_c):
            values[r * grid_cols + c, 0, :] = per_slot_demand

    catalog = ContentCatalog(["content/0"], np.array([size_mb]))
    return nodes, catalog, DemandMatrix(users, ["content/0"], values)


def synth_population_demand(population_weights: Mapping[str, float], request_count: int,
                            horizon: int, rng_seed: int, *,
                            contents: Sequence[str] = ("content/0",)) -> DemandMatrix:
    """Assign ``request_count`` requests to user nodes by a multinomial draw.

    Each request independently picks a node (by weight), a content (uniform),
    and a slot (uniform). The total demand equals ``request_count`` exactly and
    the draw is reproducible under a fixed seed.
    """
    users = list(population_weights)
    w = np.array([population_weights[u] for u in users], dtype=float)
    if not np.all((w >= 0) & (w < np.inf)):
        raise ValueError("population weights must be finite and >= 0")
    if w.sum() <= 0:
        raise ValueError("population weights must not all be zero")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    C = len(contents)
    p = (w / w.sum())[:, None, None] * np.full((1, C, horizon), 1.0 / (C * horizon))
    rng = np.random.default_rng(rng_seed)
    counts = rng.multinomial(int(request_count), p.ravel()).reshape(len(users), C, horizon)
    return DemandMatrix(users, list(contents), counts.astype(float))


def predict_demand(history: DemandMatrix, window_slots: int) -> DemandMatrix:
    """Moving-average prediction: slot t gets the mean of the previous
    ``window_slots`` slots (or of whatever history exists); slot 1 gets 0."""
    if window_slots < 1:
        raise ValueError("window_slots must be >= 1")
    T = history.slot_count
    out = np.zeros_like(history.values)
    cs = np.concatenate([np.zeros(history.values.shape[:2] + (1,)),
                         np.cumsum(history.values, axis=2)], axis=2)
    for t in range(2, T + 1):
        lo = max(t - 1 - window_slots, 0)
        width = (t - 1) - lo
        out[:, :, t - 1] = (cs[:, :, t - 1] - cs[:, :, lo]) / width
    return DemandMatrix(list(history.users), list(history.contents), out)


def us_state_nodes() -> tuple[list[GroundNode], dict[str, float]]:
    """Contiguous-US state centroids with population weights (millions)."""
    nodes: list[GroundNode] = []
    weights: dict[str, float] = {}
    data = importlib.resources.files("satcdn").joinpath("data/us_states.csv")
    with data.open() as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            nid = f"user/{row[0]}"
            nodes.append(GroundNode(nid, "user_region", float(row[1]), float(row[2])))
            weights[nid] = float(row[3])
    return nodes, weights


def random_ground_sites(count: int, bbox, seed: int) -> list[GroundNode]:
    """Uniformly scattered ground sites inside a bbox (for synthetic gateways)."""
    lat_min, lon_min, lat_max, lon_max = bbox
    rng = np.random.default_rng(seed)
    lats = rng.uniform(lat_min, lat_max, size=count)
    lons = rng.uniform(lon_min, lon_max, size=count)
    return [GroundNode(f"gw/s{i:02d}", "gateway", float(lats[i]), float(lons[i]))
            for i in range(count)]

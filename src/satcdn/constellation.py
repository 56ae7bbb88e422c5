"""Satellite shells, circular-orbit propagation, visibility, and per-slot snapshot graphs.

Geometry conventions: Earth is a sphere of radius 6371 km, positions are
Earth-centered Cartesian in km. Satellites follow circular Kepler orbits in the
inertial frame; ground nodes rotate with the Earth at the sidereal rate.
Angles are degrees at the API surface, radians internally.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix

logger = logging.getLogger(__name__)

R_EARTH_KM = 6371.0
MU_KM3_S2 = 398600.4418
SIDEREAL_DAY_S = 86164.0905
EARTH_RATE_RAD_S = 2.0 * math.pi / SIDEREAL_DAY_S
C_KM_PER_MS = 299.792458
GEO_ALTITUDE_KM = 35786.0

# Node kind codes shared across the package.
SAT, USER, GATEWAY, ORIGIN = 0, 1, 2, 3
GROUND_KINDS = {"user_region": USER, "gateway": GATEWAY, "origin": ORIGIN}

# Floor for edge latencies so weights stay strictly positive even for
# coincident ground sites.
_MIN_LATENCY_MS = 1e-6
# Significant bits the smallest positive edge weight must keep on the dyadic
# grid of ``dyadic_weights``; the latency floor keeps 13 or more on the
# Starlink 72x22 paper network.
_GRID_BITS = 8


def orbital_period_s(altitude_km: float) -> float:
    """Circular-orbit period in seconds from altitude above the mean surface."""
    if not 0.0 < altitude_km < math.inf:
        raise ValueError("altitude_km must be positive and finite")
    a = R_EARTH_KM + altitude_km
    return 2.0 * math.pi * math.sqrt(a ** 3 / MU_KM3_S2)


@dataclass(frozen=True)
class ShellSpec:
    """One constellation shell: P orbit planes of Q satellites each.

    ``phasing_offset`` is the fraction of the in-orbit spacing (360/Q degrees)
    applied between adjacent planes. ``geo_longitudes_deg`` pins satellites at
    fixed sub-satellite longitudes and makes the shell geostationary-style
    (it then must list exactly P*Q longitudes).
    """

    orbit_count: int
    sats_per_orbit: int
    altitude_km: float
    inclination_deg: float = 53.0
    phasing_offset: float = 0.0
    min_elevation_deg: float = 10.0
    isl: bool = True
    name: str = "shell"
    geo_longitudes_deg: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.orbit_count < 1 or self.sats_per_orbit < 1:
            raise ValueError("orbit_count and sats_per_orbit must be >= 1")
        if not 0.0 < self.altitude_km < math.inf:
            raise ValueError("altitude_km must be positive and finite")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError("inclination_deg must be in [0, 180]")
        if not 0.0 <= self.phasing_offset < 1.0:
            raise ValueError("phasing_offset must be in [0, 1)")
        if not 0.0 <= self.min_elevation_deg < 90.0:
            raise ValueError("min_elevation_deg must be in [0, 90)")
        if self.geo_longitudes_deg is not None:
            if len(self.geo_longitudes_deg) != self.total_satellites:
                raise ValueError("geo_longitudes_deg must list one longitude per satellite")
            if not all(math.isfinite(lon) for lon in self.geo_longitudes_deg):
                raise ValueError("geo_longitudes_deg must be finite")

    @property
    def total_satellites(self) -> int:
        return self.orbit_count * self.sats_per_orbit

    @property
    def is_geostationary(self) -> bool:
        return self.geo_longitudes_deg is not None or abs(self.altitude_km - GEO_ALTITUDE_KM) < 0.5


def starlink_phase1(**overrides) -> ShellSpec:
    """Starlink phase I shell: 1584 satellites, 72 orbits of 22 at 550 km."""
    base = dict(orbit_count=72, sats_per_orbit=22, altitude_km=550.0,
                inclination_deg=53.0, isl=True, name="starlink")
    base.update(overrides)
    return ShellSpec(**base)


def o3b(**overrides) -> ShellSpec:
    """O3b-style MEO shell: 20 satellites on one equatorial ring at 8062 km, no ISLs."""
    base = dict(orbit_count=1, sats_per_orbit=20, altitude_km=8062.0,
                inclination_deg=0.0, isl=False, name="o3b")
    base.update(overrides)
    return ShellSpec(**base)


def viasat(longitudes_deg: Sequence[float] = (-135.0, -105.0, -75.0, -45.0), **overrides) -> ShellSpec:
    """ViaSat-style GEO shell: 4 geostationary satellites at fixed longitudes."""
    base = dict(orbit_count=1, sats_per_orbit=len(longitudes_deg),
                altitude_km=GEO_ALTITUDE_KM, inclination_deg=0.0, isl=False,
                name="viasat", geo_longitudes_deg=tuple(float(x) for x in longitudes_deg))
    base.update(overrides)
    return ShellSpec(**base)


@dataclass(frozen=True)
class GroundNode:
    """A fixed site on the rotating Earth: a user region, gateway, or origin server."""

    node_id: str
    kind: str
    latitude_deg: float
    longitude_deg: float

    def __post_init__(self):
        if self.kind not in GROUND_KINDS:
            raise ValueError(f"unknown ground node kind {self.kind!r}")
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError("latitude_deg must be in [-90, 90]")
        if not math.isfinite(self.longitude_deg):
            raise ValueError("longitude_deg must be finite")
        lon = (self.longitude_deg + 180.0) % 360.0 - 180.0
        object.__setattr__(self, "longitude_deg", lon)


@dataclass
class Constellation:
    """Materialized shell: per-satellite orbital phase plus shared plane geometry."""

    spec: ShellSpec
    raan_rad: np.ndarray
    phase0_rad: np.ndarray
    orbit_index: np.ndarray
    in_orbit_index: np.ndarray
    radius_km: float
    rate_rad_s: float
    inclination_rad: float

    @property
    def n_sats(self) -> int:
        return self.raan_rad.size

    def positions(self, t_seconds: float) -> np.ndarray:
        """Inertial Cartesian positions (n, 3) km after ``t_seconds`` of motion."""
        u = self.phase0_rad + self.rate_rad_s * t_seconds
        cu, su = np.cos(u), np.sin(u)
        co, so = np.cos(self.raan_rad), np.sin(self.raan_rad)
        ci, si = math.cos(self.inclination_rad), math.sin(self.inclination_rad)
        r = self.radius_km
        return np.stack([
            r * (co * cu - so * su * ci),
            r * (so * cu + co * su * ci),
            r * (su * si),
        ], axis=1)


def build_shell(spec: ShellSpec) -> Constellation:
    """Lay out a Walker-delta shell (or fixed-longitude GEO ring) from its spec."""
    P, Q = spec.orbit_count, spec.sats_per_orbit
    idx = np.arange(P * Q)
    orbit = idx // Q
    slot = idx % Q

    if spec.geo_longitudes_deg is not None:
        raan = np.zeros(P * Q)
        phase0 = np.deg2rad(np.asarray(spec.geo_longitudes_deg, dtype=float))
        incl = 0.0
    else:
        raan = orbit * (2.0 * math.pi / P)
        phase0 = slot * (2.0 * math.pi / Q) + orbit * spec.phasing_offset * (2.0 * math.pi / Q)
        incl = math.radians(spec.inclination_deg)

    # Geostationary shells rotate exactly with the Earth so they stay fixed in
    # the ground frame; everything else follows Kepler.
    if spec.is_geostationary:
        rate = EARTH_RATE_RAD_S
    else:
        rate = 2.0 * math.pi / orbital_period_s(spec.altitude_km)

    return Constellation(
        spec=spec,
        raan_rad=raan.astype(float),
        phase0_rad=phase0.astype(float),
        orbit_index=orbit.astype(np.int32),
        in_orbit_index=slot.astype(np.int32),
        radius_km=R_EARTH_KM + spec.altitude_km,
        rate_rad_s=rate,
        inclination_rad=incl,
    )


def propagate(constellation: Constellation, t_seconds: float) -> np.ndarray:
    """Positions of all satellites in a constellation at time ``t_seconds``."""
    if t_seconds < 0:
        raise ValueError("t_seconds must be >= 0")
    return constellation.positions(t_seconds)


def ground_positions(nodes: Sequence[GroundNode], t_seconds: float) -> np.ndarray:
    """Inertial positions (m, 3) of ground nodes on the rotating Earth."""
    lat = np.deg2rad([n.latitude_deg for n in nodes])
    lon = np.deg2rad([n.longitude_deg for n in nodes]) + EARTH_RATE_RAD_S * t_seconds
    return np.stack([
        R_EARTH_KM * np.cos(lat) * np.cos(lon),
        R_EARTH_KM * np.cos(lat) * np.sin(lon),
        R_EARTH_KM * np.sin(lat),
    ], axis=1)


def elevation_angles(sat_positions: np.ndarray, ground_pos: np.ndarray) -> np.ndarray:
    """Elevation (degrees) of each satellite above each ground node's horizon.

    Returns an (n_ground, n_sats) array; negative values mean below horizon.
    """
    sat_positions = np.atleast_2d(sat_positions)
    ground_pos = np.atleast_2d(ground_pos)
    g_norm = np.linalg.norm(ground_pos, axis=1, keepdims=True)
    g_hat = ground_pos / g_norm
    los = sat_positions[None, :, :] - ground_pos[:, None, :]
    los_norm = np.linalg.norm(los, axis=2)
    sin_elev = np.einsum("mj,mnj->mn", g_hat, los) / np.maximum(los_norm, 1e-12)
    return np.rad2deg(np.arcsin(np.clip(sin_elev, -1.0, 1.0)))


def elevation_angle(sat_position, ground_position) -> float:
    """Elevation of a single satellite above a single ground node, in degrees."""
    sat_position = np.asarray(sat_position, dtype=float)
    if np.linalg.norm(sat_position) < R_EARTH_KM:
        raise ValueError("satellite position is inside the Earth sphere")
    return float(elevation_angles(sat_position[None, :], np.asarray(ground_position, dtype=float)[None, :])[0, 0])


def _visible_pairs(sat_pos: np.ndarray, ground_pos: np.ndarray,
                   min_elev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero(elevation_angles(sat_pos, ground_pos) >= min_elev)``, with
    exact angles computed only for pairs near or above the horizon.

    ``min_elev`` holds each satellite's mask, in [0, 90), so a pair whose
    ``g_hat . (sat - ground)`` is negative never passes. Positions must be finite.
    """
    g_norm = np.linalg.norm(ground_pos, axis=1, keepdims=True)
    g_hat = ground_pos / g_norm
    # g_hat . sat - |ground| equals elevation_angles' dot g_hat . (sat - ground)
    # but for rounding: both are sums of three products, each within a few
    # ulps of |sat| + |ground| of the exact value, so the two differ by less
    # than 2e-15 * (|sat| + |ground|). The margin is a million times that and
    # admits only pairs within centimetres below the horizon plane.
    screen = np.einsum("mj,nj->mn", g_hat, sat_pos)
    screen -= g_norm
    margin = 1e-9 * (np.linalg.norm(sat_pos, axis=1).max(initial=0.0) + g_norm.max(initial=0.0))
    g_idx, s_idx = np.nonzero(screen >= -margin)
    # elevation_angles' elementwise formula on the survivors only.
    los = sat_pos[s_idx] - ground_pos[g_idx]
    los_norm = np.linalg.norm(los, axis=1)
    sin_elev = np.einsum("kj,kj->k", g_hat[g_idx], los) / np.maximum(los_norm, 1e-12)
    keep = np.rad2deg(np.arcsin(np.clip(sin_elev, -1.0, 1.0))) >= min_elev[s_idx]
    return g_idx[keep], s_idx[keep]


@dataclass
class LatencySampler:
    """Source of measured ground<->satellite latencies for the sampled metric.

    Either draws uniformly from a measurement file or falls back to a
    lognormal distribution (flagged via ``source``).
    """

    samples: np.ndarray | None = None
    median_ms: float = 40.0
    sigma: float = 0.5

    @classmethod
    def from_file(cls, path) -> "LatencySampler":
        values = []
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#") or line.lower() == "latency_ms":
                    continue
                try:
                    v = float(line)
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: not a latency value: {line!r}") from exc
                if v <= 0:
                    raise ValueError(f"{path}:{line_no}: latency must be positive")
                values.append(v)
        if not values:
            raise ValueError(f"{path}: no latency samples found")
        return cls(samples=np.asarray(values, dtype=float))

    @classmethod
    def lognormal(cls, median_ms: float = 40.0, sigma: float = 0.5) -> "LatencySampler":
        if not (0 < median_ms < math.inf and 0 < sigma < math.inf):
            raise ValueError("median_ms and sigma must be positive and finite")
        return cls(samples=None, median_ms=float(median_ms), sigma=float(sigma))

    @property
    def source(self) -> str:
        if self.samples is not None:
            return f"measured_file(n={self.samples.size})"
        return f"lognormal_fallback(median_ms={self.median_ms}, sigma={self.sigma})"

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size == 0:
            return np.empty(0)
        if self.samples is not None:
            return rng.choice(self.samples, size=size, replace=True)
        return rng.lognormal(mean=math.log(self.median_ms), sigma=self.sigma, size=size)


@dataclass
class NodeTable:
    """Global node indexing: all satellites first, then gateways, origins, users.

    That ordering keeps the replica-candidate block and the user block
    contiguous, which the distance oracle and optimizers rely on for
    zero-copy slicing.
    """

    ids: list[str]
    kind: np.ndarray
    shell: np.ndarray
    orbit: np.ndarray
    in_orbit: np.ndarray
    ground_nodes: list[GroundNode]
    n_sats: int
    index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {nid: i for i, nid in enumerate(self.ids)}

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    def idx_of_kind(self, code: int) -> np.ndarray:
        return np.flatnonzero(self.kind == code)

    @property
    def satellites_idx(self) -> np.ndarray:
        return self.idx_of_kind(SAT)

    @property
    def users_idx(self) -> np.ndarray:
        return self.idx_of_kind(USER)

    @property
    def gateways_idx(self) -> np.ndarray:
        return self.idx_of_kind(GATEWAY)

    @property
    def origins_idx(self) -> np.ndarray:
        return self.idx_of_kind(ORIGIN)


def build_node_table(constellations: Sequence[Constellation], ground_nodes: Sequence[GroundNode]) -> NodeTable:
    names = [c.spec.name for c in constellations]
    if len(set(names)) != len(names):
        raise ValueError("shell names must be unique")

    ids: list[str] = []
    kind: list[int] = []
    shell: list[int] = []
    orbit: list[int] = []
    in_orbit: list[int] = []

    for s_idx, con in enumerate(constellations):
        for i, j in zip(con.orbit_index, con.in_orbit_index):
            ids.append(f"sat/{con.spec.name}/{i:02d}/{j:02d}")
            kind.append(SAT)
            shell.append(s_idx)
            orbit.append(int(i))
            in_orbit.append(int(j))

    # Gateways, then origins, then user regions; each block stays contiguous.
    ordered = sorted(ground_nodes, key=lambda n: {GATEWAY: 0, ORIGIN: 1, USER: 2}[GROUND_KINDS[n.kind]])
    seen = set()
    for node in ordered:
        if node.node_id in seen or node.node_id in ids:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        seen.add(node.node_id)
        ids.append(node.node_id)
        kind.append(GROUND_KINDS[node.kind])
        shell.append(-1)
        orbit.append(-1)
        in_orbit.append(-1)

    return NodeTable(
        ids=ids,
        kind=np.asarray(kind, dtype=np.int8),
        shell=np.asarray(shell, dtype=np.int16),
        orbit=np.asarray(orbit, dtype=np.int16),
        in_orbit=np.asarray(in_orbit, dtype=np.int16),
        ground_nodes=list(ordered),
        n_sats=int(sum(c.n_sats for c in constellations)),
    )


@dataclass
class SnapshotGraph:
    """The network graph for one time slot with per-edge metric weights.

    Edges are undirected and stored once with ``edge_u < edge_v``.
    ``sampled_ms`` is NaN everywhere except ground-satellite links.
    """

    slot: int
    time_s: float
    nodes: NodeTable
    edge_u: np.ndarray
    edge_v: np.ndarray
    ideal_ms: np.ndarray
    sampled_ms: np.ndarray
    isolated_users: list[str] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return self.nodes.n_nodes

    @property
    def n_edges(self) -> int:
        return self.edge_u.size

    def weights(self, metric: str) -> np.ndarray:
        if metric == "hop":
            return np.ones(self.n_edges)
        if metric == "ideal":
            return self.ideal_ms
        if metric == "sampled":
            return np.where(np.isnan(self.sampled_ms), self.ideal_ms, self.sampled_ms)
        raise ValueError(f"unknown metric {metric!r}")

    def to_csr(self, metric: str) -> csr_matrix:
        """Both directions of every edge, weighted by ``metric``; latency
        weights are snapped to a dyadic grid (``dyadic_weights``)."""
        w = self.weights(metric)
        n = self.n_nodes
        if metric != "hop":
            w = dyadic_weights(w, n)
        rows = np.concatenate([self.edge_u, self.edge_v])
        cols = np.concatenate([self.edge_v, self.edge_u])
        return csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        np.add.at(deg, self.edge_u, 1)
        np.add.at(deg, self.edge_v, 1)
        return deg

    def isl_degrees(self) -> np.ndarray:
        sat_edge = (self.nodes.kind[self.edge_u] == SAT) & (self.nodes.kind[self.edge_v] == SAT)
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        np.add.at(deg, self.edge_u[sat_edge], 1)
        np.add.at(deg, self.edge_v[sat_edge], 1)
        return deg


def dyadic_weights(w: np.ndarray, n: int) -> np.ndarray:
    """``w`` rounded to the nearest multiple of 2^-k, k = floor(52 - log2(n * max w)).

    A shortest path in an ``n``-node graph has fewer than ``n`` edges, so every
    path sum is then a multiple of 2^-k below 2^(53 - k), which float64 holds
    exactly. Distances no longer depend on the order an algorithm adds edges
    in: ``D[u, v] == D[v, u]`` bit for bit, and a Dijkstra row equals the
    matching column. Raises ValueError when the weights are not finite or
    span so wide a range that the smallest positive one would keep fewer than
    ``_GRID_BITS`` significant bits on the grid.
    """
    if w.size == 0:
        return w
    top = n * float(w.max())
    if not (math.isfinite(top) and top > 0):
        raise ValueError("edge weights must be finite and not all zero")
    k = math.floor(52 - math.log2(top))
    smallest = float(w[w > 0].min())
    if math.ldexp(smallest, k) < 2 ** _GRID_BITS:
        raise ValueError(f"edge weights span too wide a range for exact path sums: the "
                         f"smallest positive weight {smallest!r} keeps fewer than "
                         f"{_GRID_BITS} bits on the 2^-{k} grid")
    return np.ldexp(np.rint(np.ldexp(w, k)), -k)


class Network:
    """A set of shells plus ground nodes, sliceable into per-slot snapshot graphs.

    Nodes are indexed by the node table alone (satellites shell by shell, then
    gateways, origins and users), whatever order ``ground_nodes`` comes in.
    Slot ``t`` (1-based) is sampled at time ``(t - 1) * slot_seconds``.
    Snapshots are pure functions of the construction arguments, so they can be
    built concurrently and cached freely.
    """

    def __init__(self, constellations, ground_nodes, *, slot_seconds: float = 300.0,
                 latency_sampler: LatencySampler | None = None, seed: int = 0):
        self.constellations = [c if isinstance(c, Constellation) else build_shell(c) for c in constellations]
        self.slot_seconds = float(slot_seconds)
        self.latency_sampler = latency_sampler or LatencySampler.lognormal()
        self.seed = int(seed)
        self.nodes = nt = build_node_table(self.constellations, ground_nodes)
        self.ground_nodes = nt.ground_nodes
        self._min_elevation = np.array([c.spec.min_elevation_deg for c in self.constellations],
                                       dtype=float)[nt.shell[:nt.n_sats]]

        # Static +grid ISLs: satellite j of orbit i links to j+1 in its orbit
        # and to j in orbit i+1 (both wrapping); each pair once, no self-links.
        isl = [np.empty((0, 2), dtype=np.int64)]
        for s, con in enumerate(self.constellations):
            if con.spec.isl:
                grid = np.flatnonzero(nt.shell == s).reshape(con.spec.orbit_count,
                                                             con.spec.sats_per_orbit)
                for nb in (np.roll(grid, -1, axis=1), np.roll(grid, -1, axis=0)):
                    isl.append(np.column_stack([grid.ravel(), nb.ravel()]))
        isl = np.sort(np.concatenate(isl), axis=1)
        self._isl = np.unique(isl[isl[:, 0] != isl[:, 1]], axis=0)

        # Terrestrial Internet underlay: full mesh among gateways and origins.
        # User regions reach the network only through satellites.
        hubs = np.flatnonzero((nt.kind == GATEWAY) | (nt.kind == ORIGIN))
        a, b = np.triu_indices(hubs.size, k=1)
        self._mesh = np.column_stack([hubs[a], hubs[b]])

    def slot_time(self, slot: int) -> float:
        if slot < 1:
            raise ValueError("slots are 1-based")
        return (slot - 1) * self.slot_seconds

    def snapshot(self, slot: int) -> SnapshotGraph:
        nt = self.nodes
        t_s = self.slot_time(slot)
        pos = np.vstack([c.positions(t_s) for c in self.constellations]
                        + [ground_positions(nt.ground_nodes, t_s)])
        g_idx, s_idx = _visible_pairs(pos[:nt.n_sats], pos[nt.n_sats:], self._min_elevation)
        # Every block lists its edges with u < v: ISL and mesh pairs are
        # sorted, and satellites come before ground nodes.
        edges = np.concatenate([self._isl, np.column_stack([s_idx, nt.n_sats + g_idx]), self._mesh])
        u, v = edges[:, 0].astype(np.int32), edges[:, 1].astype(np.int32)
        ideal = np.maximum(np.linalg.norm(pos[u] - pos[v], axis=1) / C_KM_PER_MS, _MIN_LATENCY_MS)

        sampled = np.full(u.size, np.nan)
        start = self._isl.shape[0]
        rng = np.random.default_rng((self.seed, slot))
        sampled[start:start + g_idx.size] = self.latency_sampler.draw(rng, g_idx.size)

        snap = SnapshotGraph(slot=slot, time_s=t_s, nodes=nt, edge_u=u, edge_v=v,
                             ideal_ms=ideal, sampled_ms=sampled)
        deg = snap.degrees()
        snap.isolated_users = [nt.ids[ui] for ui in nt.users_idx if deg[ui] == 0]
        if snap.isolated_users:
            logger.warning("slot %d: %d user node(s) have no visible satellite: %s",
                           slot, len(snap.isolated_users), ", ".join(snap.isolated_users[:5]))
        return snap

    def snapshots(self, horizon: int) -> list[SnapshotGraph]:
        return [self.snapshot(t) for t in range(1, horizon + 1)]

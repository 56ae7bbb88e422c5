import itertools
import math

import numpy as np
import pytest

import satcdn.constellation as cst
from satcdn.constellation import (C_KM_PER_MS, GEO_ALTITUDE_KM, R_EARTH_KM,
                                  GroundNode, LatencySampler, Network, ShellSpec,
                                  _visible_pairs, build_shell, elevation_angle,
                                  elevation_angles, ground_positions, o3b,
                                  orbital_period_s, propagate, starlink_phase1,
                                  viasat)

MU = 398600.4418


def kepler_period_oracle(alt_km):
    # independent restatement of Kepler's third law for the tests
    a = 6371.0 + alt_km
    return 2.0 * math.pi * (a ** 3 / MU) ** 0.5


class TestBuildShell:
    def test_starlink_phase1_count(self):
        con = build_shell(starlink_phase1())
        assert con.n_sats == 72 * 22 == 1584

    def test_single_satellite_at_phase_zero(self):
        con = build_shell(ShellSpec(1, 1, 550.0))
        assert con.n_sats == 1
        assert con.phase0_rad[0] == 0.0
        pos = con.positions(0.0)
        assert np.allclose(np.linalg.norm(pos, axis=1), 6371.0 + 550.0)

    def test_equatorial_ring_spacing(self):
        con = build_shell(ShellSpec(1, 20, 8062.0, inclination_deg=0.0))
        assert con.n_sats == 20
        pos = con.positions(0.0)
        ang = np.degrees(np.arctan2(pos[:, 1], pos[:, 0]))
        gaps = np.sort((ang - ang[0]) % 360.0)
        assert np.allclose(np.diff(gaps), 18.0, atol=1e-9)
        assert np.allclose(pos[:, 2], 0.0, atol=1e-9)

    def test_rejects_zero_planes(self):
        with pytest.raises(ValueError):
            ShellSpec(0, 22, 550.0)
        with pytest.raises(ValueError):
            ShellSpec(72, 0, 550.0)

    @pytest.mark.parametrize("field,value", [
        ("altitude_km", math.nan), ("altitude_km", math.inf), ("inclination_deg", math.nan),
        ("phasing_offset", math.nan), ("min_elevation_deg", math.nan)])
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            ShellSpec(4, 4, **{"altitude_km": 550.0, field: value})

    @pytest.mark.parametrize("lon", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_geo_longitudes(self, lon):
        with pytest.raises(ValueError, match="geo_longitudes_deg must be finite"):
            viasat(longitudes_deg=(-75.0, lon))

    @pytest.mark.parametrize("alt", [math.nan, math.inf, 0.0])
    def test_period_rejects_non_positive_and_non_finite_altitude(self, alt):
        with pytest.raises(ValueError, match="altitude_km"):
            orbital_period_s(alt)

    def test_walker_phasing_offset(self):
        con = build_shell(ShellSpec(4, 8, 550.0, phasing_offset=0.5))
        # adjacent planes shifted by half the in-orbit spacing
        step = 2 * math.pi / 8
        assert con.phase0_rad[8] == pytest.approx(0.5 * step)


class TestPropagate:
    def test_period_550km_matches_kepler(self):
        t = orbital_period_s(550.0)
        assert t == pytest.approx(kepler_period_oracle(550.0), rel=1e-12)
        assert abs(t / 60.0 - 95.5) < 0.5

    def test_period_monotone_in_altitude(self):
        alts = [300, 550, 1200, 8062, 20000, 35786]
        periods = [orbital_period_s(a) for a in alts]
        assert all(a < b for a, b in zip(periods, periods[1:]))

    def test_zero_time_identity(self):
        con = build_shell(ShellSpec(4, 4, 550.0))
        assert np.array_equal(propagate(con, 0.0), con.positions(0.0))

    def test_periodicity_in_inertial_frame(self):
        con = build_shell(ShellSpec(6, 8, 550.0))
        T = orbital_period_s(550.0)
        assert np.allclose(propagate(con, T), propagate(con, 0.0), atol=1e-6)

    def test_geo_fixed_relative_to_ground(self):
        con = build_shell(viasat(longitudes_deg=(-75.0,)))
        ground = [GroundNode("g", "gateway", 0.0, -75.0)]
        for t in (0.0, 3600.0, 40000.0):
            sat = propagate(con, t)[0]
            g = ground_positions(ground, t)[0]
            rel = sat - g * (np.linalg.norm(sat) / np.linalg.norm(g))
            assert np.linalg.norm(rel) < 1e-6

    def test_rejects_negative_time(self):
        con = build_shell(ShellSpec(1, 1, 550.0))
        with pytest.raises(ValueError):
            propagate(con, -1.0)


class TestElevation:
    def test_zenith_is_90(self):
        g = np.array([R_EARTH_KM, 0.0, 0.0])
        s = np.array([R_EARTH_KM + 550.0, 0.0, 0.0])
        assert elevation_angle(s, g) == pytest.approx(90.0)

    def test_antipode_below_horizon(self):
        g = np.array([R_EARTH_KM, 0.0, 0.0])
        s = np.array([-(R_EARTH_KM + 550.0), 0.0, 0.0])
        assert elevation_angle(s, g) < 0.0

    def test_matches_spherical_triangle_oracle(self):
        # ground at (0, 0), satellite over (0, 10 deg) at 550 km
        psi = math.radians(10.0)
        r_s = R_EARTH_KM + 550.0
        g = np.array([R_EARTH_KM, 0.0, 0.0])
        s = np.array([r_s * math.cos(psi), r_s * math.sin(psi), 0.0])
        expected = math.degrees(math.atan2(math.cos(psi) - R_EARTH_KM / r_s, math.sin(psi)))
        assert elevation_angle(s, g) == pytest.approx(expected, abs=1e-6)

    def test_rejects_subterranean_satellite(self):
        g = np.array([R_EARTH_KM, 0.0, 0.0])
        with pytest.raises(ValueError):
            elevation_angle(np.array([100.0, 0.0, 0.0]), g)


class TestGroundNode:
    def test_longitude_normalized(self):
        n = GroundNode("x", "gateway", 10.0, 200.0)
        assert n.longitude_deg == -160.0

    def test_bad_kind_and_latitude(self):
        with pytest.raises(ValueError):
            GroundNode("x", "satellite", 0.0, 0.0)
        with pytest.raises(ValueError):
            GroundNode("x", "gateway", 95.0, 0.0)

    @pytest.mark.parametrize("lat,lon,field", [
        (math.nan, 0.0, "latitude"), (math.inf, 0.0, "latitude"), (-math.inf, 0.0, "latitude"),
        (0.0, math.nan, "longitude"), (0.0, math.inf, "longitude"),
        (0.0, -math.inf, "longitude")])
    def test_rejects_non_finite_coordinates(self, lat, lon, field):
        with pytest.raises(ValueError, match=field):
            GroundNode("x", "gateway", lat, lon)


class TestSnapshot:
    def test_starlink_isl_degree_exactly_four(self):
        net = Network([starlink_phase1()], [], seed=0)
        snap = net.snapshot(1)
        deg = snap.isl_degrees()[net.nodes.satellites_idx]
        assert set(deg.tolist()) == {4}

    @pytest.mark.parametrize("P,Q,pairs", [
        (1, 1, []),
        (1, 2, [(0, 1)]),
        (2, 1, [(0, 1)]),
        (1, 3, [(0, 1), (0, 2), (1, 2)]),
        (2, 2, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    ])
    def test_small_shell_isl_pairs_have_no_self_links_or_duplicates(self, P, Q, pairs):
        net = Network([ShellSpec(P, Q, 550.0, name="s")], [])
        snap = net.snapshot(1)
        assert sorted(zip(snap.edge_u.tolist(), snap.edge_v.tolist())) == pairs

    def test_ground_node_order_does_not_change_the_network(self):
        # Nodes are indexed satellites, gateways, origins, users; each kind keeps
        # the order it is given in, so only the two users' order may matter.
        shell = starlink_phase1(orbit_count=6, sats_per_orbit=6, name="s")
        ground = [GroundNode("user/a", "user_region", 40.0, -100.0),
                  GroundNode("gw/b", "gateway", -30.0, 20.0),
                  GroundNode("origin/c", "origin", 10.0, 100.0),
                  GroundNode("user/d", "user_region", 35.0, -90.0)]
        seen = {}
        for order in itertools.permutations(ground):
            net = Network([shell], list(order), seed=1, latency_sampler=LatencySampler.lognormal())
            users = tuple(n.node_id for n in order if n.kind == "user_region")
            assert net.nodes.ids[36:] == ["gw/b", "origin/c", *users]
            assert [n.node_id for n in net.ground_nodes] == net.nodes.ids[36:]
            arrays = [net.nodes.kind, net.nodes.shell, net.nodes.orbit]
            for t in (1, 2):
                snap = net.snapshot(t)
                arrays += [snap.edge_u, snap.edge_v, snap.ideal_ms, snap.sampled_ms]
                sat_pos = net.constellations[0].positions(net.slot_time(t))
                for node in ground:
                    g = ground_positions([node], net.slot_time(t))[0]
                    visible = {si for si in range(36) if elevation_angle(sat_pos[si], g) >= 10.0}
                    gi = net.nodes.index[node.node_id]
                    linked = set(snap.edge_u[snap.edge_v == gi].tolist()) & set(range(36))
                    assert linked == visible
            if users in seen:
                for x, y in zip(seen[users], arrays):
                    assert np.array_equal(x, y, equal_nan=True)
            else:
                seen[users] = arrays
        assert len(seen) == 2

    def test_single_geo_single_ground_one_edge(self):
        shell = viasat(longitudes_deg=(-75.0,))
        ground = [GroundNode("user/x", "user_region", 0.0, -75.0)]
        snap = Network([shell], ground).snapshot(1)
        assert snap.n_edges == 1
        assert snap.weights("hop").tolist() == [1.0]

    def test_toy_shell_matches_visibility_oracle(self):
        shell = ShellSpec(2, 2, 550.0, inclination_deg=53.0, min_elevation_deg=10.0,
                          isl=False, name="toy")
        ground = [GroundNode("user/a", "user_region", 10.0, -20.0),
                  GroundNode("gw/b", "gateway", -5.0, 40.0)]
        net = Network([shell], ground, slot_seconds=300.0, seed=3)
        linked = 0
        for t in (1, 10, 20, 30):  # slots 10, 20 and 30 have links, slot 1 has none
            snap = net.snapshot(t)
            con = net.constellations[0]
            sat_pos = con.positions(net.slot_time(t))
            grd_pos = ground_positions(ground, net.slot_time(t))
            expected = set()
            for gi in range(2):
                for si in range(4):
                    if elevation_angle(sat_pos[si], grd_pos[gi]) >= 10.0:
                        expected.add((si, net.nodes.index[ground[gi].node_id]))
            gs_edges = {(u, v) for u, v in zip(snap.edge_u.tolist(), snap.edge_v.tolist())
                        if snap.nodes.kind[u] == 0 or snap.nodes.kind[v] == 0}
            assert gs_edges == expected
            linked += len(expected)
        assert linked

    def test_snapshots_deterministic(self):
        args = dict(slot_seconds=300.0, seed=9)
        ground = [GroundNode("user/a", "user_region", 30.0, -100.0),
                  GroundNode("gw/b", "gateway", 35.0, -90.0),
                  GroundNode("origin/o", "origin", 40.0, -80.0)]
        n1 = Network([starlink_phase1(orbit_count=6, sats_per_orbit=6, name="s")], ground, **args)
        n2 = Network([starlink_phase1(orbit_count=6, sats_per_orbit=6, name="s")], ground, **args)
        for t in (1, 3):
            a, b = n1.snapshot(t), n2.snapshot(t)
            assert np.array_equal(a.edge_u, b.edge_u)
            assert np.array_equal(a.edge_v, b.edge_v)
            assert np.array_equal(a.ideal_ms, b.ideal_ms)
            assert np.array_equal(a.sampled_ms, b.sampled_ms, equal_nan=True)

    def test_isl_topology_time_invariant(self):
        net = Network([starlink_phase1(orbit_count=8, sats_per_orbit=6, name="s")],
                      [GroundNode("user/a", "user_region", 30.0, -100.0)], seed=0)
        def isl_set(t):
            snap = net.snapshot(t)
            sat = (snap.nodes.kind[snap.edge_u] == 0) & (snap.nodes.kind[snap.edge_v] == 0)
            return set(zip(snap.edge_u[sat].tolist(), snap.edge_v[sat].tolist()))
        assert isl_set(1) == isl_set(4) == isl_set(9)

    def test_edge_weights_positive_and_hop_one(self):
        ground = [GroundNode("user/a", "user_region", 30.0, -100.0),
                  GroundNode("gw/b", "gateway", 30.0, -100.0),  # same site as the user
                  GroundNode("origin/o", "origin", 40.0, -80.0)]
        net = Network([starlink_phase1(orbit_count=6, sats_per_orbit=6, name="s")], ground, seed=1)
        snap = net.snapshot(2)
        assert np.all(snap.weights("hop") == 1.0)
        for metric in ("ideal", "sampled"):
            assert np.all(snap.weights(metric) > 0.0)

    def test_sampled_latency_only_on_ground_sat_links(self):
        ground = [GroundNode("user/a", "user_region", 30.0, -100.0),
                  GroundNode("gw/b", "gateway", 32.0, -95.0),
                  GroundNode("origin/o", "origin", 40.0, -80.0)]
        net = Network([starlink_phase1(orbit_count=6, sats_per_orbit=6, name="s")], ground, seed=1)
        snap = net.snapshot(1)
        is_gs = ((snap.nodes.kind[snap.edge_u] == 0) ^ (snap.nodes.kind[snap.edge_v] == 0))
        assert np.all(np.isfinite(snap.sampled_ms[is_gs]))
        assert np.all(np.isnan(snap.sampled_ms[~is_gs]))

    def test_ideal_latency_is_distance_over_c(self):
        shell = viasat(longitudes_deg=(0.0,))
        ground = [GroundNode("user/x", "user_region", 0.0, 0.0)]
        snap = Network([shell], ground).snapshot(1)
        assert snap.ideal_ms[0] == pytest.approx(GEO_ALTITUDE_KM / C_KM_PER_MS, rel=1e-9)

    def test_isolated_user_warns_not_fails(self):
        shell = viasat(longitudes_deg=(0.0,))
        ground = [GroundNode("user/far", "user_region", 0.0, 180.0)]
        snap = Network([shell], ground).snapshot(1)
        assert snap.isolated_users == ["user/far"]


def _restated_pairs(sat_pos, ground_pos, min_elev):
    """The visibility test from every pair's full elevation angle."""
    return np.nonzero(elevation_angles(sat_pos, ground_pos) >= min_elev)


def _worldwide_ground():
    """104 ground nodes, every 15° of latitude from pole to pole by every 45° of
    longitude, each shifted a little further east than the last."""
    return [GroundNode(f"user/{i}", "user_region", float(lat), float(lon) + 0.37 * i)
            for i, (lat, lon) in enumerate(itertools.product(range(-90, 91, 15),
                                                             range(-180, 180, 45)))]


class TestVisiblePairs:
    """``_visible_pairs`` against the restatement from ``elevation_angles``."""

    NETWORKS = {
        "starlink": lambda mask: [starlink_phase1(min_elevation_deg=mask)],
        "o3b": lambda mask: [o3b(min_elevation_deg=mask)],
        "viasat": lambda mask: [viasat(min_elevation_deg=mask)],
        "three_shells": lambda mask: [
            starlink_phase1(orbit_count=24, sats_per_orbit=12, name="leo",
                            min_elevation_deg=mask),
            o3b(min_elevation_deg=mask), viasat(min_elevation_deg=mask)],
    }

    @pytest.mark.parametrize("mask", [0.0, 10.0])
    @pytest.mark.parametrize("name", list(NETWORKS))
    def test_equals_full_elevation_angles_over_fifty_slots(self, monkeypatch, name, mask):
        net = Network(self.NETWORKS[name](mask), _worldwide_ground(), slot_seconds=173.0,
                      seed=4)
        nt = net.nodes
        snaps = [net.snapshot(t) for t in range(1, 51)]
        monkeypatch.setattr(cst, "_visible_pairs", _restated_pairs)
        visible = 0
        for t, snap in enumerate(snaps, start=1):
            t_s = net.slot_time(t)
            sat = np.vstack([c.positions(t_s) for c in net.constellations])
            gnd = ground_positions(nt.ground_nodes, t_s)
            got = _visible_pairs(sat, gnd, net._min_elevation)
            want = _restated_pairs(sat, gnd, net._min_elevation)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            visible += got[0].size
            ref = net.snapshot(t)
            for field in ("edge_u", "edge_v", "ideal_ms", "sampled_ms"):
                a, b = getattr(snap, field), getattr(ref, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert snap.isolated_users == ref.isolated_users
        assert visible

    R = R_EARTH_KM

    @pytest.mark.parametrize("sat_x,mask,visible", [
        (R, 0.0, True), (R, 10.0, False),  # on the horizon: the dot is exactly 0
        (np.nextafter(R, 0.0), 0.0, False),  # the least float below it
        (np.nextafter(R, math.inf), 0.0, True), (R + 1e-9, 0.0, True), (R - 1e-9, 0.0, False)])
    def test_pairs_on_the_horizon(self, sat_x, mask, visible):
        # At t = 0 the node at (0, 0) sits at (R, 0, 0), so g_hat = (1, 0, 0)
        # exactly and the dot is sat_x - R.
        gnd = ground_positions([GroundNode("user/o", "user_region", 0.0, 0.0)], 0.0)
        assert gnd.tolist() == [[self.R, 0.0, 0.0]]
        sat = np.array([[sat_x, 1500.0, -700.0], [-sat_x, 1500.0, -700.0]])
        min_elev = np.full(2, mask)
        got = _visible_pairs(sat, gnd, min_elev)
        want = _restated_pairs(sat, gnd, min_elev)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert got[1].tolist() == ([0] if visible else [])

    def test_tangent_pairs_match_the_restatement(self):
        # Satellites in each ground node's horizon plane, nudged up or down by
        # 2^-46 to 2^-35 km: the sign of every rounded dot decides, as in the
        # full test. Some pairs round below zero on the screen but not in the
        # exact dot, so a screen without its margin fails here.
        rng = np.random.default_rng(11)
        lat = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 40)))
        nodes = [GroundNode(f"user/{i}", "user_region", float(a), float(b))
                 for i, (a, b) in enumerate(zip(lat, rng.uniform(-180.0, 180.0, 40)))]
        gnd = ground_positions(nodes, 0.0)
        g_hat = gnd / np.linalg.norm(gnd, axis=1, keepdims=True)
        tangent = rng.normal(size=(40, 3))
        tangent -= np.einsum("mj,mj->m", tangent, g_hat)[:, None] * g_hat
        tangent *= rng.uniform(500.0, 3000.0, (40, 1)) / np.linalg.norm(tangent, axis=1,
                                                                       keepdims=True)
        nudge = np.ldexp(rng.integers(-8, 9, (40, 1)).astype(float),
                         rng.integers(-46, -37, (40, 1)))
        sat = gnd + tangent + nudge * g_hat
        for mask in (0.0, 1e-12, 10.0):
            min_elev = np.full(40, mask)
            got = _visible_pairs(sat, gnd, min_elev)
            want = _restated_pairs(sat, gnd, min_elev)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert 0 < _visible_pairs(sat, gnd, np.zeros(40))[0].size

    def test_network_with_no_visible_pair(self, monkeypatch):
        ground = [GroundNode("user/far", "user_region", 0.0, 180.0),
                  GroundNode("gw/far", "gateway", 10.0, 170.0)]
        net = Network([viasat(longitudes_deg=(0.0, 20.0))], ground)
        snaps = [net.snapshot(t) for t in (1, 2)]
        monkeypatch.setattr(cst, "_visible_pairs", _restated_pairs)
        for snap in snaps:
            assert snap.isolated_users == ["user/far"]
            assert snap.edge_u.tolist() == [] and snap.edge_u.dtype == np.int32
            ref = net.snapshot(snap.slot)
            assert snap.edge_v.tobytes() == ref.edge_v.tobytes()
        g_idx, s_idx = _visible_pairs(np.zeros((0, 3)), ground_positions(ground, 0.0),
                                      np.zeros(0))
        assert g_idx.size == s_idx.size == 0


class TestLatencySampler:
    def test_from_file(self, tmp_path):
        p = tmp_path / "lat.csv"
        p.write_text("latency_ms\n25.0\n30.0\n45.5\n")
        s = LatencySampler.from_file(p)
        draws = s.draw(np.random.default_rng(0), 200)
        assert set(np.unique(draws)) <= {25.0, 30.0, 45.5}
        assert "measured_file" in s.source

    def test_lognormal_fallback_flagged(self):
        s = LatencySampler.lognormal(40.0, 0.5)
        assert "lognormal_fallback" in s.source
        draws = s.draw(np.random.default_rng(1), 1000)
        assert np.all(draws > 0)
        assert abs(np.median(draws) - 40.0) / 40.0 < 0.15

    @pytest.mark.parametrize("median_ms,sigma", [(float("nan"), 0.5), (40.0, float("inf")),
                                                 (float("inf"), 0.5), (0.0, 0.5), (40.0, -1.0)])
    def test_lognormal_rejects_non_positive_and_non_finite(self, median_ms, sigma):
        with pytest.raises(ValueError, match="positive and finite"):
            LatencySampler.lognormal(median_ms, sigma)

    def test_rejects_bad_file(self, tmp_path):
        p = tmp_path / "lat.csv"
        p.write_text("latency_ms\nnot-a-number\n")
        with pytest.raises(ValueError, match="lat.csv:2"):
            LatencySampler.from_file(p)

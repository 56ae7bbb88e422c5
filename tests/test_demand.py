import math

import numpy as np
import pytest

from satcdn.demand import (US_BBOX, ContentCatalog, DemandMatrix, load_catalog, load_trace,
                           predict_demand, random_ground_sites, save_trace,
                           synth_grid_demand, synth_population_demand, us_state_nodes)


def write_trace(path, rows):
    lines = ["slot,user_node,content,demand"]
    lines += [f"{s},{u},{c},{d}" for s, u, c, d in rows]
    path.write_text("\n".join(lines) + "\n")


class TestLoadTrace:
    def test_top_k_filter(self, tmp_path):
        rows = []
        for i in range(12):
            # content i gets total demand i+1, so contents 2..11 are the top 10
            rows.append((1, "user/a", f"c{i:02d}", float(i + 1)))
        p = tmp_path / "t.csv"
        write_trace(p, rows)
        catalog, demand = load_trace(p, top_k=10)
        assert len(catalog.contents) == 10
        assert "c00" not in catalog.contents and "c01" not in catalog.contents
        assert "c11" in catalog.contents

    def test_empty_trace(self, tmp_path):
        p = tmp_path / "t.csv"
        write_trace(p, [])
        catalog, demand = load_trace(p)
        assert demand.slot_count == 0
        assert catalog.contents == []

    def test_toy_sums(self, tmp_path):
        p = tmp_path / "t.csv"
        write_trace(p, [(1, "user/a", "c0", 2.0), (1, "user/b", "c0", 3.0),
                        (2, "user/a", "c0", 1.5)])
        _, demand = load_trace(p)
        assert demand.values[:, 0, 0].sum() == pytest.approx(5.0)
        assert demand.values[:, 0, 1].sum() == pytest.approx(1.5)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("slot,user_node,content,demand\n1,user/a,c0,2.0\nbad,user/a,c0,x\n")
        with pytest.raises(ValueError, match=":3"):
            load_trace(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1.0"])
    def test_non_finite_or_negative_demand_reports_line(self, tmp_path, value):
        p = tmp_path / "t.csv"
        write_trace(p, [(1, "user/a", "c0", 2.0), (2, "user/a", "c0", value)])
        with pytest.raises(ValueError, match="t.csv:3: demand must be finite and >= 0"):
            load_trace(p)

    def test_unknown_user_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        write_trace(p, [(1, "user/zzz", "c0", 1.0)])
        with pytest.raises(ValueError, match="unknown user"):
            load_trace(p, known_users=["user/a"])

    def test_round_trip(self, tmp_path):
        users = ["user/a", "user/b"]
        vals = np.array([[[1.0, 0.0, 2.5]], [[0.0, 4.25, 0.0]]]).reshape(2, 1, 3)
        demand = DemandMatrix(users, ["c0"], vals)
        p = tmp_path / "t.csv"
        save_trace(p, demand)
        _, back = load_trace(p, known_users=users)
        assert back.slot_count == 3
        assert np.array_equal(back.values, demand.values)

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-2"])
    def test_catalog_non_finite_or_non_positive_size_reports_line(self, tmp_path, value):
        p = tmp_path / "cat.csv"
        p.write_text(f"content,size_mb\nc0,1.5\nc1,{value}\n")
        with pytest.raises(ValueError, match="cat.csv:3: size must be positive and finite"):
            load_catalog(p)

    def test_catalog_round_trip(self, tmp_path):
        p = tmp_path / "cat.csv"
        p.write_text("content,size_mb\nc0,1.5\nc1,16.0\n")
        cat = load_catalog(p)
        assert cat.size_of("c1") == 16.0


class TestSynthGrid:
    def test_paper_grid_shape(self):
        users, catalog, demand = synth_grid_demand(5, 10, US_BBOX, 3.0, 48)
        assert len(users) == 50
        assert demand.slot_count == 48
        assert np.all(demand.values == 3.0)

    def test_single_cell(self):
        users, _, demand = synth_grid_demand(1, 1, (0, 0, 1, 1), 7.0, 1)
        assert len(users) == 1
        assert demand.values.shape == (1, 1, 1)
        assert demand.values[0, 0, 0] == 7.0

    def test_active_subgrid(self):
        for sub in [(1, 2), (2, 4), (3, 6), (4, 8)]:
            users, _, demand = synth_grid_demand(5, 10, US_BBOX, 1.0, 4, active=sub)
            per_user = demand.values[:, 0, 0].reshape(5, 10)
            assert per_user[:sub[0], :sub[1]].sum() == sub[0] * sub[1]
            assert per_user.sum() == sub[0] * sub[1]

    def test_degenerate_bbox_rejected(self):
        with pytest.raises(ValueError, match="bbox"):
            synth_grid_demand(2, 2, (10.0, -50.0, 10.0, -40.0), 1.0, 4)


class TestSynthPopulation:
    def test_single_state_gets_everything(self):
        demand = synth_population_demand({"user/x": 5.0, "user/y": 0.0}, 100, 4, 0)
        assert demand.values[0].sum() == 100
        assert demand.values[1].sum() == 0

    def test_law_of_large_numbers(self):
        weights = {f"user/u{i}": 1.0 for i in range(48)}
        demand = synth_population_demand(weights, 200_000, 2, 7)
        share = demand.values.sum(axis=(1, 2)) / 200_000
        assert np.all(np.abs(share - 1.0 / 48) < 0.05 / 48 + 0.002)

    def test_conservation_exact(self):
        weights = {f"user/u{i}": float(i + 1) for i in range(5)}
        demand = synth_population_demand(weights, 12345, 7, 3)
        assert demand.total() == 12345

    def test_deterministic_under_seed(self):
        w = {f"user/u{i}": float(i + 1) for i in range(6)}
        a = synth_population_demand(w, 5000, 5, 42)
        b = synth_population_demand(w, 5000, 5, 42)
        assert np.array_equal(a.values, b.values)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            synth_population_demand({"user/x": -1.0}, 10, 2, 0)
        with pytest.raises(ValueError):
            synth_population_demand({"user/x": 0.0}, 10, 2, 0)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, weight):
        with pytest.raises(ValueError, match="finite"):
            synth_population_demand({"user/x": 1.0, "user/y": weight}, 10, 2, 0)


class TestPredict:
    def make(self, series):
        vals = np.asarray(series, dtype=float)[None, None, :]
        return DemandMatrix(["user/a"], ["c0"], vals)

    def test_constant_history_fixed_point(self):
        pred = predict_demand(self.make([4.0] * 6), 2)
        assert np.all(pred.values[0, 0, 1:] == 4.0)
        assert pred.values[0, 0, 0] == 0.0

    def test_mean_of_window(self):
        pred = predict_demand(self.make([0.0, 10.0, 0.0]), 2)
        assert pred.values[0, 0, 2] == pytest.approx(5.0)

    def test_window_larger_than_history(self):
        pred = predict_demand(self.make([6.0, 12.0, 0.0]), 10)
        assert pred.values[0, 0, 1] == pytest.approx(6.0)
        assert pred.values[0, 0, 2] == pytest.approx(9.0)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        h1 = rng.uniform(0, 5, size=(3, 2, 8))
        h2 = rng.uniform(0, 5, size=(3, 2, 8))
        users = [f"user/u{i}" for i in range(3)]
        contents = ["c0", "c1"]
        a, b = 2.5, 0.75
        combo = predict_demand(DemandMatrix(users, contents, a * h1 + b * h2), 3)
        parts = (a * predict_demand(DemandMatrix(users, contents, h1), 3).values
                 + b * predict_demand(DemandMatrix(users, contents, h2), 3).values)
        assert np.allclose(combo.values, parts, rtol=1e-12, atol=1e-12)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            predict_demand(self.make([1.0]), 0)


class TestSiteHelpers:
    def test_us_states_bundle(self):
        nodes, weights = us_state_nodes()
        assert len(nodes) == 48
        assert all(n.kind == "user_region" for n in nodes)
        assert weights["user/CA"] > weights["user/WY"]

    def test_random_sites_seeded(self):
        a = random_ground_sites(5, US_BBOX, 3)
        b = random_ground_sites(5, US_BBOX, 3)
        assert [(n.latitude_deg, n.longitude_deg) for n in a] == \
               [(n.latitude_deg, n.longitude_deg) for n in b]
        assert all(n.kind == "gateway" for n in a)


class TestCatalogs:
    @pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_size(self, size):
        with pytest.raises(ValueError, match="positive and finite"):
            ContentCatalog(["a", "b"], np.array([1.0, size]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ContentCatalog(["a", "a"], np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            ContentCatalog(["a"], np.array([0.0]))


class TestDemandMatrix:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_non_finite_or_negative_values(self, value):
        vals = np.ones((2, 1, 3))
        vals[1, 0, 2] = value
        with pytest.raises(ValueError, match="demand values must be finite and >= 0"):
            DemandMatrix(["user/a", "user/b"], ["c0"], vals)

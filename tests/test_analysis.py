from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest

from lglift import analysis, lifting
from lglift.analysis import (
    SparsityCurve,
    TransformMatrices,
    build_matrices,
    condition_number,
    sparsity_curve_single,
)
from lglift.graph import EdgeRec, Graph, build_line_graph
from lglift.lifting import CoefficientSet, LiftingConfig, LiftingError, forward, inverse
from lglift.simulation import sample_network


def fake_matrices(mat):
    return TransformMatrices(forward_matrix=np.asarray(mat, dtype=float), record=None)


class TestBuildMatrices:
    @pytest.mark.parametrize("acr", ["LG-Aid-c", "LG-Dnw-p"])
    def test_inversion_identity_m99(self, mst_lg, acr):
        mats = build_matrices(mst_lg, LiftingConfig.from_acronym(acr))
        resid = mats.forward_matrix @ mats.inverse_matrix - np.eye(mst_lg.m)
        assert np.max(np.abs(resid)) <= 1e-8
        resid = mats.inverse_matrix @ mats.forward_matrix - np.eye(mst_lg.m)
        assert np.max(np.abs(resid)) <= 1e-8

    def test_inverse_matrix_built_once_on_first_read(self, mst_lg, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return inverse(*args, **kwargs)

        monkeypatch.setattr(analysis, "inverse", counted)
        mats = build_matrices(mst_lg, LiftingConfig.from_acronym("LG-Sid-p"))
        assert [f.name for f in fields(TransformMatrices)] == ["forward_matrix", "record"]
        assert not calls
        first = mats.inverse_matrix
        assert mats.inverse_matrix is first and len(calls) == 1
        assert first.tobytes() == inverse(np.eye(mst_lg.m), mats.record).tobytes()

    def test_constant_vector_zero_detail_rows(self, small_tree_lg):
        mats = build_matrices(small_tree_lg, LiftingConfig.from_acronym("LG-Sid-c"))
        out = mats.forward_matrix @ np.ones(small_tree_lg.m)
        n_details = small_tree_lg.m - 2
        assert np.max(np.abs(out[:n_details])) <= 1e-12

    def test_matches_hand_lifting_m3(self, triangle_graph):
        # symbolic replay of one Delta/moving-average stage on the triangle
        # line graph: remove k with neighbors (s, t), a = (1/2, 1/2);
        # integrals after update: (1.5, 1.5); b = 1.5/(2*1.5^2) = 1/3
        lg = build_line_graph(triangle_graph)
        cfg = LiftingConfig.from_acronym("LG-Dnw-c")
        mats = build_matrices(lg, cfg)
        removed = mats.record.removal_order[0]
        others = [k for k in lg.ids if k != removed]
        idx = {k: i for i, k in enumerate(lg.ids)}
        expect = np.zeros((3, 3))
        expect[0, idx[removed]] = 1.0
        for s in others:
            expect[0, idx[s]] = -0.5
        for row, s in enumerate(sorted(others, key=idx.__getitem__), start=1):
            expect[row] = expect[0] / 3.0
            expect[row, idx[s]] += 1.0
        assert np.allclose(mats.forward_matrix, expect, atol=1e-12)

    def test_matrix_rows_agree_with_forward(self, small_tree_lg, rng):
        cfg = LiftingConfig.from_acronym("LG-Aid-p")
        mats = build_matrices(small_tree_lg, cfg)
        values = {k: float(v) for k, v in zip(small_tree_lg.ids, rng.normal(size=small_tree_lg.m))}
        coeffs, _ = forward(
            values, small_tree_lg, cfg, trajectory=mats.record.removal_order
        )
        vec = mats.forward_matrix @ np.array([values[k] for k in small_tree_lg.ids])
        assert np.allclose(vec, coeffs.vector, atol=1e-10)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(fake_matrices(np.eye(4))) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(fake_matrices(np.diag([4.0, 1.0]))) == pytest.approx(4.0)

    def test_at_least_one(self, small_tree_lg):
        mats = build_matrices(small_tree_lg, LiftingConfig.from_acronym("LG-Did-c"))
        assert condition_number(mats) >= 1.0

    def test_invariant_under_metric_scaling(self, small_tree_lg):
        # scaling every coordinate by C scales distances by C; normalized
        # weights and the integral-scale invariance leave the matrix alone
        from lglift.graph import LineGraph

        cfg = LiftingConfig.from_acronym("LG-Sid-c")
        mats0 = build_matrices(small_tree_lg, cfg)
        ids = small_tree_lg.ids
        scaled = LineGraph(
            ids,
            {k: {ids[s] for s in row} for k, row in zip(ids, small_tree_lg.rows)},
            coords={k: (7.0 * x, 7.0 * y) for k, (x, y) in small_tree_lg.coords.items()},
        )
        mats1 = build_matrices(scaled, cfg, trajectory=mats0.record.removal_order)
        assert np.allclose(mats0.forward_matrix, mats1.forward_matrix, atol=1e-10)
        assert condition_number(mats0) == pytest.approx(condition_number(mats1), rel=1e-6)


class TestSparsity:
    def test_final_ise_negligible(self, mst_lg, rng):
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        curve = sparsity_curve_single(values, mst_lg, LiftingConfig.from_acronym("LG-Aid-c"))
        assert curve.ise[-1] <= 1e-8
        assert np.all(curve.ise >= 0)

    def test_constant_truth_needs_no_details(self, small_tree_lg):
        values = {k: 3.3 for k in small_tree_lg.ids}
        curve = sparsity_curve_single(values, small_tree_lg, LiftingConfig())
        assert curve.ise[0] <= 1e-12

    def test_nonincreasing_within_slack(self, mst_lg, rng):
        values = {k: float(v) for k, v in zip(mst_lg.ids, rng.normal(size=mst_lg.m))}
        curve = sparsity_curve_single(values, mst_lg, LiftingConfig.from_acronym("LG-Dnw-c"))
        diffs = np.diff(curve.ise)
        # greedy ordering in a biorthogonal system: allow small slack
        assert np.max(diffs) <= 1e-10 or np.max(diffs) / max(curve.ise.max(), 1.0) < 0.05

    def test_greedy_close_to_best_subset_m6(self, small_tree_lg, rng):
        # brute-force best-k reconstruction at m=6; log the greedy gap
        lg = small_tree_lg
        assert lg.m == 6
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        values = {k: float(v) for k, v in zip(lg.ids, rng.normal(size=lg.m))}
        coeffs, record = forward(values, lg, cfg)
        curve = sparsity_curve_single(values, lg, cfg)
        for kept in (1, 2, 3):
            best = np.inf
            for subset in combinations(coeffs.details, kept):
                trial = CoefficientSet.from_dicts(
                    {k: (coeffs.details[k] if k in subset else 0.0) for k in coeffs.details},
                    coeffs.scaling,
                    record,
                )
                rec = inverse(trial, record)
                best = min(best, sum((rec[k] - values[k]) ** 2 for k in lg.ids))
            greedy = curve.ise[kept]
            assert greedy >= best - 1e-12
            print(f"m=6 best-{kept}: greedy {greedy:.6f} vs optimal {best:.6f}")

    @pytest.mark.parametrize("relabel", ["reversed", "shifted", "permuted"])
    def test_array_and_mapping_give_the_same_curve(self, relabel):
        # integer edge ids that are not the line-graph positions: an array is
        # read in lg.ids order, the truth included
        graph = sample_network(30, seed=1)
        m = len(graph.edges)
        new_ids = {
            "reversed": list(range(m - 1, -1, -1)),
            "shifted": list(range(5, m + 5)),
            "permuted": np.random.default_rng(3).permutation(m).tolist(),
        }[relabel]
        edges = [EdgeRec(id=k, u=e.u, v=e.v) for k, e in zip(new_ids, graph.edges)]
        lg = build_line_graph(Graph(list(graph.coords.items()), edges))
        assert list(lg.ids) == new_ids
        values = np.random.default_rng(4).normal(size=m)
        cfg = LiftingConfig.from_acronym("LG-Aid-c")
        by_array = sparsity_curve_single(values, lg, cfg)
        by_id = sparsity_curve_single(dict(zip(lg.ids, values.tolist())), lg, cfg)
        assert by_array.ise.tobytes() == by_id.ise.tobytes()
        assert by_array.ise[-1] <= 1e-8

    def test_batch_rejected(self, small_tree_lg):
        with pytest.raises(LiftingError, match="one signal"):
            sparsity_curve_single(np.ones((small_tree_lg.m, 2)), small_tree_lg, LiftingConfig())

    def test_batch_rejected_before_planning(self, monkeypatch, small_tree_lg):
        calls = []
        build_record = lifting._build_record

        def counted(*args, **kwargs):
            calls.append(1)
            return build_record(*args, **kwargs)

        monkeypatch.setattr(lifting, "_build_record", counted)
        batch = np.ones((small_tree_lg.m, 2))
        for values in (batch, dict(zip(small_tree_lg.ids, batch.tolist()))):
            with pytest.raises(LiftingError, match="one signal"):
                sparsity_curve_single(values, small_tree_lg, LiftingConfig())
        assert calls == []
        sparsity_curve_single(batch[:, 0], small_tree_lg, LiftingConfig())
        assert len(calls) == 1

    def test_truth_read_once(self, small_tree_lg, counting_mapping):
        x = np.linspace(-1.0, 1.0, small_tree_lg.m)
        values = counting_mapping(zip(small_tree_lg.ids, x.tolist()))
        curve = sparsity_curve_single(values, small_tree_lg, LiftingConfig())
        assert values.reads == dict.fromkeys(small_tree_lg.ids, 1)
        by_array = sparsity_curve_single(x, small_tree_lg, LiftingConfig())
        assert curve.ise.tobytes() == by_array.ise.tobytes()

import math

import numpy as np
import pytest

from spotkit.analysis import (
    export_contour, export_parallel, export_progress, importance, rows_to_csv,
    select_important_pairs, star_code,
)
from spotkit.searchspace import ParamSpec, SearchSpace
from spotkit.surrogate import SurrogateControl, fit
from spotkit.tuner import RunState


def make_space():
    return SearchSpace((
        ParamSpec(name="a", kind="float", default=0.0, lower=0.0, upper=1.0),
        ParamSpec(name="b", kind="float", default=0.0, lower=0.0, upper=1.0),
        ParamSpec(name="fixed", kind="float", default=2.0, lower=2.0, upper=2.0),
    ))


def fitted_anisotropic(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((40, 2))
    y = 10.0 * X[:, 0] ** 2 + 0.1 * X[:, 1] ** 2
    return fit(X, y, SurrogateControl(model_fun_evals=800), seed=seed), X, y


class TestStarCoding:
    @pytest.mark.parametrize("value,stars", [
        (100.0, "***"), (96.29, "***"), (95.0, "***"),
        (94.99, "**"), (50.0, "**"),
        (4.18, "*"), (1.0, "*"),
        (0.16, "."), (0.1, "."),
        (0.0999, ""), (0.0, ""),
    ])
    def test_thresholds(self, value, stars):
        assert star_code(value) == stars


class TestImportance:
    def test_symmetric_activity_both_100(self):
        model, _, _ = fitted_anisotropic()
        model.theta_log10 = np.array([0.0, 0.0])
        space = SearchSpace((
            ParamSpec(name="a", kind="float", default=0.0, lower=0.0, upper=1.0),
            ParamSpec(name="b", kind="float", default=0.0, lower=0.0, upper=1.0),
        ))
        report = importance(model, space)
        assert [e["importance"] for e in report] == [100.0, 100.0]
        assert [e["stars"] for e in report] == ["***", "***"]

    def test_dominant_dimension_ranks_first(self):
        model, _, _ = fitted_anisotropic()
        space = SearchSpace((
            ParamSpec(name="strong", kind="float", default=0.0, lower=0.0, upper=1.0),
            ParamSpec(name="weak", kind="float", default=0.0, lower=0.0, upper=1.0),
        ))
        report = {e["name"]: e["importance"] for e in importance(model, space)}
        assert report["strong"] == 100.0
        assert report["strong"] > report["weak"]

    def test_fixed_parameters_report_zero(self):
        rng = np.random.default_rng(1)
        X = rng.random((12, 2))
        y = X[:, 0] + X[:, 1]
        model = fit(X, y, SurrogateControl(model_fun_evals=300), seed=0)
        report = importance(model, make_space())
        by_name = {e["name"]: e for e in report}
        assert by_name["fixed"]["importance"] == 0.0
        assert by_name["fixed"]["stars"] == ""

    def test_dimension_mismatch_rejected(self):
        model, _, _ = fitted_anisotropic()
        space = SearchSpace((
            ParamSpec(name="solo", kind="float", default=0.0, lower=0.0, upper=1.0),
        ))
        with pytest.raises(ValueError, match="active"):
            importance(model, space)

    def test_argmax_invariant_under_affine_loss_rescale(self):
        rng = np.random.default_rng(6)
        X = rng.random((30, 2))
        y = 5.0 * (X[:, 0] - 0.5) ** 2 + 0.2 * X[:, 1]
        control = SurrogateControl(model_fun_evals=600)
        space = SearchSpace((
            ParamSpec(name="p", kind="float", default=0.0, lower=0.0, upper=1.0),
            ParamSpec(name="q", kind="float", default=0.0, lower=0.0, upper=1.0),
        ))
        r1 = importance(fit(X, y, control, seed=3), space)
        r2 = importance(fit(X, 3.0 * y + 7.0, control, seed=3), space)
        argmax1 = max(r1, key=lambda e: e["importance"])["name"]
        argmax2 = max(r2, key=lambda e: e["importance"])["name"]
        assert argmax1 == argmax2

    def test_exactly_one_at_100_without_ties(self):
        model, _, _ = fitted_anisotropic()
        space = SearchSpace((
            ParamSpec(name="a", kind="float", default=0.0, lower=0.0, upper=1.0),
            ParamSpec(name="b", kind="float", default=0.0, lower=0.0, upper=1.0),
        ))
        report = importance(model, space)
        assert sum(1 for e in report if e["importance"] == 100.0) == 1


class TestSelectPairs:
    REPORT = [
        {"name": "l1", "importance": 100.0, "stars": "***"},
        {"name": "l2", "importance": 96.29, "stars": "***"},
        {"name": "epochs", "importance": 4.18, "stars": "*"},
        {"name": "optimizer", "importance": 0.16, "stars": "."},
        {"name": "lr_mult", "importance": 0.0, "stars": ""},
    ]

    def test_default_threshold_keeps_three(self):
        pairs = select_important_pairs(self.REPORT, 0.025)
        assert pairs == [("l1", "l2"), ("l1", "epochs"), ("l2", "epochs")]

    def test_zero_threshold_keeps_all_positive(self):
        pairs = select_important_pairs(self.REPORT, 0.0)
        names = {n for p in pairs for n in p}
        assert names == {"l1", "l2", "epochs", "optimizer"}

    def test_single_qualifier_yields_nothing(self):
        pairs = select_important_pairs(self.REPORT, 0.99)
        assert pairs == []


class TestProgress:
    def make_state(self):
        state = RunState()
        ys = [3.0, 1.0, 2.0, 0.5, 0.7]
        phases = ["initial"] * 3 + ["sequential"] * 2
        for y, ph in zip(ys, phases):
            state.append(np.array([0.0]), y, math.nan, ph, 0.0)
        return state

    def test_rows(self):
        rows = export_progress(self.make_state())
        assert [r["phase"] for r in rows] == ["initial"] * 3 + ["sequential"] * 2
        assert [r["y"] for r in rows] == [3.0, 1.0, 2.0, 0.5, 0.7]
        assert [r["best"] for r in rows] == [3.0, 1.0, 1.0, 0.5, 0.5]
        bests = [r["best"] for r in rows]
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            export_progress(RunState())

    def test_csv_shape(self):
        text = rows_to_csv(export_progress(self.make_state()))
        lines = text.splitlines()
        assert lines[0] == "iter,y,best,phase"
        assert len(lines) == 6


class TestContour:
    def test_2x2_corners(self):
        model, _, _ = fitted_anisotropic()
        space = SearchSpace((
            ParamSpec(name="a", kind="float", default=0.0, lower=0.0, upper=1.0),
            ParamSpec(name="b", kind="float", default=0.0, lower=0.0, upper=1.0),
        ))
        rows = export_contour(model, space, ("a", "b"), grid=2)
        assert len(rows) == 4
        corners = {(r["a"], r["b"]) for r in rows}
        assert corners == {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}

    def test_values_match_direct_predictions(self):
        model, _, _ = fitted_anisotropic()
        space = SearchSpace((
            ParamSpec(name="a", kind="float", default=0.0, lower=0.0, upper=1.0),
            ParamSpec(name="b", kind="float", default=0.0, lower=0.0, upper=1.0),
        ))
        rows = export_contour(model, space, ("a", "b"), grid=5)
        for r in rows:
            mean = model.predict_batch(np.array([[r["a"], r["b"]]]))[0]
            assert r["mean"] == pytest.approx(mean, abs=1e-12)

    def test_factor_axis_snaps_to_lattice(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([rng.random(30), rng.integers(0, 10, 30)])
        y = X[:, 0] + 0.1 * X[:, 1]
        model = fit(X, y, SurrogateControl(noise=True, model_fun_evals=400), seed=0)
        space = SearchSpace((
            ParamSpec(name="x", kind="float", default=0.0, lower=0.0, upper=1.0),
            ParamSpec(name="opt", kind="factor", default="v0",
                      levels=tuple(f"v{i}" for i in range(10)),
                      lower=0.0, upper=9.0),
        ))
        rows = export_contour(model, space, ("x", "opt"), grid=50)
        assert len({r["opt"] for r in rows}) == 10

    def test_best_cell_no_worse_than_neighbors_on_convex_fit(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 2))
        y = (X[:, 0] - 0.5) ** 2 + (X[:, 1] - 0.5) ** 2
        model = fit(X, y, SurrogateControl(model_fun_evals=800), seed=1)
        space = SearchSpace((
            ParamSpec(name="a", kind="float", default=0.5, lower=0.0, upper=1.0),
            ParamSpec(name="b", kind="float", default=0.5, lower=0.0, upper=1.0),
        ))
        grid = 21
        rows = export_contour(model, space, ("a", "b"), grid=grid)
        means = np.array([r["mean"] for r in rows]).reshape(grid, grid)
        i, j = np.unravel_index(np.argmin(means), means.shape)
        noise_floor = 1e-9
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < grid and 0 <= nj < grid:
                assert means[i, j] <= means[ni, nj] + noise_floor

    def test_fixed_parameter_rejected(self):
        model, _, _ = fitted_anisotropic()
        with pytest.raises(ValueError, match="fixed"):
            export_contour(model, make_space(), ("a", "fixed"), grid=3)

    def test_grid_validated(self):
        model, _, _ = fitted_anisotropic()
        with pytest.raises(ValueError, match="grid"):
            export_contour(model, make_space(), ("a", "b"), grid=1)


class TestParallel:
    def test_bounds_normalize_to_zero_and_one(self):
        space = make_space()
        state = RunState()
        lo, hi = space.internal_bounds()
        state.append(lo, 1.0, math.nan, "initial", 0.0)
        state.append(hi, 2.0, math.nan, "initial", 0.0)
        rows = export_parallel(state, space)
        assert [rows[0][k] for k in ("a", "b")] == [0.0, 0.0]
        assert [rows[1][k] for k in ("a", "b")] == [1.0, 1.0]
        assert rows[0]["fixed"] == 0.0       # no extent: pinned to 0
        assert [r["y"] for r in rows] == [1.0, 2.0]

    def test_column_order(self):
        space = make_space()
        state = RunState()
        state.append(space.default_internal(), 0.5, math.nan, "initial", 0.0)
        rows = export_parallel(state, space)
        assert list(rows[0].keys()) == ["a", "b", "fixed", "y"]

    def test_distinct_losses_stay_distinct(self):
        space = make_space()
        state = RunState()
        state.append(space.default_internal(), 0.5, math.nan, "initial", 0.0)
        state.append(space.default_internal(), 0.9, math.nan, "initial", 0.0)
        rows = export_parallel(state, space)
        assert rows[0]["y"] != rows[1]["y"]

import math
from dataclasses import fields

import numpy as np
import pytest

from spotkit import surrogate as sg, tuner
from spotkit.analysis import export_contour
from spotkit.design import DesignControl
from spotkit.evalharness import EvalResult
from spotkit.searchspace import ParamSpec, SearchSpace
from spotkit.surrogate import KrigingModel, SurrogateControl, fit
from spotkit.tuner import (
    RunState, TunerConfig, _embed_active, _is_distinct, _nelder_mead,
    _random_full_point, best, events_csv, load_run_state, random_search, run,
    suggest_next, worst_sentinel,
)


def float_space(dims, lo=-1.0, hi=1.0):
    return SearchSpace(tuple(
        ParamSpec(name=f"x{i}", kind="float", default=0.0, lower=lo, upper=hi)
        for i in range(dims)
    ))


def sphere(config):
    return EvalResult(loss=sum(v * v for v in config.values()), metric=math.nan)


FAST_SURROGATE = SurrogateControl(model_fun_evals=300)


class TestRunBudgets:
    def test_budget_boundary_no_sequential(self):
        state = run(sphere, float_space(2),
                    TunerConfig(fun_evals=10, seed=0),
                    DesignControl(init_size=10, seed=1), FAST_SURROGATE)
        assert len(state) == 10
        assert state.phases == ["initial"] * 10

    def test_initial_design_runs_even_when_time_exhausted(self):
        state = run(sphere, float_space(2),
                    TunerConfig(fun_evals=30, max_time=0.0, seed=0),
                    DesignControl(init_size=10, seed=1), FAST_SURROGATE)
        assert len(state) == 10          # design always completes; loop never starts
        assert all(p == "initial" for p in state.phases)

    def test_x_start_evaluated_first(self):
        space = float_space(2)
        start = {"x0": 0.25, "x1": -0.5}
        state = run(sphere, space, TunerConfig(fun_evals=11, seed=0),
                    DesignControl(init_size=10, seed=1), FAST_SURROGATE,
                    X_start=start)
        assert len(state) == 11
        np.testing.assert_allclose(state.X[0], [0.25, -0.5])
        assert state.y[0] == pytest.approx(0.25 ** 2 + 0.5 ** 2)

    def test_sequential_phase_tagged(self):
        state = run(sphere, float_space(2), TunerConfig(fun_evals=14, seed=0),
                    DesignControl(init_size=10, seed=1), FAST_SURROGATE)
        assert state.phases[:10] == ["initial"] * 10
        assert state.phases[10:] == ["sequential"] * 4


class TestRunBehaviour:
    def test_best_so_far_non_increasing(self):
        state = run(sphere, float_space(3), TunerConfig(fun_evals=25, seed=3),
                    DesignControl(init_size=8, seed=2), FAST_SURROGATE)
        best_so_far = np.minimum.accumulate(state.y)
        assert np.all(np.diff(best_so_far) <= 0)

    def test_all_rows_in_bounds_fixed_dims_pinned(self):
        space = SearchSpace((
            ParamSpec(name="a", kind="float", default=0.0, lower=-1.0, upper=1.0),
            ParamSpec(name="b", kind="float", default=0.5, lower=0.5, upper=0.5),
            ParamSpec(name="n", kind="int", default=2, lower=1.0, upper=4.0),
        ))
        state = run(sphere, space, TunerConfig(fun_evals=18, seed=1),
                    DesignControl(init_size=6, seed=3), FAST_SURROGATE)
        X = np.asarray(state.X)
        assert np.all(X[:, 0] >= -1.0) and np.all(X[:, 0] <= 1.0)
        assert np.all(X[:, 1] == 0.5)
        assert np.all((X[:, 2] >= 1) & (X[:, 2] <= 4))
        assert np.all(X[:, 2] == np.round(X[:, 2]))

    def test_reproducible_history(self):
        kw = dict(tuner=TunerConfig(fun_evals=16, seed=11),
                  design=DesignControl(init_size=6, seed=4),
                  surrogate_control=FAST_SURROGATE)
        a = run(sphere, float_space(2), **kw)
        b = run(sphere, float_space(2), **kw)
        assert a.y == b.y
        assert all(np.array_equal(p, q) for p, q in zip(a.X, b.X))

    def test_pairwise_distinct_rows(self):
        tol = 1e-8
        state = run(sphere, float_space(2),
                    TunerConfig(fun_evals=20, seed=5, tolerance_x=tol),
                    DesignControl(init_size=8, seed=6), FAST_SURROGATE)
        X = np.asarray(state.X)
        for i in range(len(X)):
            for j in range(i + 1, len(X)):
                assert np.max(np.abs(X[i] - X[j])) > tol

    def test_objective_exception_maps_to_sentinel(self):
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("boom")
            return sphere(config)

        state = run(flaky, float_space(2), TunerConfig(fun_evals=12, seed=2),
                    DesignControl(init_size=8, seed=7), FAST_SURROGATE)
        assert len(state) == 12
        assert all(math.isfinite(v) for v in state.y)
        assert state.y[2] == pytest.approx(worst_sentinel(state.y[:2]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_evaluation_failing_runs_the_whole_budget(self):
        # every penalty is 1e12, so every fit meets constant losses and
        # raises ValueError, and every proposal is random; penalties that
        # compounded once overflowed the likelihood and ended the run
        def failing(config):
            raise RuntimeError("boom")

        state = run(failing, float_space(2), TunerConfig(fun_evals=150, seed=2),
                    DesignControl(init_size=8, seed=7), FAST_SURROGATE)
        assert len(state) == 150
        assert tuner.all_failed(state.y)

    def test_nan_loss_maps_to_sentinel(self):
        def sometimes_nan(config):
            if config["x0"] > 0:
                return EvalResult(loss=math.nan, metric=math.nan)
            return sphere(config)

        state = run(sometimes_nan, float_space(1),
                    TunerConfig(fun_evals=12, seed=2),
                    DesignControl(init_size=8, seed=7), FAST_SURROGATE)
        assert all(math.isfinite(v) for v in state.y)

    def test_beats_random_search_on_sphere(self):
        state = run(sphere, float_space(2), TunerConfig(fun_evals=50, seed=21),
                    DesignControl(init_size=10, seed=8), FAST_SURROGATE)
        assert state.best_y <= 1e-2
        # independent oracle: median of 20 seeded random searches, same budget
        medians = [random_search(sphere, float_space(2), 50, seed=s).best_y
                   for s in range(20)]
        assert state.best_y <= float(np.median(medians))


class TestFunRepeats:
    def test_repeats_stored_as_separate_rows(self):
        # noisy-objective workflow: repeated proposals need a nugget model
        state = run(sphere, float_space(2),
                    TunerConfig(fun_evals=14, fun_repeats=2, seed=4),
                    DesignControl(init_size=8, seed=3),
                    SurrogateControl(noise=True, model_fun_evals=300))
        assert len(state) == 14
        seq = np.asarray(state.X[8:])
        assert np.array_equal(seq[0], seq[1])     # one proposal, two rows
        assert state.y[8] == state.y[9]           # deterministic objective

    def test_design_repeats_duplicate_rows(self):
        state = run(sphere, float_space(2),
                    TunerConfig(fun_evals=8, seed=4),
                    DesignControl(init_size=4, repeats=2, seed=3),
                    SurrogateControl(noise=True, model_fun_evals=200))
        X = np.asarray(state.X)
        assert len(X) == 8
        assert np.array_equal(X[0], X[1])


class TestRepeatsReachSurrogate:
    """A noise-free surrogate cannot fit repeated rows; ``fit`` averages
    them, so the loop fits their mean instead of falling back to random
    proposals."""

    @pytest.mark.parametrize("repeats", [
        dict(design=DesignControl(init_size=10, repeats=2, seed=5)),
        dict(tuner=TunerConfig(fun_evals=40, fun_repeats=2, seed=3)),
    ])
    def test_no_fit_failures(self, monkeypatch, repeats):
        import spotkit.surrogate as sg
        from spotkit.cli import _mixed4_objective, _mixed4_space

        fits = {"ok": 0, "failed": 0}
        real_fit = sg.fit

        def counting_fit(*args, **kwargs):
            try:
                model = real_fit(*args, **kwargs)
            except ValueError:
                fits["failed"] += 1
                raise
            fits["ok"] += 1
            return model

        monkeypatch.setattr(sg, "fit", counting_fit)
        state = run(_mixed4_objective, _mixed4_space(),
                    repeats.get("tuner", TunerConfig(fun_evals=40, seed=3)),
                    repeats.get("design", DesignControl(init_size=10, seed=5)),
                    SurrogateControl(model_fun_evals=300))
        assert len(state) == 40
        assert fits["failed"] == 0 and fits["ok"] > 0
        # random search reaches about 0.2 in 40 evaluations (bench table)
        assert state.best_y < 1e-2

    def test_artifact_refit_sees_repeats(self, tmp_path):
        from spotkit.cli import _mixed4_objective, _mixed4_space, write_artifacts

        space = _mixed4_space()
        cfg = SurrogateControl(model_fun_evals=300)
        state = run(_mixed4_objective, space, TunerConfig(fun_evals=24, seed=3),
                    DesignControl(init_size=10, repeats=2, seed=5), cfg)
        report = write_artifacts(str(tmp_path), space, state, cfg, seed=3)
        assert max(row["importance"] for row in report) == 100.0

    def test_collapse_to_mean_in_first_occurrence_order(self):
        X = np.array([[0.5, 1.0], [0.0, 0.0], [0.5, 1.0], [0.2, 0.3], [0.0, 0.0]])
        y = np.array([1.0, 4.0, 3.0, 7.0, 6.0])
        model = fit(X, y, FAST_SURROGATE, seed=0)
        distinct = np.array([[0.5, 1.0], [0.0, 0.0], [0.2, 0.3]])
        assert np.array_equal(model.Z, (distinct - model.norm_min) / model.norm_span)
        for row, mean in zip(distinct, [2.0, 5.0, 7.0]):
            assert model.predict(row) == pytest.approx(mean, abs=1e-6)
        # the nugget absorbs repeats
        model = fit(X, y, SurrogateControl(noise=True, model_fun_evals=300), seed=0)
        assert len(model.Z) == 5

    def test_distinct_rows_pass_through(self):
        X = np.random.default_rng(0).random((6, 3))
        y = X.sum(axis=1)
        model = fit(X, y, FAST_SURROGATE, seed=0)
        assert np.array_equal(model.Z, (X - X.min(axis=0)) / (X.max(axis=0) - X.min(axis=0)))
        np.testing.assert_allclose(model.predict(X), y, atol=1e-6)

    @pytest.mark.parametrize("init_size, repeats", [(1, 1), (1, 2)])
    def test_one_distinct_point_proposes_at_random(self, init_size, repeats):
        # fit raises on fewer than two distinct rows; the loop goes on
        state = run(sphere, float_space(2), TunerConfig(fun_evals=4, seed=0),
                    DesignControl(init_size=init_size, repeats=repeats, seed=1),
                    FAST_SURROGATE)
        assert len(state) == 4
        assert state.params[init_size * repeats] is None


def lattice_space(dims, upper):
    return SearchSpace(tuple(
        ParamSpec(name=f"k{i}", kind="int", default=0, lower=0.0, upper=float(upper))
        for i in range(dims)
    ))


def bowl_model(space, centre):
    """A surrogate fitted on a bowl over the lattice, lowest at ``centre``."""
    X = np.array(np.meshgrid(*[np.arange(p.upper + 1) for p in space.params]),
                 dtype=float).reshape(space.dim, -1).T
    return fit(X, ((X - centre) ** 2).sum(axis=1), FAST_SURROGATE, seed=0)


def history(*rows):
    state = RunState()
    for row in rows:
        state.append(np.asarray(row, dtype=float), 0.0, math.nan, "initial", 0.0)
    return state


class TestDuplicateReplacement:
    """``suggest_next`` proposes no point of the run history: a pool
    candidate within ``tolerance_x`` of an evaluated point gives way to the
    next one in order of predicted mean."""

    def test_duplicate_proposal_replaced_with_distant_point(self):
        space = lattice_space(2, 4)
        model = bowl_model(space, [2.0, 1.0])
        tol = 1e-8
        best = suggest_next(RunState(), model, space, budget=300, seed=0)[0]
        np.testing.assert_array_equal(best, [2.0, 1.0])
        state = history(best, [0.0, 0.0], [4.0, 4.0], [2.0, 2.0], [3.0, 1.0])
        out = suggest_next(state, model, space, budget=300, seed=0, tolerance_x=tol)
        assert out.shape == (1, 2)
        for row in state.X:
            assert np.max(np.abs(out[0] - row)) > tol

    def test_distinct_proposal_kept_verbatim(self):
        space = float_space(2)
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(12, 2))
        model = fit(X, (X ** 2).sum(axis=1), FAST_SURROGATE, seed=0)
        want = suggest_next(RunState(), model, space, budget=300, seed=1)
        got = suggest_next(history([0.9, 0.9]), model, space, budget=300, seed=1,
                           tolerance_x=1e-8)
        np.testing.assert_array_equal(got, want)

    def test_first_choice_is_best_distinct_pool_candidate(self):
        # with history the pool is the same, so the choices are the
        # empty-history ranking with the evaluated points struck out
        space = lattice_space(3, 3)
        model = bowl_model(space, [1.0, 2.0, 1.0])
        for seed in range(4):
            ranked = suggest_next(RunState(), model, space, n_points=3, budget=400,
                                  seed=seed, tolerance_x=1e-8)
            np.testing.assert_array_equal(ranked[0], [1.0, 2.0, 1.0])
            for n_seen in (1, 2):
                state = history(*ranked[:n_seen], [3.0, 3.0, 3.0])
                got = suggest_next(state, model, space, n_points=1, budget=400,
                                   seed=seed, tolerance_x=1e-8)
                np.testing.assert_array_equal(got, ranked[n_seen:n_seen + 1])
            got = suggest_next(history(ranked[0]), model, space, n_points=2,
                               budget=400, seed=seed, tolerance_x=1e-8)
            np.testing.assert_array_equal(got, ranked[1:])

    def test_no_model_draws_distinct_points_from_one_stream(self):
        # 16 lattice points, 6 evaluated: the draws skip the evaluated points
        # and each other, in the order the seed's stream yields them
        space = lattice_space(2, 3)
        state = history([0, 0], [1, 1], [2, 2], [3, 3], [0, 3], [3, 0])
        for seed in range(5):
            got = suggest_next(state, None, space, n_points=5, seed=seed,
                               tolerance_x=0.5)
            assert got.shape == (5, 2)
            for i, cand in enumerate(got):
                assert _is_distinct(cand, np.vstack([state.X, got[:i]]), 0.5)
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            want = np.empty((0, 2))
            while len(want) < 5:
                cand = _random_full_point(space, rng)
                if _is_distinct(cand, np.vstack([state.X, want]), 0.5):
                    want = np.vstack([want, cand])
            np.testing.assert_array_equal(got, want)

    def test_no_model_takes_any_draw_once_space_is_used_up(self):
        # every lattice point evaluated: 200 tries, then any draw
        space = lattice_space(1, 2)
        got = suggest_next(history([0], [1], [2]), None, space, n_points=2, seed=7,
                           tolerance_x=1e-8)
        rng = np.random.default_rng(np.random.SeedSequence(7))
        for _ in range(200):
            _random_full_point(space, rng)
        want = [_random_full_point(space, rng) for _ in range(2)]
        np.testing.assert_array_equal(got, want)


class TestWorstSentinel:
    def test_empty_history(self):
        assert worst_sentinel([]) == 1e12

    def test_positive_history_times_ten(self):
        assert worst_sentinel([0.5, 2.0]) == pytest.approx(20.0)

    def test_negative_history_still_worse(self):
        s = worst_sentinel([-5.0, -2.0])
        assert s > -2.0

    def test_all_failed_reads_the_penalties(self):
        ys = []
        for _ in range(320):        # compounding penalties overflowed past 300
            ys.append(worst_sentinel(ys))
        assert ys == [1e12] * 320
        assert tuner.all_failed(ys) and tuner.all_failed(ys[:1])
        assert not tuner.all_failed([])
        assert not tuner.all_failed([0.5] + ys[1:])
        assert not tuner.all_failed(ys[:5] + [1.0])
        assert not tuner.all_failed([2.0, worst_sentinel([2.0])])

    def test_failures_in_a_row_share_the_penalty(self):
        # each penalty counted the ones before it: 20, 200, 2000
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("boom")
            return EvalResult(loss=2.0, metric=math.nan)

        state = random_search(flaky, float_space(2), 4, seed=1)
        assert state.y == [2.0, 20.0, 20.0, 20.0]
        assert worst_sentinel(state.y) == 20.0
        assert not tuner.all_failed(state.y)

    def test_penalties_follow_the_successful_losses_only(self):
        def half_failing(config):
            if config["x0"] > 0:
                raise RuntimeError("boom")
            return sphere(config)

        state = run(half_failing, float_space(1), TunerConfig(fun_evals=20, seed=3),
                    DesignControl(init_size=8, seed=4), FAST_SURROGATE)
        failed = [x[0] > 0 for x in state.X]
        assert 2 <= sum(failed) < len(state)
        for i in np.flatnonzero(failed):
            successes = [v for v, f in zip(state.y[:i], failed) if not f]
            assert state.y[i] == worst_sentinel(successes)


class TestSuggestNext:
    def test_finds_parabola_minimum(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(15, 1))
        y = (X[:, 0] - 0.7) ** 2
        model = fit(X, y, FAST_SURROGATE, seed=0)
        space = float_space(1, 0.0, 1.0)
        state = RunState()
        cands = suggest_next(state, model, space, n_points=1, budget=600, seed=1)
        # dense-grid oracle on the surrogate mean itself
        grid = np.linspace(0, 1, 2001)[:, None]
        oracle = grid[int(np.argmin(model.predict_batch(grid))), 0]
        assert abs(cands[0][0] - oracle) <= 0.05
        assert abs(cands[0][0] - 0.7) <= 0.05

    def test_three_mutually_distinct(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(12, 2))
        y = X[:, 0] ** 2 + X[:, 1] ** 2
        model = fit(X, y, FAST_SURROGATE, seed=0)
        cands = suggest_next(RunState(), model, float_space(2), n_points=3,
                             budget=500, seed=2, tolerance_x=1e-8)
        assert len(cands) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.max(np.abs(cands[i] - cands[j])) > 1e-8

    def test_only_active_dim_varies(self):
        space = SearchSpace((
            ParamSpec(name="a", kind="float", default=0.3, lower=0.3, upper=0.3),
            ParamSpec(name="x", kind="float", default=0.0, lower=-1.0, upper=1.0),
            ParamSpec(name="c", kind="float", default=-2.0, lower=-2.0, upper=-2.0),
        ))
        rng = np.random.default_rng(2)
        Xa = rng.uniform(-1, 1, size=(10, 1))
        model = fit(Xa, Xa[:, 0] ** 2, FAST_SURROGATE, seed=0)
        cands = suggest_next(RunState(), model, space, n_points=4, budget=400,
                             seed=3, tolerance_x=1e-9)
        arr = np.asarray(cands)
        assert np.all(arr[:, 0] == 0.3)
        assert np.all(arr[:, 2] == -2.0)
        assert len(np.unique(arr[:, 1])) == 4

    @staticmethod
    def two_loop_fill(chosen, seen, space, rng, n_points, tolerance_x):
        """The former random fill, kept as the reference: up to 200 draws
        that must be distinct from ``seen`` and ``chosen``, then any draw."""
        tries = 0
        while len(chosen) < n_points and tries < 200:
            cand = _random_full_point(space, rng)
            if _is_distinct(cand, np.vstack([seen, chosen]), tolerance_x):
                chosen = np.vstack([chosen, cand])
            tries += 1
        while len(chosen) < n_points:
            chosen = np.vstack([chosen, _random_full_point(space, rng)])
        return chosen

    def test_random_fill_matches_two_loop_version(self):
        # three binary dimensions: 8 lattice points, one of them evaluated,
        # for 9-12 candidates, so the fill runs out of distinct draws and
        # takes any draw; 2 * n_points probes (no Nelder-Mead budget) leave
        # some points to the fill
        space = SearchSpace(tuple(
            ParamSpec(name=f"b{i}", kind="int", default=0, lower=0.0, upper=1.0)
            for i in range(3)
        ))
        X = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 1], [1, 1, 0], [0, 0, 1]], float)
        model = fit(X, X @ [1.0, 2.0, 0.5], FAST_SURROGATE, seed=0)
        state = history([1, 0, 0])
        lo, hi = np.zeros(3), np.ones(3)
        drew_new = drew_any = False
        for seed in range(6):
            for n_points in (9, 10, 12):
                cands = suggest_next(state, model, space, n_points=n_points,
                                     budget=2 * n_points, seed=seed,
                                     tolerance_x=1e-8)
                rng = np.random.default_rng(np.random.SeedSequence(seed))
                probes = rng.uniform(lo, hi, size=(2 * n_points, 3))
                pooled = {tuple(_embed_active(space, p)) for p in probes}
                k = len(pooled - {(1.0, 0.0, 0.0)})
                ref = self.two_loop_fill(cands[:k], np.asarray(state.X), space, rng,
                                         n_points, 1e-8)
                assert np.array_equal(cands, ref)
                n_distinct = len(np.unique(cands, axis=0))
                drew_new |= n_distinct > k
                drew_any |= n_distinct < n_points
        assert drew_new and drew_any


class RecordingModel(KrigingModel):
    """A fitted model that records its ``predict`` and ``predict_batch`` calls."""

    @classmethod
    def of(cls, model):
        rec = cls(**{f.name: getattr(model, f.name) for f in fields(model)})
        rec.calls = []
        return rec

    def predict(self, x):
        self.calls.append(("predict", np.array(x)))
        return super().predict(x)

    def predict_batch(self, X):
        self.calls.append(("predict_batch", np.array(X)))
        return super().predict_batch(X)


class TestPredictorNames:
    """The infill search and the contour export reach the model through
    ``predict_batch`` and ``predict``, the names the benchmark's counters
    wrap."""

    def test_suggest_next_one_batch_then_one_predict_per_round(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(12, 2))
        model = RecordingModel.of(fit(X, (X ** 2).sum(axis=1), FAST_SURROGATE, seed=0))
        runs = []

        def counted(f, X0, *args):
            calls = []

            def g(rows):
                calls.append(rows.copy())
                return f(rows)

            out = _nelder_mead(g, X0, *args)
            runs.append((calls, [r[2] for r in out]))
            return out

        monkeypatch.setattr(tuner, "_nelder_mead", counted)
        suggest_next(RunState(), model, float_space(2), n_points=2, budget=300, seed=4)
        rng = np.random.default_rng(np.random.SeedSequence(4))
        probes = rng.uniform(-1.0, 1.0, size=(150, 2))
        names = [name for name, _ in model.calls]
        assert names[0] == "predict_batch"
        assert np.array_equal(model.calls[0][1], probes)
        # one lockstep run of three starts: the initial simplices in one
        # call, then one call per round (plus one per round that shrinks),
        # each on 2-D rows
        [(calls, nfevs)] = runs
        assert len(nfevs) == 3 and names[1:] == ["predict"] * len(calls)
        assert all(np.array_equal(v, rows) for (_, v), rows in zip(model.calls[1:], calls))
        assert calls[0].shape == (3 * 3, 2)
        assert all(rows.ndim == 2 and rows.shape[1] == 2 for rows in calls)
        assert len(calls) <= max(nfevs) < sum(nfevs)

    def test_export_contour_one_predict_for_the_grid(self):
        rng = np.random.default_rng(4)
        X = rng.random((10, 2))
        model = RecordingModel.of(fit(X, X.sum(axis=1), FAST_SURROGATE, seed=0))
        rows = export_contour(model, float_space(2, 0.0, 1.0), ("x0", "x1"), grid=4)
        [(name, V)] = model.calls
        assert name == "predict" and V.shape == (16, 2)
        assert V.tolist() == [[r["x0"], r["x1"]] for r in rows]


def sequential_nelder_mead(f, x0, lo, hi, maxfev) -> tuple[np.ndarray, float, int]:
    """The one-start port of scipy 1.17.1's bounded Nelder-Mead that
    ``_nelder_mead`` replaced, kept verbatim as its reference: one ``f``
    call per vertex, on a 1-D point."""
    N = x0.size
    x0 = np.minimum(np.maximum(x0, lo), hi)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    sim = np.where(sim > hi, 2 * hi - sim, sim)
    sim = np.minimum(np.maximum(sim, lo), hi)

    fsim = np.full(N + 1, np.inf)
    nfev = min(N + 1, maxfev)
    for k in range(nfev):
        fsim[k] = f(sim[k])
    for _ in range(2):          # scipy sorts twice; ties may move the second time
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    while nfev < maxfev:
        if (np.abs(sim[1:] - sim[0]).max() <= 1e-8
                and np.abs(fsim[0] - fsim[1:]).max() <= 1e-12):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = np.minimum(np.maximum(2 * xbar - sim[-1], lo), hi)
        fxr = f(xr)
        nfev += 1
        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = np.minimum(np.maximum(3 * xbar - 2 * sim[-1], lo), hi)
                fxe = f(xe)
                nfev += 1
                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        elif nfev < maxfev:
            if fxr < fsim[-1]:      # outside contraction
                xc = np.minimum(np.maximum(1.5 * xbar - 0.5 * sim[-1], lo), hi)
                fxc = f(xc)
                nfev += 1
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1] = xc
                    fsim[-1] = fxc
            else:                   # inside contraction
                xcc = np.minimum(np.maximum(0.5 * xbar + 0.5 * sim[-1], lo), hi)
                fxcc = f(xcc)
                nfev += 1
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = np.minimum(
                        np.maximum(sim[0] + 0.5 * (sim[j] - sim[0]), lo), hi)
                    if nfev >= maxfev:
                        break
                    fsim[j] = f(sim[j])
                    nfev += 1
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)
    return sim[0], fsim.min(), nfev


class ConstantMean:
    """A surrogate whose mean is ``value`` everywhere, with
    ``KrigingModel``'s ``predict`` and ``predict_batch`` shapes: the flat
    surface on which every Nelder-Mead vertex ties. ``fit`` makes no model
    of equal losses."""

    def __init__(self, value):
        self.value = value

    def predict_batch(self, X):
        return np.full(np.atleast_2d(X).shape[0], self.value)

    def predict(self, x):
        Q = np.asarray(x, dtype=float)
        return self.value if Q.ndim == 1 else self.predict_batch(Q)


def rows_of(f):
    """``f`` of one point, as the function of rows ``_nelder_mead`` calls."""
    return lambda X: np.array([f(x) for x in X])


def scipy_nelder_mead(f, x0, lo, hi, maxfev):
    from scipy.optimize import minimize

    res = minimize(f, x0, method="Nelder-Mead", bounds=list(zip(lo, hi)),
                   options={"maxfev": maxfev, "xatol": 1e-8, "fatol": 1e-12})
    return res.x, res.fun, res.nfev


def assert_same_as_scipy(f, x0, lo, hi, maxfev):
    [(x, fun, nfev)] = _nelder_mead(rows_of(f), x0[None, :], lo, hi, maxfev)
    ref_x, ref_fun, ref_nfev = scipy_nelder_mead(f, x0, lo, hi, maxfev)
    assert np.array_equal(x, ref_x)
    assert np.array_equal(np.signbit(x), np.signbit(ref_x))
    assert fun == ref_fun
    assert nfev == ref_nfev


def assert_same_as_sequential(model, X0, lo, hi, maxfev):
    """Each lockstep start, ``model.predict`` scoring rows, equals the
    sequential port run from that start alone on single points."""
    out = _nelder_mead(model.predict, X0, lo, hi, maxfev)
    assert len(out) == len(X0)
    for (x, fun, nfev), x0 in zip(out, X0):
        ref_x, ref_fun, ref_nfev = sequential_nelder_mead(model.predict, x0, lo, hi, maxfev)
        assert np.array_equal(x, ref_x)
        assert np.array_equal(np.signbit(x), np.signbit(ref_x))
        assert fun == ref_fun and np.signbit(fun) == np.signbit(ref_fun)
        assert nfev == ref_nfev


class TestNelderMead:
    """The in-repo port against scipy's bounded Nelder-Mead, bit for bit,
    one start at a time."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_random_fitted_models(self, d):
        rng = np.random.default_rng(100 + d)
        for case in range(8):
            n = int(rng.integers(3, 41))
            X = rng.random((n, d)) * 4.0 - 2.0
            y = np.sin(2.0 * X).sum(axis=1) + 0.1 * rng.normal(size=n)
            model = fit(X, y, SurrogateControl(noise=case % 2 == 1,
                                               model_fun_evals=60), seed=case)
            lo, hi = np.full(d, -2.0), np.full(d, 2.0)
            maxfev = int(rng.integers(3 * (d + 1), 250))
            assert_same_as_scipy(model.predict, rng.uniform(lo, hi), lo, hi, maxfev)

    def test_constant_data_model(self):
        model = ConstantMean(3.5)
        lo, hi = np.zeros(3), np.ones(3)
        assert_same_as_scipy(model.predict, np.array([0.2, 0.7, 0.4]), lo, hi, 400)

    def test_maxfev_cuts_a_shrink(self):
        # a constant surface ties every vertex, so each iteration reflects,
        # contracts inside and shrinks: 4 initial calls, then 2 + 3 per
        # iteration; cutting at 4 + 2 * 5 + 2 + k leaves a shrink after
        # k < 3 of its vertices (k = 0: cut just before the first one)
        model = ConstantMean(-1.0)
        lo, hi = np.zeros(3), np.ones(3)
        x0 = np.array([0.2, 0.7, 0.4])
        for k in range(3):
            assert_same_as_scipy(model.predict, x0, lo, hi, 4 + 2 * 5 + 2 + k)
        rng = np.random.default_rng(4)
        X = rng.random((12, 3))
        model = fit(X, (X ** 2).sum(axis=1), FAST_SURROGATE, seed=0)
        for maxfev in range(1, 120):
            assert_same_as_scipy(model.predict, x0, lo, hi, maxfev)

    def test_start_on_bound_and_zero_coordinate(self):
        rng = np.random.default_rng(9)
        X = rng.random((15, 3)) * 2.0 - 1.0
        model = fit(X, (X - 0.3).sum(axis=1) ** 2, FAST_SURROGATE, seed=1)
        lo, hi = np.full(3, -1.0), np.ones(3)
        for x0 in ([1.0, 1.0, 1.0], [-1.0, 0.5, 1.0], [0.0, 0.0, 0.4],
                   [0.0, 1.0, -1.0]):
            assert_same_as_scipy(model.predict, np.array(x0), lo, hi, 200)
        # zero lower bounds: a zero start coordinate gets the 0.00025 step
        assert_same_as_scipy(model.predict, np.array([0.0, 0.0, 0.0]),
                             np.zeros(3), hi, 200)

    def test_converges_inside_box(self):
        lo, hi = np.zeros(2), np.ones(2)
        [(x, fun, nfev)] = _nelder_mead(rows_of(lambda v: float(((v - 0.3) ** 2).sum())),
                                        np.array([[0.9, 0.1]]), lo, hi, 1000)
        assert np.allclose(x, 0.3, atol=1e-6)
        assert fun < 1e-12 and nfev < 1000


class TestLockstepNelderMead:
    """Starts run side by side give, per start, the bits of the sequential
    port run from that start alone."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_every_maxfev_and_start_count(self, d):
        rng = np.random.default_rng(200 + d)
        X = rng.random((int(rng.integers(d + 3, 31)), d)) * 2.0 - 1.0
        model = fit(X, np.cos(2.0 * X).sum(axis=1), FAST_SURROGATE, seed=d)
        lo, hi = np.full(d, -1.0), np.ones(d)
        for maxfev in range(1, 121):
            X0 = rng.uniform(lo, hi, size=(1 + maxfev % 6, d))
            assert_same_as_sequential(model, X0, lo, hi, maxfev)

    def test_constant_data_model(self):
        # every vertex ties: each round reflects, contracts and shrinks, and
        # the starts' shrinks share a call
        model = ConstantMean(3.5)
        lo, hi = np.zeros(3), np.ones(3)
        X0 = np.random.default_rng(5).random((6, 3))
        for maxfev in range(1, 121):
            assert_same_as_sequential(model, X0[:1 + maxfev % 6], lo, hi, maxfev)

    def test_starts_on_bounds_and_at_zero(self):
        rng = np.random.default_rng(9)
        X = rng.random((15, 3)) * 2.0 - 1.0
        model = fit(X, (X - 0.3).sum(axis=1) ** 2, FAST_SURROGATE, seed=1)
        X0 = np.array([[1.0, 1.0, 1.0], [-1.0, 0.5, 1.0], [0.0, 0.0, 0.4],
                       [0.0, 1.0, -1.0], [-0.0, 0.0, -0.0], [0.5, -0.0, 1.0]])
        for lo in (np.full(3, -1.0), np.zeros(3)):
            for maxfev in (1, 4, 5, 30, 200):
                assert_same_as_sequential(model, X0, lo, np.ones(3), maxfev)

    def test_partly_tied_outside_narrow_data_box(self):
        # the model clamps every vertex beyond its data box [0, 0.2]^3 onto
        # the box, so vertices outside it tie: some starts' simplices in
        # part, the fourth start's wholly; maxfev below N + 1 leaves
        # unscored vertices at inf
        rng = np.random.default_rng(13)
        X = rng.random((10, 3)) * 0.2
        model = fit(X, (X ** 2).sum(axis=1), FAST_SURROGATE, seed=0)
        lo, hi = np.full(3, -1.0), np.ones(3)
        X0 = np.array([[-0.9, -0.8, 0.1], [0.9, 0.05, 0.7], [0.1, 0.15, 0.05],
                       [-0.5, 0.5, -0.5], [0.21, 0.1, 0.1]])
        # the fourth start and its initial vertices clamp to one corner
        V = X0[3] * (1.0 + 0.05 * np.vstack([np.zeros(3), np.eye(3)]))
        assert len(set(model.predict(V).tolist())) == 1
        for maxfev in (1, 2, 3, 4, 5, 12, 40, 200):
            assert_same_as_sequential(model, X0, lo, hi, maxfev)


def sequential_suggest_next(model, space, n_points, budget, seed, tolerance_x, ran=None):
    """``suggest_next`` with one Nelder-Mead start after another, kept as the
    reference for the lockstep starts and their budget split; each start it
    runs is appended to ``ran`` when given."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    active = space.active
    lo = np.array([p.lower for p in active])
    hi = np.array([p.upper for p in active])
    d = len(active)

    n_probe = max(2 * n_points, budget // 2)
    probes = rng.uniform(lo, hi, size=(n_probe, d))
    mu = model.predict_batch(probes)
    order = np.argsort(mu, kind="stable")

    pool: list[tuple[float, np.ndarray]] = []
    remaining = budget - n_probe
    n_starts = max(0, min(max(n_points, 3), remaining // (3 * (d + 1))))
    for i in order[:n_starts]:
        if ran is not None:
            ran.append(probes[i])
        x, fun, _ = sequential_nelder_mead(model.predict, probes[i], lo, hi,
                                           remaining // n_starts)
        pool.append((float(fun), x))
    pool.extend((float(mu[i]), probes[i]) for i in order)
    pool.sort(key=lambda t: t[0])

    chosen = np.empty((0, space.dim))
    for _, v in pool:
        cand = _embed_active(space, v)
        if _is_distinct(cand, chosen, tolerance_x):
            chosen = np.vstack([chosen, cand])
        if len(chosen) == n_points:
            break
    tries = 0
    while len(chosen) < n_points:      # distinct draws; any draw after 200 tries
        cand = _random_full_point(space, rng)
        if tries >= 200 or _is_distinct(cand, chosen, tolerance_x):
            chosen = np.vstack([chosen, cand])
        tries += 1
    return chosen


class TestSuggestNextStopRule:
    """The lockstep starts give the candidates of the same starts run one
    after another: the first ``n_starts`` probes, each on ``remaining //
    n_starts`` evaluations, every result into the pool."""

    @staticmethod
    def sine_model(d):
        rng = np.random.default_rng(d)
        X = rng.random((4 * d + 4, d)) * 2.0 - 1.0
        return fit(X, np.sin(3.0 * X).sum(axis=1), FAST_SURROGATE, seed=0)

    @staticmethod
    def record(monkeypatch):
        """Replace ``_nelder_mead`` by a wrapper that appends the starts and
        results of each call to the returned list."""
        calls = []

        def recorded(f, X0, *args):
            calls.append((X0.copy(), _nelder_mead(f, X0, *args)))
            return calls[-1][1]

        monkeypatch.setattr(tuner, "_nelder_mead", recorded)
        return calls

    def compare(self, monkeypatch, model, space, n_points, budget, seeds):
        """Candidates equal the sequential loop's, per seed, and the starts
        it runs are the starts of the lockstep calls; returns per seed the
        starts of each ``_nelder_mead`` call."""
        calls = self.record(monkeypatch)
        waves = []
        for seed in seeds:
            calls.clear()
            cands = suggest_next(RunState(), model, space, n_points, budget, seed, 1e-8)
            ran = []
            ref = sequential_suggest_next(model, space, n_points, budget, seed, 1e-8, ran)
            assert np.array_equal(cands, ref)
            waves.append([X0 for X0, _ in calls])
            assert np.array_equal(np.concatenate(waves[-1]), ran)
        return waves

    def test_every_start_runs(self, monkeypatch):
        # remaining // n_starts >= min_fev: the budget covers every start,
        # and all of them run in one lockstep wave
        for d, n_points, budget in ((4, 1, 600), (2, 3, 400)):
            waves = self.compare(monkeypatch, self.sine_model(d), float_space(d),
                                 n_points, budget, range(8))
            assert all(len(w) == 1 and len(w[0]) == max(n_points, 3) for w in waves)

    def test_truncated_prefix(self, monkeypatch):
        # d = 6, 25 points: 400 probes leave 400 evaluations, enough for
        # 400 // 21 = 19 starts at min_fev = 21 each; they run in one call
        waves = self.compare(monkeypatch, self.sine_model(6), float_space(6),
                             25, 800, range(3))
        assert all(len(w) == 1 and len(w[0]) == 19 for w in waves)

    def test_converged_starts_leave_budget_for_another_wave(self, monkeypatch):
        # a constant model on a box narrower than xatol: every start stops
        # after its 7 initial evaluations, well inside its 21, and still
        # only the 19 starts the split allows run
        waves = self.compare(monkeypatch, ConstantMean(2.0), float_space(6, 0.0, 1e-9),
                             25, 800, range(2))
        assert all([len(x) for x in w] == [19] for w in waves)

    def test_many_points_stay_within_budget(self, monkeypatch):
        # d = 6, 25 points, budget 800: the 400 probes leave 400 evaluations,
        # and the starts spend no more (25 starts at 21 each would be 525)
        calls = self.record(monkeypatch)
        model, space = self.sine_model(6), float_space(6)
        for seed in range(3):
            calls.clear()
            suggest_next(RunState(), model, space, 25, 800, seed, 1e-8)
            assert len(calls) == 1
            assert sum(nfev for _, out in calls for _, _, nfev in out) <= 400

    def test_probes_beyond_budget_run_no_search(self, monkeypatch):
        # 25 points take 50 probes, more than the budget of 40: no start runs
        calls = self.record(monkeypatch)
        cands = suggest_next(RunState(), self.sine_model(2), float_space(2),
                             25, 40, 0, 1e-8)
        assert calls == [] and len(cands) == 25


class TestBest:
    def test_argmin(self):
        state = RunState()
        space = float_space(1)
        for v, y in [(0.1, 3.0), (0.2, 1.0), (0.3, 2.0)]:
            state.append(np.array([v]), y, math.nan, "initial", 0.0)
        config, loss = best(state, space)
        assert loss == 1.0
        assert config == {"x0": 0.2}

    def test_tie_earliest_wins(self):
        state = RunState()
        space = float_space(1)
        state.append(np.array([0.5]), 1.0, math.nan, "initial", 0.0)
        state.append(np.array([-0.5]), 1.0, math.nan, "initial", 0.0)
        config, _ = best(state, space)
        assert config == {"x0": 0.5}

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError):
            best(RunState(), float_space(1))


class TestPersistence:
    def test_run_state_round_trip(self, tmp_path):
        state = run(sphere, float_space(2), TunerConfig(fun_evals=12, seed=0),
                    DesignControl(init_size=8, seed=1), FAST_SURROGATE,
                    out_dir=str(tmp_path), meta={"tag": "t"})
        loaded = load_run_state(str(tmp_path))
        assert loaded.y == state.y
        assert loaded.meta == {"tag": "t"}
        assert loaded.phases == state.phases

    def test_events_csv_deterministic_columns(self, tmp_path):
        space = float_space(2)
        state = run(sphere, space, TunerConfig(fun_evals=12, seed=0),
                    DesignControl(init_size=8, seed=1), FAST_SURROGATE)
        text = events_csv(state, space)
        header = text.splitlines()[0]
        assert header == "iteration,phase,loss,metric,config"
        assert len(text.splitlines()) == 13
        row = text.splitlines()[1].split(",", 3)
        assert row[0] == "1"
        assert row[1] == "initial"

    def test_events_csv_start_appends_rows(self):
        space = float_space(2)
        state = run(sphere, space, TunerConfig(fun_evals=12, seed=0),
                    DesignControl(init_size=8, seed=1), FAST_SURROGATE)
        full = events_csv(state, space)
        for k in (1, 7, 12):
            partial = RunState(X=state.X[:k], y=state.y[:k],
                               metrics=state.metrics[:k], phases=state.phases[:k])
            assert events_csv(partial, space) + events_csv(state, space, k) == full

    def test_events_file_matches_full_render_across_resume(self, tmp_path):
        space = float_space(2)
        kw = dict(design=DesignControl(init_size=6, seed=2),
                  surrogate_control=FAST_SURROGATE, out_dir=str(tmp_path))
        run(sphere, space, TunerConfig(fun_evals=9, seed=3), **kw)
        events = tmp_path / "events.csv"
        first = load_run_state(str(tmp_path))
        assert events.read_text() == events_csv(first, space)
        resumed = run(sphere, space, TunerConfig(fun_evals=13, seed=3),
                      state=first, **kw)
        assert events.read_text() == events_csv(resumed, space)
        assert len(events.read_text().splitlines()) == 14

    def test_corrupt_state_rejected(self, tmp_path):
        (tmp_path / "run_state.json").write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            load_run_state(str(tmp_path))

    def test_missing_state_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_state(str(tmp_path / "void"))

    def test_resume_extends_history(self):
        kw = dict(tuner=TunerConfig(fun_evals=14, seed=9),
                  design=DesignControl(init_size=6, seed=2),
                  surrogate_control=FAST_SURROGATE)
        full = run(sphere, float_space(2), **kw)
        part = run(sphere, float_space(2),
                   tuner=TunerConfig(fun_evals=9, seed=9),
                   design=DesignControl(init_size=6, seed=2),
                   surrogate_control=FAST_SURROGATE)
        resumed = run(sphere, float_space(2), state=part, **kw)
        assert len(resumed) == 14
        assert resumed.y == full.y

    def test_resume_mid_design_finishes_it(self):
        kw = dict(tuner=TunerConfig(fun_evals=12, seed=9),
                  design=DesignControl(init_size=8, seed=2),
                  surrogate_control=FAST_SURROGATE)
        full = run(sphere, float_space(2), **kw)
        cut = RunState()
        for i in range(3):          # crash three rows into the design
            cut.append(full.X[i], full.y[i], full.metrics[i], "initial", 0.0)
        resumed = run(sphere, float_space(2), state=cut, **kw)
        assert resumed.y == full.y
        assert resumed.phases == full.phases

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TunerConfig(n_points=0)
        with pytest.raises(ValueError):
            TunerConfig(fun_evals=math.inf, max_time=math.inf)
        with pytest.raises(ValueError):
            TunerConfig(tolerance_x=-1.0)
        with pytest.raises(ValueError, match="whole number"):
            TunerConfig(fun_evals=12.5)
        with pytest.raises(ValueError, match="n_points must be a whole number"):
            TunerConfig(fun_evals=10, n_points=1.5)
        with pytest.raises(ValueError, match="fun_repeats must be a whole number"):
            TunerConfig(fun_evals=10, fun_repeats=1.5)
        with pytest.raises(ValueError, match="whole number"):
            TunerConfig(fun_evals=10, fun_repeats=math.inf)
        # a NaN passes < / >= checks; an infinite tolerance counts every point
        # as a duplicate
        for kw in ({"tolerance_x": math.nan}, {"tolerance_x": math.inf},
                   {"max_time": math.nan}, {"max_time": -1.0}):
            with pytest.raises(ValueError, match=next(iter(kw))):
                TunerConfig(fun_evals=10, **kw)
        TunerConfig(fun_evals=10, tolerance_x=0.0, max_time=0.0)
        TunerConfig(fun_evals=10, max_time=math.inf)
        cfg = TunerConfig(fun_evals=10, n_points=2.0, fun_repeats=3.0)
        assert (cfg.n_points, cfg.fun_repeats) == (2, 3)
        assert type(cfg.n_points) is int and type(cfg.fun_repeats) is int


class TestWarmFits:
    @staticmethod
    def fit_starts(monkeypatch, refreshes=None) -> list:
        """The ``start`` of every ``fit`` the loop makes, recorded as a list
        (None when there is none), and its ``refresh`` flag appended to
        ``refreshes`` when given."""
        starts, real_fit = [], sg.fit

        def spy(*args, start=None, refresh=False, **kw):
            starts.append(None if start is None else list(start))
            if refreshes is not None:
                refreshes.append(refresh)
            return real_fit(*args, start=start, refresh=refresh, **kw)

        monkeypatch.setattr(sg, "fit", spy)
        return starts

    @staticmethod
    def search_budgets(monkeypatch) -> list:
        """The budget of every ``surrogate._budgeted_search`` call; the
        search runs."""
        budgets, real_search = [], sg._budgeted_search

        def spy(objective, lo, hi, budget, seed, *, start=None):
            budgets.append(budget)
            return real_search(objective, lo, hi, budget, seed, start=start)

        monkeypatch.setattr(sg, "_budgeted_search", spy)
        return budgets

    def test_cold_every_fifth_evaluation_warm_from_the_last_between(self, monkeypatch):
        refreshes = []
        starts = self.fit_starts(monkeypatch, refreshes)
        budgets = self.search_budgets(monkeypatch)
        state = run(sphere, float_space(2), TunerConfig(fun_evals=30, seed=4),
                    DesignControl(init_size=8, seed=1), FAST_SURROGATE)
        assert state.params[:8] == [None] * 8
        seq = state.params[8:]
        assert all(p is not None and len(p) == 2 for p in seq)
        assert starts == [None] + seq[:21]
        assert refreshes == [k % tuner.REFRESH_EVERY == 0 for k in range(22)]
        # below 20 rows (k < 12) every fit searches, cold on a refresh; from
        # there the refreshes (k = 15, 20) search warm and the rest keep
        full, warm = 300, 300 // sg.WARM_BUDGET_DIVISOR
        assert budgets == ([full] + [warm] * 4) * 2 + [full, warm] + [warm] * 2

    @pytest.mark.parametrize("n_points, fun_repeats", [(5, 1), (1, 5), (2, 1)])
    def test_cold_every_fifth_iteration(self, monkeypatch, n_points, fun_repeats):
        # an iteration of 5 evaluations once made every fit a refresh
        refreshes = []
        starts = self.fit_starts(monkeypatch, refreshes)
        per = n_points * fun_repeats
        state = run(sphere, float_space(2),
                    TunerConfig(fun_evals=8 + 7 * per, n_points=n_points,
                                fun_repeats=fun_repeats, seed=4),
                    DesignControl(init_size=8, seed=1), FAST_SURROGATE)
        seq = state.params[8:]
        assert len(seq) == 7 * per and all(p is not None for p in seq)
        assert starts == [None] + [seq[i * per - 1] for i in range(1, 7)]
        assert refreshes == [i % tuner.REFRESH_EVERY == 0 for i in range(7)]

    def test_refresh_searches_warm_from_ten_rows_per_dimension(self, monkeypatch):
        # mixed4 has 4 dimensions and a 10-point design, so the fit at
        # iteration k sees 10 + k distinct rows and reaches 40 at k = 30
        from spotkit.cli import _mixed4_objective, _mixed4_space

        budgets = self.search_budgets(monkeypatch)
        run(_mixed4_objective, _mixed4_space(), TunerConfig(fun_evals=120, seed=3),
            DesignControl(init_size=10, seed=5), SurrogateControl(model_fun_evals=300))
        full, warm = 300, 300 // sg.WARM_BUDGET_DIVISOR
        # cold refreshes at k = 0, 5, ..., 25, warm ones from k = 30 on, and
        # kept fits between those
        assert budgets == ([full] + [warm] * 4) * 6 + [warm] * 16

    def test_noise_params_end_with_the_log10_nugget(self, monkeypatch):
        starts = self.fit_starts(monkeypatch)
        state = run(sphere, float_space(2), TunerConfig(fun_evals=16, seed=4),
                    DesignControl(init_size=8, seed=1),
                    SurrogateControl(noise=True, model_fun_evals=300))
        assert all(len(p) == 3 and -8.0 <= p[2] <= -0.99 for p in state.params[8:])
        assert starts[1] == state.params[8]

    def test_constant_data_model_leaves_the_next_fit_cold(self, monkeypatch):
        starts = self.fit_starts(monkeypatch)
        state = run(lambda config: EvalResult(loss=1.0, metric=math.nan),
                    float_space(2), TunerConfig(fun_evals=14, seed=4),
                    DesignControl(init_size=8, seed=1), FAST_SURROGATE)
        assert state.params == [None] * 14
        assert starts == [None] * 6

    def test_random_search_stores_no_params(self):
        assert random_search(sphere, float_space(2), 5, seed=1).params == [None] * 5

    def test_params_round_trip_and_length_checked(self, tmp_path):
        state = run(sphere, float_space(2), TunerConfig(fun_evals=12, seed=0),
                    DesignControl(init_size=8, seed=1), FAST_SURROGATE,
                    out_dir=str(tmp_path))
        assert load_run_state(str(tmp_path)).params == state.params
        doc = state.to_dict()
        doc["params"] = doc["params"][:-1]
        with pytest.raises(ValueError, match="column lengths differ"):
            RunState.from_dict(doc)
        del doc["params"]
        assert RunState.from_dict(doc).params == [None] * 12


def test_random_search_failures_map_to_sentinel():
    calls = {"n": 0}

    def flaky(config):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("boom")
        if calls["n"] == 5:
            return EvalResult(loss=math.inf, metric=0.5)
        return sphere(config)

    state = random_search(flaky, float_space(2), 6, seed=1)
    assert state.y[2] == worst_sentinel(state.y[:2])
    assert math.isnan(state.metrics[2])
    assert state.y[4] == worst_sentinel(state.y[:4])
    assert state.metrics[4] == 0.5
    assert state.phases == ["random"] * 6


def test_random_search_budget_and_bounds():
    space = float_space(3)
    state = random_search(sphere, space, 25, seed=4)
    assert len(state) == 25
    X = np.asarray(state.X)
    assert np.all((X >= -1.0) & (X <= 1.0))


def test_atomic_write_replaces_without_leftovers(tmp_path):
    from spotkit.tuner import atomic_write

    target = tmp_path / "state.json"
    atomic_write(str(target), "first")
    atomic_write(str(target), "second")
    assert target.read_text() == "second"
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

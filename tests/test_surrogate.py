import importlib.util
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrs

from spotkit import surrogate as sg
from spotkit.design import DesignControl, latin_hypercube
from spotkit.surrogate import (
    JITTER_FLOOR, SurrogateControl, fit, neg_log_likelihood,
)


def dense_inverse_nll(X, y, theta_log10, nugget):
    """Oracle: the same likelihood through an explicit matrix inverse."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = len(y)
    t10 = 10.0 ** np.asarray(theta_log10, dtype=float)
    R = np.ones((n, n))
    for i in range(n):
        for j in range(n):
            R[i, j] = math.exp(-float(np.sum(t10 * (X[i] - X[j]) ** 2)))
    R += nugget * np.eye(n)
    Rinv = np.linalg.inv(R)
    one = np.ones(n)
    mu = (one @ Rinv @ y) / (one @ Rinv @ one)
    r = y - mu
    sigma2 = (r @ Rinv @ r) / n
    sign, logdet = np.linalg.slogdet(R)
    assert sign > 0
    return n * math.log(sigma2) + logdet


def two_solve_nll(Z, y, v, noise):
    """Reference for the fit objective: R from np.tensordot over the squared
    distances, then one solve for the two right-hand sides y and ones."""
    n, d = Z.shape
    D = np.empty((d, n, n))
    for k in range(d):
        diff = Z[:, k, None] - Z[None, :, k]
        D[k] = diff * diff
    R = np.exp(-np.tensordot(10.0 ** v[:d], D, axes=1))
    R[np.diag_indices_from(R)] += 10.0 ** v[d] if noise else JITTER_FLOOR
    return cho_nll(R, y)


def cho_nll(R, y):
    """Reference NLL of one correlation matrix: its Cholesky factor, then one
    LAPACK solve for the columns y and ones, the call the code makes (two
    one-column solves give other bits on some OpenBLAS kernels); +inf when R
    is not positive definite."""
    n = y.size
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        return math.inf
    one = np.ones(n)
    sol, info = dpotrs(L.T, np.column_stack((y, one)), lower=0)
    assert info == 0
    rinv_y, rinv_one = sol[:, 0], sol[:, 1]
    mu = (one @ rinv_y) / (one @ rinv_one)
    rinv_r = rinv_y - mu * rinv_one
    sigma2 = max(float((y - mu) @ rinv_r) / n, 1e-300)
    return n * math.log(sigma2) + 2.0 * float(np.sum(np.log(np.diag(L))))


def fit_objective(monkeypatch, X, y, control):
    """The likelihood function ``fit`` hands to its search, with the box."""
    captured = []

    def capture(objective, lo, hi, budget, seed, *, start=None):
        captured.append((objective, lo, hi))
        return 0.5 * (lo + hi), 0.0

    monkeypatch.setattr(sg, "_budgeted_search", capture)
    fit(X, y, control, seed=0)
    return captured.pop()


def correlation(Z, theta_log10, nugget):
    """R of the normalized inputs ``Z`` at ``theta_log10`` with ``nugget`` on
    its diagonal, through the surrogate's one correlation formula."""
    n = Z.shape[0]
    R = sg._corr(10.0 ** np.asarray(theta_log10)[None, :], sg._pair_diffs(Z)).reshape(n, n)
    R[np.diag_indices(n)] += nugget
    return R


def loop_correlations(A, B, t10):
    """Reference: the negated squared differences formed one dimension at a
    time, then weighted by one length-d ``np.dot`` per row of ``A``."""
    m, d = A.shape
    D = np.empty((m, d, B.shape[0]))
    for k in range(d):
        diff = A[:, k, None] - B[None, :, k]
        D[:, k] = -(diff * diff)
    return np.exp(np.array([np.dot(t10, D[i]) for i in range(m)]))


class TestKernel:
    @pytest.mark.parametrize("d", range(1, 11))
    def test_bit_equal_to_per_dimension_loop(self, d):
        # the correlations of rows of A with the rows of B as the model's
        # mean forms them: one stacked (rows, 1, d) @ (rows, d, n) product
        rng = np.random.default_rng(d)
        for m in (1, 2, 7, 300):
            for n in (2, 3, 12, 100):
                A = rng.random((m, d))
                B = rng.random((n, d))
                t10 = 10.0 ** rng.uniform(-4.0, 3.0, d)
                want = loop_correlations(A, B, t10)
                # the memory order of the inputs must not change the bits
                for A_, B_ in ((A, B), (np.asfortranarray(A), np.asfortranarray(B))):
                    D = sg._neg_sq_diffs(A_[:, :, None], B_.T)
                    assert np.array_equal(sg._corr(t10[None, :], D)[:, 0], want)
            # the fit's layout holds the same differences, one n x n block
            # per dimension
            assert np.array_equal(sg._pair_diffs(B).reshape(d, n, n),
                                  sg._neg_sq_diffs(B[:, :, None], B.T).transpose(1, 0, 2))


class TestNegLogLikelihood:
    def test_matches_dense_inverse_oracle(self):
        X = np.array([[0.0, 0.0], [0.3, 0.8], [0.9, 0.2], [0.5, 0.5]])
        y = np.array([1.0, 2.0, 0.5, 1.5])
        for theta in ([0.0, 0.0], [1.0, -1.0], [-2.0, 2.0]):
            got = neg_log_likelihood(X, y, theta, 1e-6)
            want = dense_inverse_nll(X, y, theta, 1e-6)
            assert got == pytest.approx(want, abs=1e-8)

    def test_tiny_theta_penalized_by_logdet(self):
        # two nearly coincident correlations: R -> all-ones, log det -> -inf,
        # concentrated variance blows up; the value must be large
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        loose = neg_log_likelihood(X, y, [-4.0], 1e-9)
        tight = neg_log_likelihood(X, y, [1.0], 1e-9)
        assert loose > tight

    def test_non_pd_signals_inf(self):
        X = np.array([[0.0], [0.0], [1.0]])   # duplicate rows, no nugget
        y = np.array([0.0, 1.0, 0.5])
        assert neg_log_likelihood(X, y, [0.0], 0.0) == math.inf

    def test_nugget_helps_on_noisy_duplicates(self):
        X = np.array([[0.0], [0.0], [0.5], [1.0], [1.0]])
        y = np.array([0.0, 0.4, 0.3, 1.0, 0.7])
        grid = [1e-8, 1e-6, 1e-4, 1e-2, 1e-1]
        vals = [neg_log_likelihood(X, y, [0.0], nug) for nug in grid]
        assert any(b < a for a, b in zip(vals, vals[1:]))


class TestFitObjective:
    @pytest.mark.parametrize("noise", [False, True])
    def test_bit_equal_to_two_solve_reference(self, monkeypatch, noise):
        rng = np.random.default_rng(11)
        for n, d in [(6, 1), (17, 3), (40, 4), (73, 2)]:
            X = rng.random((n, d)) * 3.0 - 1.0
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            objective, lo, hi = fit_objective(
                monkeypatch, X, y, SurrogateControl(noise=noise))
            Z = (X - X.min(axis=0)) / (X.max(axis=0) - X.min(axis=0))
            V = rng.uniform(lo, hi, (25, lo.size))
            want = [two_solve_nll(Z, y, v, noise) for v in V]
            # one row at a time, and all 25 rows as one call
            assert [objective(v[None, :])[0] for v in V] == want
            assert objective(V) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_y_raises(self, bad):
        X = np.array([[0.0], [0.3], [0.7], [1.0]])
        y = np.array([0.0, bad, 0.4, 1.0])
        with pytest.raises(ValueError):
            fit(X, y, SurrogateControl(model_fun_evals=20), seed=0)


class TestBlockLikelihood:
    """The fit's likelihood over blocks of parameter vectors gives, row for
    row, the bits of evaluating one vector at a time."""

    @pytest.mark.parametrize("noise", [False, True])
    def test_blocks_bit_equal_to_rows(self, monkeypatch, noise):
        rng = np.random.default_rng(21 + noise)
        block_sizes = set()
        for i, n in enumerate([2, 3, 7, 16, 30, 45, 64, 90, 91, 128]):
            d = 1 + i % 6
            X = rng.random((n, d))
            y = np.sin(4.0 * X).sum(axis=1) + 0.1 * rng.normal(size=n)
            objective, lo, hi = fit_objective(
                monkeypatch, X, y, SurrogateControl(noise=noise))
            rows = max(1, sg._KERNEL_BLOCK // (n * n))
            block_sizes.add(rows)
            # two full blocks and part of a third, at most 40 rows
            m = min(2 * rows + 3, 40)
            V = rng.uniform(lo, hi, (m, lo.size))
            Z = (X - X.min(axis=0)) / (X.max(axis=0) - X.min(axis=0))
            got = objective(V)
            assert got == [objective(v[None, :])[0] for v in V]
            assert got == [two_solve_nll(Z, y, v, noise) for v in V]
        assert 1 in block_sizes and max(block_sizes) > 1

    def test_non_pd_matrix_mid_block(self):
        rng = np.random.default_rng(4)
        Z = rng.random((12, 2))
        y = Z[:, 0] - 2.0 * Z[:, 1] ** 2
        R = np.stack([correlation(Z, rng.uniform(-1.0, 2.0, 2), 1e-10)
                      for _ in range(5)])
        R[2] = 1.0                      # all ones: singular, not positive definite
        got = sg._nll(R, sg._rhs(y))
        assert got[2] == math.inf
        assert got == [cho_nll(Ri, y) for Ri in R]
        assert all(math.isfinite(f) for i, f in enumerate(got) if i != 2)
        # one-matrix stacks take the single-matrix path
        assert [sg._nll(R[i:i + 1], sg._rhs(y))[0] for i in range(5)] == got

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_y_raises_in_block(self, bad):
        rng = np.random.default_rng(5)
        Z = rng.random((10, 2))
        y = Z.sum(axis=1)
        y[3] = bad
        R = np.stack([correlation(Z, np.zeros(2), 1e-10) for _ in range(4)])
        R[0] = 1.0                      # a non-PD first matrix does not hide it
        with pytest.raises(ValueError):
            sg._nll(R, sg._rhs(y))
        with pytest.raises(ValueError):
            sg._nll(R[1:], sg._rhs(y))
        with pytest.raises(ValueError):     # a one-matrix stack
            sg._nll(R[1:2], sg._rhs(y))


def stacked_likelihood(L, rhs):
    """The stacked evaluation as it was when it also returned mu and the
    weights, kept as the reference for ``_likelihood_one``: NLL, mu and
    R^-1 (y - mu) of each factor in the stack ``L``."""
    b, n = L.shape[0], L.shape[1]
    sol = np.empty((b, 2, 1, n))
    for i in range(b):
        x, info = sg.dpotrs(L[i].T, rhs, lower=0)
        assert info == 0
        sol[i, :, 0] = x.T
    p = np.matmul(sol, rhs[:, 1:])
    mu = p[:, 0] / p[:, 1]
    rinv_r = sol[:, 0] - mu * sol[:, 1]
    q = np.matmul(rhs[:, 0] - mu, rinv_r.transpose(0, 2, 1)).ravel()
    half_logdet = np.add.reduce(np.log(L.diagonal(axis1=1, axis2=2)), axis=1)
    sigma2 = [max(s / n, 1e-300) for s in q.tolist()]
    nll = [n * math.log(s) + 2.0 * h for s, h in zip(sigma2, half_logdet.tolist())]
    return nll, mu.ravel(), rinv_r[:, 0]


class TestSingleMatrixLikelihood:
    """``_likelihood_one`` gives one matrix the NLL, mu and weights the
    stacked evaluation gives it, bit for bit."""

    @pytest.mark.parametrize("noise", [False, True])
    def test_bit_equal_to_stacked(self, noise):
        rng = np.random.default_rng(31 + noise)
        for n in range(2, 129):
            d = 1 + n % 5
            Z = rng.random((n, d))
            y = np.sin(4.0 * Z).sum(axis=1) * 10.0 ** rng.uniform(-3, 3)
            nugget = 10.0 ** rng.uniform(-8.0, -1.0) if noise else JITTER_FLOOR
            L = np.stack([np.linalg.cholesky(correlation(
                Z, rng.uniform(-1.0, 1.5, d), nugget)) for _ in range(2)])
            rhs = sg._rhs(y)
            want_nll, want_mu, want_w = stacked_likelihood(L, rhs)
            assert sg._likelihood(L, rhs) == want_nll
            for i in range(2):
                nll, mu, w = sg._likelihood_one(L[i], rhs)
                assert nll == want_nll[i]
                assert mu == want_mu[i] and type(mu) is float
                assert np.array_equal(w, want_w[i])
                assert np.array_equal(np.signbit(w), np.signbit(want_w[i]))


class TestFit:
    def test_interpolates_two_points(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = fit(X, y, SurrogateControl(model_fun_evals=200), seed=0)
        for xi, yi in zip(X, y):
            assert model.predict(xi) == pytest.approx(yi, abs=1e-6)

    def test_constant_data(self):
        # equal losses have no likelihood optimum; fit once returned a
        # theta = 0 model that rated every dimension fully active
        X = np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 0.2]])
        y = np.full(3, 3.5)
        for noise in (False, True):
            with pytest.raises(ValueError, match="two distinct observations"):
                fit(X, y, SurrogateControl(noise=noise, model_fun_evals=50), seed=0)

    def test_noise_free_interpolation_12_points(self):
        rng = np.random.default_rng(5)
        X = rng.random((12, 3))
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 - X[:, 2]
        model = fit(X, y, SurrogateControl(model_fun_evals=2000), seed=1)
        pred = model.predict_batch(X)
        rel = np.abs(pred - y) / (1.0 + np.abs(y))
        assert np.max(rel) <= 1e-6

    def test_leave_one_out_rmse(self):
        control = SurrogateControl(model_fun_evals=400)
        unit = latin_hypercube(DesignControl(init_size=20, seed=9), dims=2)
        y = np.sum(unit ** 2, axis=1)
        errs = []
        for i in range(20):
            keep = np.arange(20) != i
            model = fit(unit[keep], y[keep], control, seed=3)
            errs.append(model.predict(unit[i]) - y[i])
        rmse = float(np.sqrt(np.mean(np.square(errs))))
        assert rmse < 0.05 * np.ptp(y)

    def test_noise_free_fit_averages_repeats(self):
        X = np.array([[0.0], [0.0], [1.0]])
        y = np.array([0.0, 0.1, 1.0])
        model = fit(X, y, SurrogateControl(noise=False, model_fun_evals=50))
        assert model.predict([0.0]) == pytest.approx(0.05, abs=1e-9)
        model = fit(X, y, SurrogateControl(noise=True, model_fun_evals=300), seed=0)
        assert model.nugget > 0

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two"):
            fit(np.array([[0.0]]), np.array([1.0]))

    def test_needs_two_distinct_points_without_noise(self):
        X = np.full((3, 2), 0.3)
        y = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="two distinct"):
            fit(X, y, SurrogateControl(model_fun_evals=50))
        # the nugget takes them all, and the mean at the point is theirs
        model = fit(X, y, SurrogateControl(noise=True, model_fun_evals=50), seed=0)
        assert model.predict([0.3, 0.3]) == pytest.approx(2.0, abs=1e-9)

    def test_fitted_theta_beats_64_random(self):
        # likelihood-consistency: the budgeted search must never lose to a
        # blind random draw at the same nugget
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.random((15, 3))
            y = np.cos(4 * X[:, 0]) + 2 * X[:, 1] * X[:, 2] + 0.3 * X[:, 2]
            control = SurrogateControl(model_fun_evals=1500)
            model = fit(X, y, control, seed=seed)
            fitted = neg_log_likelihood(model.Z, y, model.theta_log10, JITTER_FLOOR)
            thetas = rng.uniform(control.min_theta, control.max_theta, size=(64, 3))
            randoms = [neg_log_likelihood(model.Z, y, t, JITTER_FLOOR) for t in thetas]
            assert fitted <= min(randoms) + 1e-9

    def test_nll_at_the_fitted_theta_is_the_searched_value(self, monkeypatch):
        # neg_log_likelihood builds R as the search does, so at the fitted
        # theta and nugget it gives the search's best value, bit for bit
        found, real_search = [], sg._budgeted_search

        def search(*args, **kw):
            best_v, best_f = real_search(*args, **kw)
            found.append(best_f)
            return best_v, best_f

        monkeypatch.setattr(sg, "_budgeted_search", search)
        rng = np.random.default_rng(9)
        for i in range(20):
            n, d = int(rng.integers(4, 41)), int(rng.integers(1, 6))
            X = rng.random((n, d))
            y = np.cos(4.0 * X).sum(axis=1) + X[:, 0] ** 2
            model = fit(X, y, SurrogateControl(model_fun_evals=80), seed=i)
            assert neg_log_likelihood(model.Z, y, model.theta_log10, JITTER_FLOOR) == found[-1]
            # with a searched nugget, at the model's own nugget
            model = fit(X, y, SurrogateControl(noise=True, model_fun_evals=80), seed=i)
            assert neg_log_likelihood(model.Z, y, model.theta_log10, model.nugget) == found[-1]


class TestPredict:
    @staticmethod
    def data():
        rng = np.random.default_rng(2)
        X = rng.random((10, 2))
        return X, np.sin(6 * X[:, 0]) + np.cos(5 * X[:, 1])

    @pytest.fixture
    def model(self):
        return fit(*self.data(), SurrogateControl(model_fun_evals=500), seed=0)

    def test_reproduces_training_targets(self, model):
        # a well-conditioned R (cond about 5e3): the floor nugget moves the
        # mean at a site by about the floor times the largest weight, here
        # 3e-9; a linear y drives theta to its lower bound and R to 1e11
        for xi, yi in zip(*self.data()):
            assert model.predict(xi) == pytest.approx(yi, abs=1e-6)

    def test_far_point_reverts_to_prior(self):
        # with strong per-dim activity, a probe distant from every training
        # site inside the data box decorrelates completely
        X = np.array([[0.0, 0.0], [0.0, 0.5], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        model = fit(X, y, SurrogateControl(model_fun_evals=200), seed=0)
        from spotkit.surrogate import _finalize

        model = _finalize(model.Z, y, np.array([3.0, 3.0]), False,
                          model.norm_min, model.norm_span, sg._pair_diffs(model.Z))
        assert model.predict([1.0, 0.0]) == pytest.approx(model.mu, abs=1e-6)

    def test_symmetry_midpoint(self):
        # two losses symmetric about 2.0: the midpoint correlates equally
        # with both, and their weights cancel
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, 3.0])
        model = fit(X, y, SurrogateControl(noise=True, model_fun_evals=300), seed=0)
        assert model.predict([0.5]) == pytest.approx(2.0, abs=1e-9)

    def test_points_clamped_into_box(self, model):
        inside = model.predict([1.0, 1.0])
        outside = model.predict([5.0, 5.0])
        assert inside == outside


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter importing this checkout's spotkit."""
    src = os.path.dirname(os.path.dirname(sg.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestLapackLoader:
    def test_cli_import_skips_scipy_linalg(self):
        out = run_fresh("import sys, spotkit.cli\n"
                        "print(sorted(m for m in ('scipy.linalg', 'scipy._lib._array_api')"
                        " if m in sys.modules))")
        assert out.strip() == "[]"

    def test_later_scipy_linalg_import_shares_module(self):
        out = run_fresh("import numpy as np\n"
                        "from spotkit import surrogate\n"
                        "import scipy.linalg\n"
                        "from scipy.linalg import _flapack\n"
                        "print(scipy.linalg.lapack.dpotrs is surrogate.dpotrs,"
                        " _flapack.dpotrs is surrogate.dpotrs,"
                        " scipy.linalg.solve_triangular(np.eye(2), np.ones(2)).tolist())")
        assert out.split() == ["True", "True", "[1.0,", "1.0]"]

    def test_later_scipy_linalg_import_sets_attribute(self):
        out = run_fresh("import sys\n"
                        "from spotkit import surrogate\n"
                        "import scipy.linalg\n"
                        "print(scipy.linalg._flapack is sys.modules['scipy.linalg._flapack'],"
                        " scipy.linalg._flapack.dpotrs is surrogate.dpotrs)")
        assert out.split() == ["True", "True"]

    def test_imported_module_reused(self):
        from scipy.linalg import lapack

        assert sg.dpotrs is lapack.dpotrs

    def test_missing_file_named(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        (tmp_path / "linalg").mkdir()
        fake = importlib.util.spec_from_file_location(
            "scipy", tmp_path / "__init__.py", submodule_search_locations=[str(tmp_path)])
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
        with pytest.raises(ImportError, match=re.escape(os.path.join("linalg", "_flapack"))):
            sg._load_flapack()


class TestMeanAt:
    def test_bit_equal_to_predict_mean(self):
        rng = np.random.default_rng(6)
        for n, d, noise in [(4, 1, False), (25, 3, False), (40, 5, True),
                            (30, 8, False), (60, 10, True)]:
            X = rng.random((n, d)) * 2.0 - 0.5
            y = np.cos(3.0 * X).sum(axis=1) + 0.05 * rng.normal(size=n)
            model = fit(X, y, SurrogateControl(noise=noise, model_fun_evals=80),
                        seed=2)
            # inside the data box, and outside it (clamped)
            probes = np.vstack([rng.random((20, d)) * 2.0 - 0.5,
                                rng.random((20, d)) * 6.0 - 3.0])
            for p in probes:
                assert model.predict(p) == model.predict_batch(p[None, :])[0]
                assert type(model.predict(p)) is float

    def test_input_left_unchanged(self):
        rng = np.random.default_rng(1)
        X = rng.random((10, 2))
        model = fit(X, X.sum(axis=1), SurrogateControl(model_fun_evals=50), seed=0)
        x = np.array([1.5, -0.2])
        model.predict(x)
        assert np.array_equal(x, [1.5, -0.2])


class TestPredictRows:
    """``predict`` and ``predict_batch`` on an m x d array: each entry has
    the bits of ``predict`` at that row alone, across ``_mean``'s row
    blocks, since every row takes its own correlation and mean products."""

    def test_bit_equal_to_one_point_calls(self):
        rng = np.random.default_rng(11)
        for d in range(1, 7):
            # n = 40: _mean takes 409 // d rows per block, so 1,000 rows
            # span 3 to 15 blocks
            for n, m in [(2, 1), (7, 3), (40, 1000), (120, 2), (int(rng.integers(2, 121)),
                                                               int(rng.integers(1, 1001)))]:
                X = rng.random((n, d)) * 2.0 - 0.5
                y = np.cos(3.0 * X).sum(axis=1) + 0.05 * rng.normal(size=n)
                model = fit(X, y, SurrogateControl(noise=n > 100 or d % 2 == 0,
                                                   model_fun_evals=40), seed=d)
                # inside the data box, and outside it (clamped)
                Q = rng.random((m, d)) * 6.0 - 3.0
                Q[::2] = rng.random((Q[::2].shape[0], d)) * 2.0 - 0.5
                means = model.predict(Q)
                assert means.shape == (m,)
                assert [model.predict(q) for q in Q] == means.tolist()
                assert np.array_equal(model.predict_batch(Q), means)
                assert np.array_equal(np.signbit(means),
                                      [np.signbit(model.predict(q)) for q in Q])

    def test_input_left_unchanged(self):
        rng = np.random.default_rng(1)
        X = rng.random((10, 2))
        model = fit(X, X.sum(axis=1), SurrogateControl(model_fun_evals=50), seed=0)
        Q = np.array([[1.5, -0.2], [0.3, 0.4]])
        model.predict(Q)
        assert np.array_equal(Q, [[1.5, -0.2], [0.3, 0.4]])


@pytest.mark.parametrize("budget", [5, 75])
def test_search_without_a_finite_likelihood_raises(budget):
    # with no finite screened value the search once handed None on: to the
    # golden sections (AttributeError) or, on a budget too small for them,
    # to the caller
    lo, hi = np.full(2, -4.0), np.full(2, 3.0)
    with pytest.raises(ValueError, match="no finite likelihood"):
        sg._budgeted_search(lambda V: [math.inf] * len(V), lo, hi, budget, seed=0)


class TestLhsScreen:
    @staticmethod
    def old_lhs_unit(rng, n, dims):
        """The surrogate's former private sampler, kept as the reference."""
        out = np.empty((n, dims))
        for d in range(dims):
            out[:, d] = (rng.permutation(n) + rng.random(n)) / n
        return out

    @pytest.mark.parametrize("budget, dims", [(10, 1), (50, 3), (300, 6)])
    def test_screen_bit_equal_to_old_sampler(self, budget, dims):
        seen = []

        def objective(V):
            seen.extend(V.copy())
            return [float(np.sum((v - 0.3) ** 2)) for v in V]

        lo, hi = np.full(dims, -4.0), np.full(dims, 3.0)
        sg._budgeted_search(objective, lo, hi, budget, seed=17)
        n_screen = max(2, int(0.8 * budget))
        ref = (self.old_lhs_unit(np.random.default_rng(17), n_screen, dims)
               * (hi - lo) + lo)
        ref[0] = 0.5 * (lo + hi)
        assert np.array_equal(np.asarray(seen[:n_screen]), ref)


class TestWarmFit:
    @staticmethod
    def data():
        rng = np.random.default_rng(11)
        X = rng.random((15, 2))
        return X, np.sin(4 * X[:, 0]) + X[:, 1] ** 2

    def test_quarter_budget_and_start_reach_the_search(self, monkeypatch):
        seen = []

        def capture(objective, lo, hi, budget, seed, *, start=None):
            seen.append((budget, None if start is None else start.tolist()))
            return 0.5 * (lo + hi), 0.0

        monkeypatch.setattr(sg, "_budgeted_search", capture)
        X, y = self.data()
        control = SurrogateControl(model_fun_evals=300)
        fit(X, y, control, seed=0)
        fit(X, y, control, seed=0, start=[0.5, -1.0])
        assert seen == [(300, None), (300 // sg.WARM_BUDGET_DIVISOR, [0.5, -1.0])]

    def test_screen_holds_clipped_start_in_place_of_centre(self):
        def screened(**kw):
            seen = []

            def objective(V):
                seen.extend(V.copy())
                return [float(np.sum((v - 0.3) ** 2)) for v in V]

            sg._budgeted_search(objective, lo, hi, 75, seed=17, **kw)
            return np.asarray(seen[:60])

        lo, hi = np.full(3, -4.0), np.full(3, 3.0)
        cold = screened()
        warm = screened(start=np.array([0.5, -9.0, 7.0]))
        assert cold[0].tolist() == [-0.5, -0.5, -0.5]
        assert warm[0].tolist() == [0.5, -4.0, 3.0]
        assert np.array_equal(warm[1:], cold[1:])

    def test_start_length_checked(self):
        X, y = self.data()
        with pytest.raises(ValueError, match="start must hold 2 parameters"):
            fit(X, y, SurrogateControl(model_fun_evals=100), start=[0.0])
        with pytest.raises(ValueError, match="start must hold 3 parameters"):
            fit(X, y, SurrogateControl(noise=True, model_fun_evals=100),
                start=[0.0, 0.0])

    @pytest.mark.parametrize("noise", [False, True])
    def test_params_round_trip_through_start(self, monkeypatch, noise):
        seen, real_search = [], sg._budgeted_search

        def spy(objective, lo, hi, budget, seed, *, start=None):
            seen.append(None if start is None else np.clip(start, lo, hi).tolist())
            return real_search(objective, lo, hi, budget, seed, start=start)

        monkeypatch.setattr(sg, "_budgeted_search", spy)
        X, y = self.data()
        control = SurrogateControl(noise=noise, model_fun_evals=300)
        model = fit(X, y, control, seed=0)
        assert model.params == model.theta_log10.tolist() + (
            [math.log10(model.nugget)] if noise else [])
        # the screen's first point is the vector itself, clipping changes nothing
        fit(X, y, control, seed=1, start=model.params)
        assert seen == [None, model.params]
        with pytest.raises(ValueError):       # constant data: no model, no params
            fit(X, np.full(15, 2.0), control)

    def test_warm_fit_from_a_cold_optimum_is_no_worse(self):
        # the warm screen evaluates the start itself
        X, y = self.data()
        control = SurrogateControl(model_fun_evals=300)
        for seed in range(5):
            cold = fit(X, y, control, seed=seed)
            warm = fit(X, y, control, seed=seed + 1, start=cold.theta_log10)
            nll = [neg_log_likelihood(m.Z, y, m.theta_log10, JITTER_FLOOR)
                   for m in (cold, warm)]
            assert nll[1] <= nll[0] + 1e-9


class TestKeptStart:
    """From ``KEEP_START_ROWS_PER_DIM * d`` distinct rows a warm fit keeps
    its clipped start and factors once; below that it searches."""

    D = 2
    ROWS = sg.KEEP_START_ROWS_PER_DIM * D

    @staticmethod
    def data(n, d=2):
        rng = np.random.default_rng(23)
        X = rng.random((n, d))
        return X, np.sin(4 * X[:, 0]) + X[:, 1] ** 2

    @staticmethod
    def spy_search(monkeypatch) -> list:
        """The budget of every ``_budgeted_search`` call; the search runs."""
        budgets, real_search = [], sg._budgeted_search

        def spy(objective, lo, hi, budget, seed, *, start=None):
            budgets.append(budget)
            return real_search(objective, lo, hi, budget, seed, start=start)

        monkeypatch.setattr(sg, "_budgeted_search", spy)
        return budgets

    def test_keeps_the_clipped_start_without_a_search(self, monkeypatch):
        budgets = self.spy_search(monkeypatch)
        X, y = self.data(self.ROWS)
        start = [0.5, 9.0]                # the second clips to max_theta 3.0
        model = fit(X, y, SurrogateControl(model_fun_evals=300), seed=0, start=start)
        assert budgets == []
        assert model.params == [0.5, 3.0]
        assert model.theta_log10.tolist() == [0.5, 3.0]
        ref = sg._finalize(model.Z, y, np.array([0.5, 3.0]), False,
                           model.norm_min, model.norm_span, sg._pair_diffs(model.Z))
        probes = np.random.default_rng(1).random((50, self.D)) * 1.4 - 0.2
        assert ref.nugget == model.nugget
        assert np.array_equal(ref.weights, model.weights)
        assert np.array_equal(ref.predict_batch(probes), model.predict_batch(probes))

    def test_one_row_fewer_searches_on_the_warm_budget(self, monkeypatch):
        budgets = self.spy_search(monkeypatch)
        X, y = self.data(self.ROWS - 1)
        control = SurrogateControl(model_fun_evals=300)
        model = fit(X, y, control, seed=0, start=[0.5, 3.0])
        assert budgets == [300 // sg.WARM_BUDGET_DIVISOR]
        assert model.params != [0.5, 3.0]
        fit(X, y, control, seed=0)        # a cold fit searches on the full budget
        assert budgets[1:] == [300]

    def test_rows_counted_after_repeats_are_averaged(self, monkeypatch):
        budgets = self.spy_search(monkeypatch)
        X, y = self.data(self.ROWS)
        X[-1] = X[0]                      # 19 distinct rows without noise
        fit(X, y, SurrogateControl(model_fun_evals=300), seed=0, start=[0.5, 0.5])
        assert budgets == [300 // sg.WARM_BUDGET_DIVISOR]
        # with noise every row counts, so the same data keep the start
        model = fit(X, y, SurrogateControl(noise=True, model_fun_evals=300), seed=0,
                    start=[0.5, 0.5, -3.0])
        assert budgets == [300 // sg.WARM_BUDGET_DIVISOR]
        assert model.params[:2] == [0.5, 0.5]

    def test_noise_keeps_the_clipped_nugget(self, monkeypatch):
        budgets = self.spy_search(monkeypatch)
        X, y = self.data(self.ROWS)
        control = SurrogateControl(noise=True, model_fun_evals=300)
        for log10_nugget, kept in [(-3.0, -3.0), (0.5, -1.0), (-20.0, -8.0)]:
            model = fit(X, y, control, seed=0, start=[0.5, 1.0, log10_nugget])
            assert model.nugget == 10.0 ** kept
            assert model.params == [0.5, 1.0, math.log10(10.0 ** kept)]
        assert budgets == []

    def test_value_error_at_the_start_falls_back_to_the_warm_search(self, monkeypatch):
        budgets = self.spy_search(monkeypatch)
        finalized, real_finalize = [], sg._finalize

        def finalize(Z, y, v, *args):
            finalized.append(v.tolist())
            if len(finalized) == 1:
                raise ValueError("not positive definite")
            return real_finalize(Z, y, v, *args)

        monkeypatch.setattr(sg, "_finalize", finalize)
        X, y = self.data(self.ROWS)
        model = fit(X, y, SurrogateControl(model_fun_evals=300), seed=0,
                    start=[0.5, 9.0])
        assert budgets == [300 // sg.WARM_BUDGET_DIVISOR]
        assert finalized[0] == [0.5, 3.0]
        assert model.params == finalized[1]

    def test_dimension_is_the_columns_of_x(self, monkeypatch):
        budgets = self.spy_search(monkeypatch)
        X, y = self.data(self.ROWS, d=3)  # 20 rows, short of 30 for 3 columns
        fit(X, y, SurrogateControl(model_fun_evals=300), seed=0, start=[0.5, 0.5, 0.5])
        assert budgets == [300 // sg.WARM_BUDGET_DIVISOR]


class TestRefresh:
    """``fit(..., refresh=True)`` re-estimates the parameters: below
    ``KEEP_START_ROWS_PER_DIM * d`` distinct rows it is the cold fit, from
    there on the warm search from the clipped start, never keeping it."""

    ROWS = TestKeptStart.ROWS
    data = staticmethod(TestKeptStart.data)

    @staticmethod
    def spy_search(monkeypatch) -> list:
        """``(budget, clipped start or None, lo, hi)`` of every
        ``_budgeted_search`` call, as lists; the search runs."""
        calls, real_search = [], sg._budgeted_search

        def spy(objective, lo, hi, budget, seed, *, start=None):
            clipped = None if start is None else np.clip(start, lo, hi).tolist()
            calls.append((budget, clipped, lo.tolist(), hi.tolist()))
            return real_search(objective, lo, hi, budget, seed, start=start)

        monkeypatch.setattr(sg, "_budgeted_search", spy)
        return calls

    def test_warm_search_from_the_clipped_start(self, monkeypatch):
        calls = self.spy_search(monkeypatch)
        X, y = self.data(self.ROWS + 1)
        X[-1] = X[0]                      # 20 distinct rows once averaged
        model = fit(X, y, SurrogateControl(model_fun_evals=300), seed=0,
                    start=[0.5, 9.0], refresh=True)
        assert [c[:2] for c in calls] == [(300 // sg.WARM_BUDGET_DIVISOR, [0.5, 3.0])]
        assert model.params != [0.5, 3.0]
        # one distinct row fewer: the refresh is cold
        fit(X[:-2], y[:-2], SurrogateControl(model_fun_evals=300), seed=0,
            start=[0.5, 9.0], refresh=True)
        assert [c[:2] for c in calls[1:]] == [(300, None)]

    @pytest.mark.parametrize("noise", [False, True])
    def test_below_ten_rows_per_dimension_equals_the_cold_fit(self, monkeypatch, noise):
        calls = self.spy_search(monkeypatch)
        X, y = self.data(self.ROWS - 1)
        control = SurrogateControl(noise=noise, model_fun_evals=300)
        cold = fit(X, y, control, seed=5)
        refreshed = fit(X, y, control, seed=5, start=[0.5, 3.0, -3.0][:2 + noise],
                        refresh=True)
        assert [c[:2] for c in calls] == [(300, None)] * 2
        assert np.array_equal(refreshed.theta_log10, cold.theta_log10)
        assert refreshed.nugget == cold.nugget
        assert refreshed.mu == cold.mu
        assert np.array_equal(refreshed.weights, cold.weights)
        assert refreshed.params == cold.params

    def test_noise_searches_the_nugget_too(self, monkeypatch):
        calls = self.spy_search(monkeypatch)
        X, y = self.data(self.ROWS)
        model = fit(X, y, SurrogateControl(noise=True, model_fun_evals=300), seed=0,
                    start=[0.5, 1.0, 0.5], refresh=True)
        [(budget, start, lo, hi)] = calls
        assert budget == 300 // sg.WARM_BUDGET_DIVISOR
        assert start == [0.5, 1.0, sg.NUGGET_LOG10_BOUNDS[1]]
        assert (lo[2], hi[2]) == sg.NUGGET_LOG10_BOUNDS
        assert model.params[2] == math.log10(model.nugget)
        assert model.params != start


class TestRepeatGate:
    """Without ``noise``, ``fit`` averages repeated rows through
    ``np.unique`` only when a lexsort of the normalized rows finds two equal
    neighbours."""

    @staticmethod
    def spy_unique(monkeypatch) -> list:
        calls, real_unique = [], np.unique

        def spy(*args, **kw):
            calls.append(args)
            return real_unique(*args, **kw)

        monkeypatch.setattr(np, "unique", spy)
        return calls

    def test_rows_equal_up_to_signed_zero_are_averaged(self, monkeypatch):
        calls = self.spy_unique(monkeypatch)
        # the first column normalizes to -0.0 and 0.0, equal as floats
        X = np.array([[-0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([0.0, 0.1, 1.0])
        assert sg._has_repeats(np.array([[-0.0, 0.5], [0.0, 0.5]]))
        model = fit(X, y, SurrogateControl(model_fun_evals=50))
        assert len(calls) == 1 and model.Z.shape == (2, 2)
        assert model.predict([0.0, 1.0]) == pytest.approx(0.05, abs=1e-9)

    def test_distinct_rows_skip_unique_with_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.random((15, 3))
        X[3, 0] = X[5, 0]                 # equal in one column only
        y = np.cos(3 * X[:, 0]) + X[:, 1] * X[:, 2]
        control = SurrogateControl(model_fun_evals=200)
        calls = self.spy_unique(monkeypatch)
        model = fit(X, y, control, seed=2)
        assert calls == []
        # the averaging path on rows without repeats is the identity
        monkeypatch.setattr(sg, "_has_repeats", lambda Z: True)
        ref = fit(X, y, control, seed=2)
        assert len(calls) == 1
        for name in ("theta_log10", "Z", "weights", "params"):
            assert np.array_equal(getattr(model, name), getattr(ref, name))
        assert (model.nugget, model.mu) == (ref.nugget, ref.mu)

    def test_noise_keeps_every_row(self, monkeypatch):
        calls = self.spy_unique(monkeypatch)
        X = np.array([[0.0, 0.5], [0.0, 0.5], [1.0, 0.0], [0.5, 1.0]])
        y = np.array([0.0, 0.2, 1.0, 0.4])
        model = fit(X, y, SurrogateControl(noise=True, model_fun_evals=100), seed=0)
        assert calls == [] and model.Z.shape == (4, 2)


class TestFinalize:
    @staticmethod
    def data():
        rng = np.random.default_rng(12)
        Z = rng.random((10, 2))
        return Z, Z[:, 0] - Z[:, 1] ** 2, np.array([0.3, 1.1])

    def test_one_factorization_at_the_floor(self, monkeypatch):
        Z, y, v = self.data()
        factored, real_cholesky = [], sg._cholesky

        def cholesky(R):
            factored.append(R.copy())
            return real_cholesky(R)

        monkeypatch.setattr(sg, "_cholesky", cholesky)
        model = sg._finalize(Z, y, v, False, np.zeros(2), np.ones(2), sg._pair_diffs(Z))
        assert len(factored) == 1
        # the one correlation formula plus the floor, as the likelihood search
        # forms it (test_factors_the_matrix_the_search_scored)
        assert np.array_equal(factored[0], correlation(Z, v, JITTER_FLOOR))
        assert model.nugget == JITTER_FLOOR and model.params == v.tolist()
        L = np.linalg.cholesky(factored[0])
        _, mu, weights = sg._likelihood_one(L, sg._rhs(y))
        assert model.mu == mu and np.array_equal(model.weights, weights)

    @pytest.mark.parametrize("noise", [False, True])
    def test_factors_the_matrix_the_search_scored(self, monkeypatch, noise):
        # the matrix of the final model is, bit for bit, the one the search's
        # objective factors, as a one-matrix stack, at the vector the search
        # returned, and that vector is the model's params
        searched, real_search = [], sg._budgeted_search

        def search(objective, *args, **kw):
            best_v, best_f = real_search(objective, *args, **kw)
            searched.append((objective, best_v))
            return best_v, best_f

        factored, real_cholesky = [], sg._cholesky

        def cholesky(R):
            factored.append(R.copy())
            return real_cholesky(R)

        monkeypatch.setattr(sg, "_budgeted_search", search)
        monkeypatch.setattr(sg, "_cholesky", cholesky)
        rng = np.random.default_rng(40 + noise)
        for i in range(10):
            n, d = int(rng.integers(5, 41)), 1 + i % 5
            X = rng.random((n, d))
            y = np.sin(5.0 * X).sum(axis=1) + 0.1 * rng.normal(size=n)
            model = fit(X, y, SurrogateControl(noise=noise, model_fun_evals=60), seed=i)
            objective, best_v = searched[-1]
            assert [x.hex() for x in model.params] == [x.hex() for x in best_v.tolist()]
            final = factored[-1]
            factored.clear()
            objective(best_v[None, :])
            assert len(factored) == 1 and np.array_equal(final, factored[0][0])

    @pytest.mark.parametrize("noise", [False, True])
    def test_not_positive_definite_raises_value_error(self, monkeypatch, noise):
        Z, y, v = self.data()
        calls = []

        def cholesky(R):
            calls.append(R)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(sg, "_cholesky", cholesky)
        v = np.append(v, -6.0) if noise else v
        with pytest.raises(ValueError, match="not positive definite"):
            sg._finalize(Z, y, v, noise, np.zeros(2), np.ones(2), sg._pair_diffs(Z))
        assert len(calls) == 1


def test_rescaled_column_leaves_ranking_unchanged():
    rng = np.random.default_rng(8)
    X = rng.random((14, 2))
    y = (X[:, 0] - 0.3) ** 2 + 0.5 * X[:, 1]
    cands = rng.random((50, 2))
    control = SurrogateControl(model_fun_evals=600)

    m1 = fit(X, y, control, seed=4)
    best1 = int(np.argmin(m1.predict_batch(cands)))

    X2, c2 = X.copy(), cands.copy()
    X2[:, 1] = 100.0 * X2[:, 1] - 7.0     # affine rescale of one input column
    c2[:, 1] = 100.0 * c2[:, 1] - 7.0
    m2 = fit(X2, y, control, seed=4)
    best2 = int(np.argmin(m2.predict_batch(c2)))
    assert best1 == best2


def test_noise_free_nugget_stays_at_jitter_scale():
    X = np.array([[0.0], [0.5], [1.0]])
    y = np.array([0.0, 0.3, 1.0])
    model = fit(X, y, SurrogateControl(noise=False, model_fun_evals=100), seed=0)
    assert 0.0 <= model.nugget <= JITTER_FLOOR


def test_control_validation():
    with pytest.raises(ValueError):
        SurrogateControl(min_theta=3.0, max_theta=-4.0)
    with pytest.raises(ValueError):
        SurrogateControl(model_fun_evals=0)
    with pytest.raises(ValueError, match="model_fun_evals must be a whole number"):
        SurrogateControl(model_fun_evals=250.5)
    # a JSON string would be truthy and silently turn the nugget on
    for noise in ("false", "true", 0, 1, None):
        with pytest.raises(ValueError, match="noise must be true or false"):
            SurrogateControl(noise=noise)
    assert SurrogateControl(noise=True).noise is True
    # a NaN bound passes the ordering check and fails every fit
    for kw in ({"min_theta": math.nan}, {"min_theta": -math.inf},
               {"max_theta": math.nan}, {"max_theta": math.inf}):
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be finite"):
            SurrogateControl(**kw)

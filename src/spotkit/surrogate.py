"""Kriging regression with per-dimension activity and budgeted likelihood fits.

The correlation kernel is squared-exponential on inputs min-max normalized
to the unit box:

    R_ij = exp(-sum_k 10**theta_k * (z_ik - z_jk)**2)

with ``theta`` searched on a log10 scale inside [min_theta, max_theta]. A
nugget on the diagonal turns interpolation into regression; with
``noise=False`` it is the fixed floor ``JITTER_FLOOR`` (1e-10), so the model
reproduces its training targets to within about the floor times its largest
weight.

One helper, ``_corr``, forms every correlation: the negated squared
per-dimension differences weighted by ``10**theta`` in one length-d product
per matrix or per row, then ``exp``. One builder, ``_matrices``, adds the
nugget ``_nuggets`` decodes and forms every matrix that is factored: the
likelihood search's, ``_finalize``'s and ``neg_log_likelihood``'s. So the
model factors the matrix the search scored by construction, its ``params``
is the searched vector, and ``neg_log_likelihood`` there gives the search's
value.

``fit`` evaluates the likelihood over blocks of parameter vectors, each
value with the bits of evaluating its vector alone, one Cholesky call per
block.

A fitted ``KrigingModel`` predicts only the mean: ``predict_batch`` at
each row of an array, and ``predict`` at a point or at rows, for the infill
search and the contour export. Both take the same per-row products, so
every value has the bits of predicting its point alone.

The only LAPACK wrapper taken from scipy is ``dpotrs`` (likelihood and
weights); ``_load_flapack`` loads scipy's compiled wrappers from their
extension file instead of importing ``scipy.linalg``. That package's
``__init__`` brings in about 310 more modules (its array-API layer loads
``numpy.testing``, ``numpy.f2py`` and ``numpy.ma``), paid at the start of
every command; README, "Install", gives the measured cost.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .design import lhs_unit, require_counts


def _load_flapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, loaded
    from their file without running ``scipy.linalg``'s package imports.

    An already imported module is reused. Otherwise the module is loaded
    from ``scipy/linalg`` (``find_spec`` locates scipy without importing it)
    and then dropped from ``sys.modules``, where loading put it: left there,
    a later ``import scipy.linalg`` would take it without setting
    ``scipy.linalg._flapack``. That import re-creates the module from the
    interpreter's copy of this one, with the same wrapper objects, so
    ``scipy.linalg.lapack.dpotrs`` is this module's ``dpotrs``. A missing
    file raises ``ImportError``.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    linalg_dir = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    paths = [os.path.join(linalg_dir, "_flapack" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK wrappers not found: {paths[0]}", name=name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


dpotrs = _load_flapack().dpotrs

# the nugget of every noise-free matrix R, which bounds cond(R) (Ranjan,
# Haynes & Karsten, Technometrics 53(4), 2011)
JITTER_FLOOR = 1e-10
NUGGET_LOG10_BOUNDS = (-8.0, -1.0)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# a warm fit (``fit(..., start=...)``) takes model_fun_evals // this many
# likelihood evaluations
WARM_BUDGET_DIVISOR = 4

# from this many distinct rows per tuned dimension a warm fit keeps its start
# instead of searching, and a refresh searches warm instead of cold: about
# 10 d rows determine a Gaussian-process model's parameters well (Loeppky,
# Sacks & Welch, "Choosing the sample size of a computer experiment: a
# practical guide", Technometrics 51(4), 2009), so one more row barely moves
# the likelihood optimum
KEEP_START_ROWS_PER_DIM = 10

# a model's mean forms its rows x d x n differences, and fit's likelihood its
# stack of n x n matrices, for about this many elements at a time, so a large
# batch (the infill probes, the likelihood screen) needs little memory
_KERNEL_BLOCK = 1 << 14


@dataclass(frozen=True)
class SurrogateControl:
    noise: bool = False
    min_theta: float = -4.0
    max_theta: float = 3.0
    model_fun_evals: int = 10_000

    def __post_init__(self):
        if not isinstance(self.noise, bool):
            raise ValueError("noise must be true or false")
        for name in ("min_theta", "max_theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.min_theta >= self.max_theta:
            raise ValueError("min_theta must be below max_theta")
        require_counts(self, "model_fun_evals")


@dataclass
class KrigingModel:
    """Fitted surrogate; immutable in practice, safe to share across threads.

    ``predict_batch`` gives the mean at each row, scoring the infill
    probes; ``predict`` the mean at a point or at each row, for the infill
    search's Nelder-Mead and the contour export. Both take ``_mean``, whose
    every value has the bits of its point alone. ``_finalize`` builds every
    model from the matrix the likelihood search scores at its parameters.
    """

    theta_log10: np.ndarray       # d activity exponents
    nugget: float
    mu: float
    norm_min: np.ndarray          # per-dim normalization offsets
    norm_span: np.ndarray         # per-dim spans (zeros replaced by 1)
    weights: np.ndarray           # R^-1 (y - mu)
    Z: np.ndarray = field(repr=False)          # normalized inputs
    # the ``start`` of a later warm fit: theta_log10, then the log10 nugget
    # when ``noise``
    params: list

    def __post_init__(self):
        # what ``_mean`` reads, built once per model: Z as d x n and the
        # weights 10**theta as one (1, d) row
        self._Zt = np.ascontiguousarray(self.Z.T)
        self._t10 = 10.0 ** self.theta_log10[None, :]

    @property
    def dim(self) -> int:
        return self.norm_min.size

    def predict_batch(self, X) -> np.ndarray:
        """Kriging mean at each row of ``X`` (clamped into the data box), as
        ``predict`` gives it at those rows."""
        return self._mean(np.atleast_2d(np.asarray(X, dtype=float)))

    def predict(self, x):
        """Kriging mean at one point ``x`` (a 1-D list or array of length d),
        as a float, or at each row of an m x d array, as an m-vector. An
        array is used as it is, a point as its one row, with no
        ``np.atleast_2d``. Does not modify ``x``.
        """
        Q = np.asarray(x, dtype=float)
        mean = self._mean(Q.reshape(1, -1) if Q.ndim < 2 else Q)
        return float(mean[0]) if Q.ndim == 1 else mean

    def _mean(self, Q: np.ndarray) -> np.ndarray:
        """Kriging mean at each row of the 2-D array ``Q``, normalized and
        clamped into the unit box in one copy of ``Q``, every value with the
        bits of that row alone. Rows go in blocks of about ``_KERNEL_BLOCK``
        differences; in a block, ``_corr`` weights each row's d x n
        differences with its own (1, d) @ (d, n) product, and each mean is
        one (1, n) @ (n,) product: the BLAS calls of a one-row block, which
        a plain (rows, d) or (rows, n) product would not make."""
        U = Q - self.norm_min
        U /= self.norm_span
        np.maximum(U, 0.0, out=U)
        np.minimum(U, 1.0, out=U)
        rows = max(1, _KERNEL_BLOCK // self._Zt.size)
        out = np.empty(U.shape[0])
        for i in range(0, U.shape[0], rows):
            psi = _corr(self._t10, _neg_sq_diffs(U[i:i + rows, :, None], self._Zt))
            np.matmul(psi, self.weights, out=out[i:i + rows, None])
        out += self.mu
        return out


# -- likelihood ------------------------------------------------------------

def neg_log_likelihood(X, y, theta_log10, nugget: float) -> float:
    """Concentrated negative log-likelihood, up to additive constants.

    Inputs are taken as already normalized. Returns
    ``n * log(sigma2_hat) + log det(R)`` with the process mean and variance
    concentrated out analytically; a non-positive-definite correlation
    matrix signals +inf. On a fitted model's ``Z`` and (averaged) losses at
    its ``theta_log10`` and nugget it gives the value the likelihood search
    found there, bit for bit.
    """
    Z = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    T = np.asarray(theta_log10, dtype=float)[None, :]
    return _nll(_matrices(T, float(nugget), _pair_diffs(Z)), _rhs(y))[0]


def _neg_sq_diffs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``-(A - B)**2`` as a new C-ordered array, broadcasting ``A`` against
    ``B``; exactly the negated squares, since IEEE rounding is symmetric in
    sign."""
    D = np.subtract(A, B, order="C")
    D *= -D
    return D


def _pair_diffs(Z: np.ndarray) -> np.ndarray:
    """The negated squared per-dimension differences between the rows of
    ``Z`` (n x d), one flattened n x n block per dimension: d x n*n."""
    n, d = Z.shape
    return _neg_sq_diffs(Z.T[:, :, None], Z.T[:, None, :]).reshape(d, n * n)


def _corr(t10: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Correlations ``exp(t10 @ D)``, as a new array, of the weights
    ``t10 = 10**theta`` (a (1, d) row, or a (b, 1, d) stack of rows for b
    parameter vectors) and the negated squared differences ``D`` (d x k, or
    a (rows, d, k) stack for rows of points). Each output row is one
    (1, d) @ (d, k) product, so it has the bits of its weights and its
    differences alone."""
    R = np.matmul(t10, D)
    return np.exp(R, out=R)


def _matrices(T: np.ndarray, nugget: np.ndarray | float, D: np.ndarray) -> np.ndarray:
    """The correlation matrices of the log10-theta rows ``T`` (b x d) plus
    ``nugget`` (a float, or a (b, 1) column of one per row) on the
    diagonals, given ``_pair_diffs(Z)`` as ``D``, as a new b x n x n stack;
    each matrix has the bits of its row alone."""
    n = math.isqrt(D.shape[1])
    # (b, 1, d) rows: a (b, d) @ (d, n*n) product would not give each row's bits
    R = _corr((10.0 ** T)[:, None, :], D)
    R[:, 0, ::n + 1] += nugget      # the flat diagonals
    return R.reshape(-1, n, n)


def _nuggets(V: np.ndarray, d: int, noise: bool) -> np.ndarray | float:
    """The nuggets of the parameter vectors in ``V`` (b x d, then a column
    of log10 nuggets when ``noise``): ``10**`` each log10 by Python scalar
    powers (an array power differs from them in the last bit), as a (b, 1)
    column, or ``JITTER_FLOOR`` without ``noise``."""
    return np.array([[10.0 ** x] for x in V[:, d].tolist()]) if noise else JITTER_FLOOR


def _rhs(y: np.ndarray) -> np.ndarray:
    """The right-hand sides ``y`` and ones as the columns of one n x 2
    Fortran-ordered array, so each column is a contiguous vector."""
    return np.stack((y, np.ones(y.size))).T


def _nll(R: np.ndarray, rhs: np.ndarray) -> list[float]:
    """NLL of each correlation matrix in the stack ``R`` (b x n x n), +inf
    where it is not positive definite.

    The stack, a lone matrix included, is factored by one ``_cholesky``
    call, with the same bits per matrix as factoring each alone. A
    one-matrix stack (every golden-section step, and every screen block once
    ``_KERNEL_BLOCK // n**2 == 1``) is evaluated by ``_likelihood_one``, a
    larger one by ``_likelihood``. If any matrix is not positive definite
    the stack raises, and the matrices are taken one at a time.
    """
    try:
        L = _cholesky(R)
    except np.linalg.LinAlgError:
        return [_nll(Ri[None], rhs)[0] for Ri in R] if R.shape[0] > 1 else [math.inf]
    return [_likelihood_one(L[0], rhs)[0]] if R.shape[0] == 1 else _likelihood(L, rhs)


def _cholesky(R: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of each matrix in ``R`` (n x n, or a b x n x n
    stack), raising ``np.linalg.LinAlgError`` when one is not positive
    definite: every factorization of the surrogate goes through here.
    ``np.linalg.cholesky`` is looked up at each call, so a wrapper installed
    on it after import still sees every factorization."""
    return np.linalg.cholesky(R)


def _likelihood_one(L: np.ndarray, rhs: np.ndarray) -> tuple[float, float, np.ndarray]:
    """NLL, mu and R^-1 (y - mu) of one lower Cholesky factor ``L`` (n x n),
    with the bits ``_likelihood`` gives that matrix in a stack.

    ``rhs`` holds ``y`` and ones as ``_rhs`` builds them. One LAPACK solve
    serves both columns; passed the factor's transpose as the upper factor,
    f2py does not copy it. The three inner products are 1-D ``np.dot``
    calls on contiguous vectors, one ``ddot`` each, as the stacked product
    makes them, and the log-determinant comes from the factor's diagonal. A
    non-finite solution (from a NaN or inf in ``y``) raises ``ValueError``;
    it makes ``1' R^-1 y + 1' R^-1 1`` non-finite, so the solution is checked
    element by element only when that sum is.
    """
    n = L.shape[0]
    sol, info = dpotrs(L.T, rhs, lower=0)   # n x 2, Fortran-ordered
    if info != 0:
        raise ValueError("Kriging solve failed")
    rinv_y, rinv_1, ones = sol[:, 0], sol[:, 1], rhs[:, 1]
    p_y, p_1 = np.dot(rinv_y, ones), np.dot(rinv_1, ones)
    if not math.isfinite(p_y + p_1) and not np.isfinite(sol).all():
        raise ValueError("non-finite Kriging solve; check y for NaN or inf")
    mu = float(p_y / p_1)
    rinv_r = rinv_y - mu * rinv_1
    q = float(np.dot(rhs[:, 0] - mu, rinv_r))
    half_logdet = float(np.add.reduce(np.log(L.diagonal())))
    return n * math.log(max(q / n, 1e-300)) + 2.0 * half_logdet, mu, rinv_r


def _likelihood(L: np.ndarray, rhs: np.ndarray) -> list[float]:
    """NLL of each lower Cholesky factor in the stack ``L`` (b x n x n), as a
    list of b floats.

    ``rhs`` holds ``y`` and ones as ``_rhs`` builds them, once per fit. One
    LAPACK solve per matrix serves both; passed the factor's transpose as
    the upper factor, f2py does not copy it. The inner products are stacked
    ``np.matmul`` calls, one ``ddot`` each as for single vectors, and the
    scalar tail is per matrix in Python floats, so every value has the bits
    of a one-matrix evaluation. A non-finite solution (from a NaN or inf in
    ``y``) raises ``ValueError``.
    """
    b, n = L.shape[0], L.shape[1]
    sol = np.empty((b, 2, 1, n))        # rows R^-1 y, R^-1 1 of each matrix
    for i in range(b):
        x, info = dpotrs(L[i].T, rhs, lower=0)
        if info != 0:
            raise ValueError("Kriging solve failed")
        sol[i, :, 0] = x.T
    if not np.isfinite(sol).all():
        raise ValueError("non-finite Kriging solve; check y for NaN or inf")
    # (b, 2, 1, n) @ (n, 1): 1' R^-1 y and 1' R^-1 1 (not .sum(): other bits)
    p = np.matmul(sol, rhs[:, 1:])
    mu = p[:, 0] / p[:, 1]              # b x 1 x 1
    rinv_r = sol[:, 0] - mu * sol[:, 1]
    q = np.matmul(rhs[:, 0] - mu, rinv_r.transpose(0, 2, 1)).ravel()
    half_logdet = np.add.reduce(np.log(L.diagonal(axis1=1, axis2=2)), axis=1)
    sigma2 = [max(s / n, 1e-300) for s in q.tolist()]
    return [n * math.log(s) + 2.0 * h for s, h in zip(sigma2, half_logdet.tolist())]


# -- fitting ----------------------------------------------------------------

def fit(X, y, control: SurrogateControl | None = None, seed: int = 0, *,
        start=None, refresh: bool = False) -> KrigingModel:
    """Fit theta (and the nugget when ``noise``) by budgeted likelihood search.

    The budget ``model_fun_evals`` caps the number of likelihood
    evaluations: 80% go to a Latin-hypercube screen of the parameter box,
    the remainder to coordinate-wise golden-section refinement around the
    best screened point; the screen holds the box centre. Given ``start``, a
    parameter vector of an earlier fit (``theta_log10``, then the log10
    nugget when ``noise``), the fit is warm: it takes ``model_fun_evals //
    WARM_BUDGET_DIVISOR`` evaluations, and its screen holds ``start``,
    clipped into the box, in place of the centre, so a start of the wrong
    length raises ``ValueError``. On at least ``KEEP_START_ROWS_PER_DIM * d``
    rows (counted after repeats are averaged, d the columns of ``X``) a warm
    fit searches nothing: it keeps the clipped ``start`` and factors once,
    and only a ``ValueError`` there sends it to the warm search. With
    ``refresh`` the parameters are re-estimated: below that many rows the
    fit is cold, as if ``start`` were None, and from that many on it is the
    warm search, never keeping the start.

    The squared distances and the right-hand side (y, ones) are built once
    per fit. The screen's points are evaluated in blocks of
    ``max(1, _KERNEL_BLOCK // n**2)`` parameter vectors, each golden-section
    step alone: a block forms its matrices R with one stacked product,
    factors them with one Cholesky call, solves each for both columns in one
    triangular solve and takes the NLLs with array operations; a one-matrix
    block (each golden-section step, and each screen block once n >= 91)
    takes ``_likelihood_one``. Every value has the bits of evaluating its
    vector alone, so the block size never changes the search. A NaN or inf
    in ``y`` raises ``ValueError``.

    Without ``noise`` the model nearly interpolates, so it cannot take
    coincident points: the exact repeats of a normalized row (design
    ``repeats``, ``fun_repeats``) enter as one row at their mean loss, in
    first-occurrence order. ``ValueError`` is the one exception for a fit
    without a model: equal losses after that averaging (one row included)
    raise it, and so do the search and ``_finalize`` when they find none.
    The model's ``params`` is the ``start`` of a later warm fit on data of
    the same dimension.
    """
    control = control or SurrogateControl()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if y.size != X.shape[0]:
        raise ValueError("X and y row counts differ")

    norm_min = X.min(axis=0)
    norm_span = X.max(axis=0) - norm_min
    norm_span = np.where(norm_span > 0.0, norm_span, 1.0)
    Z = (X - norm_min) / norm_span
    if not control.noise and _has_repeats(Z):
        _, first, inverse = np.unique(Z, axis=0, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        y = (np.bincount(inverse, weights=y) / np.bincount(inverse))[order]
        Z = Z[first[order]]
    n, d = Z.shape
    if np.ptp(y) == 0.0:        # one row is constant too
        raise ValueError("need at least two distinct observations with unequal losses")

    lo = np.full(d, control.min_theta)
    hi = np.full(d, control.max_theta)
    if control.noise:
        lo = np.append(lo, NUGGET_LOG10_BOUNDS[0])
        hi = np.append(hi, NUGGET_LOG10_BOUNDS[1])

    # the squared differences the search and the model weight
    D = _pair_diffs(Z)
    budget = control.model_fun_evals
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != lo.shape:
            raise ValueError(f"start must hold {lo.size} parameters")
        settled = n >= KEEP_START_ROWS_PER_DIM * d
        if settled and not refresh:
            try:
                return _finalize(Z, y, np.clip(start, lo, hi), control.noise,
                                 norm_min, norm_span, D)
            except ValueError:
                pass
        if settled or not refresh:
            budget //= WARM_BUDGET_DIVISOR
        else:
            start = None

    rhs = _rhs(y)
    rows = max(1, _KERNEL_BLOCK // (n * n))

    def objective(V: np.ndarray) -> list[float]:
        """NLL at each row of ``V`` (theta, then the log10 nugget when
        ``noise``), in blocks of ``rows`` parameter vectors."""
        out = []
        for i in range(0, V.shape[0], rows):
            B = V[i:i + rows]
            out += _nll(_matrices(B[:, :d], _nuggets(B, d, control.noise), D), rhs)
        return out

    best_v, _ = _budgeted_search(objective, lo, hi, budget, seed, start=start)
    return _finalize(Z, y, best_v, control.noise, norm_min, norm_span, D)


def _has_repeats(Z: np.ndarray) -> bool:
    """True when two rows of ``Z`` are equal, compared as floats as
    ``np.unique`` compares them (-0.0 equals 0.0, NaN equals nothing): after
    a lexsort equal rows are neighbours."""
    S = Z[np.lexsort(Z.T)]
    return bool((S[1:] == S[:-1]).all(axis=1).any())


def _finalize(Z: np.ndarray, y: np.ndarray, v: np.ndarray, noise: bool,
              norm_min: np.ndarray, norm_span: np.ndarray,
              D: np.ndarray) -> KrigingModel:
    """The model on the normalized inputs ``Z`` at the parameter vector
    ``v`` (``theta_log10``, then the log10 nugget when ``noise``), given
    ``_pair_diffs(Z)`` as ``D``: R from ``_nuggets`` and ``_matrices``, as
    the likelihood search forms it at ``v``, so it is that matrix bit for
    bit, factored once (``ValueError`` when it is not positive definite);
    mu and the weights from ``_likelihood_one``, and ``params`` the list of
    ``v`` itself."""
    d = Z.shape[1]
    nugget = float(np.ravel(_nuggets(v[None, :], d, noise))[0])
    try:
        L = _cholesky(_matrices(v[None, :d], nugget, D)[0])
    except np.linalg.LinAlgError:
        raise ValueError("correlation matrix not positive definite") from None
    _, mu, rinv_r = _likelihood_one(L, _rhs(y))
    return KrigingModel(
        theta_log10=v[:d], nugget=nugget,
        mu=mu, norm_min=norm_min, norm_span=norm_span,
        weights=rinv_r, Z=Z, params=v.tolist(),
    )


def _budgeted_search(objective, lo, hi, budget: int, seed: int, *, start=None):
    """LHS screen (80% of budget), then coordinate-wise golden sections.
    ``objective`` maps an m x dims array of parameter vectors to m values.
    The screen's first point is ``start`` clipped into the box, or the box
    centre when ``start`` is None. Raises ``ValueError`` when no screened
    value is finite, as when no screened matrix is positive definite or the
    losses are so large that every likelihood overflows."""
    rng = np.random.default_rng(seed)
    dims = lo.size
    n_screen = max(2, int(0.8 * budget))
    pts = lhs_unit(rng, n_screen, dims) * (hi - lo) + lo
    pts[0] = 0.5 * (lo + hi) if start is None else np.clip(start, lo, hi)
    best_v, best_f = None, math.inf
    for v, f in zip(pts, objective(pts)):
        if f < best_f:      # the first strict improvement; never NaN or inf
            best_v, best_f = v.copy(), f
    if best_v is None:
        raise ValueError("no finite likelihood in the parameter box")
    used = n_screen

    remaining = budget - used
    while remaining >= 6:
        improved = False
        for k in range(dims):
            per = min(max(6, remaining // dims), remaining)
            v, f, spent = _golden_coordinate(objective, best_v, k, lo[k], hi[k], per)
            remaining -= spent
            if f < best_f:
                best_v, best_f = v, f
                improved = True
            if remaining < 6:
                break
        if not improved:
            break
    return best_v, best_f


def _golden_coordinate(objective, v0, k, a, b, budget):
    def f(x):
        v = v0.copy()
        v[k] = x
        return objective(v[None, :])[0]

    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    used = 2
    while used < budget:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        used += 1
    x, fx = (c, fc) if fc < fd else (d, fd)
    v = v0.copy()
    v[k] = x
    return v, fx, used


"""Kriging regression with per-dimension activity and budgeted likelihood fits.

The correlation kernel is squared-exponential on inputs min-max normalized
to the unit box:

    R_ij = exp(-sum_k 10**theta_k * (z_ik - z_jk)**2)

with ``theta`` searched on a log10 scale inside [min_theta, max_theta]. A
nugget on the diagonal turns interpolation into regression; with
``noise=False`` it stays at a jitter floor so the model reproduces its
training targets.

``fit`` evaluates the likelihood over blocks of parameter vectors, each
value with the bits of evaluating its vector alone; a one-matrix block
takes a single-matrix path with the same bits.

A fitted ``KrigingModel`` predicts only the mean: ``predict_batch`` at
each row of an array, and ``predict`` at a point or at rows, for the infill
search and the contour export. Both take the same per-row product, so every
value has the bits of predicting its point alone.

The only LAPACK wrapper taken from scipy is ``dpotrs`` (likelihood and
weights); ``_load_flapack`` loads scipy's compiled wrappers from their
extension file instead of importing ``scipy.linalg``. That package's
``__init__`` brings in about 310 more modules (its array-API layer loads
``numpy.testing``, ``numpy.f2py`` and ``numpy.ma``), paid at the start of
every command: ``import spotkit.cli`` takes 0.15 s, 241 modules and 33 MB
of RSS this way against 0.37 s, 554 modules and 58 MB through
``scipy.linalg`` (median of 7 fresh interpreters, one core of a 2-core
x86-64 VM, scipy 1.17.1).
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

JITTER_FLOOR = 1e-12
JITTER_CEIL = 1e-6
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

# _kernel forms its d x rows x n terms, and fit's likelihood its stack of
# n x n matrices, for about this many elements at a time, so a large batch
# (the infill probes, the likelihood screen) needs little memory
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
    model, with the per-model arrays it reads.
    """

    theta_log10: np.ndarray       # d activity exponents
    nugget: float
    mu: float
    norm_min: np.ndarray          # per-dim normalization offsets
    norm_span: np.ndarray         # per-dim spans (zeros replaced by 1)
    weights: np.ndarray           # R^-1 (y - mu)
    Z: np.ndarray = field(repr=False)          # normalized inputs
    neg_t10: np.ndarray = field(repr=False)    # -10**theta_log10
    # the ``start`` of a later warm fit: theta_log10, then the log10 nugget
    # when ``noise``
    params: list

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
        clamped into the unit box, every value with the bits of that row
        alone: the cross-correlations come from ``_kernel``, and one stacked
        (m, 1, n) @ (n,) product makes one BLAS call per row, the call a
        one-row product makes (a plain (m, n) @ (n,) product sums in another
        order)."""
        Q = np.minimum(np.maximum((Q - self.norm_min) / self.norm_span, 0.0), 1.0)
        psi = _kernel(Q, self.Z, self.neg_t10)
        return self.mu + np.matmul(psi[:, None, :], self.weights)[:, 0]


# -- likelihood ------------------------------------------------------------

def neg_log_likelihood(X, y, theta_log10, nugget: float) -> float:
    """Concentrated negative log-likelihood, up to additive constants.

    Inputs are taken as already normalized. Returns
    ``n * log(sigma2_hat) + log det(R)`` with the process mean and variance
    concentrated out analytically; a non-positive-definite correlation
    matrix signals +inf.
    """
    Z = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    R = _correlation(Z, np.asarray(theta_log10, dtype=float), float(nugget))
    return _nll(R[None], _rhs(y))[0]


def _kernel(A: np.ndarray, B: np.ndarray, neg_t10: np.ndarray) -> np.ndarray:
    """Correlations ``exp(-sum_k t10_k (a_k - b_k)**2)`` between the rows of
    ``A`` (m x d) and ``B`` (n x d), as an m x n array, given the negated
    weights ``neg_t10 = -t10``.

    For a block of rows of ``A``, the terms ``(neg_t10_k * diff) * diff``
    fill a C-ordered d x rows x n array whose outer-axis sum adds them in
    dimension order: the same bits as accumulating one dimension at a time,
    whatever the block. (Summing a contiguous axis could reorder them
    pairwise, as when rows = n = 1 and d >= 8; models hold n >= 2.) The sum
    is exactly the negated sum of the ``t10`` terms, since IEEE rounding is
    symmetric in sign. When all rows of ``A`` fit one block, as for every
    Nelder-Mead round and every single point, that block is the result.
    """
    rows = max(1, _KERNEL_BLOCK // B.size)
    if A.shape[0] <= rows:
        return _kernel_block(A, B, neg_t10)
    out = np.empty((A.shape[0], B.shape[0]))
    for i in range(0, A.shape[0], rows):
        _kernel_block(A[i:i + rows], B, neg_t10, out[i:i + rows])
    return out


def _kernel_block(A: np.ndarray, B: np.ndarray, neg_t10: np.ndarray, out=None):
    """``_kernel`` of rows of ``A`` that fit one block, into ``out`` if given."""
    diff = np.subtract(A.T[:, :, None], B.T[:, None, :], order="C")
    w = diff * neg_t10[:, None, None]
    w *= diff
    return np.exp(np.add.reduce(w, axis=0), out=out)


def _correlation(Z: np.ndarray, theta_log10: np.ndarray, nugget: float) -> np.ndarray:
    R = _kernel(Z, Z, -(10.0 ** theta_log10))
    R[np.diag_indices_from(R)] += nugget
    return R


def _rhs(y: np.ndarray) -> np.ndarray:
    """The right-hand sides ``y`` and ones as the columns of one n x 2
    Fortran-ordered array, so each column is a contiguous vector."""
    return np.stack((y, np.ones(y.size))).T


def _nll(R: np.ndarray, rhs: np.ndarray) -> list[float]:
    """NLL of each correlation matrix in the stack ``R`` (b x n x n), +inf
    where it is not positive definite.

    A one-matrix stack (every golden-section step, and every screen block
    once ``_KERNEL_BLOCK // n**2 == 1``) is factored alone and evaluated by
    ``_likelihood_one``. A larger stack is factored by one ``_cholesky``
    call, with the same bits per matrix as factoring each alone, and
    evaluated by ``_likelihood``. If any matrix is not positive definite the
    stack raises, and the matrices are taken one at a time.
    """
    if R.shape[0] == 1:
        try:
            L = _cholesky(R[0])
        except np.linalg.LinAlgError:
            return [math.inf]
        return [_likelihood_one(L, rhs)[0]]
    try:
        L = _cholesky(R)
    except np.linalg.LinAlgError:
        return [_nll(Ri[None], rhs)[0] for Ri in R]
    return _likelihood(L, rhs)


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
    the upper factor, f2py does not copy it, and the bits are those of two
    ``cho_solve`` calls. The inner products are stacked ``np.matmul`` calls,
    one ``ddot`` each as for single vectors, and the scalar tail is per
    matrix in Python floats, so every value has the bits of a one-matrix
    evaluation. A non-finite solution (from a NaN or inf in ``y``) raises
    ``ValueError``.
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

    Without ``noise`` the model interpolates, so it cannot take coincident
    points: the exact repeats of a normalized row (design ``repeats``,
    ``fun_repeats``) enter as one row at their mean loss, in first-occurrence
    order. ``ValueError`` is the one exception for a fit without a model:
    equal losses after that averaging (one row included) raise it, and so
    do the search and ``_finalize`` when they find none. The model's
    ``params`` is the ``start`` of a later warm fit on data of the same
    dimension.
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
    if not control.noise:
        _, first, inverse = np.unique(Z, axis=0, return_index=True,
                                      return_inverse=True)
        if first.size < y.size:
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

    budget = control.model_fun_evals
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != lo.shape:
            raise ValueError(f"start must hold {lo.size} parameters")
        settled = n >= KEEP_START_ROWS_PER_DIM * d
        if settled and not refresh:
            try:
                return _finalize(Z, y, np.clip(start, lo, hi), control.noise,
                                 norm_min, norm_span)
            except ValueError:
                pass
        if settled or not refresh:
            budget //= WARM_BUDGET_DIVISOR
        else:
            start = None

    # negated squared per-dimension distances (the kernel's broadcast), one
    # flattened n x n block per row; every likelihood evaluation weights them
    # with one (1, d) @ (d, n*n) product, which is then exactly the negated
    # exponent, since IEEE rounding is symmetric in sign
    D = np.subtract(Z.T[:, :, None], Z.T[:, None, :], order="C")
    D *= -D
    D = D.reshape(d, n * n)
    rhs = _rhs(y)
    rows = max(1, _KERNEL_BLOCK // (n * n))

    def objective(V: np.ndarray) -> list[float]:
        """NLL at each row of ``V`` (theta, then the log10 nugget when
        ``noise``), in blocks of ``rows`` parameter vectors."""
        out = []
        for i in range(0, V.shape[0], rows):
            B = V[i:i + rows]
            # (b, 1, d) @ (d, n*n): per row the bits of a (1, d) @ (d, n*n)
            # np.dot, which a (b, d) @ (d, n*n) product does not give
            R = np.matmul((10.0 ** B[:, :d])[:, None, :], D)
            np.exp(R, out=R)
            # the diagonals of the flat n x n matrices; scalar powers, since an
            # array power differs from them in the last bit
            R[:, 0, ::n + 1] += (np.array([[10.0 ** x] for x in B[:, d].tolist()])
                                 if control.noise else JITTER_FLOOR)
            out += _nll(R.reshape(-1, n, n), rhs)
        return out

    best_v, _ = _budgeted_search(objective, lo, hi, budget, seed, start=start)
    return _finalize(Z, y, best_v, control.noise, norm_min, norm_span)


def _finalize(Z: np.ndarray, y: np.ndarray, v: np.ndarray, noise: bool,
              norm_min: np.ndarray, norm_span: np.ndarray) -> KrigingModel:
    """The model on the normalized inputs ``Z`` at the parameter vector
    ``v`` (``theta_log10``, then the log10 nugget when ``noise``): factor R,
    escalating jitter if needed (``ValueError`` past ``JITTER_CEIL``), and
    take mu and the weights from ``_likelihood_one``.

    Without ``noise`` the factorization starts from a zero nugget, not the
    search's jitter floor, so the model reproduces its training targets
    whenever the kernel matrix allows it. Any jitter it needs is absorbed
    into the stored nugget and ``params``: the model describes the matrix
    actually factored.
    """
    d = Z.shape[1]
    theta_log10 = v[:d]
    nugget = float(10.0 ** v[d]) if noise else 0.0
    jitter = 0.0
    while True:
        R = _correlation(Z, theta_log10, nugget + jitter)
        try:
            L = _cholesky(R)
            break
        except np.linalg.LinAlgError:
            jitter = JITTER_FLOOR if jitter == 0.0 else jitter * 10.0
            if jitter > JITTER_CEIL:
                raise ValueError(
                    "correlation matrix not positive definite at jitter ceiling"
                ) from None
    _, mu, rinv_r = _likelihood_one(L, _rhs(y))
    nugget += jitter
    return KrigingModel(
        theta_log10=theta_log10, nugget=nugget,
        mu=mu, norm_min=norm_min, norm_span=norm_span,
        weights=rinv_r, Z=Z, neg_t10=-(10.0 ** theta_log10),
        params=theta_log10.tolist() + ([math.log10(nugget)] if noise else []),
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


"""Kriging regression with per-dimension activity and budgeted likelihood fits.

The correlation kernel is squared-exponential on inputs min-max normalized
to the unit box:

    R_ij = exp(-sum_k 10**theta_k * (z_ik - z_jk)**2)

with ``theta`` searched on a log10 scale inside [min_theta, max_theta]. A
nugget on the diagonal turns interpolation into regression; with
``noise=False`` it stays at a jitter floor so the model reproduces its
training targets.

A fitted ``KrigingModel`` predicts the mean and variance with
``predict_batch``; ``predict_mean`` returns the same mean bits without the
variance solve, and ``mean_at`` the same bits at a single point with no
per-call set-up, for infill search and contour exports that read only the
mean.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrs

from .design import lhs_unit

JITTER_FLOOR = 1e-12
JITTER_CEIL = 1e-6
NUGGET_LOG10_BOUNDS = (-8.0, -1.0)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# _kernel forms its d x rows x n terms for about this many elements at a
# time, so a large batch (the infill probes) needs no more memory than a
# one-dimension-at-a-time loop
_KERNEL_BLOCK = 1 << 14


class FitError(RuntimeError):
    """Raised when no positive-definite correlation matrix can be built."""


@dataclass(frozen=True)
class SurrogateControl:
    noise: bool = False
    cod_type: str = "norm"
    min_theta: float = -4.0
    max_theta: float = 3.0
    n_theta: int | None = None     # None: one per input column
    model_fun_evals: int = 10_000
    log_level: int = 50

    def __post_init__(self):
        if self.cod_type != "norm":
            raise ValueError(f"unsupported cod_type {self.cod_type!r}")
        if self.min_theta >= self.max_theta:
            raise ValueError("min_theta must be below max_theta")
        if self.model_fun_evals < 1:
            raise ValueError("model_fun_evals must be >= 1")


@dataclass
class KrigingModel:
    """Fitted surrogate; immutable in practice, safe to share across threads.

    ``predict_batch`` gives mean and variance, ``predict_mean`` the mean
    alone, and ``mean_at`` the mean at one point as a float, for the infill
    search's Nelder-Mead and the contour export; all three build the
    cross-correlations the way ``_kernel`` does, so their means agree bit
    for bit. ``_finalize`` caches the per-model arrays they share.
    """

    X: np.ndarray                 # raw training inputs, n x d
    y: np.ndarray                 # n observations
    theta_log10: np.ndarray       # d activity exponents
    nugget: float
    mu: float
    sigma2: float
    norm_min: np.ndarray          # per-dim normalization offsets
    norm_span: np.ndarray         # per-dim spans (zeros replaced by 1)
    chol: np.ndarray | None = None          # lower Cholesky factor of R
    weights: np.ndarray | None = None       # R^-1 (y - mu)
    Z: np.ndarray | None = field(default=None, repr=False)  # normalized inputs
    ZT: np.ndarray | None = field(default=None, repr=False)   # Z.T, contiguous
    t10: np.ndarray | None = field(default=None, repr=False)  # 10**theta_log10

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def _normalize(self, X: np.ndarray) -> np.ndarray:
        Z = (np.atleast_2d(np.asarray(X, dtype=float)) - self.norm_min) / self.norm_span
        return np.minimum(np.maximum(Z, 0.0), 1.0)

    def predict(self, x) -> tuple[float, float]:
        """Kriging mean and variance at one point (clamped into the data box)."""
        mean, var = self.predict_batch(np.atleast_2d(np.asarray(x, dtype=float)))
        return float(mean[0]), float(var[0])

    def predict_batch(self, X) -> tuple[np.ndarray, np.ndarray]:
        Q = self._normalize(X)
        m = Q.shape[0]
        if self.chol is None:      # constant-data model
            return np.full(m, self.mu), np.zeros(m)
        psi = _kernel(Q, self.Z, self.t10)
        mean = self.mu + psi @ self.weights
        v = solve_triangular(self.chol, psi.T, lower=True)
        var = self.sigma2 * (1.0 + self.nugget - np.einsum("ij,ij->j", v, v))
        return mean, np.maximum(var, 0.0)

    def predict_mean(self, X) -> np.ndarray:
        """Kriging mean at each row of ``X``: ``predict_batch(X)[0]`` without
        the triangular solve for the variance."""
        Q = self._normalize(X)
        if self.chol is None:      # constant-data model
            return np.full(Q.shape[0], self.mu)
        return self.mu + _kernel(Q, self.Z, self.t10) @ self.weights

    def mean_at(self, x: np.ndarray) -> float:
        """Kriging mean at one float point ``x`` (a 1-D array of length d).

        The same arithmetic in the same order as ``predict_mean(x[None, :])[0]``,
        so the same bits: clamp, the weighted squared differences as one
        C-ordered d x n array summed over its outer axis (dimension order,
        as in ``_kernel``), ``exp`` and a (1, n) @ (n,) product; only the
        per-call set-up is gone. Does not modify ``x``.
        """
        if self.chol is None:      # constant-data model
            return self.mu
        q = np.minimum(np.maximum((x - self.norm_min) / self.norm_span, 0.0), 1.0)
        diff = q[:, None] - self.ZT
        w = diff * self.t10[:, None]
        w *= diff
        psi = np.exp(-np.add.reduce(w, axis=0))
        return float(self.mu + (psi[None, :] @ self.weights)[0])

    # -- persistence -------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "X": self.X.tolist(),
            "y": self.y.tolist(),
            "theta_log10": self.theta_log10.tolist(),
            "nugget": self.nugget,
            "mu": self.mu,
            "sigma2": self.sigma2,
            "norm_min": self.norm_min.tolist(),
            "norm_span": self.norm_span.tolist(),
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "KrigingModel":
        doc = json.loads(text)
        model = cls(
            X=np.asarray(doc["X"], dtype=float),
            y=np.asarray(doc["y"], dtype=float),
            theta_log10=np.asarray(doc["theta_log10"], dtype=float),
            nugget=float(doc["nugget"]),
            mu=float(doc["mu"]),
            sigma2=float(doc["sigma2"]),
            norm_min=np.asarray(doc["norm_min"], dtype=float),
            norm_span=np.asarray(doc["norm_span"], dtype=float),
        )
        if model.sigma2 > 0.0 or np.ptp(model.y) > 0.0:
            _finalize(model)
        return model


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
    try:
        L = np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        return math.inf
    return _nll_from_chol(L, _rhs(y))[0]


def _kernel(A: np.ndarray, B: np.ndarray, t10: np.ndarray) -> np.ndarray:
    """Correlations ``exp(-sum_k t10_k (a_k - b_k)**2)`` between the rows of
    ``A`` (m x d) and ``B`` (n x d), as an m x n array.

    For a block of rows of ``A``, the terms ``(t10_k * diff) * diff`` fill a
    C-ordered d x rows x n array whose outer-axis sum adds them in dimension
    order: the same bits as accumulating one dimension at a time, whatever
    the block. (Summing a contiguous axis could reorder them pairwise, as
    when rows = n = 1 and d >= 8; models hold n >= 2.)
    """
    out = np.empty((A.shape[0], B.shape[0]))
    rows = max(1, _KERNEL_BLOCK // B.size)
    for i in range(0, A.shape[0], rows):
        diff = np.subtract(A[i:i + rows].T[:, :, None], B.T[:, None, :], order="C")
        w = diff * t10[:, None, None]
        w *= diff
        np.exp(-np.add.reduce(w, axis=0), out=out[i:i + rows])
    return out


def _correlation(Z: np.ndarray, theta_log10: np.ndarray, nugget: float) -> np.ndarray:
    R = _kernel(Z, Z, 10.0 ** theta_log10)
    R[np.diag_indices_from(R)] += nugget
    return R


def _rhs(y: np.ndarray) -> np.ndarray:
    """The right-hand sides ``y`` and ones as the columns of one n x 2
    Fortran-ordered array, so each column is a contiguous vector."""
    return np.stack((y, np.ones(y.size))).T


def _nll_from_chol(L: np.ndarray, rhs: np.ndarray):
    """NLL, mu, sigma2 and R^-1 (y - mu) from the lower Cholesky factor.

    ``rhs`` holds ``y`` and ones as ``_rhs`` builds them, once per fit. One
    LAPACK solve serves both right-hand sides; it gives the same bits as two
    ``cho_solve`` calls. A non-finite solution (from a NaN or inf in ``y``)
    raises ``ValueError``.
    """
    sol, info = dpotrs(L, rhs, lower=1)
    if info != 0 or not np.isfinite(sol).all():
        raise ValueError("non-finite Kriging solve; check y for NaN or inf")
    y, one = rhs[:, 0], rhs[:, 1]
    rinv_y, rinv_one = sol[:, 0], sol[:, 1]
    mu = (one @ rinv_y) / (one @ rinv_one)    # not .sum(): other bits
    rinv_r = rinv_y - mu * rinv_one
    sigma2 = max(float((y - mu) @ rinv_r) / y.size, 1e-300)
    logdet = 2.0 * float(np.log(L.diagonal()).sum())
    return y.size * math.log(sigma2) + logdet, mu, sigma2, rinv_r


# -- fitting ----------------------------------------------------------------

def fit(X, y, control: SurrogateControl | None = None, seed: int = 0) -> KrigingModel:
    """Fit theta (and the nugget when ``noise``) by budgeted likelihood search.

    The budget ``model_fun_evals`` caps the number of likelihood
    evaluations: 80% go to a Latin-hypercube screen of the parameter box,
    the remainder to coordinate-wise golden-section refinement around the
    best screened point. The squared distances and the right-hand side
    (y, ones) are built once per fit; each evaluation then forms R with one
    product, factors it, solves for both columns in one triangular solve and
    computes the NLL. A NaN or inf in ``y`` raises ``ValueError``, and so do
    duplicate rows when ``noise`` is off.
    """
    control = control or SurrogateControl()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least two observations")
    if y.size != n:
        raise ValueError("X and y row counts differ")
    if control.n_theta is not None and control.n_theta != d:
        raise ValueError(f"n_theta={control.n_theta} but X has {d} columns")

    norm_min = X.min(axis=0)
    norm_span = X.max(axis=0) - norm_min
    norm_span = np.where(norm_span > 0.0, norm_span, 1.0)
    Z = (X - norm_min) / norm_span

    if np.ptp(y) == 0.0:
        # constant observations: degenerate model that predicts the constant
        return KrigingModel(
            X=X, y=y, theta_log10=np.zeros(d), nugget=0.0, mu=float(y[0]),
            sigma2=0.0, norm_min=norm_min, norm_span=norm_span,
        )

    if not control.noise:
        dup = _has_duplicate_rows(Z)
        if dup:
            raise ValueError(
                "duplicate rows after normalization; refit with noise=True"
            )

    # squared per-dimension distances (the kernel's broadcast), one flattened
    # n x n block per row; every likelihood evaluation weights them with one
    # (1, d) @ (d, n*n) product
    D = np.subtract(Z.T[:, :, None], Z.T[:, None, :], order="C")
    D *= D
    D = D.reshape(d, n * n)
    rhs = _rhs(y)

    lo = np.full(d, control.min_theta)
    hi = np.full(d, control.max_theta)
    if control.noise:
        lo = np.append(lo, NUGGET_LOG10_BOUNDS[0])
        hi = np.append(hi, NUGGET_LOG10_BOUNDS[1])

    def objective(v: np.ndarray) -> float:
        theta = v[:d]
        nugget = 10.0 ** v[d] if control.noise else JITTER_FLOOR
        R = np.exp(-np.dot((10.0 ** theta)[None, :], D)[0])
        R[::n + 1] += nugget              # the diagonal of the flat n x n R
        try:
            L = np.linalg.cholesky(R.reshape(n, n))
        except np.linalg.LinAlgError:
            return math.inf
        return _nll_from_chol(L, rhs)[0]

    best_v, _ = _budgeted_search(objective, lo, hi, control.model_fun_evals, seed)

    theta = best_v[:d]
    # the search regularizes with the jitter floor for evaluability; the
    # final noise-free factorization re-tries from zero so training targets
    # are reproduced exactly whenever the kernel matrix allows it
    nugget = 10.0 ** best_v[d] if control.noise else 0.0
    model = KrigingModel(
        X=X, y=y, theta_log10=theta, nugget=float(nugget), mu=0.0, sigma2=0.0,
        norm_min=norm_min, norm_span=norm_span,
    )
    _finalize(model)
    return model


def _has_duplicate_rows(Z: np.ndarray) -> bool:
    order = np.lexsort(Z.T)
    S = Z[order]
    return bool(np.any(np.all(S[1:] == S[:-1], axis=1)))


def _finalize(model: KrigingModel) -> None:
    """Factor R at the chosen parameters, escalating jitter if needed.

    Any jitter the factorization needs is absorbed into the stored nugget,
    so the model always describes the matrix actually factored.
    """
    Z = model._normalize(model.X)
    jitter = 0.0
    while True:
        R = _correlation(Z, model.theta_log10, model.nugget + jitter)
        try:
            L = np.linalg.cholesky(R)
            break
        except np.linalg.LinAlgError:
            jitter = JITTER_FLOOR if jitter == 0.0 else jitter * 10.0
            if jitter > JITTER_CEIL:
                raise FitError(
                    "correlation matrix not positive definite at jitter ceiling"
                ) from None
    model.nugget = float(model.nugget + jitter)
    _, mu, sigma2, rinv_r = _nll_from_chol(L, _rhs(model.y))
    model.Z = Z
    model.ZT = np.ascontiguousarray(Z.T)
    model.t10 = 10.0 ** model.theta_log10
    model.chol = L
    model.mu = float(mu)
    model.sigma2 = float(max(sigma2, 0.0))
    model.weights = rinv_r


def _budgeted_search(objective, lo, hi, budget: int, seed: int):
    """LHS screen (80% of budget), then coordinate-wise golden sections."""
    rng = np.random.default_rng(seed)
    dims = lo.size
    n_screen = max(2, int(0.8 * budget))
    pts = lhs_unit(rng, n_screen, dims) * (hi - lo) + lo
    center = 0.5 * (lo + hi)
    pts[0] = center        # always include the box center
    best_v, best_f = None, math.inf
    for v in pts:
        f = objective(v)
        if f < best_f:
            best_v, best_f = v.copy(), f
    used = n_screen

    remaining = budget - used
    while remaining >= 6:
        improved = False
        for k in range(dims):
            per = min(max(6, remaining // dims), remaining)
            if per < 6:
                break
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
        return objective(v)

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


"""From-scratch gradient optimizer portfolio over flat parameter vectors.

Ten kinds with their stock default constants; one learning-rate multiplier
(`lr_mult`) spans the heterogeneous portfolio, and `sgd_momentum` feeds the
SGD kind only. The constants live inside the rules: betas (0.9, 0.999) and
eps 1e-8 for the Adam family (Adam, AdamW, Adamax, NAdam, RAdam), RMSprop
alpha 0.99 and eps 1e-8, Adadelta rho 0.9 and ASGD power 0.75; SGD has no
dampening or Nesterov step and Adagrad no learning-rate decay. AdamW's
decoupled weight decay 1e-2 and ASGD's lambd 1e-4 are the
``OptimizerConfig`` fields ``weight_decay`` and ``lambd``, which
``optimizer_handler`` sets. Three values are not
the shared ones: Adadelta eps 1e-6 and Adagrad eps 1e-10 (torch's defaults
for those kinds) and NAdam momentum_decay 0 (torch: 4e-3), which makes its
momentum schedule the constant 0.45. ASGD's averaged iterate is not kept:
torch stores it beside the parameters, and nothing here reads it. LBFGS,
Rprop and SparseAdam are deliberately not part of the portfolio.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_EXCLUDED = {
    "LBFGS": "LBFGS needs closure-style re-evaluation and is excluded",
    "Rprop": "Rprop is excluded from the portfolio",
    "SparseAdam": "SparseAdam supports sparse gradients only and is excluded",
}

# default learning rate per kind; SGD has no stock default, 1e-3 is the
# package convention
BASE_LR = {
    "Adadelta": 1.0,
    "Adagrad": 1e-2,
    "Adam": 1e-3,
    "AdamW": 1e-3,
    "Adamax": 2e-3,
    "ASGD": 1e-2,
    "NAdam": 2e-3,
    "RAdam": 1e-3,
    "RMSprop": 1e-2,
    "SGD": 1e-3,
}
OPTIMIZER_KINDS = tuple(BASE_LR)


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str
    lr_mult: float = 1.0
    momentum: float = 0.0         # SGD
    weight_decay: float = 0.0     # AdamW, decoupled
    lambd: float = 1e-4           # ASGD decay term

    @property
    def lr(self) -> float:
        return BASE_LR[self.kind] * self.lr_mult


@dataclass
class OptimizerState:
    """Per-parameter buffers plus step counter; single-owner mutable."""

    n: int
    step: int = 0
    buffers: dict = field(default_factory=dict)

    def buf(self, name: str) -> np.ndarray:
        if name not in self.buffers:
            self.buffers[name] = np.zeros(self.n)
        return self.buffers[name]


def optimizer_handler(name: str, lr_mult: float = 1.0,
                      sgd_momentum: float = 0.0) -> OptimizerConfig:
    """Map an optimizer name to its configured update rule.

    The effective learning rate is the kind's default scaled by
    ``lr_mult``; ``sgd_momentum`` only applies to SGD.
    """
    if name in _EXCLUDED:
        raise ValueError(f"optimizer {name!r} not available: {_EXCLUDED[name]}")
    if name not in OPTIMIZER_KINDS:
        raise ValueError(f"unknown optimizer {name!r} (choose from {OPTIMIZER_KINDS})")
    if lr_mult <= 0.0:
        raise ValueError("lr_mult must be positive")
    kw: dict = {}
    if name == "AdamW":
        kw = dict(weight_decay=1e-2)
    elif name == "SGD":
        kw = dict(momentum=float(sgd_momentum))
    return OptimizerConfig(kind=name, lr_mult=lr_mult, **kw)


def init_state(config: OptimizerConfig, n: int) -> OptimizerState:
    state = OptimizerState(n=n)
    if config.kind == "NAdam":
        state.buffers["mu_prod"] = 1.0
    return state


def step(config: OptimizerConfig, state: OptimizerState,
         params, grads) -> np.ndarray:
    """Apply one update of the configured rule.

    Returns the new weights in a vector the state owns (``state.buf("w")``),
    which the next step overwrites. Passed back in as ``params``, that
    vector is updated in place; any other ``params`` is copied into it and
    never written, so callers need not copy it.
    """
    w = state.buf("w")
    p = w if params is w else np.asarray(params, dtype=float)
    g = np.asarray(grads, dtype=float)
    if p.shape != g.shape:
        raise ValueError(f"params/grads length mismatch: {p.shape} vs {g.shape}")
    if p.shape != w.shape:
        raise ValueError(f"state initialized for {state.n} parameters, got {p.size}")
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient components")
    if p is not w:
        w[:] = p
    if np.may_share_memory(g, w):
        g = g.copy()
    state.step += 1
    _RULES[config.kind](config, state, w, g, state.buf("a"), state.buf("b"))
    return w


# stock constants of the Adam family (Adam, AdamW, Adamax, NAdam, RAdam)
B1, B2, EPS = 0.9, 0.999, 1e-8

# Each rule updates ``w`` (the state's vector) in place with the operations,
# in the order, of its out-of-place formula; ``a`` and ``b`` are the state's
# two scratch vectors. Only ``scalar * array`` is written ``array * scalar``.


def _decay_add(x, k, g, a, h=None):
    """``x = k * x + (1 - k) * g``, times ``h`` too if given, in place via ``a``."""
    x *= k
    np.multiply(g, 1.0 - k, out=a)
    if h is not None:
        a *= h
    x += a


def _root(x, eps, out):
    """``sqrt(x) + eps`` into ``out``."""
    np.sqrt(x, out=out)
    out += eps
    return out


def _sgd(c, s, w, g, a, b):
    if c.momentum:
        if "momentum" in s.buffers:
            mom = s.buffers["momentum"]
            mom *= c.momentum
            mom += g
        else:
            mom = s.buffers["momentum"] = g.copy()
        g = mom
    w -= np.multiply(g, c.lr, out=a)


def _adam_moments(s, g, a):
    m, v = s.buf("m"), s.buf("v")
    _decay_add(m, B1, g, a)
    _decay_add(v, B2, g, a, g)
    return m, v


def _adam(c, s, w, g, a, b):
    m, v = _adam_moments(s, g, a)
    np.divide(m, 1.0 - B1 ** s.step, out=a)          # mhat
    a *= c.lr
    _root(np.divide(v, 1.0 - B2 ** s.step, out=b), EPS, b)
    w -= np.divide(a, b, out=a)


def _adamw(c, s, w, g, a, b):
    # decoupled decay: shrink first, then the plain Adam update on raw g
    w *= 1.0 - c.lr * c.weight_decay
    _adam(c, s, w, g, a, b)


def _adadelta(c, s, w, g, a, b):
    sq, acc = s.buf("square_avg"), s.buf("acc_delta")
    _decay_add(sq, 0.9, g, a, g)
    np.sqrt(np.add(acc, 1e-6, out=a), out=a)
    np.sqrt(np.add(sq, 1e-6, out=b), out=b)
    np.multiply(np.divide(a, b, out=a), g, out=a)    # delta
    _decay_add(acc, 0.9, a, b, a)
    w -= np.multiply(a, c.lr, out=a)


def _adagrad(c, s, w, g, a, b):
    acc = s.buf("sum")
    acc += np.multiply(g, g, out=a)
    np.multiply(g, c.lr, out=a)
    w -= np.divide(a, _root(acc, 1e-10, b), out=a)


def _adamax(c, s, w, g, a, b):
    m, u = s.buf("m"), s.buf("u")
    _decay_add(m, B1, g, a)
    u *= B2
    np.add(np.abs(g, out=a), EPS, out=a)
    np.maximum(u, a, out=u)
    np.multiply(m, c.lr / (1.0 - B1 ** s.step), out=a)
    w -= np.divide(a, u, out=a)


def _asgd(c, s, w, g, a, b):
    eta = c.lr / (1.0 + c.lambd * c.lr * (s.step - 1)) ** 0.75
    w *= 1.0 - c.lambd * eta
    w -= np.multiply(g, eta, out=a)


def _nadam(c, s, w, g, a, b):
    mu = B1 * 0.5                 # momentum_decay 0: the same mu every step
    mu_prod = s.buffers["mu_prod"] * mu
    s.buffers["mu_prod"] = mu_prod
    m, v = _adam_moments(s, g, a)
    denom = _root(np.divide(v, 1.0 - B2 ** s.step, out=b), EPS, b)
    np.multiply(g, c.lr * (1.0 - mu) / (1.0 - mu_prod), out=a)
    w -= np.divide(a, denom, out=a)
    np.multiply(m, c.lr * mu / (1.0 - mu_prod * mu), out=a)
    w -= np.divide(a, denom, out=a)


def _radam(c, s, w, g, a, b):
    t = s.step
    m, v = _adam_moments(s, g, a)
    np.divide(m, 1.0 - B1 ** t, out=a)              # mhat
    rho_inf = 2.0 / (1.0 - B2) - 1.0
    rho_t = rho_inf - 2.0 * t * B2 ** t / (1.0 - B2 ** t)
    if rho_t > 5.0:
        rect = np.sqrt(
            (rho_t - 4.0) * (rho_t - 2.0) * rho_inf
            / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
        )
        a *= c.lr * rect
        _root(np.divide(v, 1.0 - B2 ** t, out=b), EPS, b)
        w -= np.divide(a, b, out=a)
    else:
        w -= np.multiply(a, c.lr, out=a)


def _rmsprop(c, s, w, g, a, b):
    v = s.buf("square_avg")
    _decay_add(v, 0.99, g, a, g)
    np.multiply(g, c.lr, out=a)
    w -= np.divide(a, _root(v, EPS, b), out=a)


_RULES = {
    "SGD": _sgd,
    "Adam": _adam,
    "AdamW": _adamw,
    "Adadelta": _adadelta,
    "Adagrad": _adagrad,
    "Adamax": _adamax,
    "ASGD": _asgd,
    "NAdam": _nadam,
    "RAdam": _radam,
    "RMSprop": _rmsprop,
}

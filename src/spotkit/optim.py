"""From-scratch gradient optimizer portfolio over flat parameter vectors.

Ten kinds with their stock default constants; one learning-rate multiplier
(`lr_mult`) spans the heterogeneous portfolio, and `sgd_momentum` feeds the
SGD kind only. The constants live inside the rules: betas (0.9, 0.999) and
eps 1e-8 for the Adam family (Adam, AdamW, Adamax, NAdam, RAdam), RMSprop
alpha 0.99 and eps 1e-8, Adadelta rho 0.9, ASGD power 0.75, AdamW's
decoupled weight decay 1e-2 and ASGD's lambd 1e-4; SGD has no dampening
or Nesterov step and Adagrad no learning-rate decay. Three values are not
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
    base_lr: float
    lr_mult: float = 1.0
    momentum: float = 0.0         # SGD
    weight_decay: float = 0.0     # AdamW, decoupled
    lambd: float = 1e-4           # ASGD decay term

    @property
    def lr(self) -> float:
        return self.base_lr * self.lr_mult


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
    return OptimizerConfig(kind=name, base_lr=BASE_LR[name], lr_mult=lr_mult, **kw)


def init_state(config: OptimizerConfig, n: int) -> OptimizerState:
    state = OptimizerState(n=n)
    if config.kind == "NAdam":
        state.buffers["mu_prod"] = 1.0
    return state


def step(config: OptimizerConfig, state: OptimizerState,
         params, grads) -> np.ndarray:
    """Apply one update of the configured rule.

    Returns a new array; ``params`` is not modified (no rule writes into
    its ``w`` argument), so callers need not copy it.
    """
    w = np.asarray(params, dtype=float)
    g = np.asarray(grads, dtype=float)
    if w.shape != g.shape:
        raise ValueError(f"params/grads length mismatch: {w.shape} vs {g.shape}")
    if w.size != state.n:
        raise ValueError(f"state initialized for {state.n} parameters, got {w.size}")
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite gradient components")
    state.step += 1
    return _RULES[config.kind](config, state, w, g)


# stock constants of the Adam family (Adam, AdamW, Adamax, NAdam, RAdam)
B1, B2, EPS = 0.9, 0.999, 1e-8


def _sgd(c, s, w, g):
    if c.momentum:
        if "momentum" in s.buffers:
            b = s.buffers["momentum"]
            b *= c.momentum
            b += g
        else:
            b = s.buffers["momentum"] = g.copy()
        g = b
    return w - c.lr * g


def _adam_moments(s, g):
    m = s.buf("m")
    v = s.buf("v")
    m *= B1
    m += (1.0 - B1) * g
    v *= B2
    v += (1.0 - B2) * g * g
    return m, v


def _adam(c, s, w, g):
    m, v = _adam_moments(s, g)
    mhat = m / (1.0 - B1 ** s.step)
    vhat = v / (1.0 - B2 ** s.step)
    return w - c.lr * mhat / (np.sqrt(vhat) + EPS)


def _adamw(c, s, w, g):
    # decoupled decay: shrink first, then the plain Adam update on raw g
    return _adam(c, s, w * (1.0 - c.lr * c.weight_decay), g)


def _adadelta(c, s, w, g):
    sq = s.buf("square_avg")
    acc = s.buf("acc_delta")
    sq *= 0.9
    sq += (1.0 - 0.9) * g * g
    delta = np.sqrt(acc + 1e-6) / np.sqrt(sq + 1e-6) * g
    acc *= 0.9
    acc += (1.0 - 0.9) * delta * delta
    return w - c.lr * delta


def _adagrad(c, s, w, g):
    acc = s.buf("sum")
    acc += g * g
    return w - c.lr * g / (np.sqrt(acc) + 1e-10)


def _adamax(c, s, w, g):
    m = s.buf("m")
    m *= B1
    m += (1.0 - B1) * g
    u = s.buf("u")
    np.maximum(B2 * u, np.abs(g) + EPS, out=u)
    return w - (c.lr / (1.0 - B1 ** s.step)) * m / u


def _asgd(c, s, w, g):
    eta = c.lr / (1.0 + c.lambd * c.lr * (s.step - 1)) ** 0.75
    return w * (1.0 - c.lambd * eta) - eta * g


def _nadam(c, s, w, g):
    mu = B1 * 0.5                 # momentum_decay 0: the same mu every step
    mu_prod = s.buffers["mu_prod"] * mu
    s.buffers["mu_prod"] = mu_prod
    m, v = _adam_moments(s, g)
    denom = np.sqrt(v / (1.0 - B2 ** s.step)) + EPS
    w = w - c.lr * (1.0 - mu) / (1.0 - mu_prod) * g / denom
    return w - c.lr * mu / (1.0 - mu_prod * mu) * m / denom


def _radam(c, s, w, g):
    t = s.step
    m, v = _adam_moments(s, g)
    mhat = m / (1.0 - B1 ** t)
    rho_inf = 2.0 / (1.0 - B2) - 1.0
    rho_t = rho_inf - 2.0 * t * B2 ** t / (1.0 - B2 ** t)
    if rho_t > 5.0:
        rect = np.sqrt(
            (rho_t - 4.0) * (rho_t - 2.0) * rho_inf
            / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
        )
        vhat = np.sqrt(v / (1.0 - B2 ** t))
        return w - c.lr * rect * mhat / (vhat + EPS)
    return w - c.lr * mhat


def _rmsprop(c, s, w, g):
    v = s.buf("square_avg")
    v *= 0.99
    v += (1.0 - 0.99) * g * g
    return w - c.lr * g / (np.sqrt(v) + EPS)


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

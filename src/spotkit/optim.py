"""From-scratch gradient optimizer portfolio over flat parameter vectors.

Ten kinds with their stock default constants; one learning-rate multiplier
(`lr_mult`) spans the heterogeneous portfolio, and `sgd_momentum` feeds the
SGD kind only. LBFGS, Rprop and SparseAdam are deliberately not part of
the portfolio.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OPTIMIZER_KINDS = (
    "Adadelta", "Adagrad", "Adam", "AdamW", "Adamax",
    "ASGD", "NAdam", "RAdam", "RMSprop", "SGD",
)

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


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str
    base_lr: float
    lr_mult: float = 1.0
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    rho: float = 0.9              # Adadelta smoothing
    alpha: float = 0.99           # RMSprop smoothing / ASGD power (see below)
    momentum: float = 0.0         # SGD / RMSprop momentum
    dampening: float = 0.0
    nesterov: bool = False
    lr_decay: float = 0.0         # Adagrad
    lambd: float = 1e-4           # ASGD decay term
    t0: float = 1e6               # ASGD averaging start
    asgd_alpha: float = 0.75      # ASGD eta power
    momentum_decay: float = 0.0   # NAdam

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
    if name == "Adadelta":
        kw = dict(rho=0.9, eps=1e-6)
    elif name == "Adagrad":
        kw = dict(eps=1e-10, lr_decay=0.0)
    elif name == "AdamW":
        kw = dict(weight_decay=1e-2)
    elif name == "ASGD":
        kw = dict(lambd=1e-4, asgd_alpha=0.75, t0=1e6)
    elif name == "NAdam":
        kw = dict(momentum_decay=0.0)
    elif name == "RMSprop":
        kw = dict(alpha=0.99, momentum=0.0)
    elif name == "SGD":
        kw = dict(momentum=float(sgd_momentum))
    return OptimizerConfig(kind=name, base_lr=BASE_LR[name], lr_mult=lr_mult, **kw)


def init_state(config: OptimizerConfig, n: int) -> OptimizerState:
    state = OptimizerState(n=n)
    if config.kind == "ASGD":
        state.buffers["eta"] = config.lr
        state.buffers["mu"] = 1.0
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


def _sgd(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    if c.momentum:
        if "momentum" in s.buffers:
            b = s.buffers["momentum"]
            b *= c.momentum
            b += (1.0 - c.dampening) * g
        else:
            b = s.buffers["momentum"] = g.copy()
        g = c.momentum * b + g if c.nesterov else b
    return w - c.lr * g


def _adam_moments(c, s, g):
    b1, b2 = c.betas
    m = s.buf("m")
    v = s.buf("v")
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    return m, v


def _adam(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    m, v = _adam_moments(c, s, g)
    b1, b2 = c.betas
    mhat = m / (1.0 - b1 ** s.step)
    vhat = v / (1.0 - b2 ** s.step)
    return w - c.lr * mhat / (np.sqrt(vhat) + c.eps)


def _adamw(c, s, w, g):
    # decoupled decay: shrink first, then the plain Adam update on raw g
    w = w * (1.0 - c.lr * c.weight_decay)
    m, v = _adam_moments(c, s, g)
    b1, b2 = c.betas
    mhat = m / (1.0 - b1 ** s.step)
    vhat = v / (1.0 - b2 ** s.step)
    return w - c.lr * mhat / (np.sqrt(vhat) + c.eps)


def _adadelta(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    sq = s.buf("square_avg")
    acc = s.buf("acc_delta")
    sq *= c.rho
    sq += (1.0 - c.rho) * g * g
    delta = np.sqrt(acc + c.eps) / np.sqrt(sq + c.eps) * g
    acc *= c.rho
    acc += (1.0 - c.rho) * delta * delta
    return w - c.lr * delta


def _adagrad(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    clr = c.lr / (1.0 + (s.step - 1) * c.lr_decay)
    acc = s.buf("sum")
    acc += g * g
    return w - clr * g / (np.sqrt(acc) + c.eps)


def _adamax(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    b1, b2 = c.betas
    m = s.buf("m")
    m *= b1
    m += (1.0 - b1) * g
    u = s.buf("u")
    np.maximum(b2 * u, np.abs(g) + c.eps, out=u)
    return w - (c.lr / (1.0 - b1 ** s.step)) * m / u


def _asgd(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    eta = s.buffers["eta"]
    mu = s.buffers["mu"]
    w = w * (1.0 - c.lambd * eta) - eta * g
    ax = s.buf("ax")
    if mu != 1.0:
        ax += mu * (w - ax)
    else:
        ax[:] = w
    s.buffers["eta"] = c.lr / (1.0 + c.lambd * c.lr * s.step) ** c.asgd_alpha
    s.buffers["mu"] = 1.0 / max(1.0, s.step - c.t0)
    return w


def _nadam(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    b1, b2 = c.betas
    t = s.step
    mu_t = b1 * (1.0 - 0.5 * 0.96 ** (t * c.momentum_decay))
    mu_next = b1 * (1.0 - 0.5 * 0.96 ** ((t + 1) * c.momentum_decay))
    mu_prod = s.buffers["mu_prod"] * mu_t
    s.buffers["mu_prod"] = mu_prod
    m, v = _adam_moments(c, s, g)
    denom = np.sqrt(v / (1.0 - b2 ** t)) + c.eps
    w = w - c.lr * (1.0 - mu_t) / (1.0 - mu_prod) * g / denom
    w = w - c.lr * mu_next / (1.0 - mu_prod * mu_next) * m / denom
    return w


def _radam(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    b1, b2 = c.betas
    t = s.step
    m, v = _adam_moments(c, s, g)
    mhat = m / (1.0 - b1 ** t)
    rho_inf = 2.0 / (1.0 - b2) - 1.0
    rho_t = rho_inf - 2.0 * t * b2 ** t / (1.0 - b2 ** t)
    if rho_t > 5.0:
        rect = np.sqrt(
            (rho_t - 4.0) * (rho_t - 2.0) * rho_inf
            / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
        )
        vhat = np.sqrt(v / (1.0 - b2 ** t))
        return w - c.lr * rect * mhat / (vhat + c.eps)
    return w - c.lr * mhat


def _rmsprop(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    v = s.buf("square_avg")
    v *= c.alpha
    v += (1.0 - c.alpha) * g * g
    avg = np.sqrt(v) + c.eps
    if c.momentum > 0.0:
        b = s.buf("momentum")
        b *= c.momentum
        b += g / avg
        return w - c.lr * b
    return w - c.lr * g / avg


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

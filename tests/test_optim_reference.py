"""The update rules against a kept copy of their configurable predecessor.

``RefConfig`` and the ``_ref_*`` rules below are the earlier implementation,
whose constants (betas, eps, rho, alpha, dampening, nesterov, lr_decay, t0,
ASGD's power, NAdam's momentum_decay) were config fields and whose ASGD
kept an averaged iterate. At the handler's values every kind must produce
the same weights bit for bit, step after step, also with ``weight_decay``
and ``lambd`` zeroed and with zero gradients mixed in. The single-step
oracles pin step 1 only; this covers the ASGD and NAdam schedules after it.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from spotkit.optim import BASE_LR, OPTIMIZER_KINDS, init_state, optimizer_handler, step


@dataclass(frozen=True)
class RefConfig:
    kind: str
    base_lr: float
    lr_mult: float = 1.0
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    rho: float = 0.9
    alpha: float = 0.99
    momentum: float = 0.0
    dampening: float = 0.0
    nesterov: bool = False
    lr_decay: float = 0.0
    lambd: float = 1e-4
    t0: float = 1e6
    asgd_alpha: float = 0.75
    momentum_decay: float = 0.0

    @property
    def lr(self) -> float:
        return self.base_lr * self.lr_mult


@dataclass
class RefState:
    n: int
    step: int = 0
    buffers: dict = field(default_factory=dict)

    def buf(self, name):
        if name not in self.buffers:
            self.buffers[name] = np.zeros(self.n)
        return self.buffers[name]


def ref_handler(name, lr_mult=1.0, sgd_momentum=0.0) -> RefConfig:
    kw = {
        "Adadelta": dict(rho=0.9, eps=1e-6),
        "Adagrad": dict(eps=1e-10, lr_decay=0.0),
        "AdamW": dict(weight_decay=1e-2),
        "ASGD": dict(lambd=1e-4, asgd_alpha=0.75, t0=1e6),
        "NAdam": dict(momentum_decay=0.0),
        "RMSprop": dict(alpha=0.99, momentum=0.0),
        "SGD": dict(momentum=float(sgd_momentum)),
    }.get(name, {})
    return RefConfig(kind=name, base_lr=BASE_LR[name], lr_mult=lr_mult, **kw)


def ref_init_state(config, n):
    state = RefState(n=n)
    if config.kind == "ASGD":
        state.buffers["eta"] = config.lr
        state.buffers["mu"] = 1.0
    if config.kind == "NAdam":
        state.buffers["mu_prod"] = 1.0
    return state


def ref_step(config, state, params, grads):
    state.step += 1
    return REF_RULES[config.kind](config, state, np.asarray(params, float),
                                  np.asarray(grads, float))


def _ref_sgd(c, s, w, g):
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


def _ref_adam_moments(c, s, g):
    b1, b2 = c.betas
    m = s.buf("m")
    v = s.buf("v")
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    return m, v


def _ref_adam(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    m, v = _ref_adam_moments(c, s, g)
    b1, b2 = c.betas
    mhat = m / (1.0 - b1 ** s.step)
    vhat = v / (1.0 - b2 ** s.step)
    return w - c.lr * mhat / (np.sqrt(vhat) + c.eps)


def _ref_adamw(c, s, w, g):
    w = w * (1.0 - c.lr * c.weight_decay)
    m, v = _ref_adam_moments(c, s, g)
    b1, b2 = c.betas
    mhat = m / (1.0 - b1 ** s.step)
    vhat = v / (1.0 - b2 ** s.step)
    return w - c.lr * mhat / (np.sqrt(vhat) + c.eps)


def _ref_adadelta(c, s, w, g):
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


def _ref_adagrad(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    clr = c.lr / (1.0 + (s.step - 1) * c.lr_decay)
    acc = s.buf("sum")
    acc += g * g
    return w - clr * g / (np.sqrt(acc) + c.eps)


def _ref_adamax(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    b1, b2 = c.betas
    m = s.buf("m")
    m *= b1
    m += (1.0 - b1) * g
    u = s.buf("u")
    np.maximum(b2 * u, np.abs(g) + c.eps, out=u)
    return w - (c.lr / (1.0 - b1 ** s.step)) * m / u


def _ref_asgd(c, s, w, g):
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


def _ref_nadam(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    b1, b2 = c.betas
    t = s.step
    mu_t = b1 * (1.0 - 0.5 * 0.96 ** (t * c.momentum_decay))
    mu_next = b1 * (1.0 - 0.5 * 0.96 ** ((t + 1) * c.momentum_decay))
    mu_prod = s.buffers["mu_prod"] * mu_t
    s.buffers["mu_prod"] = mu_prod
    m, v = _ref_adam_moments(c, s, g)
    denom = np.sqrt(v / (1.0 - b2 ** t)) + c.eps
    w = w - c.lr * (1.0 - mu_t) / (1.0 - mu_prod) * g / denom
    w = w - c.lr * mu_next / (1.0 - mu_prod * mu_next) * m / denom
    return w


def _ref_radam(c, s, w, g):
    if c.weight_decay:
        g = g + c.weight_decay * w
    b1, b2 = c.betas
    t = s.step
    m, v = _ref_adam_moments(c, s, g)
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


def _ref_rmsprop(c, s, w, g):
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


REF_RULES = {
    "SGD": _ref_sgd, "Adam": _ref_adam, "AdamW": _ref_adamw,
    "Adadelta": _ref_adadelta, "Adagrad": _ref_adagrad, "Adamax": _ref_adamax,
    "ASGD": _ref_asgd, "NAdam": _ref_nadam, "RAdam": _ref_radam,
    "RMSprop": _ref_rmsprop,
}


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
@pytest.mark.parametrize("zeroed", [False, True])
def test_same_weights_as_reference_rules(kind, zeroed):
    rng = np.random.default_rng(sum(map(ord, kind)) + zeroed)
    for lr_mult in (0.1, 1.0, 3.7, 40.0):
        for momentum in (0.0, 0.5, 0.9, 0.99):
            for n in (1, 7, 50):
                cfg = optimizer_handler(kind, lr_mult, momentum)
                ref = ref_handler(kind, lr_mult, momentum)
                if zeroed:
                    cfg = replace(cfg, weight_decay=0.0, lambd=0.0)
                    ref = replace(ref, weight_decay=0.0, lambd=0.0)
                state, ref_state = init_state(cfg, n), ref_init_state(ref, n)
                w = ref_w = rng.normal(size=n)
                for t in range(60):
                    g = (np.zeros(n) if t % 7 == 3
                         else rng.normal(scale=10.0 ** rng.uniform(-3, 1), size=n))
                    w = step(cfg, state, w, g)
                    ref_w = ref_step(ref, ref_state, ref_w, g)
                    assert np.array_equal(w, ref_w), (kind, lr_mult, momentum, n, t)

import math

import numpy as np
import pytest

from spotkit.optim import OPTIMIZER_KINDS, init_state, optimizer_handler, step


def one_step(kind, w0, g0, lr_mult=1.0, sgd_momentum=0.0):
    cfg = optimizer_handler(kind, lr_mult, sgd_momentum)
    state = init_state(cfg, len(w0))
    return step(cfg, state, np.asarray(w0, float), np.asarray(g0, float))


class TestHandler:
    def test_adam_row(self):
        cfg = optimizer_handler("Adam", 1.0, 0.9)
        assert cfg.lr == 1e-3
        assert cfg.weight_decay == 0.0

    def test_adadelta_row(self):
        cfg = optimizer_handler("Adadelta", 1.0, 0.0)
        assert cfg.lr == 1.0

    def test_sgd_momentum_applied(self):
        cfg = optimizer_handler("SGD", 1.0, 0.9)
        assert cfg.lr == 1e-3
        assert cfg.momentum == 0.9

    def test_momentum_only_for_sgd(self):
        assert optimizer_handler("Adam", 1.0, 0.9).momentum == 0.0

    def test_lr_mult_scales(self):
        assert optimizer_handler("Adamax", 2.5, 0.0).lr == pytest.approx(5e-3)

    @pytest.mark.parametrize("name", ["LBFGS", "Rprop", "SparseAdam"])
    def test_excluded_names_rejected(self, name):
        with pytest.raises(ValueError, match="excluded"):
            optimizer_handler(name, 1.0, 0.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            optimizer_handler("Lion", 1.0, 0.0)


class TestSingleStepOracles:
    """Each expected value is the kind's published update expanded by hand
    for w=[1], g=[1] at step 1 (buffers empty)."""

    def test_sgd_plain(self):
        # w - lr*g with lr=0.1: 1 - 0.1*2 = 0.8
        cfg = optimizer_handler("SGD", 100.0, 0.0)   # 1e-3 * 100 = 0.1
        state = init_state(cfg, 1)
        w = step(cfg, state, [1.0], [2.0])
        assert w[0] == pytest.approx(0.8, abs=1e-10)

    def test_adam(self):
        # m=0.1, v=1e-3, mhat=1, vhat=1 -> w=1 - 1e-3/(1+1e-8)
        expected = 1.0 - 1e-3 * (1.0 / (1.0 + 1e-8))
        assert one_step("Adam", [1.0], [1.0])[0] == pytest.approx(expected, abs=1e-10)

    def test_adamw_decoupled_decay(self):
        # shrink by (1 - lr*wd) first, then the same Adam displacement
        expected = 1.0 * (1.0 - 1e-3 * 1e-2) - 1e-3 / (1.0 + 1e-8)
        assert one_step("AdamW", [1.0], [1.0])[0] == pytest.approx(expected, abs=1e-10)

    def test_adamw_zero_grad_shrinks_adam_does_not(self):
        w_adamw = one_step("AdamW", [1.0], [0.0])
        w_adam = one_step("Adam", [1.0], [0.0])
        assert w_adamw[0] == pytest.approx(1.0 - 1e-3 * 1e-2, abs=1e-12)
        assert w_adam[0] == 1.0

    def test_adadelta(self):
        # sq=0.1, delta=sqrt(1e-6)/sqrt(0.1+1e-6)*1, w=1-1.0*delta
        expected = 1.0 - math.sqrt(1e-6) / math.sqrt(0.1 + 1e-6)
        assert one_step("Adadelta", [1.0], [1.0])[0] == pytest.approx(expected, abs=1e-10)

    def test_adagrad(self):
        # acc=1, w = 1 - 1e-2*1/(1+1e-10)
        expected = 1.0 - 1e-2 / (1.0 + 1e-10)
        assert one_step("Adagrad", [1.0], [1.0])[0] == pytest.approx(expected, abs=1e-10)

    def test_adamax(self):
        # m=0.1, u=max(0, |g|+eps)=1+1e-8, w = 1 - (2e-3/0.1)*0.1/(1+1e-8)
        expected = 1.0 - (2e-3 / (1.0 - 0.9)) * 0.1 / (1.0 + 1e-8)
        assert one_step("Adamax", [1.0], [1.0])[0] == pytest.approx(expected, abs=1e-10)

    def test_asgd(self):
        # w = w*(1 - lambd*eta) - eta*g with eta=lr=1e-2
        expected = 1.0 * (1.0 - 1e-4 * 1e-2) - 1e-2 * 1.0
        assert one_step("ASGD", [1.0], [1.0])[0] == pytest.approx(expected, abs=1e-10)

    def test_nadam(self):
        # momentum_decay=0 -> mu_t = mu_next = 0.45, mu_prod = 0.45
        # m=0.1, v=1e-3, denom = sqrt(v/(1-b2))+eps = 1+1e-8
        # w -= lr*(1-0.45)/(1-0.45) * g/denom  +  lr*0.45/(1-0.45*0.45) * m/denom
        denom = 1.0 + 1e-8
        expected = (1.0
                    - 2e-3 * (0.55 / 0.55) * 1.0 / denom
                    - 2e-3 * (0.45 / (1.0 - 0.2025)) * 0.1 / denom)
        assert one_step("NAdam", [1.0], [1.0])[0] == pytest.approx(expected, abs=1e-10)

    def test_radam(self):
        # rho_1 = rho_inf - 2*0.999/0.001 = 1999 - 1998 = 1 <= 5: unrectified
        # step = lr * mhat = 1e-3 * (0.1/0.1) = 1e-3
        assert one_step("RAdam", [1.0], [1.0])[0] == pytest.approx(1.0 - 1e-3, abs=1e-12)

    def test_rmsprop(self):
        # v=0.01, w = 1 - 1e-2*1/(sqrt(0.01)+1e-8)
        expected = 1.0 - 1e-2 / (0.1 + 1e-8)
        assert one_step("RMSprop", [1.0], [1.0])[0] == pytest.approx(expected, abs=1e-10)

    def test_sgd_momentum_first_step_uses_raw_gradient(self):
        # first momentum buffer is the gradient itself: w = 1 - 1e-3*1
        got = one_step("SGD", [1.0], [1.0], sgd_momentum=0.9)
        assert got[0] == pytest.approx(1.0 - 1e-3, abs=1e-12)


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_zero_grad_is_noop(kind):
    # decay-style knobs (weight_decay, ASGD's lambd) are zeroed: the check
    # targets the gradient path of each rule
    from dataclasses import replace

    cfg = replace(optimizer_handler(kind, 1.0, 0.9), weight_decay=0.0, lambd=0.0)
    state = init_state(cfg, 3)
    w0 = np.array([1.0, -2.0, 0.5])
    w1 = step(cfg, state, w0, np.zeros(3))
    np.testing.assert_array_equal(w0, w1)


def test_sgd_displacement_scales_with_lr_mult():
    w0 = np.array([1.0, 2.0])
    g = np.array([0.3, -0.2])
    base = one_step("SGD", w0, g, lr_mult=1.0)
    scaled = one_step("SGD", w0, g, lr_mult=3.0)
    np.testing.assert_allclose(scaled - w0, 3.0 * (base - w0), rtol=1e-12)


def test_deterministic_given_same_inputs():
    rng = np.random.default_rng(0)
    w = rng.normal(size=4)
    gs = rng.normal(size=(5, 4))
    for kind in OPTIMIZER_KINDS:
        cfg = optimizer_handler(kind, 1.0, 0.5)
        out = []
        for _ in range(2):
            state = init_state(cfg, 4)
            wk = w.copy()
            for g in gs:
                wk = step(cfg, state, wk, g)
            out.append(wk)
        np.testing.assert_array_equal(out[0], out[1])


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_params_argument_not_modified(kind):
    rng = np.random.default_rng(5)
    w = rng.normal(size=40)
    w.flags.writeable = False         # an in-place write would raise
    kept = w.tobytes()
    cfg = optimizer_handler(kind, 1.0, 0.9 if kind == "SGD" else 0.0)
    state = init_state(cfg, w.size)
    for _ in range(3):
        new = step(cfg, state, w, rng.normal(size=40))
        assert not np.shares_memory(new, w)
    assert w.tobytes() == kept


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_step_updates_returned_vector_in_place(kind):
    # the vector a step returns, passed back, is the next step's output too,
    # with the bits of a run that passes a fresh copy every step
    rng = np.random.default_rng(9)
    cfg = optimizer_handler(kind, 2.5, 0.9 if kind == "SGD" else 0.0)
    state, fresh_state = init_state(cfg, 50), init_state(cfg, 50)
    w = fresh = rng.normal(size=50)
    for t in range(40):
        g = np.zeros(50) if t % 6 == 2 else rng.normal(scale=0.5, size=50)
        new = step(cfg, state, w, g)
        assert t == 0 or new is w
        w = new
        fresh = step(cfg, fresh_state, fresh.copy(), g).copy()
        assert w.tobytes() == fresh.tobytes(), (kind, t)
    # the vector passed back as its own gradient is read before it is written
    w = step(cfg, state, w, w)
    assert w.tobytes() == step(cfg, fresh_state, fresh.copy(), fresh.copy()).tobytes()


def test_step_counter_increments():
    cfg = optimizer_handler("Adam", 1.0, 0.0)
    state = init_state(cfg, 1)
    step(cfg, state, [1.0], [1.0])
    step(cfg, state, [1.0], [1.0])
    assert state.step == 2


def test_shape_mismatch_rejected():
    cfg = optimizer_handler("Adam", 1.0, 0.0)
    state = init_state(cfg, 2)
    with pytest.raises(ValueError, match="mismatch"):
        step(cfg, state, [1.0, 2.0], [1.0])


def test_non_finite_gradient_rejected():
    cfg = optimizer_handler("SGD", 1.0, 0.0)
    state = init_state(cfg, 2)
    with pytest.raises(ValueError, match="non-finite"):
        step(cfg, state, [1.0, 2.0], [math.nan, 0.0])


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_every_kind_descends_on_quadratic(kind):
    cfg = optimizer_handler(kind, 1.0, 0.9)
    state = init_state(cfg, 2)
    w = np.array([1.0, 1.0])
    f0 = float(w @ w)
    for _ in range(200):
        w = step(cfg, state, w, 2.0 * w)
    assert float(w @ w) < f0


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_matches_torch_reference(kind):
    torch = pytest.importorskip("torch")
    torch.set_default_dtype(torch.float64)
    makers = {
        "Adadelta": lambda p: torch.optim.Adadelta([p], lr=1.0, rho=0.9, eps=1e-6),
        "Adagrad": lambda p: torch.optim.Adagrad([p], lr=1e-2, eps=1e-10),
        "Adam": lambda p: torch.optim.Adam([p], lr=1e-3),
        "AdamW": lambda p: torch.optim.AdamW([p], lr=1e-3, weight_decay=1e-2),
        "Adamax": lambda p: torch.optim.Adamax([p], lr=2e-3),
        "ASGD": lambda p: torch.optim.ASGD([p], lr=1e-2, lambd=1e-4, alpha=0.75, t0=1e6),
        "NAdam": lambda p: torch.optim.NAdam([p], lr=2e-3, momentum_decay=0.0),
        "RAdam": lambda p: torch.optim.RAdam([p], lr=1e-3),
        "RMSprop": lambda p: torch.optim.RMSprop([p], lr=1e-2, alpha=0.99),
        "SGD": lambda p: torch.optim.SGD([p], lr=1e-3, momentum=0.9),
    }
    rng = np.random.default_rng(42)
    cfg = optimizer_handler(kind, 1.0, 0.9)
    w = rng.normal(size=5)
    state = init_state(cfg, 5)
    p = torch.tensor(w.copy(), requires_grad=True)
    ref = makers[kind](p)
    for g in rng.normal(size=(25, 5)):
        w = step(cfg, state, w, g)
        p.grad = torch.tensor(g)
        ref.step()
        np.testing.assert_allclose(w, p.detach().numpy(), atol=1e-9)

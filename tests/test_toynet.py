import math

import numpy as np
import pytest

from spotkit.evalharness import validate_one_epoch
from spotkit.toynet import (
    HyperConfig, NUM_CLASSES, ToyNet, generate_dataset, log_softmax_loss,
)


class TestDataset:
    def test_partition_sizes(self):
        train, test = generate_dataset(100, 8, seed=0)
        assert len(train) == 80
        assert len(test) == 20

    def test_determinism_bytes(self):
        a_train, a_test = generate_dataset(200, 5, seed=9)
        b_train, b_test = generate_dataset(200, 5, seed=9)
        assert a_train.features.tobytes() == b_train.features.tobytes()
        assert a_test.features.tobytes() == b_test.features.tobytes()
        assert a_train.labels.tobytes() == b_train.labels.tobytes()

    def test_label_balance(self):
        train, test = generate_dataset(1000, 10, seed=3)
        labels = np.concatenate([train.labels, test.labels])
        counts = np.bincount(labels, minlength=NUM_CLASSES)
        assert np.all(np.abs(counts - 100) <= 1)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            generate_dataset(10, 5, seed=0)


class TestForwardAndLoss:
    def test_uniform_logits_loss_is_log10(self):
        logits = np.zeros((4, NUM_CLASSES))
        labels = np.array([0, 3, 7, 9])
        assert (log_softmax_loss(logits, labels)[0]
                == pytest.approx(math.log(10.0), abs=1e-12))

    def test_huge_margin_loss_vanishes(self):
        logits = np.full((1, NUM_CLASSES), -100.0)
        logits[0, 4] = 100.0
        assert log_softmax_loss(logits, np.array([4]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_stable_at_huge_logits(self):
        rng = np.random.default_rng(0)
        logits = rng.uniform(-1e4, 1e4, size=(16, NUM_CLASSES))
        labels = rng.integers(0, NUM_CLASSES, size=16)
        assert math.isfinite(log_softmax_loss(logits, labels)[0])
        net = ToyNet(4, 8, 8, seed=0)
        net.set_params(net.get_params() * 1e3)
        X = rng.uniform(-10, 10, size=(8, 4))
        loss, grad = net.loss_and_grad(X, labels[:8])
        assert math.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_shape_mismatch(self):
        net = ToyNet(5, 4, 4, seed=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = ToyNet(4, 6, 5, seed=seed)
        X = rng.normal(size=(7, 4))
        labels = rng.integers(0, NUM_CLASSES, size=7)
        _, grad = net.loss_and_grad(X, labels)
        w0 = net.get_params()
        h = 1e-5
        idx = rng.choice(w0.size, size=60, replace=False)
        worst = 0.0
        for i in idx:
            for sign, store in ((+1, "hi"), (-1, "lo")):
                w = w0.copy()
                w[i] += sign * h
                net.set_params(w)
                if sign > 0:
                    hi = net.loss_and_grad(X, labels)[0]
                else:
                    lo = net.loss_and_grad(X, labels)[0]
            fd = (hi - lo) / (2 * h)
            rel = abs(fd - grad[i]) / max(1e-8, abs(fd) + abs(grad[i]))
            worst = max(worst, rel)
            net.set_params(w0)
        assert worst < 1e-4


class TestAccuracy:
    def test_tie_breaks_to_lowest_class(self):
        net = ToyNet(input_dim=3, l1=4, l2=4)
        net.set_params(np.zeros(net.n_params))      # all logits equal
        X = np.ones((1, 3))
        assert validate_one_epoch(net, [(X, np.array([0]))])[0] == 1.0
        assert validate_one_epoch(net, [(X, np.array([5]))])[0] == 0.0


def reference_loss_and_grad(net, X, labels):
    """Reference: per-call offsets from np.prod and an inline log-softmax."""
    w = net.get_params()
    mats, pos = [], 0
    for shape in net.shapes:
        size = int(np.prod(shape))
        mats.append(w[pos:pos + size].reshape(shape))
        pos += size
    W1, b1, W2, b2, W3, b3 = mats
    z1 = X @ W1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ W2 + b2
    h2 = np.maximum(z2, 0.0)
    logits = h2 @ W3 + b3
    m = X.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -float(log_probs[np.arange(m), labels].mean())
    dlogits = np.exp(log_probs)
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m
    dh2 = dlogits @ W3.T
    dh2[z2 <= 0.0] = 0.0
    dh1 = dh2 @ W2.T
    dh1[z1 <= 0.0] = 0.0
    grads = (X.T @ dh1, dh1.sum(axis=0), h1.T @ dh2, dh2.sum(axis=0),
             h2.T @ dlogits, dlogits.sum(axis=0))
    return loss, np.concatenate([g.ravel() for g in grads])


class TestWeights:
    def test_reset_restores_exact_vector(self):
        net = ToyNet(6, 8, 8, seed=11)
        w0 = net.get_params()
        net.set_params(np.zeros_like(w0))
        net.reset_weights(11)
        assert net.get_params().tobytes() == w0.tobytes()

    def test_same_hidden_widths_get_distinct_bias_draws(self):
        net = ToyNet(6, 8, 8, seed=1)
        W1, b1, W2, b2, W3, b3 = net._unpack(net.get_params())
        assert not np.array_equal(b1, b2)

    def test_unpack_views_tile_flat_vector(self):
        net = ToyNet(20, 32, 128, seed=0)
        w = net.weights
        pos = 0
        for view, shape in zip(net._unpack(w), net.shapes):
            assert view.shape == shape
            assert view.base is w
            assert view.ctypes.data == w.ctypes.data + pos * w.itemsize
            pos += view.size
        assert pos == w.size == net.n_params

    @pytest.mark.parametrize("batch, l1, l2", [(16, 32, 128), (1, 4, 8), (7, 64, 16)])
    def test_loss_and_grad_bit_equal_to_reference(self, batch, l1, l2):
        rng = np.random.default_rng(batch)
        net = ToyNet(20, l1, l2, seed=batch)
        X = rng.normal(size=(batch, 20))
        labels = rng.integers(0, NUM_CLASSES, batch)
        loss, grad = net.loss_and_grad(X, labels)
        ref_loss, ref_grad = reference_loss_and_grad(net, X, labels)
        assert loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()

    def test_param_count(self):
        net = ToyNet(20, 32, 16, seed=0)
        expected = 20 * 32 + 32 + 32 * 16 + 16 + 16 * 10 + 10
        assert net.n_params == expected
        assert net.get_params().size == expected


def test_hyperconfig_from_config_dict():
    config = {"l1": 32, "l2": 16, "lr_mult": 1.0, "batch_size": 16,
              "epochs": 8, "k_folds": 0, "patience": 3,
              "optimizer": "Adam", "sgd_momentum": 0.9, "extra": "ignored"}
    hp = HyperConfig.from_config(config)
    assert hp.l1 == 32
    assert hp.optimizer == "Adam"

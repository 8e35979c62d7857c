"""Desk-scale fully connected classifier with analytic gradients.

Two tunable hidden widths feeding a 10-class softmax head, plus a seeded
synthetic Gaussian-cluster dataset. Together they form the built-in
objective that exercises every tuned hyperparameter without external data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NUM_CLASSES = 10
DEFAULT_INPUT_DIM = 20
DEFAULT_N_SAMPLES = 1000

# spread of the class-cluster centers; chosen so a small trained net
# clears 60% test accuracy while weak configurations stay clearly below
CENTER_SCALE = 1.0


@dataclass(frozen=True)
class SyntheticDataset:
    features: np.ndarray    # n x input_dim
    labels: np.ndarray      # n ints in [0, NUM_CLASSES)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "SyntheticDataset":
        return SyntheticDataset(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class HyperConfig:
    """The tunable attribute set one configuration materializes into."""

    l1: int
    l2: int
    lr_mult: float
    batch_size: int
    epochs: int
    k_folds: int
    patience: int
    optimizer: str
    sgd_momentum: float

    @classmethod
    def from_config(cls, config: dict) -> "HyperConfig":
        return cls(**{f: config[f] for f in cls.__dataclass_fields__})


def generate_dataset(n: int = DEFAULT_N_SAMPLES, input_dim: int = DEFAULT_INPUT_DIM,
                     seed: int = 0) -> tuple[SyntheticDataset, SyntheticDataset]:
    """Balanced 10-cluster Gaussian data, split 80/20 per class.

    Cluster centers are a deterministic function of the seed; class counts
    over the full draw are balanced within one sample.
    """
    if n < 20:
        raise ValueError("need n >= 20 samples")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    centers = rng.normal(0.0, CENTER_SCALE, size=(NUM_CLASSES, input_dim))
    counts = [n // NUM_CLASSES + (1 if c < n % NUM_CLASSES else 0)
              for c in range(NUM_CLASSES)]
    train_idx_parts, test_idx_parts = [], []
    X = np.empty((n, input_dim))
    yl = np.empty(n, dtype=int)
    pos = 0
    for c, cnt in enumerate(counts):
        X[pos:pos + cnt] = centers[c] + rng.normal(size=(cnt, input_dim))
        yl[pos:pos + cnt] = c
        n_test = cnt - int(round(cnt * 0.8))
        order = pos + rng.permutation(cnt)
        test_idx_parts.append(order[:n_test])
        train_idx_parts.append(order[n_test:])
        pos += cnt
    train_idx = np.sort(np.concatenate(train_idx_parts))
    test_idx = np.sort(np.concatenate(test_idx_parts))
    # shuffle within each split so batches are class-mixed even unshuffled
    train_idx = train_idx[rng.permutation(train_idx.size)]
    test_idx = test_idx[rng.permutation(test_idx.size)]
    full = SyntheticDataset(X, yl)
    return full.subset(train_idx), full.subset(test_idx)


class ToyNet:
    """input -> l1 -> l2 -> 10 rectifier stack over a flat weight vector.

    ``weights`` is that vector itself. After a training step it is the
    optimizer state's vector (``optim.step``), which the next step
    overwrites in place, so keep a copy, not a reference, to hold on to a
    set of weights. ``get_params``/``set_params`` hand out and take in
    copies.
    """

    def __init__(self, input_dim: int, l1: int, l2: int, seed: int = 0):
        self.input_dim = input_dim
        self.l1 = l1
        self.l2 = l2
        self.shapes = [
            (input_dim, l1), (l1,),
            (l1, l2), (l2,),
            (l2, NUM_CLASSES), (NUM_CLASSES,),
        ]
        # (start, stop, shape) of each tensor in the flat weight vector
        self._layout = []
        pos = 0
        for shape in self.shapes:
            size = math.prod(shape)
            self._layout.append((pos, pos + size, shape))
            pos += size
        self._views_of = None       # the array that _views were cut from
        self.reset_weights(seed)

    @property
    def n_params(self) -> int:
        return self._layout[-1][1]

    def reset_weights(self, seed: int) -> None:
        """Seed-deterministic init, uniform in +-1/sqrt(fan_in) per layer."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        chunks = []
        for i in range(0, len(self.shapes), 2):
            w_shape, b_shape = self.shapes[i], self.shapes[i + 1]
            bound = 1.0 / math.sqrt(w_shape[0])
            chunks.append(rng.uniform(-bound, bound, size=math.prod(w_shape)))
            chunks.append(rng.uniform(-bound, bound, size=b_shape[0]))
        self.weights = np.concatenate(chunks)

    def get_params(self) -> np.ndarray:
        return self.weights.copy()

    def set_params(self, w) -> None:
        w = np.asarray(w, dtype=float)
        if w.shape != self.weights.shape:
            raise ValueError("parameter vector length mismatch")
        self.weights = w.copy()

    def _unpack(self, w):
        """Views of ``w`` shaped as the layer tensors, in ``shapes`` order."""
        return [w[start:stop].reshape(shape) for start, stop, shape in self._layout]

    def _layers(self):
        """``_unpack(self.weights)``, cut again only when ``weights`` is a new
        array; the optimizer updates its vector in place, so a training run
        cuts it once."""
        if self._views_of is not self.weights:
            self._views_of, self._views = self.weights, self._unpack(self.weights)
        return self._views

    def _forward(self, X: np.ndarray):
        """The float input, both rectified layers and the logits of ``X``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[-1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim} features, got {X.shape[-1]}")
        W1, b1, W2, b2, W3, b3 = self._layers()
        # the operations of np.maximum(X @ W1 + b1, 0.0) etc., in place
        h1 = X @ W1
        h1 += b1
        np.maximum(h1, 0.0, out=h1)
        h2 = h1 @ W2
        h2 += b2
        np.maximum(h2, 0.0, out=h2)
        logits = h2 @ W3
        logits += b3
        return X, h1, h2, logits

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Logits of the rows of ``X``, shaped ``(..., input_dim)``; a stack
        of batches gets one matrix product per batch."""
        return self._forward(X)[3]

    def loss_and_grad(self, X: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean softmax cross-entropy and its gradient w.r.t. the flat weights."""
        labels = np.asarray(labels, dtype=int)
        X, h1, h2, logits = self._forward(X)
        if X.shape[0] != labels.size:
            raise ValueError("feature/label row counts differ")
        _, _, W2, _, W3, _ = self._layers()
        m = X.shape[0]
        loss, log_probs = log_softmax_loss(logits, labels)

        dlogits = np.exp(log_probs)
        dlogits[np.arange(m), labels] -= 1.0
        dlogits /= m
        dW3 = h2.T @ dlogits
        db3 = dlogits.sum(axis=0)
        dh2 = dlogits @ W3.T
        # a rectified layer is <= 0 where its input is, and NaN where it is
        np.putmask(dh2, h2 <= 0.0, 0.0)
        dW2 = h1.T @ dh2
        db2 = dh2.sum(axis=0)
        dh1 = dh2 @ W2.T
        np.putmask(dh1, h1 <= 0.0, 0.0)
        dW1 = X.T @ dh1
        db1 = dh1.sum(axis=0)
        grad = np.concatenate((dW1, db1, dW2, db2, dW3, db3), axis=None)
        return loss, grad


def log_softmax_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of integer ``labels`` under raw 2-D ``logits``, and
    the log-sum-exp stabilized log-probabilities it was taken from."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    # np.add.reduce / size is ndarray.mean's arithmetic without its Python wrapper
    picked = log_probs[np.arange(labels.size), labels]
    return -float(np.add.reduce(picked) / labels.size), log_probs


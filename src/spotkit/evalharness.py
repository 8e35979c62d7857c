"""Training/evaluation procedures: hold-out, k-fold CV, early stopping.

The epoch loop tracks the best validation loss with a patience counter but
reports the LAST epoch's loss, not the best one. Training shuffles, testing
never does. A failed evaluation comes back as a non-finite EvalResult
rather than an exception so callers can map it to a penalty value.
"""
from __future__ import annotations

import itertools
import json
import math
import shlex
import subprocess

import numpy as np

from .design import child_seed
from .optim import OptimizerConfig, OptimizerState, init_state, optimizer_handler, step
from .toynet import (
    NUM_CLASSES, HyperConfig, SyntheticDataset, ToyNet, generate_dataset, log_softmax_loss,
)
from .tuner import EvalResult, failure_result

EVAL_SETTINGS = ("train_hold_out", "test_hold_out", "train_cv", "test_cv")

GRAD_CLIP_NORM = 1.0
HOLD_OUT_TRAIN_FRACTION = 0.6


# -- splitting ---------------------------------------------------------------

def create_train_val_split(dataset: SyntheticDataset, seed: int = 0
                           ) -> tuple[SyntheticDataset, SyntheticDataset]:
    """Random 60/40 partition: floor(0.6 n) training rows, the rest validation."""
    n = len(dataset)
    if n < 5:
        raise ValueError("dataset too small to split")
    n_train = int(n * HOLD_OUT_TRAIN_FRACTION)
    order = np.random.default_rng(np.random.SeedSequence(seed)).permutation(n)
    return dataset.subset(order[:n_train]), dataset.subset(order[n_train:])


def kfold_indices(n: int, k: int, seed: int = 0, shuffle: bool = True):
    """Contiguous folds after an optional seeded permutation.

    Yields (train_idx, val_idx) pairs; every index is validated exactly
    once and fold sizes differ by at most one.
    """
    if k < 2:
        raise ValueError("need k >= 2 folds")
    if k > n:
        raise ValueError("more folds than samples")
    order = (np.random.default_rng(np.random.SeedSequence(seed)).permutation(n)
             if shuffle else np.arange(n))
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    pos = 0
    for size in sizes:
        val = order[pos:pos + size]
        train = np.concatenate([order[:pos], order[pos + size:]])
        yield train, val
        pos += size


def make_batches(dataset: SyntheticDataset, batch_size: int,
                 rng: np.random.Generator | None = None):
    """Consecutive row slices of one gathered copy of the dataset; a trailing
    short batch is kept. ``rng`` shuffles the rows first."""
    n = len(dataset)
    order = rng.permutation(n) if rng is not None else np.arange(n)
    X, y = dataset.features[order], dataset.labels[order]
    return [(X[i:i + batch_size], y[i:i + batch_size]) for i in range(0, n, batch_size)]


# -- single-epoch passes ------------------------------------------------------

def clip_gradient(grad: np.ndarray, max_norm: float = GRAD_CLIP_NORM) -> np.ndarray:
    """Global-norm clip; an over-norm gradient comes back at exactly max_norm.

    The norm is taken with ``einsum``, not ``np.linalg.norm``, whose BLAS
    ``ddot`` sums in an order that depends on the BLAS thread count.
    """
    norm = math.sqrt(np.einsum("i,i->", grad, grad))
    if norm > max_norm:
        return grad * (max_norm / norm)
    return grad


def train_one_epoch(net: ToyNet, batches, opt_config: OptimizerConfig,
                    opt_state: OptimizerState) -> float:
    """One pass: per batch the net's cross-entropy and its gradient, a clip
    to ``GRAD_CLIP_NORM``, one optimizer step.

    Returns the final batch's loss, or the first non-finite one, at which
    the pass stops before stepping.
    """
    loss = math.nan
    for Xb, yb in batches:
        loss, grad = net.loss_and_grad(Xb, yb)
        if not math.isfinite(loss):
            return loss
        net.weights = step(opt_config, opt_state, net.weights, clip_gradient(grad))
    return loss


def validate_one_epoch(net: ToyNet, batches) -> tuple[float, float]:
    """Mean of per-batch losses plus the accuracy accumulated over all batches.

    Each run of equal-sized batches goes through one ``net.forward`` as a
    stacked array (a lone batch as it is), whose matrix products numpy
    makes as one BLAS call per batch, of that batch's shape. So every row
    gets the bits it gets from a forward pass of its batch alone; the rows
    of one concatenated 2-D array would not, since a BLAS routine's result
    for a row can depend on how many rows share the call. The log-softmax
    works row by row, and ``np.add.reduce`` over a batch's slice divided by
    its size is what ``ndarray.mean`` computes, so the per-batch losses and
    their mean keep their bits as well.
    """
    if not batches:
        raise ValueError("empty validation loader")
    parts = []
    for _, run in itertools.groupby(batches, key=lambda batch: batch[0].shape):
        Xs = [Xb for Xb, _ in run]
        X = Xs[0] if len(Xs) == 1 else np.stack(Xs)
        parts.append(net.forward(X).reshape(-1, NUM_CLASSES))
    logits = np.concatenate(parts)
    labels = np.concatenate([yb for _, yb in batches])
    _, log_probs = log_softmax_loss(logits, labels)
    picked = log_probs[np.arange(labels.size), labels]
    total_loss = 0.0
    pos = 0
    for _, yb in batches:
        total_loss += -float(np.add.reduce(picked[pos:pos + yb.size]) / yb.size)
        pos += yb.size
    correct = int(np.sum(np.argmax(logits, axis=1) == labels))
    return correct / labels.size, total_loss / len(batches)


# -- early-stopping epoch loop ------------------------------------------------

def run_training_loop(epochs: int, patience: int, train_epoch, validate_epoch,
                      on_best=None) -> EvalResult:
    """Drive train/validate callables with best-loss patience stopping.

    ``train_epoch(epoch) -> loss`` and ``validate_epoch(epoch) ->
    (metric, loss)`` are injectable so the control flow is testable with
    scripted sequences. Returns the last epoch's metric and loss.
    """
    best = math.inf
    counter = 0
    stopped = False
    loss = math.nan
    metric = math.nan
    epoch = 0
    for epoch in range(1, epochs + 1):
        train_loss = train_epoch(epoch)
        if train_loss is not None and not math.isfinite(train_loss):
            return failure_result()
        metric, loss = validate_epoch(epoch)
        if not math.isfinite(loss):
            return failure_result()
        if loss < best:
            best = loss
            counter = 0
            if on_best is not None:
                on_best()
        else:
            counter += 1
            if counter >= patience:
                stopped = True
                break
    return EvalResult(loss=loss, metric=metric, epochs_run=epoch, stopped_early=stopped)


def _train_on_splits(hp: HyperConfig, input_dim: int, splits, shuffle: bool,
                     seed: int, save_path: str | None = None) -> EvalResult:
    """Early-stopped training on each (train, validation) pair of ``splits``;
    the per-pair last-epoch results averaged.

    One net restarts on every pair from the weights of child seed 1 of
    ``seed`` and a fresh optimizer state; child seed 2 seeds the one stream
    that shuffles the training batches of all pairs (``shuffle`` off keeps
    their order). Child seed 0 is the callers' split seed. A failing pair
    fails the whole evaluation. With ``save_path``, the weights of each new
    best are kept, and the last of them are written there once when training
    ends, failed or not.
    """
    try:
        opt_config = optimizer_handler(hp.optimizer, hp.lr_mult, hp.sgd_momentum)
    except ValueError:
        return failure_result()
    weight_seed, shuffle_seed = child_seed(seed, 1), child_seed(seed, 2)
    net = ToyNet(input_dim, hp.l1, hp.l2, seed=weight_seed)
    rng = np.random.default_rng(np.random.SeedSequence(shuffle_seed)) if shuffle else None
    best = None

    def keep_best():
        nonlocal best
        best = net.get_params()

    results = []
    try:
        for tr, val in splits:
            net.reset_weights(weight_seed)
            opt_state = init_state(opt_config, net.n_params)
            val_batches = make_batches(val, hp.batch_size)
            res = run_training_loop(
                hp.epochs, hp.patience,
                lambda _: train_one_epoch(net, make_batches(tr, hp.batch_size, rng),
                                          opt_config, opt_state),
                lambda _: validate_one_epoch(net, val_batches),
                keep_best if save_path else None)
            if res.failed:
                return failure_result()
            results.append(res)
    finally:
        if best is not None:
            net.set_params(best)
            save_weights(net, save_path)
    return EvalResult(
        loss=float(np.mean([r.loss for r in results])),
        metric=float(np.mean([r.metric for r in results])),
        epochs_run=sum(r.epochs_run for r in results),
        stopped_early=any(r.stopped_early for r in results),
    )


# -- evaluation settings --------------------------------------------------------

def evaluate_hold_out(hp: HyperConfig, train_dataset: SyntheticDataset,
                      setting: str = "train_hold_out", shuffle: bool = True,
                      seed: int = 0, test_dataset: SyntheticDataset | None = None,
                      save_path: str | None = None) -> EvalResult:
    """Train with epoch-level early stopping; report the last epoch's loss.

    ``train_hold_out`` splits the training data 60/40 internally;
    ``test_hold_out`` trains on all of it and validates on the explicit
    test set.
    """
    if setting not in ("train_hold_out", "test_hold_out"):
        raise ValueError(f"unsupported hold-out setting {setting!r}")
    if setting == "test_hold_out" and test_dataset is None:
        raise ValueError("test_hold_out needs an explicit test dataset")
    split = (create_train_val_split(train_dataset, child_seed(seed, 0))
             if setting == "train_hold_out" else (train_dataset, test_dataset))
    return _train_on_splits(hp, train_dataset.input_dim, [split], shuffle, seed, save_path)


def evaluate_cv(hp: HyperConfig, dataset: SyntheticDataset,
                k_folds: int | None = None, shuffle: bool = True,
                seed: int = 0) -> EvalResult:
    """k-fold cross validation; per-fold last-epoch losses averaged.

    Every fold restarts from the same seeded weight initialization and a
    fresh optimizer state. A failing fold fails the whole evaluation.
    """
    k = hp.k_folds if k_folds is None else k_folds
    if k < 2:
        raise ValueError("cross validation needs k_folds >= 2")
    folds = ((dataset.subset(train_idx), dataset.subset(val_idx)) for train_idx, val_idx
             in kfold_indices(len(dataset), k, child_seed(seed, 0), shuffle))
    return _train_on_splits(hp, dataset.input_dim, folds, shuffle, seed)


# -- final train/test of a tuned configuration ---------------------------------

def train_tuned(hp: HyperConfig, train_dataset: SyntheticDataset, seed: int = 0,
                save_path: str | None = None) -> EvalResult:
    """Hold-out training of the tuned architecture; ``save_path`` receives
    the weights of its last new best."""
    return evaluate_hold_out(hp, train_dataset, "train_hold_out", shuffle=True,
                             seed=seed, save_path=save_path)


def test_tuned(hp: HyperConfig, test_dataset: SyntheticDataset,
               weights_path: str) -> EvalResult:
    """Single unshuffled validation pass of the saved weights over the full
    test set."""
    net = load_weights(weights_path)
    metric, loss = validate_one_epoch(net, make_batches(test_dataset, hp.batch_size))
    return EvalResult(loss=loss, metric=metric, epochs_run=0, stopped_early=False)


# -- weight checkpoints ----------------------------------------------------------

def save_weights(net: ToyNet, path: str) -> None:
    doc = {
        "input_dim": net.input_dim,
        "l1": net.l1,
        "l2": net.l2,
        "weights": net.get_params().tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_weights(path: str) -> ToyNet:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        net = ToyNet(doc["input_dim"], doc["l1"], doc["l2"])
        net.set_params(np.asarray(doc["weights"], dtype=float))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as err:
        raise ValueError(f"unreadable weights file {path!r}: {err}") from err
    return net


# -- out-of-process evaluators -----------------------------------------------------

def external_evaluate(command: str, config: dict, timeout: float = 60.0) -> EvalResult:
    """Run ``command`` as an evaluator child process.

    Wire protocol: one JSON request line ``{"config": {...}}`` on stdin,
    one JSON reply line ``{"loss": r, "metric": r}`` on stdout. Timeouts,
    malformed replies and nonzero exits all map to a failure result.
    """
    request = json.dumps({"config": config}) + "\n"
    try:
        proc = subprocess.run(
            shlex.split(command), input=request, capture_output=True,
            text=True, timeout=timeout,
        )
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return failure_result()
    if proc.returncode != 0:
        return failure_result()
    line = proc.stdout.strip().splitlines()
    if not line:
        return failure_result()
    try:
        reply = json.loads(line[0])
        loss = float(reply["loss"])
        metric = float(reply.get("metric", math.nan))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return failure_result()
    return EvalResult(loss=loss, metric=metric)


# -- built-in objective over the toy classifier -------------------------------------

def make_toy_objective(eval_setting: str = "train_hold_out", data_seed: int = 7,
                       eval_seed: int = 0, n: int = 1000, input_dim: int = 20,
                       shuffle: bool = True, k_folds: tuple[int, int] = (2, 2)):
    """Objective closure mapping a configuration dict to an EvalResult.

    ``k_folds`` is the lowest and highest fold count the configurations
    take; under cross validation both must lie between 2 and the row count
    of the cross-validated split. A bad argument raises ``ValueError`` here
    rather than failing every evaluation.
    """
    if eval_setting not in EVAL_SETTINGS:
        raise ValueError(f"unknown evaluation setting {eval_setting!r}")
    if type(eval_seed) is not int or eval_seed < 0:
        raise ValueError(f"eval_seed must be a non-negative integer, got {eval_seed!r}")
    if type(shuffle) is not bool:
        raise ValueError(f"shuffle must be true or false, got {shuffle!r}")
    train, test = generate_dataset(n, input_dim, data_seed)
    cv_data = {"train_cv": train, "test_cv": test}.get(eval_setting)
    if cv_data is not None and not 2 <= k_folds[0] <= k_folds[1] <= len(cv_data):
        raise ValueError(f"k_folds bounds {list(k_folds)} must lie in [2, {len(cv_data)}], "
                         f"the rows that {eval_setting} splits")

    def objective(config: dict) -> EvalResult:
        hp = HyperConfig.from_config(config)
        if cv_data is not None:
            return evaluate_cv(hp, cv_data, shuffle=shuffle, seed=eval_seed)
        return evaluate_hold_out(hp, train, eval_setting, shuffle, eval_seed, test)

    return objective

import dataclasses
import itertools
import json
import math
import sys

import numpy as np
import pytest

from spotkit.evalharness import (
    EvalResult, clip_gradient, create_train_val_split, evaluate_cv,
    evaluate_hold_out, external_evaluate, failure_result, kfold_indices,
    load_weights, make_batches, make_toy_objective, run_training_loop,
    save_weights, train_one_epoch, train_tuned, validate_one_epoch,
)
from spotkit.evalharness import test_tuned as run_test_tuned
from spotkit.optim import init_state, optimizer_handler
from spotkit.toynet import HyperConfig, ToyNet, generate_dataset

HP = HyperConfig(l1=16, l2=8, lr_mult=1.0, batch_size=16, epochs=4, k_folds=2,
                 patience=3, optimizer="Adam", sgd_momentum=0.9)


@pytest.fixture(scope="module")
def toy_data():
    return generate_dataset(300, 6, seed=4)


class TestSplit:
    def test_sizes_10(self, toy_data):
        train, _ = toy_data
        small = train.subset(np.arange(10))
        a, b = create_train_val_split(small, seed=0)
        assert (len(a), len(b)) == (6, 4)

    def test_sizes_50000(self):
        # index arithmetic only; no payload needed beyond a cheap array
        from spotkit.toynet import SyntheticDataset

        ds = SyntheticDataset(np.zeros((50000, 1)), np.zeros(50000, dtype=int))
        a, b = create_train_val_split(ds, seed=1)
        assert (len(a), len(b)) == (30000, 20000)

    def test_disjoint_covering(self):
        from spotkit.toynet import SyntheticDataset

        n = 97
        ds = SyntheticDataset(np.arange(n, dtype=float)[:, None], np.zeros(n, dtype=int))
        a, b = create_train_val_split(ds, seed=2)
        seen = np.sort(np.concatenate([a.features[:, 0], b.features[:, 0]]))
        assert np.array_equal(seen, np.arange(n, dtype=float))

    def test_too_small(self):
        from spotkit.toynet import SyntheticDataset

        ds = SyntheticDataset(np.zeros((3, 1)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            create_train_val_split(ds, seed=0)


class TestKFold:
    @pytest.mark.parametrize("n,k", [(10, 2), (10, 3), (97, 5), (7, 7)])
    def test_partition_property(self, n, k):
        folds = list(kfold_indices(n, k, seed=1))
        assert len(folds) == k
        all_val = np.concatenate([v for _, v in folds])
        assert np.array_equal(np.sort(all_val), np.arange(n))
        sizes = [len(v) for _, v in folds]
        assert max(sizes) - min(sizes) <= 1
        for tr, v in folds:
            assert set(tr) | set(v) == set(range(n))
            assert not set(tr) & set(v)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            list(kfold_indices(10, 1))
        with pytest.raises(ValueError):
            list(kfold_indices(3, 5))


class TestClip:
    def test_over_norm_clipped_to_exactly_one(self):
        g = np.array([3.0, 4.0])   # norm 5
        clipped = clip_gradient(g, 1.0)
        assert float(np.linalg.norm(clipped)) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(clipped, g / 5.0)

    def test_under_norm_untouched(self):
        g = np.array([0.3, 0.4])   # norm 0.5
        np.testing.assert_array_equal(clip_gradient(g, 1.0), g)


class TestEpochPasses:
    def test_validate_means_batch_losses(self):
        # bit for bit, also for batch sizes that are no multiple of 4 and for
        # one-row batches, where a BLAS result for a row depends on how many
        # rows share the matrix product; 20 features as in the toy objective
        train, _ = generate_dataset(300, 20, seed=4)
        for (l1, l2), (rows, batch_size) in itertools.product(
                [(4, 8), (32, 16), (16, 128), (128, 64)],
                [(30, 10), (70, 16), (9, 4), (41, 5), (37, 3), (100, 1)]):
            net = ToyNet(train.input_dim, l1, l2, seed=0)
            batches = make_batches(train.subset(np.arange(rows)), batch_size)
            metric, loss = validate_one_epoch(net, batches)
            # manual per-batch accumulation oracle
            total_loss = 0.0
            correct = total = 0
            for Xb, yb in batches:
                logits = net.forward(Xb)
                shifted = logits - logits.max(axis=1, keepdims=True)
                lp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
                total_loss += -float(lp[np.arange(yb.size), yb].mean())
                correct += int((np.argmax(logits, axis=1) == yb).sum())
                total += yb.size
            case = (l1, l2, rows, batch_size)
            assert loss == total_loss / len(batches), case
            assert metric == correct / total, case

    def test_one_forward_per_run_of_equal_batches(self, toy_data):
        train, _ = toy_data
        shapes = []

        class Counting(ToyNet):
            def forward(self, X):
                shapes.append(X.shape)
                return super().forward(X)

        net = Counting(train.input_dim, 8, 8, seed=0)
        validate_one_epoch(net, make_batches(train.subset(np.arange(70)), 16))
        assert shapes == [(4, 16, train.input_dim), (6, train.input_dim)]

    def test_two_batch_mean(self):
        # scripted: batch losses 1.0 and 3.0 -> mean 2.0
        class FakeNet:
            def __init__(self):
                self.calls = 0

            def forward(self, X):
                self.calls += 1
                out = np.full((X.shape[0], 10), -100.0)
                if self.calls == 1:
                    out[:, 0] = -100.0 + 1.0 * 0   # uniform -> handled below
                return out

        # direct arithmetic instead: rely on validate averaging by batch count
        from spotkit.toynet import SyntheticDataset

        net = ToyNet(2, 4, 4, seed=0)
        ds = SyntheticDataset(np.zeros((4, 2)), np.array([0, 0, 1, 1]))
        batches = make_batches(ds, 2)
        _, loss = validate_one_epoch(net, batches)
        per_batch = []
        for Xb, yb in batches:
            logits = net.forward(Xb)
            shifted = logits - logits.max(axis=1, keepdims=True)
            lp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            per_batch.append(-float(lp[np.arange(yb.size), yb].mean()))
        assert loss == pytest.approx(sum(per_batch) / len(per_batch), abs=1e-12)

    def test_perfect_classifier_metric_one(self, toy_data):
        train, _ = toy_data

        class Oracle(ToyNet):
            def forward(self, X):
                out = np.zeros((X.shape[0], 10))
                out[np.arange(X.shape[0]), self.answers] = 1.0
                return out

        net = Oracle(train.input_dim, 4, 4, seed=0)
        small = train.subset(np.arange(20))
        net.answers = small.labels
        metric, _ = validate_one_epoch(net, [(small.features, small.labels)])
        assert metric == 1.0

    def test_empty_loader_rejected(self, toy_data):
        train, _ = toy_data
        net = ToyNet(train.input_dim, 4, 4, seed=0)
        with pytest.raises(ValueError, match="empty"):
            validate_one_epoch(net, [])

    def test_one_epoch_reduces_full_loss(self, toy_data):
        train, _ = toy_data
        net = ToyNet(train.input_dim, 16, 8, seed=1)
        cfg = optimizer_handler("SGD", 1.0, 0.9)
        state = init_state(cfg, net.n_params)
        before = net.loss_and_grad(train.features, train.labels)[0]
        rng = np.random.default_rng(0)
        last = train_one_epoch(net, make_batches(train, 16, rng), cfg, state)
        after = net.loss_and_grad(train.features, train.labels)[0]
        assert math.isfinite(last)
        assert after < before


class TestEarlyStoppingLoop:
    def run_scripted(self, losses, patience, epochs=None):
        it = iter(losses)
        return run_training_loop(
            epochs if epochs is not None else len(losses), patience,
            train_epoch=lambda e: 0.0,
            validate_epoch=lambda e: (0.5, next(it)),
        )

    def test_hand_traced_stop(self):
        # best at epoch 2; counter reaches 3 at epoch 5; LAST loss returned
        res = self.run_scripted([3.0, 2.0, 2.5, 2.6, 2.7, 99.0], patience=3)
        assert res.epochs_run == 5
        assert res.stopped_early
        assert res.loss == 2.7

    def test_returns_last_not_best(self):
        res = self.run_scripted([3.0, 1.0, 2.0, 2.0, 2.0], patience=3)
        assert res.loss == 2.0
        assert res.loss != 1.0

    def test_no_trigger_when_improving(self):
        res = self.run_scripted([5.0, 4.0, 3.0, 2.0], patience=4)
        assert not res.stopped_early
        assert res.epochs_run == 4
        assert res.loss == 2.0

    def test_counter_resets_on_improvement(self):
        res = self.run_scripted([3.0, 3.1, 2.0, 2.1, 2.2, 2.3], patience=3)
        assert res.epochs_run == 6
        assert res.stopped_early

    def test_on_best_called_per_improvement(self):
        calls = []
        it = iter([3.0, 2.0, 2.5, 1.0])
        run_training_loop(4, 10, lambda e: 0.0, lambda e: (0.0, next(it)),
                          on_best=lambda: calls.append(1))
        assert len(calls) == 3

    def test_non_finite_loss_fails(self):
        res = self.run_scripted([3.0, math.nan], patience=3)
        assert res.failed


class TestEvaluateHoldOut:
    def test_train_hold_out_runs(self, toy_data):
        train, _ = toy_data
        res = evaluate_hold_out(HP, train, "train_hold_out", True, seed=3)
        assert math.isfinite(res.loss)
        assert 0.0 <= res.metric <= 1.0
        assert 1 <= res.epochs_run <= HP.epochs

    def test_test_hold_out_requires_test_set(self, toy_data):
        train, test = toy_data
        with pytest.raises(ValueError):
            evaluate_hold_out(HP, train, "test_hold_out", True, seed=3)
        res = evaluate_hold_out(HP, train, "test_hold_out", True, seed=3,
                                test_dataset=test)
        assert math.isfinite(res.loss)

    def test_unknown_optimizer_fails_softly(self, toy_data):
        train, _ = toy_data
        from dataclasses import replace

        res = evaluate_hold_out(replace(HP, optimizer="LBFGS"), train, seed=3)
        assert res.failed

    def test_deterministic_per_seed(self, toy_data):
        train, _ = toy_data
        a = evaluate_hold_out(HP, train, "train_hold_out", True, seed=5)
        b = evaluate_hold_out(HP, train, "train_hold_out", True, seed=5)
        assert a == b

    def test_matches_manual_loop(self, toy_data):
        train, _ = toy_data
        res = evaluate_hold_out(HP, train, "train_hold_out", True, seed=8)

        # hand-rolled oracle: child seeds 0/1/2 split, seed the weights and
        # shuffle; one early-stopped run on the 60/40 split
        root = np.random.SeedSequence(8)
        split_seed, weight_seed, shuffle_seed = (int(s.generate_state(1)[0])
                                                 for s in root.spawn(3))
        tr, val = create_train_val_split(train, split_seed)
        rng = np.random.default_rng(np.random.SeedSequence(shuffle_seed))
        cfg = optimizer_handler(HP.optimizer, HP.lr_mult, HP.sgd_momentum)
        net = ToyNet(train.input_dim, HP.l1, HP.l2, seed=weight_seed)
        state = init_state(cfg, net.n_params)
        ref = run_training_loop(
            HP.epochs, HP.patience,
            lambda e: train_one_epoch(net, make_batches(tr, HP.batch_size, rng), cfg, state),
            lambda e: validate_one_epoch(net, make_batches(val, HP.batch_size)),
        )
        assert res.loss == ref.loss
        assert res.metric == ref.metric
        assert res.epochs_run == ref.epochs_run
        assert res.stopped_early == ref.stopped_early


class TestEvaluateCV:
    def test_needs_two_folds(self, toy_data):
        train, _ = toy_data
        from dataclasses import replace

        with pytest.raises(ValueError):
            evaluate_cv(replace(HP, k_folds=1), train, seed=0)

    def test_mean_of_folds_matches_manual_loop(self, toy_data):
        train, _ = toy_data
        small = train.subset(np.arange(60))
        res = evaluate_cv(HP, small, k_folds=2, shuffle=True, seed=8)

        # hand-rolled fold oracle: same seeds, same weight reset, same loop
        root = np.random.SeedSequence(8)
        fold_seed, weight_seed, shuffle_seed = (int(s.generate_state(1)[0])
                                                for s in root.spawn(3))
        rng = np.random.default_rng(np.random.SeedSequence(shuffle_seed))
        cfg = optimizer_handler(HP.optimizer, HP.lr_mult, HP.sgd_momentum)
        losses, metrics = [], []
        net = ToyNet(small.input_dim, HP.l1, HP.l2, seed=weight_seed)
        for tr_idx, val_idx in kfold_indices(60, 2, fold_seed, True):
            net.reset_weights(weight_seed)
            state = init_state(cfg, net.n_params)
            tr, val = small.subset(tr_idx), small.subset(val_idx)
            result = run_training_loop(
                HP.epochs, HP.patience,
                lambda e: train_one_epoch(net, make_batches(tr, HP.batch_size, rng),
                                          cfg, state),
                lambda e: validate_one_epoch(net, make_batches(val, HP.batch_size)),
            )
            losses.append(result.loss)
            metrics.append(result.metric)
        assert res.loss == float(np.mean(losses))
        assert res.metric == float(np.mean(metrics))

    def test_two_fold_mean_arithmetic(self):
        assert (0.4 + 0.6) / 2 == 0.5   # the averaging contract, kept explicit

    def test_fold_reset_bitwise(self, toy_data):
        # every fold must start from the identical weight vector
        train, _ = toy_data
        small = train.subset(np.arange(40))
        seen = []

        class SpyNet(ToyNet):
            def reset_weights(self, seed):
                super().reset_weights(seed)
                seen.append(self.get_params().tobytes())

        import spotkit.evalharness as eh

        orig = eh.ToyNet
        eh.ToyNet = SpyNet
        try:
            evaluate_cv(HP, small, k_folds=3, seed=1)
        finally:
            eh.ToyNet = orig
        resets = seen[1:]   # first record is construction itself
        assert len(resets) == 3
        assert len(set(resets)) == 1


class TestTunedTrainTest:
    def test_train_then_test_round_trip(self, toy_data, tmp_path):
        train, test = toy_data
        path = str(tmp_path / "weights.json")
        res = train_tuned(HP, train, seed=2, save_path=path)
        assert not res.failed
        t1 = run_test_tuned(HP, test, weights_path=path)
        t2 = run_test_tuned(HP, test, weights_path=path)
        assert t1 == t2            # shuffle off: bit-deterministic
        assert 0.0 <= t1.metric <= 1.0

    @pytest.mark.parametrize("fail_at", [None, 3, 1])
    def test_checkpoint_written_once_as_the_last_best(self, toy_data, tmp_path,
                                                      monkeypatch, fail_at):
        # the reference file is rewritten at each new best, as a checkpoint per
        # best would be; a non-finite validation loss at epoch ``fail_at``
        # fails the training, at epoch 1 before any best
        from spotkit import evalharness

        train, _ = toy_data
        ref, path = str(tmp_path / "ref.json"), str(tmp_path / "w.json")
        nets, writes, bests = [], [], []

        class Recorded(ToyNet):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                nets.append(self)

        real_loop, real_save = evalharness.run_training_loop, evalharness.save_weights

        def loop(epochs, patience, train_epoch, validate_epoch, on_best):
            epoch_of = [0]

            def validate(epoch):
                epoch_of[0] = epoch
                return (0.5, math.nan) if epoch == fail_at else validate_epoch(epoch)

            def each_best():
                bests.append(epoch_of[0])
                save_weights(nets[-1], ref)
                on_best()

            return real_loop(epochs, patience, train_epoch, validate, each_best)

        def save(net, where):
            writes.append(where)
            real_save(net, where)

        monkeypatch.setattr(evalharness, "ToyNet", Recorded)
        monkeypatch.setattr(evalharness, "run_training_loop", loop)
        monkeypatch.setattr(evalharness, "save_weights", save)
        hp = dataclasses.replace(HP, epochs=6, patience=6)
        res = train_tuned(hp, train, seed=2, save_path=path)
        assert res.failed == (fail_at is not None)
        assert bests == {None: [1, 2, 3, 4, 5, 6], 3: [1, 2], 1: []}[fail_at]
        if fail_at == 1:
            assert writes == [] and not (tmp_path / "w.json").exists()
        else:
            assert writes == [path]
            assert (tmp_path / "w.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_checkpoint_round_trip_bit_exact(self, toy_data, tmp_path):
        train, _ = toy_data
        net = ToyNet(train.input_dim, 8, 8, seed=7)
        net.set_params(np.random.default_rng(1).normal(size=net.n_params))
        path = str(tmp_path / "w.json")
        save_weights(net, path)
        clone = load_weights(path)
        assert clone.get_params().tobytes() == net.get_params().tobytes()

    def test_missing_weights_file(self, tmp_path):
        with pytest.raises(ValueError, match="unreadable"):
            load_weights(str(tmp_path / "absent.json"))
        from spotkit.toynet import SyntheticDataset

        ds = SyntheticDataset(np.zeros((4, 2)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            run_test_tuned(HP, ds, weights_path=str(tmp_path / "absent.json"))


PY = sys.executable


class TestExternalEvaluate:
    def test_protocol_round_trip(self):
        code = ("import json,sys; req=json.loads(sys.stdin.readline()); "
                "print(json.dumps({'loss': 1.5, 'metric': 0.5}))")
        res = external_evaluate(f'{PY} -c "{code}"', {"x": 1.0}, timeout=30)
        assert res == EvalResult(loss=1.5, metric=0.5)

    def test_loss_computed_from_config(self):
        code = ("import json,sys; req=json.loads(sys.stdin.readline()); "
                "cfg=req['config']; "
                "loss=sum(v for v in cfg.values() if isinstance(v,(int,float))); "
                "print(json.dumps({'loss': loss, 'metric': 0.0}))")
        config = {"a": 1.5, "b": 2.0, "name": "x"}
        res = external_evaluate(f'{PY} -c "{code}"', config, timeout=30)
        assert res.loss == pytest.approx(3.5)

    def test_garbage_reply_fails(self):
        res = external_evaluate(f"{PY} -c \"print('not json')\"", {}, timeout=30)
        assert res.failed

    def test_nonzero_exit_fails(self):
        res = external_evaluate(f"{PY} -c \"raise SystemExit(3)\"", {}, timeout=30)
        assert res.failed

    def test_missing_command_fails(self):
        assert external_evaluate("/no/such/binary", {}, timeout=5).failed

    def test_timeout_fails(self):
        res = external_evaluate(f"{PY} -c \"import time; time.sleep(30)\"", {},
                                timeout=0.5)
        assert res.failed


def test_make_toy_objective_deterministic():
    objective = make_toy_objective("train_hold_out", data_seed=1, eval_seed=2,
                                   n=200, input_dim=5)
    config = {"l1": 8, "l2": 8, "lr_mult": 1.0, "batch_size": 16, "epochs": 2,
              "k_folds": 0, "patience": 2, "optimizer": "SGD", "sgd_momentum": 0.9}
    assert objective(config) == objective(config)


def test_failure_result_flag():
    assert failure_result().failed
    assert not EvalResult(loss=1.0, metric=0.0).failed

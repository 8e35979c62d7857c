"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import spotkit.surrogate as sg
from spotkit import optim
from spotkit.cli import _mixed4_objective, _mixed4_space, main
from spotkit.design import DesignControl
from spotkit.evalharness import (
    clip_gradient, create_train_val_split, kfold_indices, run_training_loop,
    test_tuned as final_test, train_tuned as final_train,
)
from spotkit.analysis import importance, star_code
from spotkit.searchspace import gen_design_table
from spotkit.toynet import HyperConfig, SyntheticDataset, ToyNet, generate_dataset
from spotkit.tuner import RunState, TunerConfig, best, random_search, run

from tests.conftest import TEN_OPTIMIZERS


def check(cid: str, ok: bool, detail: str = "", budget_s: float | None = None,
          elapsed: float | None = None) -> None:
    timing = f" [{elapsed:.2f}s/{budget_s:.0f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}{timing} {detail}")
    assert ok, f"{cid} failed: {detail}"


def test_c01_surrogate_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    X = rng.random((12, 3))
    y = np.sin(4.0 * X[:, 0]) + (2.0 * X[:, 1] - 1.0) ** 2 + 0.5 * X[:, 2]
    model = sg.fit(X, y, sg.SurrogateControl(noise=False, model_fun_evals=2000),
                   seed=11)
    pred = model.predict_batch(X)
    rel = float(np.max(np.abs(pred - y) / (1.0 + np.abs(y))))
    elapsed = time.monotonic() - t0
    check("C01 surrogate exactness", rel <= 1e-6 and elapsed < 1.0,
          f"max rel err {rel:.2e}", 1.0, elapsed)


def test_c02_likelihood_optimality():
    t0 = time.monotonic()
    losing = []
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        X = rng.random((14, 3))
        y = np.cos(5 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.2 * rng.standard_normal(14)
        control = sg.SurrogateControl(model_fun_evals=1500)
        model = sg.fit(X, y, control, seed=seed)
        fitted = sg.neg_log_likelihood(model.Z, y, model.theta_log10, sg.JITTER_FLOOR)
        thetas = rng.uniform(control.min_theta, control.max_theta, size=(64, 3))
        best_random = min(sg.neg_log_likelihood(model.Z, y, t, sg.JITTER_FLOOR)
                          for t in thetas)
        if fitted > best_random + 1e-9:
            losing.append(seed)
    elapsed = time.monotonic() - t0
    check("C02 likelihood optimality", not losing and elapsed < 10.0,
          f"losing seeds {losing}", 10.0, elapsed)


def test_c03_tuner_beats_random_on_mixed_benchmark():
    t0 = time.monotonic()
    space = _mixed4_space()
    objective = _mixed4_objective
    surr = sg.SurrogateControl(model_fun_evals=300)
    spot_best, rand_best = [], []
    for seed in range(20):
        state = run(objective, space,
                    TunerConfig(fun_evals=40, seed=3000 + seed),
                    DesignControl(init_size=10, seed=500 + seed), surr)
        assert len(state) == 40
        spot_best.append(state.best_y)
        rand_best.append(random_search(objective, space, 40, seed=900 + seed).best_y)
    wins = sum(1 for s, r in zip(spot_best, rand_best) if s < r)
    med_s = float(np.median(spot_best))
    med_r = float(np.median(rand_best))
    elapsed = time.monotonic() - t0
    check("C03 tuner beats random",
          med_s <= med_r and wins >= 13 and elapsed < 120.0,
          f"median {med_s:.4g} vs {med_r:.4g}, wins {wins}/20", 120.0, elapsed)


def test_c04_progress_monotone_and_reproducible(tmp_path):
    t0 = time.monotonic()
    config = {
        "objective": "builtin:sphere2", "model": "sphere2", "seed": 77,
        "x_start": None,
        "tuner": {"fun_evals": 16}, "design": {"init_size": 8},
        "surrogate": {"model_fun_evals": 250},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config))
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        assert main(["tune", "--config", str(cfg_path), "--out", out]) == 0
    events = [open(os.path.join(o, "events.csv"), "rb").read() for o in outs]
    monotone = True
    for out in outs:
        doc = json.load(open(os.path.join(out, "run_state.json")))
        bests = np.minimum.accumulate(doc["y"])
        monotone = monotone and bool(np.all(np.diff(bests) <= 0))
    elapsed = time.monotonic() - t0
    check("C04 monotone + reproducible",
          monotone and events[0] == events[1] and elapsed < 30.0,
          "bit-identical events.csv" if events[0] == events[1] else "events differ",
          30.0, elapsed)


def test_c05_deactivated_parameters_stay_fixed(screening_space):
    t0 = time.monotonic()
    space = screening_space    # k_folds=[0,0], lr_mult=[1,1], sgd_momentum=[0.9,0.9]
    recorded = []

    def objective(config):
        recorded.append(dict(config))
        from spotkit.evalharness import EvalResult

        return EvalResult(loss=(config["l1"] - 64) ** 2 / 1e4 + config["epochs"] / 16.0,
                          metric=math.nan)

    state = run(objective, space, TunerConfig(fun_evals=14, seed=5),
                DesignControl(init_size=8, seed=6),
                sg.SurrogateControl(model_fun_evals=250))
    ok = len(recorded) == 14 and all(
        c["k_folds"] == 0 and c["lr_mult"] == 1.0 and c["sgd_momentum"] == 0.9
        and c["patience"] == 3
        for c in recorded
    )
    elapsed = time.monotonic() - t0
    check("C05 de-activation", ok and elapsed < 30.0,
          f"{len(recorded)} configs all carry fixed values", 30.0, elapsed)


def test_c06_design_table_and_default_decode(reference_space, screening_space):
    t0 = time.monotonic()
    rows = gen_design_table(screening_space)
    got = [(r["name"], r["type"], r["default"], r["lower"], r["upper"], r["transform"])
           for r in rows]
    # defaults are the declared ones: narrowing bounds never rewrites them
    expected = [
        ("l1", "int", 5, 2, 9, "transform_power_2_int"),
        ("l2", "int", 5, 2, 9, "transform_power_2_int"),
        ("lr_mult", "float", 1.0, 1.0, 1.0, "None"),
        ("batch_size", "int", 4, 1, 5, "transform_power_2_int"),
        ("epochs", "int", 3, 3, 4, "transform_power_2_int"),
        ("k_folds", "int", 2, 0, 0, "None"),
        ("patience", "int", 5, 3, 3, "None"),
        ("optimizer", "factor", "SGD", 0, 9, "None"),
        ("sgd_momentum", "float", 0.0, 0.9, 0.9, "None"),
    ]
    decoded = reference_space.default_config()
    decode_ok = decoded["l1"] == 32 and decoded["batch_size"] == 16
    elapsed = time.monotonic() - t0
    check("C06 transform table", got == expected and decode_ok and elapsed < 1.0,
          f"rows match; defaults decode l1={decoded['l1']} batch={decoded['batch_size']}",
          1.0, elapsed)


def test_c07a_optimizer_single_step_oracles():
    t0 = time.monotonic()
    failures = []
    denom = 1.0 + 1e-8
    expected = {
        "SGD": 1.0 - 1e-3,                                     # momentum buffer = g
        "Adam": 1.0 - 1e-3 / denom,
        "AdamW": (1.0 - 1e-5) - 1e-3 / denom,
        "Adadelta": 1.0 - math.sqrt(1e-6) / math.sqrt(0.1 + 1e-6),
        "Adagrad": 1.0 - 1e-2 / (1.0 + 1e-10),
        "Adamax": 1.0 - (2e-3 / 0.1) * 0.1 / denom,
        "ASGD": (1.0 - 1e-4 * 1e-2) - 1e-2,
        "NAdam": 1.0 - 2e-3 / denom - 2e-3 * (0.45 / (1.0 - 0.2025)) * 0.1 / denom,
        "RAdam": 1.0 - 1e-3,
        "RMSprop": 1.0 - 1e-2 / (0.1 + 1e-8),
    }
    for kind in TEN_OPTIMIZERS:
        cfg = optim.optimizer_handler(kind, 1.0, 0.9)
        state = optim.init_state(cfg, 1)
        w1 = optim.step(cfg, state, np.array([1.0]), np.array([1.0]))[0]
        if abs(w1 - expected[kind]) > 1e-10:
            failures.append(f"{kind}: {w1!r} != {expected[kind]!r}")
    elapsed = time.monotonic() - t0
    check("C07a optimizer single-step oracles", not failures and elapsed < 10.0,
          "; ".join(failures) or "all ten match to 1e-10", 10.0, elapsed)


def test_c07b_optimizer_zero_grad_noop():
    t0 = time.monotonic()
    moved = []
    for kind in TEN_OPTIMIZERS:
        cfg = replace(optim.optimizer_handler(kind, 1.0, 0.9),
                      weight_decay=0.0, lambd=0.0)
        state = optim.init_state(cfg, 2)
        w0 = np.array([1.0, -2.0])
        w1 = optim.step(cfg, state, w0, np.zeros(2))
        if not np.array_equal(w0, w1):
            moved.append(kind)
    elapsed = time.monotonic() - t0
    check("C07b optimizer zero-grad no-op", not moved and elapsed < 10.0,
          f"moved: {moved}" if moved else "all ten hold", 10.0, elapsed)


def test_c07c_optimizer_convergence_smoke():
    # target: every kind cuts ||w||^2 by >= 90% within 200 steps at stock
    # defaults (lr_mult=1). Step-size-bounded kinds (the Adam family at
    # lr ~1e-3, Adagrad at 1e-2/sqrt(t)) cannot move the required 0.68 per
    # coordinate in 200 steps, so they fail this bar by construction; the
    # per-kind reductions print with the result
    t0 = time.monotonic()
    reductions = {}
    for kind in TEN_OPTIMIZERS:
        cfg = optim.optimizer_handler(kind, 1.0, 0.9)
        state = optim.init_state(cfg, 2)
        w = np.array([1.0, 1.0])
        for _ in range(200):
            w = optim.step(cfg, state, w, 2.0 * w)
        reductions[kind] = 1.0 - float(w @ w) / 2.0
    short = {k: round(v, 4) for k, v in reductions.items() if v < 0.9}
    elapsed = time.monotonic() - t0
    check("C07c optimizer convergence smoke",
          not short and elapsed < 10.0,
          f"below 90%: {short}" if short else "all ten reduce >= 90%",
          10.0, elapsed)


def test_c08_harness_logic():
    t0 = time.monotonic()
    problems = []

    # scripted early stopping: best at epoch 2, counter hits 3 at epoch 5
    it = iter([3.0, 2.0, 2.5, 2.6, 2.7, 9.9])
    res = run_training_loop(6, 3, lambda e: 0.0, lambda e: (0.0, next(it)))
    if not (res.epochs_run == 5 and res.stopped_early and res.loss == 2.7):
        problems.append(f"early stop trace: {res}")

    ds = SyntheticDataset(np.zeros((10, 2)), np.zeros(10, dtype=int))
    a, b = create_train_val_split(ds, seed=0)
    if (len(a), len(b)) != (6, 4):
        problems.append(f"split sizes {len(a)}/{len(b)}")
    big = SyntheticDataset(np.zeros((50000, 1)), np.zeros(50000, dtype=int))
    a, b = create_train_val_split(big, seed=0)
    if (len(a), len(b)) != (30000, 20000):
        problems.append(f"large split {len(a)}/{len(b)}")

    for n, k in ((10, 2), (23, 5)):
        folds = list(kfold_indices(n, k, seed=3))
        seen = np.sort(np.concatenate([v for _, v in folds]))
        if not np.array_equal(seen, np.arange(n)):
            problems.append(f"kfold cover n={n} k={k}")

    g = np.array([3.0, 4.0])
    norm = float(np.linalg.norm(clip_gradient(g, 1.0)))
    if abs(norm - 1.0) > 1e-9:
        problems.append(f"clip norm {norm}")

    elapsed = time.monotonic() - t0
    check("C08 harness logic", not problems and elapsed < 5.0,
          "; ".join(problems) or "all four checks hold", 5.0, elapsed)


def test_c09_toy_gradient_check():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        net = ToyNet(5, 7, 6, seed=seed)
        X = rng.normal(size=(6, 5))
        labels = rng.integers(0, 10, size=6)
        _, grad = net.loss_and_grad(X, labels)
        w0 = net.get_params()
        h = 1e-5
        for i in rng.choice(w0.size, size=40, replace=False):
            w = w0.copy()
            w[i] += h
            net.set_params(w)
            hi = net.loss_and_grad(X, labels)[0]
            w[i] -= 2 * h
            net.set_params(w)
            lo = net.loss_and_grad(X, labels)[0]
            net.set_params(w0)
            fd = (hi - lo) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / max(1e-8, abs(fd) + abs(grad[i])))
    elapsed = time.monotonic() - t0
    check("C09 toy gradient check", worst < 1e-4 and elapsed < 10.0,
          f"max rel err {worst:.2e}", 10.0, elapsed)


def test_c10_star_coding_and_importance_invariance():
    t0 = time.monotonic()
    coding_ok = (star_code(96.29), star_code(4.18), star_code(0.16),
                 star_code(0.0)) == ("***", "*", ".", "")

    rng = np.random.default_rng(12)
    X = rng.random((30, 2))
    y = 8.0 * (X[:, 0] - 0.4) ** 2 + 0.1 * X[:, 1]
    control = sg.SurrogateControl(model_fun_evals=600)
    from spotkit.searchspace import ParamSpec, SearchSpace

    space = SearchSpace((
        ParamSpec(name="a", kind="float", default=0.0, lower=0.0, upper=1.0),
        ParamSpec(name="b", kind="float", default=0.0, lower=0.0, upper=1.0),
    ))
    r1 = importance(sg.fit(X, y, control, seed=2), space)
    r2 = importance(sg.fit(X, 3.0 * y + 7.0, control, seed=2), space)
    inv_ok = (max(r1, key=lambda e: e["importance"])["name"]
              == max(r2, key=lambda e: e["importance"])["name"])
    elapsed = time.monotonic() - t0
    check("C10 star coding + invariance", coding_ok and inv_ok and elapsed < 5.0,
          "codings and argmax stable", 5.0, elapsed)


def test_c11_end_to_end_tune_and_final_accuracy(tmp_path):
    t0 = time.monotonic()
    config = {
        "objective": "toynet", "model": "ToyNet", "eval": "train_hold_out",
        "seed": 2024, "data_seed": 7, "n_samples": 1000, "input_dim": 20,
        "tuner": {"fun_evals": 30, "max_time": 10},
        "design": {"init_size": 10},
        "surrogate": {"noise": False, "model_fun_evals": 800},
        "modify": {"bounds": {"k_folds": [0, 0], "lr_mult": [1.0, 1.0],
                              "sgd_momentum": [0.9, 0.9], "patience": [3, 3]}},
    }
    cfg_path = tmp_path / "toy.json"
    cfg_path.write_text(json.dumps(config))
    out = str(tmp_path / "run")
    code = main(["tune", "--config", str(cfg_path), "--out", out])
    artifacts = ["run_state.json", "events.csv", "results.csv",
                 "importance.csv", "progress.csv", "parallel.csv"]
    missing = [a for a in artifacts if not os.path.exists(os.path.join(out, a))]

    doc = json.load(open(os.path.join(out, "run_state.json")))
    state = RunState.from_dict(doc)
    from spotkit.cli import build_space

    space = build_space({**config, "_config_dir": str(tmp_path)})
    winner, _ = best(state, space)
    hp = HyperConfig.from_config(winner)
    train, test = generate_dataset(1000, 20, 7)
    weights = str(tmp_path / "model.json")
    final_train(hp, train, seed=99, save_path=weights)
    result = final_test(hp, test, weights_path=weights)
    elapsed = time.monotonic() - t0
    check("C11 end-to-end",
          code == 0 and not missing and len(doc["y"]) == 30
          and result.metric > 0.60 and elapsed < 180.0,
          f"exit {code}, missing {missing}, n={len(doc['y'])}, "
          f"test acc {result.metric:.3f}", 180.0, elapsed)

"""Command-line front end: tune, resume, and benchmark experiments.

Experiments are described by a JSON file holding the hyper-dict reference,
the objective selector, the evaluation setting, and the tuner / design /
surrogate control blocks. Outputs land in one directory per run:
run_state.json, events.csv, results.csv, importance.csv, progress.csv,
parallel.csv plus one contour file per important parameter pair.

Exit codes: 0 success, 1 configuration error (an unknown top-level key is
one), 2 any other error (a run in which every evaluation failed is one, and
so is a failed write of ``bench.csv``). ``main`` is the one place that maps
exceptions to these codes: a ``ConfigError`` prints ``error: <message>``,
any other exception ``error: <exception class>: <message>``, and with
SPOTKIT_DEBUG=1 in the environment also its traceback.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import json
import math
import os
import shlex
import sys
import traceback

import numpy as np

from . import analysis, evalharness, surrogate as sg, tuner as tn
from .design import DesignControl, child_seed
from .evalharness import EvalResult, external_evaluate, make_toy_objective
from .searchspace import (
    ParamSpec, SearchSpace, gen_design_table, parse_hyper_dict, render_table,
    serialize_hyper_dict,
)
from .toynet import HyperConfig, generate_dataset

SEED_ENV_VAR = "SPOTKIT_SEED"
DEBUG_ENV_VAR = "SPOTKIT_DEBUG"


class ConfigError(ValueError):
    pass


# -- built-in synthetic objectives -------------------------------------------

def _sphere_space(dims: int) -> SearchSpace:
    return SearchSpace(tuple(
        ParamSpec(name=f"x{i}", kind="float", default=0.0, lower=-1.0, upper=1.0)
        for i in range(dims)
    ))


def _sphere_objective(config: dict) -> EvalResult:
    loss = sum(v * v for v in config.values())
    return EvalResult(loss=loss, metric=math.nan)


_MIXED4_TARGETS = (0.7321, 0.2468)
_MIXED4_LEVEL_PENALTY = {"a": 0.3, "b": 0.0, "c": 0.6, "d": 0.9}


def _mixed4_space() -> SearchSpace:
    return SearchSpace((
        ParamSpec(name="x1", kind="float", default=0.5, lower=0.0, upper=1.0),
        ParamSpec(name="x2", kind="float", default=0.5, lower=0.0, upper=1.0),
        ParamSpec(name="width", kind="int", default=3, transform="power_2_int",
                  lower=1.0, upper=6.0),
        ParamSpec(name="kind", kind="factor", default="a",
                  levels=("a", "b", "c", "d"), lower=0.0, upper=3.0),
    ))


def _mixed4_objective(config: dict) -> EvalResult:
    k = math.log2(config["width"])
    loss = (
        3.0 * (config["x1"] - _MIXED4_TARGETS[0]) ** 2
        + 2.0 * (config["x2"] - _MIXED4_TARGETS[1]) ** 2
        + 0.15 * (k - 4.0) ** 2
        + _MIXED4_LEVEL_PENALTY[config["kind"]]
    )
    return EvalResult(loss=loss, metric=math.nan)


BUILTIN_OBJECTIVES = {
    "sphere2": (lambda: _sphere_space(2), _sphere_objective),
    "sphere3": (lambda: _sphere_space(3), _sphere_objective),
    "mixed4": (_mixed4_space, _mixed4_objective),
}


# -- experiment configuration --------------------------------------------------

_DEFAULTS = {
    "objective": "toynet",
    "model": "ToyNet",
    "eval": "train_hold_out",
    "seed": 123,
    "data_seed": 7,
    "n_samples": 1000,
    "input_dim": 20,
    "shuffle": True,
    "x_start": "default",
    "out": "spotkit_run",
}
# every top-level key the commands read; load_experiment rejects any other
_KEYS = frozenset(_DEFAULTS) | {"hyper_dict", "modify", "tuner", "design", "surrogate",
                                "eval_seed", "external_timeout"}


def load_experiment(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"experiment config not found: {path}") from None
    except OSError as err:
        raise ConfigError(f"cannot read experiment config {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"experiment config {path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"experiment config {path} must be a JSON object")
    unknown = sorted(set(doc) - _KEYS)
    if unknown:
        raise ConfigError(f"unknown experiment config keys {unknown}; "
                          f"known keys: {sorted(_KEYS)}")
    exp = dict(_DEFAULTS)
    exp.update(doc)
    for key in ("objective", "model"):
        if not isinstance(exp[key], str):
            raise ConfigError(f"{key} must be a string, got {exp[key]!r}")
    exp["_config_dir"] = os.path.dirname(os.path.abspath(path))
    return exp


def build_space(exp: dict) -> SearchSpace:
    selector = exp["objective"]
    if selector.startswith("builtin:"):
        space = _builtin(selector)[0]()
    else:
        source = exp.get("hyper_dict", "builtin:toynet")
        if source == "builtin:toynet":
            text = (importlib.resources.files("spotkit")
                    .joinpath("data/toynet_hyper_dict.json").read_text("utf-8"))
        else:
            path = source
            if not os.path.isabs(path):
                path = os.path.join(exp.get("_config_dir", ""), path)
            try:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError:
                raise ConfigError(f"hyper-dict file not found: {source}") from None
        try:
            space = parse_hyper_dict(text, exp["model"])
        except ValueError as err:
            raise ConfigError(str(err)) from None
    return apply_modifications(space, exp.get("modify", {}))


def _builtin(selector: str):
    """The ``BUILTIN_OBJECTIVES`` entry a ``builtin:<name>`` selector names."""
    name = selector.split(":", 1)[1]
    if name not in BUILTIN_OBJECTIVES:
        raise ConfigError(f"unknown builtin objective {name!r} "
                          f"(available: {sorted(BUILTIN_OBJECTIVES)})")
    return BUILTIN_OBJECTIVES[name]


def apply_modifications(space: SearchSpace, modify) -> SearchSpace:
    """``space`` with the experiment's ``modify`` block applied."""
    bounds = modify.get("bounds", {}) if isinstance(modify, dict) else None
    levels = modify.get("levels", {}) if isinstance(modify, dict) else None
    if not (isinstance(bounds, dict) and isinstance(levels, dict)
            and set(modify) <= {"bounds", "levels"}
            and all(isinstance(b, list) and len(b) == 2
                    and all(type(v) in (int, float) and math.isfinite(v) for v in b)
                    for b in bounds.values())
            and all(isinstance(lv, list) and all(isinstance(v, str) for v in lv)
                    for lv in levels.values())):
        raise ConfigError('modify must be {"bounds": {name: [lower, upper], ...}, '
                          f'"levels": {{name: [level, ...], ...}}}}, got {modify!r}')
    try:
        for name, b in bounds.items():
            space = space.modify_bounds(name, b)
        for name, lv in levels.items():
            space = space.modify_levels(name, lv)
    except ValueError as err:
        raise ConfigError(f"modify: {err}") from None
    return space


def build_objective(exp: dict, seed: int, space: SearchSpace):
    """The objective the experiment names. Every key it reads is checked
    here, the fold counts against ``space``, so a bad value raises
    ``ConfigError`` before the first evaluation."""
    selector = exp["objective"]
    if selector == "toynet":
        try:
            k = space.spec("k_folds")
            return make_toy_objective(
                eval_setting=exp["eval"], data_seed=exp["data_seed"],
                eval_seed=exp.get("eval_seed", child_seed(seed, 7)),
                n=exp["n_samples"], input_dim=exp["input_dim"],
                shuffle=exp["shuffle"], k_folds=(k.decode(k.lower), k.decode(k.upper)),
            )
        except (TypeError, ValueError) as err:
            raise ConfigError(f"toynet objective (eval, n_samples, input_dim, "
                              f"data_seed): {err}") from None
    if selector.startswith("builtin:"):
        return _builtin(selector)[1]
    if selector.startswith("external:"):
        command = selector.split(":", 1)[1]
        try:
            words = shlex.split(command)
        except ValueError as err:       # an unbalanced quote
            raise ConfigError(f"objective {selector!r}: {err}") from None
        if not words:
            raise ConfigError(f"objective {selector!r} names no command")
        try:
            timeout = float(exp.get("external_timeout", 60.0))
        except (TypeError, ValueError):
            timeout = math.nan
        if not 0.0 < timeout < math.inf:
            raise ConfigError(f"external_timeout must be a positive number of seconds, "
                              f"got {exp['external_timeout']!r}")
        return lambda config: external_evaluate(command, config, timeout)
    raise ConfigError(f"unknown objective selector {selector!r}")


def _controls(exp: dict, seed: int):
    try:
        tuner_kw = dict(exp.get("tuner", {}))
        if str(tuner_kw.get("fun_evals", "")).lower() in ("inf", "infinity"):
            tuner_kw["fun_evals"] = math.inf
        tuner_cfg = tn.TunerConfig(seed=seed, **tuner_kw)
        design_kw = dict(exp.get("design", {}))
        design_kw.setdefault("seed", child_seed(seed, 5))
        design_cfg = DesignControl(**design_kw)
        surr_cfg = sg.SurrogateControl(**exp.get("surrogate", {}))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad control block: {err}") from None
    return tuner_cfg, design_cfg, surr_cfg


def _resolve_seed(exp: dict, flag_seed: int | None) -> int:
    """The ``--seed`` flag, else ``SPOTKIT_SEED``, else the config's ``seed``;
    anything but a non-negative integer is a ``ConfigError`` naming its
    source."""
    if flag_seed is not None:
        key, value = "--seed", flag_seed
    elif SEED_ENV_VAR in os.environ:
        key, value = SEED_ENV_VAR, os.environ[SEED_ENV_VAR]
        value = int(value) if value.strip().isdecimal() else value
    else:
        key, value = "seed", exp["seed"]
    if type(value) is not int or value < 0:
        raise ConfigError(f"{key} must be a non-negative integer, got {value!r}")
    return value


# -- artifact writing -----------------------------------------------------------

def write_artifacts(out_dir: str, space: SearchSpace, state: tn.RunState,
                    surr_cfg: sg.SurrogateControl, seed: int) -> list[dict]:
    """Refit the surrogate on the full history and write the analysis files.
    The refit re-estimates the parameters of the last evaluation's fit
    (``surrogate.fit``'s ``refresh``): cold on few rows, warm on many."""
    os.makedirs(out_dir, exist_ok=True)
    model = None
    try:
        model = sg.fit(np.asarray(state.X)[:, space.active_mask], state.y, surr_cfg,
                       seed=child_seed(seed, 1, len(state)),
                       start=state.params[-1], refresh=True)
    except ValueError as err:
        print(f"warning: surrogate refit for the artifacts failed "
              f"({type(err).__name__}: {err}); importance is written as 0 and "
              f"no contours", file=sys.stderr)
    report = (analysis.importance(model, space) if model is not None
              else [{"name": p.name, "importance": 0.0, "stars": ""}
                    for p in space.params])

    rows = gen_design_table(space, state, report)
    tn.atomic_write(os.path.join(out_dir, "results.csv"), analysis.rows_to_csv(rows))
    tn.atomic_write(os.path.join(out_dir, "progress.csv"),
                    analysis.rows_to_csv(analysis.export_progress(state)))
    tn.atomic_write(os.path.join(out_dir, "importance.csv"),
                    analysis.rows_to_csv(report, ["name", "importance", "stars"]))
    tn.atomic_write(os.path.join(out_dir, "parallel.csv"),
                    analysis.rows_to_csv(analysis.export_parallel(state, space)))
    if model is not None:
        best_config, _ = tn.best(state, space)
        for a, b in analysis.select_important_pairs(report):
            rows = analysis.export_contour(model, space, (a, b), grid=30,
                                           fixed_at=best_config)
            tn.atomic_write(os.path.join(out_dir, f"contour_{a}_{b}.csv"),
                            analysis.rows_to_csv(rows))
    return report


# -- commands -------------------------------------------------------------------

def cmd_tune(args) -> int:
    exp = load_experiment(args.config)
    seed = _resolve_seed(exp, args.seed)
    out_dir = args.out or exp["out"]
    _apply_budget_flags(exp, args)
    space = build_space(exp)
    objective = build_objective(exp, seed, space)
    controls = _controls(exp, seed)
    x_start = _x_start(exp, space)

    print(render_table(gen_design_table(space)))
    return _run_and_report(exp, space, seed, objective, controls, out_dir, x_start,
                           meta=_meta(exp, space, seed))


def cmd_resume(args) -> int:
    try:
        state = tn.load_run_state(args.out)
        meta = state.meta
        seed = int(meta["seed"])
        space = parse_hyper_dict(meta["space_json"], meta["experiment"]["model"])
    except KeyError as err:
        raise ConfigError(f"run state has no embedded {err.args[0]}") from None
    except (FileNotFoundError, ValueError) as err:
        raise ConfigError(str(err)) from None
    bumped = _apply_budget_flags(meta["experiment"], args)
    exp = dict(_DEFAULTS)
    exp.update(meta["experiment"])
    objective = build_objective(exp, seed, space)
    controls = _controls(exp, seed)
    x_start = _x_start(exp, space)
    if bumped:      # a later plain resume keeps the new budget
        tn.atomic_write(os.path.join(args.out, "run_state.json"),
                        json.dumps(state.to_dict()))
    return _run_and_report(exp, space, seed, objective, controls, args.out, x_start,
                           state=state)


def _run_and_report(exp: dict, space: SearchSpace, seed: int, objective,
                    controls, out_dir: str, x_start: dict | None, **run_kw) -> int:
    """Run (or continue, given ``state=``) the tuner from the checked start
    configuration ``x_start``, write the artifacts, report the best
    configuration and, for ToyNet, retrain and test it: the shared tail of
    ``tune`` and ``resume``. Returns 0; raises ``RuntimeError`` when every
    evaluation failed (checked before the artifacts are written)."""
    tuner_cfg, design_cfg, surr_cfg = controls
    state = tn.run(objective, space, tuner_cfg, design_cfg, surr_cfg,
                   X_start=x_start, out_dir=out_dir, **run_kw)
    if tn.all_failed(state.y):
        raise RuntimeError(f"all {len(state)} evaluations failed")
    write_artifacts(out_dir, space, state, surr_cfg, seed)
    _report_best(state, space)
    if exp["objective"] == "toynet":
        _final_train_test(exp, space, state, out_dir, seed)
    return 0


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ConfigError("--reps must be >= 1")
    exp = load_experiment(args.config)
    seed = _resolve_seed(exp, args.seed)
    space = build_space(exp)
    tuner_cfg, design_cfg, surr_cfg = _controls(exp, seed)
    if not math.isfinite(tuner_cfg.fun_evals):
        raise ConfigError("bench needs a finite tuner.fun_evals budget")
    budget = int(tuner_cfg.fun_evals)
    if design_cfg.init_size * design_cfg.repeats > budget:
        raise ConfigError("initial design exceeds the bench budget")

    spot_best, rand_best = [], []
    for rep in range(args.reps):
        rep_seed = child_seed(seed, 100, rep)
        objective = build_objective(exp, rep_seed, space)
        spot_state = tn.run(
            objective, space, dataclasses.replace(tuner_cfg, seed=rep_seed),
            dataclasses.replace(design_cfg, seed=child_seed(rep_seed, 5)),
            surr_cfg)
        if len(spot_state) < budget:
            print(f"error: tuner.max_time ended the tuned run after "
                  f"{len(spot_state)} of {budget} evaluations; bench compares "
                  "equal budgets", file=sys.stderr)
            return 2
        rand_state = tn.random_search(objective, space, budget,
                                      seed=child_seed(rep_seed, 6))
        spot_best.append(spot_state.best_y)
        rand_best.append(rand_state.best_y)

    wins = sum(1 for s, r in zip(spot_best, rand_best) if s < r)
    rows = [
        _bench_row("spot", budget, spot_best, f"{wins}/{args.reps}"),
        _bench_row("random", budget, rand_best, ""),
    ]
    print(render_table(rows))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        tn.atomic_write(os.path.join(args.out, "bench.csv"),
                        analysis.rows_to_csv(rows))
    return 0


def _bench_row(method: str, evals: int, bests: list[float], wins: str) -> dict:
    arr = np.asarray(bests, dtype=float)
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return {
        "method": method, "evals": evals, "median_best": float(med),
        "iqr": float(q3 - q1), "min_best": float(arr.min()),
        "max_best": float(arr.max()), "wins": wins,
    }


# -- shared helpers ----------------------------------------------------------------

def _runtime_error(err: Exception) -> int:
    """Report a command's failure other than a configuration error on
    stderr; the exit code 2."""
    print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
    if os.environ.get(DEBUG_ENV_VAR) == "1":
        traceback.print_exception(type(err), err, err.__traceback__, file=sys.stderr)
    return 2


def _apply_budget_flags(exp: dict, args) -> bool:
    """Write ``--max-time`` / ``--fun-evals`` into the experiment's tuner
    block; True when either flag was given."""
    flags = {"max_time": args.max_time, "fun_evals": args.fun_evals}
    given = {k: v for k, v in flags.items() if v is not None}
    if given:
        exp.setdefault("tuner", {}).update(given)
    return bool(given)


def _meta(exp: dict, space: SearchSpace, seed: int) -> dict:
    experiment = {k: v for k, v in exp.items() if not k.startswith("_")}
    return {
        "experiment": experiment,
        "space_json": serialize_hyper_dict(space, exp["model"]),
        "seed": seed,
    }


def _x_start(exp: dict, space: SearchSpace):
    """The start configuration, checked to be a point of ``space``: every key
    names a parameter and every tuned value decodes back unchanged (fixed
    parameters are carried at their fixed value whatever it says); None for
    none."""
    x0 = exp.get("x_start")
    if x0 is None:
        return None
    if x0 == "default":
        return space.default_config()
    if not isinstance(x0, dict):
        raise ConfigError(f"x_start must be null, \"default\" or a configuration, got {x0!r}")
    unknown = sorted(set(x0) - set(space.names))
    if unknown:
        raise ConfigError(f"x_start: unknown parameters {unknown}")
    try:
        decoded = space.from_internal(space.to_internal(x0))
    except (TypeError, ValueError) as err:
        raise ConfigError(f"x_start: {err}") from None
    for p in space.active:
        if decoded[p.name] != x0[p.name]:
            raise ConfigError(f"x_start: {p.name} {x0[p.name]!r} is not a point of "
                              f"the space (it would run as {decoded[p.name]!r})")
    return x0


def _report_best(state: tn.RunState, space: SearchSpace) -> None:
    config, loss = tn.best(state, space)
    print(f"\nbest loss {loss} after {len(state)} evaluations")
    print(f"best configuration: {json.dumps(config)}")


def _final_train_test(exp: dict, space: SearchSpace, state: tn.RunState,
                      out_dir: str, seed: int) -> None:
    """Retrain the winning configuration and score it on held-back data."""
    config, _ = tn.best(state, space)
    hp = HyperConfig.from_config(config)
    train, test = generate_dataset(exp["n_samples"], exp["input_dim"],
                                   exp["data_seed"])
    weights_path = os.path.join(out_dir, "tuned_model.json")
    train_res = evalharness.train_tuned(hp, train, seed=child_seed(seed, 9),
                                        save_path=weights_path)
    if train_res.failed:
        print("final training failed", file=sys.stderr)
        return
    test_res = evalharness.test_tuned(hp, test, weights_path=weights_path)
    print(f"final hold-out loss {train_res.loss}, "
          f"test loss {test_res.loss}, test accuracy {test_res.metric}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spotkit", description="surrogate-guided hyperparameter tuning")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tune = sub.add_parser("tune", help="run a tuning experiment")
    p_tune.add_argument("--config", required=True, help="experiment JSON file")
    p_tune.add_argument("--out", help="output directory (overrides config)")
    p_tune.add_argument("--seed", type=int, help="seed (overrides env and config)")
    p_tune.set_defaults(func=cmd_tune)

    p_resume = sub.add_parser("resume", help="continue a persisted run")
    p_resume.add_argument("--out", required=True, help="run directory")
    p_resume.set_defaults(func=cmd_resume)

    for p in (p_tune, p_resume):
        p.add_argument("--max-time", type=float, dest="max_time",
                       help="wall-time budget in minutes")
        p.add_argument("--fun-evals", type=int, dest="fun_evals",
                       help="evaluation budget")

    p_bench = sub.add_parser("bench", help="compare against random search")
    p_bench.add_argument("--config", required=True, help="experiment JSON file")
    p_bench.add_argument("--reps", type=int, default=10, help="repetitions")
    p_bench.add_argument("--out", help="directory for bench.csv")
    p_bench.add_argument("--seed", type=int, help="seed override")
    p_bench.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:
        return _runtime_error(err)


if __name__ == "__main__":
    sys.exit(main())

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from spotkit import surrogate as sg, tuner as tn
from spotkit.cli import _bench_row, build_space, main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ARTIFACTS = ["run_state.json", "events.csv", "results.csv",
             "importance.csv", "progress.csv", "parallel.csv"]


def write_config(path, **overrides):
    config = {
        "objective": "builtin:sphere2",
        "model": "sphere2",
        "seed": 17,
        "x_start": None,
        "tuner": {"fun_evals": 14},
        "design": {"init_size": 8},
        "surrogate": {"model_fun_evals": 250},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return str(path)


# overrides that turn write_config's experiment into a toynet or an external one
TOYNET = {"objective": "toynet", "model": "ToyNet"}
EXTERNAL = {"objective": "external:true", "model": "ToyNet", "hyper_dict": "builtin:toynet"}


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter importing this checkout's spotkit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO, "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture
def sphere_config(tmp_path):
    return write_config(tmp_path / "exp.json")


class TestTune:
    def test_success_writes_all_artifacts(self, sphere_config, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["tune", "--config", sphere_config, "--out", out]) == 0
        for name in ARTIFACTS:
            assert os.path.exists(os.path.join(out, name)), name
        printed = capsys.readouterr().out
        assert "transform" in printed          # design table shown up front
        assert "best loss" in printed

    def test_missing_config_exits_1(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert main(["tune", "--config", missing, "--out", str(tmp_path / "o")]) == 1
        assert "absent.json" in capsys.readouterr().err

    def test_missing_hyper_dict_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", objective="toynet",
                           hyper_dict="nowhere.json")
        assert main(["tune", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "nowhere.json" in capsys.readouterr().err

    def test_tuner_noise_rejected(self, tmp_path, capsys):
        for block, key in [
            # the surrogate block owns the nugget; a tuner-level flag would be
            # ignored
            ({"tuner": {"fun_evals": 14, "noise": True}}, "noise"),
            # inputs are always min-max normalized; there is nothing to select
            ({"surrogate": {"model_fun_evals": 250, "cod_type": "norm"}}, "cod_type"),
            # one theta per active column is the only count a fit accepts
            ({"surrogate": {"model_fun_evals": 250, "n_theta": 3}}, "n_theta"),
            # the predicted mean is the only infill criterion
            ({"tuner": {"fun_evals": 14, "infill_criterion": "y"}}, "infill_criterion"),
            # a fractional budget would overrun to the next whole evaluation
            ({"tuner": {"fun_evals": 12.5}}, "fun_evals"),
            # counts are whole numbers: a fraction crashed the run or was
            # silently truncated
            ({"design": {"init_size": 10.5}}, "init_size"),
            ({"design": {"init_size": 4, "repeats": 1.5}}, "repeats"),
            ({"tuner": {"fun_evals": 14, "fun_repeats": 1.5}}, "fun_repeats"),
            ({"tuner": {"fun_evals": 14, "n_points": 1.5}}, "n_points"),
            # the string "false" is truthy and would fit a noisy surrogate
            ({"surrogate": {"model_fun_evals": 250, "noise": "false"}}, "noise"),
            # JSON NaN passes the < / >= checks: every distance test was false,
            # so each proposal was swapped for a random point
            ({"tuner": {"fun_evals": 14, "tolerance_x": float("nan")}}, "tolerance_x"),
            # every fit failed, so the run was a silent random search
            ({"surrogate": {"model_fun_evals": 250, "min_theta": float("nan")}},
             "min_theta"),
            # the sequential phase never ran
            ({"tuner": {"fun_evals": 14, "max_time": float("nan")}}, "max_time"),
        ]:
            cfg = write_config(tmp_path / "exp.json", **block)
            assert main(["tune", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
            assert key in capsys.readouterr().err

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["tune", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_rerun_same_seed_identical_outputs(self, sphere_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["tune", "--config", sphere_config, "--out", out1]) == 0
        assert main(["tune", "--config", sphere_config, "--out", out2]) == 0
        for name in ("events.csv", "results.csv", "progress.csv", "parallel.csv"):
            a = open(os.path.join(out1, name)).read()
            b = open(os.path.join(out2, name)).read()
            assert a == b, name

    def test_seed_flag_changes_run(self, sphere_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["tune", "--config", sphere_config, "--out", out1]) == 0
        assert main(["tune", "--config", sphere_config, "--out", out2,
                     "--seed", "99"]) == 0
        a = open(os.path.join(out1, "events.csv")).read()
        b = open(os.path.join(out2, "events.csv")).read()
        assert a != b

    def test_env_seed_override(self, sphere_config, tmp_path, monkeypatch):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        monkeypatch.setenv("SPOTKIT_SEED", "99")
        assert main(["tune", "--config", sphere_config, "--out", out1]) == 0
        monkeypatch.delenv("SPOTKIT_SEED")
        assert main(["tune", "--config", sphere_config, "--out", out2,
                     "--seed", "99"]) == 0
        a = open(os.path.join(out1, "events.csv")).read()
        b = open(os.path.join(out2, "events.csv")).read()
        assert a == b

    def test_fun_evals_flag(self, sphere_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["tune", "--config", sphere_config, "--out", out,
                     "--fun-evals", "10"]) == 0
        state = json.load(open(os.path.join(out, "run_state.json")))
        assert len(state["y"]) == 10

    def test_artifact_refit_failure_reported(self, sphere_config, tmp_path,
                                             monkeypatch, capsys):
        def failing_fit(*args, **kwargs):
            raise ValueError("synthetic refit failure")

        monkeypatch.setattr(sg, "fit", failing_fit)
        out = str(tmp_path / "run")
        assert main(["tune", "--config", sphere_config, "--out", out]) == 0
        err = capsys.readouterr().err
        assert err.count("ValueError: synthetic refit failure") == 1
        for name in ARTIFACTS:
            assert os.path.exists(os.path.join(out, name)), name
        rows = open(os.path.join(out, "importance.csv")).read().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0.0", "0.0"]

    def test_constant_objective_writes_no_model_artifacts(self, tmp_path, capsys):
        # equal losses once gave a theta = 0 model, which rated every
        # parameter 100 and wrote flat contour files
        cfg = write_config(tmp_path / "exp.json",
                           **{**EXTERNAL, "objective": """external:echo '{"loss": 1.0}'"""})
        out = str(tmp_path / "run")
        assert main(["tune", "--config", cfg, "--out", out]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: surrogate refit")
        rows = open(os.path.join(out, "importance.csv")).read().splitlines()[1:]
        assert rows and all(row.split(",")[1] == "0.0" for row in rows)
        assert not [name for name in os.listdir(out) if name.startswith("contour_")]

    def test_external_objective(self, tmp_path):
        code = ("import json,sys; req=json.loads(sys.stdin.readline()); "
                "cfg=req['config']; "
                "print(json.dumps({'loss': sum(v*v for v in cfg.values()), 'metric': 0}))")
        cfg = write_config(
            tmp_path / "exp.json",
            objective=f'external:{sys.executable} -c "{code}"',
            hyper_dict="builtin:toynet", model="sphere-ext",
        )
        # external objectives need an explicit space; reuse a tiny one
        doc = json.load(open(cfg))
        hyper = {"sphere-ext": {
            "u": {"type": "float", "default": 0.0, "transform": "None",
                  "lower": -1.0, "upper": 1.0},
            "v": {"type": "float", "default": 0.0, "transform": "None",
                  "lower": -1.0, "upper": 1.0},
        }}
        (tmp_path / "hyper.json").write_text(json.dumps(hyper))
        doc["hyper_dict"] = str(tmp_path / "hyper.json")
        (tmp_path / "exp.json").write_text(json.dumps(doc))
        out = str(tmp_path / "run")
        assert main(["tune", "--config", cfg, "--out", out]) == 0
        state = json.load(open(os.path.join(out, "run_state.json")))
        assert len(state["y"]) == 14
        assert min(state["y"]) < 0.5


class TestArtifactRefit:
    """``write_artifacts`` refits as a refresh from the last evaluation's
    parameters: a warm search from 10 distinct rows per tuned dimension (40
    on mixed4), the cold fit below."""

    CONTROL = sg.SurrogateControl(model_fun_evals=300)

    def tuned(self, fun_evals):
        from spotkit.cli import _mixed4_objective, _mixed4_space
        from spotkit.design import DesignControl

        space = _mixed4_space()
        state = tn.run(_mixed4_objective, space, tn.TunerConfig(fun_evals=fun_evals, seed=3),
                       DesignControl(init_size=10, seed=5), self.CONTROL)
        assert state.params[-1] is not None
        return space, state

    def test_warm_budget_from_ten_rows_per_dimension(self, tmp_path, monkeypatch):
        from spotkit.cli import write_artifacts

        space, state = self.tuned(45)
        calls, real_search = [], sg._budgeted_search

        def spy(objective, lo, hi, budget, seed, *, start=None):
            calls.append((budget, None if start is None else start.tolist()))
            return real_search(objective, lo, hi, budget, seed, start=start)

        monkeypatch.setattr(sg, "_budgeted_search", spy)
        write_artifacts(str(tmp_path), space, state, self.CONTROL, seed=3)
        assert calls == [(300 // sg.WARM_BUDGET_DIVISOR, state.params[-1])]

    def test_fewer_rows_write_the_cold_fit_artifacts(self, tmp_path, monkeypatch):
        from spotkit.cli import write_artifacts

        space, state = self.tuned(30)
        write_artifacts(str(tmp_path / "refresh"), space, state, self.CONTROL, seed=3)
        real_fit = sg.fit
        monkeypatch.setattr(sg, "fit", lambda *args, start=None, refresh=False, **kw:
                            real_fit(*args, **kw))
        write_artifacts(str(tmp_path / "cold"), space, state, self.CONTROL, seed=3)
        names = sorted(os.listdir(tmp_path / "cold"))
        assert any(name.startswith("contour_") for name in names)
        assert sorted(os.listdir(tmp_path / "refresh")) == names
        for name in names:
            assert ((tmp_path / "refresh" / name).read_bytes()
                    == (tmp_path / "cold" / name).read_bytes()), name


class TestResume:
    def test_resume_after_truncation_matches_full_run(self, sphere_config, tmp_path):
        out1, out2 = str(tmp_path / "full"), str(tmp_path / "cut")
        assert main(["tune", "--config", sphere_config, "--out", out1]) == 0
        assert main(["tune", "--config", sphere_config, "--out", out2]) == 0
        # simulate a crash: drop everything past the initial design
        doc = json.load(open(os.path.join(out2, "run_state.json")))
        keep = 9
        for key in ("X", "y", "metrics", "phases", "elapsed", "params"):
            doc[key] = doc[key][:keep]
        doc["elapsed_total"] = sum(doc["elapsed"])
        json.dump(doc, open(os.path.join(out2, "run_state.json"), "w"))

        assert main(["resume", "--out", out2]) == 0
        a = json.load(open(os.path.join(out1, "run_state.json")))
        b = json.load(open(os.path.join(out2, "run_state.json")))
        assert len(a["y"]) == len(b["y"])
        assert a["y"] == b["y"]

    def test_resume_completed_run_is_noop(self, sphere_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["tune", "--config", sphere_config, "--out", out]) == 0
        before = json.load(open(os.path.join(out, "run_state.json")))["y"]
        assert main(["resume", "--out", out]) == 0
        after = json.load(open(os.path.join(out, "run_state.json")))["y"]
        assert before == after

    def test_budget_bump_matches_full_run(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json", objective="builtin:mixed4",
                           model="mixed4", design={"init_size": 10})
        full, bumped = str(tmp_path / "full"), str(tmp_path / "bumped")
        assert main(["tune", "--config", cfg, "--out", full,
                     "--fun-evals", "30"]) == 0
        assert main(["tune", "--config", cfg, "--out", bumped,
                     "--fun-evals", "20"]) == 0
        assert len(json.load(open(os.path.join(bumped, "run_state.json")))["y"]) == 20
        assert main(["resume", "--out", bumped, "--fun-evals", "30"]) == 0
        events = [open(os.path.join(d, "events.csv")).read() for d in (full, bumped)]
        assert events[0] == events[1]
        assert events[0].count("\n") == 31
        doc = json.load(open(os.path.join(bumped, "run_state.json")))
        assert doc["meta"]["experiment"]["tuner"]["fun_evals"] == 30

    def test_resume_at_warm_iteration_matches_full_run(self, tmp_path):
        # after a 10-point design, the resumed session's first fit (sequential
        # evaluation 13) starts warm from the persisted parameters
        cfg = write_config(tmp_path / "exp.json", objective="builtin:mixed4",
                           model="mixed4", design={"init_size": 10})
        full, cut = str(tmp_path / "full"), str(tmp_path / "cut")
        assert main(["tune", "--config", cfg, "--out", full, "--fun-evals", "30"]) == 0
        assert main(["tune", "--config", cfg, "--out", cut, "--fun-evals", "23"]) == 0
        assert main(["resume", "--out", cut, "--fun-evals", "30"]) == 0
        events = [open(os.path.join(d, "events.csv")).read() for d in (full, cut)]
        assert events[0] == events[1]
        docs = [json.load(open(os.path.join(d, "run_state.json"))) for d in (full, cut)]
        assert docs[0]["params"] == docs[1]["params"]

    def test_resume_past_kept_parameters_matches_full_run(self, tmp_path):
        # mixed4 tunes 4 dimensions, so from 40 rows its warm fits keep the
        # persisted parameters without a search; the resumed session starts
        # at 45 evaluations
        cfg = os.path.join(REPO, "configs", "bench_mixed4.json")
        full, cut = str(tmp_path / "full"), str(tmp_path / "cut")
        assert main(["tune", "--config", cfg, "--out", full, "--fun-evals", "60"]) == 0
        assert main(["tune", "--config", cfg, "--out", cut, "--fun-evals", "45"]) == 0
        assert main(["resume", "--out", cut, "--fun-evals", "60"]) == 0
        events = [open(os.path.join(d, "events.csv")).read() for d in (full, cut)]
        assert events[0] == events[1]
        assert events[0].count("\n") == 61
        docs = [json.load(open(os.path.join(d, "run_state.json"))) for d in (full, cut)]
        for doc in docs:
            del doc["elapsed"]
        assert docs[0] == docs[1]

    def test_run_state_without_params_resumes(self, tmp_path):
        # a run state written before the params column: its first fit is cold
        cfg = write_config(tmp_path / "exp.json", objective="builtin:mixed4",
                           model="mixed4", design={"init_size": 10})
        out = str(tmp_path / "run")
        assert main(["tune", "--config", cfg, "--out", out, "--fun-evals", "23"]) == 0
        path = os.path.join(out, "run_state.json")
        doc = json.load(open(path))
        del doc["params"]
        json.dump(doc, open(path, "w"))
        assert main(["resume", "--out", out, "--fun-evals", "30"]) == 0
        doc = json.load(open(path))
        assert len(doc["y"]) == 30
        assert doc["params"][:23] == [None] * 23
        assert all(len(p) == 4 for p in doc["params"][23:])

    def test_budget_bump_persists_for_plain_resume(self, sphere_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["tune", "--config", sphere_config, "--out", out]) == 0
        # a time budget already spent: no evaluation runs, the bump still sticks
        assert main(["resume", "--out", out, "--fun-evals", "16",
                     "--max-time", "0"]) == 0
        doc = json.load(open(os.path.join(out, "run_state.json")))
        assert len(doc["y"]) == 14
        assert doc["meta"]["experiment"]["tuner"] == {"fun_evals": 16, "max_time": 0.0}
        # a plain resume keeps the new evaluation budget (and the time one)
        assert main(["resume", "--out", out, "--max-time", "10"]) == 0
        doc = json.load(open(os.path.join(out, "run_state.json")))
        assert len(doc["y"]) == 16
        assert doc["meta"]["experiment"]["tuner"] == {"fun_evals": 16, "max_time": 10.0}
        assert main(["resume", "--out", out]) == 0
        assert len(json.load(open(os.path.join(out, "run_state.json")))["y"]) == 16

    def test_spent_time_budget_holds_across_resume(self, tmp_path):
        # the fits, searches and writes between evaluations count against
        # max_time, so a run stopped by it resumes to no new evaluation
        cfg = write_config(tmp_path / "exp.json", objective="builtin:mixed4",
                           model="mixed4", design={"init_size": 10},
                           tuner={"fun_evals": 100000, "max_time": 0.005})
        out = str(tmp_path / "run")
        assert main(["tune", "--config", cfg, "--out", out]) == 0
        doc = json.load(open(os.path.join(out, "run_state.json")))
        assert 10 < len(doc["y"]) < 100000
        assert sum(doc["elapsed"]) >= 0.3
        assert main(["resume", "--out", out]) == 0
        after = json.load(open(os.path.join(out, "run_state.json")))
        assert after["y"] == doc["y"]

    def test_bad_budget_exits_1(self, sphere_config, tmp_path):
        out = str(tmp_path / "run")
        assert main(["tune", "--config", sphere_config, "--out", out]) == 0
        before = open(os.path.join(out, "run_state.json")).read()
        assert main(["resume", "--out", out, "--fun-evals", "0"]) == 1
        assert open(os.path.join(out, "run_state.json")).read() == before

    def test_toynet_budget_bump_retrains_winner(self, tmp_path, capsys):
        config = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json")
        full, bumped = str(tmp_path / "full"), str(tmp_path / "bumped")
        assert main(["tune", "--config", config, "--out", full,
                     "--fun-evals", "13"]) == 0
        want = capsys.readouterr().out.splitlines()[-1]
        assert want.startswith("final hold-out loss")
        assert main(["tune", "--config", config, "--out", bumped,
                     "--fun-evals", "12"]) == 0
        capsys.readouterr()
        assert main(["resume", "--out", bumped, "--fun-evals", "13"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == want
        models = [open(os.path.join(d, "tuned_model.json")).read()
                  for d in (full, bumped)]
        assert models[0] == models[1]

    def test_older_run_state_resumes(self, tmp_path):
        # keys that earlier versions wrote and nothing reads are ignored
        cfg = write_config(tmp_path / "exp.json", objective="builtin:mixed4",
                           model="mixed4", design={"init_size": 10},
                           tuner={"fun_evals": 20})
        full, cut = str(tmp_path / "full"), str(tmp_path / "cut")
        assert main(["tune", "--config", cfg, "--out", full]) == 0
        assert main(["tune", "--config", cfg, "--out", cut]) == 0
        path = os.path.join(cut, "run_state.json")
        doc = json.load(open(path))
        for key in ("X", "y", "metrics", "phases", "elapsed", "params"):
            doc[key] = doc[key][:13]
        doc["elapsed_total"] = sum(doc["elapsed"])
        doc["meta"]["model"] = "mixed4"
        space = json.loads(doc["meta"]["space_json"])
        space["mixed4"]["kind"].update(class_name="torch.optim",
                                       core_model_parameter_type="str")
        doc["meta"]["space_json"] = json.dumps(space)
        json.dump(doc, open(path, "w"))

        assert main(["resume", "--out", cut]) == 0
        events = [open(os.path.join(d, "events.csv")).read() for d in (full, cut)]
        assert events[0] == events[1]
        assert events[0].count("\n") == 21

    def test_missing_dir_exits_1(self, tmp_path, capsys):
        assert main(["resume", "--out", str(tmp_path / "void")]) == 1

    def test_corrupt_state_exits_1(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "run_state.json").write_text("{broken")
        assert main(["resume", "--out", str(out)]) == 1


class TestBench:
    def test_sphere_bench(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", objective="builtin:sphere3",
                           model="sphere3",
                           tuner={"fun_evals": 20}, design={"init_size": 8})
        out = str(tmp_path / "bench")
        assert main(["bench", "--config", cfg, "--reps", "3", "--out", out]) == 0
        text = open(os.path.join(out, "bench.csv")).read()
        lines = text.strip().splitlines()
        assert lines[0].startswith("method,evals,median_best")
        spot = lines[1].split(",")
        rand = lines[2].split(",")
        assert spot[0] == "spot" and rand[0] == "random"
        assert spot[1] == rand[1] == "20"     # equal budgets enforced

    def test_single_rep_iqr_zero(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json", tuner={"fun_evals": 12},
                           design={"init_size": 8})
        out = str(tmp_path / "bench")
        assert main(["bench", "--config", cfg, "--reps", "1", "--out", out]) == 0
        lines = open(os.path.join(out, "bench.csv")).read().strip().splitlines()
        assert float(lines[1].split(",")[3]) == 0.0
        assert float(lines[2].split(",")[3]) == 0.0

    def test_max_time_cut_short_exits_2(self, tmp_path, capsys):
        # the time limit ends the tuned run after its initial design; the
        # random baseline would get the whole budget, so bench refuses
        cfg = write_config(tmp_path / "exp.json",
                           tuner={"fun_evals": 14, "max_time": 1e-9})
        assert main(["bench", "--config", cfg, "--reps", "1"]) == 2
        err = capsys.readouterr().err
        assert "tuner.max_time" in err and "8 of 14 evaluations" in err

    def test_objective_key_checked_before_evaluating(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", **TOYNET, eval_seed="abc")
        assert main(["bench", "--config", cfg, "--reps", "1"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error: " in err and "eval_seed" in err

    def test_infinite_budget_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json", tuner={"max_time": 1})
        assert main(["bench", "--config", cfg, "--reps", "2"]) == 1

    def test_fractional_budget_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", tuner={"fun_evals": 12.5})
        assert main(["bench", "--config", cfg, "--reps", "1"]) == 1
        assert "fun_evals" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_rejected(self, reps, sphere_config, capsys):
        assert main(["bench", "--config", sphere_config, "--reps", reps]) == 1
        assert "error: --reps must be >= 1" in capsys.readouterr().err

    def test_quartiles_bit_equal_to_np_percentile(self):
        rng = np.random.default_rng(3)
        for n in range(1, 26):
            for values in (rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6),
                           rng.integers(0, 4, n) / 3.0):     # ties
                bests = values.tolist()
                row = _bench_row("spot", 40, bests, "")
                q1, med, q3 = np.percentile(np.asarray(bests), [25, 50, 75])
                assert row["median_best"].hex() == float(med).hex()
                assert row["iqr"].hex() == float(q3 - q1).hex()
                assert (row["min_best"], row["max_best"]) == (min(bests), max(bests))

    def test_bench_does_not_import_numpy_ma(self, sphere_config):
        # np.percentile imports numpy.ma at its first call, about 13 ms of
        # every bench command
        out = run_fresh("import sys\nfrom spotkit.cli import main\n"
                        f"assert main(['bench', '--config', {sphere_config!r},"
                        " '--reps', '2']) == 0\n"
                        "print('numpy.ma' in sys.modules)")
        assert out.splitlines()[-1] == "False"


@pytest.mark.parametrize("overrides, key", [
    # the start point is resolved against the space before the run starts
    ({"x_start": 5}, "x_start"),
    ({"x_start": {"x0": 0.5}}, "x_start"),
    ({"seed": "abc"}, "seed"),
    ({"objective": 5}, "objective"),
    ({"objective": "toynet", "model": "ToyNet", "eval": "bogus"}, "eval"),
    ({"objective": "toynet", "model": "ToyNet", "n_samples": 10}, "n_samples"),
    ({"objective": "external:true", "model": "ToyNet",
      "hyper_dict": "builtin:toynet", "external_timeout": "abc"}, "external_timeout"),
    # keys the objective reads only when it evaluates are checked up front
    # too, so a bad value is no run of failed evaluations
    ({**TOYNET, "eval_seed": "abc"}, "eval_seed"),
    ({**TOYNET, "shuffle": "no"}, "shuffle"),
    ({**TOYNET, "eval": "train_cv", "modify": {"bounds": {"k_folds": [1, 1]}}}, "k_folds"),
    ({**TOYNET, "eval": "train_cv",       # more folds than the 800 training rows
      "modify": {"bounds": {"k_folds": [900, 900]}}}, "k_folds"),
    ({**EXTERNAL, "objective": "external:"}, "objective"),
    ({**EXTERNAL, "objective": "external:   "}, "objective"),
    ({**EXTERNAL, "objective": "external:python3 -c 'print(1)"}, "objective"),
    ({**EXTERNAL, "external_timeout": math.nan}, "external_timeout"),
    ({**EXTERNAL, "external_timeout": -1}, "external_timeout"),
    ({**EXTERNAL, "external_timeout": 0}, "external_timeout"),
    # a seed is a non-negative integer: no bool, no float, no negative value
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    # a malformed modify block: each shape ended in an uncaught exception,
    # and a level string was read as its characters
    ({"modify": []}, "modify"),
    ({"modify": {"bounds": [1]}}, "modify"),
    ({"modify": {"bounds": {"x1": 5}}}, "modify"),
    ({"modify": {"bounds": {"x1": [0.2]}}}, "modify"),
    ({"objective": "builtin:mixed4", "model": "mixed4",
      "modify": {"levels": {"kind": "ab"}}}, "modify"),
    # a model key that is no string: a list ended in an uncaught TypeError,
    # and a number tuned but could not be resumed
    ({"objective": "builtin:mixed4", "model": ["m"]}, "model"),
    ({**TOYNET, "model": ["m"]}, "model"),
    ({"model": 5}, "model"),
    # a start point outside the space: an unknown key was ignored, and a
    # width off the power-of-two lattice ran as 8 but was stored as log2(10)
    ({"objective": "builtin:mixed4", "model": "mixed4",
      "x_start": {"x1": 0.5, "x2": 0.5, "width": 8, "kind": "a", "typo": 1}}, "x_start"),
    ({"objective": "builtin:mixed4", "model": "mixed4",
      "x_start": {"x1": 0.5, "x2": 0.5, "width": 10, "kind": "a"}}, "x_start"),
    # an unknown top-level key: a misspelled surrogate block ran on the
    # default model_fun_evals of 10,000
    ({"surogate": {"model_fun_evals": 300}}, "surogate"),
])
def test_config_errors_exit_1(overrides, key, tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json", **overrides)
    assert main(["tune", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")
            and key in line]


@pytest.mark.parametrize("command", ["tune", "resume"])
def test_every_evaluation_failed_exits_2(command, tmp_path, capsys):
    # a run without one successful evaluation printed "best loss
    # 1000000000000.0" and exited 0
    cfg = write_config(tmp_path / "exp.json", **{**EXTERNAL, "objective": "external:false"})
    out = str(tmp_path / "o")
    argv, n = ["tune", "--config", cfg, "--out", out], 14
    if command == "resume":
        assert main(argv + ["--fun-evals", "10"]) == 2
        argv, n = ["resume", "--out", out, "--fun-evals", "12"], 12
    capsys.readouterr()
    assert main(argv) == 2
    printed = capsys.readouterr()
    assert printed.err.splitlines() == [f"error: RuntimeError: all {n} evaluations failed"]
    assert "best loss" not in printed.out
    # the loop's files stay as it wrote them, and no artifact is written
    state = tn.load_run_state(out)
    assert len(state) == n and tn.all_failed(state.y)
    assert open(os.path.join(out, "events.csv")).read() == tn.events_csv(
        state, build_space(state.meta["experiment"]))
    assert sorted(os.listdir(out)) == ["events.csv", "run_state.json"]


@pytest.mark.parametrize("command", ["tune", "resume"])
def test_bad_x_start_reported_before_any_output(command, tmp_path, capsys):
    # the start point was checked only after tune printed the design table,
    # and after resume wrote a bumped budget into the run state
    bad = {"x1": 0.5, "x2": 0.5, "width": 10, "kind": "a"}
    out = str(tmp_path / "o")
    path = os.path.join(out, "run_state.json")
    mixed4 = {"objective": "builtin:mixed4", "model": "mixed4"}
    if command == "tune":
        argv = ["tune", "--config", write_config(tmp_path / "exp.json", **mixed4,
                                                 x_start=bad), "--out", out]
    else:
        cfg = write_config(tmp_path / "exp.json", **mixed4)
        assert main(["tune", "--config", cfg, "--out", out]) == 0
        doc = json.load(open(path))
        doc["meta"]["experiment"]["x_start"] = bad
        json.dump(doc, open(path, "w"))
        argv = ["resume", "--out", out, "--fun-evals", "16"]
    before = open(path).read() if os.path.exists(path) else None
    capsys.readouterr()
    assert main(argv) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: x_start: width 10 is not a point")
    assert (open(path).read() if os.path.exists(path) else None) == before


@pytest.mark.parametrize("command", ["tune", "bench"])
@pytest.mark.parametrize("source, value", [
    ("--seed", "-1"), ("SPOTKIT_SEED", "-3"), ("SPOTKIT_SEED", "1.5")])
def test_bad_seed_names_its_source(command, source, value, sphere_config, tmp_path,
                                   monkeypatch, capsys):
    argv = [command, "--config", sphere_config, "--out", str(tmp_path / "o")]
    argv += ["--reps", "1"] if command == "bench" else []
    if source == "--seed":
        argv += ["--seed", value]
    else:
        monkeypatch.setenv(source, value)
    assert main(argv) == 1
    assert f"error: {source} must be a non-negative integer, got " in capsys.readouterr().err


def test_x_start_point_evaluated_first(tmp_path):
    # a fixed parameter may be named at any value: it runs at its fixed one
    cfg = write_config(tmp_path / "exp.json", objective="builtin:mixed4", model="mixed4",
                       x_start={"x1": 0.25, "x2": 0.5, "width": 16, "kind": "c"},
                       modify={"bounds": {"x2": [0.75, 0.75]}})
    out = tmp_path / "o"
    assert main(["tune", "--config", cfg, "--out", str(out)]) == 0
    first = (out / "events.csv").read_text().splitlines()[1]
    assert first.endswith('"{""x1"":0.25,""x2"":0.75,""width"":16,""kind"":""c""}"')
    state = tn.load_run_state(str(out))
    assert state.X[0].tolist() == [0.25, 0.75, 4.0, 2.0]


def test_unknown_builtin_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.json", objective="builtin:rastrigin")
    assert main(["tune", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "rastrigin" in capsys.readouterr().err


@pytest.mark.parametrize("config, loaded", [
    ("bench_mixed4.json", []),
    ("toy.json", ["spotkit.evalharness", "spotkit.optim", "spotkit.toynet"]),
], ids=["mixed4", "toy"])
def test_training_stack_only_for_toynet(config, loaded):
    """Setting up a built-in objective loads no ToyNet training module; a
    ToyNet experiment loads all three."""
    path = os.path.join(REPO, "configs", config)
    out = run_fresh("import sys\nfrom spotkit import cli\n"
                    f"exp = cli.load_experiment({path!r})\n"
                    "cli.build_objective(exp, 1, cli.build_space(exp))\n"
                    "print(sorted(m for m in ('spotkit.evalharness', 'spotkit.toynet',"
                    " 'spotkit.optim') if m in sys.modules))")
    assert out.strip() == str(loaded)


class TestRuntimeErrors:
    """A failure inside a running command is reported with its exception
    class, and with its traceback only when SPOTKIT_DEBUG=1."""

    @pytest.mark.parametrize("debug", [None, "1"])
    @pytest.mark.parametrize("command", ["tune", "bench"])
    def test_class_and_traceback_on_demand(self, command, debug, sphere_config,
                                           tmp_path, monkeypatch, capsys):
        def failing_run(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(tn, "run", failing_run)
        if debug is None:
            monkeypatch.delenv("SPOTKIT_DEBUG", raising=False)
        else:
            monkeypatch.setenv("SPOTKIT_DEBUG", debug)
        argv = [command, "--config", sphere_config, "--out", str(tmp_path / "o")]
        assert main(argv + (["--reps", "1"] if command == "bench" else [])) == 2
        err = capsys.readouterr().err
        assert "error: RuntimeError: boom" in err
        assert ("Traceback (most recent call last)" in err) == (debug == "1")

    def test_bench_out_naming_a_file_exits_2(self, sphere_config, tmp_path,
                                             monkeypatch, capsys):
        # raised after every rep had run, outside the loop's handler: a
        # traceback and the configuration-error exit code 1
        monkeypatch.delenv("SPOTKIT_DEBUG", raising=False)
        out = tmp_path / "bench.csv"
        out.write_text("")
        assert main(["bench", "--config", sphere_config, "--reps", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: FileExistsError: [Errno 17] File exists: "
                                    f"{str(out)!r}"]


# numpy's AVX2 loops and OpenBLAS's Haswell kernels: an older x86-64 CPU,
# emulated in one child process
EMULATED_CPU = {"OPENBLAS_CORETYPE": "Haswell",
                "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def tune_in_children(tmp_path, config, fun_evals, envs, seed=None):
    """Output directories of one tune run per entry of ``envs``: a name and
    the variables changed in that child's environment (None removes one)."""
    outs = []
    for name, changes in envs.items():
        env = dict(os.environ)
        env.pop("SPOTKIT_SEED", None)
        for key, value in changes.items():
            if value is None:
                env.pop(key, None)
            else:
                env[key] = value
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(REPO, "src"), env.get("PYTHONPATH")) if p)
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "spotkit.cli", "tune", "--config",
                        os.path.join(REPO, "configs", config),
                        "--fun-evals", str(fun_evals), "--out", str(out)]
                       + ([] if seed is None else ["--seed", str(seed)]),
                       env=env, check=True, capture_output=True, timeout=300)
        outs.append(out)
    return outs


def tune_at_blas_threads(tmp_path, config, fun_evals, seed=None):
    """Output directories of one tune run with BLAS at one thread and at two."""
    return tune_in_children(
        tmp_path, config, fun_evals,
        {f"threads{t}": {"OPENBLAS_NUM_THREADS": t} for t in ("1", "2")}, seed)


def test_events_independent_of_blas_threads(tmp_path):
    """A short ToyNet tune writes the same events.csv with BLAS at one thread
    and at two: gradient clipping and the net's matrix products must not
    depend on how BLAS splits its work."""
    one, two = tune_at_blas_threads(tmp_path, "toy.json", 15)
    assert (one / "events.csv").read_text() == (two / "events.csv").read_text()


def test_kriging_outputs_independent_of_blas_threads(tmp_path):
    """A mixed4 tune writes the same events.csv and contour grids with BLAS at
    one thread and at two: the surrogate's stacked products (the infill
    search's and the contour export's predictions) must not depend on how
    BLAS splits its work."""
    one, two = tune_at_blas_threads(tmp_path, "bench_mixed4.json", 30)
    names = sorted(p.name for p in one.glob("contour_*.csv"))
    assert names and names == sorted(p.name for p in two.glob("contour_*.csv"))
    for name in ["events.csv", *names]:
        assert (one / name).read_bytes() == (two / name).read_bytes()


def test_long_mixed4_events_independent_of_blas_threads(tmp_path):
    """A 140-evaluation mixed4 tune writes the same events.csv with BLAS at
    one thread and at two, although from 128 rows the Cholesky factor's last
    bits depend on the thread count: the nugget floor keeps R conditioned
    well enough that they do not change a proposal."""
    one, two = tune_at_blas_threads(tmp_path, "bench_mixed4.json", 140, seed=1)
    assert (one / "events.csv").read_bytes() == (two / "events.csv").read_bytes()


def test_mixed4_events_independent_of_cpu_kernels(tmp_path):
    """A 100-evaluation mixed4 tune writes the same events.csv by default and
    under numpy's AVX2 loops with OpenBLAS's Haswell kernels, which give
    other last bits of exp and of the triangular solves."""
    default, emulated = tune_in_children(
        tmp_path, "bench_mixed4.json", 100,
        {"default": {"OPENBLAS_NUM_THREADS": "1", **dict.fromkeys(EMULATED_CPU)},
         "emulated": {"OPENBLAS_NUM_THREADS": "1", **EMULATED_CPU}}, seed=97)
    assert (default / "events.csv").read_bytes() == (emulated / "events.csv").read_bytes()

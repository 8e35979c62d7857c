"""One spotkit command, run in-process with the benchmark's clock hooks.

Usage: python3 perfbench/child.py RESULT_JSON MODE -- SPOTKIT_ARGS...

MODE is one of
  setup  run the command only until its objective is built, then stop;
  run    run the whole command with two light clock hooks (one timestamp per
         evaluation, one per tuner run), the timed run;
  trace  run the whole command with a span around each public call into the
         spotkit modules, aggregated per (parent span, name).

The child imports spotkit from the caller's PYTHONPATH and writes its
measurements to RESULT_JSON. Its exit code is the command's exit code.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

perf_counter = time.perf_counter

# Spans whose durations make up one sequential iteration of the tuner loop.
BLOCKING = ("surrogate.fit", "tuner.suggest_next", "evalharness.objective",
            "tuner.atomic_write", "tuner.events_csv")


class _SetupDone(BaseException):
    """Stops a setup-mode command; BaseException so the CLI cannot swallow it."""


class Clock:
    """Evaluation timestamps and tuner-run segments, kept in every mode."""

    def __init__(self, stop_after_setup: bool):
        self.stop_after_setup = stop_after_setup
        self.setup_end = None
        self.stamps: list[float] = []       # completion time of each evaluation
        self.failed = 0
        self.segments: list[dict] = []      # one per tuner.run / random_search

    def wrap_build_objective(self, build, wrap_objective):
        clock = self

        def build_objective(*args, **kw):
            objective = build(*args, **kw)
            if clock.setup_end is None:
                clock.setup_end = perf_counter()
                if clock.stop_after_setup:
                    raise _SetupDone
            return wrap_objective(objective)
        return build_objective

    def timed_objective(self, objective):
        clock = self

        def timed(config):
            try:
                result = objective(config)
            except Exception:
                clock.failed += 1
                clock.stamps.append(perf_counter())
                raise
            clock.stamps.append(perf_counter())
            if not math.isfinite(float(result.loss)):
                clock.failed += 1
            return result
        return timed

    def wrap_segment(self, fn, kind):
        clock = self

        def segment(*args, **kw):
            first = len(clock.stamps)
            state = fn(*args, **kw)
            clock.segments.append({"kind": kind, "first": first,
                                   "n": len(clock.stamps) - first,
                                   "phases": list(state.phases),
                                   "best": state.best_y})
            return state
        return segment

    def iteration_gaps(self) -> list[tuple[float, float]]:
        """(start, end) of every sequential iteration: the interval between
        consecutive completed evaluations of one tuner run."""
        gaps = []
        for seg in self.segments:
            if seg["kind"] != "run":
                continue
            t = self.stamps[seg["first"]:seg["first"] + seg["n"]]
            phases = seg["phases"][-len(t):] if t else []
            for i in range(1, len(t)):
                if phases[i] == "sequential":
                    gaps.append((t[i - 1], t[i]))
        return gaps


class Tracer:
    """Spans around calls into spotkit, aggregated per (parent, name).

    Hot calls (predict_batch, cholesky, loss_and_grad, optim.step) add to a
    count and a time per parent instead of keeping one record per call, so
    memory stays bounded by the number of distinct (parent, name) pairs.
    """

    def __init__(self):
        self.stack: list[list] = []                 # [name, child seconds]
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, s, self_s, failed]
        self.fit_ms: list[float] = []
        self.fit_n_max = 0
        self.rows = 0                               # predict_batch rows
        self.write_bytes = 0
        self.blocking: list[tuple[float, float]] = []   # (end, seconds) under tuner.run
        self.pending: list[str] = []                # suggested, not yet evaluated
        self.as_suggested = 0
        self.dup_replaced = 0
        self.decode = None                          # unwrapped from_internal

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def wrap(self, fn, name, after=None):
        stack, agg = self.stack, self.agg

        def traced(*args, **kw):
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            failed = 0
            t0 = perf_counter()
            try:
                out = fn(*args, **kw)
            except BaseException:
                failed = 1
                raise
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = agg.get((parent, name))
                if rec is None:
                    rec = agg[(parent, name)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                rec[3] += failed
                if parent == "tuner.run" and name in BLOCKING:
                    self.blocking.append((t1, dur))
                if after is not None:
                    after(args, kw, None if failed else out, dur, parent)
            return out
        return traced

    # -- per-span extras ---------------------------------------------------

    def after_fit(self, args, kw, out, dur, parent):
        self.fit_ms.append(dur * 1e3)
        self.fit_n_max = max(self.fit_n_max, len(args[0]))

    def after_predict_batch(self, args, kw, out, dur, parent):
        X = args[1]
        self.rows += X.shape[0] if getattr(X, "ndim", 2) == 2 else 1

    def after_suggest(self, args, kw, out, dur, parent):
        if out is not None:
            space = args[2]
            self.pending = [_config_key(self.decode(space, c)) for c in out]

    def after_atomic_write(self, args, kw, out, dur, parent):
        self.write_bytes += len(args[1].encode("utf-8"))

    def wrap_objective(self, objective):
        """Objective span; also checks each evaluation against the pending
        suggestion to count proposals replaced before evaluation."""
        traced = self.wrap(objective, "evalharness.objective")
        tracer = self

        def objective_checked(config):
            if tracer.pending and tracer.in_span("tuner.run"):
                if _config_key(config) == tracer.pending.pop(0):
                    tracer.as_suggested += 1
                else:
                    tracer.dup_replaced += 1
            return traced(config)
        return objective_checked

    # -- summary -----------------------------------------------------------

    def total(self, name: str, parent: str | None = None) -> list:
        out = [0, 0.0, 0.0, 0]
        for (p, n), rec in self.agg.items():
            if n == name and (parent is None or p == parent):
                for i in range(4):
                    out[i] += rec[i]
        return out

    def summary(self, gaps) -> dict:
        """Per-layer figures of one traced command."""
        fit = self.total("surrogate.fit")
        chol = self.total("linalg.cholesky", parent="surrogate.fit")
        pb = self.total("surrogate.predict_batch")
        sug = self.total("tuner.suggest_next")
        aw = self.total("tuner.atomic_write")
        obj = self.total("evalharness.objective")
        lag = self.total("toynet.loss_and_grad")
        ostep = self.total("optim.step")
        fi = self.total("searchspace.from_internal")
        contour = self.total("analysis.export_contour")
        seq_fits = self.total("surrogate.fit", parent="tuner.run")
        n_iter = len(gaps)

        # blocking-layer seconds that ended inside each sequential iteration
        blocking_ms, j = [], 0
        ends = sorted(self.blocking)
        for start, end in gaps:
            while j < len(ends) and ends[j][0] <= start:
                j += 1
            s = 0.0
            k = j
            while k < len(ends) and ends[k][0] <= end:
                s += ends[k][1]
                k += 1
            blocking_ms.append(s * 1e3)
        gap_ms = [(e - s) * 1e3 for s, e in gaps]

        def per_call_us(rec):
            return rec[1] / rec[0] * 1e6 if rec[0] else 0.0

        return {
            "surrogate.fit.calls": fit[0],
            "surrogate.fit.s": fit[1],
            "surrogate.fit.ms_p50": _median(self.fit_ms),
            "surrogate.fit.failed": fit[3],
            "surrogate.fit.n_max": self.fit_n_max,
            "surrogate.fit.factorizations": chol[0],
            "surrogate.fit.us_per_factorization": per_call_us(chol),
            "surrogate.fit.chol_share": chol[1] / fit[1] if fit[1] else 0.0,
            "surrogate.predict_batch.calls": pb[0],
            "surrogate.predict_batch.rows": self.rows,
            "surrogate.predict_batch.s": pb[1],
            "surrogate.predict_batch.rows_per_call":
                self.rows / pb[0] if pb[0] else 0.0,
            "tuner.suggest_next.calls": sug[0],
            "tuner.suggest_next.s": sug[1],
            "tuner.suggest_next.self_s": sug[2],
            "tuner.random_fallbacks": seq_fits[3],
            "tuner.dup_replaced": self.dup_replaced,
            "tuner.proposal_yield": self.as_suggested / n_iter if n_iter else 0.0,
            "tuner.atomic_write.calls": aw[0],
            "tuner.atomic_write.s": aw[1],
            "tuner.atomic_write.bytes": self.write_bytes,
            "tuner.events_csv.s": self.total("tuner.events_csv")[1],
            "evalharness.objective.calls": obj[0],
            "evalharness.objective.s": obj[1],
            "evalharness.objective.failed": obj[3],
            "evalharness.epochs": self.total("evalharness.train_one_epoch")[0],
            "toynet.loss_and_grad.calls": lag[0],
            "toynet.loss_and_grad.us_per_call": per_call_us(lag),
            "optim.step.calls": ostep[0],
            "optim.step.us_per_call": per_call_us(ostep),
            "evalharness.train_tuned.s": self.total("evalharness.train_tuned")[1],
            "evalharness.test_tuned.s": self.total("evalharness.test_tuned")[1],
            "searchspace.from_internal.calls": fi[0],
            "searchspace.from_internal.s": fi[1],
            "cli.write_artifacts.s": self.total("cli.write_artifacts")[1],
            "analysis.export_contour.calls": contour[0],
            "analysis.export_contour.s": contour[1],
            "analysis.export_contour.predict_calls":
                self.total("surrogate.predict", parent="analysis.export_contour")[0],
            "design.latin_hypercube.s": self.total("design.latin_hypercube")[1],
            "iter.traced_ms_p50": _median(gap_ms),
            "iter.blocking_ms_p50": _median(blocking_ms),
            "iter.blocking_share":
                sum(blocking_ms) / sum(gap_ms) if gap_ms else 0.0,
        }


def _config_key(config: dict) -> str:
    return json.dumps(config, sort_keys=True)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _install_cholesky(tracer: Tracer) -> None:
    """Count factorizations; must run before spotkit binds any of these."""
    import numpy.linalg
    import scipy.linalg

    numpy.linalg.cholesky = tracer.wrap(numpy.linalg.cholesky, "linalg.cholesky")
    scipy.linalg.cholesky = tracer.wrap(scipy.linalg.cholesky, "linalg.cholesky")
    scipy.linalg.cho_factor = tracer.wrap(scipy.linalg.cho_factor, "linalg.cholesky")


def _install_spans(tracer: Tracer) -> None:
    from spotkit import analysis, cli, design, evalharness, optim, searchspace
    from spotkit import surrogate, toynet, tuner

    w = tracer.wrap
    tracer.decode = searchspace.SearchSpace.from_internal
    surrogate.fit = w(surrogate.fit, "surrogate.fit", tracer.after_fit)
    km = surrogate.KrigingModel
    km.predict_batch = w(km.predict_batch, "surrogate.predict_batch",
                         tracer.after_predict_batch)
    km.predict = w(km.predict, "surrogate.predict")
    tuner.suggest_next = w(tuner.suggest_next, "tuner.suggest_next",
                           tracer.after_suggest)
    tuner.atomic_write = w(tuner.atomic_write, "tuner.atomic_write",
                           tracer.after_atomic_write)
    tuner.events_csv = w(tuner.events_csv, "tuner.events_csv")
    lhs = w(design.latin_hypercube, "design.latin_hypercube")
    design.latin_hypercube = tuner.latin_hypercube = lhs
    evalharness.train_one_epoch = w(evalharness.train_one_epoch,
                                    "evalharness.train_one_epoch")
    evalharness.train_tuned = w(evalharness.train_tuned, "evalharness.train_tuned")
    evalharness.test_tuned = w(evalharness.test_tuned, "evalharness.test_tuned")
    ostep = w(optim.step, "optim.step")
    optim.step = evalharness.step = ostep
    toynet.ToyNet.loss_and_grad = w(toynet.ToyNet.loss_and_grad,
                                    "toynet.loss_and_grad")
    ss = searchspace.SearchSpace
    ss.from_internal = w(ss.from_internal, "searchspace.from_internal")
    cli.write_artifacts = w(cli.write_artifacts, "cli.write_artifacts")
    analysis.export_contour = w(analysis.export_contour, "analysis.export_contour")
    tuner.run = w(tuner.run, "tuner.run")
    tuner.random_search = w(tuner.random_search, "tuner.random_search")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[1] not in ("setup", "run", "trace"):
        print("usage: child.py RESULT_JSON setup|run|trace -- SPOTKIT_ARGS...",
              file=sys.stderr)
        return 64
    result_path, mode, spotkit_args = argv[0], argv[1], argv[3:]
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        _install_cholesky(tracer)

    from spotkit import cli, tuner

    clock = Clock(stop_after_setup=mode == "setup")
    if tracer:
        _install_spans(tracer)
        wrap_objective = lambda f: clock.timed_objective(tracer.wrap_objective(f))  # noqa: E731
    else:
        wrap_objective = clock.timed_objective
    cli.build_objective = clock.wrap_build_objective(cli.build_objective, wrap_objective)
    tuner.run = clock.wrap_segment(tuner.run, "run")
    tuner.random_search = clock.wrap_segment(tuner.random_search, "random")

    try:
        code = cli.main(spotkit_args)
    except _SetupDone:
        code = 0
    t_end = perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    setup_end = clock.setup_end if clock.setup_end is not None else t_end
    gaps = clock.iteration_gaps()
    doc = {
        "exit_code": code,
        "setup_s": setup_end - T_START,
        "tune_s": t_end - setup_end,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "evals": len(clock.stamps),
        "eval_failed": clock.failed,
        "segments": [{k: s[k] for k in ("kind", "n", "best")}
                     for s in clock.segments],
        "iter_ms": [(e - s) * 1e3 for s, e in gaps],
    }
    if tracer:
        doc["layers"] = tracer.summary(gaps)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

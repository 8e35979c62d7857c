"""spotkit benchmark: the user-facing CLI commands as closed-loop workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload toy_tune --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                 # every workload

Each spotkit command runs in its own child process (perfbench/child.py) with
BLAS pinned to one thread, on the one CPU this process pins itself to. A run
with ``--trace 0`` first sets the program up twice, then repeats the workload
command with the same seed (at least twice, then while the next command is
expected to end within ``--seconds``), checks every command's outputs and
prints the end-to-end metrics, scaled to a reference core speed. A run with
``--trace 1`` runs the command once with only the clock hooks and twice
traced, checks that the exact counters repeat and prints the per-layer
metrics. The last line of standard output is one JSON object; the full
record, environment included, goes to ``.perfbench/results/``. See
perfbench/README.md for why each workload exists.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
STATE_DIR = ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 1
HELD_OUT_SEED = 97
SETUP_SAMPLES = 2          # set-up-only children per timed run, besides each command's own
CHILD_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 170.0     # a run must finish well inside the 180 s limit
PROBE_PERIOD_S = 0.1       # the speed probe takes about 2% of the shared core
REF_PROBE_S = 0.002        # probe time on the reference core; timings are scaled to it

TUNE_ARTIFACTS = ("run_state.json", "events.csv", "results.csv", "progress.csv",
                  "importance.csv", "parallel.csv")

# name -> spotkit arguments (before --seed/--out), evaluation budget, files.
# toy_tune keeps the config's own tuner seed: its training work follows the
# trajectory (4.0-9.3 s of tuning over seeds 1-5), which no run-length can
# average out; the mixed4 workloads do a seed-independent amount of work.
WORKLOADS = {
    "toy_tune": {
        "args": ["tune", "--config", "configs/toy.json"],
        "seeded": False,
        "evals": 30,
        "artifacts": TUNE_ARTIFACTS + ("tuned_model.json",),
    },
    "mixed4_bench": {
        "args": ["bench", "--config", "configs/bench_mixed4.json", "--reps", "5"],
        "seeded": True,
        "reps": 5,
        "evals": 5 * 40 * 2,          # each rep: 40 tuner + 40 random evaluations
        "artifacts": (),
    },
    "mixed4_long": {
        "args": ["tune", "--config", "configs/bench_mixed4.json", "--fun-evals", "100"],
        "seeded": True,
        "evals": 100,
        "artifacts": TUNE_ARTIFACTS,
    },
}

END_TO_END_UNITS = {
    "setup_s": "s", "tune_s": "s", "cpu_s": "s",
    "iter_ms_p50": "ms", "iter_ms_p90": "ms", "peak_rss_mb": "MB",
}

# Counters that must repeat exactly across two traced commands of one seed.
EXACT_COUNTERS = (
    "surrogate.fit.calls", "surrogate.fit.factorizations",
    "surrogate.predict_batch.calls", "surrogate.predict_batch.rows",
    "toynet.loss_and_grad.calls", "optim.step.calls", "evalharness.epochs",
    "tuner.atomic_write.calls", "searchspace.from_internal.calls",
    "evalharness.objective.calls",
)


# -- environment -----------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPOTKIT_SEED", None)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def loadavg() -> list[float]:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return [math.nan] * 3


def source_digest(*roots: str) -> str:
    h = hashlib.sha256()
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    """What must match for two result sets to be comparable (plus identity)."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy\n"
         "b = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
         "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
         " 'blas': '%s %s' % (b.get('name'), b.get('version'))}))"],
        capture_output=True, text=True, env=child_env(), timeout=60)
    libs = json.loads(probe.stdout) if probe.returncode == 0 else {}
    return {
        "commit": git_commit(),
        "source_digest": source_digest("src", "configs"),
        "benchmark_digest": source_digest(HERE),
        "python": platform.python_version(),
        "numpy": libs.get("numpy"),
        "scipy": libs.get("scipy"),
        "blas": libs.get("blas"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
    }


# -- one child command -------------------------------------------------------------

def probe() -> float:
    """Seconds for a fixed slice of interpreter work (about 2 ms)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_child(mode: str, argv: list[str], workdir: str, deadline: float) -> dict:
    """Run one child to completion, probing the speed of the shared core.

    The benchmark process and its children are pinned to one CPU. While the
    child runs, the parent times ``probe()`` every PROBE_PERIOD_S on that
    same CPU, so ``speed`` (REF_PROBE_S over the median probe) tracks how
    fast the core ran for this command.
    """
    os.makedirs(workdir, exist_ok=True)
    result = os.path.join(workdir, "result.json")
    stdout = os.path.join(workdir, "stdout.txt")
    stderr = os.path.join(workdir, "stderr.txt")
    stop = time.monotonic() + max(5.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    probes = []
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        proc = subprocess.Popen([sys.executable, CHILD, result, mode, "--", *argv],
                                stdout=out, stderr=err, env=child_env())
        try:
            while proc.poll() is None and time.monotonic() < stop:
                probes.append(probe())
                time.sleep(PROBE_PERIOD_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            code = proc.wait()
    doc = {}
    if code != -signal.SIGKILL and os.path.exists(result):
        with open(result, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["exit_code"] = "timeout" if code == -signal.SIGKILL else code
    doc["workdir"] = workdir
    doc["speed"] = REF_PROBE_S / statistics.median(probes) if probes else 1.0
    with open(stdout, encoding="utf-8", errors="replace") as fh:
        doc["stdout"] = fh.read()
    with open(stderr, encoding="utf-8", errors="replace") as fh:
        doc["stderr_tail"] = fh.read()[-2000:]
    return doc


def command_argv(workload: str, seed: int, out_dir: str) -> list[str]:
    spec = WORKLOADS[workload]
    argv = spec["args"] + (["--seed", str(seed)] if spec["seeded"] else [])
    if argv[0] == "tune":
        argv += ["--out", out_dir]
    return argv


def gate(workload: str, doc: dict, reference: dict | None) -> list[str]:
    """Correctness problems of one finished command (empty list: passed)."""
    spec = WORKLOADS[workload]
    problems = []
    if doc["exit_code"] != 0:
        return [f"exit code {doc['exit_code']}: {doc.get('stderr_tail', '')[-300:]}"]
    if doc.get("evals") != spec["evals"]:
        problems.append(f"{doc.get('evals')} evaluations, budget {spec['evals']}")
    segments = doc.get("segments", [])
    if spec["args"][0] == "bench":
        kinds = [s["kind"] for s in segments]
        if kinds != ["run", "random"] * spec["reps"] or any(s["n"] != 40 for s in segments):
            problems.append(f"bench segments {[(s['kind'], s['n']) for s in segments]}")
        if reference is not None and doc["stdout"] != reference["stdout"]:
            problems.append("bench table differs from the first command of this seed")
        return problems
    if [s["n"] for s in segments] != [spec["evals"]]:
        problems.append(f"tuner segments {segments}")
    out_dir = os.path.join(doc["workdir"], "out")
    missing = [f for f in spec["artifacts"] if not os.path.exists(os.path.join(out_dir, f))]
    if missing:
        problems.append(f"missing artifacts {missing}")
    try:
        with open(os.path.join(out_dir, "events.csv"), "rb") as fh:
            events = fh.read()
    except OSError:
        events = None
    doc["events_sha256"] = hashlib.sha256(events or b"").hexdigest()
    lines = events.count(b"\n") if events is not None else 0
    if lines != spec["evals"] + 1:
        problems.append(f"events.csv has {lines} lines")
    if reference is not None and doc["events_sha256"] != reference.get("events_sha256"):
        problems.append("events.csv differs from the first command of this seed")
    return problems


# -- statistics ----------------------------------------------------------------------

def quality(workload: str, doc: dict) -> dict:
    """Tuning-quality figures of one command; deterministic per seed."""
    runs = [s["best"] for s in doc["segments"] if s["kind"] == "run"]
    randoms = [s["best"] for s in doc["segments"] if s["kind"] == "random"]
    out = {"best_loss": statistics.median(runs)}
    if randoms:
        out["wins_vs_random"] = sum(1 for s, r in zip(runs, randoms) if s < r)
        out["reps"] = len(runs)
    for line in doc["stdout"].splitlines():
        if "test accuracy" in line:
            out["test_accuracy"] = float(line.rsplit(" ", 1)[1])
    return out


# -- runs ------------------------------------------------------------------------------

def timed_run(workload: str, seed: int, seconds: float, work: str) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup_argv = command_argv(workload, seed, os.path.join(work, "setup"))
    setups = [run_child("setup", setup_argv, os.path.join(work, f"setup{i}"), deadline)
              for i in range(SETUP_SAMPLES)]
    problems = [f"setup {i}: exit code {d['exit_code']}"
                for i, d in enumerate(setups) if d["exit_code"] != 0]
    commands = []
    started = last = time.monotonic()
    # at least two commands (determinism check), then only while the next one
    # is expected to end inside the measuring window
    while len(commands) < 2 or 2 * time.monotonic() - last - started <= seconds:
        wd = os.path.join(work, f"cmd{len(commands)}")
        last = time.monotonic()
        doc = run_child("run", command_argv(workload, seed, os.path.join(wd, "out")),
                        wd, deadline)
        doc["problems"] = gate(workload, doc, commands[0] if commands else None)
        problems += [f"command {len(commands)}: {p}" for p in doc["problems"]]
        commands.append(doc)
        if time.monotonic() > deadline - 30:
            break
    good = [d for d in commands if not d["problems"]]
    timed = [d for d in setups if d["exit_code"] == 0] + good
    samples = {
        "setup_s": [d["setup_s"] * d["speed"] for d in timed],
        "tune_s": [d["tune_s"] * d["speed"] for d in good],
        "cpu_s": [d["cpu_s"] * d["speed"] for d in good],
        "peak_rss_mb": [d["peak_rss_mb"] for d in good],
        # one value per sequential iteration: its median over the run's
        # commands, which all repeat the same iterations (same seed)
        "iter_ms": [statistics.median(reps) for reps in zip(
            *([g * d["speed"] for g in d["iter_ms"]] for d in good))],
        "speed": [d["speed"] for d in timed],
        "raw_tune_s": [d["tune_s"] for d in good],
    }
    metrics, counts = {}, {}
    for name in ("setup_s", "tune_s", "cpu_s", "peak_rss_mb"):
        if samples[name]:
            metrics[name] = statistics.median(samples[name])
            counts[name] = len(samples[name])
    if samples["iter_ms"]:
        metrics["iter_ms_p50"] = statistics.median(samples["iter_ms"])
        metrics["iter_ms_p90"] = statistics.quantiles(
            samples["iter_ms"], n=10, method="inclusive")[-1]
        counts["iter_ms_p50"] = counts["iter_ms_p90"] = len(samples["iter_ms"])
    attempted = sum(d.get("evals") or WORKLOADS[workload]["evals"] for d in commands)
    failed = sum(d.get("evals") or WORKLOADS[workload]["evals"]
                 for d in commands if d["problems"])
    failed += sum(d.get("eval_failed", 0) for d in good)
    info = quality(workload, good[0]) if good else {}
    if good:
        info["eval_fail_ratio"] = sum(d["eval_failed"] for d in good) / sum(
            d["evals"] for d in good)
    info["commands"] = len(commands)
    if good:
        info["raw_tune_s"] = statistics.median(samples["raw_tune_s"])
        info["core_speed"] = statistics.median(samples["speed"])
    return {"metrics": metrics, "counts": counts, "info": info, "problems": problems,
            "attempted": attempted, "failed": failed,
            "samples": {k: v for k, v in samples.items() if k != "iter_ms"}}


def traced_run(workload: str, seed: int, work: str) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    docs = []
    for i, mode in enumerate(("run", "trace", "trace")):
        wd = os.path.join(work, f"{mode}{i}")
        doc = run_child(mode, command_argv(workload, seed, os.path.join(wd, "out")),
                        wd, deadline)
        doc["problems"] = gate(workload, doc, docs[0] if docs else None)
        docs.append(doc)
    problems = [f"command {i} ({'traced' if i else 'untraced'}): {p}"
                for i, d in enumerate(docs) for p in d["problems"]]
    traced = [d for d in docs[1:] if not d["problems"] and "layers" in d]
    metrics = {}
    if len(traced) == 2 and not docs[0]["problems"]:
        a, b = traced[0]["layers"], traced[1]["layers"]
        for name in EXACT_COUNTERS:
            if a[name] != b[name]:
                problems.append(f"counter {name} differs across traced runs: "
                                f"{a[name]} vs {b[name]}")
        metrics = {name: (a[name] + b[name]) / 2 for name in a}
        untraced = docs[0]
        traced_tune = statistics.mean(d["tune_s"] * d["speed"] for d in traced)
        metrics["trace.tune_s"] = traced_tune
        metrics["trace.overhead_s"] = traced_tune - untraced["tune_s"] * untraced["speed"]
        metrics["iter.untraced_ms_p50"] = (statistics.median(untraced["iter_ms"])
                                           if untraced["iter_ms"] else 0.0)
    attempted = sum(d.get("evals") or WORKLOADS[workload]["evals"] for d in docs)
    failed = sum(d.get("evals") or WORKLOADS[workload]["evals"]
                 for d in docs if d["problems"])
    failed += sum(d.get("eval_failed", 0) for d in docs if not d["problems"])
    return {"metrics": metrics, "counts": {}, "info": {}, "problems": problems,
            "attempted": attempted, "failed": failed}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    last = name.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last.startswith("ms_") or last.endswith("_ms_p50"):
        return "ms"
    if last.startswith("us_"):
        return "us"
    if last in ("chol_share", "proposal_yield", "blocking_share", "rows_per_call"):
        return "ratio"
    if last == "bytes":
        return "bytes"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tag = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work = os.path.join(STATE_DIR, "work", tag)
    load_before = loadavg()
    try:
        res = traced_run(workload, seed, work) if trace else timed_run(
            workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    res.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
               load_before=load_before, load_after=loadavg())
    return res


def print_table(res: dict) -> None:
    print(f"# {res['workload']} seed={res['seed']} trace={int(res['trace'])} "
          f"load={res['load_before'][0]:.2f}->{res['load_after'][0]:.2f}")
    for name, value in res["metrics"].items():
        n = res["counts"].get(name)
        print(f"  {name:44s} {value:14.6g} {unit_of(name):6s}"
              + (f" n={n}" if n is not None else ""))
    for name, value in res["info"].items():
        print(f"  {name:44s} {value!s:>14} (quality/info, not gated)")
    for p in res["problems"]:
        print(f"  GATE FAILED: {p}")


def save(results: list[dict], env: dict) -> str:
    os.makedirs(os.path.join(STATE_DIR, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    names = "+".join(sorted({r["workload"] for r in results}))
    path = os.path.join(STATE_DIR, "results",
                        f"{stamp}-{names}-seed{results[0]['seed']}-"
                        f"trace{int(results[0]['trace'])}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "results": results}, fh, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = ["src/spotkit/cli.py", "configs/toy.json", "configs/bench_mixed4.json"]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: run from a spotkit checkout; missing {missing}", file=sys.stderr)
        return 2

    env = environment()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(res)
        results.append(res)
    env["load_before"] = results[0]["load_before"]
    env["load_after"] = results[-1]["load_after"]
    print(f"# environment {json.dumps(env)}")
    print(f"# full record: {save(results, env)}")

    problems = [p for r in results for p in r["problems"]]
    if problems:
        print(f"error: {len(problems)} correctness-gate failure(s)", file=sys.stderr)
    prefix = len(results) > 1
    metrics = {}
    for r in results:
        for name, value in r["metrics"].items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit_of(name)}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare the tuning quality of the working tree with a git revision.

    python3 tools/quality.py REV [REPS]

Extracts REV into a temporary directory (``git archive``) and runs
``spotkit bench`` on each row's config with both source trees, in child
processes with ``OPENBLAS_NUM_THREADS=1``, REPS reps (20 by default) at
bench seeds 1 and 97. Give more reps when a row leans one way.
The rows are ``configs/bench_mixed4.json`` (40 evaluations), ``mixed4_long``
and ``mixed4_300``, the same at 150 and 300 evaluations from derived configs
written into the temporary directory, so that their fits pass 40 distinct
rows, from which a warm fit keeps its start and a refresh searches warm
(10 per mixed4 dimension), and ``configs/toy.json``.
The child runs the ``bench`` command itself and records the best loss of
every tuned and every random-search run, so the rep seeds are derived as
``bench`` derives them and the pairs share their seeds across the trees.
The two trees run side by side, one process each.

Per row and seed it prints:
- the pairs the working tree wins, loses and ties against REV on the tuned
  run's best loss;
- each side's median log10 best loss;
- each side's wins of the tuned run over random search at equal
  evaluations;
- each side's total training epochs over its tuned runs (calls of
  ``evalharness.train_one_epoch``, 0 on an objective without training), so
  that a change which moves the search towards costlier configurations
  shows before the benchmark runs;
- each side's runtime of the row's child process, in seconds;
- a verdict, "better", "worse" or "same", from an exact two-sided sign
  test at 0.05 over the non-tied pairs.

Exits 1 when a run fails or a verdict is "worse", 0 otherwise. The
temporary directory is removed in either case.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

from same_outputs import ROOT, extract

# derived configs at these evaluation budgets; main() writes them
DERIVED = {"mixed4_long": 150, "mixed4_300": 300}
ROWS = {"mixed4": "configs/bench_mixed4.json",
        **{name: f"{name}.json" for name in DERIVED},
        "toy": "configs/toy.json"}
SEEDS = (1, 97)
DEFAULT_REPS = 20
ALPHA = 0.05

# records the best loss of each run that ``bench`` makes and the training
# epochs of the tuned runs, then prints them as the last line of stdout
CHILD = """
import json, sys, time
started = time.perf_counter()
from spotkit import cli, evalharness, tuner as tn

best = {"spot": [], "random": [], "epochs": 0}
calls = [0]
train_one_epoch = evalharness.train_one_epoch

def counted(*args, **kw):
    calls[0] += 1
    return train_one_epoch(*args, **kw)

def recorded(fn, key):
    def call(*args, **kw):
        before = calls[0]
        state = fn(*args, **kw)
        best[key].append(state.best_y)
        if key == "spot":
            best["epochs"] += calls[0] - before
        return state
    return call

evalharness.train_one_epoch = counted

tn.run = recorded(tn.run, "spot")
tn.random_search = recorded(tn.random_search, "random")
code = cli.main(["bench", "--config", sys.argv[1], "--reps", sys.argv[2],
                 "--seed", sys.argv[3]])
print(json.dumps(dict(best, code=code, seconds=time.perf_counter() - started)))
"""


def write_derived(tmp: str) -> None:
    with open(os.path.join(ROOT, ROWS["mixed4"]), encoding="utf-8") as fh:
        exp = json.load(fh)
    for name, fun_evals in DERIVED.items():
        exp["tuner"]["fun_evals"] = fun_evals
        with open(os.path.join(tmp, ROWS[name]), "w", encoding="utf-8") as fh:
            json.dump(exp, fh)


def start(tree: str, config: str, seed: int, reps: int) -> subprocess.Popen:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(tree, "src"))
    env.pop("SPOTKIT_SEED", None)
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, config, str(reps), str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)


def finish(proc: subprocess.Popen, reps: int) -> dict | None:
    """The child's best losses, or None (with its stderr shown) on failure."""
    out, err = proc.communicate()
    lines = out.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or result["code"] != 0 or len(result["spot"]) != reps:
        sys.stderr.write(err)
        return None
    return result


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided sign test p-value of ``wins`` against ``losses``."""
    n = wins + losses
    k = min(wins, losses)
    return min(1.0, 2.0 * sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n)


def median_log10(values: list[float]) -> float:
    return statistics.median(math.log10(v) if v > 0 else -math.inf for v in values)


def spot_wins(result: dict) -> int:
    return sum(1 for s, r in zip(result["spot"], result["random"]) if s < r)


def report(name: str, seed: int, old: dict, new: dict) -> tuple[str, str]:
    """The verdict and the printed line of one row and seed."""
    pairs = list(zip(new["spot"], old["spot"]))
    wins = sum(1 for n, o in pairs if n < o)
    losses = sum(1 for n, o in pairs if n > o)
    p = sign_test(wins, losses)
    verdict = "same" if p >= ALPHA else "better" if wins > losses else "worse"
    line = (f"{name} seed {seed}: {verdict} (p = {p:.3g}); "
            f"{wins} won, {losses} lost, {len(pairs) - wins - losses} tied; "
            f"median log10 best {median_log10(new['spot']):.3f} "
            f"(rev {median_log10(old['spot']):.3f}); "
            f"beats random {spot_wins(new)}/{len(pairs)} "
            f"(rev {spot_wins(old)}/{len(pairs)}); "
            f"training epochs {new['epochs']} (rev {old['epochs']}); "
            f"runtime {new['seconds']:.1f} s (rev {old['seconds']:.1f} s)")
    return verdict, line


def main(argv: list[str]) -> int:
    reps = argv[1] if len(argv) == 2 else str(DEFAULT_REPS)
    if len(argv) not in (1, 2) or not reps.isdigit() or int(reps) < 1:
        print("usage: quality.py REV [REPS]", file=sys.stderr)
        return 64
    reps = int(reps)
    ok = True
    with tempfile.TemporaryDirectory(prefix="quality_") as tmp:
        rev = os.path.join(tmp, "rev")
        extract(argv[0], rev)
        write_derived(tmp)
        for name, config in ROWS.items():
            for seed in SEEDS:
                paths = [os.path.join(tree, config) if config.startswith("configs/")
                         else os.path.join(tmp, config) for tree in (rev, ROOT)]
                old, new = [finish(proc, reps) for proc in
                            [start(tree, path, seed, reps)
                             for tree, path in zip((rev, ROOT), paths)]]
                if old is None or new is None:
                    print(f"{name} seed {seed}: failed", flush=True)
                    ok = False
                    continue
                verdict, line = report(name, seed, old, new)
                ok = ok and verdict != "worse"
                print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Check that the working tree writes the same outputs as a git revision.

    python3 tools/same_outputs.py REV

Extracts REV into a temporary directory (``git archive``), runs the
reference commands below against both source trees with
``OPENBLAS_NUM_THREADS=1``, and compares, per command, the exit code, the
printed output (stdout and stderr) and every artifact byte for byte.
``run_state.json`` holds wall-clock timings in its ``elapsed`` column, so it
is compared as raw bytes with only the numbers inside ``"elapsed": [...]``
masked; key order, separators, float ``repr`` and the spelling ``NaN`` are
compared as written. Ten commands run derived configs
written into the temporary directory: ``tune_toy_cv`` runs
``configs/toy.json`` under 2-3-fold cross validation, ``tune_toy_test``
runs it validating on the explicit test split (``test_hold_out``),
``tune_toy_test_cv`` cross-validates it on the test split (``test_cv``),
``tune_mixed4_noise`` runs ``configs/bench_mixed4.json`` with a fitted
nugget, two points per iteration and two repeats per point,
``tune_mixed4_points4`` with four points per iteration, so the infill search
runs four Nelder-Mead starts and de-duplicates a four-point batch, and
``tune_mixed4_repeats`` noise-free with two repeats of every design point
and every proposal, so each fit averages repeated rows.
``tune_constant`` runs ``configs/toy.json``'s space on an ``external:``
objective that prints the loss 1.0 every time, so no surrogate can be
fitted: every proposal is random and the artifacts hold zero importance
and no contours. ``tune_all_failed`` runs it on ``external:false``, every
evaluation of which fails; it is expected to exit 2. ``tune_some_failed``
runs it for 20 evaluations on an ``external:`` objective that fails
whenever ``l1`` exceeds 32 and otherwise prints ``l1 / 128 + epochs / 16``,
so the run stores failure penalties among successful losses (three of them
in its initial design); against a revision whose penalties still compound
it is expected to differ.
``resume_mixed4`` is two steps in one output directory, a 20-evaluation
``tune`` and a ``resume`` to 30, and ``resume_mixed4_warm`` the same from a
23-evaluation ``tune``, so that the resumed session's first surrogate fit is
warm (started from the parameters ``run_state.json`` keeps) where
``resume_mixed4``'s is cold. ``resume_mixed4_long`` tunes 45 evaluations and
resumes to 60, past the 40 distinct rows (10 per mixed4 dimension) from
which a warm fit keeps the persisted parameters without a search.
``resume_mixed4_noise`` tunes the derived noise config for 20 evaluations
at seed 3 and resumes to 30, so the persisted ``params`` hold a searched
log10 nugget and the resumed session's first fit starts warm from it. The
printed output of each step and the final artifacts are compared. Prints
one line per command and exits 1 on any difference or on a step that exits
other than expected (0, or the command's ``EXIT_CODES`` entry), 0
otherwise. Under a command's line, each CSV artifact that differs gets the
first line that differs, from REV and from the working tree, and the
largest relative and absolute differences of the numeric cells in the lines
both have, so a change in the last digits can be told from another
trajectory (a value near zero can move by much of itself and little in
absolute terms). The temporary directories are removed in either case.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIXED4 = "configs/bench_mixed4.json"
# derived configs; main() writes them into each side's working directory
TOY_CV = "toy_cv.json"
TOY_TEST = "toy_test.json"
TOY_TEST_CV = "toy_test_cv.json"
MIXED4_NOISE = "mixed4_noise.json"
MIXED4_POINTS4 = "mixed4_points4.json"
MIXED4_REPEATS = "mixed4_repeats.json"
TOY_CONSTANT = "toy_constant.json"
TOY_ALL_FAILED = "toy_all_failed.json"
TOY_SOME_FAILED = "toy_some_failed.json"
SOME_FAILED_OBJECTIVE = (
    "external:python3 -c \"import json, sys; c = json.load(sys.stdin)['config']; "
    "c['l1'] > 32 and sys.exit(1); "
    "print(json.dumps({'loss': c['l1'] / 128 + c['epochs'] / 16}))\"")
# each command is a list of steps run in turn with the same --out directory
COMMANDS = {
    "tune_toy": [["tune", "--config", "configs/toy.json"]],
    "tune_toy_cv": [["tune", "--config", TOY_CV, "--fun-evals", "15"]],
    "tune_toy_test": [["tune", "--config", TOY_TEST, "--fun-evals", "15"]],
    "tune_toy_test_cv": [["tune", "--config", TOY_TEST_CV, "--fun-evals", "15"]],
    "tune_mixed4": [["tune", "--config", MIXED4]],
    "tune_mixed4_noise": [["tune", "--config", MIXED4_NOISE, "--seed", "3"]],
    "tune_mixed4_points4": [["tune", "--config", MIXED4_POINTS4, "--fun-evals", "40"]],
    "tune_mixed4_repeats": [["tune", "--config", MIXED4_REPEATS, "--fun-evals", "40"]],
    "tune_constant": [["tune", "--config", TOY_CONSTANT, "--fun-evals", "14"]],
    "tune_all_failed": [["tune", "--config", TOY_ALL_FAILED, "--fun-evals", "14"]],
    "tune_some_failed": [["tune", "--config", TOY_SOME_FAILED, "--fun-evals", "20"]],
    "tune_mixed4_100_s1": [["tune", "--config", MIXED4, "--fun-evals", "100", "--seed", "1"]],
    "tune_mixed4_100_s97": [["tune", "--config", MIXED4, "--fun-evals", "100", "--seed", "97"]],
    "bench_mixed4_s1": [["bench", "--config", MIXED4, "--reps", "5", "--seed", "1"]],
    "bench_mixed4_s97": [["bench", "--config", MIXED4, "--reps", "5", "--seed", "97"]],
    "resume_mixed4": [["tune", "--config", MIXED4, "--fun-evals", "20", "--seed", "1"],
                      ["resume", "--fun-evals", "30"]],
    "resume_mixed4_warm": [["tune", "--config", MIXED4, "--fun-evals", "23", "--seed", "1"],
                           ["resume", "--fun-evals", "30"]],
    "resume_mixed4_long": [["tune", "--config", MIXED4, "--fun-evals", "45", "--seed", "1"],
                           ["resume", "--fun-evals", "60"]],
    "resume_mixed4_noise": [["tune", "--config", MIXED4_NOISE, "--fun-evals", "20",
                             "--seed", "3"],
                            ["resume", "--fun-evals", "30"]],
}
# the exit code of each step of a command that is not expected to exit 0
EXIT_CODES = {"tune_all_failed": 2}


def write_derived(work: str) -> None:
    def load(name: str) -> dict:
        with open(os.path.join(ROOT, "configs", name), encoding="utf-8") as fh:
            return json.load(fh)

    toy_cv = load("toy.json")
    toy_cv["eval"] = "train_cv"
    toy_cv["modify"]["bounds"]["k_folds"] = [2, 3]
    toy_test = dict(load("toy.json"), eval="test_hold_out")
    toy_test_cv = dict(toy_cv, eval="test_cv")
    mixed4_noise = load("bench_mixed4.json")
    mixed4_noise["tuner"] = {"fun_evals": 30, "n_points": 2, "fun_repeats": 2}
    mixed4_noise["surrogate"] = {"noise": True, "model_fun_evals": 300}
    mixed4_points4 = load("bench_mixed4.json")
    mixed4_points4["tuner"]["n_points"] = 4
    mixed4_repeats = load("bench_mixed4.json")
    mixed4_repeats["tuner"]["fun_repeats"] = 2
    mixed4_repeats["design"]["repeats"] = 2
    toy_constant = dict(load("toy.json"), objective="""external:echo '{"loss": 1.0}'""")
    toy_all_failed = dict(load("toy.json"), objective="external:false")
    toy_some_failed = dict(load("toy.json"), objective=SOME_FAILED_OBJECTIVE)
    for name, exp in ((TOY_CV, toy_cv), (TOY_TEST, toy_test), (TOY_TEST_CV, toy_test_cv),
                      (MIXED4_NOISE, mixed4_noise), (MIXED4_POINTS4, mixed4_points4),
                      (MIXED4_REPEATS, mixed4_repeats), (TOY_CONSTANT, toy_constant),
                      (TOY_ALL_FAILED, toy_all_failed), (TOY_SOME_FAILED, toy_some_failed)):
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            json.dump(exp, fh)


def extract(rev: str, dest: str) -> None:
    tar = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, filter="data")


def untimed_state(data: bytes) -> bytes:
    """``run_state.json`` as written, each number of its ``elapsed`` column
    replaced by ``#``. The column is the last ``"elapsed": [`` in the file:
    only ``params``, whose entries are numbers and ``null``, follows it."""
    start = data.rfind(b'"elapsed": [')
    if start < 0:
        return data
    start += len(b'"elapsed": [')
    end = data.index(b"]", start)
    return data[:start] + re.sub(rb"[^,\s]+", b"#", data[start:end]) + data[end:]


def run(tree: str, work: str, name: str, steps: list[list[str]]) -> dict[str, bytes]:
    """Run one command's steps from ``tree`` with their outputs in
    ``work/name``; the printed output of each step (keys ``<exit code>``,
    ``<stdout>``, ``<stderr>``, numbered from the second step on) and the
    final artifacts, keyed by relative path, ``run_state.json`` untimed."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(tree, "src"))
    env.pop("SPOTKIT_SEED", None)
    env.pop("SPOTKIT_DEBUG", None)
    files = {}
    for i, argv in enumerate(steps):
        argv = [a if not a.startswith("configs/") else os.path.join(tree, a) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "spotkit.cli", *argv, "--out", name],
                              cwd=work, capture_output=True, env=env)
        tag = f" {i + 1}" if i else ""
        files.update({f"<exit code{tag}>": str(proc.returncode).encode(),
                      f"<stdout{tag}>": proc.stdout, f"<stderr{tag}>": proc.stderr})
    out_dir = os.path.join(work, name)
    for dirpath, _, names in os.walk(out_dir):
        for fn in names:
            path = os.path.join(dirpath, fn)
            with open(path, "rb") as fh:
                data = fh.read()
            files[os.path.relpath(path, out_dir)] = (
                untimed_state(data) if fn == "run_state.json" else data)
    return files


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def relative_difference(a: float, b: float) -> float:
    """``|a - b| / max(|a|, |b|)``: 0 for equal values (NaN equals NaN here),
    inf when only one is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def csv_difference(old: bytes, new: bytes) -> list[str]:
    """How two different CSV files differ: the first line that differs
    (1-based) on each side, and the largest relative and absolute
    differences of the numeric cells at the same line and column, over the
    lines both have."""
    old_lines = old.decode("utf-8", "replace").splitlines()
    new_lines = new.decode("utf-8", "replace").splitlines()
    first = next((i for i, (a, b) in enumerate(zip(old_lines, new_lines)) if a != b),
                 min(len(old_lines), len(new_lines)))
    largest = absolute = 0.0
    for a_row, b_row in zip(csv.reader(old_lines), csv.reader(new_lines)):
        for a, b in zip(a_row, b_row):
            a, b = _float(a), _float(b)
            if a is not None and b is not None:
                largest = max(largest, relative_difference(a, b))
                absolute = max(absolute, 0.0 if a == b else abs(a - b))
    old_line, new_line = (lines[first] if first < len(lines) else "<no line>"
                          for lines in (old_lines, new_lines))
    return [f"first differing line {first + 1}:", f"  rev:  {old_line}",
            f"  tree: {new_line}",
            f"largest difference of numeric cells: relative {largest:.3g},"
            f" absolute {absolute:.3g}"]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: same_outputs.py REV", file=sys.stderr)
        return 64
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        base = os.path.join(tmp, "rev")
        extract(argv[0], base)
        trees = ((base, os.path.join(tmp, "work_rev")),
                 (ROOT, os.path.join(tmp, "work_tree")))
        for _, work in trees:
            os.makedirs(work)
            write_derived(work)
        ok = True
        for name, command in COMMANDS.items():
            old, new = [run(tree, work, name, command) for tree, work in trees]
            differ = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
            want = str(EXIT_CODES.get(name, 0)).encode()
            failed = any(k.startswith("<exit code") and v != want
                         for files in (old, new) for k, v in files.items())
            ok = ok and not differ and not failed
            n_artifacts = sum(1 for k in new if not k.startswith("<"))
            verdict = ("differ: " + ", ".join(differ) if differ
                       else "failed (identical)" if failed
                       else f"identical ({n_artifacts} artifacts)")
            print(f"{name}: {verdict}", flush=True)
            for key in differ:
                if key.endswith(".csv") and key in old and key in new:
                    print(f"  {key}:")
                    for line in csv_difference(old[key], new[key]):
                        print(f"    {line}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

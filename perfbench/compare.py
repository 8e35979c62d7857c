"""Compare two sets of benchmark results, refusing mismatched environments.

Usage (from the repository root):

    python3 perfbench/compare.py --base .perfbench/results/A*.json \
                                 --new .perfbench/results/B*.json

Each file is one record written by perfbench/run.py. For every workload and
end-to-end metric the script prints each side's median and quartiles over
its runs, the change of the median, and a verdict against the bound in
BENCHMARK.json. It exits with code 3, printing nothing else, when the runs
were measured in different environments (benchmark code, library versions,
BLAS, CPU count, pinned thread variables) or differ in whether the machine
was busy (1-minute load at or above the CPU count before the run). Commits
and source digests may differ: comparing them is the point.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ENV_KEYS = ("benchmark_digest", "python", "numpy", "scipy", "blas", "nproc", "threads")


def load_side(paths: list[str]) -> tuple[dict, dict]:
    """(environment fingerprint, {(workload, metric): [run values]})."""
    fingerprints, values = set(), {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        env = doc["environment"]
        for res in doc["results"]:
            busy = res["load_before"][0] >= env["nproc"]
            fingerprints.add(json.dumps([env.get(k) for k in ENV_KEYS] + [busy]))
            if res["trace"] or res["problems"]:
                continue
            for name, value in res["metrics"].items():
                values.setdefault((res["workload"], name), []).append(value)
    return fingerprints, values


def quartiles(v: list[float]) -> tuple[float, float, float]:
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result sets")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--spec", default="BENCHMARK.json")
    args = parser.parse_args(argv)

    base_env, base = load_side(args.base)
    new_env, new = load_side(args.new)
    envs = base_env | new_env
    if len(envs) != 1:
        print("refused: the result sets come from different environments or "
              "machine load:", file=sys.stderr)
        for fp in sorted(envs):
            print(f"  {dict(zip(ENV_KEYS + ('busy',), json.loads(fp)))}", file=sys.stderr)
        return 3

    bounds, better = {}, {}
    if os.path.exists(args.spec):
        with open(args.spec, encoding="utf-8") as fh:
            for m in json.load(fh)["end_to_end"]:
                bounds[m["name"]], better[m["name"]] = m["bound"], m["better"]

    print(f"{'workload':14s} {'metric':12s} {'base median [q1,q3]':>30s} "
          f"{'new median [q1,q3]':>30s} {'change':>8s}  verdict")
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        b1, bm, b3 = quartiles(base[key])
        n1, nm, n3 = quartiles(new[key])
        change = (nm - bm) / bm if bm else 0.0
        worse = change if better.get(name, "lower") == "lower" else -change
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif (b3 - b1) / bm > bound:
            verdict = "unresolved (base spread above bound)"
        elif worse > bound:
            verdict = "WORSE beyond bound"
        else:
            verdict = "within bound"
        print(f"{workload:14s} {name:12s} {bm:12.5g} [{b1:.5g},{b3:.5g}]".ljust(58)
              + f" {nm:12.5g} [{n1:.5g},{n3:.5g}]".ljust(31)
              + f" {change:+8.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

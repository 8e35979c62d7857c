"""Check that tier-1 passes and fails the same tests on emulated older CPUs.

    python3 tools/cpu_check.py

Runs the tier-1 suite four times in child processes: once in the default
environment, once with ``OPENBLAS_CORETYPE=Haswell`` and once with
``OPENBLAS_CORETYPE=Zen`` (OpenBLAS takes its Haswell or Zen kernels), both
with ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` (numpy
takes its AVX2 loops), and once with ``X86_V3`` disabled as well and
OpenBLAS's default kernels (numpy takes its x86-64-v2 loops), each set in
that child's environment only. The default child runs with both variables
removed. On a CPU without AVX-512 the AVX2 runs differ from the default
one in OpenBLAS's kernels only, or not at all. Prints each run's counts and every
test whose outcome differs from the default run, and exits 1 when an
emulated pass/fail set differs from the default one or a run writes no
report, 0 otherwise.
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AVX2_LOOPS = "X86_V4 AVX512_ICL AVX512_SPR"
# the environment of each emulated run, by name
EMULATED = {core.lower(): {"OPENBLAS_CORETYPE": core, "NPY_DISABLE_CPU_FEATURES": AVX2_LOOPS}
            for core in ("Haswell", "Zen")}
EMULATED["x86-64-v2"] = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 " + AVX2_LOOPS}
VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


def outcomes(tmp: str, name: str, extra: dict) -> dict[str, str] | None:
    """Outcome of each tier-1 test, by id, from a child's JUnit report."""
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env.update(extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    report = os.path.join(tmp, f"{name}.xml")
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "--continue-on-collection-errors", f"--junitxml={report}"],
                   cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    if not os.path.isfile(report):
        return None
    result = {}
    for case in ET.parse(report).iter("testcase"):
        kinds = [child.tag for child in case
                 if child.tag in ("failure", "error", "skipped")]
        result[f"{case.get('classname')}::{case.get('name')}"] = (
            kinds[0] if kinds else "passed")
    return result


def main(argv: list[str]) -> int:
    if argv:
        print("usage: cpu_check.py", file=sys.stderr)
        return 64
    with tempfile.TemporaryDirectory(prefix="cpu_check_") as tmp:
        runs = {name: outcomes(tmp, name, extra)
                for name, extra in (("default", {}), *EMULATED.items())}
    for name, result in runs.items():
        if result is None:
            print(f"{name}: no test report")
            return 1
        counts = sorted(Counter(result.values()).items())
        print(f"{name}: " + ", ".join(f"{v} {k}" for k, v in counts))
    default = runs["default"]
    n_differ = 0
    for name in EMULATED:
        emulated = runs[name]
        differ = sorted(t for t in default.keys() | emulated.keys()
                        if default.get(t) != emulated.get(t))
        for test in differ:
            print(f"differs: {test}: {default.get(test)} by default, "
                  f"{emulated.get(test)} under {name}")
        n_differ += len(differ)
    print("same pass/fail set" if not n_differ else f"{n_differ} outcomes differ")
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Checks that every workload runs untraced and traced and exits 0, that
every metric BENCHMARK.json names prints with its unit, that the exact
counts repeat between two traced runs of one seed, that the bypassed
layers read 0 where predicted, that a deliberately wrong expected answer
raises failed_frac and the exit code, and that the benchmark refuses to
run without the package beside it.  Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def _run(workload: str, trace: int, run_py: Path = HERE / "run.py") -> tuple[int, list[str]]:
    cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=False)
    return out.returncode, out.stdout.splitlines()


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []

    for workload in run.WORKLOADS:
        traced = []
        for trace in (0, 1, 1):
            code, lines = _run(workload, trace)
            res = json.loads(lines[-1])
            if code != 0 or not res["correct"] or res["failed"]:
                errors.append(f"{workload} trace={trace}: exit {code}, {res['failed']} failed")
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != units[trace]:
                errors.append(f"{workload} trace={trace}: metrics/units {got} != {units[trace]}")
            if trace:
                traced.append(res["metrics"])
        for name in tracing.EXACT_COUNTS:
            if traced[0][name]["value"] != traced[1][name]["value"]:
                errors.append(f"{workload}: {name} differs between traced runs")
        if workload != "verify":
            for name in tracing.BYPASS_COUNTS:
                if traced[0][name]["value"] != 0:
                    errors.append(f"{workload}: {name} is not 0")

    # A wrong expectation must count as a failed answer and fail the run.
    workloads.CHI_C["T"] = Fraction(3)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "chi-c", "--seed", str(SEED), "--seconds", "0", "--tiny"])
    lines = out.getvalue().splitlines()
    summary, res = json.loads(lines[-2]), json.loads(lines[-1])
    if code == 0 or res["correct"] or res["failed"] != 1 or not summary["failed_frac"] > 0:
        errors.append(f"wrong expectation not caught: exit {code}, {res['failed']} failed")

    # Without the package beside it the benchmark fails and prints no result.
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("tmp*", "__pycache__"))
        code, lines = _run("chi-c", 0, Path(tmp) / "perfbench" / "run.py")
        if code == 0 or lines:
            errors.append(f"ran without the package: exit {code}, output {lines[-1:]}")

    for err in errors:
        print("FAIL", err)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

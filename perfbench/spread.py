"""Run the benchmark on several seeds and report each end-to-end metric's
median, quartiles and spread (quartile distance / median), with a record
of the machine.

    python3 perfbench/spread.py --runs 10 --out perfbench/baseline.json

Seeds are 1..runs; each run is ``run.py --trace 0`` at BENCHMARK.json's
run_seconds.  Exits non-zero if any run fails or a spread exceeds its
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    import numpy
    try:
        import cpuinfo
        cpu = cpuinfo.get_cpu_info().get("brand_raw", "unknown")
    except ImportError:
        cpu = platform.processor() or "unknown"
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit.stdout.strip() or None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None, help="write the report here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"machine": machine(), "run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            res = json.loads(out.stdout.splitlines()[-1])
            ok &= out.returncode == 0 and res["correct"]
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok &= spread <= bounds[name]
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name], "values": vals}
            print(f"{workload} {name}: median {med:.4f} spread {spread:.3f} (bound {bounds[name]})", flush=True)
        report["workloads"][workload] = rows
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

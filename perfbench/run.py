"""sgchrom's benchmark: time checked exact answers, end to end or per layer.

    python3 perfbench/run.py --workload chi-c --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py):
  chi-c   exact chi_c of every catalog graph and negative cycle, each in a
          seeded presentation; bound by FC-CBJ search on the PETERSEN proofs.
  gadget  (10,3)-colourings of large sparse gadget graphs; bound by
          backjumping and the static order.
  verify  the enumeration campaigns and the list lemmas; thousands of tiny
          solver calls and canonical labelling.
  all     the three above in turn, each in its own process.

Every workload is a closed loop with one caller: the next question is asked
only after the last answer returned and was checked.  A run repeats whole
passes while the next one still fits in --seconds (at least one); each pass
asks the questions drawn for it from the seed and its number.  With
--trace 0 it reports the end-to-end metrics: setup_s (from process start
to the first answer, the median of fresh processes started a few before
every pass), wall_s (mean pass), slowest_answer_s (the wait for the
hardest question: the longest mean answer time, one question's
presentations and passes pooled) and peak_rss_mb.  Passes ask different
draws, so means over them are the expected times over draws.  Times are
seconds at the fixed nominal speed of speed.py, not clock seconds: the
shared host's other tenants slow everything by up to 3x in bursts, and a
probe timed through every answer divides that out (the summary line
keeps the clock's mean pass as raw_wall_s).  The caller, its set-up
children and the probe share one core, so the probe sees the speed the
answers got.

With --trace 1 every pass asks the first pass's questions and is followed
by a traced pass of them, at least two whatever --seconds says; it
reports the per-layer metrics of tracing.py instead (clock times, no
probes), and the run fails if an exact count differs between its traced
passes.

Each answer prints as one JSON line (seed, input for replay, time,
outcome), then a summary line with failed_frac; the last line is
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

WORKLOADS = ("chi-c", "gadget", "verify")
SETUPS_PER_PASS = 6
TRACED_PASSES_MIN = 2  # so that every traced run compares its exact counts
ANSWER_DEADLINE_S = 60.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_answer_s": "s", "peak_rss_mb": "MB"}


class AnswerTimeout(Exception):
    """An answer ran past ANSWER_DEADLINE_S."""


def run_pass(questions, emit, probe) -> tuple[float, list[dict]]:
    """Ask every question in turn; return the pass's time and records.

    With probe sampling on, each answer's time ("s") and the pass's time
    are scaled to nominal speed (speed.py) and "raw_s" keeps the clock's;
    with it off both are the clock's.
    """
    records = []
    probe.start()
    try:
        for q in questions:
            t0 = time.perf_counter()
            probe.deadline = t0 + ANSWER_DEADLINE_S
            try:
                reason = q.check(q.ask())
                outcome = "ok" if reason is None else f"wrong: {reason}"
            except AnswerTimeout:
                outcome = "timeout"
            except Exception as exc:  # an answer that raised is a failed answer; the pass goes on
                outcome = f"error: {exc!r}"
            finally:
                probe.deadline = None
            records.append({"answer": q.name, "asks": q.asks or q.name, "input": q.replay,
                            "t0": t0, "raw_s": time.perf_counter() - t0, "outcome": outcome})
    finally:
        probe.stop()
    for rec in records:
        t0 = rec.pop("t0")
        rec["s"] = probe.scaled(t0, t0 + rec["raw_s"]) if probe.sampling else rec["raw_s"]
        emit(rec)
    return sum(rec["s"] for rec in records), records


def _own_command(args) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return cmd + (["--tiny"] if args.tiny else [])


def measure(args) -> int:
    import speed
    import tracing
    import workloads

    def emit(rec, **extra):
        print(json.dumps({"workload": args.workload, "seed": args.seed, **extra, **rec}), flush=True)

    # Traced runs report no times at nominal speed, and probes would land in their spans.
    probe = speed.Probe(AnswerTimeout, sampling=not args.trace)
    setup_cmd = _own_command(args) + ["--workload", args.workload, "--setup-only"]
    setups, walls, layer_runs, records = [], [], [], []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        t_end = time.perf_counter() + args.seconds
        while True:
            t_iter = time.perf_counter()
            n = len(walls)
            if not args.trace:
                setups += [speed.scaled_start(setup_cmd) for _ in range(SETUPS_PER_PASS)]
            # A traced run asks the same questions every time, so its exact counts must repeat.
            passno = 0 if args.trace else n
            questions = workloads.build(args.workload, args.seed, passno, Path(tmp), args.tiny)
            wall, recs = run_pass(questions, lambda r: emit(r, passno=n, traced=False), probe)
            walls.append(wall)
            records += recs
            if args.trace:
                tracer = tracing.Tracer()
                tracing.install(tracer)
                try:
                    traced_qs = workloads.build(args.workload, args.seed, passno, Path(tmp), args.tiny)
                    t_wall, recs = run_pass(traced_qs, lambda r: emit(r, passno=n, traced=True), probe)
                finally:
                    tracer.unpatch()
                records += recs
                layer_runs.append(tracing.layer_metrics(tracer, t_wall, wall))
            now = time.perf_counter()
            enough = len(walls) >= (TRACED_PASSES_MIN if args.trace else 1)
            if enough and now + (now - t_iter) > t_end:
                break

    problems = []
    if args.trace:
        for name in tracing.EXACT_COUNTS:
            if len({run[name] for run in layer_runs}) > 1:
                problems.append(f"{name} differs between traced passes")
        if args.workload in ("chi-c", "gadget"):
            problems += [f"{name} is not 0" for name in tracing.BYPASS_COUNTS if layer_runs[0][name]]
        metrics = {name: {"value": statistics.median(run[name] for run in layer_runs), "unit": unit}
                   for name, unit in tracing.LAYER_UNITS.items()}
    else:
        answer_times: dict[str, list[float]] = {}
        for r in records:
            answer_times.setdefault(r["asks"], []).append(r["s"])
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(walls),
            "slowest_answer_s": max(statistics.fmean(ts) for ts in answer_times.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    failed = sum(r["outcome"] != "ok" for r in records)
    summary = {"workload": args.workload, "seed": args.seed, "passes": len(walls),
               "failed_frac": failed / len(records), "problems": problems}
    if not args.trace:
        summary["raw_wall_s"] = sum(r["raw_s"] for r in records) / len(walls)
    print(json.dumps(summary), flush=True)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def measure_all(args) -> int:
    """Each workload in its own process, so set-up and peak memory stay its own."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload in WORKLOADS:
        out = subprocess.run(_own_command(args) + ["--workload", workload],
                             stdout=subprocess.PIPE, text=True, check=False)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        correct &= res["correct"] and out.returncode == 0
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{workload}.{name}": m for name, m in res["metrics"].items()})
        metrics[f"{workload}.failed_frac"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="the self-test's small inputs")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One core for the caller, its set-up children and the speed probe, so
    # the probe sees the speed the answers got (before numpy starts threads).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SRC / "sgchrom" / "__init__.py").is_file():
        print(f"error: no sgchrom package under {SRC}", file=sys.stderr)
        return 2
    import sgchrom
    if Path(sgchrom.__file__).resolve().parent != (SRC / "sgchrom").resolve():
        print(f"error: sgchrom imported from {sgchrom.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return measure_all(args)
    if args.setup_only:
        import workloads
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            workloads.build(args.workload, args.seed, 0, Path(tmp), args.tiny)
            print("ready", flush=True)
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

"""hilbert-kp benchmark: time to solution, set-up time and memory of four
fixed certification workloads, plus a traced pass for per-layer numbers.

    python3 bench/run.py --workload proof_sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of untraced jobs; with
``--trace 1`` traced and untraced jobs alternate and it reports the
per-layer metrics. Every job's outputs are checked. The last line
of standard output is one JSON object; the exit status is 0 only when every
check passed. Run it from anywhere; it uses the checkout it sits in.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
NAMES = ("proof_sweep", "pair_verify", "norm_bracket", "row_bound")
SETUP_RUNS = 9
MIN_JOBS = 3


SETUP_CMD = [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); "
             "from hilbert_kp import cli; cli.build_parser()",
             str(ROOT / "src")]


def setup_time() -> float:
    """Wall time of a fresh interpreter that imports the CLI and builds its
    parser, the cost every CLI invocation pays."""
    start = time.perf_counter()
    subprocess.run(SETUP_CMD, check=True)
    return time.perf_counter() - start


def warm_up(workload, verdict) -> None:
    """One untimed, checked job, so lazy set-up is done before timing."""
    inputs = workload.prepare(0)
    verdict.add(workload.check(inputs, workload.run(inputs)))


def run_jobs(workload, seconds: float, verdict, recorder=None, between=None):
    """Run whole jobs back to back for `seconds`, check each and call
    `between()` after it. With a recorder every second job runs traced, so
    traced and untraced jobs sample the same stretch of a drifting host.
    Returns the untraced and traced wall times and the traced jobs' spans."""
    walls, traced, jobs = [], [], []
    start = time.perf_counter()
    rep = 1
    while (len(walls) < MIN_JOBS or (recorder and len(traced) < MIN_JOBS)
           or time.perf_counter() - start < seconds):
        inputs = workload.prepare(rep)
        gc.collect()
        if recorder and rep % 2 == 0:
            with tracing.instrument(recorder), recorder.span("bench", "job") as root:
                out = workload.run(inputs)
            traced.append((root.end - root.start) / 1e9)
            jobs.append(recorder.take())
        else:
            t0 = time.perf_counter()
            out = workload.run(inputs)
            walls.append(time.perf_counter() - t0)
        verdict.add(workload.check(inputs, out))
        if between:
            between()
        rep += 1
    return walls, traced, jobs


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hilbert_kp").is_dir():
        print(f"bench: no hilbert_kp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd).returncode)
        return status

    from workloads import WORKLOADS, Verdict

    OUT.mkdir(exist_ok=True)
    verdict = Verdict()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace == 0:
            subprocess.run(SETUP_CMD, check=True)      # byte-compiles, untimed
            warm_up(workload, verdict)
            # Set-up runs between the jobs, so both sample the same stretch of
            # a host whose speed drifts.
            setup = []
            walls, _, _ = run_jobs(workload, args.seconds, verdict,
                                   between=lambda: setup.append(setup_time()))
            while len(setup) < SETUP_RUNS:
                setup.append(setup_time())
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB"),
            }
            notes = {"setup_s": f"median of {len(setup)} fresh interpreters, "
                                + quartiles(setup),
                     "wall_s": f"median of {len(walls)} warm jobs, " + quartiles(walls),
                     "peak_rss_mb": "peak resident set of this process"}
        else:
            warm_up(workload, verdict)
            walls, traced, jobs = run_jobs(workload, args.seconds, verdict,
                                           tracing.SpanRecorder())
            tracing.write_spans(OUT / f"spans-{args.workload}.csv", jobs)
            per_job = [tracing.layer_metrics(spans) for spans in jobs]
            units = dict(tracing.PER_LAYER)
            metrics = {name: (statistics.median_low([m[name] for m in per_job]), unit)
                       for name, unit in tracing.PER_LAYER if name in per_job[0]}
            metrics["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(walls) - 1.0,
                units["trace.overhead_frac"])
            notes = {"trace.overhead_frac": f"{len(jobs)} traced jobs vs {len(walls)} untraced"}

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          "one client, one process, one thread; closed loop")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:.6g} {unit:8s} {notes.get(name, '')}")
    frac = verdict.failed / verdict.attempted if verdict.attempted else 1.0
    print(f"  {'failed_frac':24s} {frac:.6g} {'fraction':8s} "
          f"{verdict.failed} of {verdict.attempted} checks and items failed")
    for problem in verdict.problems[:20]:
        print(f"  FAILED: {problem}")
    result = {
        "correct": verdict.failed == 0 and verdict.attempted > 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

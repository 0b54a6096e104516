"""ftbasis benchmark: four seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload synth-haar --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root.  The package is imported from ``src/``.
For each workload the parent generates the seeded inputs, then starts
fresh interpreters that each time their own import and warm-up and then
issue ops back to back for a share of ``--seconds`` of op time, checking
each output against an independent numpy oracle outside the timed region.
The shares run one after another from different offsets into the pool,
so a process that happens to run slow (speed differed by up to 20%
between processes on identical inputs) weighs a quarter of the result.
With ``--trace 1`` a single process wraps the package's public functions
and reports per-layer metrics instead.  The last line of stdout is a
JSON result; the exit code is non-zero if any op failed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import inputs
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SHARES = 4
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "bytes" if name.endswith(("bytes", "bytes_computed")) else "count"


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One process, no helper threads: the machine has 2 vCPUs.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency with exactly ten samples above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _combine(shares: list[dict]) -> dict:
    """End-to-end metrics over the ops of every share."""
    latencies = [x for share in shares for x in share["latencies"]]
    failures = [f for share in shares for f in share["failures"]]
    tail, pct = _tail(latencies)
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": {
            "setup_s": statistics.median(
                share["setup"]["import_s"] + share["setup"]["warmup_s"] for share in shares),
            "throughput_ops_s": (len(latencies) - len(failures)) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "peak_rss_mb": max(share["peak_rss_mb"] for share in shares),
        },
        "tail_percentile": pct,
        "born_draws": [d for share in shares for d in share["born_draws"]],
        "environment": shares[0]["environment"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # Fixed-width name: target paths appear in CLI output, so output sizes
    # must not depend on the process id's digit count.
    workdir = os.path.join(OUT_DIR, f"w{os.getpid():07d}-{workload}")
    os.makedirs(workdir)
    try:
        manifest = os.path.relpath(inputs.generate(workload, seed, os.path.relpath(workdir, ROOT)), ROOT)
        if trace:
            spans = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
            result = _child(["traced", manifest, str(seconds), spans])
            result["spans_file"] = os.path.relpath(spans, ROOT)
            result["metrics"]["setup.import_s"] = result["setup"]["import_s"]
            result["metrics"]["setup.warmup_s"] = result["setup"]["warmup_s"]
        else:
            result = _combine([_child(["timed", manifest, str(seconds / SHARES), str(i), str(SHARES)])
                               for i in range(SHARES)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = oracle.BornTally(result.pop("born_draws"))
    result["born_z"], result["born_draws"] = tally.zscore(), len(tally.draws)
    result["correct"] = result["failed"] == 0 and abs(result["born_z"]) <= 5.0
    return result


def _print_table(results: dict, trace: bool) -> None:
    names = sorted({k for r in results.values() for k in r["metrics"]})
    if not trace:
        names = list(END_TO_END) + ["fail_ratio"]
        for r in results.values():
            r["metrics"]["fail_ratio"] = r["failed"] / r["attempted"]
    header = ["metric", "unit", *results]
    rows = [[n, END_TO_END.get(n, _unit(n)),
             *(f"{r['metrics'].get(n, float('nan')):.6g}" for r in results.values())]
            for n in names]
    widths = [max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    for workload, r in results.items():
        if trace:
            print(f"# {workload}: {r['passes']} traced passes of {r['pool_ops']} ops; "
                  f"tracing overhead {r['metrics']['trace.overhead_pct']:.1f}% "
                  f"(pass {r['metrics']['trace.pass_s']:.3f} s traced vs "
                  f"{r['metrics']['trace.untraced_pass_s']:.3f} s untraced); "
                  f"{100 * r['untraced_share']:.2f}% of op time outside any package span; "
                  f"spans in {r['spans_file']}")
        else:
            print(f"# {workload}: latency_tail_ms is p{r['tail_percentile']:.2f} of "
                  f"{r['attempted']} ops over {SHARES} processes; {r['failed']} failed; "
                  f"Born z-score {r['born_z']:.2f} over {r['born_draws']} draws")
        for failure in r["failures"]:
            print(f"# {workload} FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "ftbasis", "__init__.py")):
        print(f"no ftbasis sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    _print_table(results, bool(args.trace))
    env = next(iter(results.values()))["environment"]
    env.update(git_commit=_git_commit(), nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)), seed=args.seed, seconds=args.seconds)
    print(json.dumps({"environment": env}))

    def summary(r: dict) -> dict:
        units = END_TO_END if not args.trace else {}
        return {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                "metrics": {n: {"value": v, "unit": units.get(n, _unit(n))}
                            for n, v in r["metrics"].items()
                            if args.trace or n in END_TO_END}}

    if len(results) == 1:
        print(json.dumps(summary(results[args.workload])))
    else:
        print(json.dumps({w: summary(r) for w, r in results.items()}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Child process of the benchmark: one share of the timed run, or the traced run.

    python3 perfbench/worker.py timed  MANIFEST SECONDS SHARE SHARES
    python3 perfbench/worker.py traced MANIFEST SECONDS SPANS_OUT

Each mode prints one JSON object as its last line.  Every child is a fresh
interpreter that times its own ``import ftbasis`` and warm-up, so set-up
time and peak memory belong to the workload alone, not to the parent's
imports or input generation.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Ops per traced pass: a fixed prefix of the seeded pool, whole blocks only.
TRACE_POOL = {"synth-haar": 500, "exact-verify": 400, "ladder-certify": 20, "gadget-sim": 80}


def _peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _execute(op, checks: list, tracer=None) -> float:
    """Run one op; time (and trace) only the call.  Appends the check outcome.

    The op's latency is the CPU time of this process during the call.  The
    ops are single-process and CPU-bound and never wait, so on an unshared
    machine this equals wall time.  On a shared 2-vCPU VM, the hypervisor
    was measured taking the CPU away for 10-30 ms several times a second.
    Those stalls landed on random ops; in wall time they made
    exact-verify's tail differ by 24-35% (quartile spread) across seeds.
    """
    args = op.prepare()
    sid = tracer.begin(f"op.{op.kind}") if tracer else None
    t0 = time.process_time()
    try:
        result, error = op.run(args), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = exc
    elapsed = time.process_time() - t0
    if tracer:
        tracer.end(sid)
    if error is not None:
        checks.append(f"{op.kind} raised {type(error).__name__}: {error}")
        return elapsed
    try:
        checks.append(op.check(result))
    except Exception as exc:
        checks.append(f"{op.kind} check failed: {type(exc).__name__}: {exc}")
    return elapsed


def _timed(built: list, seconds: float, share: int, shares: int) -> dict:
    """Run ops back to back for ``seconds`` of op time, from this share's offset."""
    offset = share * len(built) // shares
    latencies: list[float] = []
    checks: list = []
    total = 0.0
    while total < seconds:
        latencies.append(_execute(built[(offset + len(latencies)) % len(built)], checks))
        total += latencies[-1]
    return {
        "latencies": latencies,
        "failures": [c for c in checks if isinstance(c, str)],
        "peak_rss_mb": _peak_rss_mb(),
    }


def _traced(built: list, workload: str, seconds: float, spans_out: str) -> dict:
    import tracer as tracing

    pool = built[: TRACE_POOL[workload]]
    tr = tracing.Tracer()
    traced, untraced, per_pass, checks = [], [], [], []
    first_spans = None
    spent = 0.0
    while spent < seconds or not untraced:
        for on in (True, False):
            tr.reset()
            if on:
                tr.install()
                if tr.unwrapped_sites():
                    checks.append(f"binding sites left untraced: {tr.unwrapped_sites()}")
            pass_checks: list = []
            pass_time = 0.0
            for idx, op in enumerate(pool):
                tr.op_id = idx
                pass_time += _execute(op, pass_checks, tr if on else None)
            if on:
                tr.uninstall()
                per_pass.append(tracing.layer_metrics(tr.spans, tr.counters))
                if first_spans is None:
                    first_spans, first_checks = tr.spans, pass_checks
                    gaps = tracing.op_gaps(tr.spans)
                    outside = sum(gap for _, gap in gaps) / sum(d for d, _ in gaps)
            (traced if on else untraced).append(pass_time)
            checks.extend(pass_checks)
            spent += pass_time
    with open(spans_out, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": first_spans}, fh)

    metrics = {}
    for name, first in per_pass[0].items():
        values = [p[name] for p in per_pass]
        if isinstance(first, int):
            if any(v != first for v in values):
                checks.append(f"counter {name} differs between passes: {values}")
            metrics[name] = first
        else:
            metrics[name] = statistics.median(values)
    facts = [c for c in first_checks if isinstance(c, dict) and c]
    metrics["word_len_median"] = statistics.median([f["word_len"] for f in facts]) if facts else 0
    metrics["t_count_median"] = statistics.median([f["t_count"] for f in facts]) if facts else 0
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.pass_s"] / metrics["trace.untraced_pass_s"] - 1)
    failures = [c for c in checks if isinstance(c, str)]
    return {
        "attempted": len(pool) * (len(traced) + len(untraced)),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": metrics,
        "passes": len(traced),
        "pool_ops": len(pool),
        "untraced_share": outside,
    }


def main(argv: list[str]) -> int:
    mode, manifest_path = argv[0], argv[1]
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    t0 = time.perf_counter()
    import ftbasis

    t1 = time.perf_counter()
    import ops
    import oracle

    if os.path.dirname(os.path.abspath(ftbasis.__file__)) != os.path.join(SRC, "ftbasis"):
        print(f"ftbasis resolved to {ftbasis.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tally = oracle.BornTally()
    built = ops.build(manifest, tally)
    t2 = time.perf_counter()
    ops.warm_up(manifest)
    setup = {"import_s": t1 - t0, "warmup_s": time.perf_counter() - t2}
    seconds = float(argv[2])
    if mode == "timed":
        out = _timed(built, seconds, int(argv[3]), int(argv[4]))
    else:
        out = _traced(built, manifest["workload"], seconds, argv[3])
    out["setup"] = setup
    out["born_draws"] = [[list(k), p, got] for k, (p, got) in tally.draws.items()]
    out["environment"] = ops.environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

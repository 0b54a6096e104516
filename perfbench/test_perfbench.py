"""Self-tests of the benchmark: deterministic counters and complete tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gc
import inspect
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import ops  # noqa: E402
import tracer as tracing  # noqa: E402

DETERMINISTIC = (
    "synth.ladder_points", "words.gates_emitted", "ring.exact_mul.calls", "ring.max_denom_exp",
    "ring.max_coeff_bits", "cyclotomic.candidates_tried", "sim.apply.calls",
    "sim.apply.bytes_computed", "cli.output_bytes", "word_len_median", "t_count_median",
)


def _traced_metrics(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_counters_repeat_exactly_for_a_seed(workload):
    first, second = _traced_metrics(workload, 7), _traced_metrics(workload, 7)
    for name in DETERMINISTIC:
        assert first[name] == second[name], name
    touched = {"synth-haar": "words.gates_emitted", "exact-verify": "cyclotomic.candidates_tried",
               "ladder-certify": "ring.max_coeff_bits", "gadget-sim": "sim.apply.calls"}
    assert first[touched[workload]] > 0


def _code_of(func):
    return inspect.unwrap(func).__code__


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_spans_cover_every_call_and_op(workload, tmp_path):
    """Every call of a wrapped function leaves a span, and spans fill each op.

    A profiler counts calls into each original function's code object while
    the tracer is installed.  A binding site the tracer missed would show as
    more profiled calls than spans.  lru_cache hides its hits from the
    profiler, so cached functions only need at least as many spans.
    """
    manifest = json.load(open(inputs.generate(workload, 3, str(tmp_path))))
    manifest["ops"] = manifest["ops"][: {"synth-haar": 24, "ladder-certify": 3}.get(workload, 40)]
    built = ops.build(manifest, oracle.BornTally())
    ops.warm_up(manifest)

    tr = tracing.Tracer()
    tr.install()
    assert tr.unwrapped_sites() == []
    names = {_code_of(f): name for name, f in tr.originals.items()}
    profiled: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            profiled[names[frame.f_code]] += 1

    def run_all():
        for idx, op in enumerate(built):
            tr.op_id = idx
            args = op.prepare()
            sid = tr.begin(f"op.{op.kind}")
            result = op.run(args)
            tr.end(sid)
            op.check(result)

    try:
        sys.setprofile(profile)
        try:
            run_all()
        finally:
            sys.setprofile(None)
        spans = Counter(sp[0] for sp in tr.spans)
        # The profiler slows the benchmark's own code between spans, so
        # coverage is measured on a second, unprofiled pass.  A garbage
        # collection set off by the tracer's own allocations would land
        # between spans, so collection waits until the pass is over.
        tr.reset()
        gc.disable()
        try:
            run_all()
        finally:
            gc.enable()
    finally:
        tr.uninstall()

    cached = {name for name, f in tr.originals.items() if hasattr(f, "cache_info")}
    for name, calls in profiled.items():
        if name in cached:
            assert spans[name] >= calls, name
        else:
            assert spans[name] == calls, name
    # Allowing 20 us of dispatch per op, ops keep under 5% of their time
    # outside the package's spans.  A missed binding site would leave a
    # whole call uncovered in every op of a kind.  Spans use wall time, so
    # one op may lose to a hypervisor stall that lands in its dispatch.
    gaps = tracing.op_gaps(tr.spans)
    assert sum(gap - 20e-6 >= 0.05 * d for d, gap in gaps) <= 1


def test_self_time_and_busy_time():
    spans = [
        ["op.x", 0.0, 10.0, None, 0],
        ["ring.exact_word", 1.0, 9.0, 0, 0],
        ["ring.exact_mul", 2.0, 4.0, 1, 0],
        ["ring.exact_mul", 5.0, 8.0, 1, 0],
        ["cyclotomic.cyclotomic_poly", 8.5, 9.0, 1, 0],
        ["cyclotomic.cyclotomic_poly", 8.6, 8.8, 4, 0],
    ]
    assert tracing.self_times(spans) == [2.0, 2.5, 2.0, 3.0, pytest.approx(0.3), pytest.approx(0.2)]
    assert tracing.busy(spans, lambda n: n.startswith("ring.")) == 8.0
    assert tracing.busy(spans, lambda n: n == "cyclotomic.cyclotomic_poly") == 0.5
    assert tracing.op_gaps(spans) == [(10.0, 2.0)]


def test_oracle_agrees_with_known_values():
    assert np.allclose(oracle.word_product(["H", "H"]), np.eye(2))
    t_t = oracle.word_product(["T", "T"])
    assert oracle.proj_distance(t_t, oracle.GATES["S"]) < 1e-15
    assert abs(oracle.proj_distance(oracle.GATES["T"], np.eye(2)) - 2 * np.sin(np.pi / 16)) < 1e-15
    # H = (1/sqrt2) [[1, 1], [1, -1]]: numerators 1 over sqrt(2)^1.
    h = oracle.exact_to_complex([[[1, 0, 0, 0], [1, 0, 0, 0]], [[1, 0, 0, 0], [-1, 0, 0, 0]]], 1)
    assert np.allclose(h, oracle.GATES["H"])
    assert inputs.cyclotomic(12) == [1, 0, -1, 0, 1]
    assert inputs.cyclotomic(1) == [-1, 1]


def test_born_tally_counts_a_repeated_op_once():
    tally = oracle.BornTally()
    for _ in range(5):
        tally.add((3, 0), 0.5, True)
    tally.add((4, 0), 0.5, False)
    assert len(tally.draws) == 2 and tally.zscore() == 0.0
    merged = oracle.BornTally([[k, p, g] for k, (p, g) in tally.draws.items()] * 2)
    assert merged.draws == tally.draws

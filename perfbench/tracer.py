"""Span tracing of ftbasis from outside, and the per-layer metrics built on it.

``Tracer.install`` wraps each public function listed in ``LAYERS`` and
rebinds the wrapper at every place the original is bound: the defining
module, the package namespace, and names bound by ``from ... import``
in other modules (``gadgets.exact_word``, ``cli.is_cyclotomic``, ...).
Each call records a span ``(name, start, end, parent, op)``; spans stay
in memory until the caller writes them out.  A few wrappers also
update counters from arguments and results.  The time spent on that
bookkeeping is measured and taken off the span clock, so it does not
land in any layer's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

#: Layer -> public functions wrapped in that layer.  ``cyclotomic.euler_phi``
#: is left out on purpose: it runs once per scanned index, and its time is
#: part of what ``is_cyclotomic``'s self time measures.
LAYERS = {
    "synth": ("approx_su2", "minimal_ladder_power", "phase_ladder", "lambda_frame",
              "rho_generators", "rho_basis_forms"),
    "words": ("word", "g", "embed", "unitary", "inverse", "expand_to_ht"),
    "su2": ("is_unitary", "pauli_power", "axis_angle_of", "euler_compose", "euler_invert",
            "proj_distance", "su3_two_level_decompose", "two_level_product"),
    "ring": ("exact_gate", "exact_mul", "exact_word", "exact_controlled",
             "gaussian_obstruction"),
    "cyclotomic": ("cyclotomic_poly", "is_cyclotomic", "angle_of_root"),
    "sim": ("prepare", "zero_state", "cat_state", "plus_state", "apply", "run_word",
            "measure_z", "measure_cat_basis", "project_z", "project_cat"),
    "gadgets": ("uphi", "uphi_word", "and_nand_involution", "t_gadget",
                "prepare_eigenstate", "toffoli_state_run", "verify_identity",
                "identity_report"),
    "cli": ("run", "main"),
}

MEASURE_FUNCS = ("sim.measure_z", "sim.measure_cat_basis", "sim.project_z", "sim.project_cat")


def _coeff_bits(mat) -> int:
    coeffs = mat.coeffs
    if coeffs.dtype == np.int64:
        return int(np.abs(coeffs).max()).bit_length()
    return max(abs(int(x)) for x in coeffs.reshape(-1)).bit_length()


def _on_exact(tracer: "Tracer", name: str, args, result) -> None:
    c = tracer.counters
    if name == "ring.exact_mul":
        c["ring.exact_mul.calls"] += 1
        c["ring.exact_mul.bigint_calls"] += any(a.coeffs.dtype == object for a in args[:2])
    c["ring.max_denom_exp"] = max(c["ring.max_denom_exp"], result.denom_exp)
    c["ring.max_coeff_bits"] = max(c["ring.max_coeff_bits"], _coeff_bits(result))


def _on_ladder(tracer: "Tracer", name: str, args, result) -> None:
    tracer.counters["synth.ladder_points"] += result + 1


def _on_approx(tracer: "Tracer", name: str, args, result) -> None:
    tracer.counters["words.gates_emitted"] += len(result.word)


def _on_apply(tracer: "Tracer", name: str, args, result) -> None:
    tracer.counters["sim.apply.calls"] += 1
    tracer.counters["sim.apply.bytes_computed"] += 2 * 16 * (1 << args[0].n_qubits)


def _on_run(tracer: "Tracer", name: str, args, result) -> None:
    tracer.counters["cli.output_bytes"] += len(result[1])


HOOKS = {
    "ring.exact_mul": _on_exact,
    "ring.exact_word": _on_exact,
    "synth.minimal_ladder_power": _on_ladder,
    "synth.approx_su2": _on_approx,
    "sim.apply": _on_apply,
    "cli.run": _on_run,
}


class Tracer:
    """Records spans of wrapped ftbasis calls while installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._lost = 0.0
        self._sites: list = []
        self.originals: dict = {}

    def clock(self) -> float:
        return time.perf_counter() - self._lost

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(int)

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op_id])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = self.clock()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if hook is not None:
                t0 = time.perf_counter()
                hook(tracer, name, args, result)
                tracer._lost += time.perf_counter() - t0
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every LAYERS function at every binding site in the package."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "ftbasis" or key.startswith("ftbasis.")]
        wrappers = {}
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"ftbasis.{layer}"]
            for func in funcs:
                orig = getattr(home, func)
                self.originals[f"{layer}.{func}"] = orig
                wrappers[id(orig)] = (orig, self._wrap(f"{layer}.{func}", orig))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    orig, wrapper = wrappers[id(value)]
                    setattr(mod, attr, wrapper)
                    self._sites.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in self._sites:
            setattr(mod, attr, orig)
        self._sites = []

    def unwrapped_sites(self) -> list[str]:
        """Binding sites still holding an original function (should be empty)."""
        originals = {id(f) for f in self.originals.values()}
        return [f"{key}.{attr}" for key, mod in sorted(sys.modules.items())
                if key == "ftbasis" or key.startswith("ftbasis.")
                for attr, value in vars(mod).items() if id(value) in originals]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _durations(spans) -> list[float]:
    return [end - start for _, start, end, _, _ in spans]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    dur = _durations(spans)
    out = list(dur)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            out[parent] -= dur[i]
    return out


def busy(spans, match) -> float:
    """Time inside spans whose name matches, counting nested matches once."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        covered = parent is not None and (inside[parent] or match(spans[parent][0]))
        inside[i] = covered
        if match(name) and not covered:
            total += end - start
    return total


def layer_metrics(spans, counters) -> dict:
    """Per-layer values for one pass (times in seconds, counts as integers)."""
    selfs = self_times(spans)

    def self_of(name: str) -> float:
        return sum(s for s, sp in zip(selfs, spans) if sp[0] == name)

    def busy_of(*names: str) -> float:
        return busy(spans, lambda n: n in names)

    approx = [i for i, sp in enumerate(spans) if sp[0] == "synth.approx_su2"]
    scanned = {sp[3] for sp in spans if sp[0] == "synth.minimal_ladder_power"}
    hits = sum(1 for i in approx if i not in scanned)
    mul_calls = counters["ring.exact_mul.calls"]
    candidates = sum(1 for sp in spans if sp[0] == "cyclotomic.cyclotomic_poly"
                     and sp[3] is not None and spans[sp[3]][0] == "cyclotomic.is_cyclotomic")
    out = {f"{layer}.busy_s": busy(spans, lambda n, p=f"{layer}.": n.startswith(p))
           for layer in LAYERS}
    out.update({
        "synth.approx_su2.self_s": self_of("synth.approx_su2"),
        "synth.approx_su2.calls": len(approx),
        "synth.minimal_ladder_power.busy_s": busy_of("synth.minimal_ladder_power"),
        "synth.ladder_points": counters["synth.ladder_points"],
        "synth.passthrough_hit_ratio": hits / len(approx) if approx else 0.0,
        "words.expand_to_ht.busy_s": busy_of("words.expand_to_ht"),
        "words.unitary.busy_s": busy_of("words.unitary"),
        "words.gates_emitted": counters["words.gates_emitted"],
        "cli.run.self_s": self_of("cli.run"),
        "cli.output_bytes": counters["cli.output_bytes"],
        "ring.exact_mul.busy_s": busy_of("ring.exact_mul"),
        "ring.exact_mul.calls": mul_calls,
        "ring.exact_mul.bigint_share": counters["ring.exact_mul.bigint_calls"] / mul_calls
        if mul_calls else 0.0,
        "ring.exact_word.self_s": self_of("ring.exact_word"),
        "ring.exact_gate.busy_s": busy_of("ring.exact_gate"),
        "ring.gaussian_obstruction.busy_s": busy_of("ring.gaussian_obstruction"),
        "ring.max_denom_exp": counters["ring.max_denom_exp"],
        "ring.max_coeff_bits": counters["ring.max_coeff_bits"],
        "cyclotomic.is_cyclotomic.self_s": self_of("cyclotomic.is_cyclotomic"),
        "cyclotomic.cyclotomic_poly.busy_s": busy_of("cyclotomic.cyclotomic_poly"),
        "cyclotomic.candidates_tried": candidates,
        "gadgets.verify_identity.busy_s": busy_of("gadgets.verify_identity"),
        "gadgets.t_gadget.self_s": self_of("gadgets.t_gadget"),
        "gadgets.prepare_eigenstate.self_s": self_of("gadgets.prepare_eigenstate"),
        "sim.apply.busy_s": busy_of("sim.apply"),
        "sim.apply.calls": counters["sim.apply.calls"],
        "sim.apply.bytes_computed": counters["sim.apply.bytes_computed"],
        "sim.run_word.self_s": self_of("sim.run_word"),
        "sim.measure.busy_s": busy_of(*MEASURE_FUNCS),
    })
    return out


def op_gaps(spans) -> list[tuple[float, float]]:
    """Per op span: (duration, part of it not covered by any child span)."""
    dur = _durations(spans)
    covered = defaultdict(float)
    for i, sp in enumerate(spans):
        if sp[3] is not None:
            covered[sp[3]] += dur[i]
    return [(dur[i], dur[i] - covered[i]) for i, sp in enumerate(spans) if sp[0].startswith("op.")]


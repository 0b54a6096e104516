"""Benchmark ops built on ftbasis's public functions, their warm-up and checks.

Each op is a ``(prepare, run, check)`` triple.  ``prepare`` makes
per-call state such as a fresh seeded generator and runs untimed;
``run`` is the timed call into the package; ``check`` compares the
result with an independent reference from ``oracle`` and returns a
dict of facts about the output (word length, T count) or raises.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import ftbasis
from ftbasis import cli, cyclotomic, gadgets, ring, sim, synth

import oracle
from inputs import IDENTITY_IDS, MAX_CYCLOTOMIC_DEGREE, PHI_MAX_N, SHOR_BASIS, ARITY

EMITTED_ALPHABET = {"H", "T", "Tdag"}


class CheckFailed(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    kind: str
    prepare: Callable[[], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any], dict]


def _noargs():
    return None


def _rng(seed: int) -> Callable[[], np.random.Generator]:
    return lambda: np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# synth-haar
# ---------------------------------------------------------------------------


def _synth_op(spec: dict) -> Op:
    cfg = cli.RunConfig("synth", {"target": spec["target"], "eps": spec["eps"]})
    with open(spec["target"]) as fh:
        target = np.array([[complex(re, im) for re, im in row] for row in json.load(fh)])
    eps = spec["eps"]

    def check(result) -> dict:
        code, text = result
        require(code == 0, f"synth exited {code}")
        doc = json.loads(text)["result"]
        names = doc["word"]
        require(set(names) <= EMITTED_ALPHABET, "word leaves {H, T, Tdag}")
        dist = oracle.proj_distance(oracle.word_product(names), target)
        require(dist < eps, f"error {dist} exceeds eps {eps}")
        require(abs(dist - doc["error"]) < 1e-9, "reported error disagrees with the oracle")
        t_count = sum(1 for n in names if n != "H")
        return {"word_len": len(names), "t_count": t_count}

    return Op("synth", _noargs, lambda _: cli.run(cfg), check)


# ---------------------------------------------------------------------------
# exact-verify
# ---------------------------------------------------------------------------

_EMBEDDED: dict = {}


def _embedded(name: str, targets: tuple[int, ...]) -> np.ndarray:
    key = (name, targets)
    if key not in _EMBEDDED:
        _EMBEDDED[key] = oracle.embed(oracle.GATES[name], targets, 3)
    return _EMBEDDED[key]


def shor_product(gates) -> tuple:
    """Exact 3-qubit product (one exact_mul per gate) and its Gaussian verdict."""
    mat = ring.exact_word(gates, 3)
    return mat, ring.gaussian_obstruction(mat)


def _shor_op(spec: dict) -> Op:
    gates = [(name, tuple(targets)) for name, targets in spec["word"]]

    def check(result) -> dict:
        mat, verdict = result
        require(bool(verdict), "Shor word failed the Gaussian test")
        ref = oracle.product(np.stack([_embedded(n, t) for n, t in gates]))
        got = oracle.exact_to_complex(mat.coeffs.tolist(), mat.denom_exp)
        require(float(np.max(np.abs(got - ref))) < 1e-9, "exact product disagrees")
        return {}

    return Op("shor", _noargs, lambda _: shor_product(gates), check)


def _identity_op(spec: dict) -> Op:
    ident = spec["id"]

    def check(result) -> dict:
        require(result.id == ident and bool(result.holds), f"{ident} does not hold")
        return {}

    return Op("identity", _noargs, lambda _: gadgets.verify_identity(ident), check)


def _cyclotomic_op(spec: dict) -> Op:
    coeffs = spec["poly"]
    if isinstance(coeffs[0], str):
        poly = cyclotomic.RationalPolynomial.from_json(coeffs)
    else:
        poly = cyclotomic.RationalPolynomial.from_ints(*coeffs)
    expect = tuple(spec["expect"])

    def check(verdict) -> dict:
        got = (verdict.rational, verdict.witness_order, verdict.reason)
        require(got == expect, f"verdict {got} != {expect}")
        return {}

    return Op("cyclotomic", _noargs, lambda _: cyclotomic.is_cyclotomic(poly), check)


# ---------------------------------------------------------------------------
# ladder-certify
# ---------------------------------------------------------------------------


def ladder_names(j: int, k1: int, k2: int) -> list[str]:
    """The un-expanded ladder word of approx_su2 for powers (j, k1, k2)."""
    gen1 = list(synth.GEN1_NAMES)
    middle = list(synth.H_NEG_HALF_NAMES) + gen1 * k1 + list(synth.H_HALF_NAMES) if k1 else []
    return gen1 * j + middle + gen1 * k2


def _ladder_op(spec: dict) -> Op:
    j, k1, k2 = spec["powers"]
    gates = [(name, (0,)) for name in ladder_names(j, k1, k2)]

    def check(mat) -> dict:
        gen1 = oracle.word_product(list(synth.GEN1_NAMES))
        power = np.linalg.matrix_power
        ref = power(gen1, j)
        if k1:
            ref = ref @ oracle.word_product(list(synth.H_NEG_HALF_NAMES)) @ power(gen1, k1)
            ref = ref @ oracle.word_product(list(synth.H_HALF_NAMES))
        ref = ref @ power(gen1, k2)
        got = oracle.exact_to_complex(mat.coeffs.tolist(), mat.denom_exp)
        require(float(np.max(np.abs(got - ref))) < 1e-9, "exact ladder word disagrees")
        return {}

    return Op("ladder", _noargs, lambda _: ring.exact_word(gates, 1), check)


# ---------------------------------------------------------------------------
# gadget-sim
# ---------------------------------------------------------------------------

_UPHI = oracle.GATES["T"] @ oracle.GATES["X"] @ oracle.GATES["Tdag"]
# CZ on qubits (0, 1) times Z on qubit 2: +1/-1 eigenspaces are AND/NAND.
_AND_NAND = np.array([(-1) ** ((i >> 2 & i >> 1 & 1) + (i & 1)) for i in range(8)])


def _simulate_op(spec: dict, tally: oracle.BornTally, index: int) -> Op:
    cfg = cli.RunConfig("simulate", {"circuit": spec["circuit"]}, seed=spec["seed"])
    with open(spec["circuit"]) as fh:
        circuit = json.load(fh)
    width = circuit["width"]

    def check(result) -> dict:
        code, text = result
        require(code == 0, f"simulate exited {code}")
        doc = json.loads(text)
        psi = np.zeros([2] * width, dtype=complex)
        psi[(0,) * width] = 1.0
        for gate in reversed(circuit["gates"]):
            psi = oracle.apply(psi, oracle.GATES[gate["name"]], tuple(gate["targets"]))
        amps = psi.reshape(-1)
        for k, (meas, rec) in enumerate(zip(circuit["measurements"], doc["records"], strict=True)):
            if meas["basis"] == "z":
                first, second = oracle.z_projection(amps, width, meas["qubit"])
                took_first = rec["outcome"] == 0
            else:
                first, second = oracle.cat_projection(amps, width, meas["block"])
                took_first = rec["outcome"] == 1
            p_first = float(np.vdot(first, first).real)
            branch = first if took_first else second
            prob = p_first if took_first else 1.0 - p_first
            require(abs(prob - rec["probability"]) < 1e-9, "Born weight disagrees")
            tally.add((index, k), p_first, took_first)
            amps = branch / math.sqrt(prob)
        got = _state(doc["state"])
        require(float(np.max(np.abs(got - amps))) < 1e-9, "final state disagrees")
        return {}

    return Op("simulate", _noargs, lambda _: cli.run(cfg), check)


def _state(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _t_gadget_op(spec: dict, tally: oracle.BornTally, index: int) -> Op:
    amps = _state(spec["psi"])
    psi = sim.StateVector(1, amps)

    def check(run) -> dict:
        outcome = run.outcome_trace[0].outcome
        fid = abs(np.vdot(run.output.amplitudes, oracle.GATES["T"] @ amps))
        require(fid > 1 - 1e-12, f"T-gadget fidelity {fid}")
        require(run.corrections_applied == (("S",) if outcome else ()), "wrong correction")
        tally.add((index, 0), 0.5, outcome == 0)
        return {}

    return Op("t-gadget", _rng(spec["seed"]), lambda rng: gadgets.t_gadget(psi, rng), check)


def _eigen_check(u: np.ndarray, psi: np.ndarray, tally: oracle.BornTally, index: int):
    def check(run) -> dict:
        sign = run.outcome_trace[0].outcome
        out = run.output.amplitudes
        res = float(np.linalg.norm(u @ out - sign * out))
        require(res < 1e-10, f"eigenvector residual {res}")
        plus = (psi + u @ psi) / 2.0
        p_plus = float(np.vdot(plus, plus).real)
        want = (plus if sign == 1 else psi - plus) / math.sqrt(p_plus if sign == 1 else 1 - p_plus)
        require(abs(abs(np.vdot(want, out)) - 1) < 1e-10, "not the projected input")
        tally.add((index, 0), p_plus, sign == 1)
        return {}

    return check


def _eigenprep_op(spec: dict, tally: oracle.BornTally, index: int) -> Op:
    amps = _state(spec["psi"])
    psi = sim.StateVector(1, amps)
    cat = spec["cat_size"]

    def run(rng):
        return gadgets.prepare_eigenstate(gadgets.uphi(), psi, cat_size=cat, rng=rng)

    return Op("eigenprep", _rng(spec["seed"]), run, _eigen_check(_UPHI, amps, tally, index))


def _toffoli_op(spec: dict, tally: oracle.BornTally, index: int) -> Op:
    cat = spec["cat_size"]
    plus3 = np.full(8, 1 / math.sqrt(8), dtype=complex)

    def run(rng):
        return gadgets.toffoli_state_run(rng, cat_size=cat)

    check = _eigen_check(np.diag(_AND_NAND), plus3, tally, index)
    return Op("toffoli", _rng(spec["seed"]), run, check)


# ---------------------------------------------------------------------------
# Building and warming up
# ---------------------------------------------------------------------------


def build(manifest: dict, tally: oracle.BornTally) -> list[Op]:
    """Ready-made ops for every input in the manifest (untimed)."""
    simple = {"synth": _synth_op, "shor": _shor_op, "identity": _identity_op,
              "cyclotomic": _cyclotomic_op, "ladder": _ladder_op}
    sampled = {"simulate": _simulate_op, "t-gadget": _t_gadget_op,
               "eigenprep": _eigenprep_op, "toffoli": _toffoli_op}
    ops = []
    for index, spec in enumerate(manifest["ops"]):
        kind = spec["kind"]
        ops.append(simple[kind](spec) if kind in simple else sampled[kind](spec, tally, index))
    return ops


def _all_shor_gates() -> list[tuple[str, tuple[int, ...]]]:
    from itertools import permutations

    return [(name, targets) for name in SHOR_BASIS
            for targets in permutations(range(3), ARITY.get(name, 1))]


def warm_up(manifest: dict) -> None:
    """First call of each public function the workload uses, filling the lazy caches.

    Covers lambda_frame and the passthrough table (synth), every cached
    exact gate the workload can ask for, and cyclotomic_poly for every
    index an is_cyclotomic op can scan.
    """
    workload = manifest["workload"]
    if workload == "synth-haar":
        for target, eps in ((manifest["warm_target"], 1e-3), ("t", 0.1)):
            code, _ = cli.run(cli.RunConfig("synth", {"target": target, "eps": eps}))
            require(code == 0, "warm-up synth failed")
    elif workload == "exact-verify":
        shor_product(_all_shor_gates())
        for ident in IDENTITY_IDS:
            gadgets.verify_identity(ident)
        for n in range(1, PHI_MAX_N + 1):
            cyclotomic.is_cyclotomic(cyclotomic.cyclotomic_poly(n))
        for degree in range(1, MAX_CYCLOTOMIC_DEGREE + 1):
            # x^d + 2 is integral and never cyclotomic, so the scan visits
            # every candidate index of that degree.
            cyclotomic.is_cyclotomic(cyclotomic.RationalPolynomial.from_ints(2, *[0] * (degree - 1), 1))
    elif workload == "ladder-certify":
        ring.exact_word([(n, (0,)) for n in ladder_names(1, 1, 1)], 1)
    elif workload == "gadget-sim":
        cfg = cli.RunConfig("simulate", {"circuit": manifest["warm_circuit"]})
        require(cli.run(cfg)[0] == 0, "warm-up simulate failed")
        rng = np.random.default_rng(0)
        gadgets.t_gadget(sim.plus_state(1), rng)
        gadgets.prepare_eigenstate(gadgets.uphi(), sim.plus_state(1), cat_size=3, rng=rng)
        gadgets.toffoli_state_run(rng, cat_size=3)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def environment() -> dict:
    import platform

    return {
        "module": ftbasis.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

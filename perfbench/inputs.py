"""Seeded input generation for the four workloads (numpy and stdlib only).

Inputs are written to a work directory before anything is timed, so the
program only ever receives ready-made files and parameters.  Each pool
is built from blocks with a fixed class composition, shuffled inside the
block by the seed: any run that stops after whole blocks sees the same
class mix, whatever the seed, which keeps medians and tails inside one
input class instead of on the jump between two.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import oracle

WORKLOADS = ("synth-haar", "exact-verify", "ladder-certify", "gadget-sim")

# One block of synth-haar ops: (class, eps, count).  "pt" targets are
# exact short words that the passthrough table answers.
SYNTH_BLOCK = (("pt", 1e-2, 60), ("eps1e-1", 1e-1, 424), ("eps1e-2", 1e-2, 15), ("eps1e-3", 1e-3, 1))
SYNTH_POOL = 4000
# The ops are ~88% eps = 0.1 (p50 lands there) and 3% eps = 1e-2, whose
# latency piles up under the ladder's scan cap (~185 ms), so the tail
# lands there; the one eps = 1e-3 op per block (~4 a run) costs 0.1-0.9 s.
# Set-up synthesizes this fixed Haar target at eps = 1e-3; its word (131k
# gates) is longer than ~97% of eps = 1e-3 words, so peak_rss_mb tracks
# the memory of a near-worst word instead of the longest of a few draws.
WARM_TARGET_SEED = (20, 99)

SHOR_BASIS = ("H", "S", "X", "Y", "Z", "CNOT", "TOFFOLI")
ARITY = {"CNOT": 2, "TOFFOLI": 3}
VERIFY_BLOCK = (("shor", 14), ("identity", 2), ("phi", 2), ("phi-product", 1), ("non-integer", 1))
VERIFY_POOL = 3000
IDENTITY_IDS = (
    "XYZ_PHASE", "CS_FROM_CC_PAULIS", "TOFFOLI_FROM_CSX", "SWAP", "CCZ_FROM_TOFFOLI",
    "CCY_FROM_TOFFOLI", "CS_FROM_T_CNOT", "CSX_H_CONJ", "LADDER_TRACE",
)
PHI_MAX_N = 60
PRODUCT_MAX_N = 16
#: Largest degree an is_cyclotomic op can see: phi(a) + phi(b) for a, b <= 16.
MAX_CYCLOTOMIC_DEGREE = 32

# ladder-certify: one op in LADDER_BLOCK stays on the int64 path (total
# power below ~115); the rest are stratified over LADDER_BIG so every
# block covers the big-int range evenly.
LADDER_BLOCK = 10
LADDER_SMALL = (20, 100)
LADDER_BIG = (150, 400)
LADDER_POOL = 400

GADGET_BLOCK = (("simulate", 5), ("t-gadget", 1), ("eigenprep", 1), ("toffoli", 1))
GADGET_POOL = 1600
SIM_WIDTH = 12
SIM_GATES = 48
# Every circuit has the same number of measurements: each record embeds a
# 4096-amplitude post-state in the report, so a varying count would split
# simulate latencies into modes and put the median between two of them.
SIM_CAT_BLOCKS = 2
SIM_Z_MEASUREMENTS = 2
CAT_SIZES = (3, 9)


def _blocks(rng: np.random.Generator, block, pool: int) -> list[str]:
    """Class labels: whole blocks of the fixed composition, shuffled per block."""
    unit = [name for name, *_, count in block for _ in range(count)]
    out: list[str] = []
    while len(out) < pool:
        out.extend(unit[i] for i in rng.permutation(len(unit)))
    return out[:pool]


def _pairs(mat: np.ndarray) -> list[list[list[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(r.diagonal() / np.abs(r.diagonal()))


def random_state(rng: np.random.Generator, n_qubits: int = 1) -> np.ndarray:
    raw = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return raw / np.linalg.norm(raw)


# ---------------------------------------------------------------------------
# Integer cyclotomic polynomials by the Moebius product formula
# ---------------------------------------------------------------------------


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_div_monic(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for top in range(len(num) - 1, len(den) - 2, -1):
        q = num[top]
        quot[top - len(den) + 1] = q
        for j, c in enumerate(den):
            num[top - len(den) + 1 + j] -= q * c
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


def cyclotomic(n: int) -> list[int]:
    """Integer coefficients of Phi_n, constant term first."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        if n % d == 0:
            mu = _mobius(n // d)
            factor = [-1] + [0] * (d - 1) + [1]
            if mu == 1:
                num = _poly_mul(num, factor)
            elif mu == -1:
                den = _poly_mul(den, factor)
    return _poly_div_monic(num, den)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _synth(rng: np.random.Generator, workdir: str) -> dict:
    eps_of = {name: eps for name, eps, _ in SYNTH_BLOCK}
    names_1q = ("H", "T", "Tdag")
    ops = []
    for i, cls in enumerate(_blocks(rng, SYNTH_BLOCK, SYNTH_POOL)):
        if cls == "pt":
            length = int(rng.integers(1, 7))
            word = [names_1q[k] for k in rng.integers(0, 3, size=length)]
            target = np.exp(1j * rng.uniform(0, 2 * math.pi)) * oracle.word_product(word)
        else:
            target = haar_unitary(rng)
        path = os.path.join(workdir, f"t{i:05d}.json")
        with open(path, "w") as fh:
            json.dump(_pairs(target), fh)
        ops.append({"kind": "synth", "target": path, "eps": eps_of[cls]})
    warm = os.path.join(workdir, "warm-target.json")
    with open(warm, "w") as fh:
        json.dump(_pairs(haar_unitary(np.random.default_rng(WARM_TARGET_SEED))), fh)
    return {"ops": ops, "warm_target": warm}


def _shor_word(rng: np.random.Generator) -> list:
    word = []
    for _ in range(int(rng.integers(1, 51))):
        name = SHOR_BASIS[int(rng.integers(0, len(SHOR_BASIS)))]
        targets = [int(t) for t in rng.permutation(3)[: ARITY.get(name, 1)]]
        word.append([name, targets])
    return word


def _non_integer_poly(rng: np.random.Generator) -> list[str]:
    degree = int(rng.integers(2, 13))
    coeffs = [f"{int(c)}/1" for c in rng.integers(-3, 4, size=degree)] + ["1/1"]
    den = int(rng.choice([2, 3, 4, 5, 7]))
    num = int(rng.integers(1, den)) + den * int(rng.integers(-2, 3))
    coeffs[int(rng.integers(0, degree))] = f"{num}/{den}"
    return coeffs


def _verify(rng: np.random.Generator, workdir: str) -> dict:
    ops = []
    for cls in _blocks(rng, VERIFY_BLOCK, VERIFY_POOL):
        if cls == "shor":
            ops.append({"kind": "shor", "word": _shor_word(rng)})
        elif cls == "identity":
            ident = IDENTITY_IDS[int(rng.integers(0, len(IDENTITY_IDS)))]
            ops.append({"kind": "identity", "id": ident})
        elif cls == "phi":
            n = int(rng.integers(1, PHI_MAX_N + 1))
            ops.append({"kind": "cyclotomic", "poly": cyclotomic(n),
                        "expect": [True, n, "matched"]})
        elif cls == "phi-product":
            a, b = (int(x) for x in rng.integers(1, PRODUCT_MAX_N + 1, size=2))
            poly = _poly_mul(cyclotomic(a), cyclotomic(b))
            ops.append({"kind": "cyclotomic", "poly": poly,
                        "expect": [False, None, "no-cyclotomic-match"]})
        else:
            ops.append({"kind": "cyclotomic", "poly": _non_integer_poly(rng),
                        "expect": [False, None, "non-integer-coefficient"]})
    return {"ops": ops}


def _ladder(rng: np.random.Generator, workdir: str) -> dict:
    ops = []
    lo, hi = LADDER_BIG
    strata = LADDER_BLOCK - 1
    while len(ops) < LADDER_POOL:
        totals = [int(rng.integers(*LADDER_SMALL))]
        totals += [int(lo + (hi - lo) * (s + rng.uniform()) / strata) for s in range(strata)]
        for k in rng.permutation(len(totals)):
            total = totals[k]
            j, k2 = sorted(int(x) for x in rng.integers(0, total, size=2))
            # k1 >= 1 so the H^{-1/2} ... H^{1/2} conjugation is always present.
            powers = [j, max(k2 - j, 1), total - max(k2, j + 1)]
            ops.append({"kind": "ladder", "powers": powers})
    return {"ops": ops[:LADDER_POOL]}


def _circuit(rng: np.random.Generator) -> dict:
    """A 12-qubit circuit with cat blocks that stay in span{|0..0>, |1..1>}.

    Gates touching a block are diagonal on one block qubit, controlled by
    a block qubit, or flip the whole block at once, so a cat-basis
    measurement of the block is always well defined.  Every free qubit
    starts with H and the random gates after that are phases and
    permutations, so every circuit's state has the same number of nonzero
    amplitudes.  The report prints each amplitude, and zeros print
    faster, so a varying support would split latencies into modes.
    """
    qubits = [int(q) for q in rng.permutation(SIM_WIDTH)]
    blocks = []
    for _ in range(SIM_CAT_BLOCKS):
        size = int(rng.integers(2, 5))
        blocks.append(qubits[:size])
        qubits = qubits[size:]
    free = qubits
    timeline = []  # circuit-time order; reversed into operator order below
    for block in blocks:
        timeline.append(("H", [block[0]]))
        timeline.extend(("CNOT", [block[0], q]) for q in block[1:])
    timeline.extend(("H", [q]) for q in free)
    while len(timeline) < SIM_GATES:
        roll = rng.uniform()
        if roll < 0.55:
            name = ("T", "Tdag", "S", "X")[int(rng.integers(0, 4))]
            timeline.append((name, [free[int(rng.integers(0, len(free)))]]))
        elif roll < 0.75:
            a, b = (free[int(i)] for i in rng.permutation(len(free))[:2])
            timeline.append(("CNOT", [a, b]))
        elif roll < 0.82:
            a, b, c = (free[int(i)] for i in rng.permutation(len(free))[:3])
            timeline.append(("TOFFOLI", [a, b, c]))
        else:
            block = blocks[int(rng.integers(0, len(blocks)))]
            kind = int(rng.integers(0, 3))
            if kind == 0:
                name = ("T", "S", "Z", "Tdag")[int(rng.integers(0, 4))]
                timeline.append((name, [block[int(rng.integers(0, len(block)))]]))
            elif kind == 1:
                ctrl = block[int(rng.integers(0, len(block)))]
                timeline.append(("CNOT", [ctrl, free[int(rng.integers(0, len(free)))]]))
            else:
                ctrl = free[int(rng.integers(0, len(free)))]
                timeline.extend(("CNOT", [ctrl, q]) for q in block)
    measurements = [{"basis": "cat", "block": b} for b in blocks]
    for q in rng.permutation(free)[:SIM_Z_MEASUREMENTS]:
        measurements.append({"basis": "z", "qubit": int(q)})
    order = rng.permutation(len(measurements))
    return {
        "width": SIM_WIDTH,
        "gates": [{"name": n, "targets": t} for n, t in reversed(timeline)],
        "measurements": [measurements[i] for i in order],
    }


def _gadget(rng: np.random.Generator, workdir: str) -> dict:
    ops = []
    for i, cls in enumerate(_blocks(rng, GADGET_BLOCK, GADGET_POOL)):
        op = {"kind": cls, "seed": int(rng.integers(0, 2**31))}
        if cls == "simulate":
            path = os.path.join(workdir, f"c{i:05d}.json")
            with open(path, "w") as fh:
                json.dump(_circuit(rng), fh)
            op["circuit"] = path
        elif cls in ("t-gadget", "eigenprep"):
            op["psi"] = [[float(z.real), float(z.imag)] for z in random_state(rng)]
        if cls in ("eigenprep", "toffoli"):
            op["cat_size"] = int(rng.integers(CAT_SIZES[0], CAT_SIZES[1] + 1))
        ops.append(op)
    warm = os.path.join(workdir, "warm-circuit.json")
    with open(warm, "w") as fh:
        json.dump(_circuit(np.random.default_rng(0)), fh)
    return {"ops": ops, "warm_circuit": warm}


_MAKERS = {"synth-haar": _synth, "exact-verify": _verify,
           "ladder-certify": _ladder, "gadget-sim": _gadget}


def generate(workload: str, seed: int, workdir: str) -> str:
    """Write the workload's inputs under ``workdir``; returns the manifest path."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    doc = {"workload": workload, "seed": seed, **_MAKERS[workload](rng, workdir)}
    path = os.path.join(workdir, "inputs.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path

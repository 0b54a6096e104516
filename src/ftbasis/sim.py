"""Seedable statevector simulation for up to 12 qubits.

Qubit 0 is the most significant bit of the basis index.  States are
immutable snapshots; every operation returns a fresh state.  Sampling
uses numpy's seeded PCG64 generator so outcome traces are reproducible:
measure draws one uniform variate u and reports outcome 0 (or +) when
u falls below that branch's Born weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .words import GateWord

MAX_QUBITS = 12


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitudes over n qubits, qubit 0 most significant."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_width(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != 1 << self.n_qubits:
            raise ValidationError("amplitude count must be 2^n")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= 1e-9:  # also rejects NaN
            raise ValidationError(f"state norm {norm} is not 1")
        amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def probability(self, index: int) -> float:
        return float(abs(self.amplitudes[index]) ** 2)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """One projective outcome: 0/1 for Z, +1/-1 for the cat basis."""

    outcome: int
    probability: float
    post_state: StateVector


def _check_width(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise ValidationError(f"qubit count must be in [1, {MAX_QUBITS}]")


# The makers check the width before they allocate 2^n amplitudes.
def zero_state(n: int) -> StateVector:
    _check_width(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n, amps)


def cat_state(n: int) -> StateVector:
    _check_width(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return StateVector(n, amps)


def plus_state(n: int) -> StateVector:
    _check_width(n)
    amps = np.full(1 << n, 1 / np.sqrt(2.0) ** n, dtype=complex)
    return StateVector(n, amps)


def prepare(kind: str, n: int) -> StateVector:
    makers = {"zero": zero_state, "cat": cat_state, "plus": plus_state}
    if kind not in makers:
        raise ValidationError(f"unknown preparation {kind!r}")
    return makers[kind](n)


def apply(state: StateVector, gate: np.ndarray, targets: tuple[int, ...] | list[int]) -> StateVector:
    """Apply a 2^k x 2^k gate to the listed qubits."""
    targets = tuple(targets)
    k = len(targets)
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (1 << k, 1 << k):
        raise ValidationError("gate dimension does not match target count")
    if len(set(targets)) != k or any(t < 0 or t >= state.n_qubits for t in targets):
        raise ValidationError(f"bad targets {targets}")
    psi = state.amplitudes.reshape([2] * state.n_qubits)
    psi = np.moveaxis(psi, targets, range(k))
    shaped = psi.reshape(1 << k, -1)
    shaped = gate @ shaped
    psi = np.moveaxis(shaped.reshape([2] * state.n_qubits), range(k), targets)
    return StateVector(state.n_qubits, psi.reshape(-1))


def run_word(state: StateVector, w: GateWord) -> StateVector:
    """Apply a gate word (operator order: last listed gate acts first)."""
    if w.width != state.n_qubits:
        raise ValidationError("word width does not match state")
    for gate in reversed(w.gates):
        state = apply(state, gate.matrix(), gate.targets)
    return state


def _bit_mask(state: StateVector, qubit: int) -> np.ndarray:
    if qubit < 0 or qubit >= state.n_qubits:
        raise ValidationError(f"qubit {qubit} out of range")
    idx = np.arange(1 << state.n_qubits)
    return ((idx >> (state.n_qubits - 1 - qubit)) & 1).astype(bool)


def project_z(state: StateVector, qubit: int, outcome: int) -> tuple[float, StateVector]:
    """Deterministic projection onto a Z outcome; returns (probability, post)."""
    if outcome not in (0, 1):
        raise ValidationError("outcome must be 0 or 1")
    ones = _bit_mask(state, qubit)
    keep = ones if outcome == 1 else ~ones
    prob = float(np.sum(np.abs(state.amplitudes[keep]) ** 2))
    if prob < 1e-15:
        raise ValidationError("projection onto a zero-probability branch")
    amps = np.where(keep, state.amplitudes, 0.0) / np.sqrt(prob)
    return prob, StateVector(state.n_qubits, amps)


def measure_z(state: StateVector, qubit: int, rng: np.random.Generator) -> MeasurementRecord:
    """Sample a computational-basis measurement of one qubit."""
    ones = _bit_mask(state, qubit)
    p0 = float(np.sum(np.abs(state.amplitudes[~ones]) ** 2))
    outcome = 0 if rng.random() < p0 else 1
    prob, post = project_z(state, qubit, outcome)
    return MeasurementRecord(outcome, prob, post)


def _cat_components(state: StateVector, block: tuple[int, ...]):
    n = state.n_qubits
    if not block or len(set(block)) != len(block) or any(q < 0 or q >= n for q in block):
        raise ValidationError(f"bad block {block}")
    idx = np.arange(1 << n)
    bits = np.zeros_like(idx)
    for q in block:
        bits += (idx >> (n - 1 - q)) & 1
    all0 = bits == 0
    all1 = bits == len(block)
    return all0, all1


def project_cat(
    state: StateVector, block: tuple[int, ...] | list[int], sign: int
) -> tuple[float, StateVector]:
    """Project a qubit block onto (|0..0> + sign |1..1>)/sqrt(2)."""
    block = tuple(block)
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    all0, all1 = _cat_components(state, block)
    off = float(np.sum(np.abs(state.amplitudes[~(all0 | all1)]) ** 2))
    if np.sqrt(off) > 1e-9:
        raise ValidationError(
            "block support leaks outside span{|0..0>, |1..1>}; protocol bug"
        )
    a = state.amplitudes[all0]
    b = state.amplitudes[all1]
    comp = (a + sign * b) / 2.0
    prob = float(2.0 * np.sum(np.abs(comp) ** 2))
    if prob < 1e-15:
        raise ValidationError("projection onto a zero-probability branch")
    amps = np.zeros_like(state.amplitudes)
    amps[all0] = comp
    amps[all1] = sign * comp
    return prob, StateVector(state.n_qubits, amps / np.sqrt(prob))


def measure_cat_basis(
    state: StateVector, block: tuple[int, ...] | list[int], rng: np.random.Generator
) -> MeasurementRecord:
    """Distinguish (|0..0> + |1..1>)/sqrt(2) from (|0..0> - |1..1>)/sqrt(2)."""
    block = tuple(block)
    all0, all1 = _cat_components(state, block)
    a = state.amplitudes[all0]
    b = state.amplitudes[all1]
    p_plus = float(np.sum(np.abs(a + b) ** 2) / 2.0)
    sign = 1 if rng.random() < p_plus else -1
    prob, post = project_cat(state, block, sign)
    return MeasurementRecord(sign, prob, post)

"""Gate words over the fault-tolerant generator alphabet.

A word stores its gates in operator order: ``gates[0]`` is the leftmost
matrix factor of the product, i.e. the gate applied *last* in circuit
time.  ``unitary`` multiplies the factors in list order, so a simulator
must apply a word from the end of the list backwards.

Qubit 0 is the most significant bit of the basis index everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ring import GATE_ARITY, GATE_TABLE, ExactMatrix, embed


def _numeric(coeffs: np.ndarray, denom_exp: int) -> np.ndarray:
    mat = ExactMatrix(coeffs, denom_exp).to_complex()
    mat.flags.writeable = False
    return mat


#: Numeric matrices of the named generators, evaluated from the exact table.
GATE_MATRICES: dict[str, np.ndarray] = {
    name: _numeric(coeffs, denom_exp) for name, (coeffs, denom_exp, _) in GATE_TABLE.items()
}

# 1-qubit rewrites onto {H, T, Tdag}.  Exact except Y, which drops the
# global phase i (Y = i X Z).
_HT_EXPANSION = {
    "H": ("H",),
    "T": ("T",),
    "Tdag": ("Tdag",),
    "S": ("T", "T"),
    "Sdag": ("Tdag", "Tdag"),
    "Z": ("T", "T", "T", "T"),
    "X": ("H", "T", "T", "T", "T", "H"),
    "Y": ("H", "T", "T", "T", "T", "H", "T", "T", "T", "T"),
}


@dataclass(frozen=True)
class Gate:
    """One named generator applied to specific qubit indices."""

    name: str
    targets: tuple[int, ...]

    def __post_init__(self):
        if self.name not in GATE_MATRICES:
            raise ValidationError(f"unknown gate name {self.name!r}")
        if len(self.targets) != GATE_ARITY[self.name]:
            raise ValidationError(
                f"{self.name} takes {GATE_ARITY[self.name]} targets, "
                f"got {self.targets}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError(f"duplicate targets in {self}")

    def matrix(self) -> np.ndarray:
        return GATE_MATRICES[self.name]


def g(name: str, *targets: int) -> Gate:
    """Shorthand constructor: ``g("CNOT", 0, 1)``."""
    return Gate(name, tuple(targets))


@dataclass(frozen=True)
class GateWord:
    """Ordered product of generators on ``width`` qubits (operator order)."""

    gates: tuple[Gate, ...]
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise ValidationError("width must be positive")
        for gate in self.gates:
            if any(t < 0 or t >= self.width for t in gate.targets):
                raise ValidationError(
                    f"gate {gate} out of range for width {self.width}"
                )

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def names(self) -> list[str]:
        return [gate.name for gate in self.gates]


def word(names: list[str] | tuple[str, ...], width: int = 1) -> GateWord:
    """Build a single-qubit word (all targets 0) from gate names."""
    return GateWord(tuple(Gate(n, (0,)) for n in names), width)


def unitary(w: GateWord) -> np.ndarray:
    """Numeric realization: the matrix product of the word's factors in list order."""
    dim = 1 << w.width
    out = np.eye(dim, dtype=complex)
    for gate in w.gates:
        if w.width == GATE_ARITY[gate.name] and gate.targets == tuple(
            range(w.width)
        ):
            out = out @ gate.matrix()
        else:
            out = out @ embed(gate.matrix(), gate.targets, w.width)
    return out


def inverse(w: GateWord) -> GateWord:
    """The word realizing the inverse operator."""
    inv = tuple(
        Gate(GATE_TABLE[gate.name][2], gate.targets) for gate in reversed(w.gates)
    )
    return GateWord(inv, w.width)


def expand_to_ht(w: GateWord) -> GateWord:
    """Rewrite a single-qubit word onto the emitted alphabet {H, T, Tdag}.

    Exact as an operator except for Y, which is rewritten to X·Z and so
    picks up a global phase (harmless under the projective metric).
    """
    if w.width != 1:
        raise ValidationError("only single-qubit words can be expanded")
    out: list[Gate] = []
    for gate in w.gates:
        try:
            names = _HT_EXPANSION[gate.name]
        except KeyError:
            raise ValidationError(f"{gate.name} has no {{H,T}} expansion") from None
        out.extend(Gate(n, (0,)) for n in names)
    return GateWord(tuple(out), 1)

"""Measurement-based gate protocols and the circuit-identity suite.

The T gadget applies the non-Clifford phase gate to an arbitrary qubit
through a prepared ancilla, a CNOT, one computational-basis measurement
and a conditional S correction; both branches succeed up to a global
phase.  Eigenstate preparation projects onto the +1/-1 eigenspaces of an
involution U by controlling U from a cat block and measuring that block
in the cat basis.  Gadgets run at the logical level: every normalizer
gate is perfect and the code-level transversal circuitry is out of scope.

``verify_identity`` checks a fixed inventory of circuit equalities, in
exact ring arithmetic wherever both sides live over Z[zeta_8].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ring, sim, su2, words
from .errors import ValidationError
from .ring import ExactMatrix, exact_controlled, exact_word, monomial
from .sim import MeasurementRecord, StateVector
from .words import GateWord


class Protocol:
    T_GADGET = "t-gadget"
    EIGENPREP = "eigenprep"
    TOFFOLI_STATE = "toffoli-state"


@dataclass(frozen=True, eq=False)
class GadgetRun:
    protocol: str
    inputs: tuple[StateVector, ...]
    outcome_trace: tuple[MeasurementRecord, ...]
    output: StateVector
    corrections_applied: tuple[str, ...]


def uphi() -> np.ndarray:
    """The involution U_phi = sigma_z^{1/4} sigma_x sigma_z^{-1/4}."""
    T = words.GATE_MATRICES["T"]
    X = words.GATE_MATRICES["X"]
    return T @ X @ T.conj().T


def uphi_word() -> GateWord:
    """Normalizer-only word [S, X] realizing U_phi up to the phase e^{i pi/4}.

    S X equals e^{i pi/4} U_phi exactly, so the projective distance to
    the conjugated form is zero while the matrices differ by that phase.
    """
    return words.word(["S", "X"])


def and_nand_involution() -> np.ndarray:
    """CZ on the first two qubits times Z on the third: eigenbasis AND/NAND."""
    cz = words.embed(np.diag([1, 1, 1, -1]).astype(complex), (0, 1), 3)
    z3 = words.embed(words.GATE_MATRICES["Z"], (2,), 3)
    return cz @ z3


_T_ANCILLA_WORD = words.word(["T", "H"])


def t_gadget(
    psi: StateVector,
    rng: np.random.Generator | None = None,
    force_branch: int | None = None,
) -> GadgetRun:
    """Apply sigma_z^{1/4} to a single-qubit state via the ancilla gadget.

    The ancilla (|0> + e^{i pi/4}|1>)/sqrt(2) is prepared internally.
    Branch 0 leaves the data untouched; branch 1 records an S correction.
    The output matches T|psi> up to a global phase on either branch.
    """
    if psi.n_qubits != 1:
        raise ValidationError("t_gadget expects a single-qubit state")
    if force_branch is None and rng is None:
        raise ValidationError("either an rng or a forced branch is required")
    ancilla = sim.run_word(sim.zero_state(1), _T_ANCILLA_WORD)
    full = StateVector(2, np.kron(psi.amplitudes, ancilla.amplitudes))
    full = sim.apply(full, words.GATE_MATRICES["CNOT"], (0, 1))
    if force_branch is None:
        record = sim.measure_z(full, 1, rng)
    else:
        prob, post = sim.project_z(full, 1, force_branch)
        record = MeasurementRecord(force_branch, prob, post)
    corrections: tuple[str, ...] = ()
    state = record.post_state
    if record.outcome == 1:
        state = sim.apply(state, words.GATE_MATRICES["S"], (0,))
        corrections = ("S",)
    out = StateVector(1, state.amplitudes[record.outcome :: 2])
    return GadgetRun(Protocol.T_GADGET, (psi,), (record,), out, corrections)


def prepare_eigenstate(
    u_eta: np.ndarray,
    psi: StateVector,
    cat_size: int = 3,
    rng: np.random.Generator | None = None,
    force_outcome: int | None = None,
    protocol: str = Protocol.EIGENPREP,
) -> GadgetRun:
    """Project psi onto an eigenspace of the involution u_eta via a cat block.

    The cat block controls u_eta (one logical controlled application; at
    the logical level this is the transversal bitwise circuit restricted
    to the protocol subspace) and is then measured in the cat basis.
    Outcome +1 leaves the data in the +1 eigenspace of u_eta, outcome -1
    in the -1 eigenspace, with Born probabilities equal to the squared
    eigencomponent weights of psi.
    """
    u_eta = np.asarray(u_eta, dtype=complex)
    m = psi.n_qubits
    if u_eta.shape != (1 << m, 1 << m):
        raise ValidationError("u_eta dimension does not match psi")
    if np.max(np.abs(u_eta @ u_eta - np.eye(1 << m))) > 1e-10:
        raise ValidationError("u_eta must square to the identity")
    if cat_size < 1 or cat_size + m > sim.MAX_QUBITS:
        raise ValidationError("cat block does not fit the register")
    if force_outcome is None and rng is None:
        raise ValidationError("either an rng or a forced outcome is required")

    full = StateVector(
        cat_size + m, np.kron(sim.cat_state(cat_size).amplitudes, psi.amplitudes)
    )
    controlled = np.eye(2 << m, dtype=complex)
    controlled[1 << m :, 1 << m :] = u_eta
    full = sim.apply(full, controlled, (0, *range(cat_size, cat_size + m)))
    block = tuple(range(cat_size))
    if force_outcome is None:
        record = sim.measure_cat_basis(full, block, rng)
    else:
        prob, post = sim.project_cat(full, block, force_outcome)
        record = MeasurementRecord(force_outcome, prob, post)
    # Post state is product: cat_pm on the block, eigenvector on the data.
    data = record.post_state.amplitudes[: 1 << m] * np.sqrt(2.0)
    out = StateVector(m, data)
    return GadgetRun(protocol, (psi,), (record,), out, ())


def toffoli_state_run(
    rng: np.random.Generator | None = None,
    force_outcome: int | None = None,
    cat_size: int = 3,
) -> GadgetRun:
    """Produce |AND> or |NAND> from (H|0>)^x3 via the eigenstate protocol."""
    return prepare_eigenstate(
        and_nand_involution(),
        sim.plus_state(3),
        cat_size=cat_size,
        rng=rng,
        force_outcome=force_outcome,
        protocol=Protocol.TOFFOLI_STATE,
    )


# ---------------------------------------------------------------------------
# Circuit-identity inventory
# ---------------------------------------------------------------------------

IDENTITY_IDS = (
    "XYZ_PHASE",
    "CS_FROM_CC_PAULIS",
    "TOFFOLI_FROM_CSX",
    "SWAP",
    "CCZ_FROM_TOFFOLI",
    "CCY_FROM_TOFFOLI",
    "CS_FROM_T_CNOT",
    "CSX_H_CONJ",
    "LADDER_TRACE",
)

MODE_EXACT = "exact-ring"
MODE_NUMERIC = "numeric-up-to-phase"


@dataclass(frozen=True)
class IdentityResult:
    id: str
    holds: bool
    residual: float | int
    mode: str

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "holds": self.holds,
            "residual": self.residual,
            "mode": self.mode,
        }


def _xy_conjugator(q: int) -> list[tuple[str, tuple[int, ...]]]:
    # H S^dag H S H: an involution conjugating sigma_x to sigma_y.
    return [("H", (q,)), ("Sdag", (q,)), ("H", (q,)), ("S", (q,)), ("H", (q,))]


def _cs_word(ctrl: int, tgt: int) -> list[tuple[str, tuple[int, ...]]]:
    # Controlled-S over {H, T, CNOT}: the two-qubit expansion of Lambda_1(S).
    return [
        ("Tdag", (tgt,)),
        ("CNOT", (ctrl, tgt)),
        ("Tdag", (tgt,)),
        ("CNOT", (ctrl, tgt)),
        ("T", (ctrl,)),
        ("S", (tgt,)),
    ]


def _cs_word_inv(ctrl: int, tgt: int) -> list[tuple[str, tuple[int, ...]]]:
    return [
        ("Sdag", (tgt,)),
        ("Tdag", (ctrl,)),
        ("CNOT", (ctrl, tgt)),
        ("T", (tgt,)),
        ("CNOT", (ctrl, tgt)),
        ("T", (tgt,)),
    ]


def _csx_word(ctrl: int, tgt: int, dagger: bool = False) -> list[tuple[str, tuple[int, ...]]]:
    inner = _cs_word_inv(ctrl, tgt) if dagger else _cs_word(ctrl, tgt)
    return [("H", (tgt,))] + inner + [("H", (tgt,))]


# CCX * CCY * CCZ puts the phase i on the |11> control block.
_CS_FROM_CC_WORD = (
    [("TOFFOLI", (0, 1, 2))]
    + _xy_conjugator(2) + [("TOFFOLI", (0, 1, 2))] + _xy_conjugator(2)
    + [("H", (2,)), ("TOFFOLI", (0, 1, 2)), ("H", (2,))]
)
_TOFFOLI_FROM_CSX_WORD = (
    _csx_word(0, 2)
    + [("CNOT", (0, 1))]
    + _csx_word(1, 2, dagger=True)
    + [("CNOT", (0, 1))]
    + _csx_word(1, 2)
)
_SWAP_WORD = [
    ("CNOT", (0, 1)), ("H", (0,)), ("H", (1,)),
    ("CNOT", (0, 1)), ("H", (0,)), ("H", (1,)),
    ("CNOT", (0, 1)),
]

#: Identity id -> builder of the (lhs, rhs) pair that must be exactly equal.
_EXACT_CASES = {
    "XYZ_PHASE": lambda: (
        exact_word([("X", (0,)), ("Y", (0,)), ("Z", (0,))], 1),
        ExactMatrix(monomial((0, 1), (2, 2))),
    ),
    "CS_FROM_CC_PAULIS": lambda: (
        exact_word(_CS_FROM_CC_WORD, 3),
        ExactMatrix(monomial(range(8), (0,) * 6 + (2, 2))),
    ),
    "TOFFOLI_FROM_CSX": lambda: (
        exact_word(_TOFFOLI_FROM_CSX_WORD, 3),
        ring.exact_gate("TOFFOLI", (0, 1, 2), 3),
    ),
    "SWAP": lambda: (exact_word(_SWAP_WORD, 2), ExactMatrix(monomial((0, 2, 1, 3)))),
    "CCZ_FROM_TOFFOLI": lambda: (
        exact_word([("H", (2,)), ("TOFFOLI", (0, 1, 2)), ("H", (2,))], 3),
        ExactMatrix(monomial(range(8), (0,) * 7 + (4,))),
    ),
    "CCY_FROM_TOFFOLI": lambda: (
        exact_word(_xy_conjugator(2) + [("TOFFOLI", (0, 1, 2))] + _xy_conjugator(2), 3),
        ExactMatrix(monomial((0, 1, 2, 3, 4, 5, 7, 6), (0,) * 6 + (6, 2))),
    ),
    "CS_FROM_T_CNOT": lambda: (
        exact_word(_cs_word(0, 1), 2),
        ExactMatrix(monomial(range(4), (0, 0, 0, 2))),
    ),
}


def _exact_cases() -> dict[str, tuple[ExactMatrix, ExactMatrix]]:
    """Every exact identity's (lhs, rhs) pair."""
    return {name: build() for name, build in _EXACT_CASES.items()}


def _verify_csx_h_conj() -> IdentityResult:
    # Both signs of Lambda_1(sigma_x^{1/2}) = (I x H) Lambda_1(sigma_z^{1/2}) (I x H).
    sqrt_x = exact_word([("H", (0,)), ("S", (0,)), ("H", (0,))], 1)
    sqrt_x_dag = exact_word([("H", (0,)), ("Sdag", (0,)), ("H", (0,))], 1)
    h_on_1 = exact_word([("H", (1,))], 2)
    worst = 0.0
    holds = True
    for u2, tag in ((sqrt_x, "S"), (sqrt_x_dag, "Sdag")):
        lhs = exact_controlled(u2)
        rhs = h_on_1 @ exact_controlled(exact_word([(tag, (0,))], 1)) @ h_on_1
        if lhs != rhs:
            holds = False
            worst = max(worst, float(np.max(np.abs(lhs.to_complex() - rhs.to_complex()))))
    return IdentityResult("CSX_H_CONJ", holds, 0 if holds else worst, MODE_EXACT)


def _verify_ladder_trace() -> IdentityResult:
    gen1 = words.word(["Tdag", "H", "T", "H"])
    aa = su2.axis_angle_of(words.unitary(gen1))
    residual = abs(float(np.cos(aa.angle)) - (2 + np.sqrt(2)) / 4)
    return IdentityResult("LADDER_TRACE", residual < 1e-12, residual, MODE_NUMERIC)


def verify_identity(identity_id: str) -> IdentityResult:
    """Evaluate one inventory identity; exact-ring equality where possible."""
    if identity_id not in IDENTITY_IDS:
        raise ValidationError(f"unknown identity {identity_id!r}")
    if identity_id == "LADDER_TRACE":
        return _verify_ladder_trace()
    if identity_id == "CSX_H_CONJ":
        return _verify_csx_h_conj()
    lhs, rhs = _EXACT_CASES[identity_id]()
    holds = lhs == rhs
    residual: float | int = 0
    if not holds:
        residual = float(np.max(np.abs(lhs.to_complex() - rhs.to_complex())))
    return IdentityResult(identity_id, holds, residual, MODE_EXACT)


def identity_report() -> list[IdentityResult]:
    return [verify_identity(i) for i in IDENTITY_IDS]

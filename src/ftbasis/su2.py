"""Axis-angle and Euler algebra for 2x2 (and small multi-qubit) unitaries.

Conventions:
  * A 2x2 unitary is written U = e^{i d} (cos(phi) I + i sin(phi) n.sigma)
    with phi in [0, pi] and ||n|| = 1.  The stored phi is the half-angle
    of the corresponding SO(3) rotation (rotation angle 2*phi).
  * The canonical branch has cos(phi) >= 0; at cos(phi) = 0 the branch
    with lexicographically positive axis is chosen.  When sin(phi) = 0
    the axis is unconstrained and stored as z-hat.
  * Real powers follow sigma_j^a = e^{i pi a/2} e^{-i pi a/2 sigma_j};
    the 'h' axis uses H^a = sigma_y^{1/4} sigma_z^a sigma_y^{-1/4}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .words import GATE_MATRICES

SIGMA_X = GATE_MATRICES["X"]
SIGMA_Y = GATE_MATRICES["Y"]
SIGMA_Z = GATE_MATRICES["Z"]
HADAMARD = GATE_MATRICES["H"]
_PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
_Z_HAT = np.array([0.0, 0.0, 1.0])


def is_unitary(U: np.ndarray, tol: float = 1e-9) -> bool:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        return False
    return np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))) <= tol


def _require_unitary(U: np.ndarray, dim: int | None = None) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if dim is not None and U.shape != (dim, dim):
        raise ValidationError(f"expected a {dim}x{dim} matrix, got {U.shape}")
    if not is_unitary(U):
        raise ValidationError("matrix is not unitary")
    return U


def pauli_power(axis: str, alpha: float) -> np.ndarray:
    """Real power of a Pauli matrix (or of H) about the named axis.

    Satisfies pauli_power(a, x) @ pauli_power(a, y) == pauli_power(a, x+y).
    """
    if not math.isfinite(alpha):
        raise ValidationError("exponent must be finite")
    if axis == "z":
        return np.diag([1.0, np.exp(1j * np.pi * alpha)]).astype(complex)
    if axis == "x":
        return HADAMARD @ pauli_power("z", alpha) @ HADAMARD
    if axis == "y":
        s = np.diag([1, 1j]).astype(complex)
        return s @ pauli_power("x", alpha) @ s.conj().T
    if axis == "h":
        y4 = pauli_power("y", 0.25)
        return y4 @ pauli_power("z", alpha) @ y4.conj().T
    raise ValidationError(f"unknown axis tag {axis!r}")


@dataclass(frozen=True, eq=False)
class AxisAngle:
    """Canonical axis-angle form e^{i global_phase} e^{i angle n.sigma}."""

    global_phase: float
    angle: float
    axis: np.ndarray

    def to_matrix(self) -> np.ndarray:
        n = self.axis
        rot = math.cos(self.angle) * np.eye(2) + 1j * math.sin(self.angle) * (
            n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
        )
        return np.exp(1j * self.global_phase) * rot


def _wrap_angle(theta: float) -> float:
    """Map to the canonical branch (-pi, pi]."""
    out = math.fmod(theta + math.pi, 2 * math.pi)
    if out <= 0:
        out += 2 * math.pi
    return out - math.pi


def _lex_sign(v: np.ndarray, tol: float = 1e-12) -> float:
    for comp in v:
        if abs(comp) > tol:
            return 1.0 if comp > 0 else -1.0
    return 1.0


def axis_angle_of(U: np.ndarray) -> AxisAngle:
    """Decompose a 2x2 unitary into canonical axis-angle form."""
    U = _require_unitary(U, 2)
    delta = np.angle(np.linalg.det(U)) / 2.0
    V = np.exp(-1j * delta) * U
    c = float(np.trace(V).real) / 2.0
    v = np.array([(np.trace(V @ s) / 2j).real for s in _PAULIS])
    # Branch choice: nonnegative rotation cosine, ties broken by a
    # lexicographically positive axis.
    flip = c < -1e-12 or (abs(c) <= 1e-12 and _lex_sign(v) < 0)
    if flip:
        delta = _wrap_angle(delta + math.pi)
        c, v = -c, -v
    s = float(np.linalg.norm(v))
    if s <= 1e-14:
        return AxisAngle(delta, 0.0 if c > 0 else math.pi, _Z_HAT.copy())
    return AxisAngle(delta, math.atan2(s, c), v / s)


@dataclass(frozen=True, eq=False)
class EulerTriple:
    """Angles of e^{i alpha n1.sigma} e^{i beta n2.sigma} e^{i gamma n1.sigma}."""

    alpha: float
    beta: float
    gamma: float
    axis1: np.ndarray
    axis2: np.ndarray


def _rotation(theta: float, axis: np.ndarray) -> np.ndarray:
    n_sigma = axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z
    return math.cos(theta) * np.eye(2) + 1j * math.sin(theta) * n_sigma


def _check_axes(axis1: np.ndarray, axis2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a1 = np.asarray(axis1, dtype=float)
    a2 = np.asarray(axis2, dtype=float)
    if a1.shape != (3,) or a2.shape != (3,):
        raise ValidationError("axes must be 3-vectors")
    if abs(np.linalg.norm(a1) - 1) > 1e-9 or abs(np.linalg.norm(a2) - 1) > 1e-9:
        raise ValidationError("axes must be unit vectors")
    if abs(float(a1 @ a2)) > 1e-9:
        raise ValidationError("axes must be orthogonal")
    return a1, a2


def euler_compose(t: EulerTriple) -> np.ndarray:
    """Product of the three axis exponentials in the stated order."""
    a1, a2 = _check_axes(t.axis1, t.axis2)
    return _rotation(t.alpha, a1) @ _rotation(t.beta, a2) @ _rotation(t.gamma, a1)


def euler_invert(
    target: AxisAngle, axis1: np.ndarray, axis2: np.ndarray
) -> EulerTriple:
    """Solve for (alpha, beta, gamma) about two orthogonal axes.

    Inverts cos(phi) = cos(beta) cos(gamma+alpha) together with the
    component expansion of n sin(phi) along (n1, n2, n1 x n2).  The
    canonical solution has beta in [0, pi/2]; when beta = 0 the split of
    gamma+alpha is underdetermined and gamma = 0 is chosen.
    """
    a1, a2 = _check_axes(axis1, axis2)
    if abs(target.global_phase) > 1e-9:
        raise ValidationError("target must carry zero global phase")
    a3 = np.cross(a1, a2)
    c = math.cos(target.angle)
    v = math.sin(target.angle) * np.asarray(target.axis, dtype=float)
    v1, v2, v3 = float(v @ a1), float(v @ a2), float(v @ a3)
    cos_b = math.hypot(c, v1)
    sin_b = math.hypot(v2, v3)
    beta = math.atan2(sin_b, cos_b)
    if sin_b <= 1e-12:
        # On-axis target: only gamma + alpha matters.
        return EulerTriple(_wrap_angle(math.atan2(v1, c)), beta, 0.0, a1, a2)
    if cos_b <= 1e-12:
        diff = math.atan2(v3, v2)
        return EulerTriple(_wrap_angle(-diff / 2), beta, _wrap_angle(diff / 2), a1, a2)
    total = math.atan2(v1, c)
    diff = math.atan2(v3, v2)
    return EulerTriple(
        _wrap_angle((total - diff) / 2),
        beta,
        _wrap_angle((total + diff) / 2),
        a1,
        a2,
    )


def proj_distance(U: np.ndarray, V: np.ndarray) -> float:
    """Operator-norm distance minimized over a global phase.

    Equals min_theta ||U - e^{i theta} V||_2 for unitary U, V.  The
    minimizing phase is the center of the smallest arc enclosing the
    eigenvalues of V^dag U, found through the largest cyclic gap.
    """
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if U.shape != V.shape:
        raise ValidationError("dimension mismatch")
    angles = np.sort(np.angle(np.linalg.eigvals(V.conj().T @ U)))
    if len(angles) == 1:
        return 0.0
    gaps = np.diff(angles)
    largest = max(float(gaps.max()), float(angles[0] + 2 * np.pi - angles[-1]))
    return 2.0 * math.sin((2 * np.pi - largest) / 4.0)


def _givens(a: complex, b: complex) -> np.ndarray:
    """Determinant-one 2x2 unitary G with G @ (a, b) = (|(a,b)|, 0)."""
    n = math.hypot(abs(a), abs(b))
    return np.array([[a.conjugate() / n, b.conjugate() / n], [-b / n, a / n]])


def su3_two_level_decompose(
    U: np.ndarray,
) -> list[tuple[tuple[int, int], np.ndarray]]:
    """Split a 4x4 unitary fixing |00> into at most three two-level factors.

    The input must be block diagonal with U|00> = |00> and the remaining
    3x3 block in SU(3).  Returns pairs (subspace indices, 2x2 unitary)
    whose product, taken in list order, reproduces U.
    """
    U = _require_unitary(U, 4)
    e0 = np.zeros(4)
    e0[0] = 1.0
    if np.linalg.norm(U @ e0 - e0) > 1e-9 or np.linalg.norm(U.conj().T @ e0 - e0) > 1e-9:
        raise ValidationError("matrix does not fix |00>")
    block = U[1:, 1:]
    if abs(np.linalg.det(block) - 1) > 1e-9:
        raise ValidationError("3x3 block is not special unitary")

    applied: list[tuple[tuple[int, int], np.ndarray]] = []
    B = block.copy()
    for row, pair in ((1, (0, 1)), (2, (0, 2))):
        if abs(B[row, 0]) > 1e-12:
            G = _givens(complex(B[0, 0]), complex(B[row, 0]))
            full = np.eye(3, dtype=complex)
            full[np.ix_(pair, pair)] = G
            B = full @ B
            applied.append((pair, G))
    if abs(B[0, 0] - 1) > 1e-12:
        phase = complex(B[0, 0])
        G = np.diag([phase.conjugate(), phase])
        full = np.eye(3, dtype=complex)
        full[np.ix_((0, 1), (0, 1))] = G
        B = full @ B
        applied.append(((0, 1), G))
    rest = B[1:, 1:]
    if np.max(np.abs(rest - np.eye(2))) > 1e-12:
        applied.append(((1, 2), rest.conj().T.copy()))

    # U = G1^dag G2^dag ... in the order the G's were applied.
    return [
        ((pair[0] + 1, pair[1] + 1), G.conj().T.copy()) for pair, G in applied
    ]


def two_level_product(
    factors: list[tuple[tuple[int, int], np.ndarray]], dim: int = 4
) -> np.ndarray:
    """Multiply two-level factors (list order) back into a full matrix."""
    out = np.eye(dim, dtype=complex)
    for pair, G in factors:
        full = np.eye(dim, dtype=complex)
        full[np.ix_(pair, pair)] = G
        out = out @ full
    return out

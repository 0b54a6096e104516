"""Constructive synthesis of single-qubit unitaries over {H, T, Tdag}.

The engine walks an irrational-angle ladder: the composite
sigma_z^{-1/4} sigma_x^{1/4} is a rotation by lam*pi about an axis n1,
where cos(lam*pi) = (2 + sqrt(2))/4 and lam is irrational, so integer
powers of the composite reach any rotation angle about n1 to arbitrary
precision.  Conjugating by H^{-1/2} gives the same angle about an
orthogonal axis n2; H^{1/2} itself is an exact word over the basis
(sigma_y^{1/4} = S H T H S^dag), so the second-axis ladder is an exact
conjugation rather than a nested approximation.  A target is split into
three Euler factors about (n1, n2, n1), each factor is approximated to
eps/4 by a ladder power, and the triangle inequality bounds the total
projective error by 3*eps/4 < eps.

Ladder searches scan power indices in increasing order, so the returned
exponent is minimal; a continued-fraction (three-distance) bound on the
scan length guarantees termination for eps >= 1e-6.

This module also hosts the two-qubit generator-set verifications: the
rho composites, their spectra, and the fixed-frame block forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import su2, words
from .errors import UnsupportedPrecisionError, ValidationError
from .words import Gate, GateWord

LADDER_EPS_FLOOR = 1e-6
LADDER_SCAN_CAP = 10**8
APPROX_EPS_FLOOR = 1e-4

#: sigma_z^{-1/4} sigma_x^{1/4} in operator order (sigma_x^{1/4} = H T H).
GEN1_NAMES = ("Tdag", "H", "T", "H")

# sigma_y^{1/4} = S sigma_x^{1/4} S^dag; H^{1/2} = sigma_y^{1/4} S sigma_y^{-1/4}.
_Y_QUARTER = ("S", "H", "T", "H", "Sdag")
_Y_QUARTER_INV = ("S", "H", "Tdag", "H", "Sdag")
H_HALF_NAMES = _Y_QUARTER + ("S",) + _Y_QUARTER_INV
H_NEG_HALF_NAMES = _Y_QUARTER + ("Sdag",) + _Y_QUARTER_INV

# The conjugators as emitted, over {H, T, Tdag}.
_H_HALF_HT = tuple(words.expand_to_ht(words.word(H_HALF_NAMES)).names())
_H_NEG_HALF_HT = tuple(words.expand_to_ht(words.word(H_NEG_HALF_NAMES)).names())
_HT_GATES = {name: Gate(name, (0,)) for name in ("H", "T", "Tdag")}

#: A word as runs of repeated {H, T, Tdag} name tuples, in operator order.
Segments = tuple[tuple[tuple[str, ...], int], ...]


@dataclass(frozen=True, eq=False)
class LambdaFrame:
    """The irrational constant and the two orthogonal ladder axes."""

    lam: float
    axis1: np.ndarray
    axis2: np.ndarray
    gen1_word: GateWord
    gen2_word: GateWord


@dataclass(frozen=True, eq=False)
class SynthResult:
    """An emitted {H, T, Tdag} word, held as segments ``(names, repeat)``.

    A ladder result has the segments gen1^j, then H^{-1/2} gen1^k1 H^{1/2}
    when k1 > 0, then gen1^k2; a passthrough is one segment repeated once.
    ``achieved_error`` is the projective distance of the segment product
    (matrix powers of the segment matrices) to the target.  ``names``
    spells the word out by list repetition; ``word`` builds the validated
    ``GateWord`` on first access only.
    """

    segments: Segments
    achieved_error: float
    ladder_powers: tuple[int, int, int]

    def names(self) -> list[str]:
        out: list[str] = []
        for names, repeat in self.segments:
            out += names * repeat
        return out

    @cached_property
    def word(self) -> GateWord:
        gates: list[Gate] = []
        for names, repeat in self.segments:
            gates += tuple(_HT_GATES[n] for n in names) * repeat
        return GateWord(tuple(gates), 1)

    def to_json_dict(self) -> dict:
        return {
            "word": self.names(),
            "error": self.achieved_error,
            "powers": list(self.ladder_powers),
        }


@lru_cache(maxsize=1)
def lambda_frame() -> LambdaFrame:
    lam = math.acos((2 + math.sqrt(2)) / 4) / math.pi
    cot = math.cos(math.pi / 8) / math.sin(math.pi / 8)
    zx = np.array([-1.0, 0.0, 1.0])  # z-hat minus x-hat
    n1 = cot * zx + np.array([0.0, 1.0, 0.0])
    n2 = math.sqrt(2) * cot * np.array([0.0, 1.0, 0.0]) - zx / math.sqrt(2)
    gen1 = words.word(list(GEN1_NAMES))
    gen2 = words.word(list(H_NEG_HALF_NAMES + GEN1_NAMES + H_HALF_NAMES))
    return LambdaFrame(
        lam,
        n1 / np.linalg.norm(n1),
        n2 / np.linalg.norm(n2),
        gen1,
        gen2,
    )


def _cf_denominators(num: int, den: int) -> tuple[int, ...]:
    a, b = num, den
    q_prev, q_cur = 1, 0
    out = []
    while b and q_cur <= LADDER_SCAN_CAP:
        t = a // b
        a, b = b, a - t * b
        q_prev, q_cur = q_cur, t * q_cur + q_prev
        out.append(q_cur)
    return tuple(out)


@lru_cache(maxsize=8)
def _scan_bound_table(step: float) -> tuple[tuple[float, int], ...]:
    """Pairs (dist(q_{k-1}) + dist(q_k), scan bound) over the convergents q_k."""
    frac = Fraction(step / (2 * math.pi))

    def dist(q: int) -> float:
        m = (frac * q) % 1
        return float(min(m, 1 - m))

    qs = _cf_denominators(frac.numerator, frac.denominator)
    return tuple(
        (dist(qs[k - 1]) + dist(qs[k]), min(qs[k] + 1, LADDER_SCAN_CAP))
        for k in range(1, len(qs))
    )


def _guaranteed_scan_bound(step: float, eps: float) -> int:
    """Three-distance bound: points {n*step mod 2pi, n < N} have gaps < eps."""
    eps_frac = eps / (2 * math.pi)
    for gap, bound in _scan_bound_table(step):
        if gap < eps_frac:
            return bound
    return LADDER_SCAN_CAP


def _require_valid_eps(eps: float) -> None:
    if not math.isfinite(eps):
        raise ValidationError(f"eps must be finite, got {eps}")
    if eps <= 0:
        raise ValidationError("eps must be positive")


def _scan_ladder(step: float, theta: float, eps: float, n_max: int) -> int | None:
    """Smallest n < n_max with circle distance |n*step - theta| < eps."""
    chunk = 1 << 20
    start = 0
    while start < n_max:
        stop = min(start + chunk, n_max)
        n = np.arange(start, stop, dtype=np.float64)
        d = np.abs(np.remainder(n * step - theta + math.pi, 2 * math.pi) - math.pi)
        hits = np.nonzero(d < eps)[0]
        if hits.size:
            return start + int(hits[0])
        start = stop
    return None


def minimal_ladder_power(step: float, theta: float, eps: float) -> int:
    """Minimal n >= 0 with n*step within eps of theta on the circle.

    For eps >= the supported floor the continued-fraction bound makes the
    search total; below the floor the bounded scan may come up empty, in
    which case the floor is reported.
    """
    _require_valid_eps(eps)
    bound = _guaranteed_scan_bound(step, max(eps, LADDER_EPS_FLOOR))
    hit = _scan_ladder(step, theta, eps, bound)
    if hit is None:
        raise UnsupportedPrecisionError(
            f"no ladder power found: eps={eps:g} is below the supported floor "
            f"{LADDER_EPS_FLOOR:g}"
        )
    return hit


def phase_ladder(theta: float, eps: float) -> int:
    """Smallest n with n*lam*pi within eps of theta (mod 2 pi)."""
    return minimal_ladder_power(lambda_frame().lam * math.pi, theta, eps)


# ---------------------------------------------------------------------------
# Exact-passthrough table: short {H, T, Tdag} words matched up to phase.
# ---------------------------------------------------------------------------

_PASSTHROUGH_DEPTH = 6


def _phase_fingerprint(U: np.ndarray) -> tuple:
    det = np.linalg.det(U)
    V = U / np.sqrt(det)
    flat = V.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat))]
    if abs(pivot.real) > 1e-8:
        if pivot.real < 0:
            V = -V
    elif pivot.imag < 0:
        V = -V
    return tuple(np.round(V.reshape(-1), 6).tolist())


@lru_cache(maxsize=1)
def _passthrough_table() -> dict[tuple, tuple[str, ...]]:
    table: dict[tuple, tuple[str, ...]] = {}
    frontier: list[tuple[tuple[str, ...], np.ndarray]] = [((), np.eye(2, dtype=complex))]
    table[_phase_fingerprint(np.eye(2, dtype=complex))] = ()
    for _ in range(_PASSTHROUGH_DEPTH):
        nxt = []
        for names, mat in frontier:
            for gate in ("H", "T", "Tdag"):
                new = mat @ words.GATE_MATRICES[gate]
                key = _phase_fingerprint(new)
                if key not in table:
                    entry = names + (gate,)
                    table[key] = entry
                    nxt.append((entry, new))
        frontier = nxt
    return table


@lru_cache(maxsize=None)
def _names_unitary(names: tuple[str, ...]) -> np.ndarray:
    """Product of the named 1-qubit gate matrices in list order."""
    out = np.eye(2, dtype=complex)
    for name in names:
        out = out @ words.GATE_MATRICES[name]
    return out


def _segments_unitary(segments: Segments) -> np.ndarray:
    out = np.eye(2, dtype=complex)
    for names, repeat in segments:
        out = out @ np.linalg.matrix_power(_names_unitary(names), repeat)
    return out


def approx_su2(target: np.ndarray, eps: float) -> SynthResult:
    """Approximate a 2x2 unitary over {H, T, Tdag} to projective error < eps.

    Exact short-word matches are returned directly with zero error and
    ladder powers (0, 0, 0).  Otherwise the Euler angles about the frame
    axes are each realized by a ladder power at budget eps/4; the middle
    factor is conjugated into the second axis by the exact H^{1/2} word.
    """
    _require_valid_eps(eps)
    target = np.asarray(target, dtype=complex)
    if target.shape != (2, 2) or not su2.is_unitary(target):
        raise ValidationError("target must be a 2x2 unitary")
    if eps < APPROX_EPS_FLOOR:
        raise UnsupportedPrecisionError(
            f"eps={eps:g} is below the supported floor {APPROX_EPS_FLOOR:g}"
        )
    frame = lambda_frame()

    shortcut = _passthrough_table().get(_phase_fingerprint(target))
    if shortcut is not None:
        error = su2.proj_distance(_names_unitary(shortcut), target)
        if error < 1e-12:
            return SynthResult(((shortcut, 1),), error, (0, 0, 0))

    aa = su2.axis_angle_of(target)
    stripped = su2.AxisAngle(0.0, aa.angle, aa.axis)
    triple = su2.euler_invert(stripped, frame.axis1, frame.axis2)

    step = frame.lam * math.pi
    budget = eps / 4.0
    j = minimal_ladder_power(step, triple.alpha % (2 * math.pi), budget)
    k1 = minimal_ladder_power(step, triple.beta % (2 * math.pi), budget)
    k2 = minimal_ladder_power(step, triple.gamma % (2 * math.pi), budget)

    middle = ((_H_NEG_HALF_HT, 1), (GEN1_NAMES, k1), (_H_HALF_HT, 1)) if k1 else ()
    segments = ((GEN1_NAMES, j),) + middle + ((GEN1_NAMES, k2),)
    error = su2.proj_distance(_segments_unitary(segments), target)
    return SynthResult(segments, error, (j, k1, k2))


# ---------------------------------------------------------------------------
# Generator-set verifications (two-qubit rho composites)
# ---------------------------------------------------------------------------

FIXED_STATES = {
    "r1": np.array([0, 1, -1, 0], dtype=complex),
    "r2": np.array([0, 1, 1, 1], dtype=complex),
    "r3": np.array([0, -1, -1, 2], dtype=complex),
}

#: Unit eigenvalue of rho_2 and rho_3 away from the fixed plane.
RHO_EIGENVALUE = (1 + 1j * math.sqrt(15)) / 4
ALPHA_CONST = (1 + 2j) / math.sqrt(5)
BETA_CONST = (1 + 3j) / math.sqrt(10)


def _controlled(mat: np.ndarray) -> np.ndarray:
    out = np.eye(2 * mat.shape[0], dtype=complex)
    out[mat.shape[0] :, mat.shape[0] :] = mat
    return out


@lru_cache(maxsize=1)
def _rho_factor_map() -> dict[str, tuple[np.ndarray, ...]]:
    """Each composite as a product list of symmetric generator matrices."""
    csx = _controlled(su2.pauli_power("x", 0.5))
    csx_inv = _controlled(su2.pauli_power("x", -0.5))
    cs = _controlled(su2.pauli_power("z", 0.5))
    cs_inv = _controlled(su2.pauli_power("z", -0.5))
    cx = words.GATE_MATRICES["CNOT"]
    hh = np.kron(su2.HADAMARD, su2.HADAMARD)
    swap = (cx, hh, cx, hh, cx)

    rx = (csx, cs_inv)
    rx_inv = (cs, csx_inv)
    ry = swap + rx_inv + swap
    ry_inv = swap + rx + swap
    rz = (cx,) + ry_inv + (cx,)
    rz_inv = (cx,) + ry + (cx,)
    r1 = rz_inv + (cx, cs) + rz
    r1_inv = rz_inv + (cs_inv, cx) + rz
    r2 = rx + ry
    r3 = r1 + r2 + r1_inv
    return {"rx": rx, "ry": ry, "rz": rz, "r1": r1, "r2": r2, "r3": r3}


def rho_factor_words() -> dict[str, tuple[np.ndarray, ...]]:
    """Factor lists (symmetric generators) for each rho composite."""
    return _rho_factor_map()


def rho_generators() -> dict[str, np.ndarray]:
    """The six two-qubit composites built from the generator set."""
    out = {}
    for name, factors in _rho_factor_map().items():
        mat = np.eye(4, dtype=complex)
        for f in factors:
            mat = mat @ f
        out[name] = mat
    return out


@dataclass(frozen=True, eq=False)
class RhoBasisReport:
    alpha_const: complex
    beta_const: complex
    residuals: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "alphaConst": [self.alpha_const.real, self.alpha_const.imag],
            "betaConst": [self.beta_const.real, self.beta_const.imag],
            "residuals": list(self.residuals),
        }


def _fixed_frame() -> np.ndarray:
    e00 = np.zeros(4, dtype=complex)
    e00[0] = 1.0
    cols = [e00] + [
        FIXED_STATES[k] / np.linalg.norm(FIXED_STATES[k]) for k in ("r1", "r2", "r3")
    ]
    return np.stack(cols, axis=1)


def _block_form_2(theta: float, gamma: complex) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    out[1, 1] = out[3, 3] = math.cos(theta)
    out[1, 3] = gamma * math.sin(theta)
    out[3, 1] = -gamma.conjugate() * math.sin(theta)
    return out


def _block_form_3(theta: float, gamma: complex) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    out[1, 1] = out[2, 2] = math.cos(theta)
    out[1, 2] = -gamma.conjugate() * math.sin(theta)
    out[2, 1] = gamma * math.sin(theta)
    return out


def rho_basis_forms(
    thetas: tuple[float, ...] = (0.0, 0.6, 1.3, 2.1, 2.9), ladder_eps: float = 1e-3
) -> RhoBasisReport:
    """Verify the fixed-frame block forms of rho_2 / rho_3 ladder powers.

    In the orthonormal frame (|00>, fixed states of rho_1, rho_2, rho_3)
    the composites act as single-parameter rotation families with
    off-diagonal unit phases alpha = (1+2i)/sqrt(5), beta = (1+3i)/sqrt(10).
    rho_2 steps the angle by +2*pi*c per power and rho_3 by -2*pi*c, with
    e^{i 2 pi c} = (1 + i sqrt(15))/4; each grid angle is reached by a
    ladder power and the block form is evaluated at the realized angle.
    """
    rhos = rho_generators()
    frame = _fixed_frame()
    r2h = frame.conj().T @ rhos["r2"] @ frame
    r3h = frame.conj().T @ rhos["r3"] @ frame

    step = math.atan2(math.sqrt(15), 1.0)  # 2*pi*c
    sin_step = math.sqrt(15) / 4.0
    alpha_est = complex(r2h[1, 3] / sin_step)
    beta_est = complex(r3h[2, 1] / -sin_step)

    residuals = [
        abs(alpha_est - ALPHA_CONST),
        abs(beta_est - BETA_CONST),
        float(np.max(np.abs(r2h - _block_form_2(step, ALPHA_CONST)))),
        float(np.max(np.abs(r3h - _block_form_3(-step, BETA_CONST)))),
    ]
    for theta in thetas:
        n = minimal_ladder_power(step, theta % (2 * math.pi), ladder_eps)
        realized = n * step
        p2 = np.linalg.matrix_power(r2h, n)
        p3 = np.linalg.matrix_power(r3h, n)
        residuals.append(float(np.max(np.abs(p2 - _block_form_2(realized, ALPHA_CONST)))))
        residuals.append(float(np.max(np.abs(p3 - _block_form_3(-realized, BETA_CONST)))))
    return RhoBasisReport(alpha_est, beta_est, tuple(residuals))

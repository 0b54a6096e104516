"""Exact arithmetic for gate matrices over Z[zeta_8].

Elements are written a + b z + c z^2 + d z^3 in the power basis of
z = e^{i pi/4}, with z^4 = -1.  Inside this ring sqrt(2) = z - z^3, so
divisibility by sqrt(2) is an exact parity condition on coefficients:
e is divisible iff a = c (mod 2) and b = d (mod 2), with quotient
((b-d)/2, (a+c)/2, (b+d)/2, (c-a)/2).

A matrix is stored as integer numerators over a global denominator
sqrt(2)^ell.  The canonical form has ell = 0 or at least one numerator
not divisible by sqrt(2).  Gaussian integers are the elements with
b = d = 0; the reachability obstruction for words over Shor's basis
{H, S, X, Y, Z, CNOT, TOFFOLI} asks whether some sqrt(2)-multiple of a
matrix is entirely Gaussian.  The test is one-directional: words over
Shor's basis always satisfy it, but satisfying it does not certify
membership.

Coefficients are arbitrary-precision integers.  Matrices whose
coefficients fit comfortably in int64 are held in vectorized numpy
storage; anything larger falls back to Python-int object arrays, so
results are exact at every size.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

# Stored int64 coefficients stay below this; products then bound-check
# against it so no intermediate can reach 2^63.
_INT64_SAFE = 1 << 61


@dataclass(frozen=True)
class RingElement:
    """a + b z + c z^2 + d z^3 with z = e^{i pi/4}."""

    a: int
    b: int
    c: int
    d: int

    def __add__(self, other: "RingElement") -> "RingElement":
        return RingElement(
            self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        return RingElement(
            self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d
        )

    def __neg__(self) -> "RingElement":
        return RingElement(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other: "RingElement") -> "RingElement":
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return RingElement(
            a1 * a2 - b1 * d2 - c1 * c2 - d1 * b2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + b1 * b2 + c1 * a2 - d1 * d2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
        )

    def conj(self) -> "RingElement":
        """Complex conjugation: z -> z^{-1} = -z^3."""
        return RingElement(self.a, -self.d, -self.c, -self.b)

    def is_gaussian(self) -> bool:
        return self.b == 0 and self.d == 0

    def divisible_by_sqrt2(self) -> bool:
        return (self.a + self.c) % 2 == 0 and (self.b + self.d) % 2 == 0

    def div_sqrt2(self) -> "RingElement":
        if not self.divisible_by_sqrt2():
            raise ValidationError(f"{self} is not divisible by sqrt(2)")
        return RingElement(
            (self.b - self.d) // 2,
            (self.a + self.c) // 2,
            (self.b + self.d) // 2,
            (self.c - self.a) // 2,
        )

    def to_complex(self) -> complex:
        return complex(self.a + self.b * _BASIS[1] + self.c * _BASIS[2] + self.d * _BASIS[3])


ZERO = RingElement(0, 0, 0, 0)
ONE = RingElement(1, 0, 0, 0)
ZETA8 = RingElement(0, 1, 0, 0)
IMAG = RingElement(0, 0, 1, 0)
SQRT2 = RingElement(0, 1, 0, -1)

SHOR_BASIS = ("H", "S", "X", "Y", "Z", "CNOT", "TOFFOLI")


def _coeffs(powers: list[list[int | None]]) -> np.ndarray:
    """Coefficient array of a matrix of z-exponents (None for a zero entry)."""
    n = len(powers)
    out = np.zeros((n, n, 4), dtype=np.int64)
    for i, row in enumerate(powers):
        for j, p in enumerate(row):
            if p is not None:
                out[i, j, p % 4] = -1 if p % 8 >= 4 else 1
    out.flags.writeable = False
    return out


def monomial(cols: Sequence[int], phases: Sequence[int] | None = None) -> np.ndarray:
    """Coefficient array with entry (i, cols[i]) = z^phases[i] and zeros elsewhere.

    Phases default to 0, which makes a permutation matrix.
    """
    n = len(cols)
    phases = phases or (0,) * n
    return _coeffs([[phases[i] if j == cols[i] else None for j in range(n)] for i in range(n)])


#: The generators: name -> (coefficients, sqrt(2) exponent, inverse name).
#: Every entry is 0 or z^p, and every generator but H has one nonzero
#: entry per row, so it is written as a monomial; every other gate matrix
#: in the package is derived from this table.
GATE_TABLE: dict[str, tuple[np.ndarray, int, str]] = {
    "H": (_coeffs([[0, 0], [0, 4]]), 1, "H"),
    "T": (monomial((0, 1), (0, 1)), 0, "Tdag"),
    "Tdag": (monomial((0, 1), (0, 7)), 0, "T"),
    "S": (monomial((0, 1), (0, 2)), 0, "Sdag"),
    "Sdag": (monomial((0, 1), (0, 6)), 0, "S"),
    "X": (monomial((1, 0)), 0, "X"),
    "Y": (monomial((1, 0), (6, 2)), 0, "Y"),
    "Z": (monomial((0, 1), (0, 4)), 0, "Z"),
    "CNOT": (monomial((0, 1, 3, 2)), 0, "CNOT"),
    "TOFFOLI": (monomial((0, 1, 2, 3, 4, 5, 7, 6)), 0, "TOFFOLI"),
}
EXACT_GATE_NAMES = tuple(GATE_TABLE)
GATE_ARITY = {name: len(c).bit_length() - 1 for name, (c, _, _) in GATE_TABLE.items()}

# Numeric values of the power basis 1, z, z^2, z^3.  z^2 and z^3 are
# written as i and -conj(z) so that each is exact given z.
_OMEGA = np.exp(1j * np.pi / 4)
_BASIS = np.array([1, _OMEGA, 1j, -_OMEGA.conjugate()])


def embed(matrix: np.ndarray, targets: tuple[int, ...], width: int) -> np.ndarray:
    """Tensor-embed a k-qubit gate onto the given qubits of a width-n register.

    ``matrix`` has shape (2^k, 2^k, ...); trailing axes (such as the four
    ring coefficients) ride along and the dtype is kept.  The identity
    acts on every other qubit.
    """
    k = len(targets)
    if matrix.shape[:2] != (1 << k, 1 << k):
        raise ValidationError("gate dimension does not match target count")
    if len(set(targets)) != k or any(t < 0 or t >= width for t in targets):
        raise ValidationError(f"bad targets {targets} for width {width}")
    trail = matrix.shape[2:]
    rest = [q for q in range(width) if q not in targets]
    m = len(rest)
    # Axes: target rows, target cols, trailing, rest rows, rest cols.
    full = np.multiply.outer(
        matrix.reshape((2,) * (2 * k) + trail),
        np.eye(1 << m, dtype=matrix.dtype).reshape((2,) * (2 * m)),
    )
    # Move each qubit's row axis to position q and its column axis to
    # width + q; the trailing axes fall in behind.
    qubits = list(targets) + rest
    rest_axis = 2 * k + len(trail)
    rows = [*range(k), *range(rest_axis, rest_axis + m)]
    cols = [*range(k, 2 * k), *range(rest_axis + m, rest_axis + 2 * m)]
    full = np.moveaxis(full, rows + cols, qubits + [width + q for q in qubits])
    return full.reshape((1 << width, 1 << width) + trail)


def _coeff_storage(data) -> np.ndarray:
    """int64 array when coefficients fit; else an object array of Python ints."""
    if isinstance(data, np.ndarray) and data.dtype == np.int64:
        if data.size == 0 or int(np.abs(data).max()) < _INT64_SAFE:
            return data if not data.flags.writeable else data.copy()
        data = data.tolist()
    elif isinstance(data, np.ndarray):
        data = data.tolist()
    try:
        arr = np.asarray(data, dtype=np.int64)
        if arr.size == 0 or int(np.abs(arr).max()) < _INT64_SAFE:
            return arr
    except (OverflowError, TypeError, ValueError):
        pass
    obj = np.empty(np.shape(data), dtype=object)
    obj[...] = data
    return obj


def _max_abs(coeffs: np.ndarray) -> int:
    if coeffs.dtype == np.int64:
        return int(np.abs(coeffs).max())
    return max(abs(int(x)) for x in coeffs.reshape(-1))


class ExactMatrix:
    """Matrix with Z[zeta_8] numerators over a global sqrt(2)^ell denominator."""

    # ``_gather`` is the signed-gather form of ``A @ self`` (see
    # ``_right_action``), set only on the cached table gates.
    __slots__ = ("dim", "denom_exp", "coeffs", "_gather")

    def __init__(self, coeffs, denom_exp: int = 0, reduce: bool = True):
        arr = _coeff_storage(coeffs)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 4:
            raise ValidationError("coefficients must have shape (dim, dim, 4)")
        if denom_exp < 0:
            raise ValidationError("denominator exponent must be nonnegative")
        self.dim = int(arr.shape[0])
        self.coeffs = arr
        self.denom_exp = int(denom_exp)
        self._gather = None
        if reduce:
            self._reduce()
        self.coeffs.flags.writeable = False

    def _reduce(self) -> None:
        a, b, c, d = (self.coeffs[:, :, k] for k in range(4))
        changed = False
        while self.denom_exp > 0:
            if not (((a + c) & 1 == 0).all() and ((b + d) & 1 == 0).all()):
                break
            a, b, c, d = (b - d) >> 1, (a + c) >> 1, (b + d) >> 1, (c - a) >> 1
            self.denom_exp -= 1
            changed = True
        if changed:
            out = np.empty((self.dim, self.dim, 4), dtype=self.coeffs.dtype)
            out[:, :, 0], out[:, :, 1], out[:, :, 2], out[:, :, 3] = a, b, c, d
            self.coeffs = out

    def entry(self, i: int, j: int) -> RingElement:
        return RingElement(*(int(x) for x in self.coeffs[i, j]))

    def max_abs_coeff(self) -> int:
        return _max_abs(self.coeffs)

    def to_complex(self) -> np.ndarray:
        num = self.coeffs.astype(complex) @ _BASIS
        return num / np.sqrt(2.0) ** self.denom_exp

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.denom_exp == other.denom_exp
            and bool(np.equal(self.coeffs, other.coeffs).all())
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        return exact_mul(self, other)

    def __repr__(self) -> str:
        return f"ExactMatrix(dim={self.dim}, denom_exp={self.denom_exp})"

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "denomExp": self.denom_exp,
            "entries": [
                [str(int(x)) for x in self.coeffs[i, j]]
                for i in range(self.dim)
                for j in range(self.dim)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExactMatrix":
        dim = int(data["dim"])
        entries = data["entries"]
        if len(entries) != dim * dim:
            raise ValidationError("entry count does not match dim")
        rows = []
        for quad in entries:
            if len(quad) != 4:
                raise ValidationError("each entry needs 4 coefficients")
            rows.append([int(s) for s in quad])
        arr = np.empty((dim, dim, 4), dtype=object)
        arr[...] = np.asarray(rows, dtype=object).reshape(dim, dim, 4)
        return cls(arr, int(data["denomExp"]))

    @classmethod
    def identity(cls, dim: int) -> "ExactMatrix":
        arr = np.zeros((dim, dim, 4), dtype=np.int64)
        for i in range(dim):
            arr[i, i, 0] = 1
        return cls(arr, 0, reduce=False)


def _right_action(coeffs: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
    """``A @ G`` as signed gathers over the (dim, 4 dim) view of A.

    Returns terms ``(idx, sign)`` with ``A @ G`` the sum over the terms
    of ``A_flat[:, idx] * sign`` (``sign`` is None when it is all +1).
    Entry (l, j) of G is +-z^q, which sends component m of ``A[:, l]``
    to component (m + q) mod 4 of column j, negated when m + q >= 4.
    Every table row has one such entry per column (a monomial) or, for
    H, two, so every output coefficient has the same number of terms.
    """
    terms: list[list[tuple[int, int]]] = [[] for _ in range(4 * coeffs.shape[0])]
    for l, j, q in zip(*np.nonzero(coeffs)):
        g = int(coeffs[l, j, q])
        for m in range(4):
            terms[4 * j + (m + q) % 4].append((4 * l + m, -g if m + q >= 4 else g))
    action = []
    for column_terms in zip(*terms, strict=True):
        idx, sign = np.array(column_terms).T
        action.append((idx, None if (sign == 1).all() else sign))
    return tuple(action)


@lru_cache(maxsize=None)
def _cached_gate(name: str, targets: tuple[int, ...], width: int) -> ExactMatrix:
    coeffs, denom_exp, _ = GATE_TABLE[name]
    gate = ExactMatrix(embed(coeffs, targets, width), denom_exp, reduce=False)
    gate._gather = _right_action(gate.coeffs)
    return gate


def exact_gate(name: str, targets: tuple[int, ...] | list[int], width: int) -> ExactMatrix:
    """Canonical exact embedding of a named generator (identity elsewhere)."""
    if name not in GATE_TABLE:
        raise ValidationError(f"unknown exact gate {name!r}")
    if not 1 <= width <= 3:
        raise ValidationError("width must be between 1 and 3")
    targets = tuple(int(t) for t in targets)
    if len(targets) != GATE_ARITY[name]:
        raise ValidationError(f"{name} takes {GATE_ARITY[name]} targets")
    return _cached_gate(name, targets, width)  # embed rejects bad targets


def _mix_components(P: np.ndarray) -> np.ndarray:
    """Combine pairwise component products via zeta^p zeta^q = +-zeta^{(p+q) mod 4}."""
    c0 = P[0, 0] - P[1, 3] - P[2, 2] - P[3, 1]
    c1 = P[0, 1] + P[1, 0] - P[2, 3] - P[3, 2]
    c2 = P[0, 2] + P[1, 1] + P[2, 0] - P[3, 3]
    c3 = P[0, 3] + P[1, 2] + P[2, 1] + P[3, 0]
    return np.stack((c0, c1, c2, c3), axis=-1)


def _gather_mul(A: ExactMatrix, G: ExactMatrix) -> ExactMatrix:
    """``A @ G`` for a cached table gate G: a signed column gather of A.

    Storage follows the generic product: int64 exactly when every
    unreduced coefficient is below 2^61.  A unit monomial G moves A's
    coefficients up to sign, so it keeps a reduced matrix reduced and
    keeps int64 storage with no scan.  H sums two gathers and reduces.
    """
    flat = A.coeffs.reshape(A.dim, 4 * A.dim)
    out = None
    for idx, sign in G._gather:
        term = flat.take(idx, axis=1)
        if sign is not None:
            term *= sign
        out = term if out is None else out + term
    if len(G._gather) == 1 and A.coeffs.dtype == np.int64:
        dtype = np.int64  # a unit monomial keeps A's max |coeff|
    else:
        dtype = np.int64 if _max_abs(out) < _INT64_SAFE else object
    M = object.__new__(ExactMatrix)  # skips the constructor's storage scans
    M.dim, M.denom_exp, M._gather = A.dim, A.denom_exp + G.denom_exp, None
    M.coeffs = out.reshape(A.dim, A.dim, 4).astype(dtype, copy=False)
    if G.denom_exp > 0:
        M._reduce()
    M.coeffs.flags.writeable = False
    return M


def exact_mul(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """Exact product, canonically reduced.

    When B is a cached table gate (``exact_gate``), the product is a
    signed column gather of A (``_gather_mul``).  Otherwise it is computed
    in int64 when the coefficient bound keeps every intermediate below
    2^63, else over object arrays of Python ints.
    """
    if A.dim != B.dim:
        raise ValidationError("dimension mismatch")
    if B._gather is not None:
        return _gather_mul(A, B)
    dtype = object
    if A.coeffs.dtype == np.int64 and B.coeffs.dtype == np.int64:
        if A.max_abs_coeff() * B.max_abs_coeff() * A.dim * 4 < _INT64_SAFE:
            dtype = np.int64
    a4 = np.ascontiguousarray(A.coeffs.transpose(2, 0, 1), dtype=dtype)
    b4 = np.ascontiguousarray(B.coeffs.transpose(2, 0, 1), dtype=dtype)
    prod = _mix_components(a4[:, None] @ b4[None, :])
    return ExactMatrix(prod, A.denom_exp + B.denom_exp)


def exact_word(gates: list[tuple[str, tuple[int, ...]]], width: int) -> ExactMatrix:
    """Exact product of named gates given in operator order."""
    out = ExactMatrix.identity(1 << width)
    for name, targets in gates:
        out = exact_mul(out, exact_gate(name, targets, width))
    return out


def exact_controlled(U: ExactMatrix) -> ExactMatrix:
    """Controlled-U on two qubits (control = qubit 0) for a 2x2 exact U."""
    if U.dim != 2:
        raise ValidationError("controlled embedding expects a 2x2 matrix")
    full = np.empty((4, 4, 4), dtype=object)
    full[...] = 0
    scale = ONE
    for _ in range(U.denom_exp):
        scale = scale * SQRT2
    for i in range(2):
        full[i, i] = [scale.a, scale.b, scale.c, scale.d]
    for i in range(2):
        for j in range(2):
            full[2 + i, 2 + j] = [int(x) for x in U.coeffs[i, j]]
    return ExactMatrix(full, U.denom_exp)


def gaussian_obstruction(A: ExactMatrix) -> bool:
    """Whether sqrt(2)^k A has all-Gaussian entries for some k >= 0.

    Necessary condition for reachability over Shor's basis: every word
    over {H, S, X, Y, Z, CNOT, TOFFOLI} passes, while e.g. the T gate
    fails.  Passing does not certify reachability (one-directional).
    """
    b = A.coeffs[:, :, 1]
    d = A.coeffs[:, :, 3]
    if bool(np.equal(b, 0).all()) and bool(np.equal(d, 0).all()):
        return True
    a = A.coeffs[:, :, 0]
    c = A.coeffs[:, :, 2]
    return bool(np.equal(a, 0).all()) and bool(np.equal(c, 0).all())

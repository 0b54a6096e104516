"""Independent numpy references used to check every benchmark op.

Nothing here imports ftbasis: gate matrices are written out from their
definitions, products are taken by pairwise reduction instead of a left
fold, exact matrices are converted to floats with Python integer
division, and states are evolved with einsum.  Conventions follow the
package: qubit 0 is the most significant bit and a word lists its gates
in operator order (the first name is the leftmost factor).
"""

from __future__ import annotations

import math

import numpy as np

_W = np.exp(1j * np.pi / 4)
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_TOFFOLI = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]

GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "T": np.diag([1, _W]),
    "Tdag": np.diag([1, np.conj(_W)]),
    "S": np.diag([1, 1j]),
    "Sdag": np.diag([1, -1j]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0 + 0j, -1.0]),
    "CNOT": _CNOT,
    "TOFFOLI": _TOFFOLI,
}


def product(mats: np.ndarray) -> np.ndarray:
    """Ordered product M[0] @ M[1] @ ... of a stack, by pairwise reduction."""
    mats = np.asarray(mats, dtype=complex)
    if len(mats) == 0:
        raise ValueError("empty product")
    while len(mats) > 1:
        if len(mats) % 2:
            eye = np.broadcast_to(np.eye(mats.shape[-1]), (1, *mats.shape[1:]))
            mats = np.concatenate([mats, eye])
        mats = mats[0::2] @ mats[1::2]
    return mats[0]


_ONE_QUBIT = [name for name, mat in GATES.items() if mat.shape == (2, 2)]
_ONE_QUBIT_STACK = np.stack([GATES[name] for name in _ONE_QUBIT])
_CHUNK = 4096


def word_product(names: list[str]) -> np.ndarray:
    """Matrix of a single-qubit word given by gate names.

    Works chunk by chunk so that checking a long word allocates little:
    the benchmark's peak memory should be the program's, not the oracle's.
    """
    index = {name: i for i, name in enumerate(_ONE_QUBIT)}
    codes = np.fromiter((index[n] for n in names), dtype=np.int8, count=len(names))
    out = np.eye(2, dtype=complex)
    for start in range(0, len(codes), _CHUNK):
        out = out @ product(_ONE_QUBIT_STACK[codes[start : start + _CHUNK]])
    return out


def proj_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over phi of ||u - e^{i phi} v|| for 2x2 unitaries.

    The eigenvalues of v^dag u are e^{i a}, e^{i b}; the best phase sits
    midway between them on the shorter arc, leaving 2 sin(arc / 4).
    """
    ev = np.linalg.eigvals(v.conj().T @ u)
    arc = abs(float(np.angle(ev[0] / ev[1])))
    return 2.0 * math.sin(arc / 4.0)


def embed(mat: np.ndarray, targets: tuple[int, ...], width: int) -> np.ndarray:
    """Full 2^width operator acting as ``mat`` on ``targets``."""
    k = len(targets)
    rest = [q for q in range(width) if q not in targets]
    full = np.kron(mat, np.eye(1 << (width - k))).reshape([2] * (2 * width))
    order = list(targets) + rest
    perm = [order.index(q) for q in range(width)]
    full = full.transpose(perm + [width + p for p in perm])
    return full.reshape(1 << width, 1 << width)


def exact_to_complex(coeffs, denom_exp: int) -> np.ndarray:
    """Float value of Z[zeta_8] numerators over sqrt(2)^denom_exp."""
    dim = len(coeffs)
    half, odd = divmod(int(denom_exp), 2)
    scale = 1 << half
    zeta = [1.0, _W, 1j, _W**3]
    out = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            out[i, j] = sum((int(c) / scale) * z for c, z in zip(coeffs[i][j], zeta))
    return out / math.sqrt(2) if odd else out


def apply(psi: np.ndarray, gate: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Apply a k-qubit gate to a [2]*n state tensor with einsum."""
    n = psi.ndim
    k = len(targets)
    letters = "abcdefghijklmnopqrstuvwxyz"
    state_in = letters[:n]
    new = letters[n : n + k]
    gate_sub = new + "".join(state_in[t] for t in targets)
    state_out = list(state_in)
    for pos, t in enumerate(targets):
        state_out[t] = new[pos]
    return np.einsum(
        f"{gate_sub},{state_in}->{''.join(state_out)}",
        gate.reshape([2] * (2 * k)),
        psi,
    )


def _bits(n: int, qubits) -> np.ndarray:
    """Per basis index, how many of ``qubits`` are 1."""
    idx = np.arange(1 << n)
    return sum((idx >> (n - 1 - q)) & 1 for q in qubits)


def z_projection(amps: np.ndarray, n: int, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """The two unnormalized branches (outcome 0, outcome 1) of a Z measurement."""
    one = _bits(n, [qubit]) == 1
    return np.where(one, 0, amps), np.where(one, amps, 0)


def cat_projection(amps: np.ndarray, n: int, block) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized branches (+1, -1) of the cat-basis measurement of a block.

    Raises if the block has support outside span{|0..0>, |1..1>}.
    """
    bits = _bits(n, block)
    all0, all1 = bits == 0, bits == len(block)
    if np.linalg.norm(amps[~(all0 | all1)]) > 1e-9:
        raise ValueError("block leaves the cat subspace")
    branches = []
    for sign in (1, -1):
        comp = (amps[all0] + sign * amps[all1]) / 2.0
        out = np.zeros_like(amps)
        out[all0], out[all1] = comp, sign * comp
        branches.append(out)
    return branches[0], branches[1]


class BornTally:
    """Sampled outcomes against their Born weights, one draw per key.

    A key names one measurement of one op (its index in the pool).  An op
    that runs again repeats its outcomes, so a key already seen is ignored;
    counting it twice would inflate the z-score.
    """

    def __init__(self, draws=()):
        self.draws: dict = {}
        for key, p_first, got_first in draws:
            self.add(tuple(key), p_first, got_first)

    def add(self, key: tuple, p_first: float, got_first: bool) -> None:
        self.draws.setdefault(key, (p_first, bool(got_first)))

    def zscore(self) -> float:
        hits = sum(got for _, got in self.draws.values())
        expected = sum(p for p, _ in self.draws.values())
        variance = sum(p * (1.0 - p) for p, _ in self.draws.values())
        if variance == 0:
            return 0.0 if abs(hits - expected) < 1e-9 else math.inf
        return (hits - expected) / math.sqrt(variance)

import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftbasis import ring, su2, synth, words
from ftbasis.errors import ValidationError
from ftbasis.ring import (
    IMAG,
    ONE,
    SHOR_BASIS,
    SQRT2,
    ZETA8,
    ExactMatrix,
    RingElement,
    exact_controlled,
    exact_gate,
    exact_mul,
    exact_word,
    gaussian_obstruction,
)

coeff = st.integers(min_value=-(10**6), max_value=10**6)
elements = st.builds(RingElement, coeff, coeff, coeff, coeff)

_W = np.exp(1j * np.pi / 4)
_TOFFOLI = np.eye(8)
_TOFFOLI[[6, 7]] = _TOFFOLI[[7, 6]]
# The generators written out by hand, independent of the exact table.
LITERAL_GATES = {
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "T": np.diag([1, _W]),
    "Tdag": np.diag([1, np.conj(_W)]),
    "S": np.diag([1, 1j]),
    "Sdag": np.diag([1, -1j]),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "TOFFOLI": _TOFFOLI,
}


def embed_reference(gate, targets, width):
    """Entry (row, col) is the gate entry picked out by the target bits of
    row and col, when row and col agree on every other qubit, else 0."""

    def bit(index, qubit):
        return (index >> (width - 1 - qubit)) & 1

    def gate_index(index):
        return sum(bit(index, t) << (len(targets) - 1 - p) for p, t in enumerate(targets))

    dim = 1 << width
    out = np.zeros((dim, dim) + gate.shape[2:], dtype=gate.dtype)
    for row in range(dim):
        for col in range(dim):
            if all(bit(row, q) == bit(col, q) for q in range(width) if q not in targets):
                out[row, col] = gate[gate_index(row), gate_index(col)]
    return out


def random_shor_word(rng, length, width=3):
    gates = []
    for _ in range(length):
        name = SHOR_BASIS[rng.integers(0, len(SHOR_BASIS))]
        arity = {"CNOT": 2, "TOFFOLI": 3}.get(name, 1)
        targets = tuple(int(t) for t in rng.permutation(width)[:arity])
        gates.append((name, targets))
    return gates


def word_product(gates, width=3):
    out = ExactMatrix.identity(1 << width)
    for name, targets in gates:
        out = exact_mul(out, exact_gate(name, targets, width))
    return out


class TestRingElement:
    def test_zeta8_fourth_power_is_minus_one(self):
        z4 = ZETA8 * ZETA8 * ZETA8 * ZETA8
        assert z4 == RingElement(-1, 0, 0, 0)

    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == RingElement(2, 0, 0, 0)

    def test_numeric_embedding(self):
        assert ZETA8.to_complex() == pytest.approx(np.exp(1j * np.pi / 4))
        assert IMAG.to_complex() == pytest.approx(1j)
        assert SQRT2.to_complex() == pytest.approx(np.sqrt(2))

    @given(elements, elements, elements)
    def test_mul_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(elements, elements, elements)
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(elements, elements)
    def test_mul_commutative(self, x, y):
        assert x * y == y * x

    @given(elements, elements)
    def test_conjugation_is_ring_homomorphism(self, x, y):
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()

    @given(elements)
    def test_conjugation_involutive(self, x):
        assert x.conj().conj() == x

    @given(elements)
    def test_conjugation_matches_complex_conjugate(self, x):
        assert x.conj().to_complex() == pytest.approx(
            np.conj(x.to_complex()), abs=1e-6, rel=1e-9
        )

    @given(elements)
    def test_mul_matches_complex(self, x):
        got = (x * ZETA8).to_complex()
        assert got == pytest.approx(
            x.to_complex() * np.exp(1j * np.pi / 4), abs=1e-6, rel=1e-9
        )

    @given(elements)
    def test_sqrt2_division_roundtrip(self, x):
        y = x * SQRT2
        assert y.divisible_by_sqrt2()
        assert y.div_sqrt2() == x

    def test_indivisible_element_raises(self):
        with pytest.raises(ValidationError):
            ZETA8.div_sqrt2()


class TestExactGate:
    def test_hadamard_form(self):
        h = exact_gate("H", (0,), 1)
        assert h.denom_exp == 1
        assert h.entry(0, 0) == ONE and h.entry(0, 1) == ONE
        assert h.entry(1, 0) == ONE and h.entry(1, 1) == -ONE

    def test_t_gate_form(self):
        t = exact_gate("T", (0,), 1)
        assert t.denom_exp == 0
        assert t.entry(1, 1) == ZETA8

    def test_cnot_is_permutation(self):
        c = exact_gate("CNOT", (0, 1), 2)
        assert c.denom_exp == 0
        perm = np.array([[c.entry(i, j).a for j in range(4)] for i in range(4)])
        assert (perm.sum(axis=0) == 1).all() and (perm.sum(axis=1) == 1).all()

    def test_numeric_matches_float_gates(self):
        for name in ("H", "S", "T", "X", "Y", "Z"):
            got = exact_gate(name, (0,), 1).to_complex()
            assert np.max(np.abs(got - words.GATE_MATRICES[name])) < 1e-15

    def test_embedding_matches_float_embed(self, rng):
        for name, targets, width in (
            ("H", (1,), 3),
            ("CNOT", (2, 0), 3),
            ("TOFFOLI", (1, 2, 0), 3),
        ):
            got = exact_gate(name, targets, width).to_complex()
            want = words.embed(words.GATE_MATRICES[name], targets, width)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_derived_float_matrices_match_literals(self):
        assert set(words.GATE_MATRICES) == set(LITERAL_GATES)
        for name, want in LITERAL_GATES.items():
            got = words.GATE_MATRICES[name]
            assert got.dtype == complex and np.array_equal(got, want), name
            assert not got.flags.writeable, name

    def test_su2_constants_are_the_shared_read_only_arrays(self):
        for const, name in ((su2.SIGMA_X, "X"), (su2.SIGMA_Y, "Y"), (su2.SIGMA_Z, "Z"),
                            (su2.HADAMARD, "H")):
            assert const is words.GATE_MATRICES[name]
            with pytest.raises(ValueError):
                const[0, 0] = 7

    def test_daggers_are_powers(self):
        t, s = exact_gate("T", (0,), 1), exact_gate("S", (0,), 1)
        assert exact_gate("Tdag", (0,), 1) == reduce(exact_mul, [t] * 7)
        assert exact_gate("Sdag", (0,), 1) == reduce(exact_mul, [s] * 3)
        for name, (_, _, inverse) in ring.GATE_TABLE.items():
            width = ring.GATE_ARITY[name]
            targets = tuple(range(width))
            product = exact_mul(exact_gate(name, targets, width), exact_gate(inverse, targets, width))
            assert product == ExactMatrix.identity(1 << width), name

    def test_bad_targets_rejected(self):
        with pytest.raises(ValidationError):
            exact_gate("CNOT", (0, 3), 2)
        with pytest.raises(ValidationError):
            exact_gate("CNOT", (1, 1), 2)
        with pytest.raises(ValidationError):
            exact_gate("Q", (0,), 1)


class TestEmbed:
    def test_one_routine(self):
        assert words.embed is ring.embed

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_matches_per_index_reference(self, width, rng):
        for k in range(1, min(width, 3) + 1):
            for targets in itertools.permutations(range(width), k):
                d = 1 << k
                floats = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                coeffs = rng.integers(-9, 10, size=(d, d, 4))
                for gate in (floats, coeffs):
                    got = ring.embed(gate, targets, width)
                    assert got.dtype == gate.dtype
                    assert np.array_equal(got, embed_reference(gate, targets, width)), targets

    def test_exact_gate_is_embedded_table_row(self):
        for name, (coeffs, denom_exp, _) in ring.GATE_TABLE.items():
            for targets in itertools.permutations(range(3), ring.GATE_ARITY[name]):
                got = exact_gate(name, targets, 3)
                assert got.denom_exp == denom_exp
                assert np.array_equal(got.coeffs, embed_reference(coeffs, targets, 3))

    def test_mismatched_targets_rejected(self):
        with pytest.raises(ValidationError):
            ring.embed(words.GATE_MATRICES["CNOT"], (0,), 2)
        with pytest.raises(ValidationError):
            ring.embed(words.GATE_MATRICES["CNOT"], (0, 2), 2)


big = st.integers(min_value=-(2**90), max_value=2**90)


@given(st.lists(big, min_size=32, max_size=32), st.integers(min_value=2**61, max_value=2**90))
def test_object_exact_mul_matches_ring_elements(values, large):
    values[0] = large  # at least one coefficient leaves the int64 path
    A, B = (ExactMatrix(np.array(half, dtype=object).reshape(2, 2, 4))
            for half in (values[:16], values[16:]))
    assert A.coeffs.dtype == object
    got = exact_mul(A, B)
    for i in range(2):
        for j in range(2):
            want = A.entry(i, 0) * B.entry(0, j) + A.entry(i, 1) * B.entry(1, j)
            assert got.entry(i, j) == want


class TestExactMul:
    def test_h_squared_is_identity(self):
        h = exact_gate("H", (0,), 1)
        assert exact_mul(h, h) == ExactMatrix.identity(2)

    def test_t_squared_is_s(self):
        t = exact_gate("T", (0,), 1)
        assert exact_mul(t, t) == exact_gate("S", (0,), 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            exact_mul(exact_gate("H", (0,), 1), exact_gate("CNOT", (0, 1), 2))

    def test_random_word_matches_float_oracle(self, rng):
        for _ in range(5):
            gates = random_shor_word(rng, 30) + [("T", (int(rng.integers(0, 3)),))]
            exact = word_product(gates)
            numeric = np.eye(8, dtype=complex)
            for name, targets in gates:
                numeric = numeric @ words.embed(
                    words.GATE_MATRICES[name], targets, 3
                )
            assert np.max(np.abs(exact.to_complex() - numeric)) < 1e-10

    def test_long_word_numeric_consistency(self, rng):
        gates = random_shor_word(rng, 100)
        exact = word_product(gates)
        numeric = np.eye(8, dtype=complex)
        for name, targets in gates:
            numeric = numeric @ words.embed(words.GATE_MATRICES[name], targets, 3)
        assert np.max(np.abs(exact.to_complex() - numeric)) < 1e-10

    def test_object_and_int64_paths_agree(self, rng):
        # Same product computed in vectorized storage and with big-int headroom.
        a_small = word_product(random_shor_word(rng, 12))
        b_small = word_product(random_shor_word(rng, 12))
        small = exact_mul(a_small, b_small)
        a_big = ExactMatrix(
            np.asarray(a_small.coeffs.tolist(), dtype=object), a_small.denom_exp
        )
        scale = 2**70
        a_scaled = ExactMatrix(
            np.asarray(
                [[[int(x) * scale for x in a_big.coeffs[i, j]] for j in range(8)]
                 for i in range(8)],
                dtype=object,
            ),
            a_small.denom_exp,
        )
        assert a_scaled.coeffs.dtype == object
        big = exact_mul(a_scaled, b_small)
        # 2^70 is sqrt(2)-divisible, so both sides canonicalize identically.
        expected = ExactMatrix(
            np.asarray(
                [[[int(x) * scale for x in small.coeffs[i, j]] for j in range(8)]
                 for i in range(8)],
                dtype=object,
            ),
            small.denom_exp,
        )
        assert big == expected


class TestCanonicalForm:
    def test_reduction_idempotent(self, rng):
        m = word_product(random_shor_word(rng, 40))
        again = ExactMatrix(m.coeffs, m.denom_exp)
        assert again == m

    def test_scaled_representation_reduces(self):
        # sqrt(2)^2 * I over denominator sqrt(2)^2 collapses to I.
        arr = np.zeros((2, 2, 4), dtype=np.int64)
        arr[0, 0, 0] = arr[1, 1, 0] = 2
        assert ExactMatrix(arr, 2) == ExactMatrix.identity(2)

    def test_equality_requires_canonical_match(self):
        t = exact_gate("T", (0,), 1)
        s = exact_gate("S", (0,), 1)
        assert t != s

    def test_serialization_roundtrip(self, rng):
        m = word_product(random_shor_word(rng, 25))
        data = m.to_json_dict()
        assert set(data) == {"dim", "denomExp", "entries"}
        assert all(isinstance(x, str) for quad in data["entries"] for x in quad)
        assert ExactMatrix.from_json_dict(data) == m


class TestGaussianObstruction:
    def test_shor_generators_pass(self):
        for name in ("H", "S", "X", "Y", "Z"):
            assert gaussian_obstruction(exact_gate(name, (0,), 1))
        assert gaussian_obstruction(exact_gate("CNOT", (0, 1), 2))
        assert gaussian_obstruction(exact_gate("TOFFOLI", (0, 1, 2), 3))

    def test_t_gate_fails(self):
        assert not gaussian_obstruction(exact_gate("T", (0,), 1))

    def test_closure_on_random_words(self, rng):
        for _ in range(300):
            length = int(rng.integers(1, 51))
            assert gaussian_obstruction(word_product(random_shor_word(rng, length)))

    def test_t_word_still_obstructed(self, rng):
        # One T inside a Shor word keeps the obstruction (odd zeta component).
        gates = random_shor_word(rng, 10) + [("T", (0,))] + random_shor_word(rng, 10)
        assert not gaussian_obstruction(word_product(gates))


class TestExactHelpers:
    def test_exact_word_handles_inverse_tags(self):
        sdag = exact_word([("Sdag", (0,))], 1)
        assert exact_mul(sdag, exact_gate("S", (0,), 1)) == ExactMatrix.identity(2)
        tdag = exact_word([("Tdag", (0,))], 1)
        assert exact_mul(tdag, exact_gate("T", (0,), 1)) == ExactMatrix.identity(2)

    def test_exact_controlled_matches_numeric(self):
        cs = exact_controlled(exact_gate("S", (0,), 1))
        want = np.diag([1, 1, 1, 1j])
        assert np.max(np.abs(cs.to_complex() - want)) < 1e-15
        sqrt_x = exact_word([("H", (0,)), ("S", (0,)), ("H", (0,))], 1)
        csx = exact_controlled(sqrt_x)
        want = np.eye(4, dtype=complex)
        want[2:, 2:] = sqrt_x.to_complex()
        assert np.max(np.abs(csx.to_complex() - want)) < 1e-15


def generic(gate: ExactMatrix) -> ExactMatrix:
    """The gate without its gather form, so exact_mul takes the generic product."""
    return ExactMatrix(gate.coeffs, gate.denom_exp)


def generic_chain(start: ExactMatrix, gates, width: int) -> ExactMatrix:
    out = start
    for name, targets in gates:
        out = exact_mul(out, generic(exact_gate(name, targets, width)))
    return out


def gather_chain(start: ExactMatrix, gates, width: int) -> ExactMatrix:
    out = start
    for name, targets in gates:
        out = exact_mul(out, exact_gate(name, targets, width))
    return out


def assert_same_matrix(got: ExactMatrix, want: ExactMatrix) -> None:
    assert got.denom_exp == want.denom_exp
    assert got.coeffs.dtype == want.coeffs.dtype
    assert got.coeffs.tolist() == want.coeffs.tolist()
    # int64 storage keeps every |coefficient| below 2^61.
    assert got.coeffs.dtype == object or got.max_abs_coeff() < 2**61


# Below 2^61, and large enough that an H product may or may not reach it.
near_int64 = st.integers(min_value=-3 * 2**59, max_value=3 * 2**59)


@st.composite
def table_words(draw):
    """(width, start matrix, word) over every GATE_TABLE row that fits the width.

    The start is the identity, an int64 matrix with coefficients below
    2^61, or an object matrix with one coefficient of 2^61 or more.
    """
    width = draw(st.integers(min_value=1, max_value=3))
    names = [name for name in ring.GATE_TABLE if ring.GATE_ARITY[name] <= width]
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        name = draw(st.sampled_from(names))
        targets = draw(st.permutations(range(width)))[: ring.GATE_ARITY[name]]
        gates.append((name, tuple(targets)))
    dim = 1 << width
    start = draw(st.sampled_from(["identity", "int64", "object"]))
    if start == "identity":
        return width, ExactMatrix.identity(dim), gates
    size = dim * dim * 4
    values = draw(st.lists(near_int64 if start == "int64" else st.one_of(near_int64, big),
                           min_size=size, max_size=size))
    if start == "object":
        values[draw(st.integers(min_value=0, max_value=size - 1))] = draw(
            st.integers(min_value=2**61, max_value=2**90)
        )
    coeffs = np.array(values, dtype=object).reshape(dim, dim, 4)
    matrix = ExactMatrix(coeffs, draw(st.integers(min_value=0, max_value=3)))
    assert matrix.coeffs.dtype == (np.int64 if start == "int64" else object)
    return width, matrix, gates


class TestGatherPath:
    """exact_mul by a cached table gate against the generic product."""

    @settings(max_examples=100, deadline=None)
    @given(table_words())
    def test_matches_generic_chain(self, case):
        width, start, gates = case
        assert_same_matrix(gather_chain(start, gates, width), generic_chain(start, gates, width))

    def test_every_table_gate_has_a_gather(self):
        for name in ring.GATE_TABLE:
            gate = exact_gate(name, tuple(range(ring.GATE_ARITY[name])), 3)
            assert gate._gather is not None
            assert len(gate._gather) == (2 if name == "H" else 1)

    def test_table_words_take_no_generic_product(self, rng, monkeypatch):
        def fail(P):
            raise AssertionError("generic product called")

        monkeypatch.setattr(ring, "_mix_components", fail)
        for _ in range(5):
            assert gaussian_obstruction(exact_word(random_shor_word(rng, 40), 3))

    @pytest.mark.parametrize("right, dtype", [(0, np.int64), (3 * 2**59, object)])
    def test_h_storage_near_int64_limit(self, right, dtype):
        # Row 0 is (3 2^59, right): times H, its entries are 3 2^59 +- right.
        coeffs = np.zeros((2, 2, 4), dtype=np.int64)
        coeffs[0, 0, 0], coeffs[0, 1, 0], coeffs[1, 1, 0] = 3 * 2**59, right, 1
        start = ExactMatrix(coeffs)
        h = exact_gate("H", (0,), 1)
        got = exact_mul(start, h)
        assert got.coeffs.dtype == dtype
        assert_same_matrix(got, exact_mul(start, generic(h)))

    def test_long_ladder_word_crosses_into_object_dtype(self):
        gen1 = list(synth.GEN1_NAMES)
        names = (gen1 * 150 + list(synth.H_NEG_HALF_NAMES) + gen1 * 120
                 + list(synth.H_HALF_NAMES) + gen1 * 130)
        gates = [(name, (0,)) for name in names]
        got = exact_word(gates, 1)
        assert got.coeffs.dtype == object
        assert_same_matrix(got, generic_chain(ExactMatrix.identity(2), gates, 1))

import numpy as np
import pytest

from conftest import haar_state, haar_unitary
from ftbasis import sim, words
from ftbasis.errors import ValidationError
from ftbasis.sim import (
    StateVector,
    apply,
    cat_state,
    measure_cat_basis,
    measure_z,
    plus_state,
    prepare,
    project_cat,
    project_z,
    run_word,
    zero_state,
)


class TestPrepare:
    def test_zero(self):
        s = prepare("zero", 2)
        assert s.amplitudes[0] == 1.0 and np.all(s.amplitudes[1:] == 0)

    def test_cat_sizes(self):
        s = prepare("cat", 1)
        assert np.allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])
        s = prepare("cat", 3)
        want = np.zeros(8)
        want[0] = want[7] = 1 / np.sqrt(2)
        assert np.allclose(s.amplitudes, want)

    def test_plus_equals_hadamard_layer(self):
        s = prepare("plus", 3)
        assert np.allclose(s.amplitudes, np.full(8, 1 / np.sqrt(8)))
        h = words.GATE_MATRICES["H"]
        built = zero_state(3)
        for q in range(3):
            built = apply(built, h, (q,))
        assert np.allclose(s.amplitudes, built.amplitudes, atol=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValidationError):
            prepare("cat", 0)
        with pytest.raises(ValidationError):
            prepare("cat", 13)
        with pytest.raises(ValidationError):
            prepare("bell", 2)

    def test_twelve_qubit_cap(self, rng):
        s = prepare("cat", 12)
        rec = measure_cat_basis(s, tuple(range(12)), rng)
        assert rec.outcome == 1 and rec.probability == pytest.approx(1.0)

    # 64 qubits would ask numpy for 2^64 amplitudes if the check came second.
    @pytest.mark.parametrize("maker", [zero_state, cat_state, plus_state])
    @pytest.mark.parametrize("n", [-1, 64])
    def test_maker_checks_width_before_allocating(self, maker, n):
        with pytest.raises(ValidationError, match="qubit count"):
            maker(n)

    def test_norm_validation(self):
        with pytest.raises(ValidationError):
            StateVector(1, np.array([1.0, 1.0]))


class TestApply:
    def test_hadamard_on_zero(self):
        s = apply(zero_state(1), words.GATE_MATRICES["H"], (0,))
        assert np.allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_phi0_preparation_word(self):
        s = run_word(zero_state(1), words.word(["T", "H"]))
        want = np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        assert np.max(np.abs(s.amplitudes - want)) < 1e-12

    def test_three_cnots_swap_exhaustive(self):
        cx = words.GATE_MATRICES["CNOT"]
        for a in (0, 1):
            for b in (0, 1):
                amps = np.zeros(4, dtype=complex)
                amps[2 * a + b] = 1.0
                s = StateVector(2, amps)
                for targets in ((0, 1), (1, 0), (0, 1)):
                    s = apply(s, cx, targets)
                assert s.amplitudes[2 * b + a] == pytest.approx(1.0)

    def test_norm_preserved_random_circuit(self, rng):
        s = StateVector(4, haar_state(rng, 4))
        for _ in range(1000):
            q = int(rng.integers(0, 4))
            s = apply(s, haar_unitary(rng), (q,))
        assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-12

    def test_gate_then_inverse_is_identity(self, rng):
        s = StateVector(3, haar_state(rng, 3))
        u = haar_unitary(rng, 4)
        out = apply(apply(s, u, (2, 0)), u.conj().T, (2, 0))
        assert np.max(np.abs(out.amplitudes - s.amplitudes)) < 1e-10

    def test_target_validation(self):
        with pytest.raises(ValidationError):
            apply(zero_state(2), words.GATE_MATRICES["H"], (2,))
        with pytest.raises(ValidationError):
            apply(zero_state(2), words.GATE_MATRICES["CNOT"], (0,))


class TestMeasureZ:
    def test_deterministic_on_basis_state(self, rng):
        rec = measure_z(zero_state(1), 0, rng)
        assert rec.outcome == 0 and rec.probability == pytest.approx(1.0)

    def test_balanced_probabilities(self, rng):
        s = apply(zero_state(1), words.GATE_MATRICES["H"], (0,))
        for outcome in (0, 1):
            prob, post = project_z(s, 0, outcome)
            assert prob == pytest.approx(0.5, abs=1e-12)
            assert abs(post.amplitudes[outcome]) == pytest.approx(1.0, abs=1e-12)

    def test_seeded_trace_reproducible(self):
        amps = haar_state(np.random.default_rng(99), 3)

        def trace(seed):
            s = StateVector(3, amps.copy())
            rng = np.random.default_rng(seed)
            outcomes = []
            for q in range(3):
                rec = measure_z(s, q, rng)
                outcomes.append(rec.outcome)
                s = rec.post_state
            return outcomes

        assert trace(42) == trace(42)

    def test_seed_42_golden_trace(self):
        # Frozen outcome sequence pinning the sampling convention
        # (outcome 0 iff u < p0, one PCG64 draw per measurement).
        base = StateVector(3, np.exp(1j * np.arange(8)) / np.sqrt(8))
        rng = np.random.default_rng(42)
        outcomes = [measure_z(base, q, rng).outcome for q in (0, 1, 2, 0, 1, 2)]
        assert outcomes == [1, 0, 1, 1, 0, 1]

    def test_impossible_forced_branch(self):
        with pytest.raises(ValidationError):
            project_z(zero_state(1), 0, 1)

    def test_probability_is_born_weight(self, rng):
        s = StateVector(2, haar_state(rng, 2))
        p1 = float(np.sum(np.abs(s.amplitudes[[1, 3]]) ** 2))
        rec = measure_z(s, 1, rng)
        want = p1 if rec.outcome == 1 else 1 - p1
        assert rec.probability == pytest.approx(want, abs=1e-12)


class TestCatBasis:
    def test_plus_cat_deterministic(self, rng):
        rec = measure_cat_basis(cat_state(3), (0, 1, 2), rng)
        assert rec.outcome == 1 and rec.probability == pytest.approx(1.0)

    def test_minus_cat_deterministic(self, rng):
        amps = np.zeros(8, dtype=complex)
        amps[0], amps[7] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        rec = measure_cat_basis(StateVector(3, amps), (0, 1, 2), rng)
        assert rec.outcome == -1 and rec.probability == pytest.approx(1.0)

    def test_post_state_projected(self, rng):
        # Cat block entangled with one data qubit.
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = 0.6  # cat 00, data 0
        amps[0b110] = 0.8  # cat 11, data 0
        s = StateVector(3, amps)
        prob, post = project_cat(s, (0, 1), 1)
        assert prob == pytest.approx(abs(0.6 + 0.8) ** 2 / 2, abs=1e-12)
        assert post.amplitudes[0b000] == pytest.approx(post.amplitudes[0b110])

    def test_fig2_post_interaction_weights(self):
        # alpha' (cat+)|phi0> + beta' (cat-)|phi1> for psi = |+>: the
        # cat outcomes carry the eigencomponent weights (2 +- sqrt(2))/4.
        phi0 = np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        phi1 = np.array([1, -np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        a = np.vdot(phi0, plus)
        b = np.vdot(phi1, plus)
        cat_p = np.zeros(4)
        cat_p[0] = cat_p[3] = 1 / np.sqrt(2)
        cat_m = np.zeros(4)
        cat_m[0], cat_m[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        full = np.kron(cat_p, a * phi0) + np.kron(cat_m, b * phi1)
        s = StateVector(3, full)
        p_plus, _ = project_cat(s, (0, 1), 1)
        p_minus, _ = project_cat(s, (0, 1), -1)
        assert p_plus == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-12)
        assert p_minus == pytest.approx((2 - np.sqrt(2)) / 4, abs=1e-12)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)

    def test_support_leak_rejected(self, rng):
        s = plus_state(3)  # uniform support, far outside the cat subspace
        with pytest.raises(ValidationError):
            measure_cat_basis(s, (0, 1, 2), rng)

    def test_empty_block_rejected(self, rng):
        s = cat_state(2)
        with pytest.raises(ValidationError, match="bad block"):
            project_cat(s, (), 1)
        with pytest.raises(ValidationError, match="bad block"):
            measure_cat_basis(s, (), rng)

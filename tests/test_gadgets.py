import numpy as np
import pytest

from conftest import haar_state
from ftbasis import gadgets, sim, su2, words
from ftbasis.errors import ValidationError
from ftbasis.gadgets import (
    IDENTITY_IDS,
    MODE_EXACT,
    Protocol,
    and_nand_involution,
    identity_report,
    prepare_eigenstate,
    t_gadget,
    toffoli_state_run,
    uphi,
    uphi_word,
    verify_identity,
)
from ftbasis.ring import exact_word
from ftbasis.sim import StateVector, plus_state, zero_state

T_MATRIX = words.GATE_MATRICES["T"]

AND_STATE = np.zeros(8, dtype=complex)
AND_STATE[[0, 2, 4, 7]] = 0.5
NAND_STATE = np.zeros(8, dtype=complex)
NAND_STATE[[1, 3, 5, 6]] = 0.5


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.vdot(a, b))


class TestTGadget:
    def test_zero_input_fixed(self, rng):
        run = t_gadget(zero_state(1), rng)
        assert fidelity(run.output.amplitudes, np.array([1, 0])) > 1 - 1e-12

    def test_plus_input_gives_phi0(self, rng):
        run = t_gadget(plus_state(1), rng)
        phi0 = np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        assert fidelity(run.output.amplitudes, phi0) > 1 - 1e-12

    def test_both_branches_on_haar_inputs(self, rng):
        for _ in range(100):
            psi = StateVector(1, haar_state(rng))
            want = T_MATRIX @ psi.amplitudes
            for branch in (0, 1):
                run = t_gadget(psi, force_branch=branch)
                assert run.outcome_trace[0].outcome == branch
                assert fidelity(run.output.amplitudes, want) > 1 - 1e-12

    def test_branch_probabilities_are_half(self, rng):
        psi = StateVector(1, haar_state(rng))
        for branch in (0, 1):
            run = t_gadget(psi, force_branch=branch)
            assert run.outcome_trace[0].probability == pytest.approx(0.5, abs=1e-12)

    def test_correction_recorded_on_branch_one(self):
        run0 = t_gadget(plus_state(1), force_branch=0)
        run1 = t_gadget(plus_state(1), force_branch=1)
        assert run0.corrections_applied == ()
        assert run1.corrections_applied == ("S",)
        assert run1.protocol == Protocol.T_GADGET

    def test_seeded_determinism(self):
        a = t_gadget(plus_state(1), np.random.default_rng(5))
        b = t_gadget(plus_state(1), np.random.default_rng(5))
        assert a.outcome_trace[0].outcome == b.outcome_trace[0].outcome
        assert np.array_equal(a.output.amplitudes, b.output.amplitudes)


class TestUphi:
    def test_word_matches_conjugated_form_up_to_phase(self):
        sx = words.unitary(uphi_word())
        assert uphi_word().names() == ["S", "X"]
        assert su2.proj_distance(sx, uphi()) < 1e-14
        # The exact scalar between the two forms is e^{i pi/4}.
        assert np.max(np.abs(sx - np.exp(1j * np.pi / 4) * uphi())) < 1e-14

    def test_eigenvectors(self):
        phi0 = np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        phi1 = np.array([1, -np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        assert np.max(np.abs(uphi() @ phi0 - phi0)) < 1e-14
        assert np.max(np.abs(uphi() @ phi1 + phi1)) < 1e-14

    def test_is_involution(self):
        assert np.max(np.abs(uphi() @ uphi() - np.eye(2))) < 1e-14


class TestEigenprep:
    def test_outcome_probabilities_match_eigenweights(self):
        # |+> decomposes onto the two eigenvectors with Born weights
        # (2 +- sqrt(2))/4; the even 1/2 split belongs to |0> (next test).
        for outcome, want in ((1, (2 + np.sqrt(2)) / 4), (-1, (2 - np.sqrt(2)) / 4)):
            run = prepare_eigenstate(uphi(), plus_state(1), force_outcome=outcome)
            assert run.outcome_trace[0].probability == pytest.approx(want, abs=1e-12)

    def test_zero_input_splits_evenly(self):
        for outcome in (1, -1):
            run = prepare_eigenstate(uphi(), zero_state(1), force_outcome=outcome)
            assert run.outcome_trace[0].probability == pytest.approx(0.5, abs=1e-12)

    def test_outputs_are_eigenvectors(self, rng):
        for _ in range(20):
            psi = StateVector(1, haar_state(rng))
            run = prepare_eigenstate(uphi(), psi, rng=rng)
            sign = run.outcome_trace[0].outcome
            out = run.output.amplitudes
            assert np.linalg.norm(uphi() @ out - sign * out) < 1e-10

    def test_minus_then_z_flip_gives_phi0(self):
        run = prepare_eigenstate(uphi(), plus_state(1), force_outcome=-1)
        flipped = words.GATE_MATRICES["Z"] @ run.output.amplitudes
        phi0 = np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        assert fidelity(flipped, phi0) > 1 - 1e-12

    def test_eigenstate_input_unchanged(self, rng):
        phi0 = StateVector(1, np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2))
        run = prepare_eigenstate(uphi(), phi0, rng=rng)
        assert run.outcome_trace[0].outcome == 1
        assert run.outcome_trace[0].probability == pytest.approx(1.0, abs=1e-12)
        assert fidelity(run.output.amplitudes, phi0.amplitudes) > 1 - 1e-12

    def test_repetition_reproduces_outcome(self, rng):
        psi = StateVector(1, haar_state(rng))
        first = prepare_eigenstate(uphi(), psi, rng=rng)
        again = prepare_eigenstate(uphi(), first.output, rng=rng)
        assert again.outcome_trace[0].outcome == first.outcome_trace[0].outcome
        assert again.outcome_trace[0].probability == pytest.approx(1.0, abs=1e-12)

    def test_cat_sizes(self, rng):
        for cat_size in (1, 2, 3, 4):
            run = prepare_eigenstate(uphi(), zero_state(1), cat_size=cat_size, rng=rng)
            sign = run.outcome_trace[0].outcome
            out = run.output.amplitudes
            assert np.linalg.norm(uphi() @ out - sign * out) < 1e-10

    def test_non_involution_rejected(self, rng):
        with pytest.raises(ValidationError):
            prepare_eigenstate(T_MATRIX, zero_state(1), rng=rng)

    def test_generic_two_qubit_involution(self, rng):
        xx = np.kron(words.GATE_MATRICES["X"], words.GATE_MATRICES["X"])
        for _ in range(10):
            psi = StateVector(2, haar_state(rng, 2))
            run = prepare_eigenstate(xx, psi, rng=rng)
            sign = run.outcome_trace[0].outcome
            out = run.output.amplitudes
            assert np.linalg.norm(xx @ out - sign * out) < 1e-10
            # Born weight of the realized branch.
            proj = (psi.amplitudes + sign * xx @ psi.amplitudes) / 2
            assert run.outcome_trace[0].probability == pytest.approx(
                float(np.vdot(proj, proj).real), abs=1e-12
            )

    def test_toffoli_state_amplitudes(self, rng):
        run = toffoli_state_run(force_outcome=1)
        assert run.protocol == Protocol.TOFFOLI_STATE
        assert run.outcome_trace[0].probability == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(run.output.amplitudes - AND_STATE)) < 1e-12
        run = toffoli_state_run(force_outcome=-1)
        assert np.max(np.abs(run.output.amplitudes - NAND_STATE)) < 1e-12

    def test_and_nand_are_eigenstates(self):
        u = and_nand_involution()
        assert np.max(np.abs(u @ AND_STATE - AND_STATE)) < 1e-14
        assert np.max(np.abs(u @ NAND_STATE + NAND_STATE)) < 1e-14


class TestIdentities:
    def test_inventory_complete(self):
        assert len(IDENTITY_IDS) == 9

    @pytest.mark.parametrize("identity_id", IDENTITY_IDS)
    def test_identity_holds(self, identity_id):
        res = verify_identity(identity_id)
        assert res.holds, res
        if res.mode == MODE_EXACT:
            assert res.residual == 0 and isinstance(res.residual, int)
        else:
            assert res.residual < 1e-12

    def test_unknown_id_rejected(self):
        with pytest.raises(ValidationError):
            verify_identity("NOT_AN_ID")

    @pytest.mark.parametrize("identity_id", ["XYZ_PHASE", "TOFFOLI_FROM_CSX"])
    def test_one_identity_builds_one_exact_word(self, identity_id, monkeypatch):
        calls = []

        def counting(gates, width):
            calls.append(width)
            return exact_word(gates, width)

        monkeypatch.setattr(gadgets, "exact_word", counting)
        assert verify_identity(identity_id).holds
        assert len(calls) == 1

    def test_report_covers_inventory(self):
        report = identity_report()
        assert [r.id for r in report] == list(IDENTITY_IDS)

    def test_swap_permutes_basis_states(self):
        # |ab> -> |ba> on all four basis states.
        w = [("CNOT", (0, 1)), ("H", (0,)), ("H", (1,)),
             ("CNOT", (0, 1)), ("H", (0,)), ("H", (1,)), ("CNOT", (0, 1))]
        gates = tuple(words.Gate(n, t) for n, t in w)
        mat = words.unitary(words.GateWord(gates, 2))
        for a in (0, 1):
            for b in (0, 1):
                amps = np.zeros(4, dtype=complex)
                amps[2 * a + b] = 1.0
                out = mat @ amps
                assert out[2 * b + a] == pytest.approx(1.0, abs=1e-12)

    def test_exact_identities_also_hold_numerically(self):
        # Cross-check the exact-ring equalities in floating point.
        from ftbasis.gadgets import _exact_cases

        for name, (lhs, rhs) in _exact_cases().items():
            assert (
                np.max(np.abs(lhs.to_complex() - rhs.to_complex())) < 1e-12
            ), name

    def test_xyz_phase_value(self):
        from ftbasis.ring import exact_word

        prod = exact_word([("X", (0,)), ("Y", (0,)), ("Z", (0,))], 1)
        got = prod.to_complex()
        assert np.max(np.abs(got - 1j * np.eye(2))) < 1e-14

    def test_en1_trace_exact_in_ring(self):
        # trace(Tdag H T H) * sqrt(2)^2 = 2 + sqrt(2) exactly in the ring.
        from ftbasis.ring import RingElement, exact_word

        m = exact_word([("Tdag", (0,)), ("H", (0,)), ("T", (0,)), ("H", (0,))], 1)
        assert m.denom_exp == 2
        trace = m.entry(0, 0) + m.entry(1, 1)
        assert trace == RingElement(2, 1, 0, -1)

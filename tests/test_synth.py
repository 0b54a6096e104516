import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from ftbasis import cli, su2, synth, words
from ftbasis.errors import UnsupportedPrecisionError, ValidationError
from ftbasis.synth import (
    ALPHA_CONST,
    BETA_CONST,
    FIXED_STATES,
    RHO_EIGENVALUE,
    approx_su2,
    lambda_frame,
    minimal_ladder_power,
    phase_ladder,
    rho_basis_forms,
    rho_factor_words,
    rho_generators,
)

COS_LAMBDA_PI = (2 + math.sqrt(2)) / 4


def brute_force_ladder(step, theta, eps, n_cap=10**6):
    n = 0
    while n < n_cap:
        if abs(math.remainder(n * step - theta, 2 * math.pi)) < eps:
            return n
        n += 1
    raise AssertionError("no brute-force hit")


class TestLambdaFrame:
    def test_lambda_value(self):
        frame = lambda_frame()
        assert math.cos(frame.lam * math.pi) == pytest.approx(COS_LAMBDA_PI, abs=1e-14)
        assert frame.lam == pytest.approx(0.17444286005510581, abs=1e-15)

    def test_axes_orthonormal(self):
        frame = lambda_frame()
        assert abs(np.linalg.norm(frame.axis1) - 1) < 1e-12
        assert abs(np.linalg.norm(frame.axis2) - 1) < 1e-12
        assert abs(float(frame.axis1 @ frame.axis2)) < 1e-12

    def test_axis_formulas(self):
        # n1 = sqrt(2) cot(pi/8) (z-x)/sqrt(2) + y; n2 = sqrt(2) cot(pi/8) y - (z-x)/sqrt(2)
        cot = math.cos(math.pi / 8) / math.sin(math.pi / 8)
        zx = np.array([-1.0, 0.0, 1.0])
        n1 = cot * zx + np.array([0, 1.0, 0])
        n2 = math.sqrt(2) * cot * np.array([0, 1.0, 0]) - zx / math.sqrt(2)
        frame = lambda_frame()
        assert np.max(np.abs(frame.axis1 - n1 / np.linalg.norm(n1))) < 1e-14
        assert np.max(np.abs(frame.axis2 - n2 / np.linalg.norm(n2))) < 1e-14

    def test_gen1_word_realizes_first_rotation(self):
        frame = lambda_frame()
        assert frame.gen1_word.names() == ["Tdag", "H", "T", "H"]
        target = su2.AxisAngle(0.0, frame.lam * math.pi, frame.axis1).to_matrix()
        assert su2.proj_distance(words.unitary(frame.gen1_word), target) < 1e-12

    def test_gen2_word_realizes_second_rotation(self):
        frame = lambda_frame()
        target = su2.AxisAngle(0.0, frame.lam * math.pi, frame.axis2).to_matrix()
        assert su2.proj_distance(words.unitary(frame.gen2_word), target) < 1e-12

    def test_gen2_matches_h_half_conjugation(self):
        # Numeric cross-check against pauli_power(h, +-1/2) conjugation.
        frame = lambda_frame()
        gen1 = words.unitary(frame.gen1_word)
        conj = (
            su2.pauli_power("h", -0.5) @ gen1 @ su2.pauli_power("h", 0.5)
        )
        assert np.max(np.abs(words.unitary(frame.gen2_word) - conj)) < 1e-12

    def test_gen1_trace_cosine(self):
        aa = su2.axis_angle_of(words.unitary(lambda_frame().gen1_word))
        assert abs(math.cos(aa.angle) - COS_LAMBDA_PI) < 1e-12


class TestPhaseLadder:
    def test_zero_angle(self):
        assert phase_ladder(0.0, 1e-3) == 0
        assert phase_ladder(0.0, 0.5) == 0

    def test_single_step(self):
        frame = lambda_frame()
        assert phase_ladder(frame.lam * math.pi % (2 * math.pi), 1e-9) == 1

    def test_minimal_power_matches_brute_force(self):
        frame = lambda_frame()
        step = frame.lam * math.pi
        assert phase_ladder(math.pi / 3, 1e-3) == brute_force_ladder(
            step, math.pi / 3, 1e-3
        )
        for theta in (0.4, 2.2, 5.1):
            assert phase_ladder(theta, 2e-3) == brute_force_ladder(step, theta, 2e-3)

    def test_found_power_is_accurate(self):
        frame = lambda_frame()
        for theta in (0.1, 1.0, 3.0, 6.0):
            for eps in (1e-2, 1e-4):
                n = phase_ladder(theta, eps)
                delta = abs(math.remainder(n * frame.lam * math.pi - theta, 2 * math.pi))
                assert delta < eps

    def test_below_floor_raises_when_unreachable(self):
        with pytest.raises(UnsupportedPrecisionError, match="1e-06"):
            phase_ladder(1.0, 1e-13)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValidationError):
            phase_ladder(1.0, 0.0)

    def test_generic_step_ladder(self):
        step = math.atan2(math.sqrt(15), 1.0)
        n = minimal_ladder_power(step, 2.0, 1e-3)
        assert abs(math.remainder(n * step - 2.0, 2 * math.pi)) < 1e-3

    @settings(max_examples=25, deadline=None)
    @given(
        theta=st.floats(0.0, 2 * math.pi, exclude_max=True),
        eps=st.floats(1e-4, 0.3),
    )
    def test_ladder_total_above_floor(self, theta, eps):
        # Above the floor the search always terminates with a valid hit.
        # The slack absorbs one ulp of rounding at the theta == eps boundary.
        frame = lambda_frame()
        n = phase_ladder(theta, eps)
        delta = abs(math.remainder(n * frame.lam * math.pi - theta, 2 * math.pi))
        assert delta < eps + 1e-12

    @settings(max_examples=10, deadline=None)
    @given(theta=st.floats(0.0, 2 * math.pi, exclude_max=True))
    def test_ladder_minimality_property(self, theta):
        frame = lambda_frame()
        eps = 5e-3
        n = phase_ladder(theta, eps)
        assert n == brute_force_ladder(frame.lam * math.pi, theta, eps)


class TestApproxSu2:
    def test_generator_passthroughs(self):
        res = approx_su2(words.GATE_MATRICES["H"], 0.01)
        assert res.word.names() == ["H"]
        assert res.achieved_error == 0.0
        assert res.ladder_powers == (0, 0, 0)
        res = approx_su2(words.GATE_MATRICES["T"], 0.01)
        assert res.word.names() == ["T"]
        assert res.achieved_error == 0.0

    def test_clifford_passthroughs_short_and_exact(self):
        for name in ("Tdag", "S", "Sdag", "Z", "X"):
            res = approx_su2(words.GATE_MATRICES[name], 0.05)
            assert res.achieved_error < 1e-12
            assert len(res.word) <= 6

    def test_z_eighth_root(self):
        target = su2.pauli_power("z", 0.125)
        res = approx_su2(target, 0.05)
        assert res.achieved_error < 0.05
        assert su2.proj_distance(words.unitary(res.word), target) < 0.05

    def test_emitted_alphabet(self, rng):
        res = approx_su2(haar_unitary(rng), 0.05)
        assert set(g.name for g in res.word) <= {"H", "T", "Tdag"}

    def test_achieved_error_is_recomputed_distance(self, rng):
        target = haar_unitary(rng)
        res = approx_su2(target, 0.1)
        direct = su2.proj_distance(words.unitary(res.word), target)
        assert res.achieved_error == pytest.approx(direct, abs=1e-12)

    def test_ladder_powers_solve_euler_angles(self, rng):
        frame = lambda_frame()
        target = haar_unitary(rng)
        res = approx_su2(target, 0.08)
        aa = su2.axis_angle_of(target)
        triple = su2.euler_invert(
            su2.AxisAngle(0.0, aa.angle, aa.axis), frame.axis1, frame.axis2
        )
        step = frame.lam * math.pi
        for power, angle in zip(res.ladder_powers, (triple.alpha, triple.beta, triple.gamma)):
            assert abs(math.remainder(power * step - angle, 2 * math.pi)) < 0.08 / 4

    def test_error_meets_each_requested_bound(self, rng):
        targets = [haar_unitary(rng) for _ in range(5)]
        for eps in (0.1, 0.05, 0.025):
            for t in targets:
                assert approx_su2(t, eps).achieved_error < eps

    def test_on_frame_axis_targets(self):
        # Rotations about a frame axis need only one ladder factor.
        frame = lambda_frame()
        for axis, live in ((frame.axis1, 0), (frame.axis2, 1)):
            target = su2.AxisAngle(0.0, 0.9, axis).to_matrix()
            res = approx_su2(target, 0.05)
            assert res.achieved_error < 0.05
            dead = [p for i, p in enumerate(res.ladder_powers) if i != live]
            assert dead == [0, 0]

    def test_floor_precision(self):
        target = su2.pauli_power("z", 0.3)
        res = approx_su2(target, 1e-4)
        assert res.achieved_error < 1e-4
        assert su2.proj_distance(words.unitary(res.word), target) < 1e-4

    def test_below_floor_rejected(self):
        with pytest.raises(UnsupportedPrecisionError, match="0.0001"):
            approx_su2(words.GATE_MATRICES["H"], 5e-5)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            approx_su2(np.array([[1, 1], [0, 1]], dtype=complex), 0.05)

    def test_word_length_scaling(self, rng):
        targets = [haar_unitary(rng) for _ in range(50)]
        eps_grid = (0.1, 0.05, 0.025)
        medians = []
        for eps in eps_grid:
            lengths = [len(approx_su2(t, eps).word) for t in targets]
            medians.append(float(np.median(lengths)))
        assert medians[0] <= medians[1] <= medians[2]
        # Consistent with poly(1/eps): cubic growth bound between grid points.
        for (e1, m1), (e2, m2) in zip(
            zip(eps_grid, medians), zip(eps_grid[1:], medians[1:])
        ):
            assert m2 <= max(m1, 8.0) * (e1 / e2) ** 3 * 2.0


class TestNonFiniteEps:
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_rejected_before_any_scan(self, eps, monkeypatch):
        def no_scan(*args):
            raise AssertionError("ladder scan ran")

        monkeypatch.setattr(synth, "_scan_ladder", no_scan)
        with pytest.raises(ValidationError, match="eps"):
            approx_su2(su2.pauli_power("z", 0.3), eps)
        with pytest.raises(ValidationError, match="eps"):
            minimal_ladder_power(lambda_frame().lam * math.pi, 1.0, eps)

    @pytest.mark.parametrize("eps", [0.0, -0.0, -0.1])
    def test_non_positive_reported_as_such(self, eps):
        # Not as "below the supported floor": both a ladder target and a
        # passthrough target are rejected before the floor check.
        for target in (su2.pauli_power("z", 0.3), words.GATE_MATRICES["H"]):
            with pytest.raises(ValidationError, match="eps must be positive"):
                approx_su2(target, eps)


def sequential_construction(target, powers):
    """The word as built before segments: one Gate per letter, then a
    sequential product of every factor.  Returns (names, distance)."""
    table_names = synth._passthrough_table().get(synth._phase_fingerprint(target))
    if table_names is not None:
        w = words.word(list(table_names))
        dist = su2.proj_distance(words.unitary(w), target)
        if dist < 1e-12:
            return w.names(), dist
    j, k1, k2 = powers
    gen1 = tuple(words.Gate(n, (0,)) for n in synth.GEN1_NAMES)
    h_half = tuple(words.Gate(n, (0,)) for n in synth.H_HALF_NAMES)
    h_neg_half = tuple(words.Gate(n, (0,)) for n in synth.H_NEG_HALF_NAMES)
    middle = h_neg_half + gen1 * k1 + h_half if k1 else ()
    raw = words.GateWord(gen1 * j + middle + gen1 * k2, 1)
    emitted = words.expand_to_ht(raw)
    return emitted.names(), su2.proj_distance(words.unitary(emitted), target)


class TestSegmentCertificate:
    def test_matches_sequential_construction(self):
        rng = np.random.default_rng(92)
        cases = [(haar_unitary(rng), eps) for _ in range(20) for eps in (0.1, 0.05, 0.01)]
        cases += [
            (cli.TARGET_TAGS[tag](), eps)
            for tag in ("h", "t", "s", "z8")
            for eps in (0.1, 0.05, 0.01)
        ]
        for target, eps in cases:
            res = approx_su2(target, eps)
            names, dist = sequential_construction(target, res.ladder_powers)
            assert res.names() == names
            assert res.word.names() == names
            assert abs(res.achieved_error - dist) <= 1e-12

    def test_word_built_only_on_request(self, tmp_path, monkeypatch):
        target = haar_unitary(np.random.default_rng(7))
        path = tmp_path / "target.json"
        path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in target]))
        cfg = cli.config_from_args(["synth", "--target", str(path), "--eps", "1e-2"])
        assert cli.run(cfg)[0] == 0  # warm up the lazy caches

        calls = []
        original = words.Gate.__post_init__

        def counting(self):
            calls.append(self.name)
            original(self)

        monkeypatch.setattr(words.Gate, "__post_init__", counting)
        code, text = cli.run(cfg)
        assert code == 0
        assert calls == []
        monkeypatch.undo()

        emitted = json.loads(text)["result"]
        res = approx_su2(cli._resolve_target(str(path)), 1e-2)
        assert res.ladder_powers != (0, 0, 0)
        assert isinstance(res.word, words.GateWord)
        assert res.word.names() == emitted["word"]
        assert res.word is res.word


class TestRhoGenerators:
    def test_rho2_spectrum(self):
        eigs = np.sort_complex(np.linalg.eigvals(rho_generators()["r2"]))
        want = np.sort_complex(
            np.array([1.0, 1.0, RHO_EIGENVALUE, np.conj(RHO_EIGENVALUE)])
        )
        assert np.max(np.abs(eigs - want)) < 1e-10

    def test_rho3_similar_to_rho2(self):
        rhos = rho_generators()
        p2 = np.poly(rhos["r2"])
        p3 = np.poly(rhos["r3"])
        assert np.max(np.abs(p2 - p3)) < 1e-10

    def test_fixed_states(self):
        rhos = rho_generators()
        for key, state in FIXED_STATES.items():
            assert np.linalg.norm(rhos[key] @ state - state) < 1e-12

    def test_fixed_states_orthogonal(self):
        f = list(FIXED_STATES.values())
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(np.vdot(f[i], f[j])) < 1e-14

    def test_all_fix_00(self):
        e00 = np.array([1, 0, 0, 0], dtype=complex)
        for mat in rho_generators().values():
            assert np.linalg.norm(mat @ e00 - e00) < 1e-12

    def test_factors_multiply_to_composites(self):
        rhos = rho_generators()
        for name, factors in rho_factor_words().items():
            prod = np.eye(4, dtype=complex)
            for f in factors:
                prod = prod @ f
            assert np.max(np.abs(prod - rhos[name])) < 1e-12

    def test_generators_symmetric(self):
        for factors in rho_factor_words().values():
            for f in factors:
                assert np.max(np.abs(f - f.T)) < 1e-12

    def test_transpose_realized_by_reversed_words(self):
        # Symmetric generators: reversing the factor list realizes rho^T.
        rhos = rho_generators()
        for name in ("r2", "r3"):
            reversed_prod = np.eye(4, dtype=complex)
            for f in reversed(rho_factor_words()[name]):
                reversed_prod = reversed_prod @ f
            assert np.max(np.abs(reversed_prod - rhos[name].T)) < 1e-12

    def test_rho2_unitary(self):
        r2 = rho_generators()["r2"]
        assert np.max(np.abs(r2.conj().T @ r2 - np.eye(4))) < 1e-12


class TestRhoBasisForms:
    def test_constants(self):
        report = rho_basis_forms()
        assert abs(report.alpha_const - ALPHA_CONST) < 1e-6
        assert abs(report.beta_const - BETA_CONST) < 1e-6

    def test_residuals_small(self):
        report = rho_basis_forms()
        assert max(report.residuals) < 1e-6

    def test_theta_zero_gives_identity_block(self):
        report = rho_basis_forms(thetas=(0.0,))
        # The two grid residuals for theta = 0 compare rho^0 = I to the form.
        assert report.residuals[-1] < 1e-14
        assert report.residuals[-2] < 1e-14

    def test_constants_are_unit_modulus(self):
        report = rho_basis_forms()
        assert abs(abs(report.alpha_const) - 1) < 1e-12
        assert abs(abs(report.beta_const) - 1) < 1e-12

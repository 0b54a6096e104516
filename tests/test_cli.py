import json

import numpy as np
import pytest

from ftbasis import cli, gadgets, synth
from ftbasis.cli import config_from_args, main, run


def run_argv(argv):
    cfg = config_from_args(argv)
    return run(cfg)


class TestConstants:
    def test_report_contents(self):
        code, text = run_argv(["constants"])
        assert code == 0
        doc = json.loads(text)
        assert doc["tool"] == "ftbasis" and doc["version"]
        assert doc["lambda"] == pytest.approx(0.17444286005510581)
        assert doc["cosLambdaPi"] == pytest.approx((2 + np.sqrt(2)) / 4, abs=1e-14)
        assert doc["axisDot"] == pytest.approx(0.0, abs=1e-12)
        assert doc["config"]["seed"] == 0


class TestSynthCommand:
    def test_named_tag(self):
        code, text = run_argv(["synth", "--target", "z8", "--eps", "0.05"])
        assert code == 0
        doc = json.loads(text)
        assert doc["result"]["error"] < 0.05
        assert doc["result"]["word"]
        assert len(doc["result"]["powers"]) == 3

    def test_matrix_file(self, tmp_path):
        mat = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]  # sigma_x
        path = tmp_path / "target.json"
        path.write_text(json.dumps(mat))
        code, text = run_argv(["synth", "--target", str(path), "--eps", "0.05"])
        assert code == 0
        assert json.loads(text)["result"]["error"] < 1e-12

    def test_missing_file_is_usage_error(self):
        code, text = run_argv(["synth", "--target", "/nope.json", "--eps", "0.05"])
        assert code == 2
        assert "cannot open" in json.loads(text)["error"]

    def test_bad_shape_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([[[1.0, 0.0]]]))
        code, text = run_argv(["synth", "--target", str(path), "--eps", "0.05"])
        assert code == 2


    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_non_finite_eps_rejected_before_any_scan(self, eps, monkeypatch, capsys):
        def no_scan(*args):
            raise AssertionError("ladder scan ran")

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        monkeypatch.setattr(synth, "_scan_ladder", no_scan)
        assert main(["synth", "--target", "z8", f"--eps={eps}"]) == 2
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert "eps" in doc["error"]


    @pytest.mark.parametrize("eps", ["0", "-0.1"])
    def test_non_positive_eps_is_usage_error(self, eps):
        code, text = run_argv(["synth", "--target", "z8", f"--eps={eps}"])
        assert code == 2
        assert json.loads(text)["error"] == "eps must be positive"


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestSimulateCommand:
    def test_bell_circuit(self, tmp_path):
        circuit = {
            "width": 2,
            "gates": [
                {"name": "CNOT", "targets": [0, 1]},
                {"name": "H", "targets": [0]},
            ],
            "measurements": [{"basis": "z", "qubit": 0}],
        }
        path = tmp_path / "bell.json"
        path.write_text(json.dumps(circuit))
        code, text = run_argv(["simulate", "--circuit", str(path), "--seed", "3"])
        assert code == 0
        doc = json.loads(text)
        assert len(doc["records"]) == 1
        assert doc["records"][0]["probability"] == pytest.approx(0.5)
        amps = [complex(re, im) for re, im in doc["state"]]
        assert np.linalg.norm(amps) == pytest.approx(1.0)

    def test_missing_field_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"gates": []}))
        code, text = run_argv(["simulate", "--circuit", str(path)])
        assert code == 2
        assert "width" in json.loads(text)["error"]

    def test_malformed_gate_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"width": 1, "gates": [{"name": "H"}]}))
        code, text = run_argv(["simulate", "--circuit", str(path)])
        assert code == 2
        assert "targets" in json.loads(text)["error"]


    @pytest.mark.parametrize(
        "circuit, field",
        [
            ({"width": 1, "gates": [], "measurements": [{"basis": "z"}]}, "qubit"),
            ({"width": 2, "gates": [], "measurements": [{"basis": "cat"}]}, "block"),
            ({"width": "x", "gates": []}, "width"),
            ({"width": 1, "gates": [], "measurements": [{"basis": "z", "qubit": "0"}]}, "qubit"),
            ({"width": 2, "gates": [], "measurements": [{"qubit": 0.5}]}, "qubit"),
            ({"width": 2, "gates": [], "measurements": [{"basis": "cat", "block": [0, 1.5]}]},
             "block"),
            ({"width": 2, "gates": [{"name": "H", "targets": [0.5]}]}, "targets"),
            ({"width": 1, "gates": [], "measurements": ["z"]}, "measurement"),
            ({"width": 1, "gates": [], "measurements": [{"basis": ["z"], "qubit": 0}]}, "basis"),
            ({"width": 1, "gates": [], "measurements": {"basis": "z"}}, "measurements"),
            ({"width": 2, "gates": [], "measurements": [{"basis": "cat", "block": []}]}, "block"),
        ],
    )
    def test_malformed_field_is_usage_error(self, circuit, field, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(circuit))
        assert main(["simulate", "--circuit", str(path)]) == 2
        assert field in strict_json(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize(
        "gates, field",
        [
            ([{"name": ["H"], "targets": [0]}], "name"),
            ([{"name": {"H": 0}, "targets": [0]}], "name"),
            ([{"name": "H", "targets": 5}], "targets"),
            ([{"name": "CNOT", "targets": "01"}], "targets"),
            (5, "gates"),
        ],
    )
    def test_bad_gate_field_is_named(self, gates, field, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"width": 2, "gates": gates}))
        assert main(["simulate", "--circuit", str(path)]) == 2
        assert single_document(capsys)["error"].startswith(f"field {field!r} must be")

    def test_oversized_width_rejected_before_allocation(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"width": 40, "gates": []}))
        code, text = run_argv(["simulate", "--circuit", str(path)])
        assert code == 2
        assert "qubit count" in json.loads(text)["error"]


class TestGadgetCommand:
    def test_t_gadget_forced_branch(self):
        code, text = run_argv(["gadget", "t", "--force-branch", "1", "--seed", "4"])
        assert code == 0
        doc = json.loads(text)
        assert doc["corrections"] == ["S"]
        assert doc["outcomes"][0]["outcome"] == 1

    def test_t_gadget_input_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        code, text = run_argv(["gadget", "t", "--input", str(path), "--seed", "1"])
        assert code == 0
        out = json.loads(text)["output"]
        assert abs(complex(*out[0])) == pytest.approx(1.0, abs=1e-12)

    def test_nan_amplitudes_rejected(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text('{"amplitudes": [[NaN, 0], [0, 0]]}')
        assert main(["gadget", "t", "--input", str(path), "--force-branch", "0"]) == 2
        assert "norm" in strict_json(capsys.readouterr().out)["error"]

    def test_eigenprep_uphi(self):
        code, text = run_argv(["gadget", "eigenprep", "--u", "uphi", "--seed", "2"])
        assert code == 0
        doc = json.loads(text)
        assert doc["outcomes"][0]["outcome"] in (1, -1)

    def test_eigenprep_toffoli_never_opens_input(self, tmp_path):
        argv = ["gadget", "eigenprep", "--u", "toffoli", "--input", str(tmp_path / "absent.json")]
        assert run_argv(argv)[0] == 0

    def test_eigenprep_toffoli(self):
        code, text = run_argv(["gadget", "eigenprep", "--u", "toffoli", "--seed", "2"])
        assert code == 0
        doc = json.loads(text)
        amps = np.array([complex(re, im) for re, im in doc["output"]])
        nonzero = np.abs(amps) > 1e-9
        assert nonzero.sum() == 4
        assert np.allclose(np.abs(amps[nonzero]), 0.5, atol=1e-12)


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["identities", "cyclotomic", "rho"])
    def test_fast_suites_pass(self, suite):
        code, text = run_argv(["verify", "--suite", suite])
        assert code == 0
        assert json.loads(text)["report"]["holds"] is True

    def test_identities_report_schema(self):
        _, text = run_argv(["verify", "--suite", "identities"])
        entries = json.loads(text)["report"]["identities"]
        assert len(entries) == 9
        for entry in entries:
            assert set(entry) == {"id", "holds", "residual", "mode"}
            assert entry["holds"] is True

    def test_gadgets_suite(self):
        code, text = run_argv(["verify", "--suite", "gadgets", "--seed", "9"])
        assert code == 0
        report = json.loads(text)["report"]
        assert report["tGadgetWorstFidelity"] > 1 - 1e-12

    def test_failure_exit_code(self, monkeypatch):
        from ftbasis.gadgets import IdentityResult

        monkeypatch.setattr(
            gadgets,
            "identity_report",
            lambda: [IdentityResult("XYZ_PHASE", False, 1.0, "exact-ring")],
        )
        monkeypatch.setattr(cli.gadgets, "identity_report", gadgets.identity_report)
        code, text = run_argv(["verify", "--suite", "identities"])
        assert code == 1
        assert json.loads(text)["report"]["holds"] is False


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["constants"],
            ["synth", "--target", "t", "--eps", "0.01"],
            ["gadget", "t", "--seed", "11"],
            ["gadget", "eigenprep", "--u", "toffoli", "--seed", "5"],
            ["verify", "--suite", "identities"],
            ["verify", "--suite", "ring", "--seed", "6"],
        ],
    )
    def test_repeat_invocations_byte_identical(self, argv):
        assert run_argv(argv) == run_argv(argv)

    def test_different_seeds_differ(self):
        a = run_argv(["gadget", "eigenprep", "--u", "uphi", "--seed", "1"])
        b = run_argv(["gadget", "eigenprep", "--u", "uphi", "--seed", "2"])
        assert a[1] != b[1]


class TestMainEntry:
    def test_main_prints_json(self, capsys):
        code = main(["constants"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "constants"

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["constants", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert out.read_text() == printed

    def test_usage_error_exit_2(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        assert main(["bogus"]) == 2


def single_document(capsys) -> dict:
    """The one strict JSON document on stdout; stderr holds no traceback."""
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return strict_json(captured.out)


class TestExitContract:
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["gadget", "t", "--seed", "-1"], "seed"),
            (["gadget", "eigenprep", "--seed", "-1"], "seed"),
            (["simulate", "--circuit", "{circuit}", "--seed", "-5"], "seed"),
            (["verify", "--suite", "ring", "--seed", "-1"], "seed"),
            (["constants", "--out", "{missing}/x.json"], "{missing}/x.json"),
            (["gadget", "t", "--out", "{dir}"], "{dir}"),
            (["gadget", "t", "--input", "{dir}"], "{dir}"),
        ],
    )
    def test_bad_input_exits_2_with_one_document(self, argv, named, tmp_path, capsys):
        (tmp_path / "c.json").write_text(json.dumps({"width": 1, "gates": []}))
        paths = {"circuit": tmp_path / "c.json", "missing": tmp_path / "missing", "dir": tmp_path}
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv) == 2
        assert named.format(**paths) in single_document(capsys)["error"]

    @pytest.mark.parametrize("data", [b"[" * 100_000, b"\xff\xfe"], ids=["deep", "not-utf8"])
    def test_unreadable_document_is_usage_error(self, data, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        assert main(["gadget", "t", "--input", str(path)]) == 2
        assert "malformed JSON" in single_document(capsys)["error"]

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_library_seed_rejected(self, seed):
        code, text = run(cli.RunConfig("gadget", {"protocol": "t"}, seed=seed))
        assert code == 2
        assert "seed" in strict_json(text)["error"]

    def test_report_is_strict_json(self, monkeypatch):
        monkeypatch.setitem(cli._RUNNERS, "constants", lambda cfg: (0, {"x": float("nan")}))
        with pytest.raises(ValueError):
            run_argv(["constants"])


class TestPairReader:
    def test_signed_zeros_bit_exact(self, tmp_path):
        pairs = [[[-0.0, 0.0], [1.0, -0.0]], [[1.0, 0.0], [-0.0, -0.0]]]
        path = tmp_path / "x.json"
        path.write_text(json.dumps(pairs))
        mat = cli._resolve_target(str(path))
        assert np.signbit(mat.real).tolist() == np.signbit(np.array(pairs)[..., 0]).tolist()
        assert np.signbit(mat.imag).tolist() == np.signbit(np.array(pairs)[..., 1]).tolist()

    @pytest.mark.parametrize(
        "pairs",
        [
            [[["1.0", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            [[[None, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]],
            [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[[1.0, 0.0]]]],
            [],
        ],
    )
    def test_malformed_target_is_usage_error(self, pairs, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(pairs))
        assert main(["synth", "--target", str(path), "--eps", "0.1"]) == 2
        assert "[re, im] pairs" in single_document(capsys)["error"]

    @pytest.mark.parametrize(
        "amplitudes",
        [
            [["1.0", 0], [0, 0]],
            [[None, 0], [1, 0]],
            [[1, 0], [0]],
            [[10**400, 0], [0, 0]],
            [[[1, 0]], [[0, 0]]],
        ],
    )
    def test_malformed_state_is_usage_error(self, amplitudes, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"amplitudes": amplitudes}))
        assert main(["gadget", "t", "--input", str(path)]) == 2
        assert "[re, im] pairs" in single_document(capsys)["error"]


class TestErrorKind:
    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["gadget", "t", "--seed", "-1"], "usage"),
            (["verify", "--suite", "ring", "--seed", "-1"], "usage"),
            (["constants", "--out", "{missing}/x.json"], "usage"),
            (["gadget", "t", "--out", "{dir}"], "usage"),
            (["gadget", "t", "--input", "{dir}"], "usage"),
            (["synth", "--target", "{missing}/t.json", "--eps", "0.1"], "usage"),
            (["simulate", "--circuit", "{bad_gate}"], "usage"),
            (["synth", "--target", "z8", "--eps=0"], "validation"),
            (["synth", "--target", "z8", "--eps=nan"], "validation"),
            (["simulate", "--circuit", "{wide}"], "validation"),
            (["gadget", "t", "--input", "{nan_state}"], "validation"),
            (["synth", "--target", "z8", "--eps", "1e-9"], "precision"),
        ],
    )
    def test_error_document_names_its_kind(self, argv, kind, tmp_path, capsys):
        (tmp_path / "wide.json").write_text(json.dumps({"width": 40, "gates": []}))
        (tmp_path / "bad_gate.json").write_text(json.dumps({"width": 1, "gates": [{"name": "H"}]}))
        (tmp_path / "nan.json").write_text('{"amplitudes": [[NaN, 0], [0, 0]]}')
        paths = {"missing": tmp_path / "missing", "dir": tmp_path,
                 "wide": tmp_path / "wide.json", "bad_gate": tmp_path / "bad_gate.json",
                 "nan_state": tmp_path / "nan.json"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        doc = single_document(capsys)
        assert doc["errorKind"] == kind and doc["error"]

    @pytest.mark.parametrize(
        "argv",
        [["constants"], ["synth", "--target", "t", "--eps", "0.1"], ["gadget", "t"]],
    )
    def test_success_document_has_no_error_kind(self, argv):
        code, text = run_argv(argv)
        assert code == 0 and "errorKind" not in strict_json(text)

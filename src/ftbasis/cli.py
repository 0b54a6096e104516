"""Command-line front end with machine-readable JSON reports.

Every report is a single JSON document embedding the tool version and
the fully resolved configuration; identical invocations with the same
seed produce byte-identical output.  Exit codes: 0 success, 1 any
verification failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, gadgets, ring, sim, su2, synth, words
from .cyclotomic import RationalPolynomial, cyclotomic_poly, is_cyclotomic
from .errors import UnsupportedPrecisionError, ValidationError

DEFAULT_SEED = 0

TARGET_TAGS = {
    "h": lambda: words.GATE_MATRICES["H"],
    "t": lambda: words.GATE_MATRICES["T"],
    "s": lambda: words.GATE_MATRICES["S"],
    "z8": lambda: su2.pauli_power("z", 0.125),
}

VERIFY_SUITES = ("identities", "ring", "cyclotomic", "rho", "gadgets", "all")


@dataclass
class RunConfig:
    """Resolved invocation: command, flags, seed, optional output path."""

    command: str
    parameters: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    output_path: str | None = None


class UsageError(Exception):
    pass


def _jsonable(obj):
    """Coerce stray numpy scalars so reports serialize deterministically."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _state_to_json(state: sim.StateVector) -> list[list[float]]:
    return state.amplitudes.view(float).reshape(-1, 2).tolist()


def _complex_pairs(value, ndim: int, error: str) -> np.ndarray:
    """An ndim-dimensional complex array read from nested [re, im] pairs.

    As with ``complex(re, im)``, re and im must be JSON numbers: a string
    or null raises ``UsageError(error)``.  The float pairs are viewed as
    complex, so signed zeros come through bit-exact.
    """
    try:
        pairs = np.array(value, dtype=object)
        if pairs.ndim == ndim + 1 and pairs.shape[-1] == 2 and all(
            isinstance(x, (int, float)) for x in pairs.flat
        ):
            return pairs.astype(float).view(complex)[..., 0]
    except (ValueError, OverflowError):  # ragged nesting; ints beyond float range
        pass
    raise UsageError(error)


def _input_state(path: str | None) -> sim.StateVector:
    """The state in the ``--input`` file, else |+>."""
    if not path:
        return sim.plus_state(1)
    data = _load_json(path)
    if not isinstance(data, dict) or "amplitudes" not in data:
        raise UsageError("state file is missing the field 'amplitudes'")
    amps = _complex_pairs(data["amplitudes"], 1, "field 'amplitudes' must hold [re, im] pairs")
    n = max(len(amps), 1).bit_length() - 1
    if len(amps) < 2 or 1 << n != len(amps):
        raise UsageError("field 'amplitudes' must have length 2^n")
    return sim.StateVector(n, amps)


def _record_to_json(rec: sim.MeasurementRecord) -> dict:
    return {
        "outcome": rec.outcome,
        "probability": rec.probability,
        "postState": _state_to_json(rec.post_state),
    }


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError:
        raise UsageError(f"cannot open {path!r}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, bad bytes or too deep
        raise UsageError(f"malformed JSON in {path!r}: {exc}") from None


def _resolve_target(target: str) -> np.ndarray:
    if target in TARGET_TAGS:
        return TARGET_TAGS[target]()
    error = f"target file {target!r} must hold a 2x2 matrix of [re, im] pairs"
    mat = _complex_pairs(_load_json(target), 2, error)
    if mat.shape != (2, 2):
        raise UsageError(f"target in {target!r} has shape {mat.shape}, expected 2x2")
    return mat


def _run_synth(cfg: RunConfig) -> tuple[int, dict]:
    target = _resolve_target(cfg.parameters["target"])
    result = synth.approx_su2(target, cfg.parameters["eps"])
    return 0, {"result": result.to_json_dict()}


def _run_constants(cfg: RunConfig) -> tuple[int, dict]:
    frame = synth.lambda_frame()
    return 0, {
        "lambda": frame.lam,
        "cosLambdaPi": float(np.cos(frame.lam * np.pi)),
        "axis1": frame.axis1.tolist(),
        "axis2": frame.axis2.tolist(),
        "axisDot": float(frame.axis1 @ frame.axis2),
        "gen1Word": frame.gen1_word.names(),
    }


def _int_field(value, name: str) -> int:
    """A JSON integer; bools, floats and strings are usage errors."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"field {name!r} must be an integer, got {value!r}")
    return value


def _measurement(entry) -> tuple[str, int | tuple[int, ...]]:
    """(basis, qubit or block) of one measurement entry of a circuit file."""
    if not isinstance(entry, dict):
        raise UsageError("each measurement must be a JSON object")
    basis = entry.get("basis", "z")
    if basis not in ("z", "cat"):
        raise UsageError(f"unknown measurement basis {basis!r}")
    field = "qubit" if basis == "z" else "block"
    if field not in entry:
        raise UsageError(f"a {basis} measurement needs the field {field!r}")
    if basis == "z":
        return basis, _int_field(entry["qubit"], "qubit")
    if not isinstance(entry["block"], list):
        raise UsageError("field 'block' must be a list of qubits")
    return basis, tuple(_int_field(q, "block") for q in entry["block"])


def _gate(entry) -> words.Gate:
    """One gate entry of a circuit file."""
    if not isinstance(entry, dict) or "name" not in entry or "targets" not in entry:
        raise UsageError("each gate needs fields 'name' and 'targets'")
    name, targets = entry["name"], entry["targets"]
    if not isinstance(name, str):
        raise UsageError(f"field 'name' must be a gate name, got {name!r}")
    if not isinstance(targets, list):
        raise UsageError(f"field 'targets' must be a list of qubits, got {targets!r}")
    return words.Gate(name, tuple(_int_field(t, "targets") for t in targets))


def _run_simulate(cfg: RunConfig) -> tuple[int, dict]:
    data = _load_json(cfg.parameters["circuit"])
    if not isinstance(data, dict):
        raise UsageError("circuit file must hold a JSON object")
    for fieldname in ("width", "gates"):
        if fieldname not in data:
            raise UsageError(f"circuit file is missing the field {fieldname!r}")
    width = _int_field(data["width"], "width")
    if not isinstance(data["gates"], list):
        raise UsageError("field 'gates' must be a list of gates")
    try:
        w = words.GateWord(tuple(_gate(entry) for entry in data["gates"]), width)
    except ValidationError as exc:
        raise UsageError(f"bad circuit: {exc}") from None
    measurements = data.get("measurements", [])
    if not isinstance(measurements, list):
        raise UsageError("field 'measurements' must be a list")
    measurements = [_measurement(m) for m in measurements]
    state = sim.prepare("zero", w.width)
    state = sim.run_word(state, w)
    rng = np.random.default_rng(cfg.seed)
    recs = []
    for basis, where in measurements:
        measure = sim.measure_z if basis == "z" else sim.measure_cat_basis
        rec = measure(state, where, rng)
        state = rec.post_state
        recs.append(_record_to_json(rec))
    return 0, {"state": _state_to_json(state), "records": recs}


def _run_gadget(cfg: RunConfig) -> tuple[int, dict]:
    p = cfg.parameters
    rng = np.random.default_rng(cfg.seed)
    protocol, u, cat_size = p["protocol"], p.get("u", "uphi"), p.get("cat_size", 3)
    if protocol == "t":
        psi = _input_state(p.get("input"))
        run = gadgets.t_gadget(psi, rng, force_branch=p.get("force_branch"))
    elif (protocol, u) == ("eigenprep", "uphi"):
        psi = _input_state(p.get("input"))
        run = gadgets.prepare_eigenstate(gadgets.uphi(), psi, cat_size=cat_size, rng=rng)
    elif (protocol, u) == ("eigenprep", "toffoli"):
        run = gadgets.toffoli_state_run(rng, cat_size=cat_size)
    else:
        raise UsageError(f"unknown gadget {protocol!r} with operator {u!r}")
    return 0, {
        "protocol": run.protocol,
        "outcomes": [_record_to_json(r) for r in run.outcome_trace],
        "output": _state_to_json(run.output),
        "corrections": list(run.corrections_applied),
    }


def _suite_identities(seed: int) -> dict:
    results = [r.to_json_dict() for r in gadgets.identity_report()]
    return {"identities": results, "holds": all(r["holds"] for r in results)}


def _suite_ring(seed: int, n_words: int = 200) -> dict:
    rng = np.random.default_rng(seed)
    closed = 0
    for _ in range(n_words):
        gates = []
        for _ in range(int(rng.integers(1, 51))):
            name = ring.SHOR_BASIS[rng.integers(0, len(ring.SHOR_BASIS))]
            gates.append((name, tuple(rng.permutation(3)[: ring.GATE_ARITY[name]])))
        closed += ring.gaussian_obstruction(ring.exact_word(gates, 3))
    t_exact = ring.exact_gate("T", (0,), 1)
    t_obstructed = not ring.gaussian_obstruction(t_exact)
    roundtrip = ring.ExactMatrix.from_json_dict(t_exact.to_json_dict()) == t_exact
    return {
        "wordsChecked": n_words,
        "wordsClosed": closed,
        "tGate": {"gaussianReachable": not t_obstructed, "matrix": t_exact.to_json_dict()},
        "serializationRoundtrip": roundtrip,
        "holds": closed == n_words and t_obstructed and roundtrip,
    }


def _suite_cyclotomic(seed: int) -> dict:
    quartic = RationalPolynomial.from_json(["1/1", "1/1", "1/4", "1/1", "1/1"])
    quadratic = RationalPolynomial.from_json(["1/1", "-1/2", "1/1"])
    v1 = is_cyclotomic(quartic)
    v2 = is_cyclotomic(quadratic)
    matches = all(
        is_cyclotomic(cyclotomic_poly(n)).witness_order == n for n in range(1, 51)
    )
    holds = (
        not v1.rational
        and v1.reason == "non-integer-coefficient"
        and not v2.rational
        and v2.reason == "non-integer-coefficient"
        and matches
    )
    return {
        "quarticRejected": not v1.rational,
        "quadraticRejected": not v2.rational,
        "cyclotomicMatchesUpTo50": matches,
        "holds": holds,
    }


def _suite_rho(seed: int) -> dict:
    rhos = synth.rho_generators()
    eigs = np.sort_complex(np.linalg.eigvals(rhos["r2"]))
    expected = np.sort_complex(
        np.array([1.0, 1.0, synth.RHO_EIGENVALUE, np.conj(synth.RHO_EIGENVALUE)])
    )
    spectrum_res = float(np.max(np.abs(eigs - expected)))
    fixed_res = max(
        float(np.linalg.norm(rhos[k] @ v - v))
        for k, v in synth.FIXED_STATES.items()
    )
    report = synth.rho_basis_forms()
    worst = max(report.residuals)
    holds = spectrum_res < 1e-10 and fixed_res < 1e-12 and worst < 1e-6
    return {
        "spectrumResidual": spectrum_res,
        "fixedStateResidual": fixed_res,
        "basisForms": report.to_json_dict(),
        "holds": holds,
    }


def _suite_gadgets(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    t_mat = words.GATE_MATRICES["T"]
    worst_fidelity = 1.0
    for _ in range(20):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = sim.StateVector(1, raw / np.linalg.norm(raw))
        for branch in (0, 1):
            run = gadgets.t_gadget(psi, force_branch=branch)
            fid = abs(np.vdot(run.output.amplitudes, t_mat @ psi.amplitudes))
            worst_fidelity = min(worst_fidelity, fid)
    eig_res = 0.0
    plus_count = 0
    trials = 400
    for _ in range(trials):
        run = gadgets.prepare_eigenstate(gadgets.uphi(), sim.zero_state(1), rng=rng)
        sign = run.outcome_trace[0].outcome
        plus_count += sign == 1
        res = np.linalg.norm(gadgets.uphi() @ run.output.amplitudes - sign * run.output.amplitudes)
        eig_res = max(eig_res, float(res))
    toff = gadgets.toffoli_state_run(rng)
    and_state = np.zeros(8, dtype=complex)
    and_state[[0, 2, 4, 7] if toff.outcome_trace[0].outcome == 1 else [1, 3, 5, 6]] = 0.5
    toff_res = float(np.linalg.norm(toff.output.amplitudes - and_state))
    freq = plus_count / trials
    holds = (
        worst_fidelity > 1 - 1e-12
        and eig_res < 1e-10
        and abs(freq - 0.5) < 5 * np.sqrt(0.25 / trials)
        and toff_res < 1e-12
    )
    return {
        "tGadgetWorstFidelity": worst_fidelity,
        "eigenprepResidual": eig_res,
        "eigenprepPlusFrequency": freq,
        "toffoliStateResidual": toff_res,
        "holds": holds,
    }


#: Every suite takes the seed; only ring and gadgets draw from it.
_SUITES = {
    "identities": _suite_identities,
    "ring": _suite_ring,
    "cyclotomic": _suite_cyclotomic,
    "rho": _suite_rho,
    "gadgets": _suite_gadgets,
}


def _run_verify(cfg: RunConfig) -> tuple[int, dict]:
    suite = cfg.parameters["suite"]
    if suite == "all":
        report = {name: check(cfg.seed) for name, check in _SUITES.items()}
        report["holds"] = all(sub["holds"] for sub in report.values())
    else:
        report = _SUITES[suite](cfg.seed)
    return (0 if report["holds"] else 1), {"suite": suite, "report": report}


_RUNNERS = {
    "synth": _run_synth,
    "simulate": _run_simulate,
    "gadget": _run_gadget,
    "verify": _run_verify,
    "constants": _run_constants,
}

def _report(command: str, **fields) -> str:
    """One strict JSON report: the tool header, then ``fields``."""
    document = {"tool": "ftbasis", "version": __version__, "command": command, **fields}
    return json.dumps(document, sort_keys=True, allow_nan=False, default=_jsonable)


#: Exception class -> the ``errorKind`` of its error document (exit code 2).
_ERROR_KINDS = {
    UsageError: "usage",
    ValidationError: "validation",
    UnsupportedPrecisionError: "precision",
}


def run(cfg: RunConfig) -> tuple[int, str]:
    """Execute a resolved configuration; returns (exit_code, JSON text)."""
    try:
        seed = cfg.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise UsageError(f"seed must be a non-negative integer, got {seed!r}")
        code, payload = _RUNNERS[cfg.command](cfg)
    except tuple(_ERROR_KINDS) as exc:
        kind = next(k for cls, k in _ERROR_KINDS.items() if isinstance(exc, cls))
        return 2, _report(cfg.command, error=str(exc), errorKind=kind)
    config = {"parameters": cfg.parameters, "seed": cfg.seed, "out": cfg.output_path}
    return code, _report(cfg.command, config=config, **payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftbasis",
        description="Gate-set compilation and verification over {H, T, CNOT}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_synth = sub.add_parser("synth", parents=[out], help="approximate a single-qubit unitary")
    p_synth.add_argument("--target", required=True, help="tag (h|t|s|z8) or JSON path")
    p_synth.add_argument("--eps", type=float, required=True)

    p_sim = sub.add_parser("simulate", parents=[seeded], help="run a JSON circuit")
    p_sim.add_argument("--circuit", required=True)

    p_gadget = sub.add_parser("gadget", help="run a measurement-based protocol")
    gsub = p_gadget.add_subparsers(dest="protocol", required=True)
    p_t = gsub.add_parser("t", parents=[seeded])
    p_t.add_argument("--input", default=None)
    p_t.add_argument("--force-branch", type=int, choices=(0, 1), default=None)
    p_e = gsub.add_parser("eigenprep", parents=[seeded])
    p_e.add_argument("--u", choices=("uphi", "toffoli"), default="uphi")
    p_e.add_argument("--input", default=None)
    p_e.add_argument("--cat-size", type=int, default=3)

    p_verify = sub.add_parser("verify", parents=[seeded], help="run a verification suite")
    p_verify.add_argument("--suite", choices=VERIFY_SUITES, required=True)

    sub.add_parser("constants", parents=[out], help="print the ladder-frame constants")
    return parser


def config_from_args(argv: list[str]) -> RunConfig:
    """Every argparse destination but command, seed and out is a parameter."""
    params = vars(build_parser().parse_args(argv))
    command, seed, out = params.pop("command"), params.pop("seed", DEFAULT_SEED), params.pop("out")
    return RunConfig(command, params, seed, out)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = config_from_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    code, text = run(cfg)
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            error = f"cannot write {cfg.output_path!r}: {exc.strerror}"
            code, text = 2, _report(cfg.command, error=error, errorKind="usage")
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Fuzz the CLI's exit-code contract over argv and input documents.

Every generated argv parses, so each case reaches ``cli.run``; the
documents it names are perturbed JSON.  Whatever the input, the CLI must
exit 0 or 2 (1 only from ``verify``), print exactly one strict JSON
document, and raise nothing.  Inputs stay cheap: eps >= 1e-3 (or
rejected before any scan), widths <= 12, no ``verify --suite all`` or
``gadgets``.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from ftbasis import words
from ftbasis.cli import main


def _pairs(matrix) -> list:
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


_rng = np.random.default_rng(7)
UNITARIES = [_pairs(haar_unitary(_rng)) for _ in range(3)] + [_pairs(words.GATE_MATRICES["X"])]
STATES = [{"amplitudes": [[0.6, -0.0], [0.0, 0.8]]}, {"amplitudes": [[1, 0], [0, 0]]}]

numbers = st.one_of(
    st.integers(-2, 2), st.floats(), st.sampled_from([-0.0, True, 10**400, 1e308])
)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=2),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=8,
)
pairs = st.lists(numbers, min_size=2, max_size=2) | json_values
qubits = st.integers(-1, 12)

target_docs = st.one_of(
    st.sampled_from(UNITARIES),
    st.lists(st.lists(pairs, min_size=1, max_size=3), min_size=1, max_size=3),
    json_values,
)
state_docs = st.one_of(
    st.sampled_from(STATES),
    st.fixed_dictionaries({"amplitudes": st.lists(pairs, max_size=4) | json_values}),
    json_values,
)
gate_docs = st.fixed_dictionaries(
    {"name": st.sampled_from([*words.GATE_MATRICES, "Q"]) | json_values,
     "targets": st.lists(qubits, max_size=3) | json_values}
) | json_values
measurement_docs = st.fixed_dictionaries(
    {},
    optional={
        "basis": st.sampled_from(["z", "cat", "x"]) | json_values,
        "qubit": qubits | json_values,
        "block": st.lists(qubits, max_size=4) | json_values,
    },
) | json_values


@st.composite
def valid_circuits(draw):
    """Circuits that run: known gates on distinct in-range qubits."""
    width = draw(st.integers(1, 12))
    names = [name for name, arity in words.GATE_ARITY.items() if arity <= width]
    gates = []
    for name in draw(st.lists(st.sampled_from(names), max_size=6)):
        targets = draw(st.permutations(range(width)))[: words.GATE_ARITY[name]]
        gates.append({"name": name, "targets": targets})
    qubit = st.integers(0, width - 1)
    measurements = st.lists(
        st.fixed_dictionaries({"basis": st.just("z"), "qubit": qubit})
        | st.fixed_dictionaries(
            {"basis": st.just("cat"), "block": st.lists(qubit, max_size=3, unique=True)}
        ),
        max_size=3,
    )
    return {"width": width, "gates": gates, "measurements": draw(measurements)}


circuit_docs = st.one_of(
    valid_circuits(),
    st.fixed_dictionaries(
        {"width": qubits | json_values, "gates": st.lists(gate_docs, max_size=6) | json_values},
        optional={"measurements": st.lists(measurement_docs, max_size=3) | json_values},
    ),
    json_values,
)

seeds = (st.integers(-3, 9) | st.sampled_from([2**32, 2**64])).map(str)
eps_values = st.floats(1e-3, 1.0) | st.sampled_from([0.0, -0.1, 1e-9, float("nan"), float("inf")])


@st.composite
def invocations(draw):
    """(argv, documents): argv names files as {doc}, {missing} or {dir}."""
    path = draw(st.sampled_from(["{doc}"] * 8 + ["{missing}", "{dir}"]))
    out = draw(st.sampled_from([[]] * 4 + [["--out", "{out}"], ["--out", "{missing}/x.json"]]))
    command = draw(st.sampled_from(["constants", "synth", "simulate", "t", "eigenprep", "verify"]))
    if command == "constants":
        return ["constants", *out], None
    if command == "synth":
        tag = draw(st.sampled_from(["h", "t", "s", "z8", path]))
        eps = draw(eps_values)
        return ["synth", "--target", tag, f"--eps={eps!r}", *out], draw(target_docs)
    seed = ["--seed", draw(seeds)]
    if command == "simulate":
        return ["simulate", "--circuit", path, *seed], draw(circuit_docs)
    if command == "verify":
        suite = draw(st.sampled_from(["identities", "ring", "cyclotomic", "rho"]))
        return ["verify", "--suite", suite, *seed], None
    state = draw(st.sampled_from([[], ["--input", path]]))
    if command == "t":
        branch = draw(st.sampled_from([[], ["--force-branch", "0"], ["--force-branch", "1"]]))
        return ["gadget", "t", *state, *branch, *seed, *out], draw(state_docs)
    u = draw(st.sampled_from(["uphi", "toffoli"]))
    cat_size = str(draw(st.integers(-1, 10)))
    argv = ["gadget", "eigenprep", "--u", u, "--cat-size", cat_size, *state, *seed]
    return argv, draw(state_docs)


def _reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=invocations())
def test_exit_code_contract(case, tmp_path_factory):
    argv, document = case
    tmp = tmp_path_factory.getbasetemp() / "cli-fuzz"
    tmp.mkdir(exist_ok=True)
    (tmp / "doc.json").write_text(json.dumps(document))
    paths = {"doc": tmp / "doc.json", "dir": tmp, "out": tmp / "out.json"}
    paths["missing"] = tmp / "missing"
    argv = [arg.format(**paths) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert "Traceback" not in stderr.getvalue()
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2))
    report = json.loads(stdout.getvalue(), parse_constant=_reject_constant)
    assert report["command"] == argv[0]
    assert ("error" in report) == (code == 2)

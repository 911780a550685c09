"""End-to-end tests of the command-line interface."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PAULI_X, PAULI_Z, random_povm_outcomes
from qmeas import cli, intersubjectivity
from qmeas.errors import NumericalConsistencyError
from qmeas.linalg import _gram_error
from qmeas.tolerances import UNITARY_TOL


def encode_matrix(m):
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def encode_state(amplitudes):
    return {"amplitudes": [[float(complex(z).real), float(complex(z).imag)] for z in amplitudes]}


def write_payload(tmp_path, name, payload, schema_version="1"):
    body = dict(payload)
    if schema_version is not None:
        body["schema_version"] = schema_version
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def pointer_process_payload(labels):
    """JSON form of the pointer process for a diagonal observable."""
    from qmeas.vonneumann import build_vn_process
    from qmeas.observables import Observable

    mp = build_vn_process(Observable.from_matrix(np.diag(np.array(labels, dtype=float))))
    return {
        "system_dim": mp.system_dim,
        "ancilla_state": encode_state(mp.ancilla_state.amplitudes),
        "coupling": encode_matrix(mp.coupling),
        "meter": encode_matrix(mp.meter.matrix),
    }


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify-oit


def test_verify_oit_passes_for_sharp_observable(tmp_path, capsys):
    path = write_payload(tmp_path, "obs.json", {"observable": {"matrix": encode_matrix(PAULI_Z)}})
    code, out, _ = run(capsys, ["verify-oit", "--input", path, "--trials", "10"])
    assert code == 0
    assert out.startswith("verify-oit: PASS")
    assert "max_off_diagonal_mass" in out


def test_verify_oit_zero_tol_is_a_failed_check_not_an_internal_error(tmp_path, capsys):
    path = write_payload(tmp_path, "obs.json", {"observable": {"matrix": encode_matrix(PAULI_X)}})
    code, out, err = run(capsys, ["verify-oit", "--input", path, "--tol", "0"])
    assert code == 1, err
    assert out.startswith("verify-oit: FAIL")


def test_verify_oit_json_report(tmp_path, capsys):
    path = write_payload(tmp_path, "obs.json", {"observable": {"matrix": encode_matrix(PAULI_Z)}})
    code, out, _ = run(capsys, ["verify-oit", "--input", path, "--trials", "5", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["command"] == "verify-oit"
    assert report["metrics"]["trials"] == 5
    assert report["metrics"]["max_off_diagonal_mass"] < 1e-9


def test_settings_come_from_file_when_no_flags(tmp_path, capsys):
    payload = {"observable": {"matrix": encode_matrix(PAULI_Z)}, "trials": 7, "seed": 3}
    path = write_payload(tmp_path, "obs.json", payload)
    code, out, _ = run(capsys, ["verify-oit", "--input", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["metrics"]["trials"] == 7
    assert report["metrics"]["seed"] == 3


def test_flag_overrides_file_setting(tmp_path, capsys):
    payload = {"observable": {"matrix": encode_matrix(PAULI_Z)}, "trials": 7}
    path = write_payload(tmp_path, "obs.json", payload)
    code, out, _ = run(capsys, ["verify-oit", "--input", path, "--trials", "4", "--json"])
    assert code == 0
    assert json.loads(out)["metrics"]["trials"] == 4


def test_verify_oit_hundred_trials(tmp_path, capsys):
    path = write_payload(tmp_path, "obs.json", {"observable": {"matrix": encode_matrix(PAULI_Z)}})
    argv = ["verify-oit", "--input", path, "--trials", "100", "--seed", "42", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["metrics"]["max_off_diagonal_mass"] < 1e-9


def test_report_numbers_match_module_results(capsys):
    # every figure in a report must be recomputable through the library
    from qmeas.intersubjectivity import check_intersubjectivity, counterexample_uninformative_povm
    from qmeas.linalg import State

    code, out, _ = run(capsys, ["counterexample", "--json"])
    assert code == 1
    reported = json.loads(out)["metrics"]["off_diagonal_mass"]
    _, scenario = counterexample_uninformative_povm()
    direct = check_intersubjectivity(scenario, State.basis(2, 0)).off_diagonal_mass
    assert reported == direct


def test_json_output_is_byte_identical_between_runs(tmp_path, capsys):
    path = write_payload(tmp_path, "obs.json", {"observable": {"matrix": encode_matrix(PAULI_Z)}})
    argv = ["verify-oit", "--input", path, "--trials", "5", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


# ---------------------------------------------------------------------------
# error mapping


def test_non_hermitian_observable_exits_2(tmp_path, capsys):
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    path = write_payload(tmp_path, "bad.json", {"observable": {"matrix": encode_matrix(bad)}})
    code, out, err = run(capsys, ["verify-oit", "--input", path])
    assert code == 2
    assert out == ""
    assert "Hermitian" in err


def test_missing_input_exits_2(capsys):
    code, _, err = run(capsys, ["verify-oit"])
    assert code == 2
    assert "requires --input" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["verify-oit", "--input", "/nonexistent/nope.json"])
    assert code == 2
    assert "error" in err


def test_wrong_schema_version_exits_2(tmp_path, capsys):
    path = write_payload(
        tmp_path, "obs.json", {"observable": {"matrix": encode_matrix(PAULI_Z)}}, schema_version="0"
    )
    code, _, err = run(capsys, ["verify-oit", "--input", path])
    assert code == 2
    assert "schema_version" in err


def test_malformed_matrix_names_the_path(tmp_path, capsys):
    payload = {"observable": {"matrix": {"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}}}
    path = write_payload(tmp_path, "obs.json", payload)
    code, _, err = run(capsys, ["verify-oit", "--input", path])
    assert code == 2
    assert "observable.matrix" in err


def test_internal_consistency_error_exits_3(tmp_path, capsys, monkeypatch):
    def explode(payload, args):
        raise NumericalConsistencyError("synthetic breakage")

    monkeypatch.setitem(cli._HANDLERS, "verify-oit", explode)
    path = write_payload(tmp_path, "obs.json", {"observable": {"matrix": encode_matrix(PAULI_Z)}})
    code, _, err = run(capsys, ["verify-oit", "--input", path])
    assert code == 3
    assert "synthetic breakage" in err


@pytest.mark.parametrize(
    "gaps, message",
    [
        (((-1.0, 0.0), (1.0, 1e-3)), "observable: residual 0.001 exceeds the bound 1e-09"),
        (None, "misses the observable's labels"),
    ],
    ids=["effect-gap", "labels"],
)
def test_failed_oit_precondition_exits_3(tmp_path, capsys, monkeypatch, gaps, message):
    monkeypatch.setattr(intersubjectivity, "effect_gaps", lambda mp, a: gaps)
    path = write_payload(tmp_path, "obs.json", {"observable": {"matrix": encode_matrix(PAULI_Z)}})
    code, out, err = run(capsys, ["verify-oit", "--input", path])
    assert code == 3
    assert out == ""
    assert message in err


def test_unallocatable_trial_count_is_invalid_input(tmp_path, capsys):
    # 2**60 trials at Pauli-Z are 2**49 chunks of 2048, far past the 2**20
    # chunks a run may take (minutes of work), so the request is refused
    # before any trial runs.
    payload = {"observable": {"matrix": encode_matrix(PAULI_Z)}, "trials": 2**60}
    path = write_payload(tmp_path, "obs.json", payload)
    code, out, err = run(capsys, ["verify-oit", "--input", path])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["no-such-command"])
    assert excinfo.value.code == 2


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name, text in cli._HELP.items():
        assert re.search(rf"^  {re.escape(name)} +{re.escape(text)}$", out, re.MULTILINE)


def test_subcommand_help_exits_0(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify-oit", "--help"])
    assert excinfo.value.code == 0
    assert "--label-tol" in capsys.readouterr().out


def test_flags_may_precede_the_subcommand(tmp_path, capsys):
    path = write_payload(tmp_path, "obs.json", {"observable": {"matrix": encode_matrix(PAULI_Z)}})
    before = run(capsys, ["--json", "--trials", "3", "verify-oit", "--input", path])
    after = run(capsys, ["verify-oit", "--input", path, "--trials", "3", "--json"])
    assert before == after
    assert before[0] == 0


def dimension_cases():
    z = encode_matrix(PAULI_Z)
    process = pointer_process_payload([1.0, -1.0])
    one_by_one = {**z, "rows": True, "cols": True, "entries": [[1.0, 0.0]]}
    matrix_error = "observable.matrix: rows and cols must be positive integers"
    return [
        ("verify-oit", {"observable": {"matrix": {**z, "rows": True}}}, matrix_error),
        ("verify-oit", {"observable": {"matrix": {**z, "cols": True}}}, matrix_error),
        ("verify-oit", {"observable": {"matrix": one_by_one}}, matrix_error),
        (
            "induced-povm",
            {"process": {**process, "system_dim": True}},
            "process.system_dim: must be a positive integer",
        ),
    ]


@pytest.mark.parametrize("command, payload, message", dimension_cases())
def test_boolean_dimension_exits_2_naming_the_path(tmp_path, capsys, command, payload, message):
    code, out, err = run(capsys, [command, "--input", write_payload(tmp_path, "in.json", payload)])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# reproducibility / induced-povm


def test_reproducibility_pass_for_pointer_process(tmp_path, capsys):
    payload = {
        "process": pointer_process_payload([1.0, 2.0]),
        "observable": {"matrix": encode_matrix(np.diag([1.0, 2.0]))},
    }
    path = write_payload(tmp_path, "repro.json", payload)
    code, out, _ = run(capsys, ["reproducibility", "--input", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["metrics"]["labels_match"] is True
    assert report["metrics"]["max_effect_gap"] <= 1e-10


def test_reproducibility_fails_for_uncoupled_process(tmp_path, capsys):
    payload = {
        "process": {
            "system_dim": 2,
            "ancilla_state": encode_state([1.0, 0.0]),
            "coupling": encode_matrix(np.eye(4)),
            "meter": encode_matrix(np.diag([1.0, 2.0])),
        },
        "observable": {"matrix": encode_matrix(np.diag([1.0, 2.0]))},
    }
    path = write_payload(tmp_path, "repro.json", payload)
    code, out, _ = run(capsys, ["reproducibility", "--input", path])
    assert code == 1
    assert out.startswith("reproducibility: FAIL")


def test_induced_povm_reports_resolution(tmp_path, capsys):
    payload = {"process": pointer_process_payload([1.0, 2.0, 3.0])}
    path = write_payload(tmp_path, "proc.json", payload)
    code, out, _ = run(capsys, ["induced-povm", "--input", path, "--json"])
    assert code == 0
    report = json.loads(out)
    outcomes = report["details"]["povm"]["outcomes"]
    assert [o["label"] for o in outcomes] == [1.0, 2.0, 3.0]
    total = np.zeros((3, 3), dtype=complex)
    for o in outcomes:
        entries = o["effect"]["entries"]
        total += np.array([complex(re, im) for re, im in entries]).reshape(3, 3)
    np.testing.assert_allclose(total, np.eye(3), atol=1e-10)


# ---------------------------------------------------------------------------
# dilate


def test_dilate_emits_decodable_process(tmp_path, capsys):
    half = np.eye(2) / 2
    payload = {
        "povm": {
            "outcomes": [
                {"label": 0.0, "effect": encode_matrix(half)},
                {"label": 1.0, "effect": encode_matrix(half)},
            ]
        }
    }
    path = write_payload(tmp_path, "povm.json", payload)
    code, out, _ = run(capsys, ["dilate", "--input", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["metrics"]["round_trip_gap"] <= 1e-9
    emitted = report["details"]["process"]
    coupling = np.array(
        [complex(re, im) for re, im in emitted["coupling"]["entries"]]
    ).reshape(emitted["coupling"]["rows"], emitted["coupling"]["cols"])
    assert _gram_error(coupling) <= UNITARY_TOL
    assert emitted["system_dim"] == 2


def test_dilate_rejects_invalid_povm(tmp_path, capsys):
    payload = {
        "povm": {
            "outcomes": [
                {"label": 0.0, "effect": encode_matrix(np.eye(2) / 2)},
                {"label": 1.0, "effect": encode_matrix(np.eye(2) / 3)},
            ]
        }
    }
    path = write_payload(tmp_path, "povm.json", payload)
    code, _, err = run(capsys, ["dilate", "--input", path])
    assert code == 2
    assert "invalid POVM" in err


@pytest.mark.parametrize("label", [math.nan, math.inf, -math.inf])
def test_dilate_rejects_non_finite_label(tmp_path, capsys, label):
    # json writes and reads NaN and Infinity; the POVM must reject them
    # before any arithmetic on the label can warn.
    half = encode_matrix(np.eye(2) / 2)
    outcomes = [{"label": 0.0, "effect": half}, {"label": label, "effect": half}]
    path = write_payload(tmp_path, "povm.json", {"povm": {"outcomes": outcomes}})
    code, out, err = run(capsys, ["dilate", "--input", path])
    assert code == 2
    assert out == ""
    assert "finite" in err


# ---------------------------------------------------------------------------
# entangle / check-entanglement


def test_entangle_passes_for_superposition(tmp_path, capsys):
    payload = {
        "state": encode_state([0.6, 0.8]),
        "observable": {"matrix": encode_matrix(PAULI_Z)},
    }
    path = write_payload(tmp_path, "ent.json", payload)
    code, out, _ = run(capsys, ["entangle", "--input", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["metrics"]["max_violation"] <= 1e-9
    assert all(report["details"]["conditions"].values())
    assert len(report["details"]["state"]["amplitudes"]) == 4


def test_entangle_builds_the_pointer_process_once(tmp_path, capsys, monkeypatch):
    from qmeas import vonneumann

    original = vonneumann.build_vn_process
    calls = []

    def counting(a):
        calls.append(a)
        return original(a)

    # Count through every namespace that binds the constructor.
    for module in (vonneumann, cli):
        if getattr(module, "build_vn_process", None) is original:
            monkeypatch.setattr(module, "build_vn_process", counting)
    payload = {"state": encode_state([0.6, 0.8]), "observable": {"matrix": encode_matrix(PAULI_Z)}}
    code, _, _ = run(capsys, ["entangle", "--input", write_payload(tmp_path, "in.json", payload)])
    assert code == 0
    assert len(calls) == 1


def test_check_entanglement_fails_for_product_state(tmp_path, capsys):
    amplitudes = np.kron([1.0, 0.0], [1.0, 1.0]) / np.sqrt(2)
    payload = {
        "observable1": {"matrix": encode_matrix(PAULI_Z)},
        "observable2": {"matrix": encode_matrix(PAULI_Z)},
        "state": encode_state(amplitudes),
    }
    path = write_payload(tmp_path, "check.json", payload)
    code, out, _ = run(capsys, ["check-entanglement", "--input", path, "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["metrics"]["max_violation"] == pytest.approx(0.5, abs=1e-12)


def test_check_entanglement_passes_for_bell_state(tmp_path, capsys):
    amplitudes = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    payload = {
        "observable1": {"matrix": encode_matrix(PAULI_Z)},
        "observable2": {"matrix": encode_matrix(PAULI_Z)},
        "state": encode_state(amplitudes),
    }
    path = write_payload(tmp_path, "check.json", payload)
    code, out, _ = run(capsys, ["check-entanglement", "--input", path])
    assert code == 0
    assert out.startswith("check-entanglement: PASS")


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_needs_no_input(capsys):
    code, out, _ = run(capsys, ["counterexample"])
    assert code == 1
    assert out.startswith("counterexample: FAIL")


def test_counterexample_reports_half_disagreement(capsys):
    code, out, _ = run(capsys, ["counterexample", "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["metrics"]["off_diagonal_mass"] == pytest.approx(0.5, abs=1e-12)
    labels = [o["label"] for o in report["details"]["povm"]["outcomes"]]
    assert labels == [0.0, 1.0]


# ---------------------------------------------------------------------------
# sample


def sample_payload():
    return {
        "process1": pointer_process_payload([1.0, 2.0]),
        "process2": pointer_process_payload([1.0, 2.0]),
        "state": encode_state([0.6, 0.8]),
    }


def test_sample_counts_are_deterministic(tmp_path, capsys):
    path = write_payload(tmp_path, "sample.json", sample_payload())
    argv = ["sample", "--input", path, "--seed", "9", "--json"]
    _, first, _ = run(capsys, argv)
    code, second, _ = run(capsys, argv)
    assert code == 0
    assert first == second
    report = json.loads(first)
    counts = {(x, y): c for x, y, c in report["details"]["counts"]}
    assert sum(counts.values()) == 1000
    assert set(counts) <= {(1.0, 1.0), (2.0, 2.0)}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("verify-oit", {"observable": {"matrix": encode_matrix(PAULI_Z)}}),
        ("sample", sample_payload()),
    ],
)
def test_negative_seed_exits_2_naming_the_seed(tmp_path, capsys, command, payload):
    path = write_payload(tmp_path, "in.json", payload)
    code, out, err = run(capsys, [command, "--input", path, "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert err == "error: seed must be a nonnegative integer\n"


@pytest.mark.parametrize(
    "flags, name, shown",
    [
        (["--tol", "-1"], "tol", "-1.0"),
        (["--label-tol", "-1"], "label_tol", "-1.0"),
        (["--tol", "nan"], "tol", "nan"),
        (["--label-tol", "nan"], "label_tol", "nan"),
    ],
)
def test_negative_or_nan_tolerance_flag_exits_2(tmp_path, capsys, flags, name, shown):
    path = write_payload(tmp_path, "obs.json", {"observable": {"matrix": encode_matrix(PAULI_Z)}})
    code, out, err = run(capsys, ["verify-oit", "--input", path] + flags)
    assert code == 2
    assert out == ""
    assert err == f"error: {name}: must be a nonnegative number, got {shown}\n"


@pytest.mark.parametrize(
    "command, name, value",
    [
        ("verify-oit", "tol", -1e-9),
        ("verify-oit", "label_tol", math.nan),
        ("reproducibility", "label_tol", -1.0),
        ("dilate", "tol", math.nan),
        ("entangle", "tol", -1),
        ("counterexample", "tol", -math.inf),
    ],
)
def test_negative_or_nan_tolerance_key_exits_2(tmp_path, capsys, command, name, value):
    payload = {**(golden_payloads()[command] or {}), name: value}
    code, out, err = run(capsys, [command, "--input", write_payload(tmp_path, "in.json", payload)])
    assert code == 2
    assert out == ""
    assert err == f"error: {name}: must be a nonnegative number, got {float(value)!r}\n"


def test_infinite_tolerance_is_accepted(tmp_path, capsys):
    path = write_payload(tmp_path, "obs.json", {"observable": {"matrix": encode_matrix(PAULI_Z)}})
    code, out, _ = run(capsys, ["verify-oit", "--input", path, "--tol", "inf", "--json"])
    assert code == 0
    assert json.loads(out)["metrics"]["tolerance"] == math.inf


def test_sample_count_from_file_overridden_by_flag(tmp_path, capsys):
    payload = sample_payload()
    payload["samples"] = 50
    path = write_payload(tmp_path, "sample.json", payload)
    code, out, _ = run(capsys, ["sample", "--input", path, "--json"])
    assert code == 0
    assert json.loads(out)["metrics"]["samples"] == 50
    code, out, _ = run(capsys, ["sample", "--input", path, "--trials", "20", "--json"])
    assert code == 0
    assert json.loads(out)["metrics"]["samples"] == 20


# ---------------------------------------------------------------------------
# JSON encoding: byte-identical to the standard library's indented dumps

json_numbers = (
    st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16])
    | st.booleans()
)
json_strings = st.text() | st.sampled_from(['", "', '"], ["', "], ["])
number_tables = st.lists(st.lists(json_numbers, min_size=1), min_size=1)
json_trees = st.recursive(
    st.none() | json_numbers | json_strings | number_tables,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_strings, children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(json_trees)
@example([[]])
@example([[1, 2.5, True], [-0.0, math.nan, 5e-324, 1e16, -math.inf]])
@example([[1, "], ["], [2, '", "']])
@example({"a": [], "b": {}, "c": [{"d": [[1, 2], [3]]}, {}], "e": [[False, None]]})
def test_dumps_matches_stdlib_indented_dumps(tree):
    assert cli._dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)


def golden_payloads():
    rng = np.random.default_rng(16)
    povm = [
        {"label": label, "effect": encode_matrix(effect)}
        for label, effect in random_povm_outcomes(16, 4, rng)
    ]
    observable = {"matrix": encode_matrix(PAULI_Z)}
    bell = encode_state(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    return {
        "verify-oit": {"observable": observable, "trials": 5},
        "reproducibility": {
            "process": pointer_process_payload([1.0, 2.0]),
            "observable": {"matrix": encode_matrix(np.diag([1.0, 2.0]))},
        },
        "induced-povm": {"process": pointer_process_payload([1.0, 2.0, 3.0])},
        "dilate": {"povm": {"outcomes": povm}},
        "entangle": {"state": encode_state([0.6, 0.8]), "observable": observable},
        "check-entanglement": {"observable1": observable, "observable2": observable, "state": bell},
        "counterexample": None,
        "sample": sample_payload(),
    }


@pytest.mark.parametrize("command", list(cli._HANDLERS))
def test_json_report_is_the_stdlib_encoding(tmp_path, capsys, command):
    payload = golden_payloads()[command]
    argv = [command, "--json"]
    if payload is not None:
        argv += ["--input", write_payload(tmp_path, "in.json", payload)]
    args = cli._build_parser().parse_args(argv)
    report = cli._HANDLERS[command](cli._load_payload(args), args)
    expected = json.dumps(
        {
            "command": report.command,
            "pass": report.passed,
            "metrics": report.metrics,
            "details": report.details,
        },
        sort_keys=True,
        indent=2,
    )
    assert report.to_json() == expected
    _, out, _ = run(capsys, argv)
    assert out == expected + "\n"


# ---------------------------------------------------------------------------
# JSON decoding: exact values, and the path of the first bad entry


def matrix_with_entry(index, entry, size=3):
    entries = [[float(i), 0.0] for i in range(size * size)]
    entries[index] = entry
    return {"rows": size, "cols": size, "entries": entries}


@pytest.mark.parametrize(
    "entry", [True, "1.0", [1.0, 0.0, 0.0], [1.0], [True, 0.0], [0.0, "0"], None, {"re": 1.0}]
)
def test_bad_complex_entry_is_named_by_index(entry):
    with pytest.raises(ValueError) as excinfo:
        cli._decode_matrix(matrix_with_entry(5, entry), "observable.matrix")
    assert str(excinfo.value) == "observable.matrix.entries[5]: expected a [re, im] number pair"
    amplitudes = [[0.0, 0.0]] * 7
    amplitudes[5] = entry
    with pytest.raises(ValueError) as excinfo:
        cli._decode_state({"amplitudes": amplitudes}, "state")
    assert str(excinfo.value) == "state.amplitudes[5]: expected a [re, im] number pair"


def test_wrong_entry_count_is_reported():
    matrix = matrix_with_entry(5, [1.0, 0.0])
    matrix["entries"].pop()
    with pytest.raises(ValueError) as excinfo:
        cli._decode_matrix(matrix, "observable.matrix")
    assert str(excinfo.value) == (
        "observable.matrix: entries must hold rows*cols = 9 complex pairs (row-major)"
    )
    with pytest.raises(ValueError) as excinfo:
        cli._decode_state({"amplitudes": []}, "state")
    assert str(excinfo.value) == "state: amplitudes must be nonempty"


def test_decoded_matrix_is_exactly_the_per_entry_complex():
    entries = [[-0.0, 1], [math.inf, -math.inf], [5e-324, 2**64 + 1], [1e16, -(10**300)]]
    decoded = cli._decode_matrix({"rows": 2, "cols": 2, "entries": entries}, "m")
    reference = np.array([complex(re, im) for re, im in entries]).reshape(2, 2)
    assert decoded.dtype == complex
    assert np.array_equal(decoded, reference)
    assert np.signbit(decoded[0, 0].real)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(*[st.integers(-(2**1023), 2**1023) | st.floats(allow_nan=False)] * 2)))
def test_decoded_pairs_match_complex_bit_for_bit(pairs):
    entries = [list(pair) for pair in pairs]
    decoded = cli._decode_pairs(entries, "x")
    reference = np.array([complex(re, im) for re, im in entries], dtype=complex)
    assert np.array_equal(decoded.view(np.uint64), reference.view(np.uint64))


def oversized_number_cases():
    z = {"matrix": encode_matrix(PAULI_Z)}
    entry = {"matrix": matrix_with_entry(0, [10**400, 0.0], size=2)}
    amplitudes = [[1.0, 0.0], [0.0, 0.0], [0.0, 10**400]]
    label = {"label": 10**400, "effect": encode_matrix(np.eye(2))}
    return [
        ("verify-oit", {"observable": entry}, "observable.matrix.entries[0]"),
        ("verify-oit", {"observable": z, "tol": 10**400}, "tol"),
        ("verify-oit", {"observable": z, "label_tol": -(10**400)}, "label_tol"),
        ("entangle", {"state": {"amplitudes": amplitudes}, "observable": z}, "state.amplitudes[2]"),
        ("dilate", {"povm": {"outcomes": [label]}}, "povm.outcomes[0].label"),
    ]


@pytest.mark.parametrize("command, payload, where", oversized_number_cases())
def test_integer_beyond_float_range_exits_2(tmp_path, capsys, command, payload, where):
    code, out, err = run(capsys, [command, "--input", write_payload(tmp_path, "in.json", payload)])
    assert code == 2
    assert out == ""
    assert f"{where}: number is too large for a float" in err

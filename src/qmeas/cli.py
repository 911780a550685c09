"""Command line front end: qmeas <subcommand> [--input FILE] [--json] ...

Scenario files are JSON with schema_version "1". Complex numbers are
[re, im] pairs; a matrix is {"rows": R, "cols": C, "entries": [...]} with
row-major entries; a state is {"amplitudes": [...]}. Reports are printed
human-readable by default or as deterministic JSON with --json. Exit codes:
0 check passed, 1 verification failed, 2 invalid input, 3 internal
consistency error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import NumericalConsistencyError
from .intersubjectivity import (
    check_intersubjectivity,
    compose_joint_scenario,
    counterexample_uninformative_povm,
    sample_outcomes,
    verify_oit,
)
from .linalg import State
from .observables import Observable, Povm, povm_probabilities
from .processes import (
    MeasurementProcess,
    _pointer_meter,
    _povm_gaps,
    effect_gaps,
    induced_povm,
    naimark_dilation,
)
from .tolerances import DEFAULT_LABEL_TOL, DEFAULT_TOL
from .vonneumann import check_observable_entanglement, entangled_state

SCHEMA_VERSION = "1"

DEFAULT_TRIALS = 100
DEFAULT_SEED = 0
DEFAULT_SAMPLES = 1000

# Without indent the standard library encodes through its C accelerator.
_ENCODER = json.JSONEncoder(sort_keys=True)


def _chunks(obj, level: int):
    """Yield the text of ``json.dumps(obj, sort_keys=True, indent=2)`` for a
    JSON tree whose dict keys are str, nested ``level`` indents deep.

    A list of nonempty lists of numbers is one chunk: one C call encodes it
    and two replacements re-indent it, since number tokens hold no ", ", "["
    or "]". Yielding pieces keeps at most two copies of the text alive.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        yield _ENCODER.encode(obj)
        return
    outer, inner = "\n" + "  " * level, "\n" + "  " * (level + 1)
    if isinstance(obj, dict):
        for i, (key, value) in enumerate(sorted(obj.items())):
            yield ("," if i else "{") + inner + _ENCODER.encode(key) + ": "
            yield from _chunks(value, level + 1)
        yield outer + "}"
    elif (
        set(map(type, obj)) == {list}
        and all(obj)
        and set(map(type, chain.from_iterable(obj))) <= {int, float, bool}
    ):
        deeper = inner + "  "
        rows = _ENCODER.encode(obj)[2:-2]
        rows = rows.replace("], [", inner + "]," + inner + "[" + deeper)
        yield "[" + inner + "[" + deeper
        yield rows.replace(", ", "," + deeper)
        yield inner + "]" + outer + "]"
    else:
        for i, value in enumerate(obj):
            yield ("," if i else "[") + inner
            yield from _chunks(value, level + 1)
        yield outer + "]"


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` through the C encoder."""
    return "".join(_chunks(obj, 0))


@dataclass
class RunReport:
    command: str
    passed: bool
    metrics: dict
    details: dict

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "pass": self.passed,
            "metrics": self.metrics,
            "details": self.details,
        }
        return _dumps(payload)

    def to_text(self) -> str:
        lines = [f"{self.command}: {'PASS' if self.passed else 'FAIL'}"]
        for key in sorted(self.metrics):
            lines.append(f"  {key}: {self.metrics[key]}")
        return "\n".join(lines)


def _fail(path: str, message: str) -> None:
    raise ValueError(f"{path}: {message}")


def _required_key(payload: dict, key: str):
    if key not in payload:
        _fail(key, "missing required key")
    return payload[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _float(value, path: str) -> float:
    try:
        return float(value)
    except OverflowError:
        _fail(path, "number is too large for a float")


def _decode_complex(value, path: str) -> complex:
    if not (isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value)):
        _fail(path, "expected a [re, im] number pair")
    return complex(_float(value[0], path), _float(value[1], path))


def _decode_pairs(entries: list, path: str) -> np.ndarray:
    """Complex vector of a list of [re, im] number pairs, equal bit for bit
    to ``complex(re, im)`` per pair. The first bad pair is named by index."""
    if (
        set(map(type, entries)) <= {list}
        and set(map(len, entries)) <= {2}
        and set(map(type, chain.from_iterable(entries))) <= {int, float}
    ):
        try:
            return np.fromiter(chain.from_iterable(entries), float, 2 * len(entries)).view(complex)
        except OverflowError:
            pass  # an integer beyond float range: the scan below names it
    return np.array(
        [_decode_complex(entry, f"{path}[{i}]") for i, entry in enumerate(entries)],
        dtype=complex,
    )


def _decode_matrix(obj, path: str) -> np.ndarray:
    if not isinstance(obj, dict):
        _fail(path, "expected an object with rows, cols, entries")
    rows, cols, entries = obj.get("rows"), obj.get("cols"), obj.get("entries")
    if not (_is_integer(rows) and _is_integer(cols)) or rows < 1 or cols < 1:
        _fail(path, "rows and cols must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        _fail(path, f"entries must hold rows*cols = {rows * cols} complex pairs (row-major)")
    return _decode_pairs(entries, f"{path}.entries").reshape(rows, cols)


def _decode_state(obj, path: str) -> State:
    if not isinstance(obj, dict) or not isinstance(obj.get("amplitudes"), list):
        _fail(path, "expected an object with an amplitudes list")
    amps = _decode_pairs(obj["amplitudes"], f"{path}.amplitudes")
    if not amps.size:
        _fail(path, "amplitudes must be nonempty")
    return State(amps)


def _decode_observable(obj, path: str) -> Observable:
    if not isinstance(obj, dict) or "matrix" not in obj:
        _fail(path, "expected an object with a matrix")
    return Observable.from_matrix(_decode_matrix(obj["matrix"], f"{path}.matrix"))


def _decode_povm(obj, path: str) -> Povm:
    if not isinstance(obj, dict) or not isinstance(obj.get("outcomes"), list):
        _fail(path, "expected an object with an outcomes list")
    outcomes = []
    for i, outcome in enumerate(obj["outcomes"]):
        where = f"{path}.outcomes[{i}]"
        if not isinstance(outcome, dict) or not _is_number(outcome.get("label")):
            _fail(where, "expected an object with a numeric label and an effect")
        outcomes.append(
            (
                _float(outcome["label"], f"{where}.label"),
                _decode_matrix(outcome.get("effect"), f"{where}.effect"),
            )
        )
    return Povm(tuple(outcomes))


def _decode_process(obj, path: str) -> MeasurementProcess:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    system_dim = obj.get("system_dim")
    if not _is_integer(system_dim) or system_dim < 1:
        _fail(f"{path}.system_dim", "must be a positive integer")
    return MeasurementProcess(
        system_dim=system_dim,
        ancilla_state=_decode_state(_required_key(obj, "ancilla_state"), f"{path}.ancilla_state"),
        coupling=_decode_matrix(_required_key(obj, "coupling"), f"{path}.coupling"),
        meter=Observable.from_matrix(_decode_matrix(_required_key(obj, "meter"), f"{path}.meter")),
    )


def _encode_pairs(values: np.ndarray) -> list:
    """Row-major [re, im] float pairs of a complex array."""
    return np.stack([values.real, values.imag], -1).reshape(-1, 2).tolist()


def _encode_matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": _encode_pairs(m)}


def _encode_state(s: State) -> dict:
    return {"amplitudes": _encode_pairs(s.amplitudes)}


def _encode_povm(p: Povm) -> dict:
    return {
        "outcomes": [
            {"label": float(x), "effect": _encode_matrix(e)} for x, e in p.outcomes
        ]
    }


def _encode_process(mp: MeasurementProcess) -> dict:
    # Read first: the zgemm forming the meter's matrix slowed the JSON encoding run
    # directly after it by 20 % (AVX-512 Xeon, OpenBLAS 0.3.31); the coupling's QR does not.
    meter = _encode_matrix(mp.meter.matrix)
    return {
        "system_dim": mp.system_dim,
        "ancilla_state": _encode_state(mp.ancilla_state),
        "coupling": _encode_matrix(mp.coupling),
        "meter": meter,
    }


def _setting(args, payload: dict, name: str, default, kind):
    """Resolve a numeric setting: explicit flag, then file key, then default.
    A float setting (a tolerance) must be nonnegative and not NaN."""
    value = getattr(args, name, None)
    if value is None and name in payload:
        value = payload[name]
        if kind is int and not _is_integer(value):
            _fail(name, "must be an integer")
        if kind is float and not _is_number(value):
            _fail(name, "must be a number")
        value = _float(value, name) if kind is float else kind(value)
    value = default if value is None else value
    if kind is float and not value >= 0.0:
        _fail(name, f"must be a nonnegative number, got {value!r}")
    return value


def _cmd_verify_oit(payload: dict, args) -> RunReport:
    a = _decode_observable(_required_key(payload, "observable"), "observable")
    trials = _setting(args, payload, "trials", DEFAULT_TRIALS, int)
    seed = _setting(args, payload, "seed", DEFAULT_SEED, int)
    tol = _setting(args, payload, "tol", DEFAULT_TOL, float)
    label_tol = _setting(args, payload, "label_tol", DEFAULT_LABEL_TOL, float)
    summary = verify_oit(a, trials=trials, seed=seed, tol=tol, label_tol=label_tol)
    metrics = {
        "trials": summary.trials,
        "seed": summary.seed,
        "tolerance": summary.tolerance,
        "label_tol": label_tol,
        "max_off_diagonal_mass": summary.max_off_diagonal_mass,
        "max_born_gap": summary.max_born_gap,
    }
    return RunReport("verify-oit", summary.passes, metrics, {})


def _cmd_reproducibility(payload: dict, args) -> RunReport:
    mp = _decode_process(_required_key(payload, "process"), "process")
    a = _decode_observable(_required_key(payload, "observable"), "observable")
    tol = _setting(args, payload, "tol", DEFAULT_TOL, float)
    label_tol = _setting(args, payload, "label_tol", DEFAULT_LABEL_TOL, float)
    gaps = effect_gaps(mp, a, label_tol)
    metrics = {"tolerance": tol, "label_tol": label_tol, "labels_match": gaps is not None}
    if gaps is None:
        return RunReport("reproducibility", False, metrics, {})
    metrics["max_effect_gap"] = max_gap = max(gap for _, gap in gaps)
    details = {"effect_gaps": [[x, gap] for x, gap in gaps]}
    return RunReport("reproducibility", max_gap <= tol, metrics, details)


def _cmd_induced_povm(payload: dict, args) -> RunReport:
    mp = _decode_process(_required_key(payload, "process"), "process")
    p = induced_povm(mp)
    metrics = {"outcomes": len(p.outcomes), "system_dim": mp.system_dim}
    return RunReport("induced-povm", True, metrics, {"povm": _encode_povm(p)})


def _cmd_dilate(payload: dict, args) -> RunReport:
    p = _decode_povm(_required_key(payload, "povm"), "povm")
    tol = _setting(args, payload, "tol", DEFAULT_TOL, float)
    mp = naimark_dilation(p)
    # The dilation's meter carries p's labels exactly, so they always pair.
    gap = max(gap for _, gap in _povm_gaps(p.outcomes, induced_povm(mp).outcomes, 0.0))
    metrics = {"round_trip_gap": gap, "tolerance": tol, "ancilla_dim": mp.ancilla_dim}
    return RunReport("dilate", gap <= tol, metrics, {"process": _encode_process(mp)})


def _entanglement_report(command: str, a1, a2, phi, tol: float, **details) -> RunReport:
    report = check_observable_entanglement(a1, a2, phi, tol)
    metrics = {"max_violation": report.max_violation, "tolerance": tol}
    details["pairing"] = [[k, m] for k, m in report.pairing]
    details["conditions"] = report.condition_results
    details["joint"] = [[float(p) for p in row] for row in report.joint]
    return RunReport(command, report.is_entangled, metrics, details)


def _cmd_entangle(payload: dict, args) -> RunReport:
    psi = _decode_state(_required_key(payload, "state"), "state")
    a = _decode_observable(_required_key(payload, "observable"), "observable")
    tol = _setting(args, payload, "tol", DEFAULT_TOL, float)
    phi = entangled_state(psi, a)
    # The meter of the pointer process entangled_state has just applied.
    meter = _pointer_meter(a.labels)
    return _entanglement_report("entangle", a, meter, phi, tol, state=_encode_state(phi))


def _cmd_check_entanglement(payload: dict, args) -> RunReport:
    a1 = _decode_observable(_required_key(payload, "observable1"), "observable1")
    a2 = _decode_observable(_required_key(payload, "observable2"), "observable2")
    phi = _decode_state(_required_key(payload, "state"), "state")
    tol = _setting(args, payload, "tol", DEFAULT_TOL, float)
    return _entanglement_report("check-entanglement", a1, a2, phi, tol)


def _cmd_counterexample(payload: dict, args) -> RunReport:
    tol = _setting(args, payload, "tol", DEFAULT_TOL, float)
    povm, scenario = counterexample_uninformative_povm()
    # The joint distribution of this scenario is the same for every system
    # state, so a fixed fiducial state suffices for the report.
    psi = State.basis(2, 0)
    report = check_intersubjectivity(scenario, psi, tol=tol)
    marginal = povm_probabilities(povm, psi)
    metrics = {"off_diagonal_mass": report.off_diagonal_mass, "tolerance": tol}
    details = {
        "povm": _encode_povm(povm),
        "diagonal": sorted([x, p] for x, p in report.diagonal.items()),
        "povm_statistics": [[x, p] for x, p in marginal.entries],
    }
    return RunReport("counterexample", report.passes, metrics, details)


def _cmd_sample(payload: dict, args) -> RunReport:
    p1 = _decode_process(_required_key(payload, "process1"), "process1")
    p2 = _decode_process(_required_key(payload, "process2"), "process2")
    psi = _decode_state(_required_key(payload, "state"), "state")
    seed = _setting(args, payload, "seed", DEFAULT_SEED, int)
    if args.trials is not None:
        n = args.trials
    else:
        n = _setting(args, payload, "samples", DEFAULT_SAMPLES, int)
    scenario = compose_joint_scenario(p1, p2)
    counts = sample_outcomes(scenario, psi, n, seed)
    details = {"counts": sorted([x, y, c] for (x, y), c in counts.items())}
    metrics = {"samples": n, "seed": seed, "distinct_pairs": len(counts)}
    return RunReport("sample", True, metrics, details)


_HANDLERS = {
    "verify-oit": _cmd_verify_oit,
    "reproducibility": _cmd_reproducibility,
    "induced-povm": _cmd_induced_povm,
    "dilate": _cmd_dilate,
    "entangle": _cmd_entangle,
    "check-entanglement": _cmd_check_entanglement,
    "counterexample": _cmd_counterexample,
    "sample": _cmd_sample,
}

_NEEDS_INPUT = set(_HANDLERS) - {"counterexample"}

_HELP = {
    "verify-oit": "check that two reproducible measurements of a sharp observable always agree",
    "reproducibility": "compare a process's induced POVM against a sharp observable",
    "induced-povm": "print the POVM a measurement process induces on the system",
    "dilate": "build a projective measurement process realizing a POVM",
    "entangle": "couple a state to a pointer ancilla and check the correlation conditions",
    "check-entanglement": "evaluate the correlation conditions for two observables in a state",
    "counterexample": "show two uninformative-POVM observers disagreeing half the time",
    "sample": "draw seeded outcome pairs from a two-observer scenario",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeas",
        description="Simulate indirect quantum measurement processes and check outcome agreement.",
        epilog="subcommands:\n" + "\n".join(f"  {name:<20}{_HELP[name]}" for name in _HANDLERS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_HANDLERS, metavar="subcommand", help="listed below")
    parser.add_argument("--input", metavar="FILE", help="JSON scenario file")
    parser.add_argument("--json", action="store_true", help="emit a machine-readable report")
    parser.add_argument("--seed", type=int, metavar="N", help="random seed")
    parser.add_argument("--trials", type=int, metavar="N", help="trial or sample count")
    parser.add_argument("--tol", type=float, metavar="X", help="verification tolerance")
    parser.add_argument(
        "--label-tol", dest="label_tol", type=float, metavar="X", help="outcome label matching width"
    )
    return parser


def _load_payload(args) -> dict:
    if args.input is None:
        if args.command in _NEEDS_INPUT:
            raise ValueError(f"{args.command} requires --input FILE")
        return {}
    text = Path(args.input).read_text()
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("scenario file must hold a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f'unsupported schema_version {version!r}; expected "{SCHEMA_VERSION}"')
    return payload


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = _load_payload(args)
        report = _HANDLERS[args.command](payload, args)
    except NumericalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

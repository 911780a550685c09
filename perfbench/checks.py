"""Output checks for every op the benchmark sends to the qmeas CLI.

``problems(op, payload, code, out)`` returns a list of human-readable
mismatches between one CLI invocation and what the generator expects; an
empty list means the op succeeded. Every check recomputes what it can from
the scenario with plain numpy rather than trusting the report.
"""

from __future__ import annotations

import json

import numpy as np

#: Outcome labels within this width are the same outcome (the CLI default).
LABEL_TOL = 1e-8

#: Agreement between a reported number and its independent recomputation.
MATCH_TOL = 1e-9

#: Sampled frequencies may stray this many standard deviations from Born.
SAMPLE_SIGMAS = 6.0


def _matrix(obj) -> np.ndarray:
    flat = np.asarray(obj["entries"], dtype=float)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(obj["rows"], obj["cols"])


def _vector(obj) -> np.ndarray:
    flat = np.asarray(obj["amplitudes"], dtype=float)
    return flat[:, 0] + 1j * flat[:, 1]


def _meter_projectors(meter: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Spectral family of a meter, eigenvalues within LABEL_TOL merged."""
    values, vectors = np.linalg.eigh(meter)
    groups, start = [], 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or values[stop] - values[stop - 1] > LABEL_TOL:
            cols = vectors[:, start:stop]
            groups.append((float(np.mean(values[start:stop])), cols @ cols.conj().T))
            start = stop
    return groups


def _induced_effects(process: dict) -> list[tuple[float, np.ndarray]]:
    """Effects a process induces on the system: V^H (I (x) Pi_x) V, V = U (I (x) xi)."""
    d = process["system_dim"]
    xi = _vector(process["ancilla_state"])
    k = xi.size
    u = _matrix(process["coupling"]).reshape(d * k, d, k)
    v = np.einsum("rjb,b->rj", u, xi).reshape(d, k, d)
    effects = []
    for label, proj in _meter_projectors(_matrix(process["meter"])):
        effects.append((label, np.einsum("iaj,ab,ibl->jl", v.conj(), proj, v)))
    return effects


def _label(pair):
    return pair[0]


def _unitarity_gap(m: np.ndarray) -> float:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def _tolerance(metrics, expect) -> list[str]:
    """The report must carry the CLI's default tolerance, not one of its own."""
    if metrics["tolerance"] != expect["tol"]:
        return [f"reported tolerance {metrics['tolerance']!r}, expected {expect['tol']!r}"]
    return []


def _verify_oit(metrics, details, expect, payload):
    out = _tolerance(metrics, expect)
    if metrics["trials"] != expect["trials"] or metrics["seed"] != expect["seed"]:
        out.append("trials or seed differ from the scenario")
    for key in ("max_off_diagonal_mass", "max_born_gap"):
        if not metrics[key] <= expect["tol"]:
            out.append(f"{key} {metrics[key]!r} exceeds tolerance {expect['tol']!r}")
    return out


def _sample(metrics, details, expect, payload):
    out = []
    n = expect["samples"]
    if metrics["samples"] != n:
        out.append(f"reported {metrics['samples']} samples, expected {n}")
    counts = details["counts"]
    if sum(c for _, _, c in counts) != n:
        out.append("counts do not sum to the sample count")
    observed = {}
    for x, y, c in counts:
        if abs(x - y) > LABEL_TOL:
            out.append(f"reproducing observers disagreed: pair ({x}, {y}) drawn {c} times")
        observed[x] = observed.get(x, 0) + c
    for label, p in zip(expect["labels"], expect["born"]):
        hits = sum(c for x, c in observed.items() if abs(x - label) <= LABEL_TOL)
        sigma = np.sqrt(p * (1.0 - p) / n)
        if abs(hits / n - p) > SAMPLE_SIGMAS * sigma + MATCH_TOL:
            out.append(f"outcome {label}: frequency {hits / n} far from Born probability {p}")
    for x in observed:
        if not any(abs(x - label) <= LABEL_TOL for label in expect["labels"]):
            out.append(f"sampled label {x} is not an eigenvalue of the observable")
    return out


def _counterexample(metrics, details, expect, payload):
    out = _tolerance(metrics, expect)
    mass = metrics["off_diagonal_mass"]
    if abs(mass - expect["off_diagonal_mass"]) > MATCH_TOL:
        out.append(f"off-diagonal mass {mass!r}, expected {expect['off_diagonal_mass']}")
    return out


def _dilate(metrics, details, expect, payload):
    out = _tolerance(metrics, expect)
    tol = expect["tol"]
    if not metrics["round_trip_gap"] <= tol:
        out.append(f"round_trip_gap {metrics['round_trip_gap']!r} exceeds tolerance {tol!r}")
    if metrics["ancilla_dim"] != expect["outcomes"]:
        out.append(f"ancilla_dim {metrics['ancilla_dim']}, expected {expect['outcomes']}")
    process = details["process"]
    gap = _unitarity_gap(_matrix(process["coupling"]))
    if gap > tol:
        out.append(f"dilation coupling is not unitary: {gap:.3e}")
    original = [(o["label"], _matrix(o["effect"])) for o in payload["povm"]["outcomes"]]
    induced = _induced_effects(process)
    if len(induced) != len(original):
        return out + [f"dilation induces {len(induced)} outcomes, expected {len(original)}"]
    worst = 0.0
    for (x, before), (y, after) in zip(sorted(original, key=_label), sorted(induced, key=_label)):
        if abs(x - y) > LABEL_TOL:
            return out + [f"induced outcome label {y} differs from the POVM's {x}"]
        worst = max(worst, float(np.linalg.norm(after - before)))
    if worst > tol:
        out.append(f"recomputed round trip misses the POVM by {worst:.3e}")
    return out


def _induced_povm(metrics, details, expect, payload):
    outcomes = details["povm"]["outcomes"]
    labels = [o["label"] for o in outcomes]
    if len(labels) != len(expect["labels"]) or any(
        abs(a - b) > LABEL_TOL for a, b in zip(sorted(labels), expect["labels"])
    ):
        return [f"labels {labels} differ from meter eigenvalues {expect['labels']}"]
    worst = 0.0
    for o, effect in zip(sorted(outcomes, key=lambda o: o["label"]), expect["effects"]):
        worst = max(worst, float(np.linalg.norm(_matrix(o["effect"]) - _matrix(effect))))
    return [f"effects miss the recomputed POVM by {worst:.3e}"] if worst > MATCH_TOL else []


def _reproducibility(metrics, details, expect, payload):
    if metrics.get("labels_match") is not True:
        return ["outcome labels were reported as not matching"]
    out = _tolerance(metrics, expect)
    gap = metrics["max_effect_gap"]
    if abs(gap - expect["max_effect_gap"]) > MATCH_TOL:
        out.append(f"max_effect_gap {gap!r}, recomputed {expect['max_effect_gap']!r}")
    if (gap <= expect["tol"]) != (expect["exit"] == 0):
        out.append("max_effect_gap lies on the wrong side of the tolerance")
    return out


def _entanglement(metrics, details, expect, payload):
    out = _tolerance(metrics, expect)
    if not metrics["max_violation"] <= expect["tol"]:
        out.append(f"max_violation {metrics['max_violation']!r} exceeds the tolerance")
    if not all(details["conditions"].values()):
        out.append(f"conditions failed: {details['conditions']}")
    if details["pairing"] != expect["pairing"]:
        out.append(f"pairing {details['pairing']}, expected {expect['pairing']}")
    worst = float(np.max(np.abs(np.asarray(details["joint"]) - np.asarray(expect["joint"]))))
    if worst > MATCH_TOL:
        out.append(f"joint table misses the recomputed one by {worst:.3e}")
    return out


_CHECKS = {
    "verify-oit": _verify_oit,
    "sample": _sample,
    "counterexample": _counterexample,
    "dilate": _dilate,
    "induced-povm": _induced_povm,
    "reproducibility": _reproducibility,
    "entangle": _entanglement,
    "check-entanglement": _entanglement,
}


def problems(op: dict, payload: dict, code, out: str) -> list[str]:
    """Every way one CLI invocation differs from the generator's expectation."""
    expect = op["expect"]
    found = []
    if code != expect["exit"]:
        found.append(f"exit code {code!r}, expected {expect['exit']}")
    try:
        report = json.loads(out)
    except ValueError:
        return found + ["stdout is not a JSON report"]
    if not isinstance(report, dict):
        return found + ["report is not a JSON object"]
    if report.get("command") != op["command"]:
        found.append(f"report is for {report.get('command')!r}")
    if report.get("pass") is not (expect["exit"] == 0):
        found.append(f"pass flag {report.get('pass')!r} contradicts the expected exit code")
    try:
        found += _CHECKS[op["command"]](report["metrics"], report["details"], expect, payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        found.append(f"malformed report: {exc!r}")
    return found

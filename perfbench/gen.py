"""Seeded scenario generator for the qmeas benchmark.

``generate(workload, seed, out_dir)`` writes one JSON scenario file per op
of a round and a ``plan.json`` that lists, per op, the subcommand, its
scenario file and the expected outcome the benchmark checks the report
against. The program
under test only ever receives the scenario files; expectations are
computed here with plain numpy, independently of ``qmeas``.

The same workload, seed and size give byte-identical files on one machine
(numpy's PCG64 stream; LAPACK calls are deterministic for a fixed BLAS
build and thread count). Structure (dimensions, branch counts, trials) is
fixed per workload; the seed only moves values, so op cost does not depend
on the seed.

Run standalone:  python3 perfbench/gen.py --workload compose-heavy --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "1"

#: The CLI's default verification tolerance. Scenarios never set ``tol``, so
#: every report must carry this one; checks compare residuals against it.
CLI_TOL = 1e-9


# --- seeded building blocks -------------------------------------------------


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _gaussian(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _eigenvalues(rng, count: int) -> np.ndarray:
    """Strictly increasing eigenvalues with gaps in [0.5, 1.5], centred near 0."""
    values = np.cumsum(rng.uniform(0.5, 1.5, size=count))
    return values - np.round(values.mean(), 1)


def _multiplicities(rng, dim: int, branches: int) -> list[int]:
    """A random composition of dim into `branches` positive parts."""
    cuts = np.sort(rng.choice(np.arange(1, dim), size=branches - 1, replace=False))
    return [int(x) for x in np.diff(np.concatenate(([0], cuts, [dim])))]


def _observable(rng, dim: int, branches: int):
    """Hermitian matrix with `branches` distinct eigenvalues in a random basis.

    Returns (matrix, labels, projectors), projectors in ascending label order.
    """
    labels = _eigenvalues(rng, branches)
    mult = [1] * dim if branches == dim else _multiplicities(rng, dim, branches)
    basis = _unitary(rng, dim)
    projectors = []
    start = 0
    for m in mult:
        cols = basis[:, start : start + m]
        projectors.append(cols @ cols.conj().T)
        start += m
    matrix = _hermitize(sum(x * p for x, p in zip(labels, projectors)))
    return matrix, [float(x) for x in labels], projectors


def _state(rng, dim: int) -> np.ndarray:
    vec = _gaussian(rng, dim)
    return vec / np.linalg.norm(vec)


def _pointer_coupling(projectors) -> np.ndarray:
    """Branch-controlled cyclic shift of an n-level pointer: sum_k P_k (x) S^k."""
    n = len(projectors)
    shift = np.roll(np.eye(n), 1, axis=0)
    return sum(np.kron(p, np.linalg.matrix_power(shift, k)) for k, p in enumerate(projectors))


def _dilation_coupling(rng, projectors) -> np.ndarray:
    """A unitary whose columns at ancilla index 0 are the isometry
    psi -> sum_k P_k psi (x) |k>; the other columns are a random orthonormal
    completion, so this realization differs from the pointer shift."""
    d, n = projectors[0].shape[0], len(projectors)
    isometry = np.zeros((d * n, d), dtype=complex)
    for k, p in enumerate(projectors):
        isometry[k::n, :] = p
    rest = _gaussian(rng, d * n, d * n - d)
    rest = rest - isometry @ (isometry.conj().T @ rest)
    rest, _ = np.linalg.qr(rest)
    rest = rest - isometry @ (isometry.conj().T @ rest)
    rest, _ = np.linalg.qr(rest)
    coupling = np.empty((d * n, d * n), dtype=complex)
    pinned = [j * n for j in range(d)]
    others = [c for c in range(d * n) if c % n != 0]
    coupling[:, pinned] = isometry
    coupling[:, others] = rest
    return coupling


def _povm_effects(rng, dim: int, outcomes: int) -> list[np.ndarray]:
    """Random POVM: positive blocks whitened by the inverse root of their sum."""
    blocks = []
    for _ in range(outcomes):
        g = _gaussian(rng, dim, dim)
        blocks.append(g @ g.conj().T)
    values, vectors = np.linalg.eigh(sum(blocks))
    inv_root = (vectors / np.sqrt(values)) @ vectors.conj().T
    return [_hermitize(inv_root @ b @ inv_root) for b in blocks]


# --- JSON encoding (the CLI's scenario schema) ------------------------------


def _matrix(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def _amplitudes(v: np.ndarray) -> dict:
    return {"amplitudes": [[float(z.real), float(z.imag)] for z in v]}


def _process(system_dim: int, coupling, ancilla, meter) -> dict:
    return {
        "system_dim": system_dim,
        "ancilla_state": _amplitudes(ancilla),
        "coupling": _matrix(coupling),
        "meter": _matrix(meter),
    }


def _basis(dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    return v


def _pointer_process(labels, projectors) -> dict:
    n = len(labels)
    return _process(projectors[0].shape[0], _pointer_coupling(projectors), _basis(n), np.diag(labels))


# --- op builders: (scenario payload, expectation) ---------------------------


def _verify_oit(rng, dim: int, branches: int, trials: int):
    matrix, _, _ = _observable(rng, dim, branches)
    seed = int(rng.integers(2**31))
    payload = {"observable": {"matrix": _matrix(matrix)}, "trials": trials, "seed": seed}
    return payload, {"exit": 0, "trials": trials, "seed": seed}


def _sample(rng, dim: int, samples: int):
    _, labels, projectors = _observable(rng, dim, dim)
    psi = _state(rng, dim)
    seed = int(rng.integers(2**31))
    born = [float(np.real(np.vdot(psi, p @ psi))) for p in projectors]
    payload = {
        "process1": _pointer_process(labels, projectors),
        "process2": _process(dim, _dilation_coupling(rng, projectors), _basis(dim), np.diag(labels)),
        "state": _amplitudes(psi),
        "samples": samples,
        "seed": seed,
    }
    return payload, {"exit": 0, "samples": samples, "labels": labels, "born": born}


def _counterexample(rng):
    return {}, {"exit": 1, "off_diagonal_mass": 0.5}


def _dilate(rng, dim: int, outcomes: int):
    effects = _povm_effects(rng, dim, outcomes)
    labels = [float(k) for k in range(outcomes)]
    payload = {
        "povm": {"outcomes": [{"label": x, "effect": _matrix(e)} for x, e in zip(labels, effects)]}
    }
    return payload, {"exit": 0, "outcomes": outcomes}


def _induced_povm(rng, dim: int, ancilla_dim: int):
    coupling = _unitary(rng, dim * ancilla_dim)
    xi = _state(rng, ancilla_dim)
    meter, labels, projectors = _observable(rng, ancilla_dim, ancilla_dim)
    effects = []
    for proj in projectors:
        evolved = coupling.conj().T @ np.kron(np.eye(dim), proj) @ coupling
        four = evolved.reshape(dim, ancilla_dim, dim, ancilla_dim)
        effects.append(np.einsum("a,iajb,b->ij", xi.conj(), four, xi))
    payload = {"process": _process(dim, coupling, xi, meter)}
    expect = {"exit": 0, "labels": labels, "effects": [_matrix(e) for e in effects]}
    return payload, expect


def _reproducibility(rng, dim: int, reproducing: bool):
    matrix, labels, projectors = _observable(rng, dim, dim)
    if reproducing:
        process_projectors = projectors
    else:
        # Same labels, rotated eigenbasis: labels line up but effects do not.
        _, _, process_projectors = _observable(rng, dim, dim)
    gaps = [float(np.linalg.norm(q - p)) for q, p in zip(process_projectors, projectors)]
    payload = {
        "process": _pointer_process(labels, process_projectors),
        "observable": {"matrix": _matrix(matrix)},
    }
    return payload, {"exit": 0 if reproducing else 1, "max_effect_gap": max(gaps)}


def _entangle(rng, dim: int, branches: int):
    matrix, _, projectors = _observable(rng, dim, branches)
    psi = _state(rng, dim)
    born = [float(np.real(np.vdot(psi, p @ psi))) for p in projectors]
    payload = {"state": _amplitudes(psi), "observable": {"matrix": _matrix(matrix)}}
    pairing = [[k, k] for k in range(branches)]
    return payload, {"exit": 0, "pairing": pairing, "joint": np.diag(born).tolist()}


def _check_entanglement(rng, dim: int):
    m1, _, p1 = _observable(rng, dim, dim)
    m2, _, p2 = _observable(rng, dim, dim)
    perm = [int(x) for x in rng.permutation(dim)]
    weights = rng.uniform(0.5, 1.5, size=dim)
    weights = weights / weights.sum()
    phi = np.zeros(dim * dim, dtype=complex)
    joint = np.zeros((dim, dim))
    for k, m in enumerate(perm):
        u = p1[k] @ _state(rng, dim)
        v = p2[m] @ _state(rng, dim)
        phi += np.sqrt(weights[k]) * np.kron(u / np.linalg.norm(u), v / np.linalg.norm(v))
        joint[k, m] = weights[k]
    phi = phi / np.linalg.norm(phi)
    payload = {
        "observable1": {"matrix": _matrix(m1)},
        "observable2": {"matrix": _matrix(m2)},
        "state": _amplitudes(phi),
    }
    pairing = [[k, m] for k, m in enumerate(perm)]
    return payload, {"exit": 0, "pairing": pairing, "joint": joint.tolist()}


_BUILDERS = {
    "verify-oit": _verify_oit,
    "sample": _sample,
    "counterexample": _counterexample,
    "dilate": _dilate,
    "induced-povm": _induced_povm,
    "reproducibility": _reproducibility,
    "entangle": _entangle,
    "check-entanglement": _check_entanglement,
}


# --- workloads --------------------------------------------------------------
#
# A workload is one round: a fixed list of (name, command, parameters). The
# benchmark repeats whole rounds, so every op kind keeps its share of the
# samples. The first op of a round is its cheapest, and set-up runs it once
# as the warm-up op. The last op is of the costliest kind; the benchmark
# runs enough rounds that the tail falls inside that kind's samples.

WORKLOADS = {
    "full": {
        # Composition dominates: one compose per op, few trials. The d=12
        # observables are degenerate (3 or 4 distinct eigenvalues, D = 108
        # and 192), separating cost that scales with d from cost that scales
        # with the branch count. Three cheaper ops, two d=6 and three d=8
        # per round put the median in the middle of the d=6 samples and the
        # tail inside the d=8 samples, not on a boundary between op kinds.
        "compose-heavy": [
            ("oit-d12-b3-a", "verify-oit", {"dim": 12, "branches": 3, "trials": 10}),
            ("oit-d12-b3-b", "verify-oit", {"dim": 12, "branches": 3, "trials": 10}),
            ("oit-d12-b4", "verify-oit", {"dim": 12, "branches": 4, "trials": 10}),
            ("oit-d6-a", "verify-oit", {"dim": 6, "branches": 6, "trials": 10}),
            ("oit-d6-b", "verify-oit", {"dim": 6, "branches": 6, "trials": 10}),
            ("oit-d8-a", "verify-oit", {"dim": 8, "branches": 8, "trials": 10}),
            ("oit-d8-b", "verify-oit", {"dim": 8, "branches": 8, "trials": 10}),
            ("oit-d8-c", "verify-oit", {"dim": 8, "branches": 8, "trials": 10}),
        ],
        # Composition is under a millisecond; time goes to the per-state
        # path (random states, joint law, agreement check, Born rule,
        # sampling). Holds the negative control `counterexample`, which
        # composes a D=8 scenario. Three cheaper ops, two d=2 and three
        # costlier verify-oit ops per round put the median in the middle of
        # the d=2 samples.
        "trial-heavy": [
            ("counterexample", "counterexample", {}),
            ("sample-d2", "sample", {"dim": 2, "samples": 100_000}),
            ("sample-d4", "sample", {"dim": 4, "samples": 100_000}),
            ("oit-d2-a", "verify-oit", {"dim": 2, "branches": 2, "trials": 2000}),
            ("oit-d2-b", "verify-oit", {"dim": 2, "branches": 2, "trials": 2000}),
            ("oit-d3", "verify-oit", {"dim": 3, "branches": 3, "trials": 2000}),
            ("oit-d4-a", "verify-oit", {"dim": 4, "branches": 4, "trials": 2000}),
            ("oit-d4-b", "verify-oit", {"dim": 4, "branches": 4, "trials": 2000}),
        ],
        # Never composes two observers: dilation (Gram-Schmidt completion),
        # Heisenberg meters, POVM validation, the pointer coupling and both
        # pairing paths (exhaustive at 4-5 branches, greedy at 16), and JSON
        # encoding of large couplings. The d=16, n=16 dilation runs twice
        # per round so the tail lands inside its samples; six cheaper and six
        # costlier ops around three d=8, n=8 dilations put the median in the
        # middle of those.
        "single-process": [
            ("repro-yes-d8", "reproducibility", {"dim": 8, "reproducing": True}),
            ("repro-no-d8", "reproducibility", {"dim": 8, "reproducing": False}),
            ("induced-d16-k8", "induced-povm", {"dim": 16, "ancilla_dim": 8}),
            ("induced-d8-k16", "induced-povm", {"dim": 8, "ancilla_dim": 16}),
            ("check-ent-d5", "check-entanglement", {"dim": 5}),
            ("check-ent-d16", "check-entanglement", {"dim": 16}),
            ("entangle-d16-b4", "entangle", {"dim": 16, "branches": 4}),
            ("entangle-d16-b16", "entangle", {"dim": 16, "branches": 16}),
            ("dilate-d8-n8-a", "dilate", {"dim": 8, "outcomes": 8}),
            ("dilate-d8-n8-b", "dilate", {"dim": 8, "outcomes": 8}),
            ("dilate-d8-n8-c", "dilate", {"dim": 8, "outcomes": 8}),
            ("dilate-d8-n16", "dilate", {"dim": 8, "outcomes": 16}),
            ("dilate-d16-n8", "dilate", {"dim": 16, "outcomes": 8}),
            ("dilate-d16-n16-a", "dilate", {"dim": 16, "outcomes": 16}),
            ("dilate-d16-n16-b", "dilate", {"dim": 16, "outcomes": 16}),
        ],
    },
    # Small variant with the same op kinds, for the smoke test.
    "tiny": {
        "compose-heavy": [
            ("oit-d3", "verify-oit", {"dim": 3, "branches": 3, "trials": 3}),
            ("oit-d4-b2", "verify-oit", {"dim": 4, "branches": 2, "trials": 3}),
        ],
        "trial-heavy": [
            ("counterexample", "counterexample", {}),
            ("sample-d2", "sample", {"dim": 2, "samples": 1000}),
            ("oit-d2", "verify-oit", {"dim": 2, "branches": 2, "trials": 20}),
        ],
        "single-process": [
            ("repro-yes-d3", "reproducibility", {"dim": 3, "reproducing": True}),
            ("repro-no-d3", "reproducibility", {"dim": 3, "reproducing": False}),
            ("induced-d2-k3", "induced-povm", {"dim": 2, "ancilla_dim": 3}),
            ("check-ent-d3", "check-entanglement", {"dim": 3}),
            ("check-ent-d8", "check-entanglement", {"dim": 8}),
            ("entangle-d4-b2", "entangle", {"dim": 4, "branches": 2}),
            ("dilate-d2-n3", "dilate", {"dim": 2, "outcomes": 3}),
        ],
    },
}

def generate(workload: str, seed: int, out_dir: Path, size: str = "full") -> dict:
    """Write the scenario files and plan.json for one round; return the plan."""
    if workload not in WORKLOADS[size]:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for salt, (name, command, params) in enumerate(WORKLOADS[size][workload]):
        payload, expect = _BUILDERS[command](_rng(seed, salt), **params)
        expect["tol"] = CLI_TOL
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(payload, sort_keys=True))
        shape = json.dumps([command, params], sort_keys=True)
        ops.append(
            {"name": name, "command": command, "shape": shape, "input": path.name, "expect": expect}
        )
    plan = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "ops": ops,
    }
    (out_dir / "plan.json").write_text(json.dumps(plan, sort_keys=True, indent=1))
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    plan = generate(args.workload, args.seed, args.out)
    print(f"wrote {len(plan['ops'])} scenario files and plan.json to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

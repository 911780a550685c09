"""Shared helpers for building seeded random fixtures."""

import numpy as np

from qmeas.linalg import State
from qmeas.observables import Observable
from qmeas.processes import MeasurementProcess

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])


def random_hermitian(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_unitary(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_meter(k, rng, degenerate):
    """Observable in a random basis; a degenerate one repeats some eigenvalue."""
    levels = max(1, k - 1) if degenerate else k
    values = rng.permutation(np.resize(np.arange(levels, dtype=float), k))
    basis = random_unitary(k, rng)
    return Observable.from_matrix((basis * values) @ basis.conj().T)


def random_meter_process(d, k, rng, degenerate):
    """Process with a random unitary coupling, a random (non-basis) ancilla
    state and a random meter (see ``random_meter``)."""
    meter = random_meter(k, rng, degenerate)
    xi = State.normalized(rng.normal(size=k) + 1j * rng.normal(size=k))
    return MeasurementProcess(d, xi, random_unitary(d * k, rng), meter)


def random_povm_outcomes(dim, n_outcomes, rng):
    """Random POVM: positive blocks G_k whitened by the inverse root of their sum."""
    blocks = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    values, vectors = np.linalg.eigh(total)
    inv_root = (vectors / np.sqrt(values)) @ vectors.conj().T
    return tuple((float(k), inv_root @ block @ inv_root) for k, block in enumerate(blocks))

"""Shared helpers for building seeded random fixtures."""

import numpy as np

from qmeas.linalg import State
from qmeas.observables import Observable
from qmeas.processes import MeasurementProcess
from qmeas.tolerances import PROJECTOR_TOL

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


def reference_spectral_check(branches):
    """Reference checker for a spectral family given as (value, projector)
    pairs: each projector Hermitian and idempotent, the projectors mutually
    orthogonal and summing to the identity, all entrywise within
    PROJECTOR_TOL. ``SpectralDecomposition``'s one Gram check implies every
    one of these; raises ValueError naming the first that fails."""
    cleaned = [(float(value), np.asarray(proj)) for value, proj in branches]
    dim = cleaned[0][1].shape[0]
    for value, proj in cleaned:
        if np.max(np.abs(proj - proj.conj().T)) > PROJECTOR_TOL:
            raise ValueError(f"projector for eigenvalue {value} is not Hermitian")
        if np.max(np.abs(proj @ proj - proj)) > PROJECTOR_TOL:
            raise ValueError(f"projector for eigenvalue {value} is not idempotent")
    for i, (_, left) in enumerate(cleaned):
        for _, right in cleaned[i + 1 :]:
            if np.max(np.abs(left @ right)) > PROJECTOR_TOL:
                raise ValueError("projectors are not mutually orthogonal")
    total = sum(proj for _, proj in cleaned)
    if np.max(np.abs(total - np.eye(dim))) > PROJECTOR_TOL:
        raise ValueError("projectors do not sum to the identity")


def reference_born_table(w, left, right):
    """The operator-stack Born kernel the eigenbasis kernel replaced:
    <w| I x L_x x R_y |w> for a stack ``left`` of n1 operators on the k1 axis
    and a stack ``right`` of n2 operators on the k2 axis of the state tensor
    w, shape (..., rest, k1, k2), read from the reduced state of its last two
    axes. Returns the real (..., n1, n2) table."""
    *batch, rest, k1, k2 = w.shape
    flat = w.reshape(-1, rest, k1 * k2)
    # rho[t, (b, a), (e, c)] = sum_i w[t, i, a, c] conj(w[t, i, b, e]), laid
    # out so that p(x, y) = sum L_x[b, a] rho[t, (b, a), (e, c)] R_y[e, c].
    rho = (flat.transpose(0, 2, 1) @ flat.conj()).reshape(-1, k1, k2, k1, k2)
    rho = rho.transpose(0, 3, 1, 4, 2).reshape(-1, k1 * k1, k2 * k2)
    table = left.reshape(-1, k1 * k1) @ rho @ right.reshape(-1, k2 * k2).T
    return table.real.reshape(*batch, *table.shape[1:])


def reference_joint_law(scenario, psi):
    """The dense evolved-meter law <phi| E1_x E2_y |phi>, shape (n1, n2), with
    phi = psi x xi1 x xi2 and E1_x, E2_y the spectral projectors of the
    scenario's evolved meters, each the composite coupling's conjugate of a
    process meter lifted to its own ancilla factor."""
    p1, p2 = scenario.process1, scenario.process2
    phi = np.kron(np.kron(psi.amplitudes, p1.ancilla_state.amplitudes), p2.ancilla_state.amplitudes)
    branches1 = scenario.evolved_meter1.spectral.branches
    branches2 = scenario.evolved_meter2.spectral.branches
    return np.array([[np.vdot(e1 @ phi, e2 @ phi).real for _, e2 in branches2] for _, e1 in branches1])


def reference_agreement(entries, label_tol):
    """The per-entry agreement loop over a joint distribution's ((x, y), p)
    entries: (off-diagonal mass, diagonal), an entry agreeing when
    |x - y| <= label_tol. The diagonal sums the agreeing entries per first
    label and has a key for each first label with at least one agreeing
    partner."""
    off, diagonal = 0.0, {}
    for (x, y), p in entries:
        if abs(x - y) <= label_tol:
            diagonal[x] = diagonal.get(x, 0.0) + p
        else:
            off += p
    return off, diagonal


def reference_cell_counts(boundaries, draws):
    """The per-draw inverse CDF that sorted counting replaced: each draw's cell
    is the number of boundaries at or below it, counted with ``np.unique``.
    Returns one count per cell, zeros included."""
    picks = np.searchsorted(boundaries, draws, side="right")
    counts = np.zeros(len(boundaries), dtype=int)
    for index, count in zip(*np.unique(picks, return_counts=True)):
        counts[index] = count
    return counts

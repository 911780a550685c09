"""Indirect measurement processes: ancilla, coupling, meter, and what they induce.

A process couples the system to an ancilla and reads a meter observable on
the ancilla. Its statistics are read in the Schrodinger picture: the
coupling applied to the system state x the ancilla state gives a state
tensor over (system, ancilla), whose ancilla axis is rotated into the
meter's eigenbasis and summed over each branch's columns. The coupling
applied to the ancilla state is the isometry V = U (I x xi), and
V^H (I x P_x) V is the induced generalized observable on the system alone,
which decides whether the process reproduces a sharp observable's
statistics. The meter evolved back through the coupling
(``heisenberg_meter``) is the dense Heisenberg-picture reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    PRODUCT_DIM_GUARD,
    SpectralDecomposition,
    State,
    _gram_error,
    as_complex_matrix,
    complete_isometry_to_unitary,
)
from .observables import Observable, OutcomeDistribution, Povm, _born_table, _labels_agree
from .tolerances import DEFAULT_LABEL_TOL, DEFAULT_TOL, UNITARY_TOL, _require


@dataclass(frozen=True, eq=False)
class MeasurementProcess:
    """Ancilla state, coupling unitary, and meter observable for one apparatus.

    The coupling acts on the system tensor the ancilla (system factor first);
    the meter lives on the ancilla alone. Statistics and the induced POVM
    are read from the coupling and the ancilla state directly; only
    ``heisenberg_meter`` builds the dense evolved meter.
    """

    system_dim: int
    ancilla_state: State
    coupling: np.ndarray
    meter: Observable

    def __post_init__(self) -> None:
        if self.system_dim < 1:
            raise ValueError("system dimension must be positive")
        u = as_complex_matrix(self.coupling, "coupling").copy()
        total = self.system_dim * self.ancilla_state.dim
        if u.shape != (total, total):
            raise ValueError(
                f"coupling shape {u.shape} does not match system x ancilla dimension {total}"
            )
        _require("coupling is unitary", _gram_error(u), UNITARY_TOL)
        if self.meter.dim != self.ancilla_state.dim:
            raise ValueError("meter dimension does not match the ancilla")
        u.setflags(write=False)
        object.__setattr__(self, "coupling", u)

    @property
    def ancilla_dim(self) -> int:
        return self.ancilla_state.dim

    @property
    def total_dim(self) -> int:
        return self.system_dim * self.ancilla_dim


def _evolved(coupling: np.ndarray, meter: Observable, before: int, after: int) -> Observable:
    """Dense meter lifted to I_before x meter x I_after and conjugated by the
    coupling U: each meter block B_x becomes U^H (I x B_x x I), at O(D^2 k)
    for ancilla dimension k, and the new family is validated at O(D^3)."""
    adjoint = coupling.conj().T.reshape(-1, before, meter.dim, after).transpose(0, 1, 3, 2)
    blocks = tuple(
        (value, (adjoint @ b).reshape(len(coupling), -1)) for value, b in meter.spectral.blocks
    )
    return Observable.from_spectral(SpectralDecomposition(blocks))


def heisenberg_meter(mp: MeasurementProcess) -> Observable:
    """Meter observable evolved back through the coupling.

    Each spectral projector of the meter is lifted to the composite space and
    conjugated by the coupling, so outcome labels are carried over exactly and
    the spectrum is preserved. This dense operator is the Heisenberg-picture
    reference: ``outcome_distribution`` and ``induced_povm`` never build it.
    """
    return _evolved(mp.coupling, mp.meter, mp.system_dim, 1)


def _isometry(mp: MeasurementProcess) -> np.ndarray:
    """V = U (I x xi): the coupling applied to the ancilla state, shape (d k, d)."""
    d, k = mp.system_dim, mp.ancilla_dim
    return mp.coupling.reshape(d * k, d, k) @ mp.ancilla_state.amplitudes


def outcome_distribution(mp: MeasurementProcess, psi: State) -> OutcomeDistribution:
    """Meter outcome statistics for a system state.

    Applies the coupling to the system state x the ancilla state and reads
    the meter's spectral family on the ancilla axis of the result.
    """
    if psi.dim != mp.system_dim:
        raise ValueError(f"state dimension {psi.dim} does not match system dimension {mp.system_dim}")
    w = (_isometry(mp) @ psi.amplitudes).reshape(mp.system_dim, mp.ancilla_dim, 1)
    table = _born_table(w, mp.meter.spectral)
    return OutcomeDistribution.from_values(mp.meter.labels, table[:, 0])


def induced_povm(mp: MeasurementProcess) -> Povm:
    """Generalized observable the process realizes on the system alone.

    Forms the isometry V = U (I x xi) and rotates its ancilla index into
    each branch's eigenvector block B_x, W_x = (I x B_x^H) V, so that each
    effect V^H (I x P_x) V is W_x^H W_x, at O(d^2 k (d + k)) in all. The effects inherit the meter's outcome
    labels and always resolve the identity.
    """
    d, k = mp.system_dim, mp.ancilla_dim
    spectral = mp.meter.spectral
    # Ancilla index leading, so B_x^H v[a, (i, j)] is the block W_x.
    v = _isometry(mp).reshape(d, k, d).transpose(1, 0, 2).reshape(k, -1)
    parts = ((b.conj().T @ v).reshape(-1, d) for _, b in spectral.blocks)
    effects = (part.conj().T @ part for part in parts)
    return Povm(tuple((x, (e + e.conj().T) / 2) for x, e in zip(mp.meter.labels, effects)))


def _povm_gaps(p, q, label_tol: float) -> tuple[tuple[float, float], ...] | None:
    """(q's label, Frobenius gap) for each pair of operators in label order, or
    None when the sorted labels do not line up within label_tol; p and q are
    (label, operator) sequences such as ``Povm.outcomes`` or ``branches``."""
    first = sorted(p, key=lambda pair: pair[0])
    second = sorted(q, key=lambda pair: pair[0])
    if len(first) != len(second):
        return None
    gaps = []
    for (x, effect), (y, other) in zip(first, second):
        if not _labels_agree(x, y, label_tol):
            return None
        gaps.append((y, float(np.linalg.norm(effect - other))))
    return tuple(gaps)


def effect_gaps(
    mp: MeasurementProcess, a: Observable, label_tol: float = DEFAULT_LABEL_TOL
) -> tuple[tuple[float, float], ...] | None:
    """Frobenius gaps between induced effects and a sharp observable's projectors.

    Returns (label, gap) pairs when the outcome labels line up one to one
    within label_tol, else None.
    """
    if a.dim != mp.system_dim:
        raise ValueError(f"observable dimension {a.dim} does not match system dimension {mp.system_dim}")
    return _povm_gaps(induced_povm(mp).outcomes, a.spectral.branches, label_tol)


def check_probability_reproducibility(
    mp: MeasurementProcess,
    a: Observable,
    tol: float = DEFAULT_TOL,
    label_tol: float = DEFAULT_LABEL_TOL,
) -> bool:
    """Whether the process reproduces a sharp observable for every state.

    This is the algebraic characterization: the induced generalized
    observable must carry the same outcome labels as the spectral family of
    ``a`` (within label_tol) with every effect within ``tol`` of the matching
    projector in Frobenius norm. No sampling is involved; agreement of the
    meter statistics with the Born distribution on all states follows.
    """
    gaps = effect_gaps(mp, a, label_tol)
    return gaps is not None and all(gap <= tol for _, gap in gaps)


def _pointer_meter(labels) -> Observable:
    """Meter reading labels[k] off ancilla basis vector k, branches sorted by label."""
    basis = np.eye(len(labels), dtype=complex)
    blocks = tuple((labels[k], basis[:, k : k + 1]) for k in np.argsort(labels))
    return Observable.from_spectral(SpectralDecomposition(blocks))


def _effect_sqrt(effect: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix.

    Eigenvalues that rounding pushed slightly negative are clamped to zero.
    """
    values, vectors = np.linalg.eigh(effect)
    return (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T


def naimark_dilation(p: Povm) -> MeasurementProcess:
    """Measurement process on a larger space realizing a given POVM exactly.

    The ancilla carries one basis vector per outcome. The coupling extends
    the isometry sending a system state to the sum over outcomes of
    (sqrt-effect applied to the state) tensor the outcome's basis vector; the
    meter is diagonal in the ancilla basis with the POVM's labels. The
    induced POVM of the result is the input again.
    """
    d = p.dim
    n = len(p.outcomes)
    if d * n > PRODUCT_DIM_GUARD:
        raise ValueError(f"dilation dimension {d * n} exceeds the guard {PRODUCT_DIM_GUARD}")
    isometry = np.zeros((d * n, d), dtype=complex)
    for index, effect in enumerate(p.effects):
        isometry[index::n, :] = _effect_sqrt(effect)
    # Column i of the completion goes to slot order[i]: the isometry's columns
    # to the ancilla-index-0 slots j n, the rest to the other slots in order.
    slots = np.arange(d * n).reshape(d, n)
    order = np.concatenate([slots[:, 0], slots[:, 1:].ravel()])
    completed = complete_isometry_to_unitary(isometry)
    coupling = np.empty_like(completed)
    coupling[:, order] = completed
    return MeasurementProcess(d, State.basis(n, 0), coupling, _pointer_meter(p.labels))

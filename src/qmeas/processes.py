"""Indirect measurement processes: ancilla, coupling, meter, and what they induce.

A process couples the system to an ancilla and reads a meter observable on
the ancilla. Its statistics are read in the Schrodinger picture: the
coupling applied to the system state x the ancilla state gives a state
tensor over (system, ancilla), and the meter projectors are contracted on
its ancilla axis. Contracting the coupling with the ancilla state gives the
isometry V = U (I x xi), and V^H (I x P_x) V is the induced generalized
observable on the system alone, which decides whether the process
reproduces a sharp observable's statistics. The dense meter evolved back
through the coupling (``heisenberg_meter``) is kept as the
Heisenberg-picture reference those contractions are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    PRODUCT_DIM_GUARD,
    SpectralDecomposition,
    State,
    UNITARY_TOL,
    as_complex_matrix,
    complete_isometry_to_unitary,
    is_unitary,
)
from .observables import (
    DEFAULT_LABEL_TOL,
    Observable,
    OutcomeDistribution,
    Povm,
    _born_table,
)


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
        if not is_unitary(u):
            raise ValueError(f"coupling is not unitary within {UNITARY_TOL}")
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
    coupling: O(n D^3) for n branches in dimension D, validated in full."""
    rows = coupling.reshape(before, meter.dim, -1)
    branches = tuple(
        (value, coupling.conj().T @ (proj @ rows).reshape(coupling.shape))
        for value, proj in meter.spectral.branches
    )
    return Observable.from_spectral(SpectralDecomposition(branches))


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
    table = _born_table(w, np.array(mp.meter.spectral.projectors), np.ones((1, 1, 1)))
    return OutcomeDistribution.from_values(mp.meter.labels, table[:, 0])


def induced_povm(mp: MeasurementProcess) -> Povm:
    """Generalized observable the process realizes on the system alone.

    Forms the isometry V = U (I x xi) and each effect V^H (I x P_x) V for the
    meter projectors P_x, at O(n d^2 k (d + k)) cost. The effects inherit the
    meter's outcome labels and always resolve the identity.
    """
    d, k = mp.system_dim, mp.ancilla_dim
    v = _isometry(mp)
    projectors = np.array(mp.meter.spectral.projectors)
    # (I x P_x) V for every branch at once, as batched matmuls on the
    # ancilla index of V's rows.
    lifted = (projectors[:, None] @ v.reshape(d, k, d)).reshape(-1, d * k, d)
    effects = v.conj().T @ lifted
    return Povm(
        tuple(
            (value, (effect + effect.conj().T) / 2)
            for value, effect in zip(mp.meter.labels, effects)
        )
    )


def effect_gaps(
    mp: MeasurementProcess, a: Observable, label_tol: float = DEFAULT_LABEL_TOL
) -> tuple[tuple[float, float], ...] | None:
    """Frobenius gaps between induced effects and a sharp observable's projectors.

    Returns (label, gap) pairs when the outcome labels line up one to one
    within label_tol, else None.
    """
    if a.dim != mp.system_dim:
        raise ValueError(f"observable dimension {a.dim} does not match system dimension {mp.system_dim}")
    induced = sorted(induced_povm(mp).outcomes, key=lambda pair: pair[0])
    target = sorted(Povm.from_observable(a).outcomes, key=lambda pair: pair[0])
    if len(induced) != len(target):
        return None
    gaps = []
    for (x, effect), (y, proj) in zip(induced, target):
        if abs(x - y) > label_tol:
            return None
        gaps.append((y, float(np.linalg.norm(effect - proj))))
    return tuple(gaps)


def check_probability_reproducibility(
    mp: MeasurementProcess,
    a: Observable,
    tol: float = 1e-9,
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
    completed = complete_isometry_to_unitary(isometry)
    # The isometry pins the coupling's columns at ancilla index 0; the
    # remaining completion columns fill the other slots in order.
    coupling = np.empty_like(completed)
    pinned = [j * n for j in range(d)]
    rest = [c for c in range(d * n) if c % n != 0]
    coupling[:, pinned] = completed[:, :d]
    coupling[:, rest] = completed[:, d:]
    branches = []
    for index, (label, _) in sorted(enumerate(p.outcomes), key=lambda item: item[1][0]):
        proj = np.zeros((n, n), dtype=complex)
        proj[index, index] = 1.0
        branches.append((label, proj))
    meter = Observable.from_spectral(SpectralDecomposition(tuple(branches)))
    return MeasurementProcess(d, State.basis(n, 0), coupling, meter)

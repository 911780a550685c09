"""Indirect measurement processes: ancilla, coupling, meter, and what they induce.

A process couples the system to an ancilla and reads a meter observable on
the ancilla; it is held as its isometry V = U (I x xi), the coupling applied
to the ancilla state. V applied to a system state gives a state tensor over
(system, ancilla), whose ancilla axis is rotated into the meter's eigenbasis
and summed over each branch's columns, and V^H (I x P_x) V is the induced
generalized observable on the system alone, which decides whether the
process reproduces a sharp observable's statistics. The coupling and the
meter evolved back through it (``heisenberg_meter``, the dense
Heisenberg-picture reference) are formed only when read.
"""

from __future__ import annotations

import functools
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
from .observables import Observable, OutcomeDistribution, Povm, _branch_sums, _labels_agree
from .tolerances import DEFAULT_LABEL_TOL, DEFAULT_TOL, EFFECT_RANK_FACTOR, UNITARY_TOL, _require


@dataclass(frozen=True, eq=False, init=False)
class MeasurementProcess:
    """Ancilla state, coupling unitary, and meter observable for one apparatus.

    U acts on the system tensor the ancilla (system factor first); the meter
    lives on the ancilla alone. The data is the isometry V = U (I x xi), shape
    (D, d) for D = d k: a given U is checked unitary at O(D^3) and V read off
    it once; the package's builders pass V and form U when it is read.
    """

    system_dim: int
    ancilla_state: State
    isometry: np.ndarray
    meter: Observable

    def __init__(self, system_dim: int, ancilla_state: State, coupling, meter: Observable) -> None:
        if system_dim < 1:
            raise ValueError("system dimension must be positive")
        u = as_complex_matrix(coupling, "coupling").copy()
        total = system_dim * ancilla_state.dim
        if u.shape != (total, total):
            raise ValueError(
                f"coupling shape {u.shape} does not match system x ancilla dimension {total}"
            )
        _require("coupling is unitary", _gram_error(u), UNITARY_TOL)
        if meter.dim != ancilla_state.dim:
            raise ValueError("meter dimension does not match the ancilla")
        u.setflags(write=False)
        v = u.reshape(total, system_dim, -1) @ ancilla_state.amplitudes
        v.setflags(write=False)
        fields = dict(system_dim=system_dim, ancilla_state=ancilla_state, isometry=v, meter=meter)
        vars(self).update(fields, coupling=u)

    @classmethod
    def _from_isometry(cls, d: int, labels, isometry, complete) -> "MeasurementProcess":
        """The pointer process with ancilla |0>, ``_pointer_meter(labels)``,
        isometry V = ``isometry()`` and coupling ``complete(V)``, formed on
        first read. D = d k is held to PRODUCT_DIM_GUARD before V or the meter
        exists; V^H V = I is checked within UNITARY_TOL at O(D d^2)."""
        total = d * len(labels)
        if total > PRODUCT_DIM_GUARD:
            raise ValueError(f"coupling dimension {total} exceeds the guard {PRODUCT_DIM_GUARD}")
        v = isometry()
        _require("isometry has orthonormal columns", _gram_error(v), UNITARY_TOL)
        v.setflags(write=False)
        mp = object.__new__(cls)
        fields = dict(system_dim=d, ancilla_state=State.basis(len(labels), 0), isometry=v)
        vars(mp).update(fields, meter=_pointer_meter(labels), _complete=complete)
        return mp

    def __reduce__(self):
        """Rebuilt by the constructor that made it; a built process's labels go
        back in ancilla order, read off its pointer meter's permutation basis."""
        if "_complete" not in vars(self):
            return type(self), (self.system_dim, self.ancilla_state, self.coupling, self.meter)
        slots = np.argmax(self.meter.spectral.basis.real, axis=0)
        labels = np.array(self.meter.labels)[np.argsort(slots)].tolist()
        isometry = functools.partial(np.array, self.isometry)
        return self._from_isometry, (self.system_dim, labels, isometry, self._complete)

    @functools.cached_property
    def coupling(self) -> np.ndarray:
        """The read-only D x D coupling U."""
        u = self._complete(self.isometry)
        u.setflags(write=False)
        return u

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
    return Observable(SpectralDecomposition(blocks))


def heisenberg_meter(mp: MeasurementProcess) -> Observable:
    """Meter observable evolved back through the coupling.

    Each spectral projector of the meter is lifted to the composite space and
    conjugated by the coupling, so outcome labels are carried over exactly and
    the spectrum is preserved. This dense operator is the Heisenberg-picture
    reference: ``outcome_distribution`` and ``induced_povm`` never build it.
    """
    return _evolved(mp.coupling, mp.meter, mp.system_dim, 1)


def outcome_distribution(mp: MeasurementProcess, psi: State) -> OutcomeDistribution:
    """Meter outcome statistics for a system state.

    Applies the isometry V, the coupling at the ancilla state, to the system
    state and reads the meter's spectral family on the ancilla axis of the result.
    """
    if psi.dim != mp.system_dim:
        raise ValueError(f"state dimension {psi.dim} does not match system dimension {mp.system_dim}")
    w = (mp.isometry @ psi.amplitudes).reshape(mp.system_dim, mp.ancilla_dim)
    amps = w @ mp.meter.spectral.basis.conj()
    table = _branch_sums(amps[..., None], mp.meter.spectral)
    return OutcomeDistribution.from_values(mp.meter.labels, table[:, 0])


def induced_povm(mp: MeasurementProcess) -> Povm:
    """Generalized observable the process realizes on the system alone.

    Rotates the ancilla index of the isometry V = U (I x xi) into each
    branch's eigenvector block B_x, W_x = (I x B_x^H) V, so that each effect
    V^H (I x P_x) V is W_x^H W_x, at O(d^2 k (d + k)) in all. The effects
    inherit the meter's outcome labels and always resolve the identity.
    """
    d, k = mp.system_dim, mp.ancilla_dim
    spectral = mp.meter.spectral
    # Ancilla index leading, so B_x^H v[a, (i, j)] is the block W_x.
    v = mp.isometry.reshape(d, k, d).transpose(1, 0, 2).reshape(k, -1)
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
    return Observable(SpectralDecomposition(blocks))


def _effect_sqrt(effects: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite matrix, or of each in a stack.

    Eigenvalues at or below EFFECT_RANK_FACTOR d u max|lambda| (u the unit
    roundoff) are rounding noise set to 0, so a rank-deficient root keeps its rank.
    """
    values, vectors = np.linalg.eigh(effects)
    noise = EFFECT_RANK_FACTOR * values.shape[-1] * np.finfo(float).eps / 2
    kept = np.where(values > noise * np.abs(values).max(axis=-1, keepdims=True), values, 0.0)
    roots = np.sqrt(kept)[..., None, :]
    return (vectors * roots) @ vectors.conj().swapaxes(-1, -2)


def naimark_dilation(p: Povm) -> MeasurementProcess:
    """Measurement process on a larger space realizing a given POVM exactly.

    The ancilla carries one basis vector per outcome. The process isometry
    sends a system state to the sum over outcomes of (sqrt-effect applied to
    the state) tensor the outcome's basis vector; the meter is diagonal in
    the ancilla basis with the POVM's labels. The induced POVM of the result
    is the input again. The coupling completes V by one QR factorization.
    """
    d, n = p.dim, len(p.outcomes)

    def isometry() -> np.ndarray:
        # Row (i, x) is row i of the square root of effect x.
        return _effect_sqrt(p.effects).transpose(1, 0, 2).reshape(d * n, d)

    return MeasurementProcess._from_isometry(d, p.labels, isometry, _placed_completion)


def _placed_completion(v: np.ndarray) -> np.ndarray:
    """V completed to a unitary by one QR factorization: V's columns go to the
    ancilla-index-0 slots j k, the new columns to the other slots in order."""
    k = len(v) // v.shape[1]
    order = np.argsort(np.arange(len(v)) % k != 0, kind="stable")
    return complete_isometry_to_unitary(v)[:, np.argsort(order)]

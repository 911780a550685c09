"""Sharp and generalized observables with Born-rule statistics.

An observable is its spectral family: its matrix is formed from the family
when read, and ``Observable.from_matrix`` checks that the family it finds
gives the matrix back. A POVM is its effect stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import NumericalConsistencyError
from .linalg import SpectralDecomposition, State, _reduce, as_complex_matrix
from .linalg import hermitian_eig
from .tolerances import DEFAULT_LABEL_TOL, EFFECT_TOL, PROBABILITY_CLAMP_TOL, PROBABILITY_SUM_TOL
from .tolerances import _require


def _labels_agree(x, y, label_tol: float):
    """The package's one label-agreement rule: x and y count as one value when
    they differ by at most label_tol. Broadcasts over scalars and arrays."""
    return np.abs(np.subtract(x, y)) <= label_tol


def clamp_probability(value):
    """Clamp rounding noise up to PROBABILITY_CLAMP_TOL into [0, 1]; reject worse.

    ``value`` is a float, which comes back as a float, or an ndarray, which
    is checked and clamped elementwise and comes back as an array of the same
    shape. The error names the largest distance outside [0, 1]; NaN is
    rejected. Values inside [0, 1] are returned unchanged, -0.0 included.
    """
    values = np.asarray(value, dtype=float)
    outside = np.maximum(-values, values - 1.0)
    _require("probability in [0, 1]", outside, PROBABILITY_CLAMP_TOL, NumericalConsistencyError)
    clamped = np.where(values < 0.0, 0.0, np.where(values > 1.0, 1.0, values))
    return clamped if isinstance(value, np.ndarray) else float(clamped)


def _check_labels(labels, prefix: str = "") -> None:
    """``ValueError`` after ``prefix`` unless the labels are finite and pairwise distinct."""
    if not np.all(np.isfinite(labels)):
        raise ValueError(f"{prefix}outcome labels must be finite")
    if len(set(labels)) != len(labels):
        raise ValueError(f"{prefix}outcome labels must be pairwise distinct")


def _check_distribution(entries) -> None:
    """Entry check of every distribution of (label, p) pairs, a label being a
    float or a tuple of floats: at least one entry, finite distinct labels and
    each p in [0, 1] (else ``ValueError``), then the sum, which a NaN p fails."""
    if not entries:
        raise ValueError("distribution needs at least one outcome")
    _check_labels([x for x, _ in entries])
    for x, p in entries:
        if p < 0.0 or p > 1.0:
            raise ValueError(f"probability {p!r} for outcome {x} is outside [0, 1]")
    gap = abs(sum(p for _, p in entries) - 1.0)
    _require("probabilities sum to 1", gap, PROBABILITY_SUM_TOL, NumericalConsistencyError)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Discrete probability distribution over real outcome labels."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        entries = tuple((float(x), float(p)) for x, p in self.entries)
        _check_distribution(entries)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_values(cls, labels: Iterable[float], values: Iterable[float]) -> "OutcomeDistribution":
        """Build a distribution from raw computed values, clamping rounding noise."""
        clamped = clamp_probability(np.fromiter(values, dtype=float)).tolist()
        return cls(tuple(zip(labels, clamped)))

    def as_dict(self) -> dict[float, float]:
        return dict(self.entries)

    def probability(self, label: float, label_tol: float = DEFAULT_LABEL_TOL) -> float:
        """Total probability of outcomes within label_tol of the given label."""
        return sum((p for x, p in self.entries if _labels_agree(x, label, label_tol)), 0.0)


def _spectral_matrix(spectral: SpectralDecomposition) -> np.ndarray:
    """sum_x x B_x B_x^H as the one product B diag(x) B^H."""
    values = np.repeat(spectral.eigenvalues, np.diff(spectral.offsets))
    return (spectral.basis * values) @ spectral.basis.conj().T


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator held as its discrete spectral family."""

    spectral: SpectralDecomposition

    __reduce__ = _reduce

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The read-only matrix sum_x x B_x B_x^H, formed on first read."""
        m = _spectral_matrix(self.spectral)
        m.setflags(write=False)
        return m

    @classmethod
    def from_matrix(cls, matrix) -> "Observable":
        """Build an observable from a Hermitian matrix, merging near-degenerate eigenvalues."""
        m = as_complex_matrix(matrix, "observable matrix")
        a = cls(hermitian_eig(m))
        _require("matrix matches its spectral family", np.linalg.norm(m - a.matrix), EFFECT_TOL)
        return a

    @property
    def dim(self) -> int:
        return self.spectral.dim

    @property
    def labels(self) -> tuple[float, ...]:
        return self.spectral.eigenvalues


def _effect_stack(p) -> np.ndarray:
    """The (n, d, d) complex stack of a Povm's effects, or of a plain sequence
    of matrices, which must be nonempty, square and of one dimension."""
    if isinstance(p, Povm):
        return p.effects
    effects = [as_complex_matrix(e, f"effect {i}") for i, e in enumerate(p)]
    if not effects:
        raise ValueError("at least one effect is required")
    for i, effect in enumerate(effects):
        if effect.shape[0] != effect.shape[1]:
            raise ValueError(f"effect {i} is not square")
        if effect.shape != effects[0].shape:
            raise ValueError("effects do not share one dimension")
    return np.array(effects)


def _effect_residuals(effects: np.ndarray) -> dict[str, float]:
    """The residuals, by condition, that EFFECT_TOL bounds for an effect stack:
    the largest entry of E_x - E_x^H, of a spectrum's distance from [0, 1]
    (one batched ``eigvalsh``) and of sum_x E_x - I."""
    adjoint = effects.conj().transpose(0, 2, 1)
    spectra = np.linalg.eigvalsh((effects + adjoint) / 2)
    total = effects.sum(axis=0) - np.eye(effects.shape[1])
    return {
        "effects are Hermitian": np.max(np.abs(effects - adjoint)),
        "effect spectrum in [0, 1]": np.max(np.maximum(-spectra[:, 0], spectra[:, -1] - 1.0)),
        "effects sum to the identity": np.max(np.abs(total)),
    }


@dataclass(frozen=True, eq=False)
class Povm:
    """Family of effects with finite, distinct labels forming a resolution of
    the identity, held as one read-only (n, d, d) stack ``effects`` whose rows
    are the effects in ``outcomes``."""

    outcomes: tuple[tuple[float, np.ndarray], ...]
    effects: np.ndarray = field(init=False, repr=False)

    __reduce__ = _reduce

    def __post_init__(self) -> None:
        labels = [float(x) for x, _ in self.outcomes]
        effects = _effect_stack([e for _, e in self.outcomes])
        _check_labels(labels, "invalid POVM: ")
        for check, residual in _effect_residuals(effects).items():
            _require(f"invalid POVM: {check}", residual, EFFECT_TOL)
        effects.setflags(write=False)
        object.__setattr__(self, "outcomes", tuple(zip(labels, effects)))
        object.__setattr__(self, "effects", effects)

    @classmethod
    def from_observable(cls, a: Observable) -> "Povm":
        """The projective POVM carrying a sharp observable's spectral family."""
        return cls(tuple(a.spectral.branches))

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def labels(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.outcomes)


#: One branch on a 1-dimensional axis: the second family of a single law.
_ONE_BRANCH = SpectralDecomposition(((0.0, np.ones((1, 1))),))


def _branch_sums(amps: np.ndarray, first, second=_ONE_BRANCH) -> np.ndarray:
    """The real (..., n1, n2) table, exactly nonnegative, of amplitudes of shape
    (..., rest, k1, k2) that the caller has rotated into the eigenbases of
    ``first`` and ``second`` (B1^H w B2^*), the one way a sharp Born law is
    read: squared moduli summed over rest (an ``einsum``, far faster than
    ``sum`` over a short middle axis), then over each branch's columns, a sum
    that a family of one-column branches skips. No projector is formed."""
    mass = np.einsum("...iac->...ac", amps.real**2 + amps.imag**2)
    for axis, family in ((-1, second), (-2, first)):
        if len(family.blocks) < family.dim:
            mass = np.add.reduceat(mass, family.offsets[:-1], axis=axis)
    return mass


def born_probabilities(a: Observable, psi: State) -> OutcomeDistribution:
    """Distribution of a sharp observable in a state: the state rotated into
    the eigenbasis of its spectral family, psi^T B^*, and summed per branch."""
    if a.dim != psi.dim:
        raise ValueError(f"observable dimension {a.dim} does not match state dimension {psi.dim}")
    amps = (psi.amplitudes.reshape(1, -1) @ a.spectral.basis.conj())[..., None]
    return OutcomeDistribution.from_values(a.labels, _branch_sums(amps, a.spectral)[:, 0])


def povm_probabilities(p: Povm, psi: State) -> OutcomeDistribution:
    """Distribution of a generalized observable in a state: one quadratic
    form psi^H E_x psi per effect."""
    if p.dim != psi.dim:
        raise ValueError(f"POVM dimension {p.dim} does not match state dimension {psi.dim}")
    vec = psi.amplitudes
    values = np.einsum("i,xij,j->x", vec.conj(), p.effects, vec)
    return OutcomeDistribution.from_values(p.labels, values.real)


def is_resolution_of_identity(p) -> bool:
    """Whether the effects are valid (Hermitian, spectrum in [0, 1] within
    EFFECT_TOL) and sum to the identity within EFFECT_TOL. Accepts a Povm or
    a plain sequence of matrices."""
    return all(r <= EFFECT_TOL for r in _effect_residuals(_effect_stack(p)).values())


def is_projective(p) -> bool:
    """Whether every effect is idempotent and the effects are mutually
    orthogonal, both within EFFECT_TOL."""
    effects = _effect_stack(p)
    if np.max(np.abs(effects @ effects - effects)) > EFFECT_TOL:
        return False
    for i, left in enumerate(effects):
        for right in effects[i + 1 :]:
            if np.max(np.abs(left @ right)) > EFFECT_TOL:
                return False
    return True

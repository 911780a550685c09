"""Sharp and generalized observables with Born-rule statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericalConsistencyError
from .linalg import (
    DEFAULT_MERGE_TOL,
    SpectralDecomposition,
    State,
    as_complex_matrix,
    hermitian_eig,
)

#: Tolerance on resolution-of-identity and effect-spectrum checks.
EFFECT_TOL = 1e-10

#: A computed probability distribution must sum to 1 within this bound.
PROBABILITY_SUM_TOL = 1e-10

#: Rounding slack on individual probabilities; worse values are an error.
PROBABILITY_CLAMP_TOL = 1e-12

#: Default width for matching real outcome labels between two families.
DEFAULT_LABEL_TOL = 1e-8


def _labels_agree(x, y, label_tol: float):
    """The package's one label-agreement rule: x and y count as one value when
    they differ by at most label_tol. Broadcasts over scalars and arrays."""
    return np.abs(np.subtract(x, y)) <= label_tol


def clamp_probability(value, clamp_tol: float = PROBABILITY_CLAMP_TOL):
    """Clamp rounding noise into [0, 1]; reject anything worse.

    ``value`` is a float, which comes back as a float, or an ndarray, which
    is checked and clamped elementwise and comes back as an array of the same
    shape. The error names the value farthest outside [0, 1]. Values inside
    [0, 1] are returned unchanged, -0.0 included.
    """
    values = np.asarray(value, dtype=float)
    if np.any((values < -clamp_tol) | (values > 1.0 + clamp_tol)):
        worst = float(values.flat[np.argmax(np.maximum(-values, values - 1.0))])
        raise NumericalConsistencyError(
            f"probability {worst!r} lies outside [0, 1] by more than {clamp_tol}"
        )
    clamped = np.where(values < 0.0, 0.0, np.where(values > 1.0, 1.0, values))
    return clamped if isinstance(value, np.ndarray) else float(clamped)


def _require_unit_sum(totals, tol: float, what: str) -> None:
    """Raise NumericalConsistencyError unless every total (a float or an
    array of them) is 1 within tol; the message names the worst one."""
    off = np.abs(np.asarray(totals, dtype=float) - 1.0)
    if np.any(off > tol):
        worst = float(np.ravel(totals)[np.argmax(off)])
        raise NumericalConsistencyError(f"{what} sum to {worst!r}, off from 1 by more than {tol}")


@dataclass(frozen=True)
class OutcomeDistribution:
    """Discrete probability distribution over real outcome labels."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        entries = tuple((float(x), float(p)) for x, p in self.entries)
        if not entries:
            raise ValueError("distribution needs at least one outcome")
        labels = [x for x, _ in entries]
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be pairwise distinct")
        for x, p in entries:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p!r} for outcome {x} is outside [0, 1]")
        _require_unit_sum(sum(p for _, p in entries), PROBABILITY_SUM_TOL, "probabilities")
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


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator together with its discrete spectral family."""

    matrix: np.ndarray
    spectral: SpectralDecomposition

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix, "observable matrix").copy()
        if m.shape[0] != self.spectral.dim:
            raise ValueError("matrix and spectral family have different dimensions")
        rebuilt = sum(x * proj for x, proj in self.spectral.branches)
        if np.linalg.norm(m - rebuilt) > EFFECT_TOL:
            raise ValueError("matrix does not match its spectral family within 1e-10")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, matrix, merge_tol: float = DEFAULT_MERGE_TOL) -> "Observable":
        """Build an observable from a Hermitian matrix, merging near-degenerate eigenvalues."""
        m = as_complex_matrix(matrix, "observable matrix")
        return cls(m, hermitian_eig(m, merge_tol))

    @classmethod
    def from_spectral(cls, spectral: SpectralDecomposition) -> "Observable":
        matrix = sum(x * proj for x, proj in spectral.branches)
        return cls(matrix, spectral)

    @property
    def dim(self) -> int:
        return self.spectral.dim

    @property
    def labels(self) -> tuple[float, ...]:
        return self.spectral.eigenvalues


def _effects_of(p) -> list[np.ndarray]:
    if isinstance(p, Povm):
        return list(p.effects)
    return [as_complex_matrix(e, f"effect {i}") for i, e in enumerate(p)]


def effect_family_violation(effects: Sequence[np.ndarray], tol: float = EFFECT_TOL) -> str | None:
    """Describe how a family of effects fails to resolve the identity, or None.

    Dimension problems raise; everything else (non-Hermitian entries, spectra
    escaping [0, 1], a sum away from the identity) comes back as a message so
    callers can decide between returning False and raising.
    """
    if not effects:
        raise ValueError("at least one effect is required")
    dim = effects[0].shape[0]
    for i, effect in enumerate(effects):
        if effect.shape[0] != effect.shape[1]:
            raise ValueError(f"effect {i} is not square")
        if effect.shape[0] != dim:
            raise ValueError("effects do not share one dimension")
    for i, effect in enumerate(effects):
        if np.max(np.abs(effect - effect.conj().T)) > tol:
            return f"effect {i} is not Hermitian"
        spectrum = np.linalg.eigvalsh((effect + effect.conj().T) / 2)
        if spectrum[0] < -tol or spectrum[-1] > 1.0 + tol:
            return (
                f"effect {i} has spectrum outside [0, 1]: "
                f"[{spectrum[0]:.6g}, {spectrum[-1]:.6g}]"
            )
    total = sum(effects)
    if np.max(np.abs(total - np.eye(dim))) > tol:
        return "effects do not sum to the identity"
    return None


@dataclass(frozen=True, eq=False)
class Povm:
    """Labeled family of effects forming a resolution of the identity."""

    outcomes: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self) -> None:
        cleaned = []
        for label, effect in self.outcomes:
            e = as_complex_matrix(effect, "effect").copy()
            e.setflags(write=False)
            cleaned.append((float(label), e))
        labels = [x for x, _ in cleaned]
        if len(set(labels)) != len(labels):
            raise ValueError("invalid POVM: outcome labels are not pairwise distinct")
        violation = effect_family_violation([e for _, e in cleaned])
        if violation is not None:
            raise ValueError(f"invalid POVM: {violation}")
        object.__setattr__(self, "outcomes", tuple(cleaned))

    @classmethod
    def from_observable(cls, a: Observable) -> "Povm":
        """The projective POVM carrying a sharp observable's spectral family."""
        return cls(tuple(a.spectral.branches))

    @property
    def dim(self) -> int:
        return int(self.outcomes[0][1].shape[0])

    @property
    def labels(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.outcomes)

    @property
    def effects(self) -> tuple[np.ndarray, ...]:
        return tuple(e for _, e in self.outcomes)


def _born_table(w: np.ndarray, left, right) -> np.ndarray:
    """Born table <w| I x L_x x R_y |w> over every pair of operators.

    ``w`` is a state tensor of shape (rest, k1, k2), or a batch of them of
    shape (..., rest, k1, k2); ``left`` stacks n1 operators on the k1 axis
    and ``right`` n2 operators on the k2 axis. The reduced state of the last
    two axes comes from one matmul per state, so the cost is
    O(rest (k1 k2)^2) per state and no operator is lifted to the full space.
    A single family passes the 1x1 identity as ``right`` on a k2 = 1 axis.
    Returns the real (..., n1, n2) table; entries are probabilities up to
    rounding.
    """
    *batch, rest, k1, k2 = w.shape
    flat = w.reshape(-1, rest, k1 * k2)
    # rho[t, (b, a), (e, c)] = sum_i w[t, i, a, c] conj(w[t, i, b, e]), laid
    # out so that p(x, y) = sum L_x[b, a] rho[t, (b, a), (e, c)] R_y[e, c].
    rho = (flat.transpose(0, 2, 1) @ flat.conj()).reshape(-1, k1, k2, k1, k2)
    rho = rho.transpose(0, 3, 1, 4, 2).reshape(-1, k1 * k1, k2 * k2)
    table = left.reshape(-1, k1 * k1) @ rho @ right.reshape(-1, k2 * k2).T
    return table.real.reshape(*batch, *table.shape[1:])


def born_probabilities(a: Observable, psi: State) -> OutcomeDistribution:
    """Distribution of a sharp observable in a state: quadratic forms of the
    spectral projectors."""
    if a.dim != psi.dim:
        raise ValueError(f"observable dimension {a.dim} does not match state dimension {psi.dim}")
    vec = psi.amplitudes.reshape(1, -1, 1)
    table = _born_table(vec, np.array(a.spectral.projectors), np.ones((1, 1, 1)))
    return OutcomeDistribution.from_values(a.labels, table[:, 0])


def povm_probabilities(p: Povm, psi: State) -> OutcomeDistribution:
    """Distribution of a generalized observable in a state."""
    if p.dim != psi.dim:
        raise ValueError(f"POVM dimension {p.dim} does not match state dimension {psi.dim}")
    vec = psi.amplitudes.reshape(1, -1, 1)
    table = _born_table(vec, np.array(p.effects), np.ones((1, 1, 1)))
    return OutcomeDistribution.from_values(p.labels, table[:, 0])


def is_resolution_of_identity(p, tol: float = EFFECT_TOL) -> bool:
    """Whether the effects are valid (Hermitian, spectrum in [0, 1] within tol)
    and sum to the identity within tol. Accepts a Povm or a plain sequence of
    matrices."""
    return effect_family_violation(_effects_of(p), tol) is None


def is_projective(p, tol: float = EFFECT_TOL) -> bool:
    """Whether every effect is idempotent and the effects are mutually
    orthogonal, both within tol."""
    effects = _effects_of(p)
    for effect in effects:
        if np.max(np.abs(effect @ effect - effect)) > tol:
            return False
    for i, left in enumerate(effects):
        for right in effects[i + 1 :]:
            if np.max(np.abs(left @ right)) > tol:
                return False
    return True

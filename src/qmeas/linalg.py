"""Dense complex linear algebra kernel.

Kronecker products with a size guard, Hermitian eigendecomposition with
degeneracy merging, Schmidt decomposition of bipartite vectors, completion
of isometries to full unitaries, and seeded random state generation.

Everything here is a pure function of its inputs (plus explicit seeds), and
every returned object is immutable, so values can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Absolute gap below which adjacent eigenvalues are merged into one branch.
DEFAULT_MERGE_TOL = 1e-8

#: Hard ceiling on any axis of a tensor product.
PRODUCT_DIM_GUARD = 4096

#: Tolerance for unitarity and projector-algebra checks.
UNITARY_TOL = 1e-10
PROJECTOR_TOL = 1e-10

#: Tolerance on state normalization.
STATE_NORM_TOL = 1e-12

#: Hermiticity tolerance on eigendecomposition inputs.
HERMITIAN_TOL = 1e-12


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def is_hermitian(m, tol: float = HERMITIAN_TOL) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_unitary(m, tol: float = UNITARY_TOL) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and _is_isometry(m, tol)


def _is_isometry(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """Whether the 2-D array m has orthonormal columns, at O(rows cols^2)."""
    gram = m.conj().T @ m
    return bool(np.max(np.abs(gram - np.eye(m.shape[1]))) <= tol)


def tensor(a, b, max_dim: int = PRODUCT_DIM_GUARD) -> np.ndarray:
    """Kronecker product of two vectors or two matrices.

    Any axis of the product exceeding ``max_dim`` is rejected, which keeps
    accidental blowups from leaving the desk-scale regime this package is
    built for.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError(
            f"tensor expects two vectors or two matrices, got shapes {a.shape} and {b.shape}"
        )
    for da, db in zip(a.shape, b.shape):
        if da * db > max_dim:
            raise ValueError(f"tensor product dimension {da * db} exceeds the guard {max_dim}")
    return np.kron(a, b)


def _require_unit_norm(norms) -> None:
    """Raise ValueError unless every norm (a float or an array of them) is 1
    within STATE_NORM_TOL; the message names the worst one."""
    off = np.abs(np.asarray(norms, dtype=float) - 1.0)
    if np.any(off > STATE_NORM_TOL):
        worst = float(np.ravel(norms)[np.argmax(off)])
        raise ValueError(f"state norm {worst!r} deviates from 1 by more than {STATE_NORM_TOL}")


@dataclass(frozen=True, eq=False)
class State:
    """Unit vector in a finite-dimensional complex Hilbert space."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("state amplitudes must form a nonempty 1-D vector")
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes must be finite")
        _require_unit_norm(float(np.linalg.norm(amps)))
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    @classmethod
    def normalized(cls, amplitudes) -> "State":
        """Normalize an arbitrary nonzero vector into a State."""
        vec = np.asarray(amplitudes, dtype=complex)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(vec / norm)

    @classmethod
    def basis(cls, dim: int, index: int) -> "State":
        """Standard basis vector in the given dimension."""
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dimension {dim}")
        vec = np.zeros(dim, dtype=complex)
        vec[index] = 1.0
        return cls(vec)

    def tensor(self, other: "State") -> "State":
        """Composite state of this factor with another."""
        return State(tensor(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Discrete spectral family: strictly increasing eigenvalues paired with
    mutually orthogonal projectors that sum to the identity."""

    branches: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("spectral decomposition needs at least one branch")
        cleaned = []
        dim = None
        for value, projector in self.branches:
            proj = as_complex_matrix(projector, "projector")
            if proj.shape[0] != proj.shape[1]:
                raise ValueError("projectors must be square")
            if dim is None:
                dim = proj.shape[0]
            elif proj.shape[0] != dim:
                raise ValueError("projectors must all share one dimension")
            proj = proj.copy()
            proj.setflags(write=False)
            cleaned.append((float(value), proj))
        values = [v for v, _ in cleaned]
        if any(hi <= lo for lo, hi in zip(values, values[1:])):
            raise ValueError("eigenvalues must be strictly increasing")
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
        object.__setattr__(self, "branches", tuple(cleaned))

    @property
    def dim(self) -> int:
        return int(self.branches[0][1].shape[0])

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(value for value, _ in self.branches)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(proj for _, proj in self.branches)


def hermitian_eig(a, merge_tol: float = DEFAULT_MERGE_TOL) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, merging near-degenerate eigenvalues.

    Consecutive eigenvalues closer than ``merge_tol`` are collapsed into a
    single branch whose projector is the sum of the corresponding rank-1
    projectors and whose eigenvalue is the cluster mean. Adjacent branch
    eigenvalues therefore always differ by more than ``merge_tol``.
    """
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if not is_hermitian(m):
        raise ValueError(f"matrix is not Hermitian within {HERMITIAN_TOL}")
    values, vectors = np.linalg.eigh(m)
    branches = []
    start = 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or values[stop] - values[stop - 1] > merge_tol:
            cols = vectors[:, start:stop]
            branches.append((float(np.mean(values[start:stop])), cols @ cols.conj().T))
            start = stop
    return SpectralDecomposition(tuple(branches))


def schmidt_decompose(
    phi: State, dim1: int, dim2: int, cutoff: float = 1e-12
) -> tuple[np.ndarray, tuple[State, ...], tuple[State, ...]]:
    """Schmidt decomposition of a bipartite state.

    Returns nonincreasing coefficients above ``cutoff`` together with the
    matching orthonormal bases of the two factors, so that the state is the
    coefficient-weighted sum of pairwise tensor products.
    """
    if dim1 < 1 or dim2 < 1:
        raise ValueError("factor dimensions must be positive")
    if phi.dim != dim1 * dim2:
        raise ValueError(f"state dimension {phi.dim} does not factor as {dim1} x {dim2}")
    table = phi.amplitudes.reshape(dim1, dim2)
    left, coeffs, right = np.linalg.svd(table)
    keep = coeffs > cutoff
    coeffs = coeffs[keep]
    left_states = tuple(State(left[:, k]) for k in range(len(coeffs)))
    right_states = tuple(State(right[k, :]) for k in range(len(coeffs)))
    return coeffs, left_states, right_states


def complete_isometry_to_unitary(v) -> np.ndarray:
    """Extend a matrix with orthonormal columns to a square unitary.

    The new columns are the orthogonal complement of the input's range, read
    off one complete QR factorization. The first columns of the result
    reproduce the input exactly.
    """
    m = as_complex_matrix(v, "isometry")
    rows, cols = m.shape
    if rows < cols:
        raise ValueError(f"isometry must be tall, got shape {m.shape}")
    if not _is_isometry(m):
        raise ValueError(f"columns are not orthonormal within {UNITARY_TOL}")
    q, _ = np.linalg.qr(m, mode="complete")
    return np.hstack([m, q[:, cols:]])


def random_state(dim: int, seed: int) -> State:
    """Haar-like random state from a seeded generator.

    Draws one complex standard Gaussian vector using numpy's PCG64 stream
    (``default_rng``) and normalizes it, so two calls with the same seed and
    dimension agree across platforms.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    return State.normalized(_gaussian_amplitudes(dim, [seed])[0])


def _gaussian_amplitudes(dim: int, seeds) -> np.ndarray:
    """One complex standard Gaussian row of length dim per seed, shape
    (len(seeds), dim). Row t takes its real and then its imaginary parts from
    ``default_rng(seeds[t])``, so it is the unnormalized ``random_state``."""
    draws = np.array([np.random.default_rng(s).standard_normal((2, dim)) for s in seeds])
    return draws[:, 0] + 1j * draws[:, 1]

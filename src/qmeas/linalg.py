"""Dense complex linear algebra kernel.

Kronecker products with a size guard, Hermitian eigendecomposition with
degeneracy merging, Schmidt decomposition of bipartite vectors, completion
of isometries to full unitaries, and seeded random state generation.

Everything here is a pure function of its inputs (plus explicit seeds), and
every returned object is immutable, so values can be shared freely across
threads. An object comes into being only through its constructor: a pickle
or a deep copy rebuilds it from its init fields (``_reduce``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

import numpy as np

from .tolerances import HERMITIAN_TOL, MERGE_TOL, PROJECTOR_TOL, SCHMIDT_CUTOFF
from .tolerances import STATE_NORM_TOL, UNITARY_TOL, _require

#: Hard ceiling on any axis of a tensor product.
PRODUCT_DIM_GUARD = 4096


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _gram_error(m: np.ndarray) -> float:
    """Largest entry of |m^H m - I|, the residual of m's columns being
    orthonormal, at O(rows cols^2)."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))))


def _reduce(self):
    """``__reduce__`` that rebuilds a dataclass by its constructor from its
    init fields, so a pickle or a deep copy passes its checks again."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two vectors or two matrices.

    Any axis of the product exceeding ``PRODUCT_DIM_GUARD`` is rejected,
    which keeps accidental blowups from leaving the desk-scale regime this
    package is built for.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != b.ndim or a.ndim not in (1, 2):
        raise ValueError(
            f"tensor expects two vectors or two matrices, got shapes {a.shape} and {b.shape}"
        )
    for da, db in zip(a.shape, b.shape):
        if da * db > PRODUCT_DIM_GUARD:
            raise ValueError(f"tensor product dimension {da * db} exceeds the guard {PRODUCT_DIM_GUARD}")
    return np.kron(a, b)


@dataclass(frozen=True, eq=False)
class State:
    """Unit vector in a finite-dimensional complex Hilbert space."""

    amplitudes: np.ndarray

    __reduce__ = _reduce

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("state amplitudes must form a nonempty 1-D vector")
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes must be finite")
        _require("state has unit norm", abs(np.linalg.norm(amps) - 1.0), STATE_NORM_TOL)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    @classmethod
    def normalized(cls, amplitudes) -> "State":
        """Normalize an arbitrary nonzero vector into a State.

        The vector is first scaled by the power of two 2^-e that brings its
        largest modulus into [1/2, 1), which is exact, so the norm neither
        underflows nor overflows at any finite scale.
        """
        vec = np.asarray(amplitudes, dtype=complex)
        peak = np.max(np.abs(vec), initial=0.0)
        if peak == 0.0:
            raise ValueError("cannot normalize the zero vector")
        e = np.frexp(peak)[1]
        scaled = np.empty_like(vec)
        scaled.real, scaled.imag = np.ldexp(vec.real, -e), np.ldexp(vec.imag, -e)
        return cls(scaled / np.linalg.norm(scaled))

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
    """Discrete spectral family: finite, strictly increasing eigenvalues, each
    paired with a (d, rank) block B_x of eigenvectors; side by side the blocks
    form a square basis B with tau = ||B^H B - I||_F <= PROJECTOR_TOL / 2.

    For the projectors P_x = B_x B_x^H that one O(d^3) check gives, in
    spectral norm, which bounds every entry: ||P_x^2 - P_x|| <= (1 + tau) tau,
    ||P_x P_y|| <= (1 + tau) tau for x != y and ||sum P_x - I|| <= tau, all
    within PROJECTOR_TOL. ``branches`` forms them on first read.

    The read-only ``basis`` B is kept, and block x is a view of its columns
    ``offsets[x]:offsets[x + 1]``, so a family holds one d x d array.
    """

    blocks: tuple[tuple[float, np.ndarray], ...]
    basis: np.ndarray = field(init=False, repr=False)
    offsets: tuple[int, ...] = field(init=False, repr=False)

    __reduce__ = _reduce

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("spectral decomposition needs at least one branch")
        cleaned = []
        for value, block in self.blocks:
            b = as_complex_matrix(block, "eigenvector block")
            if b.shape[1] == 0:
                raise ValueError(f"eigenvector block for eigenvalue {value} has no columns")
            cleaned.append((float(value), b))
        values = [v for v, _ in cleaned]
        if not np.all(np.isfinite(values)):
            raise ValueError("eigenvalues must be finite")
        if any(hi <= lo for lo, hi in zip(values, values[1:])):
            raise ValueError("eigenvalues must be strictly increasing")
        basis = np.hstack([b for _, b in cleaned])
        if basis.shape[0] != basis.shape[1]:
            raise ValueError(f"eigenvector blocks form a {basis.shape} basis, not a square one")
        tau = np.linalg.norm(basis.conj().T @ basis - np.eye(len(basis)))
        _require("eigenvectors are orthonormal", tau, PROJECTOR_TOL / 2)
        basis.setflags(write=False)
        offsets = tuple(np.cumsum([0] + [b.shape[1] for _, b in cleaned]).tolist())
        blocks = tuple((v, basis[:, lo:hi]) for v, lo, hi in zip(values, offsets, offsets[1:]))
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "offsets", offsets)

    @functools.cached_property
    def branches(self) -> tuple[tuple[float, np.ndarray], ...]:
        projectors = np.array([b @ b.conj().T for _, b in self.blocks])
        projectors.setflags(write=False)
        return tuple(zip(self.eigenvalues, projectors))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(value for value, _ in self.blocks)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(proj for _, proj in self.branches)


def hermitian_eig(a) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, merging near-degenerate eigenvalues.

    Consecutive eigenvalues closer than ``MERGE_TOL`` are collapsed into a
    single branch whose block holds the corresponding eigenvectors and whose
    eigenvalue is the cluster mean. Adjacent branch eigenvalues therefore
    always differ by more than ``MERGE_TOL``.
    """
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    _require("matrix is Hermitian", np.max(np.abs(m - m.conj().T)), HERMITIAN_TOL)
    values, vectors = np.linalg.eigh(m)
    blocks = []
    start = 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or values[stop] - values[stop - 1] > MERGE_TOL:
            blocks.append((float(np.mean(values[start:stop])), vectors[:, start:stop]))
            start = stop
    return SpectralDecomposition(tuple(blocks))


def schmidt_decompose(
    phi: State, dim1: int, dim2: int
) -> tuple[np.ndarray, tuple[State, ...], tuple[State, ...]]:
    """Schmidt decomposition of a bipartite state.

    Returns nonincreasing coefficients above ``SCHMIDT_CUTOFF`` together with
    the matching orthonormal bases of the two factors, so that the state is
    the coefficient-weighted sum of pairwise tensor products.
    """
    if dim1 < 1 or dim2 < 1:
        raise ValueError("factor dimensions must be positive")
    if phi.dim != dim1 * dim2:
        raise ValueError(f"state dimension {phi.dim} does not factor as {dim1} x {dim2}")
    table = phi.amplitudes.reshape(dim1, dim2)
    left, coeffs, right = np.linalg.svd(table)
    keep = coeffs > SCHMIDT_CUTOFF
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
    _require("isometry columns are orthonormal", _gram_error(m), UNITARY_TOL)
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
    _check_seed(seed)
    return State.normalized(_gaussian_amplitudes(np.random.default_rng(seed), 1, dim)[0])


def _check_seed(seed: int) -> None:
    """The one seed rule: a seed is a nonnegative int, not a bool, naming one PCG64 stream."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")


def _gaussian_amplitudes(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """The next count complex Gaussian rows of length dim from rng, each its real
    then its imaginary parts: splitting the draws changes no row, and row 0 of
    ``default_rng(seed)`` is the unnormalized ``random_state(dim, seed)``."""
    draws = rng.standard_normal((count, 2, dim))
    return draws[:, 0] + 1j * draws[:, 1]

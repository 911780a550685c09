"""Tests for the dense linear-algebra kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_unitary, reference_spectral_check
from qmeas.linalg import (
    State,
    SpectralDecomposition,
    complete_isometry_to_unitary,
    _gram_error,
    hermitian_eig,
    random_state,
    schmidt_decompose,
    tensor,
)
from qmeas.tolerances import PROJECTOR_TOL, UNITARY_TOL


def kron_oracle(a, b):
    """Independent block formula: block (i, j) of the product is a[i, j] * b."""
    rows_b, cols_b = b.shape
    out = np.zeros((a.shape[0] * rows_b, a.shape[1] * cols_b), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            out[i * rows_b : (i + 1) * rows_b, j * cols_b : (j + 1) * cols_b] = a[i, j] * b
    return out


# ---------------------------------------------------------------------------
# tensor


def test_tensor_identity_blocks():
    np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_diagonal_spreads():
    got = tensor(np.diag([1.0, 2.0]), np.eye(2))
    np.testing.assert_array_equal(got, np.diag([1.0, 1.0, 2.0, 2.0]))


def test_tensor_matches_block_oracle():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    b = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    np.testing.assert_allclose(tensor(a, b), kron_oracle(a, b), atol=1e-15)


def test_tensor_vectors():
    got = tensor(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    np.testing.assert_array_equal(got, np.array([0.0, 1.0, 0.0, 0.0]))


def test_tensor_rejects_oversized_product():
    with pytest.raises(ValueError):
        tensor(np.eye(128), np.eye(64))


def test_tensor_rejects_bad_rank():
    with pytest.raises(ValueError):
        tensor(np.zeros((2, 2, 2)), np.eye(2))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_tensor_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (
        rng.uniform(-1, 1, size=(2, 2)) + 1j * rng.uniform(-1, 1, size=(2, 2))
        for _ in range(3)
    )
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    np.testing.assert_allclose(left, right, atol=1e-14)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_tensor_bilinear(seed):
    rng = np.random.default_rng(seed)
    a1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(
        tensor(a1 + a2, b), tensor(a1, b) + tensor(a2, b), atol=1e-13
    )


# ---------------------------------------------------------------------------
# State


def test_state_requires_unit_norm():
    with pytest.raises(ValueError):
        State(np.array([0.9, 0.0]))


def test_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        State(np.array([np.inf, 0.0]))


def test_state_normalized_constructor():
    psi = State.normalized(np.array([3.0, 4.0]))
    np.testing.assert_allclose(psi.amplitudes, [0.6, 0.8])
    assert psi.dim == 2


@pytest.mark.parametrize("scale", [1e-310, 1e-170, 1e200])
def test_state_normalized_takes_tiny_and_huge_vectors(scale):
    # Under the suite's warnings-as-errors filter an overflow warning fails too.
    psi = State.normalized(scale * np.array([3.0, 4.0]))
    np.testing.assert_allclose(psi.amplitudes, [0.6, 0.8], rtol=1e-12)


def test_state_normalized_rejects_the_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        State.normalized(np.zeros(3))


def test_state_basis():
    e1 = State.basis(3, 1)
    np.testing.assert_array_equal(e1.amplitudes, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        State.basis(3, 3)


def test_state_tensor():
    phi = State.basis(2, 0).tensor(State.basis(2, 1))
    np.testing.assert_array_equal(phi.amplitudes, [0.0, 1.0, 0.0, 0.0])


def test_state_amplitudes_read_only():
    psi = State.basis(2, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.3


# ---------------------------------------------------------------------------
# hermitian_eig / SpectralDecomposition


def test_hermitian_eig_pauli_z():
    spec = hermitian_eig(np.diag([1.0, -1.0]))
    assert spec.eigenvalues == (-1.0, 1.0)
    np.testing.assert_allclose(spec.projectors[0], np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(spec.projectors[1], np.diag([1.0, 0.0]), atol=1e-14)


def test_hermitian_eig_identity_single_branch():
    spec = hermitian_eig(np.eye(3))
    assert len(spec.branches) == 1
    assert spec.eigenvalues == (1.0,)
    np.testing.assert_allclose(spec.projectors[0], np.eye(3), atol=1e-14)


def test_hermitian_eig_reconstructs_random_matrix():
    rng = np.random.default_rng(5)
    a = random_hermitian(4, rng)
    spec = hermitian_eig(a)
    rebuilt = sum(x * p for x, p in spec.branches)
    assert np.linalg.norm(rebuilt - a) <= 1e-10


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_merges_near_degenerate_cluster():
    a = np.diag([1.0, 1.0 + 5e-9, 2.0])
    spec = hermitian_eig(a)
    assert len(spec.branches) == 2
    # the merged branch carries a rank-2 projector
    assert np.isclose(np.trace(spec.projectors[0]).real, 2.0)
    assert np.isclose(spec.eigenvalues[0], 1.0, atol=1e-8)


def test_hermitian_eig_merge_tol_zero_keeps_branches():
    a = np.diag([1.0, 1.0 + 1e-6, 2.0])
    assert len(hermitian_eig(a).branches) == 3


def test_spectral_decomposition_rejects_skewed_projectors():
    # halves of identity are not idempotent
    with pytest.raises(ValueError):
        SpectralDecomposition(((0.0, np.eye(2) / 2), (1.0, np.eye(2) / 2)))


def test_spectral_decomposition_requires_increasing_eigenvalues():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    with pytest.raises(ValueError):
        SpectralDecomposition(((1.0, p0), (1.0, p1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", [0, 1])
def test_spectral_decomposition_rejects_non_finite_eigenvalues(bad, slot):
    values = [0.0, 1.0]
    values[slot] = bad
    branches = ((values[0], np.diag([1.0, 0.0])), (values[1], np.diag([0.0, 1.0])))
    with pytest.raises(ValueError, match="finite"):
        SpectralDecomposition(branches)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=5))
def test_hermitian_eig_projectors_resolve_identity(seed, dim):
    rng = np.random.default_rng(seed)
    spec = hermitian_eig(random_hermitian(dim, rng))
    total = sum(spec.projectors)
    np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)
    for i, p in enumerate(spec.projectors):
        for q in spec.projectors[i + 1 :]:
            assert np.linalg.norm(p @ q) <= 1e-10


def clustered_hermitian(dim, rng):
    """Hermitian matrix in a random basis whose eigenvalues repeat in clusters."""
    values = np.sort(rng.integers(0, max(1, dim // 2), size=dim)).astype(float)
    basis = random_unitary(dim, rng)
    return (basis * values) @ basis.conj().T, np.unique(values, return_counts=True)[1]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=16),
    st.booleans(),
)
def test_hermitian_eig_passes_the_reference_projector_checks(seed, dim, clustered):
    rng = np.random.default_rng(seed)
    if clustered:
        matrix, ranks = clustered_hermitian(dim, rng)
        spec = hermitian_eig(matrix)
        assert [b.shape[1] for _, b in spec.blocks] == ranks.tolist()
    else:
        spec = hermitian_eig(random_hermitian(dim, rng))
    reference_spectral_check(spec.branches)


def test_hermitian_eig_passes_the_reference_projector_checks_at_d64():
    spec = hermitian_eig(random_hermitian(64, np.random.default_rng(64)))
    assert len(spec.blocks) == 64
    reference_spectral_check(spec.branches)


def _scaled_basis(gram_error):
    """2x2 basis whose Gram matrix is diag(1 + gram_error, 1)."""
    basis = np.eye(2, dtype=complex)
    basis[0, 0] = np.sqrt(1.0 + gram_error)
    return ((0.0, basis[:, :1]), (1.0, basis[:, 1:]))


def test_spectral_decomposition_gram_bound_is_half_the_projector_tol():
    spec = SpectralDecomposition(_scaled_basis(0.9 * PROJECTOR_TOL / 2))
    reference_spectral_check(spec.branches)
    with pytest.raises(ValueError, match="orthonormal"):
        SpectralDecomposition(_scaled_basis(1.1 * PROJECTOR_TOL / 2))


@pytest.mark.parametrize(
    "blocks",
    [
        ((0.0, np.eye(3)[:, :2]),),
        ((0.0, np.eye(2)), (1.0, np.eye(2)[:, :1])),
        ((0.0, np.zeros((2, 0))), (1.0, np.eye(2))),
        ((0.0, np.eye(2)[:, :1]), (1.0, np.eye(3)[:, :1])),
    ],
    ids=["too-few-columns", "too-many-columns", "empty-block", "mismatched-rows"],
)
def test_spectral_decomposition_rejects_malformed_blocks(blocks):
    with pytest.raises(ValueError):
        SpectralDecomposition(blocks)


def test_spectral_projectors_are_formed_once_and_read_only():
    spec = hermitian_eig(np.diag([1.0, 1.0, 2.0]))
    first, second = spec.projectors, spec.projectors
    assert all(p is q for p, q in zip(first, second))
    for array in first + tuple(b for _, b in spec.blocks):
        assert not array.flags.writeable


# ---------------------------------------------------------------------------
# schmidt_decompose


def test_schmidt_bell_pair():
    phi = State(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    coeffs, lefts, rights = schmidt_decompose(phi, 2, 2)
    np.testing.assert_allclose(coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    assert len(lefts) == len(rights) == 2


def test_schmidt_product_state_rank_one():
    phi = State(np.kron(np.array([0.6, 0.8]), np.array([1.0, 0.0])))
    coeffs, lefts, rights = schmidt_decompose(phi, 2, 2)
    assert len(coeffs) == 1
    np.testing.assert_allclose(coeffs, [1.0], atol=1e-12)


def test_schmidt_reconstructs_random_vector():
    rng = np.random.default_rng(23)
    phi = State.normalized(rng.normal(size=6) + 1j * rng.normal(size=6))
    coeffs, lefts, rights = schmidt_decompose(phi, 2, 3)
    rebuilt = sum(
        c * np.kron(l.amplitudes, r.amplitudes) for c, l, r in zip(coeffs, lefts, rights)
    )
    assert np.linalg.norm(rebuilt - phi.amplitudes) <= 1e-10
    assert abs(sum(c**2 for c in coeffs) - 1.0) <= 1e-12
    # both sides are orthonormal families
    for states in (lefts, rights):
        for i, s in enumerate(states):
            for j, t in enumerate(states):
                want = 1.0 if i == j else 0.0
                assert abs(np.vdot(s.amplitudes, t.amplitudes) - want) <= 1e-10


def test_schmidt_coefficients_descend():
    rng = np.random.default_rng(3)
    phi = State.normalized(rng.normal(size=9) + 1j * rng.normal(size=9))
    coeffs, _, _ = schmidt_decompose(phi, 3, 3)
    assert all(a >= b for a, b in zip(coeffs, coeffs[1:]))


def test_schmidt_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        schmidt_decompose(State(np.array([1.0, 0.0, 0.0])), 2, 2)


# ---------------------------------------------------------------------------
# complete_isometry_to_unitary


def test_complete_isometry_keeps_given_columns():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    v, _ = np.linalg.qr(m)
    u = complete_isometry_to_unitary(v)
    assert u.shape == (6, 6)
    np.testing.assert_allclose(u[:, :2], v, atol=1e-12)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-10)


def test_complete_isometry_identity_passthrough():
    np.testing.assert_allclose(complete_isometry_to_unitary(np.eye(4)), np.eye(4), atol=1e-14)


def test_complete_isometry_single_column():
    v = np.array([[0.0], [1.0]])
    u = complete_isometry_to_unitary(v)
    np.testing.assert_allclose(u[:, 0], [0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


def test_complete_isometry_at_dimension_256_keeps_columns_bit_for_bit():
    # d * n = 256 as in a d=16, n=16 dilation
    rng = np.random.default_rng(16)
    v, _ = np.linalg.qr(rng.normal(size=(256, 16)) + 1j * rng.normal(size=(256, 16)))
    u = complete_isometry_to_unitary(v)
    assert u.shape == (256, 256)
    assert np.array_equal(u[:, :16], v)
    assert _gram_error(u) <= UNITARY_TOL


def test_complete_isometry_rejects_non_isometry():
    with pytest.raises(ValueError):
        complete_isometry_to_unitary(np.array([[0.5], [0.5]]))


# ---------------------------------------------------------------------------
# random_state


def test_random_state_deterministic():
    a = random_state(4, seed=123)
    b = random_state(4, seed=123)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_random_state_is_the_pcg64_draw_normalized():
    # Real parts, then imaginary parts, from one default_rng(seed) stream:
    # verify_oit draws its trial states through the same code.
    rng = np.random.default_rng(2**40 + 3)
    vec = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    psi = random_state(5, seed=2**40 + 3)
    np.testing.assert_array_equal(psi.amplitudes, vec / np.linalg.norm(vec))


def test_random_state_distinct_seeds_differ():
    a = random_state(4, seed=0)
    b = random_state(4, seed=1)
    assert not np.allclose(a.amplitudes, b.amplitudes)


def test_random_state_normalized():
    for seed in range(10):
        psi = random_state(3, seed=seed)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12


def test_random_state_first_component_moment():
    # isotropy: |amplitude_0|^2 averages to 1/dim
    weights = [abs(random_state(2, seed=s).amplitudes[0]) ** 2 for s in range(10_000)]
    assert abs(np.mean(weights) - 0.5) < 0.02

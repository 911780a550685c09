"""Tests for sharp/generalized observables and their statistics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PAULI_X,
    PAULI_Z,
    random_hermitian,
    random_povm_outcomes,
    random_unitary,
    reference_born_table,
)
from qmeas import observables
from qmeas.errors import NumericalConsistencyError
from qmeas.linalg import State, hermitian_eig, random_state
from qmeas.observables import (
    _ONE_BRANCH,
    Observable,
    OutcomeDistribution,
    Povm,
    _branch_sums,
    born_probabilities,
    clamp_probability,
    is_projective,
    is_resolution_of_identity,
    povm_probabilities,
)
from qmeas.processes import _pointer_meter

# ---------------------------------------------------------------------------
# Observable


def test_observable_from_matrix_labels_sorted():
    a = Observable.from_matrix(np.diag([3.0, 1.0, 2.0]))
    assert a.labels == (1.0, 2.0, 3.0)
    assert a.dim == 3


def test_observable_rejects_non_hermitian():
    with pytest.raises(ValueError):
        Observable.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_observable_matrix_matches_spectral():
    rng = np.random.default_rng(2)
    m = random_hermitian(4, rng)
    a = Observable.from_matrix(m)
    rebuilt = sum(x * p for x, p in a.spectral.branches)
    assert np.linalg.norm(rebuilt - m) <= 1e-10


def test_observable_forms_its_matrix_once_on_first_read(monkeypatch):
    calls = []
    form = observables._spectral_matrix
    monkeypatch.setattr(observables, "_spectral_matrix", lambda s: calls.append(s) or form(s))
    spec = hermitian_eig(np.diag([1.0, 2.0, 2.0]))
    a = Observable(spec)
    assert calls == []
    assert a.matrix is a.matrix
    assert calls == [spec]
    np.testing.assert_array_equal(a.matrix, form(spec))
    assert not a.matrix.flags.writeable


def test_from_matrix_rejects_a_family_that_misses_its_matrix(monkeypatch):
    monkeypatch.setattr(observables, "hermitian_eig", lambda m: hermitian_eig(PAULI_Z))
    with pytest.raises(ValueError, match="matrix matches its spectral family"):
        Observable.from_matrix(np.eye(2))


def test_observable_merges_degeneracies():
    a = Observable.from_matrix(np.diag([1.0, 1.0, 2.0]))
    assert a.labels == (1.0, 2.0)


def test_from_matrix_forms_no_dense_projector_family():
    # 128 dense 128 x 128 projectors alone take 32 MiB; the eigenvector
    # basis, its Gram matrix and the rebuilt matrix take well under 2 MiB.
    m = random_hermitian(128, np.random.default_rng(128))
    tracemalloc.start()
    try:
        a = Observable.from_matrix(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(a.labels) == 128
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# the Born kernel against the operator-stack reference


def spectral_family(kind, k, rng):
    """A spectral family on k dimensions: nondegenerate in a random basis,
    clustered (about k/2 distinct eigenvalues, each repeated, in a random
    basis), a pointer family (unsorted labels on the standard basis) or the
    one-branch family on a 1-dimensional axis."""
    if kind == "one-branch":
        return _ONE_BRANCH
    if kind == "pointer":
        return _pointer_meter(rng.permutation(k).astype(float)).spectral
    if kind == "clustered":
        values = rng.integers(0, max(1, k // 2), size=k).astype(float)
    else:
        values = rng.permutation(k).astype(float)
    basis = random_unitary(k, rng)
    return Observable.from_matrix((basis * values) @ basis.conj().T).spectral


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["nondegenerate", "clustered", "pointer"]),
    st.sampled_from(["nondegenerate", "clustered", "pointer", "one-branch"]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([(), (1,), (4,), (2, 3)]),
)
def test_born_kernel_matches_the_operator_stack_reference(seed, kind1, kind2, k1, k2, rest, batch):
    rng = np.random.default_rng(seed)
    first = spectral_family(kind1, k1, rng)
    second = spectral_family(kind2, 1 if kind2 == "one-branch" else k2, rng)
    shape = (*batch, rest, first.dim, second.dim)
    w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    w /= np.sqrt(np.sum(np.abs(w) ** 2, axis=(-3, -2, -1), keepdims=True))
    # Every caller rotates its state tensor into both eigenbases, B1^H w B2^*.
    amps = first.basis.conj().T @ w @ second.basis.conj()
    got = _branch_sums(amps, first, second)
    want = reference_born_table(w, np.array(first.projectors), np.array(second.projectors))
    assert got.shape == (*batch, len(first.blocks), len(second.blocks))
    assert np.all(got >= 0.0)
    assert np.max(np.abs(got - want)) <= 1e-12
    if kind2 == "one-branch":
        np.testing.assert_array_equal(_branch_sums(amps, first), got)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
)
def test_povm_probabilities_match_the_operator_stack_reference(seed, dim, n):
    povm = Povm(random_povm_outcomes(dim, n, np.random.default_rng(seed)))
    psi = random_state(dim, seed=seed)
    want = reference_born_table(
        psi.amplitudes.reshape(1, -1, 1), np.array(povm.effects), np.ones((1, 1, 1))
    )[:, 0]
    got = povm_probabilities(povm, psi)
    assert [x for x, _ in got.entries] == list(povm.labels)
    assert np.max(np.abs(np.array([p for _, p in got.entries]) - want)) <= 1e-12


# ---------------------------------------------------------------------------
# born_probabilities


def test_born_eigenstate_is_deterministic():
    a = Observable.from_matrix(PAULI_Z)
    dist = born_probabilities(a, State.basis(2, 0))
    assert dist.as_dict() == {-1.0: 0.0, 1.0: 1.0}


def test_born_balanced_superposition():
    a = Observable.from_matrix(PAULI_Z)
    plus = State.normalized([1.0, 1.0])
    dist = born_probabilities(a, plus)
    assert dist.probability(1.0) == pytest.approx(0.5, abs=1e-12)
    assert dist.probability(-1.0) == pytest.approx(0.5, abs=1e-12)


def test_born_diagonal_observable_squared_amplitudes():
    a = Observable.from_matrix(np.diag([1.0, 2.0, 3.0]))
    psi = State(np.array([0.6, 0.8j, 0.0]))
    dist = born_probabilities(a, psi).as_dict()
    # oracle: for a diagonal observable the weight of label k is |<k|psi>|^2
    oracle = {k + 1.0: abs(psi.amplitudes[k]) ** 2 for k in range(3)}
    for label, p in oracle.items():
        assert dist[label] == pytest.approx(p, abs=1e-12)
    assert dist == pytest.approx({1.0: 0.36, 2.0: 0.64, 3.0: 0.0}, abs=1e-12)


def test_born_dimension_mismatch_raises():
    a = Observable.from_matrix(PAULI_Z)
    with pytest.raises(ValueError):
        born_probabilities(a, State.basis(3, 0))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_born_distribution_normalized(seed):
    rng = np.random.default_rng(seed)
    a = Observable.from_matrix(random_hermitian(3, rng))
    psi = random_state(3, seed=seed)
    total = sum(born_probabilities(a, psi).as_dict().values())
    assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Povm / povm_probabilities


def test_povm_uninformative_coin_ignores_state():
    coin = Povm(((0.0, np.eye(2) / 2), (1.0, np.eye(2) / 2)))
    for seed in range(5):
        dist = povm_probabilities(coin, random_state(2, seed=seed))
        assert dist.probability(0.0) == pytest.approx(0.5, abs=1e-12)
        assert dist.probability(1.0) == pytest.approx(0.5, abs=1e-12)


def test_povm_from_observable_matches_born():
    rng = np.random.default_rng(17)
    a = Observable.from_matrix(random_hermitian(3, rng))
    p = Povm.from_observable(a)
    assert p.labels == a.labels
    for seed in range(50):
        psi = random_state(3, seed=seed)
        born = born_probabilities(a, psi).as_dict()
        general = povm_probabilities(p, psi).as_dict()
        for label in born:
            assert general[label] == pytest.approx(born[label], abs=1e-12)


def test_povm_weighted_projector_mixture():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    mixed = Povm(((0.0, 0.75 * p0 + 0.25 * p1), (1.0, 0.25 * p0 + 0.75 * p1)))
    dist = povm_probabilities(mixed, State.basis(2, 0))
    assert dist.probability(0.0) == pytest.approx(0.75, abs=1e-12)
    assert dist.probability(1.0) == pytest.approx(0.25, abs=1e-12)


def test_povm_rejects_bad_sum():
    with pytest.raises(ValueError, match="invalid POVM"):
        Povm(((0.0, np.eye(2) / 2), (1.0, np.eye(2) / 3)))


def test_povm_rejects_non_hermitian_effect():
    skew = np.array([[0.5, 0.5], [-0.5, 0.5]])
    with pytest.raises(ValueError, match="invalid POVM"):
        Povm(((0.0, skew), (1.0, np.eye(2) - skew)))


def test_povm_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="invalid POVM"):
        Povm(((0.0, np.eye(2) / 2), (0.0, np.eye(2) / 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_povm_rejects_non_finite_labels(bad):
    with pytest.raises(ValueError, match="invalid POVM: outcome labels must be finite"):
        Povm(((0.0, np.eye(2) / 2), (bad, np.eye(2) / 2)))


def test_povm_rejects_effect_spectrum_outside_unit_interval():
    bump = 0.6 * PAULI_X
    with pytest.raises(ValueError, match="spectrum"):
        Povm(((0.0, np.eye(2) / 2 + bump), (1.0, np.eye(2) / 2 - bump)))


def test_povm_effects_are_read_only_views_of_one_stack():
    p = Povm(random_povm_outcomes(3, 4, np.random.default_rng(5)))
    assert p.effects.shape == (4, 3, 3)
    assert not p.effects.flags.writeable
    for k, (_, effect) in enumerate(p.outcomes):
        assert effect.base is p.effects
        assert np.shares_memory(effect, p.effects[k])
        assert not effect.flags.writeable
        with pytest.raises(ValueError):
            effect[0, 0] = 0.0


def test_random_povm_fixture_is_valid():
    rng = np.random.default_rng(31)
    outcomes = random_povm_outcomes(3, 4, rng)
    p = Povm(outcomes)
    assert is_resolution_of_identity(p)
    assert len(p.outcomes) == 4


# ---------------------------------------------------------------------------
# is_resolution_of_identity / is_projective


def test_resolution_accepts_pvm():
    a = Observable.from_matrix(PAULI_Z)
    assert is_resolution_of_identity(Povm.from_observable(a))


def test_resolution_rejects_wrong_sum():
    assert not is_resolution_of_identity([np.eye(2) / 2, np.eye(2) / 3])


def test_resolution_rejects_escaping_spectrum():
    effects = [np.eye(2) / 2 + 0.6 * PAULI_X, np.eye(2) / 2 - 0.6 * PAULI_X]
    # the family sums to the identity, but each member has spectrum {-0.1, 1.1}
    np.testing.assert_allclose(sum(effects), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(np.linalg.eigvalsh(effects[0]), [-0.1, 1.1], atol=1e-12)
    assert not is_resolution_of_identity(effects)


def test_resolution_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        is_resolution_of_identity([np.eye(2), np.eye(3)])


def test_projective_accepts_pvm_rejects_coin():
    a = Observable.from_matrix(PAULI_Z)
    assert is_projective(Povm.from_observable(a))
    assert not is_projective([np.eye(2) / 2, np.eye(2) / 2])


def test_projective_requires_orthogonality():
    p = np.diag([1.0, 0.0])
    assert not is_projective([p, p])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=4))
def test_projective_resolution_from_spectral_families(seed, dim):
    rng = np.random.default_rng(seed)
    p = Povm.from_observable(Observable.from_matrix(random_hermitian(dim, rng)))
    assert is_projective(p)
    assert is_resolution_of_identity(p)


# ---------------------------------------------------------------------------
# clamping and distribution validation


def test_clamp_passes_through_interior_values():
    assert clamp_probability(0.25) == 0.25


def test_clamp_rounds_small_negative_noise_to_zero():
    assert clamp_probability(-5e-13) == 0.0


def test_clamp_rounds_slight_excess_to_one():
    assert clamp_probability(1.0 + 5e-13) == 1.0


def test_clamp_rejects_genuinely_negative():
    with pytest.raises(NumericalConsistencyError):
        clamp_probability(-1e-11)


def test_clamp_rejects_values_above_one():
    with pytest.raises(NumericalConsistencyError):
        clamp_probability(1.0 + 1e-11)


def test_clamp_takes_an_array_elementwise():
    clamped = clamp_probability(np.array([-1e-13, 1.0 + 1e-13, 0.25, -0.0]))
    assert isinstance(clamped, np.ndarray)
    assert clamped.tolist() == [0.0, 1.0, 0.25, -0.0]
    assert np.signbit(clamped[3])


def test_clamp_rejects_an_array_naming_its_worst_value():
    with pytest.raises(NumericalConsistencyError, match=r"residual 2e-11 exceeds the bound 1e-12"):
        clamp_probability(np.array([[0.5, -1e-11], [-2e-11, 1.0 + 5e-12]]))


def test_outcome_distribution_rejects_bad_total():
    with pytest.raises(NumericalConsistencyError):
        OutcomeDistribution(((0.0, 0.5), (1.0, 0.4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_outcome_distribution_rejects_non_finite_labels(bad):
    with pytest.raises(ValueError, match="finite"):
        OutcomeDistribution(((bad, 0.5), (1.0, 0.5)))


def test_outcome_distribution_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        OutcomeDistribution(((0.0, 0.5), (0.0, 0.5)))


def test_outcome_distribution_label_window():
    dist = OutcomeDistribution(((0.0, 0.5), (1e-10, 0.5)))
    assert dist.probability(0.0) == pytest.approx(1.0)
    assert dist.probability(0.0, label_tol=1e-12) == pytest.approx(0.5)


def test_outcome_distribution_label_window_includes_its_boundary():
    dist = OutcomeDistribution(((0.0, 0.25), (1.0, 0.75)))
    assert dist.probability(0.0, label_tol=1.0) == 1.0
    assert dist.probability(0.5, label_tol=0.5) == 1.0
    assert dist.probability(0.5, label_tol=0.25) == 0

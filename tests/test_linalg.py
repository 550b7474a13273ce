import numpy as np
import pytest

from satprecode.linalg import eigh_sorted

from oracles import null_space, random_unitary, reconstruct


def hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


class TestEighSorted:
    def test_reconstruction_accuracy(self):
        for seed in range(10):
            a = hermitian(8, seed)
            eig = eigh_sorted(a)
            err = np.linalg.norm(reconstruct(eig) - a)
            assert err <= 1e-10 * np.linalg.norm(a)

    def test_descending_order(self):
        eig = eigh_sorted(hermitian(6, 42))
        assert np.all(np.diff(eig.eigenvalues) <= 0)

    def test_psd_input_has_no_significant_negative_eigenvalues(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5))
        eig = eigh_sorted(x.conj().T @ x)
        assert np.all(eig.eigenvalues >= -1e-12 * eig.eigenvalues[0])

    def test_eigenvectors_unitary(self):
        eig = eigh_sorted(hermitian(7, 5))
        v = eig.eigenvectors
        assert np.allclose(v.conj().T @ v, np.eye(7), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_stack_equals_each_matrix_alone(self, n):
        # Gram matrices with repeated and zero eigenvalues among them.
        rng = np.random.default_rng(n)
        x = rng.standard_normal((7, 2, n)) + 1j * rng.standard_normal((7, 2, n))
        grams = np.concatenate([x.conj().swapaxes(-1, -2) @ x,
                                np.zeros((1, n, n)), np.eye(n)[None],
                                np.stack([hermitian(n, s) for s in range(3)])])
        stacked = eigh_sorted(grams.reshape(3, 4, n, n))
        assert stacked.eigenvalues.shape == (3, 4, n)
        assert stacked.eigenvectors.shape == (3, 4, n, n)
        for i, a in enumerate(grams):
            alone = eigh_sorted(a)
            assert np.array_equal(stacked.eigenvalues.reshape(-1, n)[i],
                                  alone.eigenvalues)
            assert np.array_equal(stacked.eigenvectors.reshape(-1, n, n)[i],
                                  alone.eigenvectors)
        err = np.linalg.norm(reconstruct(stacked) - grams.reshape(3, 4, n, n),
                             axis=(-2, -1))
        assert np.all(err <= 1e-10 * np.linalg.norm(grams, axis=(-2, -1))
                      .reshape(3, 4) + 1e-300)


class TestNullSpace:
    def test_wide_matrix_null_dimension(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        basis = null_space(a)
        assert basis.shape == (7, 4)
        assert np.linalg.norm(a @ basis) <= 1e-10 * np.linalg.norm(a)
        assert np.allclose(basis.conj().T @ basis, np.eye(4), atol=1e-12)

    def test_empty_matrix_gives_identity(self):
        basis = null_space(np.zeros((0, 4)))
        assert np.array_equal(basis, np.eye(4, dtype=complex))

    def test_full_rank_square_has_empty_null_space(self):
        basis = null_space(np.eye(5))
        assert basis.shape == (5, 0)

    def test_rank_tolerance_drops_tiny_directions(self):
        a = np.diag([1.0, 1e-15, 2.0])
        basis = null_space(a)
        assert basis.shape == (3, 1)
        assert abs(basis[1, 0]) == pytest.approx(1.0, rel=1e-12)


def test_random_unitary_is_unitary():
    u = random_unitary(6, np.random.default_rng(9))
    assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)

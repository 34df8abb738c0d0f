import numpy as np
import pytest

from baryvae.errors import NotPsdError, NumericError
from baryvae.linalg import SymMatrix, sqrtm_psd, sym_eig, sym_eigvals

from oracles import random_spd


def test_symmatrix_symmetrizes():
    m = SymMatrix([[1.0, 2.0], [0.0, 1.0]])
    assert np.array_equal(m.array, m.array.T)
    assert m.array[0, 1] == 1.0


def test_symmatrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((2, 3)))


def test_eig_identity():
    w, v = sym_eig(SymMatrix.identity(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])
    assert np.allclose(v.T @ v, np.eye(3), atol=1e-10)


def test_eig_already_diagonal():
    w, v = sym_eig(SymMatrix.diagonal([4.0, 9.0]))
    assert np.allclose(w, [4.0, 9.0])
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)


def test_eig_2x2_hand_oracle():
    # characteristic polynomial of [[2,1],[1,2]] is l^2 - 4l + 3 = (l-1)(l-3)
    w, _ = sym_eig(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0], atol=1e-12)


def test_eig_random_spd_corpus():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a = random_spd(rng, int(rng.integers(1, 9)))
        w, v = sym_eig(a)
        scale = 1.0 + np.linalg.norm(a.array)
        assert np.linalg.norm(v @ np.diag(w) @ v.T - a.array) <= 1e-10 * scale
        assert np.abs(v.T @ v - np.eye(a.dim)).max() <= 1e-10
        assert np.all(np.diff(w) >= -1e-12)
        # independent oracle: LAPACK eigenvalues
        assert np.allclose(w, np.linalg.eigvalsh(a.array), atol=1e-9)


def test_eig_nonfinite_input_raises_numeric_error():
    for bad in (np.nan, np.inf, -np.inf):
        a = SymMatrix([[2.0, bad], [bad, 2.0]])
        for solver in (sym_eig, sqrtm_psd):
            with pytest.raises(NumericError):
                solver(a)


def test_eig_lapack_failure_raises_numeric_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericError, match="did not converge"):
        sym_eig(SymMatrix.identity(2))


def test_eigvals_match_eig():
    rng = np.random.default_rng(7)
    for dim in (1, 3, 16):
        a = random_spd(rng, dim)
        assert np.allclose(sym_eigvals(a), sym_eig(a)[0], rtol=1e-12, atol=1e-12)


def test_eigvals_failures_raise_numeric_error(monkeypatch):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError):
            sym_eigvals(SymMatrix([[2.0, bad], [bad, 2.0]]))

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericError, match="did not converge"):
        sym_eigvals(SymMatrix.identity(2))


def test_sqrtm_identity():
    r = sqrtm_psd(SymMatrix.identity(4))
    assert np.allclose(r.array, np.eye(4), atol=1e-12)


def test_sqrtm_diagonal():
    r = sqrtm_psd(SymMatrix.diagonal([4.0, 9.0]))
    assert np.allclose(r.array, np.diag([2.0, 3.0]), atol=1e-12)


def test_sqrtm_squares_back():
    a = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    r = sqrtm_psd(a)
    assert np.linalg.norm(r.array @ r.array - a.array) <= 1e-8 * (1 + np.linalg.norm(a.array))


def test_sqrtm_random_spd_corpus():
    rng = np.random.default_rng(12)
    for _ in range(500):
        a = random_spd(rng, int(rng.integers(1, 9)))
        r = sqrtm_psd(a)
        scale = 1.0 + np.linalg.norm(a.array)
        assert np.linalg.norm(r.array @ r.array - a.array) <= 1e-8 * scale
        assert np.array_equal(r.array, r.array.T)


def test_sqrtm_commutes_with_orthogonal_conjugation():
    rng = np.random.default_rng(13)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        a = random_spd(rng, dim)
        q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        lhs = sqrtm_psd(SymMatrix(q @ a.array @ q.T)).array
        rhs = q @ sqrtm_psd(a).array @ q.T
        assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_sqrtm_clamps_tiny_negative_eigenvalues():
    a = SymMatrix(np.diag([1.0, -5e-11]))
    r = sqrtm_psd(a)
    assert r.array[1, 1] == 0.0


def test_sqrtm_rejects_indefinite():
    with pytest.raises(NotPsdError) as err:
        sqrtm_psd(SymMatrix(np.diag([1.0, -0.5])))
    assert err.value.eigenvalue == pytest.approx(-0.5)

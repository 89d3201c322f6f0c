import numpy as np
import pytest

from esln import (BathSpec, Drive, SystemSpec, diagonalize_bath, hamiltonian_at,
                  mode_couplings)
from esln.errors import (AsymmetricInput, DimensionMismatch, NonPositiveMode,
                         OutOfRange, ValidationError)

from conftest import SX, SZ


def site_couplings_from_modes(modes, bath, g_ops):
    """Inverse transform f_i = sqrt(m_i) sum_lam e_{i,lam} g_lam."""
    weights = modes.evecs * np.sqrt(bath.masses)[:, None]
    return list(np.einsum("il,ljk->ijk", weights, np.stack(g_ops)))


def test_single_mode_diagonalization():
    modes = diagonalize_bath(BathSpec(masses=[1.0], lam=[[4.0]]))
    assert np.allclose(modes.omegas, [2.0])
    assert np.allclose(modes.evecs, [[1.0]])


def test_two_mode_hand_eigendecomposition(two_mode_bath):
    # D = [[2,-1],[-1,2]]: eigenpairs (1, (1,1)/sqrt2) and (3, (1,-1)/sqrt2).
    modes = diagonalize_bath(two_mode_bath)
    assert np.allclose(modes.omegas, [1.0, np.sqrt(3.0)], atol=1e-12)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(modes.evecs[:, 0], [s, s], atol=1e-12)
    assert np.allclose(modes.evecs[:, 1], [s, -s], atol=1e-12)


def test_degenerate_modes_keep_orthogonal_basis():
    modes = diagonalize_bath(BathSpec(masses=[1.0, 4.0], lam=[[1.0, 0.0], [0.0, 4.0]]))
    assert np.allclose(modes.omegas, [1.0, 1.0])
    assert np.allclose(modes.evecs.T @ modes.evecs, np.eye(2), atol=1e-12)
    # sign convention: largest-magnitude entry of each column is positive
    for k in range(2):
        col = modes.evecs[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_sign_convention_is_deterministic(two_mode_bath):
    a = diagonalize_bath(two_mode_bath)
    b = diagonalize_bath(two_mode_bath)
    assert np.array_equal(a.evecs, b.evecs)
    for k in range(2):
        col = a.evecs[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_unstable_bath_rejected():
    with pytest.raises(NonPositiveMode):
        diagonalize_bath(BathSpec(masses=[1.0], lam=[[-1.0]]))


def test_asymmetric_lambda_rejected():
    with pytest.raises(AsymmetricInput):
        BathSpec(masses=[1.0, 1.0], lam=[[1.0, 0.5], [0.4, 1.0]])


def test_lambda_reconstruction_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.integers(1, 6)
        masses = rng.uniform(0.5, 3.0, m)
        a = rng.standard_normal((m, m))
        lam_mat = a @ a.T + m * np.eye(m)  # positive definite, symmetric
        bath = BathSpec(masses=masses, lam=lam_mat)
        modes = diagonalize_bath(bath)
        root_m = np.sqrt(masses)
        rebuilt = (root_m[:, None] * modes.evecs) @ np.diag(modes.omegas ** 2) \
            @ (modes.evecs.T * root_m[None, :])
        assert np.abs(rebuilt - lam_mat).max() <= 1e-8 * np.abs(lam_mat).max()


def test_mode_couplings_identity_case():
    bath = BathSpec(masses=[1.0], lam=[[4.0]])
    modes = diagonalize_bath(bath)
    system = SystemSpec(dim=2, h0=np.zeros((2, 2)), couplings=(SZ,), hbar=1.0, beta=1.0)
    (g,) = mode_couplings(modes, bath, system)
    assert np.allclose(g, SZ)


def test_mode_couplings_two_mode_substitution(two_mode_bath):
    modes = diagonalize_bath(two_mode_bath)
    system = SystemSpec(dim=2, h0=np.zeros((2, 2)),
                        couplings=(SZ, np.zeros((2, 2))), hbar=1.0, beta=1.0)
    g = mode_couplings(modes, two_mode_bath, system)
    assert np.allclose(g[0], SZ / np.sqrt(2.0), atol=1e-12)
    assert np.allclose(g[1], SZ / np.sqrt(2.0), atol=1e-12)


def test_mode_couplings_zero_limit(two_mode_bath):
    modes = diagonalize_bath(two_mode_bath)
    system = SystemSpec(dim=2, h0=np.zeros((2, 2)),
                        couplings=(np.zeros((2, 2)), np.zeros((2, 2))),
                        hbar=1.0, beta=1.0)
    for g in mode_couplings(modes, two_mode_bath, system):
        assert np.all(g == 0)


def test_mode_couplings_inverse_roundtrip():
    rng = np.random.default_rng(5)
    masses = rng.uniform(0.5, 2.0, 3)
    a = rng.standard_normal((3, 3))
    bath = BathSpec(masses=masses, lam=a @ a.T + 3 * np.eye(3))
    modes = diagonalize_bath(bath)
    fs = []
    for _ in range(3):
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        fs.append(h + h.conj().T)
    system = SystemSpec(dim=2, h0=np.zeros((2, 2)), couplings=tuple(fs),
                        hbar=1.0, beta=1.0)
    g = mode_couplings(modes, bath, system)
    back = site_couplings_from_modes(modes, bath, g)
    for orig, rec in zip(fs, back):
        assert np.abs(orig - rec).max() < 1e-10


def test_mode_couplings_dimension_mismatch(two_mode_bath):
    modes = diagonalize_bath(two_mode_bath)
    system = SystemSpec(dim=2, h0=np.zeros((2, 2)), couplings=(SZ,), hbar=1.0, beta=1.0)
    with pytest.raises(DimensionMismatch):
        mode_couplings(modes, two_mode_bath, system)


def test_hamiltonian_static_for_any_time():
    system = SystemSpec(dim=2, h0=0.5 * SX, couplings=(), hbar=1.0, beta=1.0)
    assert np.array_equal(hamiltonian_at(system, -7.0), system.h0)
    assert np.array_equal(hamiltonian_at(system, 123.0), system.h0)


def test_hamiltonian_constant_drive():
    times = np.linspace(0.0, 1.0, 5)
    drive = Drive(matrix=SZ, times=times, amplitudes=np.ones(5))
    system = SystemSpec(dim=2, h0=0.5 * SX, couplings=(), hbar=1.0, beta=1.0,
                        drive=(drive,))
    for t in times:
        assert np.allclose(hamiltonian_at(system, t), 0.5 * SX + SZ)


def test_hamiltonian_linear_interpolation_midpoint():
    drive = Drive(matrix=SZ, times=np.array([0.0, 1.0]), amplitudes=np.array([0.0, 1.0]))
    system = SystemSpec(dim=2, h0=0.5 * SX, couplings=(), hbar=1.0, beta=1.0,
                        drive=(drive,))
    assert np.allclose(hamiltonian_at(system, 0.5), 0.5 * SX + 0.5 * SZ)


def test_hamiltonian_out_of_range():
    drive = Drive(matrix=SZ, times=np.array([0.0, 1.0]), amplitudes=np.array([0.0, 1.0]))
    system = SystemSpec(dim=2, h0=0.5 * SX, couplings=(), hbar=1.0, beta=1.0,
                        drive=(drive,))
    with pytest.raises(OutOfRange):
        hamiltonian_at(system, 2.0)


def test_hamiltonian_hermitian_on_grid():
    rng = np.random.default_rng(9)
    times = np.linspace(0.0, 2.0, 11)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    system = SystemSpec(
        dim=3, h0=h + h.conj().T, couplings=(), hbar=1.0, beta=1.0,
        drive=(Drive(matrix=v + v.conj().T, times=times,
                     amplitudes=rng.standard_normal(11)),))
    for t in times:
        hm = hamiltonian_at(system, t)
        assert np.abs(hm - hm.conj().T).max() < 1e-12


def test_non_hermitian_h0_rejected():
    with pytest.raises(ValidationError):
        SystemSpec(dim=2, h0=np.array([[0, 1], [0, 0]], complex), couplings=(),
                   hbar=1.0, beta=1.0)


def test_specs_are_immutable():
    system = SystemSpec(dim=2, h0=0.5 * SX, couplings=(SZ,), hbar=1.0, beta=1.0)
    with pytest.raises(ValueError):
        system.h0[0, 0] = 5.0
    bath = BathSpec(masses=[1.0], lam=[[1.0]])
    with pytest.raises(ValueError):
        bath.lam[0, 0] = 2.0

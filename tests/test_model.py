import numpy as np
import pytest

from esln import (BathSpec, Drive, SystemSpec, TimeGrids, coupling_channels,
                  diagonalize_bath, evolve_batch, mode_couplings)
from esln.errors import AsymmetricInput, DimensionMismatch, NonPositiveMode, ValidationError

from conftest import SX, SY, SZ


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


def test_parallel_couplings_merge_with_real_weights():
    # the channel operator is the first coupling, and every weight is the real
    # ratio g_lam / G_k, negative ones included
    channels, weights = coupling_channels([0.4 * SZ, -0.1 * SZ, 1.2 * SZ])
    assert len(channels) == 1
    assert np.array_equal(channels[0], 0.4 * SZ)
    assert weights.shape == (1, 3)
    assert np.allclose(weights, [[1.0, -0.25, 3.0]], rtol=1e-15, atol=0)
    assert weights[0, 0] == 1.0


def test_zero_coupling_joins_no_channel():
    channels, weights = coupling_channels([np.zeros((2, 2)), SX, 1e-14 * SZ])
    assert len(channels) == 1
    assert np.array_equal(channels[0], SX)
    assert np.array_equal(weights, [[0.0, 1.0, 0.0]])
    channels, weights = coupling_channels([np.zeros((2, 2))])
    assert channels == () and weights.shape == (0, 1)
    channels, weights = coupling_channels(np.zeros((0, 2, 2)))
    assert channels == () and weights.shape == (0, 0)


def test_non_parallel_couplings_stay_apart_in_first_mode_order():
    g = [SX + 0.5 * SZ, SZ, 2.0 * SX + SZ, SY, -0.5 * SZ, SZ + 1e-9 * SX]
    channels, weights = coupling_channels(g)
    assert [c.tolist() for c in channels] == [g[0].tolist(), g[1].tolist(), g[3].tolist(),
                                             g[5].tolist()]
    expect = [[1, 0, 2, 0, 0, 0], [0, 1, 0, 0, -0.5, 0], [0, 0, 0, 1, 0, 0],
              [0, 0, 0, 0, 0, 1]]
    assert np.allclose(weights, expect, rtol=1e-15, atol=0)
    # each mode coupling is its weight times its channel's operator
    rebuilt = np.einsum("kl,kij->lij", weights, np.stack(channels))
    assert np.abs(rebuilt - np.stack(g)).max() <= 1e-15


# A drive enters H(t) only on the RK4 stages of evolve_batch, so these tests
# look at H(t) through the real-time evolution.

def _evolve(system, grids, rho0, eta=None, substeps=1):
    """Real-time series (B, n_t, d, d) under zero nu and the given (or zero) eta."""
    if eta is None:
        eta = np.zeros((rho0.shape[0], system.n_sites, grids.n_t), complex)
    series, diverged = evolve_batch(system, eta, np.zeros_like(eta), grids, rho0, substeps)
    assert not diverged.any()
    return series


def test_hamiltonian_constant_drive():
    # a constant drive c V is the static Hamiltonian h0 + c V, noise and all
    rng = np.random.default_rng(3)
    grids = TimeGrids(t_f=1.0, n_t=21, hbar_beta=1.0, n_tau=3)
    c = 0.37
    driven = SystemSpec(dim=2, h0=0.5 * SX, couplings=(0.4 * SZ,), hbar=1.0, beta=1.0,
                        drive=(Drive(matrix=SZ + 0.2 * SX, amplitudes=np.full(21, c)),))
    static = SystemSpec(dim=2, h0=0.5 * SX + c * (SZ + 0.2 * SX), couplings=(0.4 * SZ,),
                        hbar=1.0, beta=1.0)
    eta = 0.3 * (rng.standard_normal((3, 1, 21)) + 1j * rng.standard_normal((3, 1, 21)))
    rho0 = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    for substeps in (1, 2):
        a = _evolve(driven, grids, rho0, eta, substeps)
        b = _evolve(static, grids, rho0, eta, substeps)
        assert np.abs(a - b).max() < 1e-14


def test_hamiltonian_linear_interpolation_midpoint():
    # one RK4 step over a ramp 0 -> 1 takes H(h/2) = h0 + V / 2 at its midpoint
    # stages, the linear interpolation of the two samples
    grids = TimeGrids(t_f=0.3, n_t=2, hbar_beta=1.0, n_tau=3)
    system = SystemSpec(dim=2, h0=0.5 * SX, couplings=(), hbar=1.0, beta=1.0,
                        drive=(Drive(matrix=SZ, amplitudes=[0.0, 1.0]),))
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    h = grids.dt

    def f(t, r):
        ham = 0.5 * SX + (t / h) * SZ
        return (ham @ r - r @ ham) / 1j

    k1 = f(0.0, rho)
    k2 = f(h / 2, rho + 0.5 * h * k1)
    k3 = f(h / 2, rho + 0.5 * h * k2)
    k4 = f(h, rho + h * k3)
    expected = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.abs(_evolve(system, grids, rho[None])[0, -1] - expected).max() < 1e-14


def test_hamiltonian_hermitian_on_grid():
    # Hermitian stage Hamiltonians keep a Hermitian state Hermitian
    rng = np.random.default_rng(9)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    system = SystemSpec(
        dim=3, h0=h + h.conj().T, couplings=(), hbar=1.0, beta=1.0,
        drive=(Drive(matrix=v + v.conj().T, amplitudes=rng.standard_normal(11)),))
    grids = TimeGrids(t_f=0.5, n_t=11, hbar_beta=1.0, n_tau=3)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    series = _evolve(system, grids, (x @ x.conj().T)[None], substeps=2)[0]
    assert np.abs(series - np.conj(np.swapaxes(series, 1, 2))).max() < 1e-12


def test_drive_needs_a_sampled_amplitude_series():
    for amps in ([1.0], [[0.0, 1.0], [1.0, 0.0]]):
        with pytest.raises(ValidationError):
            Drive(matrix=SZ, amplitudes=amps)


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

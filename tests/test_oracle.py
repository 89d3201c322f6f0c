import warnings

import numpy as np
import pytest
import scipy.linalg

from esln import (BathSpec, SystemSpec, TimeGrids, TruncatedBath,
                  build_total_hamiltonian, diagonalize_bath, exact_reduced_dynamics,
                  mode_couplings)
from esln.errors import CapExceeded, TruncationWarning
from esln.model import Drive, NormalModes
from esln.oracle import _ladder, _mode_operator, partial_trace_bath, thermal_state

from conftest import SX, SZ, spin_system


def mode_occupations(rho_tot, system, modes, trunc):
    """Thermal expectation of each mode's number operator."""
    n, m = trunc.n_levels, modes.n_modes
    create = _ladder(n)
    number = create @ create.T
    return np.array([np.trace(rho_tot @ np.kron(np.eye(system.dim),
                                                _mode_operator(number, lam, m, n))).real
                     for lam in range(m)])


def one_mode_setup(coupling=0.4, omega=1.3, beta=1.0, hbar=1.0):
    system = SystemSpec(dim=2, h0=0.5 * SX, couplings=(coupling * SZ,), hbar=hbar,
                        beta=beta)
    bath = BathSpec(masses=[1.0], lam=[[omega ** 2]])
    modes = diagonalize_bath(bath)
    g = mode_couplings(modes, bath, system)
    return system, modes, g


def test_no_bath_reduces_to_system_hamiltonian():
    system = spin_system()
    modes = NormalModes(omegas=np.zeros(0), evecs=np.zeros((0, 0)))
    h = build_total_hamiltonian(system, modes, [], TruncatedBath(n_levels=2))
    assert np.array_equal(h, system.h0)


def test_decoupled_spectrum_is_direct_sum():
    system, modes, _ = one_mode_setup(coupling=0.0, omega=2.0)
    g = [np.zeros((2, 2), complex)]
    h = build_total_hamiltonian(system, modes, g, TruncatedBath(n_levels=4))
    evals = np.sort(np.linalg.eigvalsh(h))
    sys_e = np.linalg.eigvalsh(system.h0)
    expect = np.sort([es + 2.0 * (n + 0.5) for es in sys_e for n in range(4)])
    assert np.allclose(evals, expect, atol=1e-12)


def test_hand_built_kronecker_matrix():
    # d_s = 2, one mode with omega = 2, two Fock levels, g = c sz, hbar = 1:
    # x = (a + a^dag)/2, H = h0 (x) I + I (x) diag(1, 3) - c sz (x) x
    c = 0.8
    system = SystemSpec(dim=2, h0=np.array([[0.0, 0.3], [0.3, 0.0]]),
                        couplings=(c * SZ,), hbar=1.0, beta=1.0)
    bath = BathSpec(masses=[1.0], lam=[[4.0]])
    modes = diagonalize_bath(bath)
    g = mode_couplings(modes, bath, system)
    h = build_total_hamiltonian(system, modes, g, TruncatedBath(n_levels=2))
    x = 0.5
    expect = np.array([
        [1.0, -c * x, 0.3, 0.0],
        [-c * x, 3.0, 0.0, 0.3],
        [0.3, 0.0, 1.0, c * x],
        [0.0, 0.3, c * x, 3.0],
    ])
    assert np.allclose(h, expect, atol=1e-14)


def test_cap_enforced():
    system, modes, g = one_mode_setup()
    with pytest.raises(CapExceeded):
        build_total_hamiltonian(system, modes, g, TruncatedBath(n_levels=64, cap=100))


def test_decoupled_reduced_dynamics_is_gibbs():
    system, modes, _ = one_mode_setup(coupling=0.0, beta=0.8)
    g = [np.zeros((2, 2), complex)]
    grids = TimeGrids(t_f=2.0, n_t=9, hbar_beta=0.8, n_tau=4)
    series = exact_reduced_dynamics(system, modes, g, TruncatedBath(n_levels=10), grids)
    gibbs = scipy.linalg.expm(-0.8 * system.h0)
    gibbs = gibbs / np.trace(gibbs)
    for k in range(grids.n_t):
        assert np.abs(series[k] - gibbs).max() < 1e-10


def test_static_reduced_dynamics_is_stationary():
    system, modes, g = one_mode_setup(coupling=0.5)
    grids = TimeGrids(t_f=3.0, n_t=7, hbar_beta=1.0, n_tau=4)
    series = exact_reduced_dynamics(system, modes, g, TruncatedBath(n_levels=12), grids)
    for k in range(1, grids.n_t):
        assert np.abs(series[k] - series[0]).max() < 1e-11


def test_reduced_state_properties():
    system, modes, g = one_mode_setup(coupling=0.6)
    grids = TimeGrids(t_f=1.0, n_t=3, hbar_beta=1.0, n_tau=3)
    series = exact_reduced_dynamics(system, modes, g, TruncatedBath(n_levels=12), grids)
    rho0 = series[0]
    assert abs(np.trace(rho0) - 1.0) < 1e-12
    assert np.abs(rho0 - rho0.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(0.5 * (rho0 + rho0.conj().T)).min() >= -1e-12


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho)
    red = partial_trace_bath(rho, d_sys=3)
    assert abs(np.trace(red) - 1.0) < 1e-12
    assert np.abs(red - red.conj().T).max() < 1e-12


def test_truncation_convergence():
    system, modes, g = one_mode_setup(coupling=0.4)
    grids = TimeGrids(t_f=1.0, n_t=2, hbar_beta=1.0, n_tau=3)
    r10 = exact_reduced_dynamics(system, modes, g, TruncatedBath(n_levels=10), grids)
    r12 = exact_reduced_dynamics(system, modes, g, TruncatedBath(n_levels=12), grids)
    assert np.abs(r10[0] - r12[0]).max() < 1e-6


def test_truncation_warning_when_occupation_high():
    # a hot bath saturates a 2-level truncation: <n> ~ 0.5 > n_levels - 2
    system, modes, g = one_mode_setup(coupling=0.0, omega=0.5, beta=0.05)
    grids = TimeGrids(t_f=1.0, n_t=2, hbar_beta=0.05, n_tau=3)
    with pytest.warns(TruncationWarning):
        exact_reduced_dynamics(system, modes, [np.zeros((2, 2), complex)],
                               TruncatedBath(n_levels=2), grids)


def test_truncation_warning_tracks_thermal_weight():
    # the two-mode acceptance bath (softest mode q = exp(-1.34) = 0.26): at 8
    # states q^n = 2.2e-5 (truncation error 2.6e-6) warns; at 10 states
    # q^n = 1.5e-6 (error 2.4e-7) stays silent
    system = SystemSpec(dim=2, h0=0.5 * SX, couplings=(0.3 * SZ, 0.2 * SZ), hbar=1.0,
                        beta=1.0)
    bath = BathSpec(masses=[1.0, 1.0], lam=[[2.0, -0.5], [-0.5, 3.0]])
    modes = diagonalize_bath(bath)
    g = mode_couplings(modes, bath, system)
    grids = TimeGrids(t_f=1.0, n_t=2, hbar_beta=1.0, n_tau=3)
    with pytest.warns(TruncationWarning):
        exact_reduced_dynamics(system, modes, g, TruncatedBath(n_levels=8), grids)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        exact_reduced_dynamics(system, modes, g, TruncatedBath(n_levels=10), grids)


def test_mode_occupation_matches_bose_factor():
    omega, beta = 1.5, 0.9
    system, modes, _ = one_mode_setup(coupling=0.0, omega=omega, beta=beta)
    g = [np.zeros((2, 2), complex)]
    h = build_total_hamiltonian(system, modes, g, TruncatedBath(n_levels=40))
    rho = thermal_state(h, beta)
    occ = mode_occupations(rho, system, modes, TruncatedBath(n_levels=40))
    nbar = 1.0 / (np.exp(beta * omega) - 1.0)
    assert occ[0] == pytest.approx(nbar, rel=1e-6)


def test_driven_oracle_starts_from_static_equilibrium():
    system, modes, g = one_mode_setup(coupling=0.3)
    grids = TimeGrids(t_f=1.0, n_t=5, hbar_beta=1.0, n_tau=3)
    amps = np.sin(np.linspace(0.0, 1.0, grids.n_t))
    driven = SystemSpec(dim=2, h0=system.h0, couplings=system.couplings, hbar=1.0,
                        beta=1.0, drive=(Drive(matrix=0.4 * SZ, times=grids.t,
                                               amplitudes=amps),))
    static = exact_reduced_dynamics(system, modes, g, TruncatedBath(n_levels=10), grids)
    drv = exact_reduced_dynamics(driven, modes, g, TruncatedBath(n_levels=10), grids)
    assert np.abs(drv[0] - static[0]).max() < 1e-12       # same initial state
    assert np.abs(drv[-1] - static[-1]).max() > 1e-4      # drive moves the state

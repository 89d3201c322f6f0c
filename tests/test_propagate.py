import numpy as np
import pytest
import scipy.linalg

from esln import Drive, SystemSpec, TimeGrids, equilibrate_batch, evolve_batch
from esln.errors import DimensionMismatch
from esln import propagate
from esln.propagate import interpolate_half_grid

from conftest import ID2, SX, SZ, spin_system


def grids_for(system, t_f=1.0, n_t=41, n_tau=41):
    return TimeGrids(t_f=t_f, n_t=n_t,
                                hbar_beta=system.hbar * system.beta, n_tau=n_tau)


def quench(system, mu, grids, substeps=1):
    """One trajectory's normalized rho(hbar*beta) and Tr rho_bar(hbar*beta) / d."""
    rho_end, diverged = equilibrate_batch(system, mu[None], grids, substeps)
    assert not diverged[0]
    tr = np.trace(rho_end[0])
    return rho_end[0] / tr, tr / system.dim


def evolve_one(system, eta, nu, grids, rho0, substeps=1):
    """One trajectory's real-time series (n_t, d, d) from rho0."""
    series, diverged = evolve_batch(system, eta[None], nu[None], grids, rho0[None],
                                    substeps)
    assert not diverged[0]
    return series[0]


def test_interpolation_hits_nodes_and_midpoints():
    samples = np.array([[0.0, 1.0, 3.0]])
    fine = interpolate_half_grid(samples, substeps=1)
    assert np.allclose(fine, [[0.0, 0.5, 1.0, 2.0, 3.0]])
    fine2 = interpolate_half_grid(samples, substeps=2)
    assert np.allclose(fine2, [[0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]])


def test_stage_window_equals_slice_of_whole_interpolation():
    # a window of stages keeps its global positions, so it is the matching
    # slice of one interpolation of the whole grid, bit for bit; a window
    # interpolated from local positions would round differently at substeps 3
    rng = np.random.default_rng(6)
    samples = rng.standard_normal((4, 3, 17)) + 1j * rng.standard_normal((4, 3, 17))
    for substeps in (1, 2, 3):
        whole = interpolate_half_grid(samples, substeps)
        n_stages = whole.shape[-1]
        for stages in (slice(None), slice(0, 7), slice(5, 40), slice(3, n_stages),
                       slice(n_stages - 2, n_stages)):
            got = interpolate_half_grid(samples, substeps, stages)
            assert np.array_equal(got, whole[..., stages]), (substeps, stages)


def _constant_noise_cases():
    rng = np.random.default_rng(4)
    two = SystemSpec(dim=2, h0=0.5 * SX + 0.3 * SZ, couplings=(SZ, 0.6 * SX), hbar=0.7,
                     beta=1.0)
    rho_two = 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    zero_h = dict(dim=2, h0=np.zeros((2, 2)), couplings=(SX,), beta=1.0)
    return {
        # H = 0 and a zero coupling leave the identity fixed
        "identity": (spin_system(coupling=0.0), [0.0], [0.0], ID2),
        # H = 0, eta = 1, f = sx: rho' = -[sx, rho] / i hbar, so sz -> 2 sy / hbar at t = 0
        "commutator": (SystemSpec(hbar=1.0, **zero_h), [1.0], [0.0], SZ),
        # H = 0, nu = 2/hbar, f = sx: rho' = -{sx, rho} / (i hbar), so sx -> 2i I / hbar
        "anticommutator": (SystemSpec(hbar=0.7, **zero_h), [0.0], [2.0 / 0.7], SX),
        "two_couplings": (two, 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)),
                          0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)),
                          rho_two),
    }


@pytest.mark.parametrize("case", list(_constant_noise_cases()))
def test_constant_noise_matches_exact_propagators(case):
    # with constant noise rho(t) = exp(-i H+ t / hbar) rho0 exp(i H- t / hbar),
    # H+- = H0 - sum_i (eta_i +- hbar nu_i / 2) f_i
    system, eta, nu, rho0 = _constant_noise_cases()[case]
    eta, nu = np.asarray(eta, complex), np.asarray(nu, complex)
    grids = grids_for(system, t_f=1.0, n_t=201)
    f = system.coupling_stack()
    h_p = system.h0 - np.einsum("i,ijk->jk", eta + 0.5 * system.hbar * nu, f)
    h_m = system.h0 - np.einsum("i,ijk->jk", eta - 0.5 * system.hbar * nu, f)
    ones = np.ones(grids.n_t)
    series = evolve_one(system, eta[:, None] * ones, nu[:, None] * ones, grids,
                        np.asarray(rho0, complex))
    for k, t in enumerate(grids.t):
        exact = (scipy.linalg.expm(-1j * h_p * t / system.hbar) @ rho0
                 @ scipy.linalg.expm(1j * h_m * t / system.hbar))
        assert np.abs(series[k] - exact).max() < 1e-8, (k, t)


def test_equilibrate_reaches_gibbs_state():
    e1 = 1.3
    system = SystemSpec(dim=2, h0=np.diag([0.0, e1]), couplings=(SZ,), hbar=1.0,
                        beta=0.7)
    grids = grids_for(system, n_tau=81)
    rho0, z = quench(system, np.zeros((1, grids.n_tau), complex), grids)
    gibbs = np.diag([1.0, np.exp(-0.7 * e1)])
    gibbs = gibbs / np.trace(gibbs)
    assert np.abs(rho0 - gibbs).max() < 1e-8
    assert abs(np.trace(rho0) - 1.0) < 1e-12


def test_equilibrate_infinite_temperature_limit():
    system = SystemSpec(dim=3, h0=np.diag([0.0, 1.0, 2.0]), couplings=(), hbar=1.0,
                        beta=1e-9)
    grids = grids_for(system, n_tau=2)
    rho0, z = quench(system, np.zeros((0, grids.n_tau), complex), grids)
    assert np.abs(rho0 - np.eye(3) / 3).max() < 1e-8


def test_equilibrate_identity_coupling_shifts_only_normalization():
    system = SystemSpec(dim=2, h0=0.5 * SX, couplings=(ID2,), hbar=1.0, beta=1.0)
    grids = grids_for(system, n_tau=101)
    rng = np.random.default_rng(0)
    mu = (rng.standard_normal((1, grids.n_tau)) * 0.4
          + 1j * rng.standard_normal((1, grids.n_tau)) * 0.2)
    rho0, z = quench(system, mu, grids)
    gibbs = scipy.linalg.expm(-system.h0)
    gibbs = gibbs / np.trace(gibbs)
    assert np.abs(rho0 - gibbs).max() < 1e-8
    assert abs(z - 1.0) > 1e-6          # the shift went into the normalization


def test_evolve_matches_unitary_oracle():
    system = SystemSpec(dim=2, h0=SZ, couplings=(SZ,), hbar=0.9, beta=1.0)
    grids = grids_for(system, t_f=2.0, n_t=201)
    zeros = np.zeros((1, grids.n_t), complex)
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], complex)
    series = evolve_one(system, zeros, zeros, grids, plus)
    for k in (50, 200):
        t = grids.t[k]
        u = scipy.linalg.expm(-1j * system.h0 * t / system.hbar)
        expect = u @ plus @ u.conj().T
        assert np.abs(series[k] - expect).max() < 1e-8
        # off-diagonal rotates as exp(-2 i t / hbar)
        assert series[k][0, 1] == pytest.approx(
            0.5 * np.exp(-2j * t / system.hbar), abs=1e-8)


def test_evolve_real_eta_keeps_hermiticity_and_trace():
    system = spin_system()
    grids = grids_for(system, n_t=101)
    rng = np.random.default_rng(1)
    eta = rng.standard_normal((1, grids.n_t)).astype(complex)
    rho0 = np.array([[0.7, 0.2], [0.2, 0.3]], complex)
    series = evolve_one(system, eta, np.zeros_like(eta), grids, rho0)
    assert np.array_equal(series[0], rho0)
    final = series[-1]
    assert np.abs(final - final.conj().T).max() < 1e-10
    assert abs(np.trace(final) - 1.0) < 1e-10


def test_evolve_decoupled_ignores_noise():
    system = SystemSpec(dim=2, h0=0.5 * SX, couplings=(np.zeros((2, 2)),),
                        hbar=1.0, beta=1.0)
    grids = grids_for(system, n_t=51)
    rng = np.random.default_rng(2)
    eta = rng.standard_normal((1, grids.n_t)) + 1j * rng.standard_normal((1, grids.n_t))
    nu = rng.standard_normal((1, grids.n_t)) + 1j * rng.standard_normal((1, grids.n_t))
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], complex)
    series = evolve_one(system, eta, nu, grids, rho0)
    u = scipy.linalg.expm(-1j * system.h0 * grids.t_f)
    assert np.abs(series[-1] - u @ rho0 @ u.conj().T).max() < 1e-9


def smooth_noise(grids, scale=0.6):
    """Analytically smooth eta, nu (1, n_t) and mu (1, n_tau) on the grids (for
    order checks)."""
    t = grids.t[None, :]
    tau = grids.tau[None, :]
    eta = scale * (np.sin(1.7 * t) + 0.3j * np.cos(0.9 * t))
    nu = scale * (0.4 * np.cos(2.1 * t) - 0.2j * np.sin(1.1 * t))
    mu = scale * (np.cos(1.3 * tau) + 0.25j * tau)
    return eta, nu, mu


def test_rk4_order_on_smooth_trajectory():
    system = spin_system()
    grids = grids_for(system, t_f=1.0, n_t=11, n_tau=11)
    eta, nu, mu = smooth_noise(grids)
    rho0, _ = quench(system, mu, grids, substeps=4)
    ref = evolve_one(system, eta, nu, grids, rho0, substeps=4)[-1]
    e1 = np.abs(evolve_one(system, eta, nu, grids, rho0, substeps=1)[-1] - ref).max()
    e2 = np.abs(evolve_one(system, eta, nu, grids, rho0, substeps=2)[-1] - ref).max()
    factor = e1 / e2
    assert 12.0 <= factor <= 20.0, factor


def u_pm_reference(system, eta, nu, grids, rho0):
    """rho(t_f) = U+ rho0 U- with the two one-sided propagators, each stepped by
    the same RK4 rule and stage-grid noise as evolve_batch (undriven systems)."""
    hbar, f, h = system.hbar, system.coupling_stack(), grids.dt
    co_p = interpolate_half_grid(eta + 0.5 * hbar * nu, 1)
    co_m = interpolate_half_grid(eta - 0.5 * hbar * nu, 1)

    def h_mix(co, stage):
        return system.h0 - np.einsum("i,ijk->jk", co[:, stage], f)

    def rk4(rhs):
        u = np.eye(system.dim, dtype=complex)
        for s in range(grids.n_t - 1):
            k1 = rhs(2 * s, u)
            k2 = rhs(2 * s + 1, u + 0.5 * h * k1)
            k3 = rhs(2 * s + 1, u + 0.5 * h * k2)
            k4 = rhs(2 * s + 2, u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return u

    u_p = rk4(lambda st, u: -1j / hbar * (h_mix(co_p, st) @ u))
    u_m = rk4(lambda st, u: 1j / hbar * (u @ h_mix(co_m, st)))
    return u_p @ rho0 @ u_m


def test_u_pm_formulation_agrees_with_direct():
    system = spin_system()
    grids = grids_for(system, t_f=1.0, n_t=201, n_tau=21)
    eta, nu, mu = smooth_noise(grids, scale=0.5)
    rho0, _ = quench(system, mu, grids)
    direct = evolve_one(system, eta, nu, grids, rho0)[-1]
    u_pm = u_pm_reference(system, eta, nu, grids, rho0)
    assert np.abs(direct - u_pm).max() < 1e-8


def test_evolve_linear_in_initial_state():
    system = spin_system()
    grids = grids_for(system, n_t=31)
    eta, nu, _ = smooth_noise(grids)
    rng = np.random.default_rng(3)
    rho_a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho_b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    alpha = 0.37 - 0.21j
    sa, _ = evolve_batch(system, eta[None], nu[None], grids, rho_a[None])
    sb, _ = evolve_batch(system, eta[None], nu[None], grids, rho_b[None])
    sc, _ = evolve_batch(system, eta[None], nu[None], grids,
                         (alpha * rho_a + rho_b)[None])
    assert np.abs(alpha * sa + sb - sc).max() < 1e-12


def test_trace_identity_of_generator():
    # Tr is conserved by the commutator part; the anticommutator part gives
    # d Tr(rho)/dt = i sum_i nu_i Tr(f_i rho) for the implemented generator.
    system = spin_system()
    grids = grids_for(system, t_f=0.8, n_t=801, n_tau=11)
    eta, nu, _ = smooth_noise(grids, scale=0.4)
    rho0 = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]], complex)
    series, diverged = evolve_batch(system, eta[None], nu[None], grids, rho0[None])
    assert not diverged[0]
    traces = np.einsum("tii->t", series[0])
    f = system.couplings[0]
    integrand = np.array([
        1j * nu[0, k] * np.trace(f @ series[0, k]) for k in range(grids.n_t)])
    predicted = np.array([
        1.0 + np.trapezoid(integrand[:k + 1], dx=grids.dt) for k in range(grids.n_t)])
    assert np.abs(traces - predicted).max() < 5e-6


def test_divergence_detected_and_reported():
    system = SystemSpec(dim=2, h0=np.zeros((2, 2)), couplings=(ID2,), hbar=1.0,
                        beta=1.0)
    grids = grids_for(system, n_tau=21)
    # |mu| ~ 1e6 amplifies every RK4 step by ~(mu dtau)^4/24, overflowing the quench
    mu = np.full((1, grids.n_tau), 1e6, dtype=complex)
    _, flags = equilibrate_batch(system, mu[None], grids)
    assert flags[0]


def test_drive_amplitude_count_must_match_grid():
    # drive amplitudes are samples on the real-time grid, one per grid time
    grids = TimeGrids(t_f=1.0, n_t=11, hbar_beta=1.0, n_tau=3)
    eta = np.zeros((1, 1, grids.n_t), complex)
    for n_amps in (grids.n_t - 1, grids.n_t + 1):
        system = spin_system(drive=(Drive(matrix=SZ, amplitudes=np.ones(n_amps)),))
        with pytest.raises(DimensionMismatch):
            evolve_batch(system, eta, eta, grids, ID2[None])


def _random_hermitian(rng, d, scale):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (a + a.conj().T) / 2


def _random_noise(rng, shape, scale):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _assert_rows_close(batch, single, tol=1e-14):
    assert np.abs(batch - single).max() <= tol * np.abs(single).max()


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("size", ["1", "d", "7"])
def test_batch_rows_equal_single_trajectories(d, size):
    # B = d is the size at which a trajectory axis swapped with a matrix axis
    # would still broadcast; each row must be its own trajectory run alone
    b = {"1": 1, "d": d, "7": 7}[size]
    rng = np.random.default_rng(10 * d + b)
    grids = TimeGrids(t_f=1.0, n_t=21, hbar_beta=0.8 * 1.2, n_tau=11)
    drive = Drive(matrix=_random_hermitian(rng, d, 0.4), amplitudes=np.sin(3.0 * grids.t))
    system = SystemSpec(dim=d, h0=_random_hermitian(rng, d, 0.5),
                        couplings=(_random_hermitian(rng, d, 0.3),
                                   _random_hermitian(rng, d, 0.3)),
                        hbar=0.8, beta=1.2, drive=(drive,))
    mu = _random_noise(rng, (b, 2, grids.n_tau), 0.3)
    eta = _random_noise(rng, (b, 2, grids.n_t), 0.3)
    nu = _random_noise(rng, (b, 2, grids.n_t), 0.3)
    rho_end, div_imag = equilibrate_batch(system, mu, grids, substeps=2)
    series, div_real = evolve_batch(system, eta, nu, grids, rho_end, substeps=2)
    assert rho_end.shape == (b, d, d) and series.shape == (b, grids.n_t, d, d)
    assert not div_imag.any() and not div_real.any()
    for k in range(b):
        one_end, _ = equilibrate_batch(system, mu[k:k + 1], grids, substeps=2)
        one_series, _ = evolve_batch(system, eta[k:k + 1], nu[k:k + 1], grids, one_end,
                                     substeps=2)
        _assert_rows_close(rho_end[k], one_end[0])
        _assert_rows_close(series[k], one_series[0])


def test_divergence_in_mixed_batch_zeroes_only_its_row():
    system = spin_system()
    grids = grids_for(system, n_t=41, n_tau=21)
    rng = np.random.default_rng(5)
    mu = _random_noise(rng, (3, 1, grids.n_tau), 0.3)
    eta = _random_noise(rng, (3, 1, grids.n_t), 0.3)
    nu = _random_noise(rng, (3, 1, grids.n_t), 0.3)
    outer = [0, 2]
    rho0 = np.broadcast_to(ID2, (3, 2, 2))

    # imaginary time: a 1e6 noise overflows the middle quench within a few steps
    loud = mu.copy()
    loud[1] = 1e6
    rho_end, flags = equilibrate_batch(system, loud, grids)
    assert flags.tolist() == [False, True, False]
    assert not rho_end[1].any()
    pair, pair_flags = equilibrate_batch(system, mu[outer], grids)
    assert not pair_flags.any()
    for row, k in zip(pair, outer):
        _assert_rows_close(rho_end[k], row)

    # real time: the same for a 1e6 eta, and the whole middle series is zero
    loud = eta.copy()
    loud[1] = 1e6
    series, flags = evolve_batch(system, loud, nu, grids, rho0)
    assert flags.tolist() == [False, True, False]
    assert not series[1].any()
    pair, pair_flags = evolve_batch(system, eta[outer], nu[outer], grids, rho0[outer])
    assert not pair_flags.any()
    for row, k in zip(pair, outer):
        _assert_rows_close(series[k], row)


def test_block_intervals_never_change_bits(monkeypatch):
    # the steps run in blocks of BLOCK_INTERVALS grid intervals, and each
    # block's stage generators are a slice of the whole grid's: the block
    # length moves no bit of either phase
    rng = np.random.default_rng(11)
    grids = TimeGrids(t_f=1.5, n_t=61, hbar_beta=0.8 * 1.2, n_tau=21)
    drive = Drive(matrix=_random_hermitian(rng, 2, 0.4), amplitudes=np.sin(3.0 * grids.t))
    system = SystemSpec(dim=2, h0=_random_hermitian(rng, 2, 0.5),
                        couplings=(_random_hermitian(rng, 2, 0.3),
                                   _random_hermitian(rng, 2, 0.3)),
                        hbar=0.8, beta=1.2, drive=(drive,))
    mu, eta, nu = (_random_noise(rng, (5, 2, n), 0.3)
                   for n in (grids.n_tau, grids.n_t, grids.n_t))
    mu[2] = 1e6                     # one quench diverges, so the masks are tested too
    for substeps in (1, 2, 3):
        runs = []
        for block in (1, 7, 32, 10_000):
            monkeypatch.setattr(propagate, "BLOCK_INTERVALS", block)
            rho_end, div_imag = equilibrate_batch(system, mu, grids, substeps)
            series, div_real = evolve_batch(system, eta, nu, grids, rho_end, substeps)
            runs.append((rho_end, div_imag, series, div_real))
        assert runs[0][1].tolist() == [False, False, True, False, False]
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert np.array_equal(got, want), substeps


def test_divergence_in_a_later_block_zeroes_only_its_row():
    # the middle row's eta is huge only from grid interval BLOCK_INTERVALS on,
    # so it stays finite through the first block and dies in the second
    system = spin_system()
    n_block = propagate.BLOCK_INTERVALS
    grids = grids_for(system, t_f=2.0, n_t=2 * n_block + 17, n_tau=11)
    rng = np.random.default_rng(8)
    eta = _random_noise(rng, (3, 1, grids.n_t), 0.3)
    nu = _random_noise(rng, (3, 1, grids.n_t), 0.3)
    rho0 = np.broadcast_to(ID2, (3, 2, 2))
    loud = eta.copy()
    loud[1, :, n_block + 1:] = 1e6

    first = TimeGrids(t_f=grids.t[n_block], n_t=n_block + 1, hbar_beta=grids.hbar_beta,
                      n_tau=grids.n_tau)
    _, flags = evolve_batch(system, loud[..., :n_block + 1], nu[..., :n_block + 1], first,
                            rho0)
    assert not flags.any()
    series, flags = evolve_batch(system, loud, nu, grids, rho0)
    assert flags.tolist() == [False, True, False]
    assert not series[1].any()
    outer = [0, 2]
    pair, pair_flags = evolve_batch(system, eta[outer], nu[outer], grids, rho0[outer])
    assert not pair_flags.any()
    assert np.array_equal(series[outer], pair)

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from esln import Drive, SystemSpec, TimeGrids, equilibrate_batch, evolve_batch
from esln.errors import DimensionMismatch
from esln import propagate
from esln.propagate import interpolate_half_grid
from esln.workspace import Workspace

from conftest import ID2, SX, SZ, halved, spin_system


def grids_for(system, t_f=1.0, n_t=41, n_tau=41):
    return TimeGrids(t_f=t_f, n_t=n_t,
                                hbar_beta=system.hbar * system.beta, n_tau=n_tau)


def quench(system, mu, grids):
    """One trajectory's normalized rho(hbar*beta) and Tr rho_bar(hbar*beta) / d."""
    rho_end, diverged = equilibrate_batch(system, mu[..., None], grids)
    assert not diverged[0]
    tr = np.trace(rho_end[..., 0])
    return rho_end[..., 0] / tr, tr / system.dim


def evolve_one(system, eta, nu, grids, rho0):
    """One trajectory's real-time series (n_t, d, d) from rho0."""
    series, diverged = evolve_batch(system, eta[..., None], nu[..., None], grids,
                                    rho0[..., None])
    assert not diverged[0]
    return series[..., 0]


def _clipped_index_interpolation(samples):
    """The general linear interpolation onto positions j / 2, from the clipped
    node index below each position and its fraction past it."""
    n = samples.shape[-1]
    pos = np.arange(2 * n - 1) / 2.0
    idx = np.minimum(pos.astype(int), n - 2)
    frac = pos - idx
    return samples[..., idx] * (1.0 - frac) + samples[..., idx + 1] * frac


def test_interpolation_hits_nodes_and_midpoints():
    samples = np.array([[0.0, 1.0, 3.0]])
    fine = interpolate_half_grid(samples)
    assert np.allclose(fine, [[0.0, 0.5, 1.0, 2.0, 3.0]])
    # halving twice samples the same piecewise-linear function at quarters
    fine2 = interpolate_half_grid(fine)
    assert np.allclose(fine2, [[0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]])
    # nodes and halved sums are the general formula's bits, at any magnitude
    # short of overflow and the subnormals
    rng = np.random.default_rng(9)
    size = 10.0 ** rng.uniform(-300, 300, (2, 6, 33))
    wide = size[0] * rng.choice([-1.0, 1.0], size[0].shape)
    wide_complex = wide + 1j * size[1] * rng.choice([-1.0, 1.0], size[1].shape)
    for samples in (wide, wide_complex):
        got = interpolate_half_grid(samples)
        assert got.dtype == samples.dtype
        assert np.array_equal(got, _clipped_index_interpolation(samples))


def test_stage_window_equals_slice_of_whole_interpolation():
    # the window between grid nodes lo and hi is the slice of stages 2 lo to
    # 2 hi of one interpolation of the whole grid, bit for bit
    rng = np.random.default_rng(6)
    samples = rng.standard_normal((4, 3, 17)) + 1j * rng.standard_normal((4, 3, 17))
    whole = interpolate_half_grid(samples).copy()
    for lo, hi in ((0, 16), (3, 9), (12, 16), (5, 5)):
        got = interpolate_half_grid(samples, nodes=slice(lo, hi + 1))
        assert np.array_equal(got, whole[..., 2 * lo:2 * hi + 1]), (lo, hi)


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
    grids2, eta2, nu2, mu2 = halved(grids, eta, nu, mu)
    grids4, eta4, nu4, mu4 = halved(grids2, eta2, nu2, mu2)
    rho0, _ = quench(system, mu4, grids4)
    ref = evolve_one(system, eta4, nu4, grids4, rho0)[-1]
    e1 = np.abs(evolve_one(system, eta, nu, grids, rho0)[-1] - ref).max()
    e2 = np.abs(evolve_one(system, eta2, nu2, grids2, rho0)[-1] - ref).max()
    factor = e1 / e2
    assert 12.0 <= factor <= 20.0, factor


def u_pm_reference(system, eta, nu, grids, rho0):
    """rho(t_f) = U+ rho0 U- with the two one-sided propagators, each stepped by
    the same RK4 rule and stage-grid noise as evolve_batch (undriven systems)."""
    hbar, f, h = system.hbar, system.coupling_stack(), grids.dt
    co_p = interpolate_half_grid(eta + 0.5 * hbar * nu)
    co_m = interpolate_half_grid(eta - 0.5 * hbar * nu)

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
    sa = evolve_one(system, eta, nu, grids, rho_a)
    sb = evolve_one(system, eta, nu, grids, rho_b)
    sc = evolve_one(system, eta, nu, grids, alpha * rho_a + rho_b)
    assert np.abs(alpha * sa + sb - sc).max() < 1e-12


def test_trace_identity_of_generator():
    # Tr is conserved by the commutator part; the anticommutator part gives
    # d Tr(rho)/dt = i sum_i nu_i Tr(f_i rho) for the implemented generator.
    system = spin_system()
    grids = grids_for(system, t_f=0.8, n_t=801, n_tau=11)
    eta, nu, _ = smooth_noise(grids, scale=0.4)
    rho0 = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]], complex)
    series = evolve_one(system, eta, nu, grids, rho0)
    traces = np.einsum("tii->t", series)
    f = system.couplings[0]
    integrand = np.array([
        1j * nu[0, k] * np.trace(f @ series[k]) for k in range(grids.n_t)])
    predicted = np.array([
        1.0 + np.trapezoid(integrand[:k + 1], dx=grids.dt) for k in range(grids.n_t)])
    assert np.abs(traces - predicted).max() < 5e-6


def test_divergence_detected_and_reported():
    system = SystemSpec(dim=2, h0=np.zeros((2, 2)), couplings=(ID2,), hbar=1.0,
                        beta=1.0)
    grids = grids_for(system, n_tau=21)
    # |mu| ~ 1e6 amplifies every RK4 step by ~(mu dtau)^4/24, overflowing the quench
    mu = np.full((1, grids.n_tau), 1e6, dtype=complex)
    _, flags = equilibrate_batch(system, mu[..., None], grids)
    assert flags[0]


def test_drive_amplitude_count_must_match_grid():
    # drive amplitudes are samples on the real-time grid, one per grid time
    grids = TimeGrids(t_f=1.0, n_t=11, hbar_beta=1.0, n_tau=3)
    eta = np.zeros((1, grids.n_t, 1), complex)
    for n_amps in (grids.n_t - 1, grids.n_t + 1):
        system = spin_system(drive=(Drive(matrix=SZ, amplitudes=np.ones(n_amps)),))
        with pytest.raises(DimensionMismatch):
            evolve_batch(system, eta, eta, grids, ID2[..., None])


def test_batch_functions_refuse_trajectory_first_fields():
    # the fields are (r, n, B); a (B, r, n) array is refused, also at B = r,
    # where only the time axis tells the two layouts apart
    system = SystemSpec(dim=2, h0=0.5 * SX, couplings=(SZ, 0.6 * SX), hbar=1.0, beta=1.0)
    grids = grids_for(system, n_t=5, n_tau=4)
    for b in (system.n_sites, 3):
        rho0 = np.broadcast_to(ID2[..., None], (2, 2, b))
        mu = np.zeros((system.n_sites, grids.n_tau, b), complex)
        eta = np.zeros((system.n_sites, grids.n_t, b), complex)
        assert not equilibrate_batch(system, mu, grids)[1].any()
        assert not evolve_batch(system, eta, eta, grids, rho0)[1].any()
        with pytest.raises(DimensionMismatch):
            equilibrate_batch(system, mu.transpose(2, 0, 1), grids)
        with pytest.raises(DimensionMismatch):
            evolve_batch(system, eta.transpose(2, 0, 1), eta.transpose(2, 0, 1), grids, rho0)
        with pytest.raises(DimensionMismatch):
            evolve_batch(system, eta, eta[:, :, :1], grids, rho0)


def test_evolve_batch_refuses_a_rho0_of_another_batch_size():
    # rho0 is (d, d, B) with the fields' B: another B, or the (B, d, d)
    # trajectory-first stack, is refused
    system = spin_system()
    grids = grids_for(system, n_t=5, n_tau=4)
    eta = np.zeros((1, grids.n_t, 3), complex)
    for rho0 in (np.broadcast_to(ID2[..., None], (2, 2, 2)),
                 np.broadcast_to(ID2[..., None], (2, 2, 4)),
                 np.broadcast_to(ID2, (3, 2, 2))):
        with pytest.raises(DimensionMismatch):
            evolve_batch(system, eta, eta, grids, rho0)


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
    mu = _random_noise(rng, (2, grids.n_tau, b), 0.3)
    eta = _random_noise(rng, (2, grids.n_t, b), 0.3)
    nu = _random_noise(rng, (2, grids.n_t, b), 0.3)
    # two steps per interval, as a finer reference run takes them
    amps = interpolate_half_grid(drive.amplitudes)
    grids, mu, eta, nu = halved(grids, mu, eta, nu, axis=1)
    system = replace(system, drive=(replace(drive, amplitudes=amps),))
    # the results are the workspace's "state" and "series", not copies, and
    # the state lasts through the real-time run
    work = Workspace()
    rho_end, div_imag = equilibrate_batch(system, mu, grids, work=work)
    series, div_real = evolve_batch(system, eta, nu, grids, rho_end, work=work)
    assert np.shares_memory(rho_end, work.array("state", rho_end.shape))
    assert np.shares_memory(series, work.array("series", series.shape))
    assert rho_end.shape == (d, d, b) and series.shape == (grids.n_t, d, d, b)
    assert not div_imag.any() and not div_real.any()
    for k in range(b):
        one_end, _ = equilibrate_batch(system, mu[..., k:k + 1], grids)
        one_series, _ = evolve_batch(system, eta[..., k:k + 1], nu[..., k:k + 1], grids,
                                     one_end)
        _assert_rows_close(rho_end[..., k], one_end[..., 0])
        _assert_rows_close(series[..., k], one_series[..., 0])


def _mixed_batch_systems():
    """A spin, and a driven d = 3 system of two channels in which entry (0, 2)
    has no coupling (a plain fill), (0, 1) only the second's and (0, 0) only
    the first's; each with its grids."""
    rng = np.random.default_rng(12)
    spin = spin_system()
    yield spin, grids_for(spin, n_t=41, n_tau=21)
    grids = TimeGrids(t_f=1.5, n_t=41, hbar_beta=0.8 * 1.2, n_tau=21)
    first = np.diag([0.3, -0.2, 0.0])
    second = np.zeros((3, 3))
    second[0, 1] = second[1, 0] = 0.25
    second[1, 1] = 0.1
    drive = Drive(matrix=_random_hermitian(rng, 3, 0.4), amplitudes=np.sin(3.0 * grids.t))
    yield SystemSpec(dim=3, h0=_random_hermitian(rng, 3, 0.5), couplings=(first, second),
                     hbar=0.8, beta=1.2, drive=(drive,)), grids


def test_divergence_in_mixed_batch_zeroes_only_its_row():
    for system, grids in _mixed_batch_systems():
        rng = np.random.default_rng(5)
        r, d = system.n_sites, system.dim
        mu = _random_noise(rng, (r, grids.n_tau, 3), 0.3)
        eta = _random_noise(rng, (r, grids.n_t, 3), 0.3)
        nu = _random_noise(rng, (r, grids.n_t, 3), 0.3)
        outer = [0, 2]
        rho0 = np.broadcast_to(np.eye(d)[..., None], (d, d, 3))

        # imaginary time: a 1e6 noise overflows the middle quench within a few steps
        loud = mu.copy()
        loud[..., 1] = 1e6
        rho_end, flags = equilibrate_batch(system, loud, grids)
        assert flags.tolist() == [False, True, False]
        assert not rho_end[..., 1].any()
        pair, pair_flags = equilibrate_batch(system, mu[..., outer], grids)
        assert not pair_flags.any()
        for j, k in enumerate(outer):
            _assert_rows_close(rho_end[..., k], pair[..., j])

        # real time: the same for a 1e6 eta, and the whole middle series is zero
        loud = eta.copy()
        loud[..., 1] = 1e6
        series, flags = evolve_batch(system, loud, nu, grids, rho0)
        assert flags.tolist() == [False, True, False]
        assert not series[..., 1].any()
        pair, pair_flags = evolve_batch(system, eta[..., outer], nu[..., outer], grids,
                                        rho0[..., outer])
        assert not pair_flags.any()
        for j, k in enumerate(outer):
            _assert_rows_close(series[..., k], pair[..., j])


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
    mu, eta, nu = (_random_noise(rng, (2, n, 5), 0.3)
                   for n in (grids.n_tau, grids.n_t, grids.n_t))
    mu[..., 2] = 1e6                # one quench diverges, so the masks are tested too
    runs = []
    for block in (1, 7, 32, 10_000):
        monkeypatch.setattr(propagate, "BLOCK_INTERVALS", block)
        rho_end, div_imag = equilibrate_batch(system, mu, grids)
        series, div_real = evolve_batch(system, eta, nu, grids, rho_end)
        runs.append((rho_end, div_imag, series, div_real))
    assert runs[0][1].tolist() == [False, False, True, False, False]
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want)


def test_work_and_stages_are_keyword_only():
    # a step count passed by position, as an older signature took one, binds
    # to neither ``work`` nor ``nodes``
    system = spin_system()
    grids = grids_for(system, n_t=5, n_tau=5)
    mu = np.zeros((1, grids.n_tau, 1), complex)
    eta = np.zeros((1, grids.n_t, 1), complex)
    with pytest.raises(TypeError):
        equilibrate_batch(system, mu, grids, 2)
    with pytest.raises(TypeError):
        evolve_batch(system, eta, eta, grids, ID2[..., None], 2)
    with pytest.raises(TypeError):
        interpolate_half_grid(eta, 2)


def test_divergence_in_a_later_block_zeroes_only_its_row():
    # the middle row's eta is huge only from grid interval BLOCK_INTERVALS on,
    # so it stays finite through the first block and dies in the second
    system = spin_system()
    n_block = propagate.BLOCK_INTERVALS
    grids = grids_for(system, t_f=2.0, n_t=2 * n_block + 17, n_tau=11)
    rng = np.random.default_rng(8)
    eta = _random_noise(rng, (1, grids.n_t, 3), 0.3)
    nu = _random_noise(rng, (1, grids.n_t, 3), 0.3)
    rho0 = np.broadcast_to(ID2[..., None], (2, 2, 3))
    loud = eta.copy()
    loud[:, n_block + 1:, 1] = 1e6

    first = TimeGrids(t_f=grids.t[n_block], n_t=n_block + 1, hbar_beta=grids.hbar_beta,
                      n_tau=grids.n_tau)
    _, flags = evolve_batch(system, loud[:, :n_block + 1], nu[:, :n_block + 1], first, rho0)
    assert not flags.any()
    series, flags = evolve_batch(system, loud, nu, grids, rho0)
    assert flags.tolist() == [False, True, False]
    assert not series[..., 1].any()
    outer = [0, 2]
    pair, pair_flags = evolve_batch(system, eta[..., outer], nu[..., outer], grids,
                                    rho0[..., outer])
    assert not pair_flags.any()
    assert np.array_equal(series[..., outer], pair)

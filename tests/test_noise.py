import numpy as np
import pytest

from esln import (KernelContext, TimeGrids, build_covariance, diagonalize_bath,
                  factorize, hs_identity_check, takagi, verify_empirical)
from esln.errors import CapExceeded, FactorizationFailure
from esln.kernels import k_complex
from esln.noise import NoiseCovariance, NoiseFactor, derive_seed, draw_normal, unpack

from conftest import coth, k_complex_printed_split


def test_grid_endpoints():
    g = TimeGrids.from_spans(t_f=4.0, n_t=5, hbar_beta=2.0, n_tau=3)
    assert g.t[0] == 0.0 and g.t[-1] == pytest.approx(4.0, abs=1e-15)
    assert g.tau[0] == 0.0 and g.tau[-1] == pytest.approx(2.0, abs=1e-15)
    assert g.dt == pytest.approx(1.0) and g.dtau == pytest.approx(1.0)
    with pytest.raises(ValueError):
        TimeGrids.from_spans(t_f=1.0, n_t=1, hbar_beta=1.0, n_tau=3)


def test_empty_bath_covariance(small_grids):
    bath_ctx = KernelContext.from_bath(
        __import__("esln").BathSpec(masses=[], lam=np.zeros((0, 0))),
        diagonalize_bath(__import__("esln").BathSpec(masses=[], lam=np.zeros((0, 0)))),
        hbar=1.0, beta=1.0)
    cov = build_covariance(bath_ctx, small_grids)
    assert cov.dim == 0
    assert cov.sigma.shape == (0, 0)
    factor = factorize(cov)
    assert factor.rank == 0


def test_covariance_dimensions_and_symmetry(ctx_one_mode, small_grids):
    cov = build_covariance(ctx_one_mode, small_grids)
    assert cov.dim == 1 * (2 * small_grids.n_t + small_grids.n_tau)
    assert np.array_equal(cov.sigma, cov.sigma.T)


def test_zero_lag_eta_variance(ctx_two_mode):
    grids = TimeGrids.from_spans(t_f=1.0, n_t=5, hbar_beta=ctx_two_mode.hbar_beta,
                                 n_tau=4)
    cov = build_covariance(ctx_two_mode, grids)
    hbar = ctx_two_mode.hbar
    for i in range(2):
        idx = cov.index("eta", i, 2)
        expect = hbar * sum(
            ctx_two_mode.modes.evecs[i, lam] ** 2
            * coth(0.5 * ctx_two_mode.hbar_beta * ctx_two_mode.modes.omegas[lam])
            / (2 * ctx_two_mode.modes.omegas[lam] * ctx_two_mode.masses[i])
            for lam in range(2))
        assert cov.sigma[idx, idx] == pytest.approx(expect, rel=1e-12)


def test_eta_nu_block_is_causal(ctx_one_mode, small_grids):
    cov = build_covariance(ctx_one_mode, small_grids)
    blk = cov.block("eta", "nu")
    n_t = small_grids.n_t
    for k in range(n_t):
        for l in range(n_t):
            if l > k:
                assert blk[k, l] == 0.0
            assert blk[k, l].real == 0.0      # block is purely imaginary


def test_nu_blocks_exactly_zero(ctx_two_mode):
    grids = TimeGrids.from_spans(t_f=1.5, n_t=7, hbar_beta=ctx_two_mode.hbar_beta,
                                 n_tau=5)
    cov = build_covariance(ctx_two_mode, grids)
    assert np.all(cov.block("nu", "nu") == 0.0)
    assert np.all(cov.block("nu", "mu") == 0.0)


def test_eta_eta_block_toeplitz(ctx_one_mode, small_grids):
    cov = build_covariance(ctx_one_mode, small_grids)
    blk = cov.block("eta", "eta")
    assert np.array_equal(blk[1:, 1:], blk[:-1, :-1])


def test_mu_mu_block_matches_split_kernels(ctx_one_mode, small_grids):
    # hbar [K^e(d) - K^o(|d|)] with K^e = cosh(w d) coth X / (2w), K^o = sinh(w d) / (2w);
    # one unit-mass site, so L = K.
    cov = build_covariance(ctx_one_mode, small_grids)
    blk = cov.block("mu", "mu")
    w = ctx_one_mode.modes.omegas[0]
    cth = coth(0.5 * ctx_one_mode.hbar_beta * w)
    d = small_grids.tau[:, None] - small_grids.tau[None, :]
    expect = ctx_one_mode.hbar * (np.cosh(w * d) * cth - np.sinh(w * np.abs(d))) / (2 * w)
    assert np.all(np.abs(blk - expect) <= 1e-10 * np.abs(expect))


def test_cross_kernel_variants_differ(ctx_one_mode, small_grids):
    # the eta-mu block is +hbar L(t - i(hbar*beta - tau)); the sign-flipped
    # -hbar L(t - i tau) forms (master kernel or wrong split) are different
    cov = build_covariance(ctx_one_mode, small_grids)
    hbar, hb = ctx_one_mode.hbar, ctx_one_mode.hbar_beta
    t, tau = small_grids.t[:, None], small_grids.tau[None, :]
    blk = cov.block("eta", "mu")
    assert np.abs(blk - hbar * k_complex(ctx_one_mode, t, hb - tau)[0]).max() < 1e-14
    master = -hbar * k_complex(ctx_one_mode, t, tau)[0]
    split = -hbar * k_complex_printed_split(ctx_one_mode, t, tau)[0]
    assert np.abs(blk - master).max() > 1e-3
    assert np.abs(master - split).max() > 1e-3


def test_dimension_cap(ctx_one_mode):
    grids = TimeGrids.from_spans(t_f=1.0, n_t=100, hbar_beta=1.0, n_tau=50)
    with pytest.raises(CapExceeded):
        build_covariance(ctx_one_mode, grids, dim_cap=100)


# ---------------------------------------------------------------------------
# factorization

def test_takagi_identity():
    s, u = takagi(np.eye(3, dtype=complex))
    assert np.allclose(s, 1.0)
    assert np.abs(u @ np.diag(s) @ u.T - np.eye(3)).max() < 1e-12


def test_takagi_random_battery():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 9):
        for _ in range(8):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            sym = a + a.T
            s, u = takagi(sym)
            assert np.abs(u @ np.diag(s) @ u.T - sym).max() < 1e-10 * max(np.abs(sym).max(), 1)
            assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-10


def test_takagi_degenerate_and_deficient():
    rng = np.random.default_rng(8)
    # repeated singular values
    sym = np.diag([2.0, 2.0, 2.0, 0.5]).astype(complex)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    sym = q @ sym @ q.T                      # complex symmetric with degenerate svals
    s, u = takagi(sym)
    assert np.abs(u @ np.diag(s) @ u.T - sym).max() < 1e-10
    # rank deficient
    v = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    sym = v @ v.T
    s, u = takagi(sym)
    assert np.abs(u @ np.diag(s) @ u.T - sym).max() < 1e-10
    # real symmetric with negative eigenvalues still factors (complex U)
    sym = np.diag([1.0, -3.0]).astype(complex)
    s, u = takagi(sym)
    assert np.abs(u @ np.diag(s) @ u.T - sym).max() < 1e-12


def test_factorize_residual_bound(ctx_two_mode, small_grids):
    grids = TimeGrids.from_spans(t_f=1.2, n_t=8, hbar_beta=ctx_two_mode.hbar_beta,
                                 n_tau=5)
    cov = build_covariance(ctx_two_mode, grids)
    factor = factorize(cov)
    res = np.abs(factor.a @ factor.a.T - cov.sigma).max()
    assert res <= 1e-8 * np.abs(cov.sigma).max()


def test_factorize_zero_covariance_rank_zero(small_grids):
    cov = NoiseCovariance(sigma=np.zeros((6, 6), complex), n_sites=1, n_t=2, n_tau=2)
    factor = factorize(cov)
    assert factor.rank == 0


def test_factorize_takagi_on_full_rank_matrix():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    sigma = b @ b.T + 4.0 * np.eye(8)
    cov = NoiseCovariance(sigma=sigma, n_sites=1, n_t=3, n_tau=2)
    factor = factorize(cov)
    assert factor.rank == 8
    res = np.abs(factor.a @ factor.a.T - cov.sigma).max()
    assert res <= 1e-8 * np.abs(cov.sigma).max()


def test_factorize_raises_when_residual_bound_missed():
    # a a^T is symmetric, so no factor reproduces a non-symmetric sigma
    sigma = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]], complex)
    cov = NoiseCovariance(sigma=sigma, n_sites=1, n_t=1, n_tau=1)
    with pytest.raises(FactorizationFailure):
        factorize(cov)


# ---------------------------------------------------------------------------
# sampling

def draw_fields(factor, seeds):
    """eta, nu (B, M, n_t) and mu (B, M, n_tau) for one trajectory per seed."""
    w = np.stack([draw_normal(factor, seed) for seed in seeds], axis=1)
    return unpack(factor, factor.a @ w)


def test_sample_zero_factor_gives_zero_noise():
    factor = NoiseFactor(a=np.zeros((6, 0), complex), n_sites=1, n_t=2, n_tau=2)
    eta, nu, mu = draw_fields(factor, [123])
    assert np.all(eta == 0) and np.all(nu == 0) and np.all(mu == 0)


def test_sample_deterministic(ctx_one_mode, small_grids):
    cov = build_covariance(ctx_one_mode, small_grids)
    factor = factorize(cov)
    b1 = draw_fields(factor, [2024])
    b2 = draw_fields(factor, [2024])
    for f1, f2 in zip(b1, b2):
        assert f1.tobytes() == f2.tobytes()
    b3 = draw_fields(factor, [2025])
    assert b1[0].tobytes() != b3[0].tobytes()


def test_derive_seed_deterministic():
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(7, 4)
    assert derive_seed(8, 3) != derive_seed(7, 3)


def test_bundle_shapes(ctx_two_mode):
    grids = TimeGrids.from_spans(t_f=1.0, n_t=6, hbar_beta=ctx_two_mode.hbar_beta,
                                 n_tau=4)
    cov = build_covariance(ctx_two_mode, grids)
    factor = factorize(cov)
    eta, nu, mu = draw_fields(factor, [5, 6, 7])
    assert eta.shape == (3, 2, 6)
    assert nu.shape == (3, 2, 6)
    assert mu.shape == (3, 2, 4)


def test_empirical_covariance_all_blocks(ctx_one_mode):
    grids = TimeGrids.from_spans(t_f=1.0, n_t=6, hbar_beta=ctx_one_mode.hbar_beta,
                                 n_tau=4)
    cov = build_covariance(ctx_one_mode, grids)
    factor = factorize(cov)
    report = verify_empirical(factor, cov, n_samples=20_000, seed=3)
    assert set(report.worst_z) == {"eta eta", "eta nu", "eta mu",
                                   "nu nu", "nu mu", "mu mu"}
    assert report.passed, report.worst_z
    assert any("PASS" in line for line in report.lines())


def test_verify_empirical_needs_samples(ctx_one_mode, small_grids):
    cov = build_covariance(ctx_one_mode, small_grids)
    factor = factorize(cov)
    with pytest.raises(ValueError):
        verify_empirical(factor, cov, n_samples=10)


def test_hs_identity_small(ctx_one_mode):
    grids = TimeGrids.from_spans(t_f=1.0, n_t=5, hbar_beta=ctx_one_mode.hbar_beta,
                                 n_tau=4)
    cov = build_covariance(ctx_one_mode, grids)
    factor = factorize(cov)
    checks = hs_identity_check(cov, factor, n_vectors=3, n_samples=50_000, seed=12,
                               hbar=ctx_one_mode.hbar)
    for chk in checks:
        assert chk.z < 5.0, (chk.mc, chk.exact, chk.se)


def test_draw_normal_matches_sample_chain(ctx_two_mode):
    # unpack reads every field of every column at the covariance's own index
    grids = TimeGrids.from_spans(t_f=1.0, n_t=6, hbar_beta=ctx_two_mode.hbar_beta,
                                 n_tau=4)
    cov = build_covariance(ctx_two_mode, grids)
    factor = factorize(cov)
    seeds = [derive_seed(42, 17), derive_seed(42, 18)]
    z = factor.a @ np.stack([draw_normal(factor, seed) for seed in seeds], axis=1)
    fields = dict(zip(("eta", "nu", "mu"), draw_fields(factor, seeds)))
    for name, arr in fields.items():
        for b, i, k in np.ndindex(arr.shape):
            assert arr[b, i, k] == z[cov.index(name, i, k), b]

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import esln
from esln import (BathSpec, KernelContext, TimeGrids, build_covariance, diagonalize_bath,
                  factorize, hs_identity_check, takagi, verify_empirical)
from esln import noise
from esln.errors import CapExceeded, FactorizationFailure
from esln.kernels import k_complex
from esln.noise import (SV_TRUNCATION, NoiseCovariance, NoiseFactor, derive_seed, draw_normal,
                        synthesize)

from conftest import (coth, dense_site_covariance, k_complex_printed_split, site_covariance,
                      site_factor, small_doc)


def block(cov, field_a, field_b):
    """Every mode's (field_a, field_b) block, shape (M, n_a, n_b)."""
    return cov.sigma[:, cov.field_slice(field_a), cov.field_slice(field_b)]


def test_grid_endpoints():
    g = TimeGrids(t_f=4.0, n_t=5, hbar_beta=2.0, n_tau=3)
    assert g.t[0] == 0.0 and g.t[-1] == pytest.approx(4.0, abs=1e-15)
    assert g.tau[0] == 0.0 and g.tau[-1] == pytest.approx(2.0, abs=1e-15)
    assert g.dt == pytest.approx(1.0) and g.dtau == pytest.approx(1.0)
    with pytest.raises(ValueError):
        TimeGrids(t_f=1.0, n_t=1, hbar_beta=1.0, n_tau=3)


def test_empty_bath_covariance(small_grids):
    bath_ctx = KernelContext.from_bath(
        __import__("esln").BathSpec(masses=[], lam=np.zeros((0, 0))),
        diagonalize_bath(__import__("esln").BathSpec(masses=[], lam=np.zeros((0, 0)))),
        hbar=1.0, beta=1.0)
    cov = build_covariance(bath_ctx, small_grids)
    assert cov.sigma.shape == (0, cov.dim, cov.dim)
    factor = factorize(cov)
    assert factor.rank == 0


def test_covariance_dimensions_and_symmetry(ctx_one_mode, small_grids):
    cov = build_covariance(ctx_one_mode, small_grids)
    assert cov.dim == 2 * small_grids.n_t + small_grids.n_tau
    assert cov.sigma.shape == (1, cov.dim, cov.dim)
    assert np.array_equal(cov.sigma, cov.sigma.mT)


def test_zero_lag_eta_variance(ctx_two_mode):
    grids = TimeGrids(t_f=1.0, n_t=5, hbar_beta=ctx_two_mode.hbar_beta,
                                 n_tau=4)
    cov = build_covariance(ctx_two_mode, grids)
    hbar, hb = ctx_two_mode.hbar, ctx_two_mode.hbar_beta
    omegas = ctx_two_mode.modes.omegas
    for lam in range(2):
        expect = hbar * coth(0.5 * hb * omegas[lam]) / (2 * omegas[lam])
        assert cov.sigma[lam, 2, 2] == pytest.approx(expect, rel=1e-12)
    # the site variance, through the change of basis (eta of site i, k = 2)
    site = site_covariance(cov, ctx_two_mode.site_weights())
    for i in range(2):
        expect = hbar * sum(
            ctx_two_mode.modes.evecs[i, lam] ** 2 * coth(0.5 * hb * omegas[lam])
            / (2 * omegas[lam] * ctx_two_mode.masses[i]) for lam in range(2))
        assert site[i * grids.n_t + 2, i * grids.n_t + 2] == pytest.approx(expect, rel=1e-12)


def test_eta_nu_block_is_causal(ctx_one_mode, small_grids):
    cov = build_covariance(ctx_one_mode, small_grids)
    blk = block(cov, "eta", "nu")[0]
    n_t = small_grids.n_t
    for k in range(n_t):
        for l in range(n_t):
            if l > k:
                assert blk[k, l] == 0.0
            assert blk[k, l].real == 0.0      # block is purely imaginary


def test_nu_blocks_exactly_zero(ctx_two_mode):
    grids = TimeGrids(t_f=1.5, n_t=7, hbar_beta=ctx_two_mode.hbar_beta,
                                 n_tau=5)
    cov = build_covariance(ctx_two_mode, grids)
    assert np.all(block(cov, "nu", "nu") == 0.0)
    assert np.all(block(cov, "nu", "mu") == 0.0)


def test_eta_eta_block_toeplitz(ctx_one_mode, small_grids):
    cov = build_covariance(ctx_one_mode, small_grids)
    blk = block(cov, "eta", "eta")
    assert np.array_equal(blk[:, 1:, 1:], blk[:, :-1, :-1])


def test_mu_mu_block_matches_split_kernels(ctx_one_mode, small_grids):
    # hbar [K^e(d) - K^o(|d|)] with K^e = cosh(w d) coth X / (2w), K^o = sinh(w d) / (2w);
    cov = build_covariance(ctx_one_mode, small_grids)
    blk = block(cov, "mu", "mu")[0]
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
    blk = block(cov, "eta", "mu")[0]
    assert np.abs(blk - hbar * k_complex(ctx_one_mode, t, hb - tau)[0]).max() < 1e-14
    master = -hbar * k_complex(ctx_one_mode, t, tau)[0]
    split = -hbar * k_complex_printed_split(ctx_one_mode, t, tau)[0]
    assert np.abs(blk - master).max() > 1e-3
    assert np.abs(master - split).max() > 1e-3


def test_dimension_cap(ctx_one_mode, ctx_two_mode):
    grids = TimeGrids(t_f=1.0, n_t=100, hbar_beta=1.0, n_tau=50)
    with pytest.raises(CapExceeded):
        build_covariance(ctx_one_mode, grids, dim_cap=100)
    # the cap bounds one mode's D = 2 n_t + n_tau = 80, not M * D = 160
    grids = TimeGrids(t_f=1.0, n_t=30, hbar_beta=ctx_two_mode.hbar_beta, n_tau=20)
    assert build_covariance(ctx_two_mode, grids, dim_cap=80).sigma.shape == (2, 80, 80)
    with pytest.raises(CapExceeded):
        build_covariance(ctx_two_mode, grids, dim_cap=79)


def _channel_grids(ctx):
    return TimeGrids(t_f=1.5, n_t=11, hbar_beta=ctx.hbar_beta, n_tau=7)


def test_channel_covariance_is_weighted_sum_of_mode_covariances(ctx_two_mode):
    # two modes in one channel, g_1 = -0.3 g_0: sigma = sigma_0 + 0.09 sigma_1,
    # and the sum keeps the exact symmetry and stationarity of each mode's
    grids = _channel_grids(ctx_two_mode)
    per_mode = build_covariance(ctx_two_mode, grids).sigma
    cov = build_covariance(ctx_two_mode, grids, weights=np.array([[1.0, -0.3]]))
    assert cov.sigma.shape == (1, cov.dim, cov.dim)
    expect = per_mode[0] + 0.09 * per_mode[1]
    assert np.abs(cov.sigma[0] - expect).max() <= 1e-15 * np.abs(expect).max()
    assert np.array_equal(cov.sigma, cov.sigma.mT)
    for name in ("eta", "mu"):
        blk = block(cov, name, name)
        assert np.array_equal(blk[:, 1:, 1:], blk[:, :-1, :-1])
    assert np.all(block(cov, "nu", "nu") == 0.0) and np.all(block(cov, "nu", "mu") == 0.0)


def test_channels_order_and_split_modes(ctx_two_mode):
    # channels keep the order of their rows, whatever their modes' order
    grids = _channel_grids(ctx_two_mode)
    per_mode = build_covariance(ctx_two_mode, grids).sigma
    cov = build_covariance(ctx_two_mode, grids, weights=np.array([[0.0, 2.0], [1.0, 0.0]]))
    assert np.array_equal(cov.sigma[0], 4.0 * per_mode[1])
    assert np.array_equal(cov.sigma[1], per_mode[0])


def test_identity_weights_give_each_mode_its_own_covariance(ctx_two_mode):
    # with every coupling direction distinct, each channel's matrix is its
    # mode's, bit for bit: each block is the mode's kernel value itself
    grids = _channel_grids(ctx_two_mode)
    cov = build_covariance(ctx_two_mode, grids, weights=np.eye(2))
    assert cov.sigma.tobytes() == build_covariance(ctx_two_mode, grids).sigma.tobytes()
    hbar, hb = ctx_two_mode.hbar, ctx_two_mode.hbar_beta
    lag_idx = np.arange(grids.n_t)[:, None] - np.arange(grids.n_t)[None, :]
    k_t = k_complex(ctx_two_mode, lag_idx * grids.dt, 0.0)
    theta = (lag_idx > 0).astype(float) + 0.5 * (lag_idx == 0)
    l_idx = np.arange(grids.n_tau)
    abs_dtau = np.abs(l_idx[:, None] - l_idx[None, :]) * grids.dtau
    eta_mu = hbar * k_complex(ctx_two_mode, grids.t[:, None], hb - grids.tau[None, :])
    expect = {("eta", "eta"): hbar * k_t.real, ("eta", "nu"): 2j * theta * k_t.imag,
              ("eta", "mu"): eta_mu, ("mu", "mu"): hbar * k_complex(ctx_two_mode, 0.0,
                                                                    abs_dtau).real}
    for (fa, fb), want in expect.items():
        got = block(cov, fa, fb)
        assert np.ascontiguousarray(got).tobytes() == want.astype(complex).tobytes()
        mirror = block(cov, fb, fa)
        assert np.ascontiguousarray(mirror).tobytes() == want.astype(complex).mT.copy().tobytes()


@pytest.mark.parametrize("masses", [(1.0, 1.0), (1.0, 2.5)], ids=["unit", "1-2.5"])
def test_site_covariance_from_modes_matches_dense_reference(masses):
    # sigma_site = (S (x) I) blockdiag(sigma_lam) (S (x) I)^T with S the site weights
    bath = BathSpec(masses=masses, lam=[[2.0, -0.5], [-0.5, 3.0]])
    ctx = KernelContext.from_bath(bath, diagonalize_bath(bath), hbar=1.0, beta=1.0)
    grids = TimeGrids(t_f=2.0, n_t=12, hbar_beta=1.0, n_tau=7)
    cov = build_covariance(ctx, grids)
    dense = dense_site_covariance(ctx, grids)
    scale = np.abs(dense).max()
    site = site_covariance(cov, ctx.site_weights())
    assert np.abs(site - dense).max() <= 1e-13 * scale
    # the mode factors assemble into a site factor of the dense sigma; with
    # unit masses S is orthogonal and the dense Takagi factor is the blockwise
    # one, so <z z^dagger> = a a^dagger, and the estimator's variance, agree too
    a_site = site_factor(factorize(cov), cov, ctx.site_weights())
    assert np.abs(a_site @ a_site.T - dense).max() <= 1e-12 * scale
    s, u = takagi(dense)
    keep = s > 1e-12 * s.max()
    a_dense = u[:, keep] * np.sqrt(s[keep])
    gap = np.abs(a_site @ a_site.conj().T - a_dense @ a_dense.conj().T).max()
    if masses == (1.0, 1.0):
        assert gap <= 1e-12 * scale
    else:
        assert gap > 1e-3 * scale


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


# 60 examples, the same on every run under the tier-1 profile (conftest.py)
@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1),
       clusters=st.lists(st.tuples(st.floats(0.1, 10.0), st.integers(1, 3)),
                         min_size=1, max_size=4),
       n_zero=st.integers(0, 3))
def test_takagi_property_degenerate_clusters(seed, clusters, n_zero):
    # A = Q diag(s) Q^T with Q unitary and s holding repeated values and zeros
    s_true = np.array([v for v, k in clusters for _ in range(k)] + [0.0] * n_zero)
    n = s_true.size
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    sym = (q * s_true) @ q.T
    s, u = takagi(sym)
    scale = s_true.max()
    assert np.abs(s - np.sort(s_true)[::-1]).max() < 1e-12 * n * scale
    kept = u[:, s > SV_TRUNCATION * scale]
    assert np.abs(kept.conj().T @ kept - np.eye(kept.shape[1])).max() < 1e-10
    assert np.abs((u * s) @ u.T - sym).max() < 1e-12 * n * scale


def test_factorize_residual_bound(ctx_two_mode, small_grids):
    grids = TimeGrids(t_f=1.2, n_t=8, hbar_beta=ctx_two_mode.hbar_beta,
                                 n_tau=5)
    cov = build_covariance(ctx_two_mode, grids)
    factor = factorize(cov)
    assert len(factor.a) == 2
    for a, sigma in zip(factor.a, cov.sigma):
        assert np.abs(a @ a.T - sigma).max() <= 1e-8 * np.abs(sigma).max()


def test_factorize_zero_covariance_rank_zero(small_grids):
    cov = NoiseCovariance(sigma=np.zeros((1, 6, 6), complex), n_t=2, n_tau=2, hbar=1.0)
    factor = factorize(cov)
    assert factor.rank == 0


def test_factorize_takagi_on_full_rank_matrix():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    sigma = b @ b.T + 4.0 * np.eye(8)
    # a second mode of rank 3: ranks differ between modes
    v = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    cov = NoiseCovariance(sigma=np.stack([sigma, v @ v.T]), n_t=3, n_tau=2, hbar=1.0)
    factor = factorize(cov)
    assert [a.shape[1] for a in factor.a] == [8, 3]
    assert factor.rank == 11
    for a, sig in zip(factor.a, cov.sigma):
        assert np.abs(a @ a.T - sig).max() <= 1e-8 * np.abs(sig).max()


def test_factorize_raises_when_residual_bound_missed():
    # a a^T is symmetric, so no factor reproduces a non-symmetric sigma
    sigma = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]], complex)
    cov = NoiseCovariance(sigma=sigma[None], n_t=1, n_tau=1, hbar=1.0)
    with pytest.raises(FactorizationFailure):
        factorize(cov)


# ---------------------------------------------------------------------------
# sampling

def draw_fields(factor, seed, n):
    """eta, nu (n, M, n_t) and mu (n, M, n_tau) of n trajectories keyed by seed."""
    return synthesize(factor, draw_normal(factor, seed, n))


def test_sample_zero_factor_gives_zero_noise():
    factor = NoiseFactor(a=(np.zeros((6, 0), complex),), norms=(np.zeros(0),), n_t=2, n_tau=2)
    eta, nu, mu = draw_fields(factor, 123, 1)
    assert np.all(eta == 0) and np.all(nu == 0) and np.all(mu == 0)


def test_sample_deterministic(ctx_one_mode, small_grids):
    cov = build_covariance(ctx_one_mode, small_grids)
    factor = factorize(cov)
    b1 = draw_fields(factor, 2024, 1)
    b2 = draw_fields(factor, 2024, 1)
    for f1, f2 in zip(b1, b2):
        assert f1.tobytes() == f2.tobytes()
    b3 = draw_fields(factor, 2025, 1)
    assert b1[0].tobytes() != b3[0].tobytes()


def test_draw_is_prefix_of_longer_draw(ctx_two_mode):
    # row j is the j-th rank-long block of the key's stream, so a short batch
    # draws exactly the first rows of a full one
    factor = factorize(build_covariance(ctx_two_mode, TimeGrids(
        t_f=1.0, n_t=6, hbar_beta=ctx_two_mode.hbar_beta, n_tau=4)))
    key = derive_seed(42, 3)
    short, full = draw_normal(factor, key, 17), draw_normal(factor, key, 256)
    assert short.shape == (17, factor.rank) and full.shape == (256, factor.rank)
    assert np.array_equal(short, full[:17])


def test_first_row_is_single_trajectory_recipe(ctx_one_mode, small_grids):
    # row 0 of a batch is the README's one-trajectory draw, which is the first
    # rank normals of the Philox stream seeded with the batch key
    factor = factorize(build_covariance(ctx_one_mode, small_grids))
    key = derive_seed(7, 0)
    batch = draw_normal(factor, key, 256)
    assert np.array_equal(batch[0], draw_normal(factor, key, 1)[0])
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
    assert np.array_equal(batch[0], rng.standard_normal(factor.rank))


def test_verification_draws_through_draw_normal(ctx_one_mode, small_grids, monkeypatch):
    # the Monte Carlo checks take their normals from the run's one draw
    # function, one call per chunk of _CHUNK samples
    cov = build_covariance(ctx_one_mode, small_grids)
    factor = factorize(cov)
    calls = []

    def counted(*args):
        calls.append(args[2])
        return draw_normal(*args)

    monkeypatch.setattr(noise, "draw_normal", counted)
    n = 2 * noise._CHUNK + 1
    verify_empirical(factor, cov, n_samples=n, seed=5)
    assert calls == [noise._CHUNK, noise._CHUNK, 1]
    calls.clear()
    hs_identity_check(cov, factor, n_vectors=1, n_samples=300, seed=5)
    assert calls == [300]


def test_derive_seed_deterministic():
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(7, 4)
    assert derive_seed(8, 3) != derive_seed(7, 3)


def test_bundle_shapes(ctx_two_mode):
    grids = TimeGrids(t_f=1.0, n_t=6, hbar_beta=ctx_two_mode.hbar_beta,
                                 n_tau=4)
    cov = build_covariance(ctx_two_mode, grids)
    factor = factorize(cov)
    eta, nu, mu = draw_fields(factor, 5, 3)
    assert eta.shape == (3, 2, 6)
    assert nu.shape == (3, 2, 6)
    assert mu.shape == (3, 2, 4)


def test_empirical_covariance_all_blocks(ctx_one_mode):
    grids = TimeGrids(t_f=1.0, n_t=6, hbar_beta=ctx_one_mode.hbar_beta,
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
    grids = TimeGrids(t_f=1.0, n_t=5, hbar_beta=ctx_one_mode.hbar_beta,
                                 n_tau=4)
    cov = build_covariance(ctx_one_mode, grids)
    factor = factorize(cov)
    checks = hs_identity_check(cov, factor, n_vectors=3, n_samples=50_000, seed=12)
    for chk in checks:
        assert chk.z < 5.0, (chk.mc, chk.exact, chk.se)


def _one_mode_at(hbar):
    """The covariance and factor of one mode (omega = 1.3) at hbar * beta = 1,
    in units where the action is ``hbar``."""
    bath = BathSpec(masses=[1.0], lam=[[1.69]])
    ctx = KernelContext.from_bath(bath, diagonalize_bath(bath), hbar=hbar, beta=1.0 / hbar)
    cov = build_covariance(ctx, TimeGrids(t_f=1.0, n_t=6, hbar_beta=ctx.hbar_beta, n_tau=4))
    return cov, factorize(cov)


def test_verify_empirical_scores_every_block_at_tiny_hbar():
    # at hbar = 1e-20 the eta-eta, eta-mu and mu-mu blocks are 1e-20 of the
    # eta-nu one: the check compares b z with b sigma b, so it scores every
    # block as at hbar = 1 and still sees the factor's mu rows scaled by 1.5
    want = verify_empirical(*reversed(_one_mode_at(1.0)), n_samples=20_000, seed=3).worst_z
    cov, factor = _one_mode_at(1e-20)
    report = verify_empirical(factor, cov, n_samples=20_000, seed=3)
    assert report.passed, report.worst_z
    for name, z in want.items():
        assert report.worst_z[name] == pytest.approx(z, rel=1e-6), name
    mu = cov.field_slice("mu")
    scaled = [a.copy() for a in factor.a]
    for a in scaled:
        a[mu] *= 1.5
    wrong = verify_empirical(dataclasses.replace(factor, a=tuple(scaled)), cov,
                             n_samples=20_000, seed=3)
    assert wrong.worst_z["mu mu"] >= noise.Z_LIMIT and not wrong.passed


def test_hs_identity_check_reads_the_same_in_any_unit_of_action():
    # the test vectors are drawn in the balanced units, where the covariance
    # of this physics does not depend on hbar, so the z values repeat
    want = [chk.z for chk in hs_identity_check(*_one_mode_at(1.0), n_vectors=3,
                                               n_samples=20_000, seed=12)]
    assert max(want) < noise.Z_LIMIT
    for hbar in (1e-12, 1e-20):
        got = [chk.z for chk in hs_identity_check(*_one_mode_at(hbar), n_vectors=3,
                                                  n_samples=20_000, seed=12)]
        assert np.allclose(got, want, rtol=1e-6, atol=1e-9), (hbar, got, want)


def test_draw_normal_matches_sample_chain(ctx_two_mode):
    # synthesize gives mode lam the fields a_lam @ w_lam, w_lam the next r_lam
    # rows of the draws, and reads every field at the covariance's own index
    grids = TimeGrids(t_f=1.0, n_t=6, hbar_beta=ctx_two_mode.hbar_beta,
                                 n_tau=4)
    cov = build_covariance(ctx_two_mode, grids)
    factor = factorize(cov)
    seed = derive_seed(42, 17)
    w = draw_normal(factor, seed, 2).T
    r0 = factor.a[0].shape[1]
    z = [factor.a[0] @ w[:r0], factor.a[1] @ w[r0:]]
    fields = dict(zip(("eta", "nu", "mu"), draw_fields(factor, seed, 2)))
    for name, arr in fields.items():
        start = cov.field_slice(name).start
        for b, lam, k in np.ndindex(arr.shape):
            assert arr[b, lam, k] == z[lam][start + k, b]


def test_takagi_factor_does_not_depend_on_blas_threads(tmp_path):
    # eigh returns eigenvector signs that depend on the BLAS thread count, and
    # a flipped column draws another sample; on this grid 48 of the factor's
    # 100 columns flipped between 1 and 2 threads before takagi oriented each
    # column by one sign rule.  Now the factors agree to rounding.
    doc = small_doc()
    doc["grids"] = {"t_f": 4.0, "n_t": 41, "n_tau": 21}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    script = ("import sys, numpy as np, esln\n"
              "a, = esln.build_pipeline(esln.load_config(sys.argv[1])).factor.a\n"
              "np.save(sys.argv[2], a)\n")
    factors = []
    for threads in (1, 2):
        out = tmp_path / f"a{threads}.npy"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=str(Path(esln.__file__).resolve().parent.parent))
        subprocess.run([sys.executable, "-c", script, str(config), str(out)], env=env,
                       check=True, timeout=120)
        factors.append(np.load(out))
    one, two = factors
    assert one.shape == two.shape
    assert np.abs(one - two).max() <= 1e-9 * np.abs(one).max()

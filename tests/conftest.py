import numpy as np
import pytest
from hypothesis import settings

from esln import BathSpec, KernelContext, SystemSpec, TimeGrids, diagonalize_bath, l_matrix

# every property test is deterministic and leaves no example database behind
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def small_doc(n_traj=300, master_seed=11, **over):
    """Two-level system, one bath mode; quick enough for statistical tests."""
    doc = {
        "system": {"dim": 2, "h0": [[0, 0.5], [0.5, 0]],
                   "couplings": [[[0.4, 0], [0, -0.4]]], "hbar": 1.0, "beta": 1.0},
        "bath": {"masses": [1.0], "lambda": [[1.69]]},
        "grids": {"t_f": 1.0, "n_t": 21, "n_tau": 11},
        "ensemble": {"n_traj": n_traj, "master_seed": master_seed},
    }
    for key, val in over.items():
        doc[key] = val
    return doc


@pytest.fixture
def two_mode_bath():
    return BathSpec(masses=[1.0, 1.0], lam=[[2.0, -1.0], [-1.0, 2.0]])


@pytest.fixture
def ctx_one_mode():
    bath = BathSpec(masses=[1.0], lam=[[1.69]])   # omega = 1.3
    modes = diagonalize_bath(bath)
    return KernelContext.from_bath(bath, modes, hbar=1.0, beta=1.0)


@pytest.fixture
def ctx_two_mode(two_mode_bath):
    modes = diagonalize_bath(two_mode_bath)
    return KernelContext.from_bath(two_mode_bath, modes, hbar=1.0, beta=2.0)


@pytest.fixture
def small_grids():
    return TimeGrids(t_f=1.0, n_t=9, hbar_beta=1.0, n_tau=6)


def coth(x):
    """coth(x) for x > 0, stable for both tiny and huge arguments."""
    x = np.asarray(x, dtype=float)
    return (1.0 + np.exp(-2.0 * x)) / (-np.expm1(-2.0 * x))


def k_complex_printed_split(ctx, t, tau):
    """A wrong split form of the complex-time kernel, for the tests that show it fails.

    Returns K^R + i K^I of every mode, shape (M,) + broadcast(t, tau), with
        K^R = [coth(X) cosh(w tau) - sinh(w tau)] cos(w t) / (2 w)
        K^I = -[cosh(w tau) + coth(X) sinh(w tau)] sin(w t) / (2 w)
    which differs from ``esln.kernels.k_complex`` in the sign of the coth*sinh
    term of K^I.
    """
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    w = ctx.modes.omegas.reshape((-1,) + (1,) * np.broadcast(t, tau).ndim)
    cth = coth(0.5 * ctx.hbar_beta * w)
    k_r = (cth * np.cosh(w * tau) - np.sinh(w * tau)) * np.cos(w * t) / (2.0 * w)
    k_i = -(np.cosh(w * tau) + cth * np.sinh(w * tau)) * np.sin(w * t) / (2.0 * w)
    return k_r + 1j * k_i


def spin_system(coupling=0.4, hbar=1.0, beta=1.0, drive=()):
    return SystemSpec(dim=2, h0=0.5 * SX, couplings=(coupling * SZ,),
                      hbar=hbar, beta=beta, drive=drive)


def _interleave(l):
    """Lay site matrices (nk, nl, M, M) out as (M*nk, M*nl), row = site*nk + k."""
    nk, nl, m, _ = l.shape
    return l.transpose(2, 0, 3, 1).reshape(m * nk, m * nl)


def _site_order(n_sites, cov):
    """Indices into the (site, per-mode index) flattening that give the dense
    layout: fields stacked (eta, nu, mu), site-major within each field."""
    idx = np.arange(n_sites * cov.dim).reshape(n_sites, cov.dim)
    return np.concatenate([idx[:, cov.field_slice(f)].ravel() for f in ("eta", "nu", "mu")])


def dense_site_covariance(ctx, grids):
    """Reference: the dense (M*D, M*D) site-basis pseudo-covariance built from
    the site kernels L_ij, fields stacked (eta, nu, mu) and site-major within
    each field (row = field offset + site * n + k)."""
    m, n_t, n_tau = ctx.n_modes, grids.n_t, grids.n_tau
    hbar, hb = ctx.hbar, ctx.hbar_beta
    eta, nu, mu = slice(0, m * n_t), slice(m * n_t, 2 * m * n_t), slice(2 * m * n_t, None)
    sigma = np.zeros((m * (2 * n_t + n_tau),) * 2, dtype=complex)
    lag_idx = np.arange(n_t)[:, None] - np.arange(n_t)[None, :]
    l_t = l_matrix(ctx, t=lag_idx * grids.dt)
    sigma[eta, eta] = _interleave(hbar * l_t.real)
    theta = (lag_idx > 0) + 0.5 * (lag_idx == 0)
    sigma[eta, nu] = _interleave(2j * theta[:, :, None, None] * l_t.imag)
    sigma[eta, mu] = _interleave(hbar * l_matrix(ctx, t=grids.t[:, None],
                                                 tau=hb - grids.tau[None, :]))
    abs_dtau = np.abs(np.arange(n_tau)[:, None] - np.arange(n_tau)[None, :]) * grids.dtau
    sigma[mu, mu] = _interleave(hbar * l_matrix(ctx, tau=abs_dtau).real)
    sigma[nu, eta] = sigma[eta, nu].T
    sigma[mu, eta] = sigma[eta, mu].T
    return sigma


def site_covariance(cov, s):
    """(S (x) I) blockdiag(sigma_lam) (S (x) I)^T in the layout of
    ``dense_site_covariance``; ``s`` is ``KernelContext.site_weights()``."""
    n = s.shape[0] * cov.dim
    full = np.einsum("il,jl,lab->iajb", s, s, cov.sigma).reshape(n, n)
    order = _site_order(s.shape[0], cov)
    return full[np.ix_(order, order)]


def site_factor(factor, cov, s):
    """(S (x) I) blockdiag(a_lam) in the layout of ``dense_site_covariance``."""
    blocks = np.zeros((len(factor.a), factor.dim, factor.rank), dtype=complex)
    start = 0
    for lam, a in enumerate(factor.a):
        blocks[lam, :, start:start + a.shape[1]] = a
        start += a.shape[1]
    full = np.einsum("il,lar->iar", s, blocks).reshape(-1, factor.rank)
    return full[_site_order(s.shape[0], cov)]

"""Correlated complex Gaussian noise on the two-time grid.

The stochastic fields are eta_i(t_k), nu_i(t_k) on the real-time grid and
mu_i(tau_k) on the imaginary-time grid.  Only the unconjugated second moments
<z z^T> (the pseudo-covariance) are constrained:

    <eta_i(t) eta_j(t')> = hbar * L^R_ij(t - t')
    <eta_i(t) nu_j(t')>  = 2i Theta(t - t') L^I_ij(t - t'),  Theta(0) = 1/2
    <eta_i(t) mu_j(tau)> = hbar * L_ij(t - i (hbar*beta - tau))
    <mu_i(tau) mu_j(tau')> = hbar * [L^e_ij(tau - tau') - L^o_ij(|tau - tau'|)]
    <nu nu> = <nu mu> = 0

The eta-mu cross block fixes the correlation between the equilibrium
preparation and the subsequent real-time kicks.  This convention is the one
that keeps the noise-averaged state of an undriven system exactly stationary;
flipping it to -hbar L(t - i tau) makes it drift
(tests/test_ensemble.py::test_printed_cross_kernel_breaks_stationarity and
tests/test_second_order_consistency.py hold that evidence).

Sampling draws z = a @ w with w real i.i.d. standard normal and a a^T = sigma,
so the pseudo-covariance holds by construction while <z z^dagger> = a a^dagger
remains free, as it must.  The factor a comes from a Takagi (Autonne)
factorization of the complex symmetric sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, FactorizationFailure
from .kernels import KernelContext, site_kernel
from .kernels import k_complex as _mode_values   # name hooked by bench/tracing.py

DEFAULT_DIM_CAP = 6000
FACTOR_REL_TOL = 1e-8
SV_TRUNCATION = 1e-12
_CHUNK = 4096


@dataclass(frozen=True)
class TimeGrids:
    """Uniform real-time and imaginary-time grids, both endpoints included.

    Spans are primary so they survive emit/parse round trips exactly; the
    steps dt = t_f/(n_t-1) and dtau = hbar_beta/(n_tau-1) are derived.
    """

    t_f: float
    n_t: int
    hbar_beta: float
    n_tau: int

    def __post_init__(self):
        if self.n_t < 2 or self.n_tau < 2:
            raise ValueError("both grids need at least two points")
        if self.t_f <= 0 or self.hbar_beta <= 0:
            raise ValueError("grid spans must be positive")

    @classmethod
    def from_spans(cls, t_f: float, n_t: int, hbar_beta: float, n_tau: int) -> "TimeGrids":
        return cls(t_f=t_f, n_t=n_t, hbar_beta=hbar_beta, n_tau=n_tau)

    @classmethod
    def from_steps(cls, n_t: int, dt: float, n_tau: int, dtau: float) -> "TimeGrids":
        return cls(t_f=(n_t - 1) * dt, n_t=n_t, hbar_beta=(n_tau - 1) * dtau, n_tau=n_tau)

    @property
    def dt(self) -> float:
        return self.t_f / (self.n_t - 1)

    @property
    def dtau(self) -> float:
        return self.hbar_beta / (self.n_tau - 1)

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.n_t) * self.dt

    @property
    def tau(self) -> np.ndarray:
        return np.arange(self.n_tau) * self.dtau


@dataclass(frozen=True)
class NoiseCovariance:
    """Joint pseudo-covariance of (eta, nu, mu) stacked site-major within fields."""

    sigma: np.ndarray
    n_sites: int
    n_t: int
    n_tau: int

    @property
    def dim(self) -> int:
        return self.n_sites * (2 * self.n_t + self.n_tau)

    def offset(self, fieldname: str) -> int:
        base = {"eta": 0, "nu": self.n_sites * self.n_t, "mu": 2 * self.n_sites * self.n_t}
        return base[fieldname]

    def index(self, fieldname: str, site: int, k: int) -> int:
        n = self.n_t if fieldname in ("eta", "nu") else self.n_tau
        if not (0 <= site < self.n_sites and 0 <= k < n):
            raise IndexError(f"({fieldname}, {site}, {k}) out of range")
        return self.offset(fieldname) + site * n + k

    def field_slice(self, fieldname: str) -> slice:
        n = self.n_t if fieldname in ("eta", "nu") else self.n_tau
        start = self.offset(fieldname)
        return slice(start, start + self.n_sites * n)

    def block(self, field_a: str, field_b: str) -> np.ndarray:
        return self.sigma[self.field_slice(field_a), self.field_slice(field_b)]


def _interleave(l: np.ndarray) -> np.ndarray:
    """Lay site matrices (nk, nl, M, M) out as (M*nk, M*nl), row = site*nk + k."""
    nk, nl, m, _ = l.shape
    return l.transpose(2, 0, 3, 1).reshape(m * nk, m * nl)


def build_covariance(ctx: KernelContext, grids: TimeGrids,
                     dim_cap: int = DEFAULT_DIM_CAP) -> NoiseCovariance:
    """Assemble the dense joint pseudo-covariance on the two-time grid.

    Every block is a value of the one master kernel L(t - i tau): the two
    real-time blocks share its evaluation at the real-time lags.
    """
    m = ctx.n_modes
    n_t, n_tau = grids.n_t, grids.n_tau
    dim = m * (2 * n_t + n_tau)
    if dim > dim_cap:
        raise CapExceeded(
            f"covariance dimension {dim} exceeds cap {dim_cap}; "
            "reduce the grids or raise noise.dim_cap")
    hbar = ctx.hbar
    hb = ctx.hbar_beta
    if abs(hb - grids.hbar_beta) > 1e-9 * max(hb, 1.0):
        raise ValueError("imaginary grid span does not equal hbar*beta of the kernel context")

    sigma = np.zeros((dim, dim), dtype=complex)
    cov = NoiseCovariance(sigma=sigma, n_sites=m, n_t=n_t, n_tau=n_tau)
    if m == 0:
        sigma.setflags(write=False)
        return cov
    eta_sl = cov.field_slice("eta")
    nu_sl = cov.field_slice("nu")
    mu_sl = cov.field_slice("mu")

    # Lags from integer index differences so equal lags are bitwise equal and
    # the eta blocks are exactly stationary (Toeplitz per site pair).
    k_idx = np.arange(n_t)
    lag_idx = k_idx[:, None] - k_idx[None, :]
    l_t = site_kernel(ctx, _mode_values(ctx, lag_idx * grids.dt, 0.0))   # (n_t, n_t, M, M)
    assert np.array_equal(l_t[1:, 1:], l_t[:-1, :-1]), \
        "real-time blocks lost their Toeplitz structure"
    # <eta eta> = hbar L^R(t - t').
    sigma[eta_sl, eta_sl] = _interleave(hbar * l_t.real)

    # <eta nu> = 2i Theta(t - t') L^I(t - t'), Theta(0) = 1/2 (value immaterial
    # since L^I(0) = 0).
    theta = (lag_idx > 0).astype(float) + 0.5 * (lag_idx == 0)
    blk = _interleave(2j * theta[:, :, None, None] * l_t.imag)
    sigma[eta_sl, nu_sl] = blk
    sigma[nu_sl, eta_sl] = blk.T

    # <eta mu> = +hbar L(t - i(hbar*beta - tau)).
    l_c = site_kernel(ctx, _mode_values(ctx, grids.t[:, None], hb - grids.tau[None, :]))
    blk = _interleave(hbar * l_c)
    sigma[eta_sl, mu_sl] = blk
    sigma[mu_sl, eta_sl] = blk.T

    # <mu mu> = hbar [L^e(dtau) - L^o(|dtau|)] = hbar L(-i |dtau|), evaluated
    # through the master kernel so large w*hbar*beta stays finite.
    l_idx = np.arange(n_tau)
    abs_dtau = np.abs(l_idx[:, None] - l_idx[None, :]) * grids.dtau
    l_mm = site_kernel(ctx, _mode_values(ctx, 0.0, abs_dtau).real)
    sigma[mu_sl, mu_sl] = _interleave(hbar * l_mm)

    # <nu nu> and <nu mu> stay identically zero.
    assert np.array_equal(sigma, sigma.T), "covariance must be exactly symmetric"
    sigma.setflags(write=False)
    return cov


@dataclass(frozen=True)
class NoiseFactor:
    """Factor a with a @ a.T ~= sigma, plus the grid layout needed to unpack draws."""

    a: np.ndarray
    n_sites: int
    n_t: int
    n_tau: int

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def rank(self) -> int:
        return self.a.shape[1]


def takagi(sym: np.ndarray):
    """Takagi factorization sym = U diag(s) U^T of a complex symmetric matrix.

    Computed through the real symmetric embedding
    B = [[Re A, Im A], [Im A, -Re A]]: an eigenpair B (x; y) = s (x; y) with
    s > 0 yields a con-eigenvector u = x + i y with A conj(u) = s u, and the
    positive-spectrum eigenvectors are automatically orthonormal as complex
    vectors, including inside degenerate clusters (their pair partners live in
    the mirrored negative-s subspace).  This stays accurate where SVD-based
    constructions lose the pairing between near-degenerate singular subspaces.
    Returns (s, U) with s descending; truncation happens in ``factorize``.
    """
    n = sym.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    re, im = sym.real, sym.imag
    big = np.block([[re, im], [im, -re]])
    evals, evecs = np.linalg.eigh(big)
    order = np.argsort(evals)[::-1][:n]       # the +s half of the ± spectrum
    s = np.maximum(evals[order], 0.0)
    u = evecs[:n, order] + 1j * evecs[n:, order]
    return s, u


def factorize(cov: NoiseCovariance) -> NoiseFactor:
    """Factor sigma = a a^T by Takagi, truncating singular values below 1e-12 * max.

    Raises FactorizationFailure when the factor misses the residual bound
    ``FACTOR_REL_TOL * max|sigma|``.
    """
    sigma = cov.sigma
    s, u = takagi(sigma)
    keep = s > SV_TRUNCATION * s.max(initial=0.0)
    a = u[:, keep] * np.sqrt(s[keep])[None, :]
    scale = np.abs(sigma).max(initial=0.0)
    residual = np.abs(a @ a.T - sigma).max(initial=0.0)
    if residual > FACTOR_REL_TOL * max(scale, 1e-300):
        raise FactorizationFailure(
            f"factor residual {residual:g} exceeds {FACTOR_REL_TOL:g} * {scale:g}")
    a.setflags(write=False)
    return NoiseFactor(a=a, n_sites=cov.n_sites, n_t=cov.n_t, n_tau=cov.n_tau)


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit stream key for trajectory ``index``."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def draw_normal(factor: NoiseFactor, seed: int) -> np.ndarray:
    """The real standard-normal vector w used for this seed (length = rank)."""
    return _generator(seed).standard_normal(factor.rank)


def unpack(factor: NoiseFactor, z: np.ndarray):
    """Split draws z (dim, B) into eta, nu (B, M, n_t) and mu (B, M, n_tau)."""
    m, n_t, n_tau = factor.n_sites, factor.n_t, factor.n_tau
    b = z.shape[1]
    ne = m * n_t
    return (z[:ne].T.reshape(b, m, n_t), z[ne:2 * ne].T.reshape(b, m, n_t),
            z[2 * ne:].T.reshape(b, m, n_tau))


@dataclass(frozen=True)
class NoiseVerification:
    """Per-block worst z-scores of empirical pseudo-covariance vs target.

    ``empirical`` and ``z`` hold the full matrices for inspection/CSV dumps.
    """

    n_samples: int
    worst_z: dict
    empirical: np.ndarray
    z: np.ndarray
    threshold: float = 5.0

    @property
    def passed(self) -> bool:
        return all(z < self.threshold for z in self.worst_z.values())

    def lines(self):
        out = [f"noise verification with {self.n_samples} samples "
               f"(threshold {self.threshold:g})"]
        for name, z in self.worst_z.items():
            mark = "ok" if z < self.threshold else "FAIL"
            out.append(f"  <{name}>: worst |z| = {z:8.3f}   {mark}")
        out.append("PASS" if self.passed else "FAIL")
        return out


def _chunked_draws(factor: NoiseFactor, n_samples: int, seed: int):
    """Yield (r, chunk) standard-normal blocks, deterministic in (seed, chunk index)."""
    done = 0
    idx = 0
    while done < n_samples:
        take = min(_CHUNK, n_samples - done)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(idx,))))
        yield rng.standard_normal((factor.rank, take))
        done += take
        idx += 1


def verify_empirical(factor: NoiseFactor, cov: NoiseCovariance, n_samples: int,
                     seed: int = 0) -> NoiseVerification:
    """Monte Carlo check that sampled draws reproduce every covariance block.

    The z-score of each matrix entry is |empirical - target| / SE, with the
    standard error estimated from the per-sample product fluctuations; real and
    imaginary parts are scored separately and the per-block worst is reported.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples for a meaningful check")
    dim = factor.dim
    s1 = np.zeros((dim, dim), dtype=complex)     # sum z z^T
    m_xx = np.zeros((dim, dim))                  # sum over n of x_i^2 x_j^2, etc.
    m_yy = np.zeros((dim, dim))
    m_xy2 = np.zeros((dim, dim))                 # sum (x_i y_i)(x_j y_j)
    m_x2y2 = np.zeros((dim, dim))                # sum x_i^2 y_j^2
    for w in _chunked_draws(factor, n_samples, seed):
        z = factor.a @ w
        x, y = z.real, z.imag
        s1 += z @ z.T
        x2, y2, xy = x * x, y * y, x * y
        m_xx += x2 @ x2.T
        m_yy += y2 @ y2.T
        m_xy2 += xy @ xy.T
        m_x2y2 += x2 @ y2.T
    n = float(n_samples)
    mean = s1 / n
    # Var of Re(z_i z_j) = E[(x_i x_j - y_i y_j)^2] - mean_re^2, and similarly Im.
    e_re2 = (m_xx - 2.0 * m_xy2 + m_yy) / n
    e_im2 = (m_x2y2 + 2.0 * m_xy2 + m_x2y2.T) / n
    var_re = np.maximum(e_re2 - mean.real ** 2, 0.0)
    var_im = np.maximum(e_im2 - mean.imag ** 2, 0.0)
    se_re = np.sqrt(var_re / n)
    se_im = np.sqrt(var_im / n)

    diff = mean - cov.sigma
    floor = 1e-300
    z_re = np.abs(diff.real) / np.maximum(se_re, floor)
    z_re[np.abs(diff.real) < 1e-14] = 0.0
    z_im = np.abs(diff.imag) / np.maximum(se_im, floor)
    z_im[np.abs(diff.imag) < 1e-14] = 0.0
    z_all = np.maximum(z_re, z_im)

    worst = {}
    pairs = [("eta", "eta"), ("eta", "nu"), ("eta", "mu"),
             ("nu", "nu"), ("nu", "mu"), ("mu", "mu")]
    for fa, fb in pairs:
        block = z_all[cov.field_slice(fa), cov.field_slice(fb)]
        worst[f"{fa} {fb}"] = float(block.max()) if block.size else 0.0
    return NoiseVerification(n_samples=n_samples, worst_z=worst, empirical=mean,
                             z=z_all)


@dataclass(frozen=True)
class HsCheckResult:
    """One test vector's Monte Carlo vs closed-form characteristic function."""

    mc: complex
    exact: complex
    se: float
    z: float


def hs_identity_check(cov: NoiseCovariance, factor: NoiseFactor, n_vectors: int = 5,
                      n_samples: int = 100_000, seed: int = 0, hbar: float = 1.0):
    """Check <exp(i z.k)> = exp(-k^T sigma k / 2) for random physical test vectors.

    Test vectors mimic the structure that couples to the fields: real weights
    on the eta and nu slots and purely imaginary weights on the mu slots.
    """
    rng = np.random.default_rng(seed)
    dim = cov.dim
    scale = 0.5 / np.sqrt(max(dim, 1) * max(np.abs(cov.sigma).max(), 1e-30))
    ks = []
    for _ in range(n_vectors):
        k = np.zeros(dim, dtype=complex)
        k[cov.field_slice("eta")] = rng.standard_normal(cov.n_sites * cov.n_t) * scale / hbar
        k[cov.field_slice("nu")] = rng.standard_normal(cov.n_sites * cov.n_t) * scale
        k[cov.field_slice("mu")] = 1j * rng.standard_normal(cov.n_sites * cov.n_tau) * scale / hbar
        ks.append(k)
    kmat = np.array(ks)                                # (n_vectors, dim)
    exact = np.exp(-0.5 * np.einsum("vi,ij,vj->v", kmat, cov.sigma, kmat))
    cmat = kmat @ factor.a                             # (n_vectors, rank)
    s_val = np.zeros(n_vectors, dtype=complex)
    s_re2 = np.zeros(n_vectors)
    s_im2 = np.zeros(n_vectors)
    for w in _chunked_draws(factor, n_samples, seed):
        vals = np.exp(1j * (cmat @ w))                 # same draws for every vector
        s_val += vals.sum(axis=1)
        s_re2 += np.sum(vals.real ** 2, axis=1)
        s_im2 += np.sum(vals.imag ** 2, axis=1)
    n = float(n_samples)
    results = []
    for v in range(n_vectors):
        mc = s_val[v] / n
        se = np.sqrt(max(s_re2[v] / n - mc.real ** 2, 0.0) / n
                     + max(s_im2[v] / n - mc.imag ** 2, 0.0) / n)
        z = abs(mc - exact[v]) / max(se, 1e-300)
        results.append(HsCheckResult(mc=complex(mc), exact=complex(exact[v]), se=float(se),
                                     z=float(z)))
    return results

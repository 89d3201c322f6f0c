"""Correlated complex Gaussian noise on the two-time grid, one coupling channel at a time.

The bath's normal modes are independent, so the influence functional and the
Hubbard-Stratonovich noise that decouples it factorise over modes.  Mode lam
carries eta_lam(t_k), nu_lam(t_k) on the real-time grid and mu_lam(tau_k) on the
imaginary-time grid, which act on the system through its mode coupling
g_lam = sum_i e_{lam,i} f_i / sqrt(m_i) (``model.mode_couplings``).  Only the
unconjugated second moments <z z^T> (the pseudo-covariance) of one mode are
constrained, with K = K_lam its master kernel:

    <eta(t) eta(t')> = hbar * K^R(t - t')
    <eta(t) nu(t')>  = 2i Theta(t - t') K^I(t - t'),  Theta(0) = 1/2
    <eta(t) mu(tau)> = hbar * K(t - i (hbar*beta - tau))
    <mu(tau) mu(tau')> = hbar * [K^e(tau - tau') - K^o(|tau - tau'|)]
    <nu nu> = <nu mu> = 0

The eta-mu cross block fixes the correlation between the equilibrium
preparation and the subsequent real-time kicks.  This convention is the one
that keeps the noise-averaged state of an undriven system exactly stationary;
flipping it to -hbar K(t - i tau) makes it drift
(tests/test_ensemble.py::test_printed_cross_kernel_breaks_stationarity and
tests/test_second_order_consistency.py hold that evidence).

The system sees the modes only through their couplings.  Modes whose couplings
are parallel, g_lam = W[k, lam] G_k (``model.coupling_channels``), act through
the one operator G_k, so only the sum zeta_k = sum_lam W[k, lam] z_lam enters
the dynamics.  Its pseudo-covariance is sigma_k = sum_lam W[k, lam]^2 sigma_lam,
and channels built from disjoint sets of independent modes are independent:
the noise is sampled per channel, r <= M fields instead of M.  Trajectories
depend holomorphically on the noise, so their mean depends only on the
pseudo-covariance, and this is exact.

Sampling draws z_k = a_k @ w_k with w real i.i.d. standard normal and
a_k a_k^T = sigma_k, so the pseudo-covariance holds by construction while
<z z^dagger> = a a^dagger remains free, as it must.  Each a_k comes from a
Takagi (Autonne) factorization of the complex symmetric (2 n_t + n_tau)-dim
sigma_k; no matrix spans two channels.
Three blocks scale as hbar and eta-nu does not, so the covariance is built,
factored and checked balanced, as b sigma b with b = 1/sqrt(hbar) on the eta
and mu rows and sqrt(hbar) on the nu rows: every block is then a value of K.

One function makes every w: ``draw_normal`` reads n rows from the Philox
stream of a key.  A run keys one stream per block of 512 trajectories,
``derive_seed(master_seed, block)``, and draws one row per antithetic pair of
them, 256 rows; the Monte Carlo checks key one per block of samples,
``derive_seed(seed, block)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, FactorizationFailure
from .kernels import KernelContext, site_kernel  # noqa: F401 (hooked by bench/tracing.py)
from .kernels import k_complex as _mode_values   # name hooked by bench/tracing.py
from .workspace import Workspace

DEFAULT_DIM_CAP = 6000
FACTOR_REL_TOL = 1e-8
SV_TRUNCATION = 1e-12
Z_LIMIT = 5.0               # the |z| below which a Monte Carlo check passes
_CHUNK = 4096
BLOCKS = (("eta", "eta"), ("eta", "nu"), ("eta", "mu"),
          ("nu", "nu"), ("nu", "mu"), ("mu", "mu"))


def _safe_ratio(num, den):
    """num / den of float arrays, 0 where num is at rounding level: the
    z-score of every Monte Carlo check held to Z_LIMIT."""
    return np.where(num <= 1e-14, 0.0, num / np.maximum(den, 1e-300))


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
    """Per-channel balanced pseudo-covariance: sigma[k] is the (D, D) matrix
    b sigma_k b of coupling channel k's fields stacked (eta, nu, mu),
    D = 2 n_t + n_tau, with b = ``balance``."""

    sigma: np.ndarray       # (r, D, D)
    n_t: int
    n_tau: int
    hbar: float             # the unit of action, which fixes b

    @property
    def dim(self) -> int:
        return 2 * self.n_t + self.n_tau

    @property
    def balance(self) -> np.ndarray:
        """b (D,): 1/sqrt(hbar) on the eta and mu rows, sqrt(hbar) on the nu rows."""
        b = np.full(self.dim, 1.0 / np.sqrt(self.hbar))
        b[self.field_slice("nu")] = np.sqrt(self.hbar)
        return b

    def field_slice(self, fieldname: str) -> slice:
        start = {"eta": 0, "nu": self.n_t, "mu": 2 * self.n_t}[fieldname]
        return slice(start, start + (self.n_tau if fieldname == "mu" else self.n_t))


def _by_channel(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_lam weights[k, lam]^2 values[lam] for every channel k, (r, *shape).

    The sum runs elementwise over the channel's modes in mode order, so equal
    entries of every mode give equal sums: a BLAS contraction would round
    equal lags differently and lose the Toeplitz structure.
    """
    out = np.empty((len(weights),) + values.shape[1:], dtype=values.dtype)
    for k, row in enumerate(weights):
        first, *rest = np.flatnonzero(row)
        out[k] = row[first] ** 2 * values[first]
        for lam in rest:
            out[k] += row[lam] ** 2 * values[lam]
    return out


def build_covariance(ctx: KernelContext, grids: TimeGrids, dim_cap: int = DEFAULT_DIM_CAP,
                     weights: np.ndarray | None = None) -> NoiseCovariance:
    """Assemble every coupling channel's balanced (b sigma b) joint
    pseudo-covariance on the two-time grid.

    Channel k's is sigma_k = sum_lam weights[k, lam]^2 sigma_lam, with sigma_lam
    mode lam's; the (r, M) ``weights`` come from ``model.coupling_channels``,
    and without them each mode is a channel of its own.  Every block is a value
    of the one master kernel K(t - i tau), weighted and summed over the
    channel's modes: the two real-time blocks share its evaluation at the
    real-time lags.  ``dim_cap`` bounds the per-channel dimension D.
    """
    n_t, n_tau = grids.n_t, grids.n_tau
    dim = 2 * n_t + n_tau
    if dim > dim_cap:
        raise CapExceeded(
            f"per-channel covariance dimension {dim} exceeds cap {dim_cap}; "
            "reduce the grids or raise noise.dim_cap")
    hb = ctx.hbar_beta
    if abs(hb - grids.hbar_beta) > 1e-9 * max(hb, 1.0):
        raise ValueError("imaginary grid span does not equal hbar*beta of the kernel context")
    weights = np.eye(ctx.n_modes) if weights is None else np.asarray(weights, dtype=float)

    def values(t, tau):
        return _by_channel(_mode_values(ctx, t, tau), weights)

    sigma = np.zeros((len(weights), dim, dim), dtype=complex)
    cov = NoiseCovariance(sigma=sigma, n_t=n_t, n_tau=n_tau, hbar=ctx.hbar)
    eta, nu, mu = (cov.field_slice(name) for name in ("eta", "nu", "mu"))

    # Lags from integer index differences so equal lags are bitwise equal and
    # the eta blocks are exactly stationary (Toeplitz per channel).
    k_idx = np.arange(n_t)
    lag_idx = k_idx[:, None] - k_idx[None, :]
    k_t = values(lag_idx * grids.dt, 0.0)                        # (r, n_t, n_t)
    assert np.array_equal(k_t[:, 1:, 1:], k_t[:, :-1, :-1]), \
        "real-time blocks lost their Toeplitz structure"
    # <eta eta> = hbar K^R(t - t'), balanced K^R.
    sigma[:, eta, eta] = k_t.real

    # <eta nu> = 2i Theta(t - t') K^I(t - t'), Theta(0) = 1/2 (value immaterial
    # since K^I(0) = 0).
    theta = (lag_idx > 0).astype(float) + 0.5 * (lag_idx == 0)
    sigma[:, eta, nu] = 2j * theta * k_t.imag

    # <eta mu> = +hbar K(t - i(hbar*beta - tau)), balanced K.
    sigma[:, eta, mu] = values(grids.t[:, None], hb - grids.tau[None, :])

    # <mu mu> = hbar [K^e(dtau) - K^o(|dtau|)] = hbar K(-i |dtau|), evaluated
    # through the master kernel so large w*hbar*beta stays finite; balanced K.
    l_idx = np.arange(n_tau)
    abs_dtau = np.abs(l_idx[:, None] - l_idx[None, :]) * grids.dtau
    sigma[:, mu, mu] = values(0.0, abs_dtau).real

    # The lower cross blocks mirror the upper ones; <nu nu> and <nu mu> stay zero.
    sigma[:, nu, eta] = sigma[:, eta, nu].mT
    sigma[:, mu, eta] = sigma[:, eta, mu].mT
    assert np.array_equal(sigma, sigma.mT), "covariance must be exactly symmetric"
    sigma.setflags(write=False)
    return cov


@dataclass(frozen=True)
class NoiseFactor:
    """Per-channel factors a[k] with a[k] @ a[k].T ~= sigma[k], plus the
    grid layout needed to unpack draws.  Ranks may differ between channels.
    Each a[k] is Fortran-ordered, so that a[k].T.view(float) is the (p_k, 2D)
    real operand of the synthesis without a copy."""

    a: tuple                # r Fortran-ordered arrays of shape (D, p_k)
    norms: tuple            # r arrays (p_k,): column norms of the balanced a~ = b a
    n_t: int
    n_tau: int

    @property
    def dim(self) -> int:
        return 2 * self.n_t + self.n_tau

    @property
    def rank(self) -> int:
        """Length of the standard-normal draw of one trajectory, sum of p_k."""
        return sum(a.shape[1] for a in self.a)


def takagi(sym: np.ndarray):
    """Takagi factorization sym = U diag(s) U^T of a complex symmetric matrix.

    Computed through the real symmetric embedding
    B = [[Re A, Im A], [Im A, -Re A]]: an eigenpair B (x; y) = s (x; y) with
    s > 0 yields a con-eigenvector u = x + i y with A conj(u) = s u, and the
    positive-spectrum eigenvectors are automatically orthonormal as complex
    vectors, including inside degenerate clusters (their pair partners live in
    the mirrored negative-s subspace).  This stays accurate where SVD-based
    constructions lose the pairing between near-degenerate singular subspaces.

    ``eigh`` returns each eigenvector with a sign that can depend on the BLAS
    thread count, and a column's sign picks another noise sample.  So every
    column is oriented by one rule: its first entry whose |Re| is at least
    half the column's largest |Re| is made positive (by |Im| instead where
    the real part is at rounding level, below 1e-8 of the largest |entry|).
    A real sign per column keeps U diag(s) U^T.  The half-size threshold
    stops an entry and its mirror image, of equal size and opposite sign,
    from deciding by rounding which one leads.
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
    part = np.where(np.abs(u.real).max(axis=0) > 1e-8 * np.abs(u).max(axis=0), u.real, u.imag)
    size = np.abs(part)
    lead = np.argmax(size >= 0.5 * size.max(axis=0), axis=0)
    u *= np.where(part[lead, np.arange(n)] < 0.0, -1.0, 1.0)
    return s, u


def factorize(cov: NoiseCovariance) -> NoiseFactor:
    """Factor each channel's balanced b sigma b = a~ a~^T by Takagi, truncating
    singular values below 1e-12 * max; return a = a~ / b, built in Fortran
    order, and a~'s column norms.

    Raises FactorizationFailure when a channel's a~ misses the residual bound
    ``FACTOR_REL_TOL * max|b sigma b|`` of that channel.
    """
    factors, norms = [], []
    for k, sigma in enumerate(cov.sigma):
        s, u = takagi(sigma)
        keep = s > SV_TRUNCATION * s.max(initial=0.0)
        a = np.multiply(u[:, keep], np.sqrt(s[keep])[None, :], order="F")
        scale = np.abs(sigma).max(initial=0.0)
        residual = np.abs(a @ a.T - sigma).max(initial=0.0)
        if residual > FACTOR_REL_TOL * max(scale, 1e-300):
            raise FactorizationFailure(
                f"channel {k} factor residual {residual:g} exceeds {FACTOR_REL_TOL:g} * {scale:g}")
        norms.append(np.linalg.norm(a, axis=0))
        a /= cov.balance[:, None]
        a.setflags(write=False)
        factors.append(a)
    return NoiseFactor(a=tuple(factors), norms=tuple(norms), n_t=cov.n_t, n_tau=cov.n_tau)


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit stream key for block ``index``."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def draw_normal(factor: NoiseFactor, seed: int, n: int,
                work: Workspace | None = None) -> np.ndarray:
    """Real standard normals w (n, rank) of the Philox stream keyed by ``seed``.

    Row j is the j-th rank-long block of the stream, so n rows are a prefix
    of any longer draw from the same key.  They are written to ``work``'s
    "draws" (a new workspace by default).
    """
    work = Workspace() if work is None else work
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return rng.standard_normal(out=work.array("draws", (n, factor.rank), float))


def synthesize(factor: NoiseFactor, w: np.ndarray, work: Workspace | None = None,
               out: np.ndarray | None = None):
    """Fields eta, nu (r, n_t, B) and mu (r, n_tau, B) of draws w (B, rank):
    channel k's are a_k @ w_k^T, with w_k the next p_k columns of w.

    The fields are views of ``out`` (r, D, B), a new array by default.  Each
    channel's product is one real matrix product, w_k @ a_k^T.view(float),
    made in ``work``'s "synthesis" (B, D) (a new workspace by default) and
    copied once, transposed, into ``out``.  A Fortran-ordered a_k, as
    ``factorize`` builds it, is that operand without a copy.
    """
    work = Workspace() if work is None else work
    z = np.empty((len(factor.a), factor.dim, w.shape[0]), complex) if out is None else out
    product = work.array("synthesis", (w.shape[0], factor.dim))
    start = 0
    for z_k, a in zip(z, factor.a):
        np.matmul(w[:, start:start + a.shape[1]], np.ascontiguousarray(a.T).view(float),
                  out=product.view(float))
        z_k[...] = product.T
        start += a.shape[1]
    return np.split(z, [factor.n_t, 2 * factor.n_t], axis=1)


@dataclass(frozen=True)
class NoiseVerification:
    """Per-block worst z-scores of empirical pseudo-covariance vs target.

    ``empirical`` and ``z`` hold the full (r, D, D) per-channel matrices for
    inspection/CSV dumps, balanced like the covariance.
    """

    n_samples: int
    worst_z: dict
    empirical: np.ndarray
    z: np.ndarray

    @property
    def passed(self) -> bool:
        return all(z < Z_LIMIT for z in self.worst_z.values())

    def lines(self):
        out = [f"noise verification with {self.n_samples} samples "
               f"(threshold {Z_LIMIT:g})"]
        for name, z in self.worst_z.items():
            mark = "ok" if z < Z_LIMIT else "FAIL"
            out.append(f"  <{name}>: worst |z| = {z:8.3f}   {mark}")
        out.append("PASS" if self.passed else "FAIL")
        return out


def verify_empirical(factor: NoiseFactor, cov: NoiseCovariance, n_samples: int,
                     seed: int = 0) -> NoiseVerification:
    """Monte Carlo check that each channel's sampled fields reproduce every
    block of that channel's covariance.

    The z-score of each entry of the balanced b z (b z)^T is
    |empirical - b sigma b| / SE, with the standard error estimated from the
    per-sample product fluctuations; real and imaginary parts are scored
    separately and the per-block worst over all channels is reported.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples for a meaningful check")
    shape = cov.sigma.shape
    s1 = np.zeros(shape, dtype=complex)     # sum z z^T
    m_xx = np.zeros(shape)                  # sum over n of x_i^2 x_j^2, etc.
    m_yy = np.zeros(shape)
    m_xy2 = np.zeros(shape)                 # sum (x_i y_i)(x_j y_j)
    m_x2y2 = np.zeros(shape)                # sum x_i^2 y_j^2
    for k, done in enumerate(range(0, n_samples, _CHUNK)):
        w = draw_normal(factor, derive_seed(seed, k), min(_CHUNK, n_samples - done))
        z = np.empty((len(factor.a), factor.dim, len(w)), dtype=complex)     # (M, D, n)
        synthesize(factor, w, out=z)
        z *= cov.balance[:, None]
        x, y = z.real, z.imag
        s1 += z @ z.mT
        x2, y2, xy = x * x, y * y, x * y
        m_xx += x2 @ x2.mT
        m_yy += y2 @ y2.mT
        m_xy2 += xy @ xy.mT
        m_x2y2 += x2 @ y2.mT
    n = float(n_samples)
    mean = s1 / n
    # Var of Re(z_i z_j) = E[(x_i x_j - y_i y_j)^2] - mean_re^2, and similarly Im.
    e_re2 = (m_xx - 2.0 * m_xy2 + m_yy) / n
    e_im2 = (m_x2y2 + 2.0 * m_xy2 + m_x2y2.mT) / n
    var_re = np.maximum(e_re2 - mean.real ** 2, 0.0)
    var_im = np.maximum(e_im2 - mean.imag ** 2, 0.0)
    se_re = np.sqrt(var_re / n)
    se_im = np.sqrt(var_im / n)

    diff = mean - cov.sigma
    z_all = np.maximum(_safe_ratio(np.abs(diff.real), se_re), _safe_ratio(np.abs(diff.imag), se_im))

    worst = {}
    for fa, fb in BLOCKS:
        block = z_all[:, cov.field_slice(fa), cov.field_slice(fb)]
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
                      n_samples: int = 100_000, seed: int = 0):
    """Check <exp(i z.k)> = exp(-sum_c k_c^T sigma_c k_c / 2) for random
    physical test vectors k = (k_c), one part per channel c.

    Test vectors mimic the structure that couples to the fields: real weights
    on every channel's eta and nu slots and purely imaginary weights on its mu
    slots.  They are drawn balanced, as k~ with k = b k~ and
    k^T sigma k = k~^T (b sigma b) k~.
    """
    rng = np.random.default_rng(seed)
    m, n_t, n_tau = len(cov.sigma), cov.n_t, cov.n_tau
    scale = 0.5 / np.sqrt(max(m * cov.dim, 1) * max(np.abs(cov.sigma).max(initial=0.0), 1e-30))
    kmat = np.zeros((n_vectors, m, cov.dim), dtype=complex)
    for k in kmat:
        k[:, cov.field_slice("eta")] = rng.standard_normal((m, n_t)) * scale
        k[:, cov.field_slice("nu")] = rng.standard_normal((m, n_t)) * scale
        k[:, cov.field_slice("mu")] = 1j * rng.standard_normal((m, n_tau)) * scale
    exact = np.exp(-0.5 * np.einsum("vli,lij,vlj->v", kmat, cov.sigma, kmat))
    kmat *= cov.balance
    cmat = np.concatenate([np.zeros((n_vectors, 0))]
                          + [kmat[:, c] @ a for c, a in enumerate(factor.a)],
                          axis=1)                       # (n_vectors, rank)
    s_val = np.zeros(n_vectors, dtype=complex)
    s_re2 = np.zeros(n_vectors)
    s_im2 = np.zeros(n_vectors)
    for k, done in enumerate(range(0, n_samples, _CHUNK)):
        w = draw_normal(factor, derive_seed(seed, k), min(_CHUNK, n_samples - done))
        vals = np.exp(1j * (w @ cmat.T))               # same draws for every vector
        s_val += vals.sum(axis=0)
        s_re2 += np.sum(vals.real ** 2, axis=0)
        s_im2 += np.sum(vals.imag ** 2, axis=0)
    n = float(n_samples)
    mc = s_val / n
    se = np.sqrt(np.maximum(s_re2 / n - mc.real ** 2, 0.0) / n
                 + np.maximum(s_im2 / n - mc.imag ** 2, 0.0) / n)
    z = _safe_ratio(np.abs(mc - exact), se)
    return [HsCheckResult(complex(m), complex(e), float(s), float(v))
            for m, e, s, v in zip(mc, exact, se, z)]

"""Memory kernels of the thermal harmonic bath.

Per normal mode the master kernel is

    K(theta) = cosh(w (hb/2 - i theta)) / (2 w sinh(hb w / 2)),    hb = hbar*beta,

evaluated at real times theta = t, imaginary times theta = i tau, and complex
times theta = t - i tau.  Site-representation kernels are mass-weighted
eigenvector contractions of the per-mode values:

    L_ij(.) = (1/sqrt(m_i m_j)) sum_lam e_{lam,i} e_{lam,j} K_lam(.)

Hyperbolic ratios are computed from exponentials of non-positive arguments so
that large w*hbar*beta does not overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BathSpec, NormalModes


def coth(x):
    """coth(x) for x > 0, stable for both tiny and huge arguments."""
    x = np.asarray(x, dtype=float)
    return (1.0 + np.exp(-2.0 * x)) / (-np.expm1(-2.0 * x))


@dataclass(frozen=True)
class KernelContext:
    """Bath normal modes plus the unit scalars entering the kernels."""

    modes: NormalModes
    masses: np.ndarray
    hbar: float
    beta: float

    def __post_init__(self):
        masses = np.array(self.masses, dtype=float)
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)
        if masses.size != self.modes.n_modes:
            raise ValueError("mass vector does not match mode count")

    @classmethod
    def from_bath(cls, bath: BathSpec, modes: NormalModes, hbar: float, beta: float):
        return cls(modes=modes, masses=bath.masses, hbar=hbar, beta=beta)

    @property
    def n_modes(self) -> int:
        return self.modes.n_modes

    @property
    def hbar_beta(self) -> float:
        return self.hbar * self.beta

    def site_weights(self) -> np.ndarray:
        """S[i, lam] = e_{lam,i} / sqrt(m_i); L = S K S^T."""
        if self.n_modes == 0:
            return np.zeros((0, 0))
        return self.modes.evecs / np.sqrt(self.masses)[:, None]


def k_real_r(ctx: KernelContext, lam: int, t) -> np.ndarray:
    """K^R(t) = coth(hb w/2) cos(w t) / (2 w)."""
    w = ctx.modes.omegas[lam]
    return coth(0.5 * ctx.hbar_beta * w) * np.cos(w * np.asarray(t, dtype=float)) / (2.0 * w)


def k_real_i(ctx: KernelContext, lam: int, t) -> np.ndarray:
    """K^I(t) = -sin(w t) / (2 w)."""
    w = ctx.modes.omegas[lam]
    return -np.sin(w * np.asarray(t, dtype=float)) / (2.0 * w)


def k_imag_even(ctx: KernelContext, lam: int, tau) -> np.ndarray:
    """K^e(tau) = cosh(w tau) coth(hb w/2) / (2 w)."""
    w = ctx.modes.omegas[lam]
    return np.cosh(w * np.asarray(tau, dtype=float)) * coth(0.5 * ctx.hbar_beta * w) / (2.0 * w)


def k_imag_odd(ctx: KernelContext, lam: int, tau) -> np.ndarray:
    """K^o(tau) = sinh(w tau) / (2 w)."""
    w = ctx.modes.omegas[lam]
    return np.sinh(w * np.asarray(tau, dtype=float)) / (2.0 * w)


def k_complex(ctx: KernelContext, lam: int, t, tau) -> np.ndarray:
    """Master kernel at theta = t - i tau, evaluated in complex arithmetic.

    Uses cosh(x)/sinh(X) = (e^{x-X} + e^{-x-X}) / (1 - e^{-2X}) with X = w hb/2,
    so that for tau in [0, hb] every exponent is non-positive.
    """
    w = ctx.modes.omegas[lam]
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    big_x = 0.5 * ctx.hbar_beta * w
    x = w * (0.5 * ctx.hbar_beta - tau)
    denom = -np.expm1(-2.0 * big_x)
    ep = np.exp(x - big_x)
    em = np.exp(-x - big_x)
    cosh_ratio = (ep + em) / denom
    sinh_ratio = (ep - em) / denom
    return (cosh_ratio * np.cos(w * t) - 1j * sinh_ratio * np.sin(w * t)) / (2.0 * w)


def _mode_values(ctx: KernelContext, kind: str, t, tau):
    """Stacked per-mode kernel values, shape (M,) + broadcast(t, tau)."""
    funcs = {
        "R": lambda lam: k_real_r(ctx, lam, t),
        "I": lambda lam: k_real_i(ctx, lam, t),
        "e": lambda lam: k_imag_even(ctx, lam, tau),
        "o": lambda lam: k_imag_odd(ctx, lam, tau),
        "complex": lambda lam: k_complex(ctx, lam, t, tau),
    }
    if kind not in funcs:
        raise ValueError(f"unknown kernel kind {kind!r}")
    vals = [np.asarray(funcs[kind](lam)) for lam in range(ctx.n_modes)]
    if not vals:
        shape = np.broadcast(np.asarray(t, dtype=float), np.asarray(tau, dtype=float)).shape
        dtype = complex if kind == "complex" else float
        return np.zeros((0,) + shape, dtype=dtype)
    return np.stack(vals)


def site_kernel(ctx: KernelContext, kvals: np.ndarray) -> np.ndarray:
    """Contract per-mode values (M, *shape) into site matrices (*shape, M, M)."""
    s = ctx.site_weights()
    m = ctx.n_modes
    if m == 0:
        return np.zeros(kvals.shape[1:] + (0, 0), dtype=kvals.dtype)
    l = np.einsum("il,jl,l...->...ij", s, s, kvals)
    return 0.5 * (l + np.swapaxes(l, -1, -2))


def l_matrix(ctx: KernelContext, kind: str, t=0.0, tau=0.0) -> np.ndarray:
    """Site-representation kernel matrix L_ij for the requested kind.

    kind "R"/"I" use ``t``; "e"/"o" use ``tau``; "complex" uses both.  Scalar
    time arguments give an (M, M) matrix; array arguments broadcast into
    (*shape, M, M).  The result is exactly symmetric in (i, j).
    """
    return site_kernel(ctx, _mode_values(ctx, kind, t, tau))

"""Memory kernel of the thermal harmonic bath.

Per normal mode the master kernel is one function of complex time,

    K(theta) = cosh(w (hb/2 - i theta)) / (2 w sinh(hb w / 2)),    hb = hbar*beta,

and every kernel the method uses is a value of it:

    real time       K(t) = K^R(t) + i K^I(t),
                    K^R(t) = coth(hb w/2) cos(w t) / (2 w),  K^I(t) = -sin(w t) / (2 w)
    imaginary time  K(+-i tau) = K^e(tau) +- K^o(tau),
                    K^e(tau) = cosh(w tau) coth(hb w/2) / (2 w),  K^o(tau) = sinh(w tau) / (2 w)
    mixed time      K(t - i tau)

Site-representation kernels are mass-weighted eigenvector contractions of the
per-mode values:

    L_ij(.) = (1/sqrt(m_i m_j)) sum_lam e_{lam,i} e_{lam,j} K_lam(.)

Hyperbolic ratios are computed from exponentials of non-positive arguments so
that large w*hbar*beta does not overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BathSpec, NormalModes


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


def k_complex(ctx: KernelContext, t, tau) -> np.ndarray:
    """Master kernel K_lam(t - i tau) of every mode, shape (M,) + broadcast(t, tau).

    Uses cosh(x)/sinh(X) = (e^{x-X} + e^{-x-X}) / (1 - e^{-2X}) with X = w hb/2,
    so that for tau in [0, hb] every exponent is non-positive.
    """
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    w = ctx.modes.omegas.reshape((-1,) + (1,) * np.broadcast(t, tau).ndim)
    big_x = 0.5 * ctx.hbar_beta * w
    x = w * (0.5 * ctx.hbar_beta - tau)
    denom = -np.expm1(-2.0 * big_x)
    ep = np.exp(x - big_x)
    em = np.exp(-x - big_x)
    cosh_ratio = (ep + em) / denom
    sinh_ratio = (ep - em) / denom
    return (cosh_ratio * np.cos(w * t) - 1j * sinh_ratio * np.sin(w * t)) / (2.0 * w)


def site_kernel(ctx: KernelContext, kvals: np.ndarray) -> np.ndarray:
    """Contract per-mode values (M, *shape) into site matrices (*shape, M, M)."""
    s = ctx.site_weights()
    m = ctx.n_modes
    if m == 0:
        return np.zeros(kvals.shape[1:] + (0, 0), dtype=kvals.dtype)
    l = np.einsum("il,jl,l...->...ij", s, s, kvals)
    return 0.5 * (l + np.swapaxes(l, -1, -2))


def l_matrix(ctx: KernelContext, t=0.0, tau=0.0) -> np.ndarray:
    """Site-representation master kernel L_ij(t - i tau).

    Scalar time arguments give an (M, M) matrix; array arguments broadcast
    into (*shape, M, M).  The result is exactly symmetric in (i, j).
    """
    return site_kernel(ctx, k_complex(ctx, t, tau))

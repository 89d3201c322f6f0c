"""Batched propagation: imaginary-time quench, then the real-time stochastic
Liouville-von Neumann step.

Imaginary time:  -hbar d rho/d tau = (H0 - sum_i mu_i(tau) f_i) rho,
starting from the identity; the trace at tau = hbar*beta carries the
normalization.  Real time:

    i hbar d rho/dt = [H(t), rho] - sum_i ( eta_i [f_i, rho]
                                            + (hbar/2) nu_i {f_i, rho} )

equivalently rho' = (H+ rho - rho H-) / (i hbar) with
H+- = H(t) - sum_i (eta_i +- hbar nu_i / 2) f_i.  Both phases run through one
fixed-step classical RK4 driver, one step per grid interval by default.  The
noises and the drive amplitudes are all samples on the grids; one linear
interpolation, ``interpolate_half_grid``, brings each onto the RK4 stage
times.  Every array is batched over trajectories; one trajectory is a batch
of size one.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .model import SystemSpec
from .noise import TimeGrids

DIVERGENCE_LIMIT = 1e300


def interpolate_half_grid(samples: np.ndarray, substeps: int) -> np.ndarray:
    """Linear interpolation of uniform-grid samples onto the RK4 stage grid.

    ``samples`` has shape (..., n); the output has shape
    (..., 2*substeps*(n-1)+1) sampling positions j * delta / (2*substeps).
    Grid nodes are reproduced exactly.
    """
    n = samples.shape[-1]
    m = 2 * substeps * (n - 1) + 1
    pos = np.arange(m) / (2.0 * substeps)
    idx = np.minimum(pos.astype(int), n - 2)
    frac = pos - idx
    return samples[..., idx] * (1.0 - frac) + samples[..., idx + 1] * frac


def _mix(h_static, f_stack, coeffs):
    """h_static - sum_i coeffs[b, i] f_i  ->  (B, d, d)."""
    return h_static[None, :, :] - np.einsum("bi,ijk->bjk", coeffs, f_stack)


def _rk4(rhs, rho, n_steps, h, substeps, series=None):
    """Classical RK4 on a batch of matrices, rhs(stage, rho) at stage j = time j*h/2.

    A trajectory whose largest entry turns non-finite or exceeds
    DIVERGENCE_LIMIT is zeroed and marked dead.  With ``series``, the state
    after every ``substeps`` steps is stored at the next grid node.
    Returns the final (B, d, d) state and the (B,) alive mask.
    """
    alive = np.ones(rho.shape[0], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(n_steps):
            st = 2 * s
            k1 = rhs(st, rho)
            k2 = rhs(st + 1, rho + 0.5 * h * k1)
            k3 = rhs(st + 1, rho + 0.5 * h * k2)
            k4 = rhs(st + 2, rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            mags = np.abs(rho).max(axis=(1, 2))
            bad = ~np.isfinite(mags) | (mags > DIVERGENCE_LIMIT)
            if np.any(bad & alive):
                alive = alive & ~bad
                rho = np.where(alive[:, None, None], rho, 0.0)
            if series is not None and (s + 1) % substeps == 0:
                series[:, (s + 1) // substeps] = rho
    return rho, alive


def equilibrate_batch(system: SystemSpec, mu_bar: np.ndarray, grids: TimeGrids,
                      substeps: int = 1):
    """Integrate the imaginary-time quench for a batch.

    Parameters
    ----------
    mu_bar : (B, M, n_tau) complex noise samples on the imaginary grid.

    Returns
    -------
    rho_end : (B, d, d) unnormalized rho_bar(hbar*beta) (zeroed where diverged).
    diverged : (B,) bool mask.
    """
    f_stack, h0, hbar = system.coupling_stack(), system.h0, system.hbar
    fine = interpolate_half_grid(mu_bar, substeps)      # (B, M, 2*n_steps+1)

    def rhs(stage, r):
        return -_mix(h0, f_stack, fine[:, :, stage]) @ r / hbar

    rho = np.broadcast_to(np.eye(system.dim, dtype=complex),
                          (mu_bar.shape[0], system.dim, system.dim)).copy()
    rho, alive = _rk4(rhs, rho, (grids.n_tau - 1) * substeps, grids.dtau / substeps,
                      substeps)
    return rho, ~alive


def evolve_batch(system: SystemSpec, eta: np.ndarray, nu: np.ndarray,
                 grids: TimeGrids, rho0: np.ndarray, substeps: int = 1):
    """Integrate the real-time equation for a batch from rho0.

    Parameters
    ----------
    eta, nu : (B, M, n_t) complex noise samples on the real-time grid.
    rho0 : (B, d, d) initial matrices (any normalization; the flow is linear).

    The stage Hamiltonians h0 + sum_k a_k(t) V_k are built once per call; a
    drive whose amplitudes are not n_t samples raises DimensionMismatch.

    Returns
    -------
    series : (B, n_t, d, d) with series[:, 0] = rho0 (zeroed where diverged).
    diverged : (B,) bool mask.
    """
    f_stack, h0, hbar = system.coupling_stack(), system.h0, system.hbar
    h = grids.dt / substeps
    n_steps = (grids.n_t - 1) * substeps
    co_p = interpolate_half_grid(eta + 0.5 * hbar * nu, substeps)
    co_m = interpolate_half_grid(eta - 0.5 * hbar * nu, substeps)
    if any(dr.amplitudes.size != grids.n_t for dr in system.drive):
        raise DimensionMismatch(f"drive amplitudes must hold n_t = {grids.n_t} samples")
    amps = np.array([dr.amplitudes for dr in system.drive]).reshape(-1, grids.n_t)
    v = np.array([dr.matrix for dr in system.drive]).reshape(-1, system.dim, system.dim)
    h_stage = h0 + np.einsum("ks,kij->sij", interpolate_half_grid(amps, substeps), v)

    def rhs(stage, r):
        hp = _mix(h_stage[stage], f_stack, co_p[:, :, stage])
        hm = _mix(h_stage[stage], f_stack, co_m[:, :, stage])
        return (hp @ r - r @ hm) / (1j * hbar)

    series = np.zeros((rho0.shape[0], grids.n_t, system.dim, system.dim), dtype=complex)
    series[:, 0] = rho0
    _, alive = _rk4(rhs, rho0.astype(complex), n_steps, h, substeps, series)
    series = np.where(alive[:, None, None, None], series, 0.0)
    return series, ~alive

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

Inside this module a batch is held as (d, d, B), trajectory axis last and
contiguous, and the per-stage noise coefficients as (S, M, B).  Every matrix
product is then d broadcast multiply-adds over whole B-long rows: a few numpy
calls per stage, where a stacked ``@`` on (B, d, d) pays per-matrix overhead.
That is faster up to d = 4; from about d = 8 the stacked ``@`` would win.  The
public functions transpose once on entry and once on exit, so callers see
(B, ...) arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .model import SystemSpec
from .noise import TimeGrids

DIVERGENCE_LIMIT = 1e300
STAGE_ROWS = 64


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


def _stage_coefficients(samples: np.ndarray, substeps: int) -> np.ndarray:
    """(B, M, n) grid samples -> (S, M, B) contiguous RK4 stage coefficients.

    Interpolated STAGE_ROWS trajectories at a time, so that the temporaries
    stay small however wide the batch is.
    """
    b, m, n = samples.shape
    out = np.empty((2 * substeps * (n - 1) + 1, m, b), dtype=complex)
    for lo in range(0, b, STAGE_ROWS):
        rows = slice(lo, lo + STAGE_ROWS)
        out[:, :, rows] = interpolate_half_grid(samples[rows], substeps).transpose(2, 1, 0)
    return out


def _hamiltonian(h_static, f_stack, coeffs):
    """h_static - sum_i coeffs[i, b] f_i  ->  (d, d, B)."""
    return h_static[:, :, None] - np.tensordot(f_stack, coeffs, axes=(0, 0))


def _matmul(a, b):
    """Per-trajectory product of two (d, d, B) stacks."""
    out = a[:, 0, None] * b[None, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j, None] * b[None, j]
    return out


def _rk4(rhs, rho, n_steps, h, substeps, series=None):
    """Classical RK4 on a (d, d, B) batch, rhs(stage, rho) at stage j = time j*h/2.

    A trajectory whose largest entry turns non-finite or exceeds
    DIVERGENCE_LIMIT is zeroed and marked dead.  With ``series`` (n, d, d, B),
    the state after every ``substeps`` steps is stored at the next grid node.
    Returns the final (d, d, B) state and the (B,) alive mask.
    """
    alive = np.ones(rho.shape[-1], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(n_steps):
            st = 2 * s
            k1 = rhs(st, rho)
            k2 = rhs(st + 1, rho + 0.5 * h * k1)
            k3 = rhs(st + 1, rho + 0.5 * h * k2)
            k4 = rhs(st + 2, rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            mags = np.abs(rho).max(axis=(0, 1))
            bad = ~np.isfinite(mags) | (mags > DIVERGENCE_LIMIT)
            if np.any(bad & alive):
                alive = alive & ~bad
                rho = np.where(alive, rho, 0.0)
            if series is not None and (s + 1) % substeps == 0:
                series[(s + 1) // substeps] = rho
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
    co = _stage_coefficients(mu_bar, substeps)           # (2*n_steps+1, M, B)

    def rhs(stage, r):
        return _matmul(-_hamiltonian(h0, f_stack, co[stage]), r) / hbar

    rho = np.broadcast_to(np.eye(system.dim, dtype=complex)[:, :, None],
                          (system.dim, system.dim, mu_bar.shape[0])).copy()
    rho, alive = _rk4(rhs, rho, (grids.n_tau - 1) * substeps, grids.dtau / substeps,
                      substeps)
    return np.ascontiguousarray(rho.transpose(2, 0, 1)), ~alive


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
    co_p = _stage_coefficients(eta + 0.5 * hbar * nu, substeps)
    co_m = _stage_coefficients(eta - 0.5 * hbar * nu, substeps)
    if any(dr.amplitudes.size != grids.n_t for dr in system.drive):
        raise DimensionMismatch(f"drive amplitudes must hold n_t = {grids.n_t} samples")
    amps = np.array([dr.amplitudes for dr in system.drive]).reshape(-1, grids.n_t)
    v = np.array([dr.matrix for dr in system.drive]).reshape(-1, system.dim, system.dim)
    h_stage = h0 + np.einsum("ks,kij->sij", interpolate_half_grid(amps, substeps), v)

    def rhs(stage, r):
        out = _matmul(_hamiltonian(h_stage[stage], f_stack, co_p[stage]), r)
        out -= _matmul(r, _hamiltonian(h_stage[stage], f_stack, co_m[stage]))
        out /= 1j * hbar
        return out

    rho = np.ascontiguousarray(rho0.transpose(1, 2, 0), dtype=complex)
    series = np.zeros((grids.n_t,) + rho.shape, dtype=complex)
    series[0] = rho
    _, alive = _rk4(rhs, rho, n_steps, h, substeps, series)
    del co_p, co_m          # freed before the series is copied out, to lower the peak memory
    if not alive.all():
        series[..., ~alive] = 0.0
    return np.ascontiguousarray(series.transpose(3, 0, 1, 2)), ~alive

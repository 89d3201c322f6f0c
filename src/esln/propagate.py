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
contiguous.  The RK4 steps run in blocks of BLOCK_INTERVALS grid intervals;
once per block, the generator of every stage of the block is built as one
(S, d, d, B) array, by one broadcast multiply-add per coupling, so each
right-hand side is only one or two matrix products.  Every matrix product is
d broadcast multiply-adds over whole B-long rows: a few numpy calls per
stage, where a stacked ``@`` on (B, d, d) pays per-matrix overhead.  That is
faster up to d = 4; from about d = 8 the stacked ``@`` would win.  No BLAS
call is made, so the bits do not depend on BLAS threads, on B or on
BLOCK_INTERVALS.  The public functions transpose once on entry and once on
exit, so callers see (B, ...) arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .model import SystemSpec
from .noise import TimeGrids

DIVERGENCE_LIMIT = 1e300
BLOCK_INTERVALS = 32


def interpolate_half_grid(samples: np.ndarray, substeps: int,
                          stages: slice = slice(None)) -> np.ndarray:
    """Linear interpolation of uniform-grid samples onto the RK4 stage grid.

    ``samples`` has shape (..., n); the output has shape
    (..., 2*substeps*(n-1)+1) sampling positions j * delta / (2*substeps), or
    only the positions j in ``stages``: a window is the matching slice of the
    whole interpolation, bit for bit.  Grid nodes are reproduced exactly.
    """
    n = samples.shape[-1]
    pos = np.arange(2 * substeps * (n - 1) + 1)[stages] / (2.0 * substeps)
    idx = np.minimum(pos.astype(int), n - 2)
    frac = pos - idx
    return samples[..., idx] * (1.0 - frac) + samples[..., idx + 1] * frac


def _generators(h, f_stack, samples, substeps, stages, divisor):
    """(h - sum_i c_i f_i) / divisor at the ``stages`` of the stage grid, (S, d, d, B).

    ``h`` is (d, d) or one (d, d) per stage, and c_i the i-th of the (B, r, n)
    ``samples`` interpolated onto the stages.  The small h and f_i are divided,
    not the result, and the sum is r broadcast multiply-adds, without BLAS.
    """
    co = interpolate_half_grid(samples, substeps, stages).transpose(1, 2, 0)   # (r, S, B)
    out = np.empty((co.shape[1],) + h.shape[-2:] + (co.shape[2],), dtype=complex)
    out[...] = (h / divisor)[..., None]
    for f, c in zip(f_stack / divisor, co):
        out -= f[:, :, None] * c[:, None, None, :]
    return out


def _matmul(a, b):
    """Per-trajectory product of two (d, d, B) stacks."""
    out = a[:, 0, None] * b[None, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j, None] * b[None, j]
    return out


def _rk4(block_rhs, rho, n_intervals, h, substeps, series=None):
    """Classical RK4 on a (d, d, B) batch over ``n_intervals`` grid intervals
    of ``substeps`` steps each; stage j of the whole run is at time j*h/2.

    The steps run BLOCK_INTERVALS grid intervals at a time.  Per block,
    ``block_rhs(stages)`` builds what the block's right-hand sides need for
    the slice ``stages`` of the stage grid and returns rhs(j, rho) at the
    block's j-th stage.  A trajectory whose largest entry turns non-finite or
    exceeds DIVERGENCE_LIMIT is zeroed and marked dead.  With ``series``
    (n, d, d, B), the state after every ``substeps`` steps is stored at the
    next grid node.  Returns the final (d, d, B) state and the (B,) alive mask.
    """
    alive = np.ones(rho.shape[-1], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_intervals, BLOCK_INTERVALS):
            hi = min(lo + BLOCK_INTERVALS, n_intervals)
            first = 2 * substeps * lo
            rhs = block_rhs(slice(first, 2 * substeps * hi + 1))
            for s in range(substeps * lo, substeps * hi):
                j = 2 * s - first
                k1 = rhs(j, rho)
                k2 = rhs(j + 1, rho + 0.5 * h * k1)
                k3 = rhs(j + 1, rho + 0.5 * h * k2)
                k4 = rhs(j + 2, rho + h * k3)
                k2 *= 2.0                   # k1 + 2 k2 + 2 k3 + k4, summed left to right
                k2 += k1
                k3 *= 2.0
                k2 += k3
                k2 += k4
                k2 *= h / 6.0
                rho = rho + k2
                if not np.abs(rho).max() <= DIVERGENCE_LIMIT:     # true for NaN too
                    mags = np.abs(rho).max(axis=(0, 1))
                    alive &= np.isfinite(mags) & (mags <= DIVERGENCE_LIMIT)
                    rho = np.where(alive, rho, 0.0)
                if series is not None and (s + 1) % substeps == 0:
                    series[(s + 1) // substeps] = rho
            del rhs             # frees this block's generators before the next are built
    return rho, alive


def equilibrate_batch(system: SystemSpec, mu_bar: np.ndarray, grids: TimeGrids,
                      substeps: int = 1):
    """Integrate the imaginary-time quench for a batch.

    Parameters
    ----------
    mu_bar : (B, r, n_tau) complex noise samples on the imaginary grid, one
        field per coupling of ``system`` (per coupling channel in a run).

    Returns
    -------
    rho_end : (B, d, d) unnormalized rho_bar(hbar*beta) (zeroed where diverged).
    diverged : (B,) bool mask.
    """
    f_stack, h0, hbar = system.coupling_stack(), system.h0, system.hbar

    def block_rhs(stages):
        g = _generators(h0, f_stack, mu_bar, substeps, stages, -hbar)
        return lambda j, r: _matmul(g[j], r)

    rho = np.broadcast_to(np.eye(system.dim, dtype=complex)[:, :, None],
                          (system.dim, system.dim, mu_bar.shape[0])).copy()
    rho, alive = _rk4(block_rhs, rho, grids.n_tau - 1, grids.dtau / substeps, substeps)
    return np.ascontiguousarray(rho.transpose(2, 0, 1)), ~alive


def evolve_batch(system: SystemSpec, eta: np.ndarray, nu: np.ndarray,
                 grids: TimeGrids, rho0: np.ndarray, substeps: int = 1):
    """Integrate the real-time equation for a batch from rho0.

    Parameters
    ----------
    eta, nu : (B, r, n_t) complex noise samples on the real-time grid, one
        field per coupling of ``system``.
    rho0 : (B, d, d) initial matrices (any normalization; the flow is linear).

    The stage Hamiltonians h0 + sum_k a_k(t) V_k are built once per call; a
    drive whose amplitudes are not n_t samples raises DimensionMismatch.  The
    generators A+- = (H+- at each stage) / (i hbar) are built once per block
    of BLOCK_INTERVALS grid intervals, and each right-hand side is
    A+ rho - rho A-.

    Returns
    -------
    series : (B, n_t, d, d) with series[:, 0] = rho0 (zeroed where diverged).
    diverged : (B,) bool mask.
    """
    f_stack, h0, hbar = system.coupling_stack(), system.h0, system.hbar
    if any(dr.amplitudes.size != grids.n_t for dr in system.drive):
        raise DimensionMismatch(f"drive amplitudes must hold n_t = {grids.n_t} samples")
    amps = np.array([dr.amplitudes for dr in system.drive]).reshape(-1, grids.n_t)
    v = np.array([dr.matrix for dr in system.drive]).reshape(-1, system.dim, system.dim)
    h_stage = h0 + np.einsum("ks,kij->sij", interpolate_half_grid(amps, substeps), v)
    c_p, c_m = eta + 0.5 * hbar * nu, eta - 0.5 * hbar * nu

    def block_rhs(stages):
        a_p = _generators(h_stage[stages], f_stack, c_p, substeps, stages, 1j * hbar)
        a_m = _generators(h_stage[stages], f_stack, c_m, substeps, stages, 1j * hbar)

        def rhs(j, r):
            out = _matmul(a_p[j], r)
            out -= _matmul(r, a_m[j])
            return out
        return rhs

    rho = np.ascontiguousarray(rho0.transpose(1, 2, 0), dtype=complex)
    series = np.zeros((grids.n_t,) + rho.shape, dtype=complex)
    series[0] = rho
    _, alive = _rk4(block_rhs, rho, grids.n_t - 1, grids.dt / substeps, substeps, series)
    if not alive.all():
        series[..., ~alive] = 0.0
    return np.ascontiguousarray(series.transpose(3, 0, 1, 2)), ~alive

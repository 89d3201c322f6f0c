"""Batched propagation: imaginary-time quench, then the real-time stochastic
Liouville-von Neumann step.

Imaginary time:  -hbar d rho/d tau = (H0 - sum_i mu_i(tau) f_i) rho,
starting from the identity; the trace at tau = hbar*beta carries the
normalization.  Real time:

    i hbar d rho/dt = [H(t), rho] - sum_i ( eta_i [f_i, rho]
                                            + (hbar/2) nu_i {f_i, rho} )

equivalently rho' = (H+ rho - rho H-) / (i hbar) with
H+- = H(t) - sum_i (eta_i +- hbar nu_i / 2) f_i.  Both phases run through one
fixed-step classical RK4 driver, one step per grid interval.  The noises
and the drive amplitudes are all samples on the grids; one linear
interpolation, ``interpolate_half_grid``, brings each onto the RK4 stage
times.  Every array is batched over trajectories; one trajectory is a batch
of size one.

Inside this module a batch is held as (d, d, B), trajectory axis last and
contiguous.  The RK4 steps run in blocks of BLOCK_INTERVALS grid intervals;
once per block, the generator of every stage of the block is built as one
(S, d, d, B) window, by d * d broadcast multiply-adds per coupling, so each
right-hand side is only one or two matrix products.  Every matrix product is
d broadcast multiply-adds over whole B-long rows: a few numpy calls per
stage, where a stacked ``@`` on (B, d, d) pays per-matrix overhead.  That is
faster up to d = 4; from about d = 8 the stacked ``@`` would win.  No BLAS
call is made, so the bits do not depend on BLAS threads, on B or on
BLOCK_INTERVALS.  The public functions take the batch as (B, ...) arrays and
return the series as a (B, ...) view of its trajectory-last array.

Every array a call makes, from the interpolation and generator windows to the
RK4 stages and the series, lives in a Workspace (``esln.workspace``) and is
written through ``out=``.  A run passes one workspace to all its blocks, so
after its first block propagation allocates nothing large; a call without one
makes its own.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .model import SystemSpec
from .noise import TimeGrids
from .workspace import Workspace

DIVERGENCE_LIMIT = 1e300
BLOCK_INTERVALS = 32


def interpolate_half_grid(samples: np.ndarray, *, nodes: slice = slice(None),
                          work: Workspace | None = None) -> np.ndarray:
    """Linear interpolation of uniform-grid samples onto the RK4 stage grid.

    ``samples`` has shape (..., n); of the m grid nodes in ``nodes`` (all by
    default), the output (..., 2m-1) holds each node at an even position and
    the midpoint (a + b) / 2 of each interval between them at the odd one
    after it, which is the matching slice of the whole interpolation, bit for
    bit.  The output is ``work``'s "window" (a new workspace by default).
    """
    work = Workspace() if work is None else work
    s = samples[..., nodes]
    window = work.array("window", s.shape[:-1] + (2 * s.shape[-1] - 1,), samples.dtype)
    window[..., ::2] = s
    mid = np.add(s[..., :-1], s[..., 1:], out=window[..., 1::2])
    mid *= 0.5
    return window


def _generators(h, f_stack, samples, nodes, divisor, out, work):
    """(h - sum_i c_i f_i) / divisor at the S stages between the grid
    ``nodes``, in the first S entries of ``out`` (at least S, d, d, B).

    ``h`` is (d, d) or one (d, d) per stage, and c_i the i-th of the (B, r, n)
    ``samples`` interpolated onto the stages.  The small h and f_i are divided,
    not the result, and the sum is d * d broadcast multiply-adds per coupling,
    without BLAS.  ``work``'s "window" and "generator term" are scratch.
    """
    co = interpolate_half_grid(samples, nodes=nodes, work=work).transpose(1, 2, 0)  # (r, S, B)
    out = out[:co.shape[1]]
    term = work.array("generator term", co.shape[1:])
    out[...] = (h / divisor)[..., None]
    for f, c in zip(f_stack / divisor, co):
        for i, j in np.ndindex(f.shape):
            out[:, i, j] -= np.multiply(f[i, j], c, out=term)
    return out


def _stage_window(n_intervals):
    """Stages per generator window: those of BLOCK_INTERVALS grid intervals or
    of the whole run, whichever is fewer."""
    return 2 * min(BLOCK_INTERVALS, n_intervals) + 1


def _matmul(a, b, out, term):
    """Write the per-trajectory product of two (d, d, B) stacks to ``out``;
    ``term`` is scratch of the same shape."""
    np.multiply(a[:, 0, None], b[None, 0], out=out)
    for j in range(1, a.shape[1]):
        out += np.multiply(a[:, j, None], b[None, j], out=term)
    return out


def _rk4(block_rhs, rho, n_intervals, h, work, series=None):
    """Classical RK4, in place, on a (d, d, B) batch over ``n_intervals`` grid
    intervals of one step each; stage j of the whole run is at time j*h/2.

    The steps run BLOCK_INTERVALS grid intervals at a time.  Per block,
    ``block_rhs(nodes)`` builds what the block's right-hand sides need between
    the slice ``nodes`` of the grid and returns rhs(j, rho, out), which
    writes the right-hand side at the block's j-th stage to ``out``.  A
    trajectory whose largest entry turns non-finite or exceeds DIVERGENCE_LIMIT
    is zeroed and marked dead.  With ``series`` (n, d, d, B), the state after
    each step is stored at its grid node.  The stages are ``work``'s "stages"
    and "magnitudes".  Returns the (B,) alive mask.
    """
    alive = np.ones(rho.shape[-1], dtype=bool)
    k1, k2, k3, k4, arg = work.array("stages", (5,) + rho.shape)
    mags = work.array("magnitudes", rho.shape, float)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_intervals, BLOCK_INTERVALS):
            hi = min(lo + BLOCK_INTERVALS, n_intervals)
            rhs = block_rhs(slice(lo, hi + 1))
            for s in range(lo, hi):
                j = 2 * (s - lo)
                rhs(j, rho, k1)
                # arg = rho + 0.5 * h * k1, each operation as numpy evaluates that
                rhs(j + 1, np.add(rho, np.multiply(0.5 * h, k1, out=arg), out=arg), k2)
                rhs(j + 1, np.add(rho, np.multiply(0.5 * h, k2, out=arg), out=arg), k3)
                rhs(j + 2, np.add(rho, np.multiply(h, k3, out=arg), out=arg), k4)
                k2 *= 2.0                   # k1 + 2 k2 + 2 k3 + k4, summed left to right
                k2 += k1
                k3 *= 2.0
                k2 += k3
                k2 += k4
                k2 *= h / 6.0
                rho += k2
                if not np.abs(rho, out=mags).max() <= DIVERGENCE_LIMIT:     # true for NaN too
                    worst = mags.max(axis=(0, 1))
                    alive &= np.isfinite(worst) & (worst <= DIVERGENCE_LIMIT)
                    rho[..., ~alive] = 0.0
                if series is not None:
                    series[s + 1] = rho
    return alive


def equilibrate_batch(system: SystemSpec, mu_bar: np.ndarray, grids: TimeGrids, *,
                      work: Workspace | None = None):
    """Integrate the imaginary-time quench for a batch.

    Parameters
    ----------
    mu_bar : (B, r, n_tau) complex noise samples on the imaginary grid, one
        field per coupling of ``system`` (per coupling channel in a run).
    work : the Workspace of the generators, stages and state (a new one by
        default); none of its arrays is returned.

    Returns
    -------
    rho_end : (B, d, d) unnormalized rho_bar(hbar*beta) (zeroed where diverged).
    diverged : (B,) bool mask.
    """
    work = Workspace() if work is None else work
    f_stack, h0, hbar = system.coupling_stack(), system.h0, system.hbar
    d, batch = system.dim, mu_bar.shape[0]
    windows = work.array("generators", (_stage_window(grids.n_tau - 1), d, d, batch))
    term = work.array("rhs scratch", (d, d, batch))

    def block_rhs(nodes):
        g = _generators(h0, f_stack, mu_bar, nodes, -hbar, windows, work)
        return lambda j, r, out: _matmul(g[j], r, out, term)

    rho = work.array("state", (d, d, batch))
    rho[...] = np.eye(d)[:, :, None]
    alive = _rk4(block_rhs, rho, grids.n_tau - 1, grids.dtau, work)
    return np.ascontiguousarray(rho.transpose(2, 0, 1)), ~alive


def evolve_batch(system: SystemSpec, eta: np.ndarray, nu: np.ndarray,
                 grids: TimeGrids, rho0: np.ndarray, *, work: Workspace | None = None):
    """Integrate the real-time equation for a batch from rho0.

    Parameters
    ----------
    eta, nu : (B, r, n_t) complex noise samples on the real-time grid, one
        field per coupling of ``system``, spent once made into the fields+-.
    rho0 : (B, d, d) initial matrices (any normalization; the flow is linear).
    work : the Workspace of the series, the generators, stages and state (a
        new one by default).

    The stage Hamiltonians h0 + sum_k a_k(t) V_k are built once per call; a
    drive whose amplitudes are not n_t samples raises DimensionMismatch.  The
    generators A+- = (H+- at each stage) / (i hbar) are built once per block
    of BLOCK_INTERVALS grid intervals, and each right-hand side is
    A+ rho - rho A-.

    Returns
    -------
    series : (B, n_t, d, d) with series[:, 0] = rho0 (zeroed where diverged),
        a view of ``work``'s "series", which holds it trajectory-last.
    diverged : (B,) bool mask.
    """
    work = Workspace() if work is None else work
    f_stack, h0, hbar = system.coupling_stack(), system.h0, system.hbar
    if any(dr.amplitudes.size != grids.n_t for dr in system.drive):
        raise DimensionMismatch(f"drive amplitudes must hold n_t = {grids.n_t} samples")
    d, batch = system.dim, eta.shape[0]
    amps = np.array([dr.amplitudes for dr in system.drive]).reshape(-1, grids.n_t)
    v = np.array([dr.matrix for dr in system.drive]).reshape(-1, d, d)
    h_stage = h0 + np.einsum("ks,kij->sij", interpolate_half_grid(amps, work=work), v)
    c_p, c_m = work.array("fields+-", (2,) + eta.shape)
    np.add(eta, np.multiply(0.5 * hbar, nu, out=c_m), out=c_p)     # eta +- (hbar/2) nu
    np.subtract(eta, c_m, out=c_m)
    windows = work.array("generators", (2, _stage_window(grids.n_t - 1), d, d, batch))
    term, right = work.array("rhs scratch", (2, d, d, batch))

    def block_rhs(nodes):
        h = h_stage[2 * nodes.start:2 * nodes.stop - 1]
        g_p = _generators(h, f_stack, c_p, nodes, 1j * hbar, windows[0], work)
        g_m = _generators(h, f_stack, c_m, nodes, 1j * hbar, windows[1], work)

        def rhs(j, r, out):
            _matmul(g_p[j], r, out, term)
            out -= _matmul(r, g_m[j], right, term)
            return out
        return rhs

    rho = work.array("state", (d, d, batch))
    rho[...] = rho0.transpose(1, 2, 0)
    series = work.array("series", (grids.n_t, d, d, batch))
    series[0] = rho
    alive = _rk4(block_rhs, rho, grids.n_t - 1, grids.dt, work, series)
    if not alive.all():
        series[..., ~alive] = 0.0
    return series.transpose(3, 0, 1, 2), ~alive

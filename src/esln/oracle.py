"""Exact small-system reference: full system+bath diagonalization.

Builds the total Hamiltonian on system (x) mode_1 (x) ... (x) mode_M with each
normal mode truncated to ``n_levels`` Fock states, forms the canonical state
exp(-beta H_tot)/Z, evolves unitarily, and traces out the bath.  Truncation is
the only approximation; a warning flags setups whose softest mode keeps
thermal weight above ``TRUNCATION_WEIGHT`` outside the kept Fock states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, TruncationWarning
from .model import NormalModes, SystemSpec, hamiltonian_at
from .noise import TimeGrids

DEFAULT_CAP = 4096
# Largest thermal weight q^n (q = exp(-beta hbar omega)) a free mode may keep
# outside its n kept Fock states.  On the two-mode acceptance case q^n runs
# about 8x the reduced-state truncation error: 2.2e-5 at 8 states (error
# 2.6e-6) warns, 5.8e-6 at 9 (7.9e-7) and 1.5e-6 at 10 (2.4e-7) do not.
TRUNCATION_WEIGHT = 1e-5


@dataclass(frozen=True)
class TruncatedBath:
    """Number of Fock states kept per mode (|0>..|n-1>) and the total-dimension cap."""

    n_levels: int
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        if self.n_levels < 2:
            raise ValueError("need at least two Fock states per mode")


def _ladder(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n)), -1)   # lowering op is its transpose


def _mode_operator(op: np.ndarray, mode: int, n_modes: int, n: int) -> np.ndarray:
    """Embed a single-mode operator at position ``mode`` in the bath product space."""
    out = np.eye(1)
    for k in range(n_modes):
        out = np.kron(out, op if k == mode else np.eye(n))
    return out


def total_dimension(system: SystemSpec, modes: NormalModes, trunc: TruncatedBath) -> int:
    return system.dim * trunc.n_levels ** modes.n_modes


def build_total_hamiltonian(system: SystemSpec, modes: NormalModes, g_ops: list,
                            trunc: TruncatedBath) -> np.ndarray:
    """H_tot = H0 (x) 1 + sum_lam 1 (x) hbar w (n + 1/2) - sum_lam g_lam (x) x_lam.

    Normal-mode frame (unit masses): x_lam = sqrt(hbar / 2 w_lam) (a + a^dag).
    """
    d_tot = total_dimension(system, modes, trunc)
    if d_tot > trunc.cap:
        raise CapExceeded(f"total Hilbert dimension {d_tot} exceeds cap {trunc.cap}")
    n = trunc.n_levels
    m = modes.n_modes
    if len(g_ops) != m:
        raise ValueError("need one mode coupling operator per mode")
    d_bath = n ** m
    h = np.kron(system.h0, np.eye(d_bath)).astype(complex)
    create = _ladder(n)
    number = create @ create.T
    for lam in range(m):
        w = modes.omegas[lam]
        h_mode = system.hbar * w * (number + 0.5 * np.eye(n))
        h += np.kron(np.eye(system.dim), _mode_operator(h_mode, lam, m, n))
        x_op = np.sqrt(system.hbar / (2.0 * w)) * (create + create.T)
        h -= np.kron(g_ops[lam], _mode_operator(x_op, lam, m, n))
    return h


def partial_trace_bath(rho_tot: np.ndarray, d_sys: int) -> np.ndarray:
    """Trace out the bath factor of a (d_sys * d_bath) square density matrix."""
    d_bath = rho_tot.shape[0] // d_sys
    r = rho_tot.reshape(d_sys, d_bath, d_sys, d_bath)
    return np.einsum("ibjb->ij", r)


def thermal_state(h_tot: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta H)/Z via Hermitian eigendecomposition, overflow-shifted."""
    evals, evecs = np.linalg.eigh(h_tot)
    w = np.exp(-beta * (evals - evals.min()))
    rho = (evecs * w) @ evecs.conj().T
    return rho / np.trace(rho).real


def exact_reduced_dynamics(system: SystemSpec, modes: NormalModes, g_ops: list,
                           trunc: TruncatedBath, grids: TimeGrids,
                           drive_substeps: int = 4) -> np.ndarray:
    """Exact reduced density matrices on the real-time grid, shape (n_t, d, d).

    The total system starts in the canonical state of the static Hamiltonian
    (drives off) and evolves under the full, possibly driven, Hamiltonian.
    Static case: one eigendecomposition; driven case: midpoint-exponential
    steps with ``drive_substeps`` substeps per grid interval.
    """
    h0_tot = build_total_hamiltonian(system, modes, trunc=trunc, g_ops=g_ops)
    rho_tot0 = thermal_state(h0_tot, system.beta)
    weight = np.exp(-system.beta * system.hbar * modes.omegas
                    * trunc.n_levels).max(initial=0.0)
    if weight > TRUNCATION_WEIGHT:
        warnings.warn(
            f"thermal weight {weight:.1e} of the softest mode lies outside the "
            f"{trunc.n_levels} kept Fock states (> {TRUNCATION_WEIGHT:g}); "
            "reduced state may be unconverged", TruncationWarning, stacklevel=2)

    d = system.dim
    out = np.zeros((grids.n_t, d, d), dtype=complex)
    out[0] = partial_trace_bath(rho_tot0, d)
    if not system.drive:
        evals, evecs = np.linalg.eigh(h0_tot)
        rho_e = evecs.conj().T @ rho_tot0 @ evecs
        for k in range(1, grids.n_t):
            phase = np.exp(-1j * evals * (k * grids.dt) / system.hbar)
            rho_t = (evecs * phase) @ rho_e @ (evecs * phase).conj().T
            out[k] = partial_trace_bath(rho_t, d)
        return out

    d_bath = h0_tot.shape[0] // d
    bath_part = h0_tot - np.kron(system.h0, np.eye(d_bath))
    rho_tot = rho_tot0
    h_sub = grids.dt / drive_substeps
    for k in range(1, grids.n_t):
        t0 = (k - 1) * grids.dt
        for s in range(drive_substeps):
            t_mid = t0 + (s + 0.5) * h_sub
            h_tot = np.kron(hamiltonian_at(system, t_mid), np.eye(d_bath)) + bath_part
            evals, evecs = np.linalg.eigh(h_tot)
            phase = np.exp(-1j * evals * h_sub / system.hbar)
            u = (evecs * phase) @ evecs.conj().T
            rho_tot = u @ rho_tot @ u.conj().T
        out[k] = partial_trace_bath(rho_tot, d)
    return out

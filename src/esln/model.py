"""System and bath specifications and the bath normal-mode transformation.

The open system lives in a finite orthonormal basis: its Hamiltonian and the
coupling operators are explicit complex matrices.  The environment is a set of
M harmonic oscillators coupled among themselves through a real symmetric
force-constant matrix; diagonalising the mass-weighted dynamical matrix yields
the normal-mode frequencies and eigenvectors used by every other module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    NonPositiveMode,
    OutOfRange,
    ValidationError,
)

HERMITICITY_TOL = 1e-12
SYMMETRY_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-10


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def check_hermitian(a: np.ndarray, name: str, tol: float = HERMITICITY_TOL) -> None:
    """Raise ValidationError unless ``a`` is Hermitian within ``tol`` (relative, max-norm)."""
    scale = max(np.abs(a).max(), 1.0) if a.size else 1.0
    if a.size and np.abs(a - a.conj().T).max() > tol * scale:
        raise ValidationError(name, "matrix is not Hermitian within tolerance")


@dataclass(frozen=True)
class Drive:
    """One time-dependent term amplitude(t) * matrix, sampled on the real-time grid.

    Amplitudes between samples are obtained by linear interpolation; evaluation
    outside [times[0], times[-1]] raises OutOfRange.
    """

    matrix: np.ndarray
    times: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(np.array(self.matrix, dtype=complex)))
        object.__setattr__(self, "times", _freeze(np.array(self.times, dtype=float)))
        object.__setattr__(self, "amplitudes", _freeze(np.array(self.amplitudes, dtype=float)))
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValidationError("drive.times", "need at least two sample times")
        if self.amplitudes.shape != self.times.shape:
            raise ValidationError("drive.amplitudes", "amplitude samples must match the time grid")
        check_hermitian(self.matrix, "drive.matrix")

    def amplitude_at(self, t: float) -> float:
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            raise OutOfRange(f"drive amplitude requested at t={t} outside grid span "
                             f"[{self.times[0]}, {self.times[-1]}]")
        return float(np.interp(t, self.times, self.amplitudes))


@dataclass(frozen=True)
class SystemSpec:
    """Finite-dimensional open system: static Hamiltonian, couplings, units.

    Attributes
    ----------
    dim : Hilbert-space dimension of the open system.
    h0 : static part of the system Hamiltonian (Hermitian, energy units).
    couplings : one Hermitian operator per bath site; the interaction is
        ``- sum_i  (bath displacement_i) * couplings[i]``.
    hbar, beta : explicit unit scalars (action, inverse energy).
    drive : optional time-dependent additions to ``h0``, active in real time only.
    """

    dim: int
    h0: np.ndarray
    couplings: tuple
    hbar: float
    beta: float
    drive: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("system.dim", "dimension must be >= 1")
        if self.hbar <= 0:
            raise ValidationError("system.hbar", "hbar must be positive")
        if self.beta <= 0:
            raise ValidationError("system.beta", "beta must be positive")
        h0 = _freeze(np.array(self.h0, dtype=complex))
        object.__setattr__(self, "h0", h0)
        if h0.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"h0 has shape {h0.shape}, expected {(self.dim, self.dim)}")
        check_hermitian(h0, "system.h0")
        mats = []
        for i, f in enumerate(self.couplings):
            f = _freeze(np.array(f, dtype=complex))
            if f.shape != (self.dim, self.dim):
                raise DimensionMismatch(
                    f"coupling {i} has shape {f.shape}, expected {(self.dim, self.dim)}")
            check_hermitian(f, f"system.couplings[{i}]")
            mats.append(f)
        object.__setattr__(self, "couplings", tuple(mats))
        object.__setattr__(self, "drive", tuple(self.drive))
        for dr in self.drive:
            if dr.matrix.shape != (self.dim, self.dim):
                raise DimensionMismatch("drive matrix does not match system dimension")

    @property
    def n_sites(self) -> int:
        return len(self.couplings)

    def coupling_stack(self) -> np.ndarray:
        """Couplings as one (M, dim, dim) array (empty M allowed)."""
        if self.couplings:
            return np.stack(self.couplings)
        return np.zeros((0, self.dim, self.dim), dtype=complex)


def hamiltonian_at(system: SystemSpec, t: float) -> np.ndarray:
    """System Hamiltonian h0 + sum_k amplitude_k(t) * V_k at real time ``t``.

    Hermitian by construction.  With no drives the static ``h0`` is returned
    for any ``t``; with drives, ``t`` must lie inside the drive sample span.
    """
    if not system.drive:
        return system.h0
    h = system.h0.copy()
    for dr in system.drive:
        h = h + dr.amplitude_at(t) * dr.matrix
    return h


@dataclass(frozen=True)
class BathSpec:
    """Harmonic environment: site masses and the force-constant matrix."""

    masses: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        masses = _freeze(np.array(self.masses, dtype=float))
        lam = _freeze(np.array(self.lam, dtype=float))
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "lam", lam)
        m = masses.size
        if lam.shape != (m, m):
            raise DimensionMismatch(f"lambda has shape {lam.shape}, expected {(m, m)}")
        if m and np.any(masses <= 0):
            raise ValidationError("bath.masses", "all masses must be positive")
        if m:
            scale = max(np.abs(lam).max(), 1.0)
            if np.abs(lam - lam.T).max() > SYMMETRY_TOL * scale:
                raise AsymmetricInput("bath.lambda is not symmetric within tolerance")

    @property
    def n_sites(self) -> int:
        return self.masses.size

    def dynamical_matrix(self) -> np.ndarray:
        """D_ij = Lambda_ij / sqrt(m_i m_j)."""
        root_m = np.sqrt(self.masses)
        return self.lam / np.outer(root_m, root_m) if self.n_sites else self.lam.copy()


@dataclass(frozen=True)
class NormalModes:
    """Eigenfrequencies (ascending) and orthonormal eigenvector columns of D."""

    omegas: np.ndarray
    evecs: np.ndarray

    def __post_init__(self):
        omegas = _freeze(np.array(self.omegas, dtype=float))
        evecs = _freeze(np.array(self.evecs, dtype=float))
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "evecs", evecs)
        m = omegas.size
        if evecs.shape != (m, m):
            raise DimensionMismatch("eigenvector matrix shape does not match mode count")
        if m and np.abs(evecs.T @ evecs - np.eye(m)).max() > ORTHOGONALITY_TOL:
            raise ValidationError("modes.evecs", "eigenvector columns are not orthonormal")

    @property
    def n_modes(self) -> int:
        return self.omegas.size


def diagonalize_bath(bath: BathSpec) -> NormalModes:
    """Diagonalise the dynamical matrix into normal modes.

    Frequencies are returned ascending; each eigenvector column is oriented so
    that its largest-magnitude entry is positive (deterministic sign
    convention, first index winning ties).

    Raises
    ------
    NonPositiveMode : if any eigenvalue of D is <= 0 (unstable bath).
    AsymmetricInput : via BathSpec validation, if lambda is asymmetric.
    """
    m = bath.n_sites
    if m == 0:
        return NormalModes(omegas=np.zeros(0), evecs=np.zeros((0, 0)))
    d = bath.dynamical_matrix()
    evals, evecs = np.linalg.eigh(d)
    if np.any(evals <= 0):
        raise NonPositiveMode(
            f"dynamical matrix has non-positive eigenvalue(s): min = {evals.min():g}")
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    evecs = evecs[:, order]
    for k in range(m):
        col = evecs[:, k]
        pivot = np.argmax(np.abs(col))
        if col[pivot] < 0:
            evecs[:, k] = -col
    return NormalModes(omegas=np.sqrt(evals), evecs=evecs)


def mode_couplings(modes: NormalModes, bath: BathSpec, system: SystemSpec) -> list:
    """Normal-mode coupling operators g_lam = sum_i e_{lam,i} f_i / sqrt(m_i)."""
    m = bath.n_sites
    if modes.n_modes != m or system.n_sites != m:
        raise DimensionMismatch(
            f"inconsistent sizes: {modes.n_modes} modes, {m} bath sites, "
            f"{system.n_sites} couplings")
    weights = modes.evecs / np.sqrt(bath.masses)[:, None]
    # g[lam] = sum_i weights[i, lam] * f[i]
    return list(np.einsum("il,ijk->ljk", weights, system.coupling_stack()))

"""Deterministic (sampling-free) check of the noise correlation conventions.

Expands the noise-averaged two-time propagation to second order in the
coupling.  Every average of a product of two fields is replaced by its target
correlation function and the resulting double integrals are evaluated by
quadrature, so this checks the covariance conventions and the propagation
equations directly against exact diagonalization with no Monte Carlo error.

With the package's eta-mu cross correlation (+hbar L(t - i(hbar beta - tau)))
the averaged state reproduces the exact stationary reduced state at every
time; with either sign-flipped alternative (-hbar L(t - i tau), from the
master kernel or from a wrong split form) it drifts at O(coupling^2).
"""

import numpy as np
import pytest

from esln import (BathSpec, SystemSpec, TimeGrids, TruncatedBath, diagonalize_bath,
                  exact_reduced_dynamics, k_complex, mode_couplings)
from esln.kernels import KernelContext

from conftest import k_complex_printed_split

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

HBAR, BETA = 1.0, 1.0
COUPLING = 0.1
OMEGA = 1.3
NS = 161        # quadrature points per time axis


@pytest.fixture(scope="module")
def setup():
    system = SystemSpec(dim=2, h0=0.5 * SX, couplings=(COUPLING * SZ,),
                        hbar=HBAR, beta=BETA)
    bath = BathSpec(masses=[1.0], lam=[[OMEGA ** 2]])
    modes = diagonalize_bath(bath)
    ctx = KernelContext.from_bath(bath, modes, HBAR, BETA)
    g = mode_couplings(modes, bath, system)
    grids = TimeGrids.from_spans(t_f=1.0, n_t=2, hbar_beta=HBAR * BETA, n_tau=2)
    exact = exact_reduced_dynamics(system, modes, g, TruncatedBath(24), grids)[0]
    evals, evecs = np.linalg.eigh(system.h0)
    return system, ctx, evecs.conj().T @ exact @ evecs, evals, \
        evecs.conj().T @ system.couplings[0] @ evecs


def second_order_state(ctx, energies, f_eig, t_end, cross):
    """Noise-averaged rho(t_end) through O(f^2), in the h0 eigenbasis.

    ``cross`` maps vectorized (s, tau) to the <(eta +- hbar nu/2) mu> kernel
    (both signs coincide because <nu mu> = 0).
    """
    hb = HBAR * BETA
    d = energies.size
    rho_b = np.diag(np.exp(-BETA * energies)).astype(complex)

    def kk(u):                      # hbar * K(u) at real argument, per mode 0
        return HBAR * k_complex(ctx, u, 0.0)[0]

    s = np.linspace(0.0, t_end, NS) if t_end > 0 else np.zeros(1)
    tau = np.linspace(0.0, hb, NS)
    s_o, s_i = np.meshgrid(s, s, indexing="ij")      # outer s, inner s'
    tau_o, tau_i = np.meshgrid(tau, tau, indexing="ij")
    tri_s = (s_i <= s_o).astype(float)
    tri_tau = (tau_i <= tau_o).astype(float)
    s_g, tau_g = np.meshgrid(s, tau, indexing="ij")

    c_pp = kk(s_o - s_i)                             # <xi+ xi+>, ordered s > s'
    c_mm = np.conj(kk(s_o - s_i))                    # <xi- xi->, ordered s' < s
    c_pm = kk(s_i - s_o)                             # <xi+(s) xi-(s')>
    c_mumu = HBAR * k_complex(ctx, 0.0, np.abs(tau_o - tau_i))[0].real
    c_x = cross(s_g, tau_g)

    out = rho_b.copy()
    for m in range(d):
        for n in range(d):
            for k in range(d):
                fmk, fkn = f_eig[m, k], f_eig[k, n]
                if fmk == 0 or fkn == 0:
                    continue
                e_mk, e_kn = energies[m] - energies[k], energies[k] - energies[n]
                ph_mk_s = np.exp(1j * e_mk * s / HBAR)
                ph_kn_s = np.exp(1j * e_kn * s / HBAR)
                ph_mk_tau = np.exp(e_mk * tau / HBAR)
                ph_kn_tau = np.exp(e_kn * tau / HBAR)

                def dbl(f2d, xs, ys):
                    return np.trapezoid(np.trapezoid(f2d, ys, axis=1), xs)

                if t_end > 0:
                    # two insertions on the left of rho_b: f(s) f(s') with s > s'
                    i1 = dbl(c_pp * tri_s * np.outer(ph_mk_s, ph_kn_s), s, s)
                    # two on the right: rho_b f(s') f(s) with s' < s
                    i2 = dbl(c_mm * tri_s * np.outer(ph_kn_s, ph_mk_s), s, s)
                    # one each side: f(s) rho_b f(s'), full square
                    i3 = dbl(c_pm * np.outer(ph_mk_s, ph_kn_s), s, s)
                    # left insertion against the imaginary-time insertion
                    i4 = dbl(c_x * np.outer(ph_mk_s, ph_kn_tau), s, tau)
                    # imaginary-time insertion against a right insertion
                    i5 = dbl(c_x * np.outer(ph_kn_s, ph_mk_tau), s, tau)
                    out[m, n] += (-fmk * fkn / HBAR ** 2) * np.exp(-BETA * energies[n]) * i1
                    out[m, n] += (-fmk * fkn / HBAR ** 2) * np.exp(-BETA * energies[m]) * i2
                    out[m, n] += (+fmk * fkn / HBAR ** 2) * np.exp(-BETA * energies[k]) * i3
                    out[m, n] += (+1j * fmk * fkn / HBAR ** 2) * np.exp(-BETA * energies[k]) * i4
                    out[m, n] += (-1j * fmk * fkn / HBAR ** 2) * np.exp(-BETA * energies[m]) * i5
                # two imaginary-time insertions, tau > tau'
                i6 = dbl(c_mumu * tri_tau * np.outer(ph_mk_tau, ph_kn_tau), tau, tau)
                out[m, n] += (fmk * fkn / HBAR ** 2) * np.exp(-BETA * energies[m]) * i6
    phase = np.exp(-1j * (energies[:, None] - energies[None, :]) * t_end / HBAR)
    out = phase * out
    return out / np.trace(out)


CROSS_VARIANTS = {
    "equilibrium": lambda ctx: lambda s, ta: +HBAR * k_complex(ctx, s, HBAR * BETA - ta)[0],
    "printed-master": lambda ctx: lambda s, ta: -HBAR * k_complex(ctx, s, ta)[0],
    "printed-split": lambda ctx: lambda s, ta: -HBAR * k_complex_printed_split(ctx, s, ta)[0],
}


def test_equilibrium_cross_kernel_reproduces_exact_state(setup):
    system, ctx, exact_eig, energies, f_eig = setup
    cross = CROSS_VARIANTS["equilibrium"](ctx)
    for t_end in (0.0, 0.7, 1.4):
        rho = second_order_state(ctx, energies, f_eig, t_end, cross)
        err = np.abs(rho - exact_eig).max()
        assert err < 3e-4, (t_end, err)    # quadrature + O(coupling^4) floor


@pytest.mark.parametrize("variant", ["printed-master", "printed-split"])
def test_alternative_cross_kernels_drift(setup, variant):
    system, ctx, exact_eig, energies, f_eig = setup
    cross = CROSS_VARIANTS[variant](ctx)
    rho0 = second_order_state(ctx, energies, f_eig, 0.0, cross)
    assert np.abs(rho0 - exact_eig).max() < 3e-4   # t = 0 is blind to the cross block
    rho = second_order_state(ctx, energies, f_eig, 1.4, cross)
    assert np.abs(rho - exact_eig).max() > 1.5e-3  # visible O(coupling^2) drift

import numpy as np
import pytest

from esln import BathSpec, KernelContext, SystemSpec, TimeGrids, diagonalize_bath

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def small_doc(n_traj=300, master_seed=11, **over):
    """Two-level system, one bath mode; quick enough for statistical tests."""
    doc = {
        "system": {"dim": 2, "h0": [[0, 0.5], [0.5, 0]],
                   "couplings": [[[0.4, 0], [0, -0.4]]], "hbar": 1.0, "beta": 1.0},
        "bath": {"masses": [1.0], "lambda": [[1.69]]},
        "grids": {"t_f": 1.0, "n_t": 21, "n_tau": 11},
        "ensemble": {"n_traj": n_traj, "master_seed": master_seed},
    }
    for key, val in over.items():
        doc[key] = val
    return doc


@pytest.fixture
def two_mode_bath():
    return BathSpec(masses=[1.0, 1.0], lam=[[2.0, -1.0], [-1.0, 2.0]])


@pytest.fixture
def ctx_one_mode():
    bath = BathSpec(masses=[1.0], lam=[[1.69]])   # omega = 1.3
    modes = diagonalize_bath(bath)
    return KernelContext.from_bath(bath, modes, hbar=1.0, beta=1.0)


@pytest.fixture
def ctx_two_mode(two_mode_bath):
    modes = diagonalize_bath(two_mode_bath)
    return KernelContext.from_bath(two_mode_bath, modes, hbar=1.0, beta=2.0)


@pytest.fixture
def small_grids():
    return TimeGrids.from_spans(t_f=1.0, n_t=9, hbar_beta=1.0, n_tau=6)


def coth(x):
    """coth(x) for x > 0, stable for both tiny and huge arguments."""
    x = np.asarray(x, dtype=float)
    return (1.0 + np.exp(-2.0 * x)) / (-np.expm1(-2.0 * x))


def k_complex_printed_split(ctx, t, tau):
    """A wrong split form of the complex-time kernel, for the tests that show it fails.

    Returns K^R + i K^I of every mode, shape (M,) + broadcast(t, tau), with
        K^R = [coth(X) cosh(w tau) - sinh(w tau)] cos(w t) / (2 w)
        K^I = -[cosh(w tau) + coth(X) sinh(w tau)] sin(w t) / (2 w)
    which differs from ``esln.kernels.k_complex`` in the sign of the coth*sinh
    term of K^I.
    """
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    w = ctx.modes.omegas.reshape((-1,) + (1,) * np.broadcast(t, tau).ndim)
    cth = coth(0.5 * ctx.hbar_beta * w)
    k_r = (cth * np.cosh(w * tau) - np.sinh(w * tau)) * np.cos(w * t) / (2.0 * w)
    k_i = -(np.cosh(w * tau) + cth * np.sinh(w * tau)) * np.sin(w * t) / (2.0 * w)
    return k_r + 1j * k_i


def spin_system(coupling=0.4, hbar=1.0, beta=1.0, drive=()):
    return SystemSpec(dim=2, h0=0.5 * SX, couplings=(coupling * SZ,),
                      hbar=hbar, beta=beta, drive=drive)

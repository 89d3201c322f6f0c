import numpy as np
import pytest

from esln import (BathSpec, KernelContext, diagonalize_bath, k_complex, k_imag_even,
                  k_imag_odd, k_real_i, k_real_r, l_matrix)
from esln.kernels import coth

from conftest import k_complex_printed_split

COTH1_OVER_2 = 0.6565176427496657   # coth(1)/2 evaluated in extended precision


@pytest.fixture
def ctx_unit():
    """Single mode with omega = 1, hbar*beta = 2 so hbar*beta*omega/2 = 1."""
    bath = BathSpec(masses=[1.0], lam=[[1.0]])
    modes = diagonalize_bath(bath)
    return KernelContext.from_bath(bath, modes, hbar=1.0, beta=2.0)


def test_k_real_r_zero_lag(ctx_unit):
    assert k_real_r(ctx_unit, 0, 0.0) == pytest.approx(COTH1_OVER_2, abs=1e-12)


def test_k_real_r_cosine_zero():
    bath = BathSpec(masses=[1.0], lam=[[2.25]])       # omega = 1.5
    modes = diagonalize_bath(bath)
    ctx = KernelContext.from_bath(bath, modes, hbar=0.7, beta=1.3)
    t = np.pi / (2 * 1.5)
    assert abs(k_real_r(ctx, 0, t)) < 1e-14


def test_k_real_parities(ctx_unit):
    rng = np.random.default_rng(0)
    t = rng.uniform(-10, 10, 100)
    assert np.allclose(k_real_r(ctx_unit, 0, t), k_real_r(ctx_unit, 0, -t), atol=1e-14)
    assert np.allclose(k_real_i(ctx_unit, 0, t), -k_real_i(ctx_unit, 0, -t), atol=1e-14)


def test_k_real_i_values():
    bath = BathSpec(masses=[1.0], lam=[[4.0]])        # omega = 2
    modes = diagonalize_bath(bath)
    ctx = KernelContext.from_bath(bath, modes, hbar=1.0, beta=1.0)
    assert k_real_i(ctx, 0, 0.0) == 0.0
    assert k_real_i(ctx, 0, np.pi / 4) == pytest.approx(-0.25, abs=1e-14)


def test_imaginary_time_split_values(ctx_unit):
    assert k_imag_odd(ctx_unit, 0, 0.0) == 0.0
    assert k_imag_even(ctx_unit, 0, 0.0) == pytest.approx(COTH1_OVER_2, abs=1e-12)


def test_split_matches_master_formula(ctx_unit):
    # K^e(tau) + K^o(tau) = K(i tau); with k_complex(t, tau) = K(t - i tau)
    # the master value at theta = i tau is k_complex(0, -tau).
    rng = np.random.default_rng(1)
    for tau in rng.uniform(0.0, ctx_unit.hbar_beta, 50):
        total = k_imag_even(ctx_unit, 0, tau) + k_imag_odd(ctx_unit, 0, tau)
        master = k_complex(ctx_unit, 0, 0.0, -tau)
        assert abs(total - master) < 1e-10
        # and the difference is the kernel at theta = -i tau
        diff = k_imag_even(ctx_unit, 0, tau) - k_imag_odd(ctx_unit, 0, tau)
        assert abs(diff - k_complex(ctx_unit, 0, 0.0, tau)) < 1e-10


def test_k_complex_reduces_to_zero_lag(ctx_unit):
    assert k_complex(ctx_unit, 0, 0.0, 0.0) == pytest.approx(COTH1_OVER_2, abs=1e-12)


def test_k_complex_kms_shift(ctx_unit):
    rng = np.random.default_rng(2)
    hb = ctx_unit.hbar_beta
    for t in rng.uniform(-5, 5, 100):
        lhs = k_complex(ctx_unit, 0, t, hb)
        rhs = k_complex(ctx_unit, 0, -t, 0.0)
        assert abs(lhs - rhs) < 1e-10


def test_k_complex_real_on_imaginary_axis(ctx_unit):
    for tau in np.linspace(0, ctx_unit.hbar_beta, 17):
        assert abs(k_complex(ctx_unit, 0, 0.0, tau).imag) < 1e-14


def test_large_argument_stability():
    bath = BathSpec(masses=[1.0], lam=[[400.0]])      # omega = 20
    modes = diagonalize_bath(bath)
    ctx = KernelContext.from_bath(bath, modes, hbar=1.0, beta=100.0)  # w*hb = 2000
    val = k_complex(ctx, 0, 1.3, ctx.hbar_beta / 3)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert np.isfinite(k_real_r(ctx, 0, 0.7))
    assert coth(1000.0) == pytest.approx(1.0, abs=1e-15)
    assert coth(1e-12) == pytest.approx(1e12, rel=1e-9)


def test_l_matrix_single_site_reduces_to_mode_kernel(ctx_unit):
    t = 0.37
    assert np.allclose(l_matrix(ctx_unit, "R", t=t), [[k_real_r(ctx_unit, 0, t)]])


def test_l_matrix_imaginary_part_zero_lag(ctx_two_mode):
    assert np.all(l_matrix(ctx_two_mode, "I", t=0.0) == 0.0)


def test_l_matrix_two_mode_combination(ctx_two_mode):
    # evecs are (1,1)/sqrt2 and (1,-1)/sqrt2, so L_11(t) = (K_w1 + K_w2)/2.
    for t in (0.0, 0.4, 1.7):
        l = l_matrix(ctx_two_mode, "R", t=t)
        expect = 0.5 * (k_real_r(ctx_two_mode, 0, t) + k_real_r(ctx_two_mode, 1, t))
        assert l[0, 0] == pytest.approx(expect, rel=1e-12)


def test_l_matrix_symmetry_and_parity(ctx_two_mode):
    rng = np.random.default_rng(4)
    for t in rng.uniform(-6, 6, 100):
        l_r = l_matrix(ctx_two_mode, "R", t=t)
        l_i = l_matrix(ctx_two_mode, "I", t=t)
        assert np.abs(l_r - l_r.T).max() <= 1e-12
        assert np.abs(l_i - l_i.T).max() <= 1e-12
        assert np.abs(l_r - l_matrix(ctx_two_mode, "R", t=-t)).max() < 1e-12
        assert np.abs(l_i + l_matrix(ctx_two_mode, "I", t=-t)).max() < 1e-12


def test_l_matrix_split_consistency(ctx_two_mode):
    rng = np.random.default_rng(5)
    hb = ctx_two_mode.hbar_beta
    for tau in rng.uniform(0, hb, 40):
        total = l_matrix(ctx_two_mode, "e", tau=tau) + l_matrix(ctx_two_mode, "o", tau=tau)
        master = l_matrix(ctx_two_mode, "complex", t=0.0, tau=-tau)
        assert np.abs(total - master).max() < 1e-10


def test_l_matrix_master_consistency_real_time(ctx_two_mode):
    rng = np.random.default_rng(6)
    for t in rng.uniform(-4, 4, 40):
        combo = l_matrix(ctx_two_mode, "R", t=t) + 1j * l_matrix(ctx_two_mode, "I", t=t)
        master = l_matrix(ctx_two_mode, "complex", t=t, tau=0.0)
        assert np.abs(combo - master).max() < 1e-10


def test_printed_split_variant_differs(ctx_unit):
    # The wrong split flips the sign of the coth*sinh term in the imaginary
    # part; away from tau = 0 the two disagree.
    val_master = k_complex(ctx_unit, 0, 0.9, 0.7)
    val_printed = k_complex_printed_split(ctx_unit, 0, 0.9, 0.7)
    assert abs(val_master.real - val_printed.real) < 1e-12
    assert abs(val_master.imag - val_printed.imag) > 1e-3


def test_l_matrix_unknown_kind(ctx_unit):
    with pytest.raises(ValueError):
        l_matrix(ctx_unit, "bogus", t=0.0)

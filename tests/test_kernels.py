import numpy as np
import pytest

from esln import BathSpec, KernelContext, diagonalize_bath, k_complex, l_matrix

from conftest import coth, k_complex_printed_split

COTH1_OVER_2 = 0.6565176427496657   # coth(1)/2 evaluated in extended precision


@pytest.fixture
def ctx_unit():
    """Single mode with omega = 1, hbar*beta = 2 so hbar*beta*omega/2 = 1."""
    bath = BathSpec(masses=[1.0], lam=[[1.0]])
    modes = diagonalize_bath(bath)
    return KernelContext.from_bath(bath, modes, hbar=1.0, beta=2.0)


def one_mode(omega, hbar, beta):
    bath = BathSpec(masses=[1.0], lam=[[omega ** 2]])
    return KernelContext.from_bath(bath, diagonalize_bath(bath), hbar=hbar, beta=beta)


def closed_form(omega, hbar_beta, t, tau):
    """One mode's K(t - i tau) from the real closed forms, X = hbar*beta*omega/2:
    [coth X cosh(w tau) - sinh(w tau)] cos(w t) / (2w)
    - i [cosh(w tau) - coth X sinh(w tau)] sin(w t) / (2w)."""
    cth = coth(0.5 * hbar_beta * omega)
    k_r = (cth * np.cosh(omega * tau) - np.sinh(omega * tau)) * np.cos(omega * t)
    k_i = -(np.cosh(omega * tau) - cth * np.sinh(omega * tau)) * np.sin(omega * t)
    return (k_r + 1j * k_i) / (2.0 * omega)


def test_k_real_r_zero_lag(ctx_unit):
    # K^R(0) = coth(hbar*beta*w/2) / (2w); one unit-mass site, so L = K.
    assert l_matrix(ctx_unit).shape == (1, 1)
    assert l_matrix(ctx_unit)[0, 0].real == pytest.approx(COTH1_OVER_2, abs=1e-12)


def test_k_real_r_cosine_zero():
    ctx = one_mode(1.5, hbar=0.7, beta=1.3)
    t = np.pi / (2 * 1.5)
    assert abs(k_complex(ctx, t, 0.0)[0].real) < 1e-14


def test_k_real_parities(ctx_unit):
    # K^R = Re K(t) is even and K^I = Im K(t) is odd in t.
    rng = np.random.default_rng(0)
    t = rng.uniform(-10, 10, 100)
    k_pos, k_neg = k_complex(ctx_unit, t, 0.0)[0], k_complex(ctx_unit, -t, 0.0)[0]
    assert np.allclose(k_pos.real, k_neg.real, atol=1e-14)
    assert np.allclose(k_pos.imag, -k_neg.imag, atol=1e-14)


def test_k_real_i_values():
    ctx = one_mode(2.0, hbar=1.0, beta=1.0)
    assert k_complex(ctx, 0.0, 0.0)[0].imag == 0.0
    assert k_complex(ctx, np.pi / 4, 0.0)[0].imag == pytest.approx(-0.25, abs=1e-14)


def test_imaginary_time_split_values(ctx_unit):
    # K^e(tau) = cosh(w tau) coth X / (2w) and K^o(tau) = sinh(w tau) / (2w) are
    # (K(i tau) +- K(-i tau)) / 2, and K(i tau) = k_complex(0, -tau).
    tau = np.linspace(0.0, ctx_unit.hbar_beta, 17)
    up, down = k_complex(ctx_unit, 0.0, -tau), k_complex(ctx_unit, 0.0, tau)
    k_e, k_o = 0.5 * (up + down), 0.5 * (up - down)
    assert k_o[0, 0] == 0.0
    assert k_e[0, 0].real == pytest.approx(COTH1_OVER_2, abs=1e-12)
    assert np.abs(k_e[0] - np.cosh(tau) * coth(1.0) / 2.0).max() < 1e-12
    assert np.abs(k_o[0] - np.sinh(tau) / 2.0).max() < 1e-12


def test_split_matches_master_formula(ctx_unit):
    rng = np.random.default_rng(1)
    t = rng.uniform(-5.0, 5.0, 50)
    tau = rng.uniform(0.0, ctx_unit.hbar_beta, 50)
    expect = closed_form(1.0, ctx_unit.hbar_beta, t, tau)
    assert np.abs(k_complex(ctx_unit, t, tau)[0] - expect).max() < 1e-12


def test_k_complex_rows_match_one_mode_closed_forms(ctx_two_mode):
    t = np.linspace(-3.0, 3.0, 7)[:, None]
    tau = np.linspace(0.0, ctx_two_mode.hbar_beta, 5)[None, :]
    vals = k_complex(ctx_two_mode, t, tau)
    assert vals.shape == (2, 7, 5)
    for lam, omega in enumerate(ctx_two_mode.modes.omegas):
        expect = closed_form(omega, ctx_two_mode.hbar_beta, t, tau)
        assert np.abs(vals[lam] - expect).max() < 1e-12


def test_k_complex_empty_bath_shape():
    bath = BathSpec(masses=[], lam=np.zeros((0, 0)))
    ctx = KernelContext.from_bath(bath, diagonalize_bath(bath), hbar=1.0, beta=1.0)
    t = np.zeros((4, 1))
    tau = np.zeros((1, 3))
    assert k_complex(ctx, t, tau).shape == (0, 4, 3)
    assert k_complex(ctx, 0.0, 0.0).shape == (0,)
    assert l_matrix(ctx, t=t, tau=tau).shape == (4, 3, 0, 0)


def test_k_complex_reduces_to_zero_lag(ctx_unit):
    val = k_complex(ctx_unit, 0.0, 0.0)
    assert val.shape == (1,)
    assert val[0].real == pytest.approx(COTH1_OVER_2, abs=1e-12)
    assert val[0].imag == 0.0


def test_k_complex_kms_shift(ctx_unit):
    rng = np.random.default_rng(2)
    hb = ctx_unit.hbar_beta
    t = rng.uniform(-5, 5, 100)
    assert np.abs(k_complex(ctx_unit, t, hb) - k_complex(ctx_unit, -t, 0.0)).max() < 1e-10


def test_k_complex_real_on_imaginary_axis(ctx_unit):
    tau = np.linspace(0, ctx_unit.hbar_beta, 17)
    assert np.abs(k_complex(ctx_unit, 0.0, tau).imag).max() < 1e-14


def test_large_argument_stability():
    ctx = one_mode(20.0, hbar=1.0, beta=100.0)       # w*hb = 2000
    val = k_complex(ctx, 1.3, ctx.hbar_beta / 3)
    assert np.isfinite(val.real).all() and np.isfinite(val.imag).all()
    # coth(1000) = 1, so K^R(t) = cos(w t) / (2w)
    assert k_complex(ctx, 0.7, 0.0)[0].real == pytest.approx(np.cos(14.0) / 40.0, abs=1e-15)
    assert coth(1000.0) == pytest.approx(1.0, abs=1e-15)
    assert coth(1e-12) == pytest.approx(1e12, rel=1e-9)


def test_l_matrix_single_site_reduces_to_mode_kernel(ctx_unit):
    t, tau = 0.37, 0.8
    assert np.allclose(l_matrix(ctx_unit, t=t, tau=tau), [[k_complex(ctx_unit, t, tau)[0]]])


def test_l_matrix_imaginary_part_zero_lag(ctx_two_mode):
    assert np.all(l_matrix(ctx_two_mode).imag == 0.0)


def test_l_matrix_two_mode_combination(ctx_two_mode):
    # evecs are (1,1)/sqrt2 and (1,-1)/sqrt2, so L_11(t) = (K_w1 + K_w2)/2.
    for t in (0.0, 0.4, 1.7):
        l = l_matrix(ctx_two_mode, t=t, tau=0.3)
        expect = 0.5 * k_complex(ctx_two_mode, t, 0.3).sum()
        assert l[0, 0] == pytest.approx(expect, rel=1e-12)


def test_l_matrix_symmetry_and_parity(ctx_two_mode):
    rng = np.random.default_rng(4)
    t = rng.uniform(-6, 6, 100)
    l_pos, l_neg = l_matrix(ctx_two_mode, t=t), l_matrix(ctx_two_mode, t=-t)
    assert l_pos.shape == (100, 2, 2)
    assert np.array_equal(l_pos, np.swapaxes(l_pos, -1, -2))
    assert np.abs(l_pos.real - l_neg.real).max() < 1e-12
    assert np.abs(l_pos.imag + l_neg.imag).max() < 1e-12


def test_l_matrix_split_consistency(ctx_two_mode):
    # (L(i tau) +- L(-i tau)) / 2 are L^e and L^o, the contracted closed forms.
    rng = np.random.default_rng(5)
    tau = rng.uniform(0, ctx_two_mode.hbar_beta, 40)
    s = ctx_two_mode.site_weights()
    w = ctx_two_mode.modes.omegas[:, None]
    cth = coth(0.5 * ctx_two_mode.hbar_beta * w)
    up, down = l_matrix(ctx_two_mode, tau=-tau), l_matrix(ctx_two_mode, tau=tau)
    for got, k_mode in ((0.5 * (up + down), np.cosh(w * tau) * cth / (2 * w)),
                        (0.5 * (up - down), np.sinh(w * tau) / (2 * w))):
        expect = np.einsum("il,jl,lk->kij", s, s, k_mode)
        assert np.abs(got - expect).max() < 1e-10


def test_l_matrix_master_consistency_real_time(ctx_two_mode):
    # L(t) = L^R(t) + i L^I(t), the contracted closed forms.
    rng = np.random.default_rng(6)
    t = rng.uniform(-4, 4, 40)
    s = ctx_two_mode.site_weights()
    w = ctx_two_mode.modes.omegas[:, None]
    k_mode = (coth(0.5 * ctx_two_mode.hbar_beta * w) * np.cos(w * t)
              - 1j * np.sin(w * t)) / (2 * w)
    expect = np.einsum("il,jl,lk->kij", s, s, k_mode)
    assert np.abs(l_matrix(ctx_two_mode, t=t) - expect).max() < 1e-10


def test_printed_split_variant_differs(ctx_unit):
    # The wrong split flips the sign of the coth*sinh term in the imaginary
    # part; away from tau = 0 the two disagree.
    val_master = k_complex(ctx_unit, 0.9, 0.7)[0]
    val_printed = k_complex_printed_split(ctx_unit, 0.9, 0.7)[0]
    assert abs(val_master.real - val_printed.real) < 1e-12
    assert abs(val_master.imag - val_printed.imag) > 1e-3

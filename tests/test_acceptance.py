"""Acceptance gate: every criterion at its stated tolerance.

Criteria 1 and 2 share one 10^4-trajectory run of the two-level, two-mode
reference case; the remaining criteria use smaller deterministic or
statistical checks.  Each test prints one pass/fail line.

The exact reference keeps ``oracle.n_levels`` = 10 Fock states per mode
(|0>..|9>); criterion 1's truncation-sanity check shows that this count is
converged to its 1e-6 target (see its docstring).
"""

import json

import numpy as np
import pytest
import scipy.linalg

from esln import (TimeGrids, TruncatedBath, build_pipeline, diagonalize_bath,
                  equilibrate_batch, evolve_batch, exact_reduced_dynamics,
                  hermiticity_trace_report, hs_identity_check, k_complex, l_matrix,
                  mode_couplings, parse_config, run_ensemble, verify_empirical)
from esln.cli import main
from esln.kernels import KernelContext

from conftest import coth

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

ACCEPTANCE_DOC = {
    "system": {"dim": 2, "h0": [[0.0, 0.5], [0.5, 0.0]],
               "couplings": [[[0.3, 0.0], [0.0, -0.3]], [[0.2, 0.0], [0.0, -0.2]]],
               "hbar": 1.0, "beta": 1.0},
    "bath": {"masses": [1.0, 1.0], "lambda": [[2.0, -0.5], [-0.5, 3.0]]},
    "grids": {"t_f": 4.0, "n_t": 401, "n_tau": 101},
    "ensemble": {"n_traj": 10_000, "master_seed": 2718},
    "oracle": {"n_levels": 10},
}


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {name}: {status}" + (f"   ({detail})" if detail else ""))


def small_noise_doc(n_t=16, n_tau=8):
    doc = json.loads(json.dumps(ACCEPTANCE_DOC))
    doc["grids"] = {"t_f": 4.0, "n_t": n_t, "n_tau": n_tau}
    return doc


@pytest.fixture(scope="module")
def headline():
    """The criterion-1 run plus its exact reference, computed once."""
    cfg = parse_config(ACCEPTANCE_DOC)
    pipe = build_pipeline(cfg)
    result = run_ensemble(cfg, pipeline=pipe)
    g_ops = mode_couplings(pipe.modes, cfg.bath, cfg.system)
    exact = exact_reduced_dynamics(cfg.system, pipe.modes, g_ops,
                                   TruncatedBath(cfg.oracle_n_levels), cfg.grids)
    return cfg, pipe, result, exact


def test_criterion_1_oracle_equivalence(headline):
    cfg, pipe, result, exact = headline
    z = np.abs(result.mean_rho - exact) / np.maximum(result.stderr_rho, 1e-30)
    worst_se = result.stderr_rho.max()
    report = hermiticity_trace_report(result)
    ok = bool(z.max() < 5.0 and worst_se < 0.02 and report.status == "PASS")
    _report("1 oracle equivalence", ok,
            f"max z = {z.max():.2f}, worst stderr = {worst_se:.4f}, "
            f"n_failed = {result.n_failed}, hermiticity {report.status}")
    assert z.max() < 5.0
    assert worst_se < 0.02
    assert report.status == "PASS"


def test_criterion_1_truncation_sanity(headline):
    """Target: the criterion-1 oracle differs by < 1e-6 from one keeping two
    more Fock states per mode, at every point of the real-time grid.

    ``n_levels`` counts the basis states |0>..|n-1> kept per mode, the
    convention the package uses everywhere (the oracle's d_s * n_levels^M
    dimension and its cap, the 4x4 hand-built matrix at n_levels = 2).  The
    truncation error of this configuration is physics, not implementation:
    against a 24-state reference it is 2.6e-6 at 8 states, 7.9e-7 at 9,
    2.4e-7 at 10 and 2.0e-8 at 12, falling ~3.3x per added state as the
    softer mode's beta*hbar*omega = 1.34 implies.  The undriven reference is
    stationary, so the maximum over the grid is the t = 0 value.  8 states
    cannot meet 1e-6; the acceptance case therefore keeps 10 (10 vs 12
    states: 2.2e-7).
    """
    cfg, pipe, result, exact = headline
    n = cfg.oracle_n_levels
    g_ops = mode_couplings(pipe.modes, cfg.bath, cfg.system)
    finer = exact_reduced_dynamics(cfg.system, pipe.modes, g_ops,
                                   TruncatedBath(n + 2), cfg.grids)
    diff = np.abs(exact - finer).max()
    ok = bool(diff < 1e-6)
    _report("1 truncation sanity", ok, f"{n} vs {n + 2} states: {diff:.2e}")
    assert diff < 1e-6, (
        f"{n}-vs-{n + 2}-state truncation difference {diff:.3e} exceeds the "
        f"1e-6 target; the oracle keeps too few Fock states per mode")


def test_criterion_2_partition_free_stationarity(headline):
    cfg, pipe, result, exact = headline
    drift = np.abs(result.mean_rho - result.mean_rho[0])
    z = drift / np.maximum(result.stderr_rho, 1e-30)
    ok = bool(z.max() < 5.0)
    _report("2 partition-free stationarity", ok, f"max z = {z.max():.2f}")
    assert z.max() < 5.0


def test_criterion_3_gibbs_recovery():
    doc = json.loads(json.dumps(ACCEPTANCE_DOC))
    doc["system"]["couplings"] = [[[0.0, 0.0], [0.0, 0.0]],
                                  [[0.0, 0.0], [0.0, 0.0]]]
    cfg = parse_config(doc)
    zeros = np.zeros((1, 2, cfg.grids.n_t), complex)
    rho_end, _ = equilibrate_batch(cfg.system, np.zeros((1, 2, cfg.grids.n_tau), complex),
                                   cfg.grids)
    rho0 = rho_end / np.trace(rho_end[0])
    gibbs = scipy.linalg.expm(-cfg.system.beta * cfg.system.h0)
    gibbs = gibbs / np.trace(gibbs)
    gibbs_err = np.abs(rho0[0] - gibbs).max()

    series, _ = evolve_batch(cfg.system, zeros, zeros, cfg.grids, rho0)
    u = scipy.linalg.expm(-1j * cfg.system.h0 * cfg.grids.t_f / cfg.system.hbar)
    unitary_err = np.abs(series[0, -1] - u @ rho0[0] @ u.conj().T).max()
    ok = bool(gibbs_err < 1e-8 and unitary_err < 1e-8)
    _report("3 gibbs recovery", ok,
            f"gibbs err = {gibbs_err:.2e}, unitary err = {unitary_err:.2e}")
    assert gibbs_err < 1e-8
    assert unitary_err < 1e-8


def test_criterion_4_noise_fidelity():
    cfg = parse_config(small_noise_doc())
    pipe = build_pipeline(cfg)
    report = verify_empirical(pipe.factor, pipe.cov, n_samples=100_000,
                              seed=cfg.master_seed)
    ok = report.passed
    worst = max(report.worst_z.values())
    _report("4 noise fidelity", ok,
            "; ".join(f"{k}: {v:.2f}" for k, v in report.worst_z.items()))
    assert ok, f"worst z = {worst:.2f}"


def test_criterion_5_hubbard_stratonovich_identity():
    cfg = parse_config(small_noise_doc())
    pipe = build_pipeline(cfg)
    checks = hs_identity_check(pipe.cov, pipe.factor, n_vectors=5,
                               n_samples=1_000_000, seed=99,
                               hbar=cfg.system.hbar)
    zs = [chk.z for chk in checks]
    ok = bool(max(zs) < 5.0)
    _report("5 hubbard-stratonovich identity", ok,
            "z = " + ", ".join(f"{z:.2f}" for z in zs))
    assert max(zs) < 5.0


def test_criterion_6_kernel_identities():
    cfg = parse_config(ACCEPTANCE_DOC)
    modes = diagonalize_bath(cfg.bath)
    ctx = KernelContext.from_bath(cfg.bath, modes, cfg.system.hbar, cfg.system.beta)
    rng = np.random.default_rng(6)
    hb = ctx.hbar_beta
    t = rng.uniform(-5.0, 5.0, 100)
    tau = rng.uniform(0.0, hb, 100)
    # KMS shift of every mode: K(t - i hbar*beta) = K(-t)
    worst = np.abs(k_complex(ctx, t, hb) - k_complex(ctx, -t, 0.0)).max()
    # L^e and L^o, read as (L(i tau) +- L(-i tau)) / 2, against their closed forms
    s = ctx.site_weights()
    w = ctx.modes.omegas[:, None]
    up, down = l_matrix(ctx, tau=-tau), l_matrix(ctx, tau=tau)
    for got, k_mode in ((0.5 * (up + down), np.cosh(w * tau) * coth(0.5 * hb * w) / (2 * w)),
                        (0.5 * (up - down), np.sinh(w * tau) / (2 * w))):
        worst = max(worst, np.abs(got - np.einsum("il,jl,lk->kij", s, s, k_mode)).max())
    # L^R = Re L(t) is even and L^I = Im L(t) is odd
    l_pos, l_neg = l_matrix(ctx, t=t), l_matrix(ctx, t=-t)
    worst = max(worst, np.abs(l_pos.real - l_neg.real).max(),
                np.abs(l_pos.imag + l_neg.imag).max())
    ok = bool(worst < 1e-10)
    _report("6 kernel identities", ok, f"worst deviation = {worst:.2e}")
    assert worst < 1e-10


def test_criterion_7_integrator_order():
    cfg = parse_config(ACCEPTANCE_DOC)
    grids = TimeGrids.from_spans(t_f=2.0, n_t=11,
                                 hbar_beta=cfg.system.hbar * cfg.system.beta,
                                 n_tau=11)
    t = grids.t[None, :]
    tau = grids.tau[None, :]
    eta = 0.5 * (np.sin(1.3 * t) + 0.4j * np.cos(0.7 * t)) * np.ones((2, 1))
    nu = 0.5 * (0.5 * np.cos(1.9 * t) - 0.3j * np.sin(1.2 * t)) * np.ones((2, 1))
    mu = 0.5 * (np.cos(1.1 * tau) + 0.3j * tau) * np.ones((2, 1))
    rho_end, _ = equilibrate_batch(cfg.system, mu[None], grids, substeps=4)
    rho0 = rho_end / np.trace(rho_end[0])

    def final(substeps):
        return evolve_batch(cfg.system, eta[None], nu[None], grids, rho0, substeps)[0][0, -1]

    ref = final(4)
    e1 = np.abs(final(1) - ref).max()
    e2 = np.abs(final(2) - ref).max()
    factor = e1 / e2
    ok = bool(12.0 <= factor <= 20.0)
    _report("7 integrator order", ok, f"halving factor = {factor:.2f}")
    assert 12.0 <= factor <= 20.0


def test_criterion_8_byte_identical_runs(tmp_path):
    doc = json.loads(json.dumps(ACCEPTANCE_DOC))
    doc["grids"] = {"t_f": 1.0, "n_t": 21, "n_tau": 11}
    doc["ensemble"] = {"n_traj": 512, "master_seed": 7}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    assert main(["run", "--config", str(cfg_path), "--seed", "7",
                 "--output", str(out1), "--workers", "1"]) == 0
    assert main(["run", "--config", str(cfg_path), "--seed", "7",
                 "--output", str(out2), "--workers", "4"]) == 0
    ok = out1.read_bytes() == out2.read_bytes()
    _report("8 determinism", ok, f"{out1.stat().st_size} bytes each")
    assert ok

import dataclasses
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import esln
from esln import ensemble
from esln import (build_covariance, build_pipeline, coupling_channels, diagonalize_bath,
                  exact_reduced_dynamics, factorize, hermiticity_trace_report, k_complex,
                  mode_couplings, parse_config, run_ensemble, TruncatedBath, write_csv,
                  write_document)
from esln.ensemble import (EnsembleResult, HermiticityReport, _pairwise_stats, _Stats,
                           compare_series, document_bytes, read_csv, result_document)
from esln.cli import main
from esln.errors import NumericalError, TooManyFailures, ValidationError, WorkerLost
from esln.noise import NoiseCovariance, draw_normal, synthesize

from conftest import small_doc

# Stand-ins for ensemble._run_batch live at module level: at workers > 1 they
# are pickled by name into spawned processes, which see no monkeypatch and no
# list of this process, so what they record goes through a file.
_real_run_batch = ensemble._run_batch
_real_evolve_batch = ensemble.evolve_batch


class Killed(Exception):
    """Stands in for a run stopped from outside."""


@dataclasses.dataclass(frozen=True)
class _Logged:
    """Runs the real block after appending ``record(block)`` to the file ``log``."""

    log: str
    record: object = str

    def __call__(self, system, factor, run_cfg, block, real_time):
        with open(self.log, "a", encoding="utf-8") as fh:
            fh.write(f"{self.record(block)}\n")
        return _real_run_batch(system, factor, run_cfg, block, real_time)

    def lines(self) -> list:
        return Path(self.log).read_text().split() if os.path.exists(self.log) else []


def _slow_first(system, factor, run_cfg, block, real_time):
    if block == 0:
        time.sleep(0.2)
    return _real_run_batch(system, factor, run_cfg, block, real_time)


def _killed_at_batch_2(system, factor, run_cfg, block, real_time):
    if block == 2:
        raise Killed
    return _real_run_batch(system, factor, run_cfg, block, real_time)


def _first_row_diverges(*evolve_args):
    """evolve_batch, but the first row of each block diverges."""
    series, diverged = _real_evolve_batch(*evolve_args)
    series[0] = np.nan
    diverged[0] = True
    return series, diverged


def _blas_timeout(batch):
    return os.environ.get("OPENBLAS_THREAD_TIMEOUT", "unset")


def _pid(batch):
    return os.getpid()


@dataclasses.dataclass(frozen=True)
class _DiesAtBatch2:
    """Ends its process, as an out-of-memory kill would, on batch 2, once the
    checkpoint shows batches 0 and 1 merged."""

    checkpoint: str

    def __call__(self, system, factor, run_cfg, block, real_time):
        if block == 2:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    if json.loads(Path(self.checkpoint).read_text())["next_batch"] == 2:
                        break
                except (OSError, ValueError):
                    pass
                time.sleep(0.01)
            os._exit(1)
        return _real_run_batch(system, factor, run_cfg, block, real_time)


def test_pairwise_stats_match_two_pass():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((37, 4)) + 1j * rng.standard_normal((37, 4))
    st = _pairwise_stats(vals.view(float))
    assert st.n == 37
    assert np.abs(st.mean.view(complex) - vals.mean(axis=0)).max() < 1e-12
    var = vals.view(float).var(axis=0, ddof=1)      # real and imaginary parts
    assert np.abs(st.m2 / 36 - var).max() < 1e-12


@pytest.mark.parametrize("k", [37, 255, 256])
def test_real_view_stats_keep_the_bits_of_the_complex_two_pass(k):
    # the real view of complex rows gives, bit for bit, the complex mean and
    # the M2 of the real and imaginary parts that the complex reduction gave
    rng = np.random.default_rng(k)
    vals = 0.3 + rng.standard_normal((k, 50)) + 1j * rng.standard_normal((k, 50))
    mean = vals[0] + (vals - vals[0]).mean(axis=0)
    dev = vals - mean
    st = _pairwise_stats(vals.view(float))
    assert st.n == k
    assert np.array_equal(st.mean.view(complex), mean)
    assert np.array_equal(st.m2[0::2], (dev.real ** 2).sum(axis=0))
    assert np.array_equal(st.m2[1::2], (dev.imag ** 2).sum(axis=0))


def _fold(values, cuts):
    """Chan-fold the two-pass statistics of values split at ``cuts``, in order."""
    acc = _Stats.empty(values.shape[1:])
    for part in np.split(values, cuts):
        acc = acc.merge(_pairwise_stats(part))
    return acc


@settings(max_examples=80)
@given(data=st.data(), n=st.integers(1, 48), t=st.integers(1, 3), d=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), offset=st.floats(-3.0, 3.0),
       spread=st.floats(0.1, 1.0))
def test_stats_fold_under_any_batch_split(data, n, t, d, seed, offset, spread):
    # any consecutive batching folds to the statistics of the whole array, and
    # identical rows keep an M2 of exactly 0 under every split
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    rng = np.random.default_rng(seed)
    shape = (n, t, d, d)
    values = offset + spread * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    folded, whole = _fold(values.view(float), cuts), _pairwise_stats(values.view(float))
    assert folded.n == whole.n == n
    scale = np.abs(values).max()
    assert np.abs(folded.mean.view(complex) - whole.mean.view(complex)).max() <= 1e-12 * scale
    for part in (0, 1):                 # real parts, then imaginary parts
        got, ref = folded.m2[..., part::2], whole.m2[..., part::2]
        assert np.abs(got - ref).max() <= 1e-12 * max(ref.max(), scale ** 2)
    same = np.broadcast_to(values[0], shape).copy()
    folded = _fold(same.view(float), cuts)
    assert np.array_equal(folded.mean, values[0].view(float))
    assert np.all(folded.m2 == 0.0)


def test_run_draws_each_batch_in_one_call(monkeypatch):
    # one draw per batch, keyed by (master_seed, batch index), one row per pair
    # of trajectories: the 5-trajectory last batch draws ceil(5 / 2) = 3 rows,
    # the first 3 rows of a full batch's draw from the same key
    cfg = parse_config(small_doc(n_traj=2 * ensemble.BATCH_SIZE + 5, master_seed=9))
    real_draw = ensemble.draw_normal
    calls, rows = [], []

    def counted(factor, seed, n):
        calls.append((seed, n))
        rows.append(real_draw(factor, seed, n))
        return rows[-1]

    monkeypatch.setattr(ensemble, "draw_normal", counted)
    run_ensemble(cfg, workers=1)
    half = ensemble.BATCH_SIZE // 2
    assert calls == [(ensemble.derive_seed(9, b), n) for b, n in enumerate((half, half, 3))]
    full = real_draw(build_pipeline(cfg).factor, ensemble.derive_seed(9, 2), half)
    assert np.array_equal(rows[2], full[:3])


def test_zero_coupling_is_deterministic_unitary():
    doc = small_doc(n_traj=16)
    doc["system"]["couplings"] = [[[0.0, 0.0], [0.0, 0.0]]]
    doc["grids"] = {"t_f": 1.0, "n_t": 41, "n_tau": 41}
    cfg = parse_config(doc)
    res = run_ensemble(cfg)
    assert res.n_failed == 0
    assert np.all(res.se_re == 0.0) and np.all(res.se_im == 0.0)
    h0 = np.array([[0, 0.5], [0.5, 0]], complex)
    gibbs = scipy.linalg.expm(-h0)
    gibbs /= np.trace(gibbs)
    for k, t in enumerate(res.times):
        u = scipy.linalg.expm(-1j * h0 * t)
        assert np.abs(res.mean_rho[k] - u @ gibbs @ u.conj().T).max() < 1e-8
    report = hermiticity_trace_report(res)
    assert report.status == "PASS"
    assert report.max_hermiticity_z == 0.0 and report.max_trace_z == 0.0


def test_mean_rho_starts_at_mean_rho0():
    cfg = parse_config(small_doc(n_traj=64))
    res = run_ensemble(cfg)
    assert np.array_equal(res.mean_rho[0], res.mean_rho0)
    assert abs(np.trace(res.mean_rho0) - 1.0) < 1e-12


def test_worker_count_never_changes_bits():
    cfg = parse_config(small_doc(n_traj=600))
    res1 = run_ensemble(cfg, workers=1)
    res3 = run_ensemble(cfg, workers=3)
    assert np.array_equal(res1.mean_rho, res3.mean_rho)
    assert np.array_equal(res1.se_re, res3.se_re)
    assert np.array_equal(res1.se_im, res3.se_im)
    assert document_bytes(result_document(res1)) == document_bytes(result_document(res3))


def test_batches_merge_in_batch_order(monkeypatch):
    # at workers = 3 batch 0 finishes after the others, and the short last
    # batch runs before it ends; the merge must still take batch 0 first
    cfg = parse_config(small_doc(n_traj=3 * ensemble.BATCH_SIZE + 17))
    ref = document_bytes(result_document(run_ensemble(cfg, workers=1)))
    monkeypatch.setattr(ensemble, "_run_batch", _slow_first)
    assert document_bytes(result_document(run_ensemble(cfg, workers=3))) == ref


def _driven_61x21(n_traj):
    doc = small_doc(n_traj=n_traj, master_seed=13)
    doc["grids"] = {"t_f": 4.0, "n_t": 61, "n_tau": 21}
    t = np.linspace(0.0, 4.0, 61)
    doc["system"]["drives"] = [{"matrix": [[0.0, 1.0], [1.0, 0.0]],
                                "amplitudes": (0.3 * np.sin(2.0 * t)).tolist()}]
    return parse_config(doc)


def test_each_block_runs_once_whatever_the_worker_count(tmp_path, monkeypatch):
    # _run_batch receives each block 0 ... n - 1 exactly once, a short last
    # block included, and the bytes do not depend on the worker count
    cfg = _driven_61x21(3 * ensemble.BATCH_SIZE + 1)
    pipe = build_pipeline(cfg)
    docs = set()
    for workers in (1, 3):
        seen = _Logged(str(tmp_path / f"blocks-{workers}.txt"))
        monkeypatch.setattr(ensemble, "_run_batch", seen)
        res = run_ensemble(cfg, workers=workers, pipeline=pipe)
        assert sorted(int(block) for block in seen.lines()) == [0, 1, 2, 3]
        docs.add(document_bytes(result_document(res)))
    assert len(docs) == 1


def test_a_failed_row_counts_against_its_own_block(monkeypatch):
    # a leg of pair 7 that diverges, in either phase and on either leg, fails
    # that pair: it counts 2 against the block, and every other pair reaches
    # the reduction with the bits it had
    cfg = _driven_61x21(ensemble.BATCH_SIZE)
    pipe = build_pipeline(cfg)
    args = (pipe.system, pipe.factor, cfg)
    reduced = []
    real_stats = ensemble._pairwise_stats
    monkeypatch.setattr(ensemble, "_pairwise_stats",
                        lambda values: reduced.append(values) or real_stats(values))
    ensemble._run_batch(*args, 0, True)
    clean_inputs = list(reduced)
    half = ensemble.BATCH_SIZE // 2
    for phase in ("equilibrate_batch", "evolve_batch"):
        real_phase = getattr(ensemble, phase)
        for leg in (0, 1):
            # the block's rows are the + legs of its pairs, then their - legs
            bad_row = leg * half + 7

            def one_row_diverges(*phase_args, real_phase=real_phase, bad_row=bad_row):
                out, diverged = real_phase(*phase_args)
                out[bad_row] = np.nan
                diverged[bad_row] = True
                return out, diverged

            reduced.clear()
            with monkeypatch.context() as patch:
                patch.setattr(ensemble, phase, one_row_diverges)
                out = ensemble._run_batch(*args, 0, True)
            assert out.n == half - 1            # 2 * (half - out.n) == 2 failed
            assert np.isfinite(out.mean).all() and np.isfinite(out.m2).all()
            # one row per pair, its series, z-factor and residuals: the clean
            # pairs' rows without pair 7
            assert len(reduced) == len(clean_inputs) == 1
            assert np.array_equal(reduced[0], np.delete(clean_inputs[0], 7, axis=0))


def test_the_second_leg_runs_on_the_negated_noise(monkeypatch):
    # each block propagates [z; -z]: the second half of every field is the
    # first half negated, bit for bit, and the first half is synthesized from
    # the block's ceil(n / 2) rows
    cfg = parse_config(small_doc(n_traj=ensemble.BATCH_SIZE + 5, master_seed=3))
    pipe = build_pipeline(cfg)
    fields = []
    real_equilibrate, real_evolve = ensemble.equilibrate_batch, ensemble.evolve_batch

    def equilibrate(system, mu, *rest):
        fields.append(("mu", mu))
        return real_equilibrate(system, mu, *rest)

    def evolve(system, eta, nu, *rest):
        fields.extend((("eta", eta), ("nu", nu)))
        return real_evolve(system, eta, nu, *rest)

    monkeypatch.setattr(ensemble, "equilibrate_batch", equilibrate)
    monkeypatch.setattr(ensemble, "evolve_batch", evolve)
    run_ensemble(cfg, pipeline=pipe)
    assert [len(f) for _, f in fields] == [ensemble.BATCH_SIZE] * 3 + [6] * 3
    for _, f in fields:
        n = len(f) // 2
        assert np.array_equal(f[n:], -f[:n])
    for block, n in enumerate((ensemble.BATCH_SIZE // 2, 3)):
        w = draw_normal(pipe.factor, ensemble.derive_seed(3, block), n)
        synthesized = dict(zip(("eta", "nu", "mu"), synthesize(pipe.factor, w)))
        for name, f in fields[3 * block:3 * block + 3]:
            assert np.array_equal(f[:n], synthesized[name])


def test_document_counts_add_up_to_the_trajectories_run(monkeypatch):
    # an odd n_traj runs whole pairs, 3 * 512 + 17 = 1553 runs 1554, and a
    # diverged leg counts its pair's two trajectories as failed: the first row
    # of each of the run's four blocks fails here
    cfg = parse_config(small_doc(n_traj=3 * ensemble.BATCH_SIZE + 17))
    monkeypatch.setattr(ensemble, "evolve_batch", _first_row_diverges)
    doc = result_document(run_ensemble(cfg))
    assert doc["config"]["ensemble"]["n_traj"] == 3 * ensemble.BATCH_SIZE + 17
    assert doc["n_traj"] == 3 * ensemble.BATCH_SIZE + 18
    assert doc["n_failed"] == 2 * 4
    assert doc["n_ok"] + doc["n_failed"] == doc["n_traj"]


def test_at_least_two_pairs_run():
    # n_traj = 3 is the least a config takes, and it runs two pairs; a library
    # call that asks for one pair only is refused after it ran
    with pytest.raises(ValidationError) as err:
        parse_config(small_doc(n_traj=2))
    assert err.value.path == "ensemble.n_traj"
    cfg = parse_config(small_doc(n_traj=3))
    res = run_ensemble(cfg)
    assert (res.n_traj, res.n_ok, res.n_failed) == (4, 4, 0)
    for n_traj in (1, 2):
        with pytest.raises(TooManyFailures, match="fewer than two pairs"):
            run_ensemble(cfg.with_overrides(n_traj=n_traj))


def test_single_worker_runs_batches_on_calling_thread(monkeypatch):
    # at workers = 1 no pool thread (and no malloc arena of its own) is used
    cfg = parse_config(small_doc(n_traj=2 * ensemble.BATCH_SIZE + 5))
    real_batch = ensemble._run_batch
    threads = []

    def recorded(system, factor, run_cfg, block, real_time):
        threads.append(threading.current_thread())
        return real_batch(system, factor, run_cfg, block, real_time)

    monkeypatch.setattr(ensemble, "_run_batch", recorded)
    run_ensemble(cfg, workers=1)
    assert threads == [threading.main_thread()] * 3


# the complex columns of a pair row on the 11-point grid below, d = 2; the
# statistics hold the real part of column c at 2 * c and its imaginary part next
_SERIES, _ZFAC, _RESIDUALS = (cols for cols, _ in ensemble._row_layout(11, 2))


@pytest.mark.parametrize("corrupt, message", [
    (lambda out: out.m2.__setitem__(2 * (_SERIES.start + 5 * 4 + 1), np.inf), "time index 5"),
    (lambda out: out.mean.__setitem__(slice(0, 2 * 4), 0.0), "time index 0"),
    (lambda out: out.mean.__setitem__(2 * _ZFAC.start, np.nan), "z-factor"),
    (lambda out: out.m2.__setitem__(2 * (_RESIDUALS.start + 7 * 4 + 3) + 1, np.inf),
     "time index 7"),
], ids=["series_m2_inf", "zero_partition_function", "zfac_mean_nan", "residual_m2_inf"])
def test_non_finite_statistics_raise(tmp_path, monkeypatch, corrupt, message):
    # one batch (n_traj <= BATCH_SIZE) so no merge arithmetic touches the bad
    # value; the message names the time index of a series or residual column
    doc = small_doc(n_traj=64)
    doc["grids"] = {"t_f": 0.5, "n_t": 11, "n_tau": 9}
    real_batch = ensemble._run_batch

    def corrupted(*args):
        out = real_batch(*args)
        corrupt(out)
        return out

    monkeypatch.setattr(ensemble, "_run_batch", corrupted)
    with pytest.raises(NumericalError, match=message):
        run_ensemble(parse_config(doc))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["run", "--config", str(cfg_path), "--output", str(out)]) == 3
    assert not out.exists()


def test_report_scores_each_residual_by_its_own_standard_error(monkeypatch):
    # the entries of one pair mean are correlated, so the report takes the
    # errors of rho - rho^dag and of Tr rho(t) - Tr rho(0) from their values
    # per pair mean, not from the separate errors of the entries
    cfg = _driven_61x21(ensemble.BATCH_SIZE)
    reduced = []
    real_stats = ensemble._pairwise_stats
    monkeypatch.setattr(ensemble, "_pairwise_stats",
                        lambda values: reduced.append(values) or real_stats(values))
    report = hermiticity_trace_report(run_ensemble(cfg))
    cols, shape = ensemble._row_layout(61, 2)[0]
    v = reduced[0].view(complex)[:, cols].reshape(-1, *shape)   # the block's pair means

    def worst_z(residual):
        zs = []
        for part in (residual.real, residual.imag):
            mean = part.mean(axis=0)
            se = part.std(axis=0, ddof=1) / np.sqrt(len(part))
            moved = np.abs(mean) > 1e-12                # exact zeros score 0
            zs.append((np.abs(mean[moved]) / se[moved]).max(initial=0.0))
        return max(zs)

    trace = np.einsum("ptii->pt", v)
    assert report.max_hermiticity_z == pytest.approx(
        worst_z(v - np.conj(np.swapaxes(v, -1, -2))), rel=1e-6)
    assert report.max_trace_z == pytest.approx(worst_z(trace - trace[:, :1]), rel=1e-6)
    assert report.max_hermiticity_z > 0.0 and report.max_trace_z > 0.0


def test_stderr_shrinks_with_more_trajectories():
    cfg = parse_config(small_doc(n_traj=256, master_seed=5))
    res_a = run_ensemble(cfg)
    res_b = run_ensemble(cfg.with_overrides(n_traj=1024))
    ratio = res_b.stderr_rho[1:].mean() / res_a.stderr_rho[1:].mean()
    assert 0.35 <= ratio <= 0.65          # expect ~ 1/2 for 4x trajectories


def test_stationarity_against_oracle():
    cfg = parse_config(small_doc(n_traj=3000, master_seed=31))
    res = run_ensemble(cfg)
    modes = diagonalize_bath(cfg.bath)
    g = mode_couplings(modes, cfg.bath, cfg.system)
    exact = exact_reduced_dynamics(cfg.system, modes, g, TruncatedBath(14), cfg.grids)
    z = np.abs(res.mean_rho - exact) / np.maximum(res.stderr_rho, 1e-30)
    assert z.max() < 5.0, z.max()
    drift = np.abs(res.mean_rho - res.mean_rho[0]) / np.maximum(res.stderr_rho, 1e-30)
    assert drift.max() < 5.0
    report = hermiticity_trace_report(res)
    assert report.status == "PASS"


def test_printed_cross_kernel_breaks_stationarity():
    # Flipping the eta-mu block to -hbar L(t - i tau) makes the average drift
    # visibly from the exact equilibrium; this pins down why the package uses
    # +hbar L(t - i(hbar*beta - tau)).
    doc = small_doc(n_traj=3000, master_seed=31)
    doc["grids"] = {"t_f": 2.0, "n_t": 41, "n_tau": 11}
    cfg = parse_config(doc)
    pipe = build_pipeline(cfg)
    cov = pipe.cov
    grids = cfg.grids
    blk = -pipe.ctx.hbar * k_complex(pipe.ctx, grids.t[:, None], grids.tau[None, :])
    sigma = cov.sigma.copy()
    sigma[:, cov.field_slice("eta"), cov.field_slice("mu")] = blk
    sigma[:, cov.field_slice("mu"), cov.field_slice("eta")] = blk.mT
    flipped = NoiseCovariance(sigma=sigma, n_t=cov.n_t, n_tau=cov.n_tau)
    res = run_ensemble(cfg, pipeline=dataclasses.replace(
        pipe, cov=flipped, factor=factorize(flipped)))
    modes = diagonalize_bath(cfg.bath)
    g = mode_couplings(modes, cfg.bath, cfg.system)
    exact = exact_reduced_dynamics(cfg.system, modes, g, TruncatedBath(14), cfg.grids)
    z = np.abs(res.mean_rho - exact) / np.maximum(res.stderr_rho, 1e-30)
    assert z.max() > 8.0, z.max()


def test_unequal_masses_match_oracle():
    # with masses (1, 2.5) the site weights are not orthogonal, so the mode
    # factors give another <z z^dagger> than a dense site factor would; the
    # estimator must stay exact all the same
    doc = small_doc(n_traj=2048, master_seed=23)
    doc["system"]["couplings"] = [[[0.3, 0.0], [0.0, -0.3]], [[0.2, 0.0], [0.0, -0.2]]]
    doc["bath"] = {"masses": [1.0, 2.5], "lambda": [[2.0, -0.5], [-0.5, 3.0]]}
    doc["grids"] = {"t_f": 2.0, "n_t": 41, "n_tau": 21}
    cfg = parse_config(doc)
    pipe = build_pipeline(cfg)
    res = run_ensemble(cfg, pipeline=pipe)
    g = mode_couplings(pipe.modes, cfg.bath, cfg.system)
    exact = exact_reduced_dynamics(cfg.system, pipe.modes, g, TruncatedBath(12), cfg.grids)
    z = np.abs(res.mean_rho - exact) / np.maximum(res.stderr_rho, 1e-30)
    assert z.max() < 5.0, z.max()


def test_parallel_modes_share_one_channel_in_the_pipeline():
    # two modes coupling through sigma_z: one operator, one covariance, one factor
    doc = small_doc()
    doc["system"]["couplings"] = [[[0.3, 0.0], [0.0, -0.3]], [[0.2, 0.0], [0.0, -0.2]]]
    doc["bath"] = {"masses": [1.0, 1.0], "lambda": [[2.0, -0.5], [-0.5, 3.0]]}
    pipe = build_pipeline(parse_config(doc))
    g = mode_couplings(pipe.modes, pipe.config.bath, pipe.config.system)
    (op,) = pipe.system.couplings
    assert np.array_equal(op, g[0])
    assert pipe.cov.sigma.shape == (1, pipe.cov.dim, pipe.cov.dim)
    assert len(pipe.factor.a) == 1


def test_mixed_channels_match_oracle():
    # sites 0 and 1 share a sub-bath and couple through sigma_z; site 2 has its
    # own and couples through sigma_x: three modes in two channels, one merged
    doc = small_doc(n_traj=2048, master_seed=29)
    doc["system"]["couplings"] = [[[0.6, 0.0], [0.0, -0.6]], [[0.2, 0.0], [0.0, -0.2]],
                                  [[0.0, 0.3], [0.3, 0.0]]]
    doc["bath"] = {"masses": [1.0, 1.0, 1.0],
                   "lambda": [[3.5, -0.5, 0.0], [-0.5, 3.5, 0.0], [0.0, 0.0, 3.3]]}
    doc["grids"] = {"t_f": 2.0, "n_t": 41, "n_tau": 21}
    cfg = parse_config(doc)
    pipe = build_pipeline(cfg)
    g = mode_couplings(pipe.modes, cfg.bath, cfg.system)
    channels, weights = coupling_channels(g)
    assert len(pipe.system.couplings) == len(channels) == 2
    assert sorted((weights != 0).sum(axis=1).tolist()) == [1, 2]     # g_1 = 0.5 g_0
    res = run_ensemble(cfg, pipeline=pipe)
    exact = exact_reduced_dynamics(cfg.system, pipe.modes, g, TruncatedBath(7), cfg.grids)
    z = np.abs(res.mean_rho - exact) / np.maximum(res.stderr_rho, 1e-30)
    assert z.max() < 5.0, z.max()


def test_merged_channel_matches_one_channel_per_mode():
    # sites coupling through sigma_z with opposite signs: two modes in one
    # channel, g_1 = W g_0 with W near -2.  A run through the merged channel
    # (covariance sum_lam W^2 sigma_lam) must agree with a run through one
    # channel per mode (each mode's own coupling and covariance).  A merged
    # covariance of sum_lam W sigma_lam, which flips mode 1's sign, lies
    # about 30 standard errors off here
    doc = small_doc(n_traj=2048, master_seed=43)
    doc["system"]["couplings"] = [[[0.8, 0.0], [0.0, -0.8]], [[-0.4, 0.0], [0.0, 0.4]]]
    doc["bath"] = {"masses": [1.0, 1.0], "lambda": [[2.0, -0.8], [-0.8, 2.5]]}
    doc["grids"] = {"t_f": 2.0, "n_t": 41, "n_tau": 21}
    cfg = parse_config(doc)
    merged = build_pipeline(cfg)
    g = mode_couplings(merged.modes, cfg.bath, cfg.system)
    _, weights = coupling_channels(g)
    assert weights.shape == (1, 2) and weights[0, 1] < -1.5
    cov = build_covariance(merged.ctx, cfg.grids)
    per_mode = dataclasses.replace(
        merged, system=dataclasses.replace(cfg.system, couplings=tuple(g)), cov=cov,
        factor=factorize(cov))
    a = run_ensemble(cfg, pipeline=merged)
    b = run_ensemble(cfg.with_overrides(master_seed=44), pipeline=per_mode)
    z = np.abs(a.mean_rho - b.mean_rho) / np.sqrt(a.stderr_rho ** 2 + b.stderr_rho ** 2 + 1e-300)
    assert z.max() < 5.0, z.max()


def test_sixteen_mode_bath_stays_stationary():
    # as one dense site covariance, 16 * (2 * 201 + 51) = 7248 would exceed
    # noise.dim_cap = 6000; undriven, the partition-free average must keep
    # its t = 0 value at every t (exact for any bath, so no oracle is needed)
    m = 16
    lam = np.diag(2.0 + 0.1 * np.arange(m))
    for i in range(m - 1):
        lam[i, i + 1] = lam[i + 1, i] = -0.5
    doc = small_doc(n_traj=512, master_seed=16)
    doc["system"]["couplings"] = [[[0.05, 0.0], [0.0, -0.05]]] * m
    doc["bath"] = {"masses": [1.0] * m, "lambda": lam.tolist()}
    doc["grids"] = {"t_f": 2.0, "n_t": 201, "n_tau": 51}
    res = run_ensemble(parse_config(doc))
    assert res.n_failed == 0
    scale = np.sqrt(res.stderr_rho ** 2 + res.stderr_rho[:1] ** 2)
    z = np.abs(res.mean_rho - res.mean_rho[0]) / np.maximum(scale, 1e-30)
    assert z.max() < 5.0, z.max()


def test_driven_dynamics_matches_oracle():
    # a smooth ramp perturbs the equilibrated system; the noise average must
    # track the exact driven reduced dynamics, not just the stationary state
    doc = small_doc(n_traj=3000, master_seed=17)
    doc["grids"] = {"t_f": 2.0, "n_t": 81, "n_tau": 41}
    amps = (0.5 * np.sin(np.pi * np.linspace(0.0, 1.0, 81)) ** 2).tolist()
    doc["system"]["drives"] = [{"matrix": [[0.4, 0.0], [0.0, -0.4]],
                                "amplitudes": amps}]
    cfg = parse_config(doc)
    res = run_ensemble(cfg)
    modes = diagonalize_bath(cfg.bath)
    g = mode_couplings(modes, cfg.bath, cfg.system)
    exact = exact_reduced_dynamics(cfg.system, modes, g, TruncatedBath(12),
                                   cfg.grids, drive_substeps=8)
    assert np.abs(exact[-1] - exact[0]).max() > 0.01   # the drive really acts
    z = np.abs(res.mean_rho - exact) / np.maximum(res.stderr_rho, 1e-30)
    assert z.max() < 5.0, z.max()


def test_equilibration_only(tmp_path):
    cfg = parse_config(small_doc(n_traj=2000, master_seed=9))
    res = run_ensemble(cfg, real_time=False)
    modes = diagonalize_bath(cfg.bath)
    g = mode_couplings(modes, cfg.bath, cfg.system)
    exact = exact_reduced_dynamics(cfg.system, modes, g, TruncatedBath(14), cfg.grids)
    z = np.abs(res.mean_rho0 - exact[0]) / np.maximum(res.stderr_rho[0], 1e-30)
    assert z.max() < 5.0
    assert res.times.size == 1
    # only full runs write checkpoints, so this phase can resume none
    with pytest.raises(ValidationError):
        run_ensemble(cfg, real_time=False, checkpoint_path=str(tmp_path / "state.json"))


def test_too_many_failures_aborts():
    # an absurd coupling amplifies every RK4 step past the overflow threshold
    doc = small_doc(n_traj=64)
    doc["system"]["couplings"] = [[[1e10, 0.0], [0.0, 1e10]]]
    cfg = parse_config(doc)
    with pytest.raises(TooManyFailures):
        run_ensemble(cfg)


def test_hermiticity_report_thresholds():
    base = dict(max_trace_z=0.0, min_eigenvalue=0.0)
    assert HermiticityReport(max_hermiticity_z=1.0, n_ok=10, **base).status == "PASS"
    assert HermiticityReport(max_hermiticity_z=9.0, n_ok=10, **base).status == "INCONCLUSIVE"
    assert HermiticityReport(max_hermiticity_z=9.0, n_ok=10_000, **base).status == "FAIL"


def test_checkpoint_resume_is_bit_identical(tmp_path):
    cfg = parse_config(small_doc(n_traj=600, master_seed=21))
    ref = run_ensemble(cfg)

    ckpt = tmp_path / "state.json"
    first = run_ensemble(cfg, checkpoint_path=str(ckpt))
    assert np.array_equal(first.mean_rho, ref.mean_rho)
    assert ckpt.exists()
    data = json.loads(ckpt.read_text())
    assert data["next_batch"] == 2          # written after the last of 2 batches too

    # a rerun picks up the finished run's checkpoint, runs no batch, and lands
    # on the same bits as the uninterrupted run (a mid-run resume is
    # test_checkpoint_resumes_mid_run)
    resumed = run_ensemble(cfg, checkpoint_path=str(ckpt))
    assert np.array_equal(resumed.mean_rho, ref.mean_rho)
    assert np.array_equal(resumed.se_re, ref.se_re)
    assert resumed.n_ok == ref.n_ok


@pytest.mark.parametrize("workers, evolve", [(1, _real_evolve_batch), (2, _real_evolve_batch),
                                             (1, _first_row_diverges)],
                         ids=["1", "2", "failed-pairs"])
def test_checkpoint_resumes_mid_run(tmp_path, monkeypatch, workers, evolve):
    # a run killed in its third of four batches resumes from the checkpoint
    # after batch 2, runs exactly batches 2 and 3, and writes the same bytes;
    # with a failed pair in every block, the failures of batches 0 and 1 come
    # back from the checkpoint's pair count
    monkeypatch.setattr(ensemble, "CHECKPOINT_EVERY", 1)
    monkeypatch.setattr(ensemble, "evolve_batch", evolve)
    cfg = parse_config(small_doc(n_traj=4 * ensemble.BATCH_SIZE, master_seed=21))
    uninterrupted = run_ensemble(cfg, workers=workers)
    ref = document_bytes(result_document(uninterrupted))
    counted = _Logged(str(tmp_path / "ran.txt"))

    ckpt = tmp_path / "state.json"
    monkeypatch.setattr(ensemble, "_run_batch", _killed_at_batch_2)
    with pytest.raises(Killed):
        run_ensemble(cfg, workers=workers, checkpoint_path=str(ckpt))
    assert json.loads(ckpt.read_text())["next_batch"] == 2
    monkeypatch.setattr(ensemble, "_run_batch", counted)
    resumed = run_ensemble(cfg, workers=workers, checkpoint_path=str(ckpt))
    ran = [int(batch) for batch in counted.lines()]
    assert sorted(ran) == [2, 3]
    assert resumed.n_failed == uninterrupted.n_failed == (8 if evolve is _first_row_diverges
                                                           else 0)
    assert document_bytes(result_document(resumed)) == ref


@pytest.mark.parametrize("preset", [None, "20"], ids=["unset", "preset"])
def test_workers_start_with_sleeping_blas_threads(tmp_path, monkeypatch, preset):
    # each worker process starts with OPENBLAS_THREAD_TIMEOUT=4, and the
    # caller's environment is left as it was, the variable unset or at its value
    if preset is None:
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", preset)
    before = dict(os.environ)
    seen = _Logged(str(tmp_path / "blas.txt"), _blas_timeout)
    monkeypatch.setattr(ensemble, "_run_batch", seen)
    run_ensemble(parse_config(small_doc(n_traj=2 * ensemble.BATCH_SIZE)), workers=2)
    assert seen.lines() == ["4", "4"]
    assert dict(os.environ) == before


def test_workers_round_blas_calls_as_the_caller():
    # on this grid the noise synthesis rounds differently with one BLAS thread
    # than with several, so workers must keep the caller's thread count
    doc = small_doc(n_traj=ensemble.BATCH_SIZE)
    doc["grids"] = {"t_f": 4.0, "n_t": 61, "n_tau": 21}
    cfg = parse_config(doc)
    ref = document_bytes(result_document(run_ensemble(cfg)))
    assert document_bytes(result_document(run_ensemble(cfg, workers=2))) == ref


def test_pool_leaves_no_processes(monkeypatch):
    cfg = parse_config(small_doc(n_traj=3 * ensemble.BATCH_SIZE))
    run_ensemble(cfg, workers=2)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(ensemble, "_run_batch", _killed_at_batch_2)
    with pytest.raises(Killed):
        run_ensemble(cfg, workers=2)
    assert multiprocessing.active_children() == []


def _live_in_session(sid: int) -> list:
    """The pids of the processes of session ``sid`` that have not exited."""
    out = subprocess.run(["ps", "-e", "-o", "pid=,sid=,stat="], capture_output=True,
                         text=True, check=True).stdout
    return [int(pid) for pid, s, stat in (line.split() for line in out.splitlines())
            if int(s) == sid and not stat.startswith("Z")]


@pytest.mark.skipif(shutil.which("ps") is None, reason="needs ps to list a session")
def test_killed_run_leaves_no_worker(tmp_path):
    # a pooled `esln run` killed with SIGKILL (as an out-of-memory kill would
    # end it) takes its workers and the resource tracker with it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_doc(n_traj=10 ** 6)))
    env = dict(os.environ, PYTHONPATH=str(Path(esln.__file__).resolve().parent.parent))
    proc = subprocess.Popen([sys.executable, "-m", "esln.cli", "run", "--config", str(cfg),
                             "--workers", "2", "--output", str(tmp_path / "out.json")],
                            env=env, start_new_session=True, stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while len(_live_in_session(proc.pid)) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(_live_in_session(proc.pid)) >= 3, "the two workers never started"
        time.sleep(1.0)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while _live_in_session(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _live_in_session(proc.pid) == []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def test_pool_starts_one_process_per_remaining_batch(tmp_path, monkeypatch):
    # workers = 4 on a 2-batch run starts 2 processes; a resume with no batch
    # left starts none
    sizes = []

    def spy(*args, max_workers, **kwargs):
        sizes.append(max_workers)
        return ProcessPoolExecutor(*args, max_workers=max_workers, **kwargs)

    cfg = parse_config(small_doc(n_traj=2 * ensemble.BATCH_SIZE, master_seed=21))
    pids = _Logged(str(tmp_path / "pids.txt"), _pid)
    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", spy)
    monkeypatch.setattr(ensemble, "_run_batch", pids)
    ckpt = tmp_path / "state.json"
    run_ensemble(cfg, workers=4, checkpoint_path=str(ckpt))
    assert sizes == [2]
    assert len(pids.lines()) == 2 and len(set(pids.lines())) <= 2
    run_ensemble(cfg, workers=4, checkpoint_path=str(ckpt))
    assert sizes == [2]
    assert len(pids.lines()) == 2


def test_dead_worker_is_a_typed_failure(tmp_path, monkeypatch, capsys):
    # a worker process that dies (os._exit, as an out-of-memory kill would end
    # it) raises WorkerLost naming the first batch not merged, exit 3 on the
    # command line; the checkpoint it leaves resumes to the reference bytes
    monkeypatch.setattr(ensemble, "CHECKPOINT_EVERY", 1)
    doc = small_doc(n_traj=4 * ensemble.BATCH_SIZE, master_seed=21)
    cfg = parse_config(doc)
    ref = document_bytes(result_document(run_ensemble(cfg)))
    ckpt = tmp_path / "state.json"
    monkeypatch.setattr(ensemble, "_run_batch", _DiesAtBatch2(str(ckpt)))
    with pytest.raises(WorkerLost) as err:
        run_ensemble(cfg, workers=2, checkpoint_path=str(ckpt))
    assert "batch 2 and later were not merged" in str(err.value)
    assert json.loads(ckpt.read_text())["next_batch"] == 2
    assert multiprocessing.active_children() == []

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    cli_ckpt = tmp_path / "cli_state.json"
    monkeypatch.setattr(ensemble, "_run_batch", _DiesAtBatch2(str(cli_ckpt)))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out.json"),
                 "--workers", "2", "--checkpoint", str(cli_ckpt)]) == 3
    assert "batch 2" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()

    monkeypatch.setattr(ensemble, "_run_batch", _real_run_batch)
    resumed = run_ensemble(cfg, workers=2, checkpoint_path=str(ckpt))
    assert document_bytes(result_document(resumed)) == ref


def test_script_without_main_guard_fails_instead_of_hanging(tmp_path):
    # each spawned worker re-runs an unguarded script, whose run_ensemble cannot
    # start processes while the worker is still starting, so the worker dies;
    # the caller gets WorkerLost.  quick_demo's noise factor is larger than a
    # pipe buffer, which is what once left the caller blocked for good.
    script = tmp_path / "unguarded.py"
    config = Path(__file__).resolve().parent.parent / "configs" / "quick_demo.json"
    script.write_text("import esln\n"
                      f"cfg = esln.load_config({str(config)!r}).with_overrides(n_traj=512)\n"
                      "esln.run_ensemble(cfg, workers=2)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(esln.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 1
    assert "WorkerLost: a worker process died; batch 0" in done.stderr


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_must_be_positive(workers):
    cfg = parse_config(small_doc(n_traj=64))
    with pytest.raises(ValidationError) as err:
        run_ensemble(cfg, workers=workers)
    assert err.value.path == "workers"


def test_checkpoint_refuses_other_layout(tmp_path):
    # a checkpoint resumes only into the noise streams that wrote it: the same
    # noise factor, bit for bit, the same batch size and the same package version
    cfg = parse_config(small_doc(n_traj=600, master_seed=21))
    ckpt = tmp_path / "state.json"
    run_ensemble(cfg, checkpoint_path=str(ckpt))
    written = json.loads(ckpt.read_text())
    assert written["layout"]["batch_size"] == ensemble.BATCH_SIZE
    for key, value in (("factor_sha256", "0" * 64), ("batch_size", 128), ("batch_size", 256),
                       ("version", "0.1.0"), ("version", "0.4.0"), ("version", "0.6.0"),
                       ("version", "0.7.0"), ("version", "0.8.0"), (None, None)):
        data = json.loads(json.dumps(written))
        if key is None:
            del data["layout"]                  # written before the layout was recorded
        else:
            data["layout"][key] = value
        ckpt.write_text(json.dumps(data))
        with pytest.raises(ValidationError) as err:
            run_ensemble(cfg, checkpoint_path=str(ckpt))
        assert err.value.path == "checkpoint"


def _edit(change):
    """A damage that decodes the checkpoint, applies ``change`` and encodes it again."""
    def damage(text):
        data = json.loads(text)
        change(data)
        return json.dumps(data)
    return damage


_DAMAGES = {
    "truncated": lambda text: text[:len(text) // 2],
    "not-an-object": lambda text: "[]",
    "no-series": _edit(lambda data: data.pop("pairs")),       # the record holding it
    "three-rows": _edit(lambda data: data["pairs"].update(
        {key: rows[:3] for key, rows in data["pairs"].items() if key != "n"})),
    "next-batch-negative": _edit(lambda data: data.update(next_batch=-5)),
    "next-batch-past-end": _edit(lambda data: data.update(next_batch=99)),
    "next-batch-string": _edit(lambda data: data.update(next_batch="2")),
    "counts-short-of-batches": _edit(lambda data: (data["pairs"].update(n=5),
                                                   data.update(n_failed=2))),
    # 600 trajectories: 2 * 299.5 + 2 and 2 * -1 + 602 add up, but are no counts
    "n-fractional": _edit(lambda data: (data["pairs"].update(n=299.5),
                                        data.update(n_failed=2))),
    "n-negative": _edit(lambda data: (data["pairs"].update(n=-1), data.update(n_failed=602))),
    "n-failed-bool": _edit(lambda data: data.update(n_failed=False)),
    # a negative M2 would put NaN standard errors into the document, a NaN
    # mean would end the run as a numerical failure
    "m2-negative": _edit(lambda data: data["pairs"]["m2"].__setitem__(10, -1.0)),
    "mean-nan": _edit(lambda data: data["pairs"]["mean"].__setitem__(11, float("nan"))),
}


@pytest.mark.parametrize("damage", _DAMAGES.values(), ids=_DAMAGES.keys())
def test_damaged_checkpoint_is_refused(tmp_path, capsys, damage):
    # a torn or malformed checkpoint is a configuration error (exit 2) in the
    # library and on the command line, never a traceback
    doc = small_doc(n_traj=600, master_seed=21)
    cfg = parse_config(doc)
    ckpt = tmp_path / "state.json"
    run_ensemble(cfg, checkpoint_path=str(ckpt))
    ckpt.write_text(damage(ckpt.read_text()))
    with pytest.raises(ValidationError) as err:
        run_ensemble(cfg, checkpoint_path=str(ckpt))
    assert err.value.path == "checkpoint"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_path), "--output", str(tmp_path / "out.json"),
                 "--checkpoint", str(ckpt)]) == 2
    assert "checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_settings_that_fix_no_number_leave_the_bytes_alone(tmp_path):
    # the output paths, the oracle and the covariance cap are not echoed: two
    # runs that differ only there write the same bytes, and a checkpoint
    # written by one resumes under the other
    doc_a = small_doc(n_traj=600, master_seed=21,
                      output={"document": "a.json", "csv": "a.csv"},
                      oracle={"n_levels": 12}, noise={"dim_cap": 100})
    doc_b = small_doc(n_traj=600, master_seed=21, output={"document": "b.json"},
                      oracle={"n_levels": 5, "cap": 64})
    cfg_a, cfg_b = parse_config(doc_a), parse_config(doc_b)
    assert cfg_a.dim_cap != cfg_b.dim_cap
    ref = document_bytes(result_document(run_ensemble(cfg_a)))
    assert document_bytes(result_document(run_ensemble(cfg_b))) == ref
    assert set(json.loads(ref)["config"]) == {"system", "bath", "grids", "ensemble"}
    ckpt = tmp_path / "state.json"
    run_ensemble(cfg_a, checkpoint_path=str(ckpt))
    resumed = run_ensemble(cfg_b, checkpoint_path=str(ckpt))
    assert document_bytes(result_document(resumed)) == ref


def test_package_version_matches_pyproject():
    # the version is part of a checkpoint's layout, so both places must agree
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == esln.__version__


def test_checkpoint_refuses_other_schema(tmp_path):
    cfg = parse_config(small_doc(n_traj=300, master_seed=21))
    ckpt = tmp_path / "state.json"
    run_ensemble(cfg, checkpoint_path=str(ckpt))
    data = json.loads(ckpt.read_text())
    assert data["schema"] == ensemble.DOCUMENT_SCHEMA + "+checkpoint"
    data["schema"] = "esln-result/1+checkpoint"
    ckpt.write_text(json.dumps(data))
    with pytest.raises(ValidationError) as err:
        run_ensemble(cfg, checkpoint_path=str(ckpt))
    assert err.value.path == "checkpoint"


def test_pipeline_reused_across_seed_and_count_overrides(monkeypatch):
    cfg = parse_config(small_doc(n_traj=64))
    pipe = build_pipeline(cfg)
    run_cfg = cfg.with_overrides(n_traj=32, master_seed=5)
    ref = run_ensemble(run_cfg)
    calls = []
    monkeypatch.setattr(ensemble, "build_pipeline",
                        lambda c: calls.append(c) or build_pipeline(c))
    res = run_ensemble(run_cfg, pipeline=pipe)
    assert calls == []
    assert res.n_traj == 32
    assert document_bytes(result_document(res)) == document_bytes(result_document(ref))
    # a config parsed anew holds new system and bath objects, so it is rebuilt
    run_ensemble(parse_config(small_doc(n_traj=32)), pipeline=pipe)
    assert len(calls) == 1


def test_document_and_csv_roundtrip(tmp_path):
    cfg = parse_config(small_doc(n_traj=64))
    res = run_ensemble(cfg)
    doc_path = tmp_path / "out.json"
    csv_path = tmp_path / "out.csv"
    write_document(res, str(doc_path))
    write_csv(res, str(csv_path))
    doc = json.loads(doc_path.read_text())
    assert doc["n_ok"] == res.n_ok
    mr = np.array(doc["mean_rho"])
    assert np.abs(mr[..., 0] + 1j * mr[..., 1] - res.mean_rho).max() == 0.0
    times, mean, se_re, se_im = read_csv(str(csv_path))
    assert np.array_equal(mean, res.mean_rho)
    assert np.array_equal(se_re, res.se_re)
    max_z, _ = compare_series(str(csv_path), str(csv_path))
    assert max_z == 0.0
